"""Gate synthesis as a random walk on the single-qubit unitaries.

When the ancilla readout is a fair coin, each coupling round multiplies the
accumulated register unitary by u0 or u1 at random. Stopping the first time
the product lands within trace distance epsilon of a target gate turns
synthesis into a hitting-time problem. This script runs the two preset
couplings against rx(pi/2) and looks at the hitting-time statistics: the
tail is exponential, and the two-parameter preset has a cluster of almost
exact four-step words that shows up as a spike in the first histogram bin.
"""

from __future__ import annotations

import numpy as np

from adqcsim.qmath import trace_distance
from adqcsim.sqwalk import (
    fit_exponential,
    histogram,
    log_bin_counts,
    log_linear_r2,
    run_ensemble,
    walk_config,
)

TRIALS = 400
SEED = 424242


def summarize(name: str, cfg) -> None:
    results = run_ensemble(cfg, SEED, TRIALS)
    steps = np.array([r.steps for r in results], dtype=float)
    hits = sum(1 for r in results if r.hit)
    h = histogram(steps, bins=20)
    lam = fit_exponential(steps)
    r2 = log_linear_r2(h)
    print(f"--- {name} ---")
    print(f"trials={TRIALS}, hits={hits}, mean steps={steps.mean():.1f}, "
          f"median={np.median(steps):.0f}")
    print(f"exponential rate lambda={lam:.3e}  (1/lambda={1 / lam:.1f})")
    print(f"log-linear R^2 over busy bins: {r2:.4f}")
    width = h.bin_edges[1] - h.bin_edges[0]
    peak = max(h.counts)
    for i, c in enumerate(h.counts[:10]):
        bar = "#" * int(round(40 * c / peak))
        print(f"  [{h.bin_edges[i]:>8.0f}, {h.bin_edges[i] + width:>8.0f}) "
              f"{c:>4d} {bar}")
    print()


print("target: rx(pi/2), epsilon = 0.05\n")
summarize("one-parameter preset", walk_config("one-param"))
summarize("two-parameter preset", walk_config("two-param"))

# The first-bin spike of the two-parameter walk comes from short words that
# almost reach the target. Brute-force all words up to length 4:
cfg = walk_config("two-param")
print("--- best short words, two-parameter preset ---")
for length in range(1, 5):
    best = None
    best_word = None
    for word in np.ndindex(*([2] * length)):
        u = np.eye(2, dtype=complex)
        for b in word:
            u = (cfg.u1 if b else cfg.u0) @ u
        d = trace_distance(u, cfg.target)
        if best is None or d < best:
            best, best_word = d, word
    marker = "  <-- inside the hitting ball" if best < cfg.epsilon else ""
    print(f"length {length}: min distance {best:.6f} at "
          f"{''.join(map(str, best_word))}{marker}")

# Log-counts of the one-parameter histogram land on a line, the signature of
# a geometric hitting time.
print("\n--- log-linear tail, one-parameter preset ---")
results = run_ensemble(walk_config("one-param"), SEED, TRIALS)
h = histogram(np.array([r.steps for r in results], dtype=float), bins=12)
for x, y in log_bin_counts(h):
    print(f"  bin center {x:>9.1f}   ln(count) {y:.3f}")
