"""Generate an entangling gate from two weak ancilla couplings.

One ancilla visits two register qubits in turn, coupling to each through a
weak diagonal interaction and receiving a fixed rotation in between. The four
computational register branches steer the ancilla to four final states

    |a_ij> = rz((-1)^j 2 alpha) rx(pi/2) rz((-1)^i 2 beta) |+>,

which sit on a circle on the Bloch sphere around the x axis. Measuring the
ancilla in the |+>, |-> basis, along the axis through that circle's
midpoint, makes all four branch probabilities equal: |+> has probability
p+ = cos^2 of the ring's cap half-angle. The leftover branch phases, read
from the closed-form overlaps <+/-|a_ij>, act on the register as a diagonal
two-qubit gate with entangling phase Phi. Balancing the two coupling
strengths so that the two measurement outcomes give Phi = +pi and -pi turns
repeat-until-success into a deterministic-depth CZ factory: a failed attempt
is undone by a sign-flipped second round.
"""

from __future__ import annotations

import itertools

import numpy as np

from adqcsim.egg import (
    analytic_overlaps,
    find_balanced_beta,
    outcome_probabilities,
    phi_scan,
    run_rus,
    rus_phases,
    success_probability,
)
from adqcsim.qmath import plus_state, rx, rz, state_to_bloch
from adqcsim.seeding import derive_rng

np.set_printoptions(precision=4, suppress=True)

ALPHA = np.pi / 16

print("=== the four-branch ancilla ring ===\n")
beta = ALPHA  # preparation |+> on the equator: the split is the coupling itself
print(f"couplings: alpha={ALPHA:.5f} on both qubits (beta={beta:.5f})")
for i, j in itertools.product((0, 1), repeat=2):
    state = rz((-1) ** j * 2 * ALPHA) @ rx(np.pi / 2) @ rz((-1) ** i * 2 * beta) @ plus_state()
    pt = state_to_bloch(state)
    print(f"  branch |{i}{j}>: theta={pt.theta:.4f}, phi={pt.phi:+.4f}")
p_plus, p_minus = outcome_probabilities(ALPHA, beta)
print(f"ring midpoint at Bloch axis {state_to_bloch(plus_state()).cartesian} (the state |+>), "
      f"cap half-angle {np.arccos(np.sqrt(p_plus)):.4f}")
print()

c_plus, c_minus = analytic_overlaps(ALPHA, beta)
print("outcome '+': p =", f"{p_plus:.4f}", " register phases =", np.round(np.angle(c_plus), 4))
print("outcome '-': p =", f"{p_minus:.4f}", " register phases =", np.round(np.angle(c_minus), 4))
here = phi_scan(ALPHA, (beta, beta), 1)[0]
print("entangling phase Phi(+):", f"{here.phi_plus:+.4f}")
print("entangling phase Phi(-):", f"{here.phi_minus:+.4f}")
print()

# Unequal couplings shift the two entangling phases in opposite directions.
# Scan the second coupling beta and watch the gap delta = Phi(+) - Phi(-).
print("=== balancing the couplings ===\n")
rows = phi_scan(ALPHA, samples=9)
print(" beta      Phi(+)    Phi(-)    delta     p(+)    success")
for r in rows:
    print(f"{r.beta:7.4f}  {r.phi_plus:+8.4f}  {r.phi_minus:+8.4f}  "
          f"{r.delta_phi:8.4f}  {r.p_plus:6.4f}  {r.success_prob:7.4f}")

beta_star = find_balanced_beta(ALPHA)
p_succ = success_probability(ALPHA, beta_star)
print(f"\nbalance point: beta* = {beta_star:.6f}")
print(f"outcome probabilities at beta*: {outcome_probabilities(ALPHA, beta_star)}")
print(f"success probability of one attempt: 2 p+ p- = {p_succ:.6f}")

# The strongest available preparation rotation may not reach beta*; the
# reachable split follows from the preparation angle theta_prep as
# sin 2 beta = sin(theta_prep) sin 2 alpha.
tilted = np.arcsin(np.sin(np.pi / 6) * np.sin(2 * ALPHA)) / 2
print(f"(a preparation tilt of pi/6 only reaches beta = {tilted:.5f})")
print()

print("=== repeat until success ===\n")
rng = derive_rng(20240901, 99)
result = run_rus(ALPHA, rng)
phases = rus_phases(ALPHA)  # combined phase by pair code 2 m1 + m2
print(f"one run: success after {result.attempts} attempts")
for k, code in enumerate(result.codes, 1):
    m1, m2 = divmod(code, 2)
    print(f"  attempt {k}: outcomes ({m1}, {m2}) -> "
          f"{'success' if m1 != m2 else 'undone'}, "
          f"combined phase {phases[code]:+.4f}")

# the first n attempts of independent runs, one derived stream per run
n = 20_000
codes = (run_rus(ALPHA, derive_rng(20240901, t)).codes for t in itertools.count())
succ = [c in (1, 2) for c in itertools.islice(itertools.chain.from_iterable(codes), n)]
print(f"\n{n} independent attempts: empirical success rate "
      f"{np.mean(succ):.4f} vs analytic {p_succ:.4f}")
print(f"mean attempts to success: {1 / p_succ:.2f}")
