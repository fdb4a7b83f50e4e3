"""Read out a register qubit through a chain of weak ancilla couplings.

Each round couples a fresh |+> ancilla to the register via (H x H) C-Rz(theta)
with the register as control, then reads the ancilla in the computational
basis. Outcome 1 projects the register onto |1> exactly; outcome 0 damps the
|1> amplitude by cos(theta/2). Declaring "0" after n silent rounds mislabels
a |1> input with probability at most cos(theta/2)^(2n), so the round count
for a target confidence follows from a logarithm, with theta = pi recovering
the one-shot projective limit.
"""

from __future__ import annotations

import numpy as np

from adqcsim.measure import (
    MeasureConfig,
    interaction_cost,
    measurement_ensemble,
    required_steps,
    run_measurement,
    weak_step,
)
from adqcsim.qmath import basis_state, bloch_to_state, plus_state
from adqcsim.seeding import derive_rng

THETA = np.pi / 4

print("=== rounds needed per confidence level ===\n")
print(" epsilon   rounds   couplings")
for eps in (0.2, 0.1, 0.05, 0.01, 0.001):
    n = required_steps(THETA, eps)
    print(f" {eps:7.3f}   {n:6d}   {interaction_cost(n):9d}")
print(f" (projective theta=pi: {required_steps(np.pi, 0.05)} round)\n")

print("=== one stochastic trajectory ===\n")
rng = derive_rng(77, 0)
state = bloch_to_state(2.0, 0.3)
print(f"input |1|^2 = {abs(state[1]) ** 2:.4f}")
for step in range(1, 9):
    outcome, state, prob = weak_step(state, THETA, rng)
    print(f"  round {step}: outcome {outcome} (p={prob:.4f}), "
          f"remaining |1|^2 = {abs(state[1]) ** 2:.4f}")
    if outcome == 1:
        print("  -> register collapsed to |1>, label 1")
        break
print()

print("=== full protocol on the three reference inputs ===\n")
cfg = MeasureConfig(theta=THETA, epsilon=0.05)
print(f"config: theta=pi/4, epsilon=0.05 -> n={cfg.n_steps} rounds")
for label, state in (("|0>", basis_state(0)), ("|1>", basis_state(1)),
                     ("|+>", plus_state())):
    res = run_measurement(state, cfg, derive_rng(314, 1))
    print(f"  input {label}: label {res.label} after {res.steps_used} rounds, "
          f"residual bound {res.residual_bound:.3e}")
print()

print("=== mislabel statistics for a |1> input ===\n")
n_trials = 5000
results = measurement_ensemble(basis_state(1), cfg, 314, n_trials)
wrong = sum(1 for r in results if r.label == 0)
bound = np.cos(THETA / 2) ** (2 * cfg.n_steps)
print(f"trials: {n_trials}, mislabels: {wrong} "
      f"(rate {wrong / n_trials:.5f}, bound {bound:.5f})")

clicks = np.array([r.steps_used for r in results if r.label == 1], dtype=float)
print(f"rounds to the first click: mean {clicks.mean():.2f} "
      f"(geometric prediction {1 / np.sin(THETA / 2) ** 2:.2f})")
