"""Generate an entangling gate from two weak ancilla couplings.

One ancilla visits two register qubits in turn, coupling to each through a
weak diagonal interaction and receiving a fixed rotation in between. The four
computational register branches steer the ancilla to four final states that
sit on a circle on the Bloch sphere. Measuring the ancilla along the axis
through that circle's midpoint makes all four branch probabilities equal, and
the leftover branch phases act on the register as a diagonal two-qubit gate
with entangling phase Phi. Balancing the two coupling strengths so that the
two measurement outcomes give Phi = +pi and -pi turns repeat-until-success
into a deterministic-depth CZ factory: a failed attempt is undone by a
sign-flipped second round.
"""

from __future__ import annotations

import itertools

import numpy as np

from adqcsim.egg import (
    EggConfig,
    effective_beta,
    entangling_phase,
    final_ancilla_states,
    find_balanced_beta,
    midpoint_measurement,
    outcome_probabilities,
    phi_scan,
    register_unitary,
    run_rus,
    success_probability,
    symmetric_config,
)
from adqcsim.seeding import derive_rng

np.set_printoptions(precision=4, suppress=True)

ALPHA = np.pi / 16

print("=== the four-branch ancilla ring ===\n")
cfg = symmetric_config(ALPHA)
print(f"couplings: alpha={ALPHA:.5f} on both qubits (beta={cfg.beta:.5f})")
traj = final_ancilla_states(cfg)
for idx, pt in enumerate(traj.bloch):
    i, j = divmod(idx, 2)
    print(f"  branch |{i}{j}>: theta={pt.theta:.4f}, phi={pt.phi:+.4f}")
basis = midpoint_measurement(traj)
print(f"ring midpoint at Bloch axis {np.round(basis.axis, 4)}, "
      f"cap half-angle {basis.cap_half_angle:.4f}")
print()

plus, minus = register_unitary(traj, (basis.m, basis.m_perp))
print("outcome '+': p =", f"{plus.probability:.4f}",
      " register phases =", np.round(np.angle(np.exp(1j * plus.phi)), 4))
print("outcome '-': p =", f"{minus.probability:.4f}",
      " register phases =", np.round(np.angle(np.exp(1j * minus.phi)), 4))
print("entangling phase Phi(+):", f"{entangling_phase(plus.phi):+.4f}")
print("entangling phase Phi(-):", f"{entangling_phase(minus.phi):+.4f}")
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
# reachable coupling follows from the preparation angle.
print(f"(a preparation tilt of pi/6 only reaches beta = "
      f"{effective_beta(np.pi / 6, ALPHA):.5f})")
print()

print("=== repeat until success ===\n")
rng = derive_rng(20240901, 99)
result = run_rus(ALPHA, rng)
print(f"one run: success after {result.attempts} attempts")
for rec in result.log:
    print(f"  attempt {rec.attempt}: outcomes ({rec.outcome_first}, "
          f"{rec.outcome_second}) -> "
          f"{'success' if rec.success else 'undone'}, "
          f"combined phase {rec.combined_phase:+.4f}")

# the first n attempts of independent runs, one derived stream per run
n = 20_000
logs = (run_rus(ALPHA, derive_rng(20240901, t)).log for t in itertools.count())
succ = [rec.success for rec in itertools.islice(itertools.chain.from_iterable(logs), n)]
print(f"\n{n} independent attempts: empirical success rate "
      f"{np.mean(succ):.4f} vs analytic {p_succ:.4f}")
print(f"mean attempts to success: {1 / p_succ:.2f}")
