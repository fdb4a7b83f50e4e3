"""Iterative weak measurement of a register qubit in the computational basis.

Each round couples a fresh |+> ancilla to the register through
E = (H x H) . C-Rz(theta), measures the ancilla in the computational basis
and applies an H correction to the register.  The effective register
operators per round are

    M0 = diag(1, cos(theta/2))        outcome 0 (weak no-click)
    M1 = diag(0, -i sin(theta/2))     outcome 1 (projects onto |1>)

A chain of n all-zero outcomes is labelled "|0>"; any 1 halts the chain and
labels "|1>" with the register left exactly in |1>.  The mislabel amplitude
after n zero rounds is cos^n(theta/2), giving the logarithmic step bound
n >= ln(eps) / ln(cos(theta/2)).  Each simulated round stands for two
ancilla interactions (the H correction itself costs one), reported as cost
metadata rather than simulated.

A chain runs in closed form.  After k zero outcomes the register a|0> +
b|1> is (a, b c^k) / norm, with c = cos(theta/2) and s = sin(theta/2), so
round k + 1 reads 1 with probability

    p1_k = |b|^2 c^(2k) s^2 / (|a|^2 + |b|^2 c^(2k)),    p0_k = 1 - p1_k.

:func:`run_measurement` compares one ``rng.random(n)`` with p0_k, so it
takes all n draws from its generator even when the chain halts early.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    as_state,
    as_unitary,  # unused; kept as a binding bench/tracing.py wraps
    basis_state,
    c_rz,
    hadamard,
    plus_state,
    sample_outcome,
    tensor,
)
from .seeding import derive_rng


def weak_interaction(theta: float) -> np.ndarray:
    """(H x H) . C-Rz(theta) with the rotation conditioned on the register.

    This is the coupling whose ancilla outcome implements the weak
    z-measurement; the programming mode conditions on the ancilla instead.
    """
    return tensor(hadamard(), hadamard()) @ c_rz(theta, control=1)


def required_steps(theta: float, epsilon: float) -> int:
    """Smallest n with cos^n(theta/2) <= epsilon, at least 1.

    theta = pi is the projective special case: one step suffices and the
    logarithm is avoided.  Values a rounding error above pi (hand-typed
    decimals) are clamped to pi.  A theta below about 2e-8 is rejected.
    """
    if np.pi < theta < np.pi + 1e-6:
        theta = np.pi
    if not 0.0 < theta <= np.pi:
        raise ValueError("theta must lie in (0, pi]")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if theta == np.pi:
        return 1
    c = np.cos(theta / 2)
    if c >= 1.0:
        raise ValueError("theta is too small: cos(theta/2) rounds to 1")
    return max(1, int(np.ceil(np.log(epsilon) / np.log(c))))


def step_operators(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Effective per-round register operators (H correction included)."""
    half = theta / 2
    m0 = np.diag([1.0, np.cos(half)]).astype(complex)
    m1 = np.diag([0.0, -1j * np.sin(half)])
    return m0, m1


def weak_step(
    register: np.ndarray,
    theta: float,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> tuple[int, np.ndarray, float]:
    """One ancilla round: sample the outcome and update the register.

    Outcome 0 leaves alpha|0> + beta cos(theta/2)|1> (renormalised) with
    probability |alpha|^2 + |beta|^2 cos^2(theta/2); outcome 1 occurs with
    probability |beta|^2 sin^2(theta/2) and leaves exactly |1>.  The
    outcome is drawn, or forced, by :func:`~adqcsim.qmath.sample_outcome`.
    """
    psi = as_state(register)
    if psi.size != 2:
        raise ValueError("register must be a single qubit")
    half = theta / 2
    p1 = float(abs(psi[1]) ** 2 * np.sin(half) ** 2)
    p0 = 1.0 - p1
    if sample_outcome(p0, p1, rng, forced):
        return 1, basis_state(1), p1
    post = np.array([psi[0], psi[1] * np.cos(half)])
    return 0, post / np.linalg.norm(post), p0


@dataclass(frozen=True)
class MeasureConfig:
    """Coupling, fidelity target and base seed of a chain; checked when built."""

    theta: float
    epsilon: float = 0.05
    seed: int = 0

    def __post_init__(self):
        # n_steps, the chain length, is set once here; required_steps checks the inputs
        object.__setattr__(self, "n_steps", required_steps(self.theta, self.epsilon))


@dataclass(frozen=True)
class MeasureResult:
    """Outcome of one measurement chain.

    ``residual_bound`` is the worst-case amplitude remaining on the
    discarded branch: cos^steps(theta/2) for label 0, exactly 0 for label 1.
    """

    label: int
    steps_used: int
    post_state: np.ndarray
    residual_bound: float


def run_measurement(
    register: np.ndarray, cfg: MeasureConfig, rng: np.random.Generator
) -> MeasureResult:
    """Chain up to n weak rounds, halting at the first 1 outcome.

    Draw k of one ``rng.random(n)`` decides round k + 1 against p0_k (module
    docstring) by the rule of :func:`~adqcsim.qmath.sample_outcome`, so each
    round reads what :func:`weak_step` calls on the same stream read, and an
    impossible branch still raises.  All n draws are taken, even on an early halt.
    """
    psi = as_state(register)
    if psi.size != 2:
        raise ValueError("register must be a single qubit")
    n, half = cfg.n_steps, cfg.theta / 2
    a2, b2 = abs(psi) ** 2
    tail = b2 * (np.cos(half) ** 2) ** np.arange(n)
    # |b_k|^2 after k zero rounds; a = 0 stays |1> (and tail may underflow to 0)
    p1 = (tail / (a2 + tail) if a2 else np.ones(n)) * np.sin(half) ** 2
    p0 = 1.0 - p1
    clicks = np.flatnonzero(rng.random(n) >= p0)
    k = int(clicks[0]) if clicks.size else n
    if k:  # p0_k grows with k: round 1 is the lightest 0 branch taken
        sample_outcome(p0[0], p1[0], forced=0)
    if k < n:
        sample_outcome(p0[k], p1[k], forced=1)
        return MeasureResult(1, k + 1, basis_state(1), 0.0)
    residual = np.cos(half) ** n
    post = np.array([psi[0], psi[1] * residual])
    return MeasureResult(0, n, post / np.linalg.norm(post), float(residual))


def measurement_ensemble(
    register: np.ndarray, cfg: MeasureConfig, trials: int
) -> list[MeasureResult]:
    """Independent chains with per-trial derived generators."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [
        run_measurement(register, cfg, derive_rng(cfg.seed, t)) for t in range(trials)
    ]


def initialize_register(
    cfg: MeasureConfig, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Prepare a fresh register near |0> or exactly in |1> from |+>.

    Runs the measurement chain, which takes n draws from ``rng``, on the
    maximally undetermined |+> input and returns (state, label); the
    label-0 state is within the residual bound of |0>.
    """
    result = run_measurement(plus_state(), cfg, rng)
    return result.post_state, result.label


def interaction_cost(steps: int) -> int:
    """Ancilla interactions consumed by a chain: each round costs two."""
    return 2 * steps
