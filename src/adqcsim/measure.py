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
    decimals) are clamped to pi.
    """
    if np.pi < theta < np.pi + 1e-6:
        theta = np.pi
    if not 0.0 < theta <= np.pi:
        raise ValueError("theta must lie in (0, pi]")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    c = np.cos(theta / 2)
    if c <= 0.0:
        return 1
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
    """Coupling strength, fidelity target and base seed of a measurement chain."""

    theta: float
    epsilon: float = 0.05
    seed: int = 0

    @property
    def n_steps(self) -> int:
        return required_steps(self.theta, self.epsilon)


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
    """Chain up to n weak rounds, halting at the first 1 outcome."""
    psi = as_state(register)
    n = cfg.n_steps
    for step in range(1, n + 1):
        outcome, psi, _ = weak_step(psi, cfg.theta, rng)
        if outcome == 1:
            return MeasureResult(1, step, psi, 0.0)
    return MeasureResult(0, n, psi, float(np.cos(cfg.theta / 2) ** n))


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

    Runs the measurement chain on the maximally undetermined |+> input and
    returns (state, label); the label-0 state is within the residual bound
    of |0>.
    """
    result = run_measurement(plus_state(), cfg, rng)
    return result.post_state, result.label


def interaction_cost(steps: int) -> int:
    """Ancilla interactions consumed by a chain: each round costs two."""
    return 2 * steps
