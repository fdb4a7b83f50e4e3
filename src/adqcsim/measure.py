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

:func:`run_measurement` compares blocks of ``rng.random(min(4096, rounds
left))`` with p0_k: a chain of n <= 4096 rounds takes all n draws even when
it halts early, a longer one stops after the block that holds its click, and
memory is bounded by the block, not by n.  A plan, cached per register (by
its bytes), theta and n, holds the read-only p1_k of the first _KEPT_BLOCKS
blocks it builds, so chains, which read blocks in order, build each of those
once (p0_k = 1 - p1_k, exact, is redone per read), and the results chains
share: the label-0 one, with a read-only post state, once a chain reads n
zeros, and the label-1 one of each click round up to 4096, with one
read-only |1>, kept once its impossible-branch check, which depends only on
the plan and the round, has passed.  Round 1's zero check also runs once per
plan, and an impossible branch raises on every call.
:func:`measurement_ensemble` runs trial t as one :func:`run_measurement` call
on the stream ``derive_rng(seed, t)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .qmath import (
    as_state,
    as_unitary,  # unused; kept as a binding bench/tracing.py wraps
    basis_state,
    c_rz,
    hadamard,
    sample_outcome,
    tensor,
)
from .seeding import derive_rng

_BLOCK = 4096
_KEPT_BLOCKS = 16  # p1 blocks per plan: 512 KiB, 2 MiB over the 4 cached plans
_ONE = np.broadcast_to(basis_state(1), 2)  # read-only: every label-1 result shares it


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
    """Coupling and fidelity target of a chain; checked when built."""

    theta: float
    epsilon: float = 0.05

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


@lru_cache(maxsize=4)
class _Plan:
    """A checked register's chain, cached by its complex bytes; a failure is not kept."""

    def __init__(self, key: bytes, theta: float, n: int):
        self.psi = psi = as_state(np.frombuffer(key, dtype=complex))
        if psi.size != 2:
            raise ValueError("register must be a single qubit")
        self.theta, self.n, self.a2, self.b2 = theta, n, *abs(psi) ** 2
        self.kept: dict[int, np.ndarray] = {}  # p1 by block start
        self.first = self.block(0)
        self.ones: dict[int, MeasureResult] = {}  # checked label-1 results by k, round k + 1
        self.zero_checked = False

    def block(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only p0_k and p1_k for rounds k = start .. start + m - 1."""
        if (p1 := self.kept.get(start)) is None:
            half, m = self.theta / 2, min(_BLOCK, self.n - start)
            tail = self.b2 * (np.cos(half) ** 2) ** np.arange(start, start + m)
            # |b_k|^2 after k zero rounds; a = 0 stays |1> (and tail may underflow to 0)
            p1 = (tail / (self.a2 + tail) if self.a2 else np.ones(m)) * np.sin(half) ** 2
            if len(self.kept) < _KEPT_BLOCKS:
                self.kept[start] = p1
        p0 = 1.0 - p1
        p0.flags.writeable = p1.flags.writeable = False
        return p0, p1

    @cached_property  # lazy: a register that all but never reads n zeros may give 0/0
    def zero(self) -> MeasureResult:
        residual = np.cos(self.theta / 2) ** self.n
        post = np.array([self.psi[0], self.psi[1] * residual])
        post = np.broadcast_to(post / np.linalg.norm(post), 2)  # read-only
        return MeasureResult(0, self.n, post, float(residual))


def run_measurement(
    register: np.ndarray, cfg: MeasureConfig, rng: np.random.Generator
) -> MeasureResult:
    """Chain up to n weak rounds, halting at the first 1 outcome.

    Draw k of a block (module docstring) decides round k + 1 against p0_k by
    the rule of :func:`~adqcsim.qmath.sample_outcome`, as :func:`weak_step`
    calls on the same stream would, and an impossible branch still raises.
    """
    plan = _Plan(np.asarray(register, dtype=complex).tobytes(), cfg.theta, cfg.n_steps)
    for start in range(0, plan.n, _BLOCK):
        p0, p1 = plan.block(start) if start else plan.first
        hits = rng.random(p0.size) >= p0
        if not (start or hits[0] or plan.zero_checked):  # p0_k grows with k: round 1
            sample_outcome(p0[0], p1[0], forced=0)  # is the lightest 0 taken; checked once
            plan.zero_checked = True
        if hits[k := int(hits.argmax())]:  # k is the first click, if there is one
            if (res := plan.ones.get(start + k)) is None:
                sample_outcome(p0[k], p1[k], forced=1)
                res = MeasureResult(1, start + k + 1, _ONE, 0.0)
                if not start:  # kept once checked: at most min(n, _BLOCK) results
                    plan.ones[k] = res
            return res
    return plan.zero


def measurement_ensemble(
    register: np.ndarray, cfg: MeasureConfig, seed: int, trials: int
) -> list[MeasureResult]:
    """Independent chains, trial t on the stream derive_rng(seed, t)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [run_measurement(register, cfg, derive_rng(seed, t)) for t in range(trials)]


def interaction_cost(steps: int) -> int:
    """Ancilla interactions consumed by a chain: each round costs two."""
    return 2 * steps
