"""Stochastic single-qubit gate generation by random gate products.

Each ancilla round applies one of two fixed register gates {u0, u1} with
probabilities {p0, 1-p0}.  The running product is compared against a target
unitary with the phase-invariant trace distance; the walk stops when it
gets within epsilon.  Ensembles of such walks have approximately
geometric/exponential step-count distributions, summarized here with
histograms, an exponential fit, and a log-linearity diagnostic.

The walk kernel takes the prefix products of a block of draws, one
``rng.random(4096)`` chunk, at once (a blocked inclusive scan, after Blelloch,
"Prefix sums and their applications", 1990) and tests all of them against
the threshold.  Its set-up is done once per :class:`WalkConfig`; see
:func:`run_walk` for its RNG contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .interaction import delta_gate
from .kraus import kraus_for
from .qmath import (
    as_unitary,
    computational_basis,
    hadamard,
    plus_state,
    rx,
    tensor,
    x_basis,
)
from .seeding import derive_rng

DEFAULT_EPSILON = 0.05
DEFAULT_MAX_STEPS = 1_000_000
_RAND_CHUNK = 4096
_WORD = 8
_BIT_SHIFTS = np.arange(_WORD)
# the word table holds the words of length 1..8 in turn; length l starts at 2^l - 2
_WORD_OFFSETS = 2 ** np.arange(1, _WORD + 1) - 2


@dataclass(frozen=True)
class WalkConfig:
    """Gates, branch probability, target and stopping rule; checked when built."""

    u0: np.ndarray
    u1: np.ndarray
    target: np.ndarray = field(default_factory=lambda: rx(np.pi / 2))
    p0: float = 0.5
    epsilon: float = DEFAULT_EPSILON
    max_steps: int = DEFAULT_MAX_STEPS
    seed: int = 0

    def __post_init__(self):
        as_unitary(self.u0)
        as_unitary(self.u1)
        as_unitary(self.target)
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")

    @cached_property
    def _tables(self):
        """The gates' word table and the target's SU(2) pair, built on first use."""
        return _word_table(_su2(self.u0), _su2(self.u1)), _su2(self.target)


@dataclass(frozen=True)
class WalkResult:
    steps: int
    hit: bool
    final_distance: float


def run_walk(cfg: WalkConfig, rng: np.random.Generator) -> WalkResult:
    """Multiply random gates until the product is epsilon-close to the target.

    The distance is checked before the first multiplication, so a target
    within epsilon of the identity reports steps = 0.

    RNG contract: the walk draws ``rng.random(4096)`` chunks, the next one
    only once the walk has used every draw of the last, and step k applies
    ``u0`` when the k-th draw is below ``p0`` (``buf >= p0`` is the rule of
    :func:`~adqcsim.qmath.sample_outcome` for a block of draws).  So step
    counts and hits are those of the step-by-step product V_k = g_k V_(k-1),
    unless a distance lies within rounding error of epsilon.
    ``final_distance`` comes from a differently ordered product and may
    differ from it in the last digits.

    Gates and target are reduced to SU(2) pairs (a, b), the matrices
    [[a, b], [-conj(b), conj(a)]]: dividing out sqrt(det) changes only a
    global phase, which |Tr(T^dag V)| ignores.  Each chunk is one block of
    512 8-draw words: it looks up their products in the word table built
    once per ``cfg``, scans the word totals, and tests every partial product.
    """
    (ta, tb), (c, d) = cfg._tables
    # half-traces: trace_distance(V, T) <= eps  iff  |Re Tr(T^dag V)| / 2 >= 1 - eps^2
    thresh = 1.0 - cfg.epsilon * cfg.epsilon
    # carry: product of every gate applied before the current block
    ca, cb = 1 + 0j, 0j
    h = c.real  # the half-trace at V = I
    if abs(h) >= thresh:
        return WalkResult(0, True, _distance(h))

    done = 0
    while done < cfg.max_steps:
        words = (rng.random(_RAND_CHUNK) >= cfg.p0).reshape(-1, _WORD)
        idx = np.cumsum(words << _BIT_SHIFTS, axis=1) + _WORD_OFFSETS
        # pa, pb[w, k]: product of draws 0..k of word w
        pa, pb = ta[idx], tb[idx]
        # qa, qb[w]: product of words 0..w-1 and the carry; the last is the next carry
        qa, qb = _scan(
            np.concatenate(([ca], pa[:, -1])), np.concatenate(([cb], pb[:, -1]))
        )
        # Tr(T^dag P Q) = Tr(M P) with M = Q T^dag
        ma, mb = _mul(qa[:-1], qb[:-1], c.conjugate(), -d)
        h = (ma[:, None] * pa - mb[:, None] * pb.conj()).real.reshape(-1)
        m = min(_RAND_CHUNK, cfg.max_steps - done)
        close = np.abs(h[:m]) >= thresh
        k = int(close.argmax())
        if close[k]:
            return WalkResult(done + k + 1, True, _distance(h[k]))
        done += m
        ca, cb = qa[-1], qb[-1]
    return WalkResult(cfg.max_steps, False, _distance(h[m - 1]))


def _su2(u: np.ndarray) -> tuple[complex, complex]:
    """First row (a, b) of ``u`` with its determinant divided out."""
    u = np.asarray(u, dtype=complex)
    s = np.sqrt(np.linalg.det(u))
    return complex(u[0, 0] / s), complex(u[0, 1] / s)


def _mul(a1, b1, a2, b2):
    """SU(2) product (a1, b1)(a2, b2), elementwise over arrays."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _scan(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive prefix products in place, later elements on the left.

    Hillis-Steele doubling: after the pass with shift s, element i holds
    the product of elements max(0, i - 2s + 1)..i.
    """
    s = 1
    while s < a.size:
        a[s:], b[s:] = _mul(a[s:], b[s:], a[:-s], b[:-s])
        s *= 2
    return a, b


def _word_table(g0, g1) -> tuple[np.ndarray, np.ndarray]:
    """Products of every gate word of length 1..8, indexed by its bits.

    Bit j of a word's code is 1 when its j-th gate is ``u1``; the word of
    length l with code x sits at 2^l - 2 + x.
    """
    a = np.array([g0[0], g1[0]])
    b = np.array([g0[1], g1[1]])
    ta, tb = [a], [b]
    for _ in range(_WORD - 1):
        a0, b0 = _mul(g0[0], g0[1], a, b)
        a1, b1 = _mul(g1[0], g1[1], a, b)
        a, b = np.concatenate((a0, a1)), np.concatenate((b0, b1))
        ta.append(a)
        tb.append(b)
    return np.concatenate(ta), np.concatenate(tb)


def _distance(half_trace: float) -> float:
    return float(np.sqrt(max(0.0, 1.0 - abs(half_trace))))


def run_ensemble(cfg: WalkConfig, trials: int) -> list[WalkResult]:
    """Independent walks with per-trial derived generators, ordered by trial.

    Trial t uses the stream derive_rng(cfg.seed, t), drawn from as
    :func:`run_walk` describes, so results do not depend on execution
    order or batching.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [run_walk(cfg, derive_rng(cfg.seed, t)) for t in range(trials)]


# preset -> (interaction E, ancilla, readout basis); the two Kraus branches
# <b| E |ancilla> are the walk gates u0, u1 and their weights give p0
WALK_PRESETS = {
    # the maximally biased one-parameter interaction (H x H) delta(0, 0, pi/16),
    # read out in the x basis: u_b = H rz(+/- pi/8) with p = 1/2 each
    "one-param": (
        tensor(hadamard(), hadamard()) @ delta_gate(0.0, 0.0, np.pi / 16),
        plus_state(),
        x_basis(),
    ),
    # the two-parameter interaction delta(pi/16, 0, pi/16), read out in the
    # computational basis: u_b = rz(+/- pi/8) rx(pi/8) with p = 1/2 each.  The
    # closest length-4 words (0110, 1001) reach rx(pi/2) to trace distance
    # 0.0454: inside the default epsilon = 0.05, but not exactly.
    "two-param": (
        delta_gate(np.pi / 16, 0.0, np.pi / 16),
        plus_state(),
        computational_basis(),
    ),
}


def walk_config(
    preset: str,
    epsilon: float = DEFAULT_EPSILON,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> WalkConfig:
    """Walk to rx(pi/2) with the gates re-derived from a :data:`WALK_PRESETS` entry."""
    outs = kraus_for(*WALK_PRESETS[preset])
    return WalkConfig(
        u0=outs[0].unitary_part,
        u1=outs[1].unitary_part,
        p0=outs[0].probability,
        epsilon=epsilon,
        max_steps=max_steps,
        seed=seed,
    )


@dataclass(frozen=True)
class Histogram:
    bin_count: int
    bin_edges: np.ndarray
    counts: np.ndarray
    total: int


def histogram(samples: list[int] | np.ndarray, bins: int = 20) -> Histogram:
    """Equal-width histogram over [min, max + 1)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("samples must be non-empty")
    edges = np.linspace(s.min(), s.max() + 1.0, bins + 1)
    counts, _ = np.histogram(s, bins=edges)
    return Histogram(bins, edges, counts.astype(int), int(s.size))


def log_bin_counts(h: Histogram) -> list[tuple[float, float]]:
    """(bin center, ln count) pairs, skipping empty bins."""
    centers = 0.5 * (h.bin_edges[:-1] + h.bin_edges[1:])
    return [
        (float(c), float(np.log(n))) for c, n in zip(centers, h.counts) if n > 0
    ]


def fit_exponential(samples: list[int] | np.ndarray) -> float:
    """Rate of the mean-parametrised exponential: lambda = 1 / mean."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("samples must be non-empty")
    m = s.mean()
    if m <= 0:
        raise ValueError("samples must have positive mean")
    return float(1.0 / m)


def log_linear_r2(h: Histogram) -> float:
    """R^2 of a least-squares line through (center, ln count) for bins of 5+ counts."""
    pts = [
        (c, l) for (c, l), n in zip(log_bin_counts(h), h.counts[h.counts > 0]) if n >= 5
    ]
    if len(pts) < 3:
        raise ValueError("need at least 3 bins with enough counts")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0