"""Entangling gate generation with one ancilla and two weak interactions.

One ancilla qubit interacts in turn with two register qubits through
exp(-i a ZZ) couplings, with the fixed gate rx(pi/2) in between, and is then
measured.  Each register basis pair (i, j) steers the ancilla to one of
four final states |a_ij>.  When those four Bloch points lie on a circle,
measuring along the circle's axis (the midpoint state) extracts no register
information and the back-action is a diagonal two-qubit unitary whose
residual controlled phase Phi quantifies the entangling power.

The symmetric operating family is parametrised by the coupling alpha and an
effective preparation split beta: starting from |+>, the trajectory is

    |a_ij> = rz((-1)^j 2 alpha) rx(pi/2) rz((-1)^i 2 beta) |+>

whose midpoint overlaps depend only on A = alpha + beta and B = alpha - beta.
Repeat-until-success CZ generation runs two rounds per attempt (the second
with the phase sign flipped) at the balanced point where the two outcome
phases differ by pi: beta* = arctan(sin 2 alpha) / 2, where an attempt
succeeds with probability sin^2 2 alpha / (1 + sin^2 2 alpha) (derived at
:func:`find_balanced_beta`, which finds beta* to within ``BALANCE_TOL``).

The closed form of :func:`analytic_overlaps` is the library's one model of
the round: the midpoint of this family's ring is |+>, and the scan, the
balanced point and the RUS protocol all read their phases and probabilities
from it.  The geometric derivation it is checked against (the four Bloch
points, the ring axis as the cross-product normal of three of them, the
midpoint basis and the register back-action, for any preparation angle)
lives in ``tests/oracle.py``, with the three-qubit statevector circuit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .qmath import BRANCH_TOL, wrap_angle
from .seeding import derive_rng  # unused; kept as a binding bench/tracing.py wraps

SCAN_SAMPLES = 512
BALANCE_TOL = 1e-10
RUS_BLOCK = 32
SCAN_BLOCK = 4096


class EggError(ValueError):
    """Base class for entangling-gate-generation failures."""


class NoRoot(EggError):
    """The balanced-phase condition has no solution on the search interval."""


def _check_alpha(alpha: float) -> None:
    """Reject an alpha outside (0, pi/4], NaN included."""
    if not 0.0 < alpha <= np.pi / 4:
        raise ValueError("alpha must lie in (0, pi/4]")


# ---------------------------------------------------------------------------
# analytic symmetric family


def analytic_overlaps(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-basis overlaps <+/-|a_ij> of the symmetric family.

    With A = alpha + beta and B = alpha - beta, branch (i, j) substitutes
    (A, B) -> (A, B), (-B, -A), (B, A), (-A, -B) and

        c+ = (cos A - i cos B) / sqrt(2)
        c- = (-i sin A - sin B) / sqrt(2)

    Returns the 2x2 arrays (c_plus, c_minus) indexed [i, j].
    """
    a, b = alpha + beta, alpha - beta
    subs = np.array([[(a, b), (-b, -a)], [(b, a), (-a, -b)]])
    aa, bb = subs[..., 0], subs[..., 1]
    c_plus = (np.cos(aa) - 1j * np.cos(bb)) / np.sqrt(2)
    c_minus = (-1j * np.sin(aa) - np.sin(bb)) / np.sqrt(2)
    return c_plus, c_minus


SCAN_COLUMNS = (
    "beta", "phi_plus", "phi_minus", "delta_phi", "p_plus", "p_minus", "success_prob"
)


def _scan_columns(alpha: float, beta: np.ndarray) -> list[np.ndarray]:
    """The :data:`SCAN_COLUMNS` after beta, over the array ``beta`` (see :func:`phi_scan`).

    With A = alpha + beta, B = alpha - beta and phi00+/- = arg c+/- of
    branch (0, 0) (:func:`analytic_overlaps`): Phi+/- = 4 phi00+/- + pi
    wrapped, delta_phi = 4 (phi00+ - phi00-), p+ = (cos^2 A + cos^2 B) / 2.
    """
    a, b = alpha + beta, alpha - beta
    cos_a, cos_b = np.cos(a), np.cos(b)
    phi00_plus = np.angle(cos_a - 1j * cos_b)
    phi00_minus = np.angle(-1j * np.sin(a) - np.sin(b))
    wrapped = (4 * np.stack([phi00_plus, phi00_minus]) + np.pi) % (2 * np.pi)
    wrapped[wrapped > np.pi] -= 2 * np.pi  # wrap_angle, elementwise
    # squares by C pow(x, 2) of Python floats, as numpy scalars take them
    p_plus = np.array([(x**2 + y**2) / 2 for x, y in zip(cos_a.tolist(), cos_b.tolist())])
    delta = 4.0 * (phi00_plus - phi00_minus)
    return [*wrapped, delta, p_plus, 1.0 - p_plus, 2.0 * p_plus * (1.0 - p_plus)]


def _at(alpha: float, beta: float) -> list[float]:
    """:func:`_scan_columns` at one beta, as Python floats."""
    return [float(c[0]) for c in _scan_columns(alpha, np.array([beta], dtype=float))]


def outcome_probabilities(alpha: float, beta: float) -> tuple[float, float]:
    """p+ = (cos^2 A + cos^2 B)/2 and its complement."""
    return tuple(_at(alpha, beta)[3:5])


def _outcome_phases(alpha: float, beta: float) -> tuple[float, float, float]:
    """Outcome phases Phi+/- = 4 phi00+/- + pi, wrapped, and :func:`delta_phi_raw`."""
    return tuple(_at(alpha, beta)[:3])


def delta_phi_raw(alpha: float, beta: float) -> float:
    """Continuous outcome-phase difference 4 (phi00+ - phi00-), in (0, 4 pi).

    Unwrapped on purpose: the curve starts at 2 pi (equal phases mod 2 pi)
    at beta = 0 and decreases, so the balanced condition is a plain root of
    delta_phi_raw - pi.
    """
    return _outcome_phases(alpha, beta)[2]


def success_probability(alpha: float, beta: float) -> float:
    """Per-attempt success probability 2 p+ p- of the two-round protocol."""
    return _at(alpha, beta)[5]


def phi_scan(
    alpha: float,
    beta_range: tuple[float, float] | None = None,
    samples: int = 101,
) -> np.recarray:
    """Tabulate outcome phases and probabilities over a beta grid, by columns.

    One record per beta with the fields :data:`SCAN_COLUMNS`: a row reads
    ``rows[k].beta``, a column ``rows.beta``.  ``phi_plus``/``phi_minus``
    are the wrapped entangling phases of the two outcomes; ``delta_phi`` is
    the continuous (unwrapped) difference so the pi crossing is visible.
    :func:`_scan_columns` computes every column ``SCAN_BLOCK`` betas at a time;
    the per-point functions are its one-beta case, so they agree bit for
    bit.  The trap is squaring: an array's ``** 2`` is ``np.square`` (x * x),
    a numpy scalar's is C ``pow(x, 2)``, and they (and ``np.power`` with an
    array exponent) differ in the last bit for some x; p+ squares Python floats.
    """
    lo, hi = beta_range if beta_range is not None else (0.0, alpha)
    _check_alpha(alpha)  # before samples, so a bad alpha is the error reported
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0.0 <= lo <= hi <= alpha + 1e-15:
        raise ValueError("beta range must satisfy 0 <= lo <= hi <= alpha")
    rows = np.recarray(samples, dtype=[(name, float) for name in SCAN_COLUMNS])
    rows.beta = np.linspace(lo, hi, samples)
    for block in np.split(rows, range(SCAN_BLOCK, samples, SCAN_BLOCK)):  # views, filled in place
        for name, column in zip(SCAN_COLUMNS[1:], _scan_columns(alpha, block.beta)):
            block[name] = column
    return rows


def find_balanced_beta(alpha: float, beta_max: float | None = None) -> float:
    """Root of delta_phi_raw(alpha, beta) = pi by scan plus bisection.

    Scans the interval [0, beta_max] (default beta_max = alpha) with 512
    samples for a sign change of delta_phi_raw - pi and bisects it down to
    ``BALANCE_TOL`` in beta.  Raises NoRoot when the curve does not cross pi
    there.

    The root has a closed form.  Branch (0, 0) of :func:`analytic_overlaps`
    gives, with A = alpha + beta and B = alpha - beta,

        2 c+ conj(c-) = (cos A - i cos B)(i sin A - sin B)
                      = sin 2 beta + i sin 2 alpha cos 2 beta,

    so delta_phi_raw = 4 arg(sin 2 beta + i sin 2 alpha cos 2 beta), which
    equals pi exactly at beta* = arctan(sin 2 alpha) / 2.  Since sin 2 alpha
    <= tan 2 alpha, beta* <= alpha always, and the per-attempt success
    probability there is sin^2 2 alpha / (1 + sin^2 2 alpha).  The tests
    hold the numerical root to this value.
    """
    _check_alpha(alpha)
    hi = alpha if beta_max is None else float(beta_max)
    if not 0.0 < hi <= alpha:
        raise ValueError("beta_max must lie in (0, alpha]")

    def f(beta: float) -> float:
        return delta_phi_raw(alpha, beta) - np.pi

    grid = np.linspace(0.0, hi, SCAN_SAMPLES)
    vals = (_scan_columns(alpha, grid)[2] - np.pi).tolist()
    bracket = None
    for k in range(len(grid) - 1):
        if vals[k] == 0.0:
            return float(grid[k])
        if vals[k] * vals[k + 1] < 0:
            bracket = (grid[k], grid[k + 1])
            break
    if vals[-1] == 0.0:
        return float(grid[-1])
    if bracket is None:
        raise NoRoot(
            f"outcome-phase difference never crosses pi for beta in [0, {hi:.6g}]"
        )
    lo_b, hi_b = bracket
    flo = f(lo_b)
    while hi_b - lo_b > BALANCE_TOL:
        mid = 0.5 * (lo_b + hi_b)
        fm = f(mid)
        if fm == 0.0:
            return float(mid)
        if flo * fm < 0:
            hi_b = mid
        else:
            lo_b, flo = mid, fm
    return float(0.5 * (lo_b + hi_b))


# ---------------------------------------------------------------------------
# repeat-until-success CZ generation


class RusResult(NamedTuple):
    """A repeat-until-success run; ``codes`` holds one byte per attempt, the code
    2 m1 + m2 of its outcome pair (:func:`rus_phases` gives its combined phase)."""

    attempts: int
    success: bool
    codes: bytes


@lru_cache
def _rus_setup(alpha: float) -> tuple:
    """(beta*, (p+, p-), phases) at alpha's balanced point, for all trials:
    the attempt with pair code c = 2 m1 + m2 combines to ``phases[c]``.

    Raises EggError when p+ or p- is below ``BRANCH_TOL`` (p- is about 2 alpha^2,
    so alpha below about 7e-8): no attempt could then succeed.
    """
    beta_star = find_balanced_beta(alpha)
    plus, minus, _ = _outcome_phases(alpha, beta_star)
    phases = tuple(wrap_angle(a - b) for a in (plus, minus) for b in (plus, minus))
    probs = outcome_probabilities(alpha, beta_star)
    if min(probs) < BRANCH_TOL:
        raise EggError(
            f"at alpha {alpha:.3g} an outcome has probability {min(probs):.3e}, "
            "below BRANCH_TOL: no attempt can succeed"
        )
    return beta_star, probs, phases


def rus_phases(alpha: float) -> tuple[float, float, float, float]:
    """Combined phase of an attempt at alpha's balanced point, by its code 2 m1 + m2:
    0 for the equal pairs (codes 0 and 3), +/- pi for the unequal ones (1 and 2)."""
    return _rus_setup(alpha)[2]


def run_rus(
    alpha: float, rng: np.random.Generator, max_attempts: int = 1000
) -> RusResult:
    """Repeat two-round attempts at alpha's balanced point until the phases differ.

    The split is beta* from :func:`find_balanced_beta` (which checks alpha),
    found once per alpha.  Attempts are drawn in blocks, ``rng.random(2
    min(RUS_BLOCK, attempts left))``, draws 2i and 2i + 1 deciding attempt
    i's rounds by the rule of :func:`~adqcsim.qmath.sample_outcome`; the
    draws after a success go unused.  Each attempt adds one byte, its pair
    code, to the result's ``codes``; no per-attempt object is made.
    Round two flips the sign of the applied phase, so an attempt combines
    to +/- pi (a CZ up to locals) exactly when the two outcomes differ.
    Equal outcomes cancel to the identity, so failed attempts need no
    correction, only if round two prepares the ancilla at (pi - theta_prep,
    0) and puts rx(-pi/2) between the couplings; nothing in the package
    simulates that round yet.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    p0 = _rus_setup(alpha)[1][0]
    codes = bytearray()
    for start in range(0, max_attempts, RUS_BLOCK):
        draws = iter(memoryview(rng.random(2 * min(RUS_BLOCK, max_attempts - start))))
        for d1, d2 in zip(draws, draws):  # each float made as read
            m1, m2 = d1 >= p0, d2 >= p0
            codes.append(2 * m1 + m2)
            if m1 != m2:
                return RusResult(len(codes), True, bytes(codes))
    return RusResult(max_attempts, False, bytes(codes))
