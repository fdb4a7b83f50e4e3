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

The ring axis is the normalised cross product of three of the Bloch
points.  The tests check it against an independent determinant construction
of the plane, the coplanarity distance of the fourth point and its closed
form under the symmetric constraints (``tests/oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qmath import (
    BRANCH_TOL,
    BlochPoint,
    as_state,
    bloch_to_state,
    plus_state,
    rx,
    rz,
    sample_outcome,
    state_to_bloch,
    wrap_angle,
)
from .seeding import derive_rng  # unused; kept as a binding bench/tracing.py wraps

COPLANAR_TOL = 1e-8
MAGNITUDE_TOL = 1e-8
DISTINCT_POINT_TOL = 1e-9
COLLINEAR_TOL = 1e-12
SCAN_SAMPLES = 512
BALANCE_TOL = 1e-10
RUS_BLOCK = 32
SCAN_BLOCK = 4096


class EggError(ValueError):
    """Base class for entangling-gate-generation failures."""


class NoRoot(EggError):
    """The balanced-phase condition has no solution on the search interval."""


class NotCoplanar(EggError):
    """The four final ancilla states do not lie on a common plane."""


class DegenerateRing(EggError):
    """Fewer than three distinct final states; the ring plane is ambiguous."""


class UnequalMagnitudes(EggError):
    """Measurement basis leaks register information (non-unitary back-action)."""


# ---------------------------------------------------------------------------
# configuration


def _check_alpha(alpha: float) -> None:
    """Reject an alpha outside (0, pi/4], NaN included."""
    if not 0.0 < alpha <= np.pi / 4:
        raise ValueError("alpha must lie in (0, pi/4]")


def effective_beta(theta_prep: float, alpha: float) -> float:
    """Effective split angle: sin(2 beta) = sin(theta_prep) sin(2 alpha)."""
    return float(np.arcsin(np.sin(theta_prep) * np.sin(2 * alpha)) / 2)


def theta_prep_for_beta(beta: float, alpha: float) -> float:
    """Preparation polar angle that realises a requested split beta <= alpha."""
    ratio = np.sin(2 * beta) / np.sin(2 * alpha)
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("requested beta is not reachable for this alpha")
    return float(np.arcsin(ratio))


@dataclass(frozen=True)
class EggConfig:
    """Coupling and preparation for one protocol run.

    ``theta_prep`` is the ancilla's preparation polar angle, which sets the
    effective split :attr:`beta`; the ancilla gate between the two
    interactions is always rx(pi/2).
    """

    alpha: float
    theta_prep: float = np.pi / 2

    def __post_init__(self):
        _check_alpha(self.alpha)
        # written so that a NaN theta_prep fails the check too
        if not 0.0 <= self.theta_prep <= np.pi:
            raise ValueError("theta_prep must lie in [0, pi]")

    @property
    def beta(self) -> float:
        return effective_beta(self.theta_prep, self.alpha)


def symmetric_config(alpha: float, beta: float | None = None) -> EggConfig:
    """The symmetric preset: equatorial ring.

    ``beta`` defaults to its maximum value alpha (preparation |+> on the
    equator); smaller values tilt the preparation toward the pole.
    """
    theta_prep = np.pi / 2 if beta is None else theta_prep_for_beta(beta, alpha)
    return EggConfig(alpha=alpha, theta_prep=theta_prep)


# ---------------------------------------------------------------------------
# trajectory


@dataclass(frozen=True)
class AncillaTrajectory:
    """Final ancilla states of one protocol configuration.

    The ancilla passes the first coupling, rx(pi/2) and the second
    coupling.  ``final_states`` is indexed by (i, j) = (first register bit,
    second register bit) flattened row-major.
    """

    final_states: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    bloch: tuple[BlochPoint, BlochPoint, BlochPoint, BlochPoint]


def final_ancilla_states(cfg: EggConfig) -> AncillaTrajectory:
    """The symmetric family |a_ij> = rz((-1)^j 2 alpha) rx(pi/2) rz((-1)^i 2 beta) |+>.

    The first coupling and the preparation at ``theta_prep`` are folded
    into the effective split beta.  Against the three-qubit circuit
    (ancilla prepared at ``theta_prep``, coupled to register qubit 1,
    rotated by rx(pi/2), coupled to qubit 2) this family has the same
    |Gram| matrix, so the same ring, and the same midpoint outcome
    probabilities and Phi.  The per-branch states themselves are the
    circuit's only when ``theta_prep`` is pi/2.
    """
    inter = [rx(np.pi / 2) @ rz(si * 2 * cfg.beta) @ plus_state() for si in (+1, -1)]
    finals = tuple(
        rz(sj * 2 * cfg.alpha) @ inter[i] for i in (0, 1) for sj in (+1, -1)
    )
    return AncillaTrajectory(finals, tuple(state_to_bloch(s) for s in finals))


def _distinct_points(pts: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for p in pts:
        if all(np.linalg.norm(p - q) > DISTINCT_POINT_TOL for q in out):
            out.append(p)
    return out


def _ring_axis(pts: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Unit normal of the common ring plane, oriented to non-negative height.

    The normal is the cross product (p1 - p0) x (p2 - p0) of the first
    three distinct points, for every ring, great circles included.  Raises
    DegenerateRing for fewer than three distinct points or a normal shorter
    than ``COLLINEAR_TOL`` (collinear points), and NotCoplanar when any
    point leaves the plane by more than ``COPLANAR_TOL``.
    """
    distinct = _distinct_points(pts)
    if len(distinct) < 3:
        raise DegenerateRing(f"only {len(distinct)} distinct ancilla points")
    p0, p1, p2 = distinct[:3]
    n = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(n)
    if norm < COLLINEAR_TOL:
        raise DegenerateRing("the distinct ancilla points are collinear")
    n_hat = n / norm
    if any(abs(float(n_hat @ (p - p0))) > COPLANAR_TOL for p in pts):
        raise NotCoplanar("final ancilla states are not concircular")
    height = float(np.mean([n_hat @ p for p in pts]))
    if height < 0:
        n_hat, height = -n_hat, -height
    return n_hat, height


# ---------------------------------------------------------------------------
# midpoint measurement and the register back-action


@dataclass(frozen=True)
class MidpointBasis:
    """Measurement basis along the ring axis, plus the ring geometry."""

    m: np.ndarray
    m_perp: np.ndarray
    axis: np.ndarray
    height: float
    cap_half_angle: float


def midpoint_measurement(t: AncillaTrajectory) -> MidpointBasis:
    """Basis whose first state sits at the midpoint of the ancilla ring.

    The plane of the four Bloch points fixes the axis; the hemisphere is
    chosen so that all four overlaps equal cos^2(gamma / 2) with the ring's
    cap half-angle gamma / 2 at most pi / 4.
    """
    pts = [b.cartesian for b in t.bloch]
    n_hat, height = _ring_axis(pts)

    theta = float(np.arccos(np.clip(n_hat[2], -1.0, 1.0)))
    phi = 0.0 if min(abs(n_hat[2] - 1), abs(n_hat[2] + 1)) < 1e-12 else float(
        np.arctan2(n_hat[1], n_hat[0]) % (2 * np.pi)
    )
    m = bloch_to_state(theta, phi)
    m_perp = bloch_to_state(np.pi - theta, (phi + np.pi) % (2 * np.pi))

    expected = (1.0 + height) / 2.0
    overlaps = [abs(np.vdot(m, s)) ** 2 for s in t.final_states]
    if max(abs(o - expected) for o in overlaps) > 10 * COPLANAR_TOL:
        raise NotCoplanar("midpoint overlaps are not uniform")
    gamma = float(np.arccos(np.clip(height, -1.0, 1.0)))
    return MidpointBasis(m, m_perp, n_hat, height, gamma / 2)


@dataclass(frozen=True)
class EggOutcome:
    """Register back-action for one ancilla outcome.

    ``phi`` holds the diagonal phases arg<m|a_ij> indexed [i, j]; ``Phi``
    is the residual controlled phase wrapped to (-pi, pi]; ``probability``
    is the state-independent outcome probability |<m|a_ij>|^2.
    """

    phi: np.ndarray
    Phi: float
    probability: float
    measurement_outcome: int

    @property
    def kraus_diagonal(self) -> np.ndarray:
        return np.sqrt(self.probability) * np.exp(1j * self.phi.reshape(-1))


def register_unitary(
    t: AncillaTrajectory, basis: tuple[np.ndarray, np.ndarray]
) -> tuple[EggOutcome, EggOutcome]:
    """Diagonal back-action phases for both outcomes of the given basis.

    Raises UnequalMagnitudes when the overlap magnitudes of one outcome
    differ by more than ``MAGNITUDE_TOL``, i.e. the measurement would leak
    register information and the conditional evolution would not be unitary.
    """
    outcomes = []
    for idx, m in enumerate(basis):
        m = as_state(m)
        c = np.array([np.vdot(m, s) for s in t.final_states]).reshape(2, 2)
        mags = np.abs(c)
        p = float(np.mean(mags**2))
        if mags.max() - mags.min() > MAGNITUDE_TOL:
            raise UnequalMagnitudes(
                f"outcome {idx} overlap magnitudes spread {mags.max() - mags.min():.3e}"
            )
        phi = np.angle(c)
        outcomes.append(
            EggOutcome(
                phi=phi,
                Phi=entangling_phase(phi),
                probability=p,
                measurement_outcome=idx,
            )
        )
    return outcomes[0], outcomes[1]


def entangling_phase(phi: np.ndarray) -> float:
    """Residual controlled phase (phi11 - phi10) - (phi01 - phi00) in (-pi, pi]."""
    phi = np.asarray(phi, dtype=float).reshape(2, 2)
    return wrap_angle((phi[1, 1] - phi[1, 0]) - (phi[0, 1] - phi[0, 0]))


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


@dataclass(frozen=True)
class AttemptRecord:
    attempt: int
    outcome_first: int
    outcome_second: int
    success: bool
    combined_phase: float


@dataclass(frozen=True)
class RusResult:
    attempts: int
    success: bool
    log: tuple[AttemptRecord, ...]


@lru_cache
def _rus_setup(alpha: float) -> tuple:
    """(beta*, (p+, p-), phases, records) at alpha's balanced point, for all trials:
    pair c = 2 m1 + m2 has ``phases[c]`` and attempt-k record ``records[4 (k - 1) + c]``.
    """
    beta_star = find_balanced_beta(alpha)
    plus, minus, _ = _outcome_phases(alpha, beta_star)
    phases = tuple(wrap_angle(a - b) for a in (plus, minus) for b in (plus, minus))
    return beta_star, outcome_probabilities(alpha, beta_star), phases, []


def run_rus(
    alpha: float, rng: np.random.Generator, max_attempts: int = 1000
) -> RusResult:
    """Repeat two-round attempts at alpha's balanced point until the phases differ.

    The split is beta* from :func:`find_balanced_beta` (which checks alpha),
    found once per alpha.  Attempts are drawn in blocks, ``rng.random(2
    min(RUS_BLOCK, attempts left))``, draws 2i and 2i + 1 deciding attempt
    i's rounds by the rule of :func:`~adqcsim.qmath.sample_outcome`; the
    draws after a success go unused.  Records grow once per block, and with a
    weight below ``BRANCH_TOL`` a block's outcomes are checked before the next draw.
    Round two flips the sign of the applied phase, so an attempt combines
    to +/- pi (a CZ up to locals) exactly when the two outcomes differ.
    Equal outcomes cancel to the identity, so failed attempts need no
    correction, only if round two prepares the ancilla at (pi - theta_prep,
    0) and puts rx(-pi/2) between the couplings; nothing in the package
    simulates that round yet.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    _, (p0, p1), phases, records = _rus_setup(alpha)
    check = min(p0, p1) < BRANCH_TOL
    log: list[AttemptRecord] = []
    for start in range(0, max_attempts, RUS_BLOCK):
        stop = min(start + RUS_BLOCK, max_attempts)
        draws = iter(memoryview(rng.random(2 * (stop - start))))  # each float made as read
        while len(records) < 4 * stop:
            i, b = divmod(len(records), 4)
            records.append(AttemptRecord(i + 1, b // 2, b % 2, b in (1, 2), phases[b]))
        for k, d1, d2 in zip(range(4 * start, 4 * stop, 4), draws, draws):
            m1, m2 = d1 >= p0, d2 >= p0
            log.append(records[k + 2 * m1 + m2])
            if m1 != m2:
                break
        for rec in log[start:] if check else ():
            for m in {rec.outcome_first, rec.outcome_second}:
                sample_outcome(p0, p1, forced=m)  # raises for an impossible branch
        if log[-1].success:
            return RusResult(len(log), True, tuple(log))
    return RusResult(max_attempts, False, tuple(log))
