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
phases differ by pi.

Geometric checks (plane through three points, distance of the fourth,
closed-form distance under the symmetric constraints) follow determinant
constructions on the Bloch sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
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


class CollinearPoints(EggError):
    """Three points do not determine a plane."""


class ConstraintViolated(EggError):
    """Input does not satisfy the symmetric constraint pattern."""


# ---------------------------------------------------------------------------
# configuration


def _check_split(alpha: float, lo: float = 0.0, hi: float = 0.0) -> None:
    """Reject an alpha outside (0, pi/4] or a beta range [lo, hi] outside [0, alpha]."""
    if not 0.0 < alpha <= np.pi / 4:
        raise ValueError("alpha must lie in (0, pi/4]")
    if not 0.0 <= lo <= hi <= alpha + 1e-15:
        raise ValueError("beta range must satisfy 0 <= lo <= hi <= alpha")


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
        _check_split(self.alpha)

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

    Raises DegenerateRing for fewer than three distinct points and
    NotCoplanar when any point leaves the plane of the first three distinct
    ones by more than ``COPLANAR_TOL``.
    """
    distinct = _distinct_points(pts)
    if len(distinct) < 3:
        raise DegenerateRing(f"only {len(distinct)} distinct ancilla points")
    coeffs = plane_coefficients(distinct[0], distinct[1], distinct[2])
    n = np.array([coeffs.a, coeffs.b, coeffs.c])
    norm = np.linalg.norm(n)
    for p in pts:
        if abs(float(n @ p) + coeffs.d) / norm > COPLANAR_TOL:
            raise NotCoplanar("final ancilla states are not concircular")
    n_hat = n / norm
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


@dataclass(frozen=True)
class LocalReduction:
    """Split of diagonal phases into local z-phases and a controlled phase."""

    a1: float
    a2: float
    b1: float
    b2: float
    Phi: float

    @property
    def residual(self) -> np.ndarray:
        """The leftover two-qubit gate diag(1, 1, 1, e^{i Phi})."""
        return np.diag([1, 1, 1, np.exp(1j * self.Phi)]).astype(complex)

    def reconstruct(self) -> np.ndarray:
        """diag(e^{i a_i}) x diag(e^{i b_j}) . residual; equals the input."""
        local = np.kron(
            np.diag(np.exp(1j * np.array([self.a1, self.a2]))),
            np.diag(np.exp(1j * np.array([self.b1, self.b2]))),
        )
        return local @ self.residual


def local_reduction(phi: np.ndarray) -> LocalReduction:
    """Factor phases phi_ij = a_i + b_j + Phi [i=j=1] with the gauge a1 = 0."""
    phi = np.asarray(phi, dtype=float).reshape(2, 2)
    b1 = float(phi[0, 0])
    b2 = float(phi[0, 1])
    a2 = float(phi[1, 0] - phi[0, 0])
    big_phi = float(phi[1, 1] - phi[1, 0] - phi[0, 1] + phi[0, 0])
    return LocalReduction(a1=0.0, a2=a2, b1=b1, b2=b2, Phi=big_phi)


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


def outcome_probabilities(alpha: float, beta: float) -> tuple[float, float]:
    """p+ = (cos^2 A + cos^2 B)/2 and its complement."""
    a, b = alpha + beta, alpha - beta
    p_plus = (np.cos(a) ** 2 + np.cos(b) ** 2) / 2
    return float(p_plus), float(1.0 - p_plus)


def _outcome_phases(alpha: float, beta: float) -> tuple[float, float, float]:
    """Outcome phases Phi+/- = 4 phi00+/- + pi, wrapped, and :func:`delta_phi_raw`.

    phi00+/- = arg c+/- of branch (0, 0); see :func:`analytic_overlaps`.
    """
    a, b = alpha + beta, alpha - beta
    phi00_plus = float(np.angle(np.cos(a) - 1j * np.cos(b)))
    phi00_minus = float(np.angle(-1j * np.sin(a) - np.sin(b)))
    return (
        wrap_angle(4 * phi00_plus + np.pi),
        wrap_angle(4 * phi00_minus + np.pi),
        4.0 * (phi00_plus - phi00_minus),
    )


def delta_phi_raw(alpha: float, beta: float) -> float:
    """Continuous outcome-phase difference 4 (phi00+ - phi00-), in (0, 4 pi).

    Unwrapped on purpose: the curve starts at 2 pi (equal phases mod 2 pi)
    at beta = 0 and decreases, so the balanced condition is a plain root of
    delta_phi_raw - pi.
    """
    return _outcome_phases(alpha, beta)[2]


def success_probability(alpha: float, beta: float) -> float:
    """Per-attempt success probability 2 p+ p- of the two-round protocol."""
    p_plus, p_minus = outcome_probabilities(alpha, beta)
    return 2.0 * p_plus * p_minus


@dataclass(frozen=True)
class ScanRow:
    beta: float
    phi_plus: float
    phi_minus: float
    delta_phi: float
    p_plus: float
    p_minus: float
    success_prob: float


def phi_scan(
    alpha: float,
    beta_range: tuple[float, float] | None = None,
    samples: int = 101,
) -> list[ScanRow]:
    """Tabulate outcome phases and probabilities over a beta grid.

    ``phi_plus``/``phi_minus`` are the wrapped entangling phases of the two
    outcomes; ``delta_phi`` is the continuous (unwrapped) difference so the
    pi crossing is visible.
    """
    lo, hi = beta_range if beta_range is not None else (0.0, alpha)
    _check_split(alpha)  # before samples, so a bad alpha is the error reported
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_split(alpha, lo, hi)
    return [
        ScanRow(
            float(beta),
            *_outcome_phases(alpha, beta),
            *outcome_probabilities(alpha, beta),
            success_probability(alpha, beta),
        )
        for beta in np.linspace(lo, hi, samples)
    ]


def find_balanced_beta(alpha: float, beta_max: float | None = None) -> float:
    """Root of delta_phi_raw(alpha, beta) = pi by scan plus bisection.

    Scans the interval [0, beta_max] (default beta_max = alpha) with 512
    samples for a sign change of delta_phi_raw - pi and bisects it down to
    ``BALANCE_TOL`` in beta.  Raises NoRoot when the curve does not cross pi
    there.
    """
    _check_split(alpha)
    hi = alpha if beta_max is None else float(beta_max)
    if not 0.0 < hi <= alpha:
        raise ValueError("beta_max must lie in (0, alpha]")

    def f(beta: float) -> float:
        return delta_phi_raw(alpha, beta) - np.pi

    grid = np.linspace(0.0, hi, SCAN_SAMPLES)
    vals = [f(b) for b in grid]
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


def run_rus(
    alpha: float,
    beta_star: float,
    rng: np.random.Generator,
    max_attempts: int = 1000,
) -> RusResult:
    """Repeat two-round attempts until the outcome phases differ.

    Round two flips the sign of the applied phase, so an attempt combines
    to +/- pi (a CZ up to locals) exactly when the two sampled outcomes
    differ; equal outcomes cancel to the identity and the register is
    unchanged, so failed attempts need no correction.  Each round draws
    its outcome (0 is "+") with :func:`~adqcsim.qmath.sample_outcome`.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    *phase, delta_phi = _outcome_phases(alpha, beta_star)
    # written so that a NaN beta_star fails the check too
    if not abs(delta_phi - np.pi) <= 1e-6:
        raise ValueError("beta_star does not satisfy the balanced condition")
    _check_split(alpha, beta_star, beta_star)
    probs = outcome_probabilities(alpha, beta_star)

    log: list[AttemptRecord] = []
    for attempt in range(1, max_attempts + 1):
        m1 = sample_outcome(*probs, rng)
        m2 = sample_outcome(*probs, rng)
        success = m1 != m2
        combined = wrap_angle(phase[m1] - phase[m2])
        log.append(AttemptRecord(attempt, m1, m2, success, combined))
        if success:
            return RusResult(attempt, True, tuple(log))
    return RusResult(max_attempts, False, tuple(log))


# ---------------------------------------------------------------------------
# Bloch-sphere plane geometry


@dataclass(frozen=True)
class PlaneCoefficients:
    """Coefficients of a plane a x + b y + c z + d = 0 through three points."""

    a: float
    b: float
    c: float
    d: float
    used_fallback: bool = False


def plane_coefficients(
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray
) -> PlaneCoefficients:
    """Determinant construction of the plane through three Cartesian points.

    Sets d to the coordinate determinant D and each of a, b, c to minus the
    determinant with the corresponding column replaced by ones.  When D = 0
    (plane through the origin) that scaling collapses, so the normal is
    rebuilt from cross products and the result is flagged as a fallback.
    """
    pts = np.array([p1, p2, p3], dtype=float)
    cross = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    if np.linalg.norm(cross) < COLLINEAR_TOL:
        raise CollinearPoints("three points do not determine a plane")
    d = float(np.linalg.det(pts))
    if abs(d) < 1e-12:
        return PlaneCoefficients(
            a=float(cross[0]),
            b=float(cross[1]),
            c=float(cross[2]),
            d=float(-cross @ pts[0]),
            used_fallback=True,
        )
    ones = np.ones(3)
    coeffs = []
    for col in range(3):
        m = pts.copy()
        m[:, col] = ones
        coeffs.append(-float(np.linalg.det(m)))
    return PlaneCoefficients(coeffs[0], coeffs[1], coeffs[2], d)


def coplanarity_distance(
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, p4: np.ndarray
) -> float:
    """Unnormalised distance of the fourth point from the plane of the first three."""
    c = plane_coefficients(p1, p2, p3)
    p4 = np.asarray(p4, dtype=float)
    return float(abs(c.a * p4[0] + c.b * p4[1] + c.c * p4[2] + c.d))


def spherical_point(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def constrained_distance(
    theta2: float,
    theta4: float,
    phi1: float,
    phi2: float,
    phi3: float,
    phi4: float,
) -> float:
    """Closed-form coplanarity defect for the symmetric point pattern.

    The four sphere points are (theta2, phi1), (theta2, phi2),
    (theta4, phi3), (theta4, phi4) with equal azimuth gaps
    phi2 - phi1 = phi4 - phi3 (the two interactions rotate both point pairs
    by the same angle).  The returned value's zero set matches
    coplanarity_distance on these inputs.
    """
    if abs(wrap_angle((phi2 - phi1) - (phi4 - phi3))) > 1e-9:
        raise ConstraintViolated("azimuth gaps phi2-phi1 and phi4-phi3 differ")
    mid = (phi3 + phi4) / 2
    return float(
        2.0
        * (np.cos(theta2) - np.cos(theta4))
        * (np.cos(phi2 - mid) - np.cos(phi1 - mid))
        * np.sin(theta2)
        * np.sin(theta4)
        * np.sin((phi3 - phi4) / 2)
    )


def vertical_plane_check(phi1: float, phi3: float, tol: float = 1e-9) -> bool:
    """True when phi1 = phi3 + n pi, i.e. both pairs share a vertical plane."""
    r = (phi1 - phi3) % np.pi
    return bool(min(r, np.pi - r) < tol)
