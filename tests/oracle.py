"""Reference code the tests check the library against, kept out of ``src/``.

A dense statevector toolkit (``apply``, ``measure_qubit``, ``ry``), the weak
chain's per-round operators and round-count law, the repeat-until-success
attempt law, the per-branch Kraus extraction with LAPACK branch weights, the
CLI's CSV cell rule, the Weyl coordinates of a two-qubit unitary, the
geometric model of the entangling round (the four final Bloch points, their
ring axis, midpoint basis and register back-action), which the closed form
of ``adqcsim.egg`` is checked against, the determinant geometry of the plane
through Bloch points with the closed form of its coplanarity defect, the egg
scan's formulas point by point on numpy scalars, the RNG contract's streams
as numpy builds them, and the Haar measure of the walk's target ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from adqcsim.egg import EggError, _check_alpha
from adqcsim.kraus import PROP_UNITARY_TOL, KrausOutcome
from adqcsim.qmath import (
    BRANCH_TOL,
    STATE_TOL,
    BlochPoint,
    as_state,
    as_unitary,
    bloch_to_state,
    plus_state,
    rx,
    rz,
    sample_outcome,
    state_to_bloch,
    wrap_angle,
)

COPLANAR_TOL = 1e-8
MAGNITUDE_TOL = 1e-8
DISTINCT_POINT_TOL = 1e-9
COLLINEAR_TOL = 1e-12


def seed_sequence_rng(seed: int, index: int) -> np.random.Generator:
    """Stream ``index`` of ``seed`` as the RNG contract defines it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def ball_measure(eps: float) -> float:
    """Haar measure of the SU(2) ball |Re Tr(T^dag V)| / 2 >= 1 - eps^2 the walk hits.

    V = T exp(i phi n.sigma) has half-trace cos(phi), and phi has the Haar
    density (2 / pi) sin^2(phi) on [0, pi].  The ball is phi <= a or
    phi >= pi - a with a = arccos(1 - eps^2), so its measure is twice
    (2 / pi) (a / 2 - sin(2 a) / 4), which is about 1.20 eps^3 for small eps.
    """
    a = np.arccos(1.0 - eps * eps)
    return float((2 * a - np.sin(2 * a)) / np.pi)


def ry(theta: float) -> np.ndarray:
    """Rotation about y by ``theta`` (real matrix)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def num_qubits(state: np.ndarray) -> int:
    n = int(np.asarray(state).size)
    q = n.bit_length() - 1
    if 2**q != n:
        raise ValueError(f"state dimension {n} is not a power of two")
    return q


def apply(gate: np.ndarray, state: np.ndarray, qubits: tuple[int, ...] | int) -> np.ndarray:
    """Apply a k-qubit gate to the listed tensor factors of an n-qubit ket.

    ``qubits`` orders the gate's own factors, so ``apply(e, psi, (2, 0))``
    uses qubit 2 as the gate's first factor.
    """
    if isinstance(qubits, int):
        qubits = (qubits,)
    state = np.asarray(state, dtype=complex).reshape(-1)
    n = num_qubits(state)
    k = len(qubits)
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2**k, 2**k):
        raise ValueError(f"gate shape {gate.shape} does not act on {k} qubits")
    if len(set(qubits)) != k or any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"bad qubit indices {qubits} for {n} qubits")
    psi = np.moveaxis(state.reshape([2] * n), qubits, range(k))
    psi = (gate @ psi.reshape(2**k, -1)).reshape([2] * n)
    return np.moveaxis(psi, range(k), qubits).reshape(-1)


def _check_basis(basis: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    m0 = as_state(basis[0])
    m1 = as_state(basis[1])
    if m0.size != 2 or m1.size != 2:
        raise ValueError("measurement basis must consist of one-qubit kets")
    if abs(np.vdot(m0, m1)) > STATE_TOL:
        raise ValueError("measurement basis is not orthogonal")
    return m0, m1


def measure_qubit(
    state: np.ndarray,
    qubit: int,
    basis: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> tuple[int, float, np.ndarray]:
    """Projectively measure one qubit in an orthonormal one-qubit basis.

    Returns ``(outcome, probability, post_state)`` where the post state no
    longer contains the measured qubit (for a single-qubit input the
    collapsed basis state is returned instead).  The outcome is drawn, or
    forced, by :func:`~adqcsim.qmath.sample_outcome`.
    """
    state = as_state(state)
    n = num_qubits(state)
    if qubit < 0 or qubit >= n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    m0, m1 = _check_basis(basis)
    psi = np.moveaxis(state.reshape([2] * n), qubit, 0).reshape(2, -1)
    branches = [m0.conj() @ psi, m1.conj() @ psi]
    probs = [float(np.vdot(b, b).real) for b in branches]
    outcome = sample_outcome(*probs, rng, forced)
    p = probs[outcome]
    if n == 1:
        post = (m0, m1)[outcome].copy()
    else:
        post = branches[outcome] / np.sqrt(p)
    return outcome, p, post


def step_operators(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Effective per-round register operators (H correction included)."""
    half = theta / 2
    m0 = np.diag([1.0, np.cos(half)]).astype(complex)
    m1 = np.diag([0.0, -1j * np.sin(half)])
    return m0, m1


def chain_round_law(a2: float, b2: float, theta: float, n: int) -> np.ndarray:
    """P(first click at round 1), ..., P(round n), then P(label 0), for a weak chain.

    The register a|0> + b|1> has |a|^2 = a2 and |b|^2 = b2.  With c =
    cos(theta/2) and s = sin(theta/2), round k + 1 reads 1 with probability
    p1_k = b2 c^(2k) s^2 / (a2 + b2 c^(2k)) (the ``measure`` docstring), so
    the first click falls at round k + 1 with probability p1_k prod_{j<k} p0_j
    and the chain reads label 0, n zeros, with probability prod_{j<n} p0_j.
    """
    c2, s2 = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
    tail = b2 * c2 ** np.arange(n)
    p1 = tail * s2 / (a2 + tail)
    survive = np.concatenate([[1.0], np.cumprod(1.0 - p1)])
    return np.append(p1 * survive[:-1], survive[-1])


def rus_attempts_law(p_s: float, max_attempts: int) -> np.ndarray:
    """P(a run takes k attempts) for k = 1 .. max_attempts.

    An attempt succeeds with probability p_s, and a run stops at its first
    success or after ``max_attempts``: geometric in p_s, (1 - p_s)^(k - 1)
    p_s, with the runs that use up their attempts, (1 - p_s)^(max_attempts
    - 1) in all, in the last entry.
    """
    law = (1.0 - p_s) ** np.arange(max_attempts) * p_s
    law[-1] = (1.0 - p_s) ** (max_attempts - 1)
    return law


def fold_tail(law: np.ndarray, trials: int, least: float = 5.0) -> np.ndarray:
    """Start indices of chi-square bins over a law whose tail thins out.

    Every entry is a bin up to the first that expects fewer than ``least`` of
    ``trials`` counts; that one and all after it form the last bin, which
    takes in the bin before it if it still expects fewer.  The starts are
    for ``np.add.reduceat``.
    """
    expected = trials * np.asarray(law)
    thin = np.flatnonzero(expected < least)
    if thin.size == 0:
        return np.arange(len(expected))
    cut = int(thin[0])
    if expected[cut:].sum() < least:
        cut -= 1
    return np.arange(cut + 1)


def chi_square_power(null: np.ndarray, alt: np.ndarray, trials: int, level: float) -> float:
    """Power of the chi-square test at false-alarm rate ``level`` when ``alt`` is the law.

    ``null`` and ``alt`` are the binned probabilities; under ``alt`` the
    statistic is noncentral chi-square with trials * sum((alt - null)^2 / null).
    """
    df = len(null) - 1
    lam = trials * float(np.sum((alt - null) ** 2 / null))
    return float(stats.ncx2.sf(stats.chi2.isf(level, df), df, lam))


def proportional_unitary_reference(k: np.ndarray) -> tuple[bool, float]:
    """Test K K^dag = p I by the Frobenius norm of K K^dag - p I; (verdict, p)."""
    k = np.asarray(k, dtype=complex)
    kk = k @ k.conj().T
    p = float(kk.trace().real) / k.shape[0]
    ok = bool(np.linalg.norm(kk - p * np.eye(k.shape[0])) < PROP_UNITARY_TOL)
    return ok, p


def kraus_reference(
    e: np.ndarray,
    ancilla: np.ndarray,
    basis: tuple[np.ndarray, np.ndarray],
) -> list[KrausOutcome]:
    """``kraus_for`` branch by branch: one einsum, norm test and eigvalsh each.

    A branch not proportional to unitary weighs the largest eigenvalue of
    K^dag K as LAPACK computes it.
    """
    e = as_unitary(e)
    a = as_state(ancilla)
    if e.shape != (4, 4) or a.size != 2:
        raise ValueError("expected a two-qubit interaction and one-qubit ancilla")
    et = e.reshape(2, 2, 2, 2)  # indices: out-ancilla, out-register, in-ancilla, in-register
    outcomes = []
    for m in basis:
        m = as_state(m)
        k = np.einsum("o,orai,a->ri", m.conj(), et, a)
        prop, p = proportional_unitary_reference(k)
        if prop:
            prob = p
        else:
            prob = float(np.linalg.eigvalsh(k.conj().T @ k)[-1])
        if prob < BRANCH_TOL:
            outcomes.append(
                KrausOutcome(np.zeros((2, 2), dtype=complex), 0.0, False, is_zero=True)
            )
        else:
            outcomes.append(KrausOutcome(k, prob, prop))
    return outcomes


def csv_cell(x) -> str:
    """One CSV cell as the CLI's tables write it: 1/0, a plain integer or %.17g."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


# Magic (phased Bell) basis as columns: local SU(2) x SU(2) becomes real orthogonal
_MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) / np.sqrt(2)


def weyl_coordinates(u: np.ndarray) -> tuple[float, float, float]:
    """(ax, ay, az) with u locally equivalent to exp(-i (ax XX + ay YY + az ZZ)).

    Zhang, Vala, Sastry and Whaley, PRA 67, 042313 (2003): in the magic
    basis u = O1 D O2 with O1, O2 real orthogonal and D = diag(e^(-i l_k)),
    l = (ax - ay + az, -ax + ay + az, ax + ay - az, -ax - ay - az), so
    u_B^T u_B has the eigenvalues e^(-2 i l_k).  They fix each l_k modulo pi
    once det u = 1, and shifting one l_k by pi moves two coordinates by pi/2;
    any eigenvalue order permutes the coordinates with sign flips.  So the
    result is one representative of the local class: ``normalize_params``
    takes it to the canonical point.
    """
    u = np.asarray(u, dtype=complex)
    u = u / np.linalg.det(u) ** 0.25
    ub = _MAGIC.conj().T @ u @ _MAGIC
    lam = -np.angle(np.linalg.eigvals(ub.T @ ub)) / 2
    return (lam[0] + lam[2]) / 2, (lam[1] + lam[2]) / 2, (lam[0] + lam[1]) / 2


def scan_point(alpha: float, beta: np.float64) -> tuple[float, ...]:
    """One egg-scan row after beta, as the per-point code computed it.

    Every operation is on numpy float64 scalars and Python floats, so the
    squares are C ``pow(x, 2)`` and the wrap is Python's float ``%``.
    """
    a, b = alpha + np.float64(beta), alpha - np.float64(beta)
    phi00_plus = float(np.angle(np.cos(a) - 1j * np.cos(b)))
    phi00_minus = float(np.angle(-1j * np.sin(a) - np.sin(b)))
    p_plus = (np.cos(a) ** 2 + np.cos(b) ** 2) / 2
    p_plus, p_minus = float(p_plus), float(1.0 - p_plus)
    return (
        wrap_angle(4 * phi00_plus + np.pi),
        wrap_angle(4 * phi00_minus + np.pi),
        4.0 * (phi00_plus - phi00_minus),
        p_plus,
        p_minus,
        2.0 * p_plus * p_minus,
    )


# ---------------------------------------------------------------------------
# the entangling round as ring geometry


class NotCoplanar(EggError):
    """The four final ancilla states do not lie on a common plane."""


class DegenerateRing(EggError):
    """Fewer than three distinct final states; the ring plane is ambiguous."""


class UnequalMagnitudes(EggError):
    """Measurement basis leaks register information (non-unitary back-action)."""


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


class CollinearPoints(EggError):
    """Three points do not determine a plane."""


class ConstraintViolated(EggError):
    """Input does not satisfy the symmetric constraint pattern."""


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
    return BlochPoint(theta, phi).cartesian


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
