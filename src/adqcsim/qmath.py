"""Dense linear algebra for one, two and three qubit pure states.

Conventions used across the package:

- rotation gates carry the half angle: ``rz(t) = diag(exp(-it/2), exp(it/2))``
  and ``rx(t) = exp(-i t X / 2)``, so ``rz(2a)`` puts a relative phase of
  ``exp(2ia)`` between the computational amplitudes
- multi-qubit kets are flat numpy vectors in row-major order; whenever an
  ancilla is present it is tensor factor 0
- Bloch angles follow ``cos(theta/2)|0> + exp(i phi) sin(theta/2)|1>`` with
  ``phi`` reported as 0 at the poles
- global phase is never stripped; comparisons that must ignore it go through
  :func:`trace_distance` or :func:`phase_aligned_max_diff`
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10
STATE_TOL = 1e-10
BRANCH_TOL = 1e-14

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class ImpossibleBranchError(ValueError):
    """Raised when a measurement branch of (numerically) zero weight is taken."""


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix for axis 'x', 'y' or 'z'."""
    return _PAULI[axis].copy()


def identity(n_qubits: int = 1) -> np.ndarray:
    return np.eye(2**n_qubits, dtype=complex)


def check_finite(name: str, *values: float) -> None:
    """Raise a ValueError naming ``name`` unless every one of ``values`` is finite.

    The gate builders call it before any numpy call, so that a NaN or inf
    angle is an argument error, not a numpy RuntimeWarning.
    """
    if not all(map(math.isfinite, values)):
        shown = ", ".join(map(str, values))
        shown = shown if len(values) == 1 else f"({shown})"
        raise ValueError(f"{name} must be finite, got {shown}")


def rz(theta: float) -> np.ndarray:
    """Rotation about z by ``theta``: diag(exp(-i theta/2), exp(i theta/2))."""
    check_finite("rz angle theta", theta)
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def rx(theta: float) -> np.ndarray:
    """Rotation about x by ``theta``."""
    check_finite("rx angle theta", theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def c_rz(theta: float, control: int = 0) -> np.ndarray:
    """Controlled rz on two qubits; ``control`` selects which factor controls.

    With control = 0 the rotation acts on qubit 1, with control = 1 it acts
    on qubit 0.  The two forms differ only by one-qubit phase gates.
    """
    check_finite("c_rz angle theta", theta)
    if control == 0:
        return np.diag([1, 1, np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    if control == 1:
        return np.diag([1, np.exp(-0.5j * theta), 1, np.exp(0.5j * theta)])
    raise ValueError("control must be 0 or 1")


def c_phase(phi: float) -> np.ndarray:
    """Symmetric controlled phase diag(1, 1, 1, exp(i phi))."""
    check_finite("c_phase angle phi", phi)
    return np.diag([1, 1, 1, np.exp(1j * phi)]).astype(complex)


def cz() -> np.ndarray:
    return c_phase(np.pi)


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of the given operators or kets, left factor first."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def basis_state(bit: int) -> np.ndarray:
    v = np.zeros(2, dtype=complex)
    v[bit] = 1.0
    return v


def plus_state() -> np.ndarray:
    return np.array([1, 1], dtype=complex) / np.sqrt(2)


def computational_basis() -> tuple[np.ndarray, np.ndarray]:
    return basis_state(0), basis_state(1)


def x_basis() -> tuple[np.ndarray, np.ndarray]:
    return plus_state(), np.array([1, -1], dtype=complex) / np.sqrt(2)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a complex array, bit for bit, without its dispatch."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def as_state(v: np.ndarray) -> np.ndarray:
    """Validate and return a ket of dimension 2**n, unit norm within ``STATE_TOL``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = v.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"ket dimension {n} is not a power of two")
    # written so that a NaN norm fails too
    if not abs(_norm(v) - 1.0) <= STATE_TOL:
        raise ValueError("ket is not normalised")
    return v


# read-only np.eye(n), built once per dimension (a broadcast view cannot be written)
_eye = functools.cache(lambda n: np.broadcast_to(np.eye(n), (n, n)))


def as_unitary(m: np.ndarray) -> np.ndarray:
    """Validate and return a square matrix, unitary within ``UNITARY_TOL``."""
    m = np.asarray(m, dtype=complex)
    if (
        m.ndim != 2
        or m.shape[0] != m.shape[1]
        or not np.isfinite(m).all()  # before the product, where inf * 0 warns
        or not _norm(m @ m.conj().T - _eye(m.shape[0])) < UNITARY_TOL
    ):
        raise ValueError("matrix is not unitary within tolerance")
    return m


def trace_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Normalised, phase-invariant distance sqrt((2 - |Tr(U^dag V)|) / 2).

    Equals 0 when the one-qubit unitaries agree up to global phase and 1
    when they are maximally far apart (for example I and X).
    """
    inner = abs(np.vdot(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)))
    return float(np.sqrt(max(0.0, (2.0 - inner) / 2.0)))


def phase_aligned_max_diff(u: np.ndarray, v: np.ndarray) -> float:
    """Max-abs entry difference after aligning the global phase of ``v`` to ``u``.

    Unlike :func:`trace_distance` this does not amplify round-off, so it is
    the right metric for near-exact operator comparisons.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    inner = np.vdot(v, u)
    if abs(inner) < 1e-300:
        return float(np.max(np.abs(u - v)))
    phase = inner / abs(inner)
    return float(np.max(np.abs(u - phase * v)))


def sample_outcome(
    p0: float,
    p1: float,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> int:
    """Draw a binary measurement outcome from its branch weights ``p0``, ``p1``.

    This is the one outcome rule of the package: each binary outcome costs
    exactly one ``rng.random()`` draw, and the outcome is 0 iff that draw is
    below ``p0``.  Passing ``forced`` (0 or 1) selects the branch without a
    draw.  Taking a branch whose weight is below ``BRANCH_TOL``, whether
    sampled or forced, raises :class:`ImpossibleBranchError`.
    """
    if forced is None:
        if rng is None:
            raise ValueError("either rng or forced must be given")
        outcome = 0 if rng.random() < p0 else 1
    elif forced in (0, 1):
        outcome = int(forced)
    else:
        raise ValueError("forced outcome must be 0 or 1")
    weight = p1 if outcome else p0
    if weight < BRANCH_TOL:
        raise ImpossibleBranchError(f"branch {outcome} has probability {weight:.3e}")
    return outcome


@dataclass(frozen=True)
class BlochPoint:
    """A point on the Bloch sphere, stored as (theta, phi)."""

    theta: float
    phi: float

    @property
    def cartesian(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )


def state_to_bloch(state: np.ndarray) -> BlochPoint:
    """Bloch angles of a one-qubit ket; phi is fixed to 0 at the poles."""
    a, b = as_state(state)
    theta = 2.0 * np.arctan2(abs(b), abs(a))
    if min(abs(a), abs(b)) < 1e-12:
        phi = 0.0
    else:
        phi = float((np.angle(b) - np.angle(a)) % (2 * np.pi))
    return BlochPoint(float(theta), phi)


def bloch_to_state(theta: float, phi: float) -> np.ndarray:
    """cos(theta/2)|0> + e^(i phi) sin(theta/2)|1>; both angles must be finite."""
    check_finite("Bloch angles (theta, phi)", theta, phi)
    return np.array(
        [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], dtype=complex
    )


def wrap_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = float(x) % (2 * np.pi)
    return w - 2 * np.pi if w > np.pi else w


def haar_state(rng: np.random.Generator, n_qubits: int = 1) -> np.ndarray:
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
