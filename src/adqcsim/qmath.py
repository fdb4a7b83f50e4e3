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
    """Raised when a forced measurement branch has (numerically) zero weight."""


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix for axis 'x', 'y' or 'z'."""
    return _PAULI[axis].copy()


def identity(n_qubits: int = 1) -> np.ndarray:
    return np.eye(2**n_qubits, dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation about z by ``theta``: diag(exp(-i theta/2), exp(i theta/2))."""
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def rx(theta: float) -> np.ndarray:
    """Rotation about x by ``theta``."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta: float) -> np.ndarray:
    """Rotation about y by ``theta`` (real matrix)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def j_gate(beta: float) -> np.ndarray:
    """The one-parameter family J(beta) = H rz(beta)."""
    return hadamard() @ rz(beta)


def c_rz(theta: float, control: int = 0) -> np.ndarray:
    """Controlled rz on two qubits; ``control`` selects which factor controls.

    With control = 0 the rotation acts on qubit 1, with control = 1 it acts
    on qubit 0.  The two forms differ only by one-qubit phase gates.
    """
    if control == 0:
        return np.diag([1, 1, np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    if control == 1:
        return np.diag([1, np.exp(-0.5j * theta), 1, np.exp(0.5j * theta)])
    raise ValueError("control must be 0 or 1")


def c_phase(phi: float) -> np.ndarray:
    """Symmetric controlled phase diag(1, 1, 1, exp(i phi))."""
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


def minus_state() -> np.ndarray:
    return np.array([1, -1], dtype=complex) / np.sqrt(2)


def computational_basis() -> tuple[np.ndarray, np.ndarray]:
    return basis_state(0), basis_state(1)


def x_basis() -> tuple[np.ndarray, np.ndarray]:
    return plus_state(), minus_state()


def as_state(v: np.ndarray, tol: float = STATE_TOL) -> np.ndarray:
    """Validate and return a unit-norm ket of dimension 2**n."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = v.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"ket dimension {n} is not a power of two")
    # written so that a NaN norm fails too
    if not abs(np.linalg.norm(v) - 1.0) <= tol:
        raise ValueError("ket is not normalised")
    return v


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.linalg.norm(m @ m.conj().T - np.eye(m.shape[0])) < tol)


def as_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate and return a unitary matrix (checked constructor)."""
    m = np.asarray(m, dtype=complex)
    if not is_unitary(m, tol):
        raise ValueError("matrix is not unitary within tolerance")
    return m


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
    collapsed basis state is returned instead).  Pass ``forced`` to select a
    branch deterministically; forcing a branch of probability below
    ``BRANCH_TOL`` raises :class:`ImpossibleBranchError`.
    """
    state = as_state(state)
    n = num_qubits(state)
    if qubit < 0 or qubit >= n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    m0, m1 = _check_basis(basis)
    psi = np.moveaxis(state.reshape([2] * n), qubit, 0).reshape(2, -1)
    branches = [m0.conj() @ psi, m1.conj() @ psi]
    probs = [float(np.vdot(b, b).real) for b in branches]

    if forced is not None:
        if forced not in (0, 1):
            raise ValueError("forced outcome must be 0 or 1")
        outcome = forced
        if probs[outcome] < BRANCH_TOL:
            raise ImpossibleBranchError(
                f"forced branch {forced} has probability {probs[outcome]:.3e}"
            )
    else:
        if rng is None:
            raise ValueError("either rng or forced must be given")
        outcome = 0 if rng.random() < probs[0] else 1
    p = probs[outcome]
    if n == 1:
        post = (m0, m1)[outcome].copy()
    else:
        post = branches[outcome] / np.sqrt(p)
    return outcome, p, post


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
