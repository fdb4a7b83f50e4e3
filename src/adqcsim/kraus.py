"""Measurement-induced Kraus operators on the register.

Coupling the register to an ancilla prepared in |a> through a two-qubit
unitary E and then measuring the ancilla in the basis {|m0>, |m1>} acts on
the register as the Kraus operator

    K_m = <m| E |a>         (partial inner products on the ancilla factor)

The back-action is a unitary with outcome-independent probability exactly
when K_m K_m^dag = p I.  For x = K_m K_m^dag, p = Tr(x)/2 and r =
sqrt(((x00 - x11)/2)^2 + |x01|^2), x has eigenvalues p -/+ r and
||x - p I||_F = sqrt(2) r, so x alone gives the verdict and the branch's
worst-case weight: p, or p + r if K_m is not proportional to unitary.
This module extracts the operators, tests that proportionality, samples
single steps, and runs the measurement-free deterministic programming mode
where the ancilla is prepared in a computational state and never read out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import (
    BRANCH_TOL,
    as_state,
    as_unitary,
    c_rz,
    hadamard,
    rz,
    sample_outcome,
    tensor,
)

PROP_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class KrausOutcome:
    """One measurement branch: operator, its probability, unitarity verdict.

    ``probability`` is the worst-case branch weight (module docstring): the
    state-independent p = Tr(K K^dag)/2 if K is proportional to unitary, and
    otherwise p + r, the largest eigenvalue of K^dag K.  ``is_zero`` marks
    branches whose weight vanishes for every input; their operator is zeroed.
    """

    operator: np.ndarray
    probability: float
    proportional_unitary: bool
    is_zero: bool = False

    @property
    def unitary_part(self) -> np.ndarray:
        """K / sqrt(p) for proportional-to-unitary, non-zero branches."""
        if not self.proportional_unitary or self.is_zero:
            raise ValueError("branch has no unitary part")
        return as_unitary(self.operator / np.sqrt(self.probability))


def _branch(x: list) -> tuple[bool, float, float]:
    """(verdict, p, r) of K from x = K K^dag as nested lists (module docstring)."""
    (x00, x01), (_, x11) = x
    r = math.hypot((x00.real - x11.real) / 2, x01.real, x01.imag)
    return math.sqrt(2) * r < PROP_UNITARY_TOL, (x00.real + x11.real) / 2, r


def is_proportional_unitary(k: np.ndarray) -> tuple[bool, float]:
    """Test K K^dag = p I for a 2x2 K within PROP_UNITARY_TOL; (verdict, Tr(K K^dag)/2)."""
    k = np.asarray(k, dtype=complex)
    if k.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {k.shape}")
    return _branch((k @ k.conj().T).tolist())[:2]


def kraus_for(
    e: np.ndarray,
    ancilla: np.ndarray,
    basis: tuple[np.ndarray, np.ndarray],
) -> list[KrausOutcome]:
    """Kraus operators K_m = <m| E |a> for each basis vector, in order.

    One contraction gives every K_m and one stacked product every K_m K_m^dag,
    from which each weight follows (module docstring).  Zero-weight branches
    are kept (operator zeroed, ``is_zero`` set) so the list stays
    positionally aligned with the basis.
    """
    e = as_unitary(e)
    a = as_state(ancilla)
    ms = [as_state(m) for m in basis]
    if e.shape != (4, 4) or a.size != 2 or any(m.size != 2 for m in ms):
        raise ValueError("expected a two-qubit interaction, one-qubit ancilla and basis kets")
    # indices of e: out-ancilla, out-register, in-ancilla, in-register
    ks = np.einsum("mo,orai,a->mri", np.conj(ms).reshape(-1, 2), e.reshape([2] * 4), a)
    outcomes = []
    for k, x in zip(ks, (ks @ ks.conj().transpose(0, 2, 1)).tolist()):
        prop, p, r = _branch(x)
        prob = p if prop else p + r
        zero = prob < BRANCH_TOL
        if zero:
            k, prob, prop = np.zeros((2, 2), dtype=complex), 0.0, False
        outcomes.append(KrausOutcome(k, prob, prop, zero))
    return outcomes


def single_qubit_step(
    e: np.ndarray,
    ancilla: np.ndarray,
    basis: tuple[np.ndarray, np.ndarray],
    register: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray, KrausOutcome]:
    """One ancilla-coupling round: sample the outcome, return the new register.

    Born weights are computed for the actual register state, so branches
    that are not proportional to unitary are handled correctly; the outcome
    is drawn by :func:`~adqcsim.qmath.sample_outcome`.
    """
    psi = as_state(register)
    if psi.size != 2:
        raise ValueError("register must be a single qubit")
    ops = kraus_for(e, ancilla, basis)
    vecs = [op.operator @ psi for op in ops]
    outcome = sample_outcome(*(float(np.vdot(v, v).real) for v in vecs), rng)
    v = vecs[outcome]
    return outcome, v / np.linalg.norm(v), ops[outcome]


def hh_crz_interaction(theta: float) -> np.ndarray:
    """(H x H) . C-Rz(theta) with the ancilla as the control qubit."""
    return tensor(hadamard(), hadamard()) @ c_rz(theta, control=0)


@dataclass(frozen=True)
class DeterministicGateSet:
    """Register gates selected by the ancilla preparation bit."""

    u0: np.ndarray
    u1: np.ndarray


def deterministic_gate_set() -> DeterministicGateSet:
    """Gates programmed by computational ancilla states on (H x H) C-Rz(pi/4).

    Preparing |0> applies u0 = H; preparing |1> applies u1 = H rz(pi/4),
    which is HT up to global phase.  Together they generate a group dense in
    SU(2), so any one-qubit gate can be approximated without measuring the
    ancilla.
    """
    return DeterministicGateSet(u0=hadamard(), u1=hadamard() @ rz(np.pi / 4))


def program_deterministic(bits: str) -> np.ndarray:
    """Composite register unitary for an ancilla preparation bitstring.

    The first character is the first ancilla sent in, i.e. the rightmost
    factor of the product.
    """
    if not bits or bits.strip("01"):
        raise ValueError("bits must be a non-empty string over {0, 1}")
    out = np.eye(2, dtype=complex)
    for b in bits:
        out = _GATES[b].dot(out)  # the same product as @, bit for bit
    return out


_GATES = {"0": deterministic_gate_set().u0, "1": deterministic_gate_set().u1}  # by bit; only read
