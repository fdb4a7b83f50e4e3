"""Measurement-induced Kraus operators on the register.

Coupling the register to an ancilla prepared in |a> through a two-qubit
unitary E and then measuring the ancilla in the basis {|m0>, |m1>} acts on
the register as the Kraus operator

    K_m = <m| E |a>         (partial inner products on the ancilla factor)

The back-action is a unitary with outcome-independent probability exactly
when K_m K_m^dag = p_m I.  This module extracts the operators, tests that
proportionality, samples single steps, and runs the measurement-free
deterministic programming mode where the ancilla is prepared in a
computational state and never read out.
"""

from __future__ import annotations

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

    ``probability`` is the worst-case branch weight: for an operator
    proportional to unitary it is the state-independent Tr(K K^dag)/2, and
    otherwise the largest eigenvalue of K^dag K.  ``is_zero`` marks branches
    whose weight vanishes for every input; their operator is zeroed.
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


def is_proportional_unitary(k: np.ndarray) -> tuple[bool, float]:
    """Test K K^dag = p I within PROP_UNITARY_TOL; returns (verdict, Tr(K K^dag)/2)."""
    k = np.asarray(k, dtype=complex)
    kk = k @ k.conj().T
    p = float(kk.trace().real) / k.shape[0]
    ok = bool(np.linalg.norm(kk - p * np.eye(k.shape[0])) < PROP_UNITARY_TOL)
    return ok, p


def kraus_for(
    e: np.ndarray,
    ancilla: np.ndarray,
    basis: tuple[np.ndarray, np.ndarray],
) -> list[KrausOutcome]:
    """Kraus operators K_m = <m| E |a> for each basis vector, in order.

    Zero-weight branches are kept (operator zeroed, ``is_zero`` set) so the
    list stays positionally aligned with the basis.
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
        prop, p = is_proportional_unitary(k)
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
    if not bits or any(b not in "01" for b in bits):
        raise ValueError("bits must be a non-empty string over {0, 1}")
    out = np.eye(2, dtype=complex)
    for b in bits:
        out = (_GATES.u1 if b == "1" else _GATES.u0) @ out
    return out


_GATES = deterministic_gate_set()  # built once; program_deterministic only reads it
