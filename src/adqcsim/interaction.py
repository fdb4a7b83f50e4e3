"""Two-qubit entangling interactions and their canonical classification.

An interaction between the ancilla (factor 0) and one register qubit is
written as ``post_local . delta_gate(ax, ay, az) . pre_local`` where

    delta_gate(ax, ay, az) = exp(-i (ax XX + ay YY + az ZZ))

and the locals are one-qubit unitaries.  The triple (ax, ay, az) is only
defined up to local symmetries: pairwise sign flips, per-axis shifts by
pi/2, reflections about pi/4 and permutations of the axes.  A canonical
representative with pi/4 >= ax >= ay >= az >= 0 makes classification and
equality testing decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .qmath import as_unitary, identity, pauli, tensor

NONZERO_TOL = 1e-9


@dataclass(frozen=True)
class CanonicalParams:
    """Weyl-chamber coordinates (radians) of a two-qubit interaction."""

    ax: float
    ay: float
    az: float

    def __iter__(self):
        return iter((self.ax, self.ay, self.az))

    def as_array(self) -> np.ndarray:
        return np.array([self.ax, self.ay, self.az], dtype=float)


class InteractionKind(Enum):
    LOCAL = "Local"
    ONE_PARAMETER = "OneParameter"
    TWO_PARAMETER = "TwoParameter"
    THREE_PARAMETER = "ThreeParameter"


_KIND_BY_COUNT = {
    0: InteractionKind.LOCAL,
    1: InteractionKind.ONE_PARAMETER,
    2: InteractionKind.TWO_PARAMETER,
    3: InteractionKind.THREE_PARAMETER,
}


@dataclass(frozen=True)
class InteractionClass:
    """Classification result: kind plus special-class flags.

    ``kind`` carries the count of canonical parameters above the ``tol``
    that :func:`classify` was given.
    """

    kind: InteractionKind
    params: CanonicalParams
    is_cz_class: bool
    is_cz_swap_class: bool


@dataclass(frozen=True)
class InteractionSpec:
    """Interaction parameters together with the surrounding local unitaries."""

    params: CanonicalParams
    pre_local: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (identity(), identity())
    )
    post_local: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (identity(), identity())
    )


def delta_gate(ax: float, ay: float, az: float) -> np.ndarray:
    """exp(-i (ax XX + ay YY + az ZZ)) as a product of commuting factors."""
    out = np.eye(4, dtype=complex)
    for a, axis in ((ax, "x"), (ay, "y"), (az, "z")):
        pp = tensor(pauli(axis), pauli(axis))
        out = out @ (np.cos(a) * np.eye(4) - 1j * np.sin(a) * pp)
    return out


def build_interaction(spec: InteractionSpec) -> np.ndarray:
    """Assemble post_local . delta . pre_local with the ancilla as factor 0."""
    pre = tensor(as_unitary(spec.pre_local[0]), as_unitary(spec.pre_local[1]))
    post = tensor(as_unitary(spec.post_local[0]), as_unitary(spec.post_local[1]))
    return post @ delta_gate(*spec.params) @ pre


def normalize_params(
    ax: float, ay: float, az: float
) -> tuple[CanonicalParams, list[str]]:
    """Map parameters to the fundamental domain pi/4 >= ax >= ay >= az >= 0.

    Returns the canonical representative and a list of human-readable
    symmetry moves that were applied.  Idempotent on canonical input.
    """
    vals = [float(ax), float(ay), float(az)]
    if not all(map(math.isfinite, vals)):
        raise ValueError("interaction parameters must be finite")
    moves: list[str] = []
    names = "xyz"

    for i, v in enumerate(vals):
        # shift by multiples of pi/2 into [0, pi/2)
        shifted = v % (np.pi / 2)
        if abs(shifted - v) > NONZERO_TOL:
            moves.append(f"shift a{names[i]} by pi/2 multiples")
            v = shifted
        # reflect about pi/4 into [0, pi/4]
        if v > np.pi / 4 + NONZERO_TOL:
            moves.append(f"reflect a{names[i]} about pi/4")
            v = np.pi / 2 - v
        vals[i] = v

    order = sorted(range(3), key=lambda i: -vals[i])
    if order != [0, 1, 2]:
        moves.append("permute axes " + "".join(names[i] for i in order) + " -> xyz")
        vals = [vals[i] for i in order]

    vals = [0.0 if abs(v) < NONZERO_TOL else v for v in vals]
    return CanonicalParams(*vals), moves


def classify(ax: float, ay: float, az: float, tol: float = NONZERO_TOL) -> InteractionClass:
    """Count non-zero canonical parameters and flag the CZ / CZ+SWAP classes.

    ``tol`` widens the flag and zero tests only; canonicalization itself
    always uses the library threshold.
    """
    canon, _ = normalize_params(ax, ay, az)
    a = canon.as_array()
    count = int(np.sum(a > tol))
    quarter = np.pi / 4
    is_cz = bool(np.max(np.abs(a - [quarter, 0, 0])) < tol)
    is_cz_swap = bool(np.max(np.abs(a - [quarter, quarter, 0])) < tol)
    return InteractionClass(
        kind=_KIND_BY_COUNT[count],
        params=canon,
        is_cz_class=is_cz,
        is_cz_swap_class=is_cz_swap,
    )
