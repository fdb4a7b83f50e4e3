from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from adqcsim.interaction import (
    NONZERO_TOL,
    CanonicalParams,
    InteractionKind,
    InteractionSpec,
    build_interaction,
    classify,
    delta_gate,
    normalize_params,
)
from adqcsim.qmath import (
    c_phase,
    cz,
    hadamard,
    haar_unitary,
    pauli,
    phase_aligned_max_diff,
    rz,
    tensor,
)

from oracle import weyl_coordinates


def test_delta_identity_and_diagonal_form():
    np.testing.assert_allclose(delta_gate(0, 0, 0), np.eye(4), atol=1e-15)
    alpha = 0.37
    expected = np.diag(
        [np.exp(-1j * alpha), np.exp(1j * alpha), np.exp(1j * alpha), np.exp(-1j * alpha)]
    )
    np.testing.assert_allclose(delta_gate(0, 0, alpha), expected, atol=1e-14)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", range(3))
def test_delta_gate_rejects_non_finite_angles(slot, bad):
    # the ValueError comes before any numpy call, so no RuntimeWarning precedes it
    angles = [0.1, 0.2, 0.3]
    angles[slot] = bad
    message = f"delta_gate angles (ax, ay, az) must be finite, got {tuple(angles)}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            delta_gate(*angles)


def test_delta_matches_matrix_exponential():
    rng = np.random.default_rng(21)
    xx = tensor(pauli("x"), pauli("x"))
    yy = tensor(pauli("y"), pauli("y"))
    zz = tensor(pauli("z"), pauli("z"))
    for _ in range(40):
        ax, ay, az = rng.uniform(-1.5, 1.5, 3)
        ref = expm(-1j * (ax * xx + ay * yy + az * zz))
        np.testing.assert_allclose(delta_gate(ax, ay, az), ref, atol=1e-12)


def test_delta_factors_commute():
    rng = np.random.default_rng(22)
    for _ in range(20):
        ax, ay, az = rng.uniform(-1.5, 1.5, 3)
        forward = delta_gate(ax, ay, az)
        reverse = delta_gate(0, 0, az) @ delta_gate(0, ay, 0) @ delta_gate(ax, 0, 0)
        np.testing.assert_allclose(forward, reverse, atol=1e-13)


def test_normalize_examples():
    p, moves = normalize_params(0, 0, np.pi / 16)
    np.testing.assert_allclose(tuple(p), (np.pi / 16, 0, 0), atol=1e-12)
    assert moves

    p, moves = normalize_params(-np.pi / 16, 0, 0)
    np.testing.assert_allclose(tuple(p), (np.pi / 16, 0, 0), atol=1e-12)
    assert moves

    p, _ = normalize_params(5 * np.pi / 16, 0, 0)
    np.testing.assert_allclose(tuple(p), (3 * np.pi / 16, 0, 0), atol=1e-12)

    p, moves = normalize_params(np.pi / 16, 0, 0)
    np.testing.assert_allclose(tuple(p), (np.pi / 16, 0, 0), atol=1e-12)
    assert moves == []


ANGLE = st.floats(-6, 6)
_CLASS_POINTS = [(0, 0, 0), (np.pi / 4, 0, 0), (np.pi / 4, np.pi / 4, 0)]


@settings(max_examples=300)
@given(ANGLE, ANGLE, ANGLE)
def test_normalize_domain_and_idempotence(ax, ay, az):
    p, _ = normalize_params(ax, ay, az)
    assert np.pi / 4 + 1e-12 >= p.ax >= p.ay >= p.az >= 0.0
    again, moves = normalize_params(*p)
    assert tuple(again) == tuple(p)
    assert moves == []


@given(ANGLE, ANGLE, ANGLE, st.integers(0, 2), st.permutations(range(3)))
def test_normalize_invariant_under_symmetry_moves(ax, ay, az, axis, order):
    raw = [ax, ay, az]
    canon = normalize_params(*raw)[0].as_array()

    def on_axis(move):
        return [move(a) if k == axis else a for k, a in enumerate(raw)]

    moved = [
        [a if k == axis else -a for k, a in enumerate(raw)],  # pairwise sign flip
        on_axis(lambda a: a + np.pi / 2),
        on_axis(lambda a: np.pi / 2 - a),  # reflection about pi/4
        [raw[k] for k in order],
    ]
    for m in moved:
        # rounding can put a value on either side of the zero snap, so an
        # input and its image may land up to NONZERO_TOL apart
        np.testing.assert_allclose(
            normalize_params(*m)[0].as_array(), canon, rtol=0, atol=NONZERO_TOL + 1e-12
        )


def test_normalize_reflects_values_just_above_quarter():
    above = np.pi / 4 + 5e-10
    p, moves = normalize_params(above, 0, 0)
    assert p.ax <= np.pi / 4
    assert moves == ["reflect ax about pi/4"]
    assert tuple(p) == tuple(normalize_params(np.pi / 2 - above, 0, 0)[0])


def test_normalize_zero_snap():
    p, _ = normalize_params(1e-12, 0, 0)
    assert p.ax == 0.0


def test_normalize_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        for params in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
            with pytest.raises(ValueError):
                normalize_params(*params)


def test_classify_examples():
    assert classify(0, 0, 0).kind is InteractionKind.LOCAL
    assert classify(np.pi, np.pi / 2, 0).kind is InteractionKind.LOCAL

    c = classify(0, 0, np.pi / 16)
    assert c.kind is InteractionKind.ONE_PARAMETER
    assert not c.is_cz_class and not c.is_cz_swap_class

    c = classify(np.pi / 16, 0, np.pi / 16)
    assert c.kind is InteractionKind.TWO_PARAMETER

    c = classify(0.3, 0.2, 0.1)
    assert c.kind is InteractionKind.THREE_PARAMETER

    c = classify(np.pi / 4, 0, 0)
    assert c.kind is InteractionKind.ONE_PARAMETER and c.is_cz_class

    c = classify(np.pi / 4, np.pi / 4, 0)
    assert c.kind is InteractionKind.TWO_PARAMETER and c.is_cz_swap_class


def test_classify_cli_tolerance():
    # slightly truncated pi/4 still lands in the maximal-entangling class
    # when the caller widens the tolerance
    c = classify(0.7853981, 0, 0, tol=1e-6)
    assert c.is_cz_class
    c = classify(0.7853981, 0, 0)
    assert not c.is_cz_class
    # up to pi/8 no point is within tol of both special classes
    c = classify(np.pi / 4, np.pi / 8, 0, tol=np.pi / 8)
    assert not (c.is_cz_class and c.is_cz_swap_class)
    for tol in (float("nan"), float("inf"), -1.0, 0.0, np.nextafter(np.pi / 8, 1)):
        with pytest.raises(ValueError, match="tol"):
            classify(0.7, 0.1, 0, tol=tol)


def test_classify_agrees_with_normal_form():
    rng = np.random.default_rng(24)
    for _ in range(200):
        raw = rng.uniform(-6, 6, 3)
        p, _ = normalize_params(*raw)
        a = classify(*raw)
        b = classify(*p)
        assert a.kind is b.kind
        assert a.is_cz_class == b.is_cz_class
        assert a.is_cz_swap_class == b.is_cz_swap_class
        np.testing.assert_allclose(tuple(a.params), tuple(b.params), atol=1e-12)


def test_build_interaction_default_is_delta():
    spec = InteractionSpec(params=(0.1, 0.05, 0.02))
    np.testing.assert_allclose(
        build_interaction(spec), delta_gate(0.1, 0.05, 0.02), atol=1e-14
    )


def test_build_interaction_locals_applied_on_correct_sides():
    rng = np.random.default_rng(25)
    pre = (haar_unitary(2, rng), haar_unitary(2, rng))
    post = (haar_unitary(2, rng), haar_unitary(2, rng))
    spec = InteractionSpec(params=(0.1, 0.0, 0.3), pre_local=pre, post_local=post)
    ref = tensor(*post) @ delta_gate(0.1, 0.0, 0.3) @ tensor(*pre)
    np.testing.assert_allclose(build_interaction(spec), ref, atol=1e-13)


def test_controlled_quarter_phase_local_correction():
    # C-Phase(pi/4) = e^{i pi/16} (rz(pi/8) x rz(pi/8)) Delta(0, 0, -pi/16)
    target = c_phase(np.pi / 4)
    spec = InteractionSpec(
        params=(0, 0, -np.pi / 16), post_local=(rz(np.pi / 8), rz(np.pi / 8))
    )
    built = build_interaction(spec)
    assert phase_aligned_max_diff(built, target) < 1e-14
    np.testing.assert_allclose(np.exp(1j * np.pi / 16) * built, target, atol=1e-14)


def test_positive_axis_needs_more_than_z_rotations():
    # flipping the interaction sign breaks the pure-rz correction: no choice
    # of rz angles or global phase repairs it
    target = c_phase(np.pi / 4)
    best = np.inf
    for g1 in np.linspace(-np.pi, np.pi, 97):
        for g2 in np.linspace(-np.pi, np.pi, 97):
            built = tensor(rz(g1), rz(g2)) @ delta_gate(0, 0, np.pi / 16)
            best = min(best, phase_aligned_max_diff(built, target))
    assert best > 0.1


def test_cz_local_correction():
    # (rz(-pi/2) x rz(-pi/2)) Delta(0, 0, pi/4) = e^{i pi/4} CZ
    spec = InteractionSpec(
        params=(0, 0, np.pi / 4), post_local=(rz(-np.pi / 2), rz(-np.pi / 2))
    )
    built = build_interaction(spec)
    assert phase_aligned_max_diff(built, cz()) < 1e-14
    np.testing.assert_allclose(built, np.exp(1j * np.pi / 4) * cz(), atol=1e-14)


def test_cz_class_equivalence_through_hadamards():
    # sandwiching with Hadamards maps the diagonal form onto the familiar
    # controlled-phase picture without changing the class
    h = hadamard()
    spec = InteractionSpec(
        params=(0, 0, -np.pi / 16),
        post_local=(h @ rz(np.pi / 8), h @ rz(np.pi / 8)),
    )
    target = tensor(h, h) @ c_phase(np.pi / 4)
    assert phase_aligned_max_diff(build_interaction(spec), target) < 1e-13


def test_canonical_params_container():
    p = CanonicalParams(0.3, 0.2, 0.1)
    assert tuple(p) == (0.3, 0.2, 0.1)
    np.testing.assert_allclose(p.as_array(), [0.3, 0.2, 0.1])
    assert classify(0.3, 0.2, 0.1).kind is InteractionKind.THREE_PARAMETER
    assert classify(0, 0, 0).kind is InteractionKind.LOCAL
    # canonical parameters at or below the caller's tol do not count
    assert classify(1e-7, 0, 0, tol=1e-6).kind is InteractionKind.LOCAL
    assert classify(0.3, 1e-7, 0, tol=1e-6).kind is InteractionKind.ONE_PARAMETER


def _haar_su2(rng: np.random.Generator) -> np.ndarray:
    k = haar_unitary(2, rng)
    return k / np.sqrt(np.linalg.det(k))


# exact special points (local, CZ, CZ + SWAP, SWAP and their images) and generic ones
_COORD = st.one_of(
    st.sampled_from([0.0, np.pi / 8, np.pi / 4, -np.pi / 4, np.pi / 2, 3 * np.pi / 4]),
    st.floats(-4.0, 4.0),
)


@settings(max_examples=150)
@given(ax=_COORD, ay=_COORD, az=_COORD, seed=st.integers(0, 2**32 - 1))
def test_locally_equivalent_interactions_classify_the_same(ax, ay, az, seed):
    # Zhang, Vala, Sastry and Whaley, PRA 67, 042313 (2003): (k1 x k2) delta (k3 x k4)
    # is locally equivalent to delta, and its Weyl coordinates say so
    want, _ = normalize_params(ax, ay, az)
    # a coordinate within rounding of a threshold could land on either side
    for v in want:
        for edge in (NONZERO_TOL, np.pi / 4 - NONZERO_TOL):
            assume(abs(v - edge) > 1e-10)
    rng = np.random.default_rng(seed)
    u = (
        np.kron(_haar_su2(rng), _haar_su2(rng))
        @ delta_gate(ax, ay, az)
        @ np.kron(_haar_su2(rng), _haar_su2(rng))
    )
    coords = weyl_coordinates(u)
    got, _ = normalize_params(*coords)
    np.testing.assert_allclose(tuple(got), tuple(want), rtol=0, atol=1e-9)
    a, b = classify(*coords), classify(ax, ay, az)
    assert (a.kind, a.is_cz_class, a.is_cz_swap_class) == (b.kind, b.is_cz_class, b.is_cz_swap_class)


@settings(max_examples=300)
@given(
    st.sampled_from(_CLASS_POINTS),
    st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    st.sampled_from([NONZERO_TOL, 1e-6, 1e-3, np.pi / 8]),
)
def test_classify_verdicts_are_the_array_comparisons(point, offsets, tol):
    # classify compares Python floats; its verdicts are those of the array
    # expressions, at points within a few tol of the special classes
    raw = [p + d * tol for p, d in zip(point, offsets)]
    cls = classify(*raw, tol=tol)
    a = normalize_params(*raw)[0].as_array()
    quarter = np.pi / 4
    assert cls.kind == list(InteractionKind)[int(np.sum(a > tol))]
    assert cls.is_cz_class is bool(np.max(np.abs(a - [quarter, 0, 0])) < tol)
    assert cls.is_cz_swap_class is bool(np.max(np.abs(a - [quarter, quarter, 0])) < tol)
