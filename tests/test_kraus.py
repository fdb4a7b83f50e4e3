from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adqcsim.interaction import delta_gate
from adqcsim.kraus import (
    DeterministicGateSet,
    KrausOutcome,
    deterministic_gate_set,
    hh_crz_interaction,
    is_proportional_unitary,
    kraus_for,
    program_deterministic,
    single_qubit_step,
)
from adqcsim.measure import weak_interaction
from adqcsim.qmath import (
    basis_state,
    computational_basis,
    hadamard,
    haar_state,
    haar_unitary,
    pauli,
    phase_aligned_max_diff,
    plus_state,
    rz,
    tensor,
    x_basis,
)
from adqcsim.sqwalk import WALK_PRESETS

from oracle import kraus_reference, measure_qubit, proportional_unitary_reference


def test_diagonal_interaction_computational_ancilla():
    # ancilla |0> never flips under a diagonal coupling: outcome 0 is a
    # deterministic rz(2a) rotation, outcome 1 never occurs
    alpha = 0.3
    ops = kraus_for(delta_gate(0, 0, alpha), basis_state(0), computational_basis())
    assert ops[0].proportional_unitary
    assert abs(ops[0].probability - 1.0) < 1e-12
    assert phase_aligned_max_diff(ops[0].unitary_part, rz(2 * alpha)) < 1e-12
    assert ops[1].is_zero
    assert np.all(ops[1].operator == 0)
    with pytest.raises(ValueError):
        ops[1].unitary_part


def test_diagonal_interaction_x_ancilla_gives_weak_z():
    alpha = 0.3
    ops = kraus_for(delta_gate(0, 0, alpha), plus_state(), x_basis())
    np.testing.assert_allclose(ops[0].operator, np.cos(alpha) * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(ops[1].operator, -1j * np.sin(alpha) * pauli("z"), atol=1e-12)
    assert ops[0].proportional_unitary and ops[1].proportional_unitary
    assert abs(ops[0].probability - np.cos(alpha) ** 2) < 1e-12
    assert abs(ops[1].probability - np.sin(alpha) ** 2) < 1e-12


def test_weak_interaction_branches_are_not_unitary():
    theta = np.pi / 4
    ops = kraus_for(weak_interaction(theta), plus_state(), computational_basis())
    h = hadamard()
    np.testing.assert_allclose(
        ops[0].operator, h @ np.diag([1, np.cos(theta / 2)]), atol=1e-12
    )
    np.testing.assert_allclose(
        ops[1].operator, h @ np.diag([0, -1j * np.sin(theta / 2)]), atol=1e-12
    )
    assert not ops[0].proportional_unitary
    assert not ops[1].proportional_unitary
    # worst-case weights: largest eigenvalue of K^dag K
    assert abs(ops[0].probability - 1.0) < 1e-12
    assert abs(ops[1].probability - np.sin(theta / 2) ** 2) < 1e-12


def test_is_proportional_unitary():
    ok, p = is_proportional_unitary(hadamard() / np.sqrt(2))
    assert ok and abs(p - 0.5) < 1e-14
    ok, _ = is_proportional_unitary(np.diag([1.0, 0.5]))
    assert not ok
    ok, p = is_proportional_unitary(np.zeros((2, 2)))
    assert ok and p == 0.0
    for bad in (np.eye(4), np.ones(2), np.ones((2, 3))):
        with pytest.raises(ValueError, match="2x2"):
            is_proportional_unitary(bad)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.floats(-13, -7))
def test_is_proportional_unitary_is_the_norm_test(seed, log_eps):
    # sqrt(2) r against the Frobenius norm of K K^dag - p I, near the tolerance
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    k = rng.uniform(0.1, 1.0) * haar_unitary(2, rng) + 10.0**log_eps * noise
    assert is_proportional_unitary(k) == proportional_unitary_reference(k)


def _assert_matches_reference(e, ancilla, basis) -> list[KrausOutcome]:
    """kraus_for equals the per-branch reference; non-proportional weights to 1e-14."""
    got, want = kraus_for(e, ancilla, basis), kraus_reference(e, ancilla, basis)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.operator, w.operator)
        assert (g.proportional_unitary, g.is_zero) == (w.proportional_unitary, w.is_zero)
        if w.proportional_unitary or w.is_zero:
            assert g.probability == w.probability
        else:
            assert abs(g.probability - w.probability) <= 1e-14 * w.probability
    return got


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_kraus_for_matches_the_per_branch_reference(seed):
    rng = np.random.default_rng(seed)
    e = haar_unitary(4, rng)
    a = haar_state(rng, 1)
    b = haar_unitary(2, rng)
    _assert_matches_reference(e, a, (b[:, 0], b[:, 1]))


_FIXED = {
    **{f"walk-{name}": preset for name, preset in WALK_PRESETS.items()},
    "weak": (weak_interaction(np.pi / 4), plus_state(), computational_basis()),
    # branch 0 is proportional to unitary, branch 1 is not
    "weak-mixed": (weak_interaction(np.pi / 4), plus_state(), (plus_state(), basis_state(0))),
    "zero-branch": (delta_gate(0, 0, 0.3), basis_state(0), computational_basis()),
    **{
        f"hh-crz-{bit}-{name}": (hh_crz_interaction(np.pi / 4), basis_state(bit), basis())
        for bit in (0, 1)
        for name, basis in (("computational", computational_basis), ("x", x_basis))
    },
}


@pytest.mark.parametrize("case", sorted(_FIXED))
def test_kraus_for_matches_the_reference_on_fixed_cases(case):
    ops = _assert_matches_reference(*_FIXED[case])
    if case == "weak-mixed":
        assert [o.proportional_unitary for o in ops] == [True, False]
    if case == "zero-branch":
        assert [o.is_zero for o in ops] == [False, True]


@pytest.mark.parametrize(
    "e, ancilla, basis",
    [
        (np.ones((4, 4)), plus_state(), computational_basis()),
        (hadamard(), plus_state(), computational_basis()),
        (np.full((4, 4), np.nan), plus_state(), computational_basis()),
        (np.diag([np.inf, 1, 1, 1]), plus_state(), computational_basis()),
        (np.eye(4), np.ones(4) / 2, computational_basis()),
        (np.eye(4), plus_state(), (np.array([1.0, 1.0]), basis_state(1))),
        (np.eye(4), plus_state(), (np.array([np.nan, 0.0]), basis_state(1))),
    ],
)
def test_kraus_for_rejects_bad_inputs(e, ancilla, basis):
    with pytest.raises(ValueError):
        kraus_for(e, ancilla, basis)


def test_kraus_for_names_the_one_qubit_basis():
    with pytest.raises(ValueError, match="one-qubit"):
        kraus_for(np.eye(4), plus_state(), (np.ones(4) / 2, basis_state(1)))
    assert kraus_for(np.eye(4), plus_state(), ()) == []


@settings(max_examples=50)
@given(st.sampled_from(sorted(WALK_PRESETS)), st.integers(0, 2**32 - 1))
def test_walk_gates_are_the_circuit(preset, seed):
    # each branch acts on psi as measuring the ancilla after E (a x psi) does,
    # with the weight p_m whatever psi is
    e, a, basis = WALK_PRESETS[preset]
    ops = kraus_for(e, a, basis)
    psi = haar_state(np.random.default_rng(seed), 1)
    joint = e @ tensor(a, psi)
    for m, op in enumerate(ops):
        u = op.unitary_part
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        branch = op.operator @ psi
        _, p, post = measure_qubit(joint, 0, basis, forced=m)
        assert abs(p - np.vdot(branch, branch).real) < 1e-12
        assert abs(p - op.probability) < 1e-12
        np.testing.assert_allclose(post, branch / np.linalg.norm(branch), atol=1e-12)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_completeness_of_branches(seed):
    # sum_m K_m^dag K_m = I for Haar interaction, ancilla and basis
    rng = np.random.default_rng(seed)
    e = haar_unitary(4, rng)
    a = haar_state(rng, 1)
    b = haar_unitary(2, rng)
    ops = kraus_for(e, a, (b[:, 0], b[:, 1]))
    total = sum(op.operator.conj().T @ op.operator for op in ops)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_kraus_matches_full_state_evolution():
    # K_m psi must agree with projecting the ancilla after the joint unitary
    rng = np.random.default_rng(32)
    for _ in range(50):
        e = haar_unitary(4, rng)
        a = haar_state(rng, 1)
        psi = haar_state(rng, 1)
        b = haar_unitary(2, rng)
        basis = (b[:, 0], b[:, 1])
        joint = e @ tensor(a, psi)
        ops = kraus_for(e, a, basis)
        for m, op in enumerate(ops):
            branch = op.operator @ psi
            _, p, post = measure_qubit(joint, 0, basis, forced=m) if np.linalg.norm(
                branch
            ) > 1e-7 else (m, 0.0, None)
            if post is None:
                assert np.linalg.norm(branch) < 1e-7
                continue
            assert abs(p - np.vdot(branch, branch).real) < 1e-10
            np.testing.assert_allclose(post, branch / np.linalg.norm(branch), atol=1e-10)


def test_single_qubit_step_deterministic_interaction():
    # ancilla |1> exits in |->, so an x-basis readout is deterministic ...
    e = hh_crz_interaction(np.pi / 4)
    gates = deterministic_gate_set()
    rng = np.random.default_rng(33)
    psi = haar_state(rng, 1)
    outcome, post, op = single_qubit_step(e, basis_state(1), x_basis(), psi, rng)
    assert outcome == 1
    assert op.proportional_unitary and abs(op.probability - 1.0) < 1e-12
    assert phase_aligned_max_diff(post.reshape(2, 1), (gates.u1 @ psi).reshape(2, 1)) < 1e-10

    # ... while a computational readout is 50/50 yet applies the same gate
    counts = [0, 0]
    for _ in range(400):
        outcome, post, op = single_qubit_step(
            e, basis_state(1), computational_basis(), psi, rng
        )
        counts[outcome] += 1
        assert op.proportional_unitary
        assert abs(op.probability - 0.5) < 1e-12
        assert phase_aligned_max_diff(post.reshape(2, 1), (gates.u1 @ psi).reshape(2, 1)) < 1e-10
    assert min(counts) > 120


def test_single_qubit_step_born_weights():
    # non-unitary branches must be sampled with state-dependent weights
    theta = np.pi / 2
    e = weak_interaction(theta)
    psi = np.array([0.6, 0.8], dtype=complex)
    p1_exact = 0.64 * np.sin(theta / 2) ** 2
    rng = np.random.default_rng(34)
    hits = 0
    n = 4000
    for _ in range(n):
        outcome, _, _ = single_qubit_step(e, plus_state(), computational_basis(), psi, rng)
        hits += outcome
    freq = hits / n
    sigma = np.sqrt(p1_exact * (1 - p1_exact) / n)
    assert abs(freq - p1_exact) < 4 * sigma


def test_single_qubit_step_rejects_multiqubit_register():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        single_qubit_step(
            hh_crz_interaction(np.pi / 4),
            basis_state(0),
            x_basis(),
            np.ones(4) / 2,
            rng,
        )


def test_generic_interactions_never_factor_out_the_ancilla():
    # deterministic programming needs E(|a> x psi) = |chi> x U psi; for the
    # coupling classes below no ancilla achieves that (second singular value
    # of the ancilla-vs-register unfolding stays bounded away from zero)
    rng = np.random.default_rng(35)
    for params in [(np.pi / 16, np.pi / 10, 0), (np.pi / 16, 0, np.pi / 16)]:
        e = delta_gate(*params)
        et = e.reshape(2, 2, 2, 2)
        worst = np.inf
        for _ in range(1000):
            a = haar_state(rng, 1)
            m = np.einsum("orai,a->ori", et, a).reshape(2, 4)
            s = np.linalg.svd(m, compute_uv=False)
            worst = min(worst, s[1])
        assert worst > 1e-6


def test_programmed_interaction_does_factor_out_the_ancilla():
    e = hh_crz_interaction(np.pi / 4)
    et = e.reshape(2, 2, 2, 2)
    for bit in (0, 1):
        m = np.einsum("orai,a->ori", et, basis_state(bit)).reshape(2, 4)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] < 1e-14


def test_deterministic_gate_set_values():
    gates = deterministic_gate_set()
    np.testing.assert_allclose(gates.u0, hadamard(), atol=1e-15)
    np.testing.assert_allclose(gates.u1, hadamard() @ rz(np.pi / 4), atol=1e-15)
    t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
    assert phase_aligned_max_diff(gates.u1, hadamard() @ t_gate) < 1e-14


def test_program_deterministic_basic():
    gates = deterministic_gate_set()
    np.testing.assert_allclose(program_deterministic("0"), gates.u0, atol=1e-15)
    np.testing.assert_allclose(program_deterministic("1"), gates.u1, atol=1e-15)
    # first character acts first: "01" means u1 . u0
    np.testing.assert_allclose(
        program_deterministic("01"), gates.u1 @ gates.u0, atol=1e-14
    )
    with pytest.raises(ValueError):
        program_deterministic("")
    with pytest.raises(ValueError):
        program_deterministic("012")


@settings(max_examples=50)
@given(st.text("01", min_size=1, max_size=40))
def test_program_deterministic_is_the_left_product_bit_for_bit(bits):
    # the gate pair is built once, and the product is taken in the same order
    gates = deterministic_gate_set()
    out = np.eye(2, dtype=complex)
    for b in bits:
        out = (gates.u1 if b == "1" else gates.u0) @ out
    assert np.array_equal(program_deterministic(bits), out)


def test_program_deterministic_matches_ancilla_simulation():
    # run the physical protocol: per bit, couple a fresh ancilla prepared in
    # |b>, then discard it by measuring in the x basis (either outcome).
    e = hh_crz_interaction(np.pi / 4)
    rng = np.random.default_rng(36)
    for bits in ["0", "1", "01", "10", "1101", "0010"]:
        psi = haar_state(rng, 1)
        state = psi
        for b in bits:
            joint = e @ tensor(basis_state(int(b)), state)
            _, _, state = measure_qubit(joint, 0, x_basis(), rng=rng)
        expected = program_deterministic(bits) @ psi
        assert (
            phase_aligned_max_diff(state.reshape(2, 1), expected.reshape(2, 1)) < 1e-10
        )


def test_kraus_outcome_unitary_part_guard():
    bad = KrausOutcome(np.diag([1.0, 0.5]), 1.0, False)
    with pytest.raises(ValueError):
        bad.unitary_part
