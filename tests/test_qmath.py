from __future__ import annotations

import numpy as np
import pytest

from adqcsim import qmath
from adqcsim.qmath import (
    ImpossibleBranchError,
    apply,
    as_state,
    as_unitary,
    basis_state,
    bloch_to_state,
    c_phase,
    c_rz,
    cz,
    hadamard,
    haar_state,
    haar_unitary,
    j_gate,
    measure_qubit,
    pauli,
    phase_aligned_max_diff,
    plus_state,
    rx,
    ry,
    rz,
    sample_outcome,
    state_to_bloch,
    tensor,
    trace_distance,
    wrap_angle,
    x_basis,
)

I2 = np.eye(2)


def test_rz_convention():
    np.testing.assert_allclose(rz(0), I2, atol=1e-15)
    theta = 0.731
    expected = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    np.testing.assert_allclose(rz(theta), expected, atol=1e-15)


def test_rz_quarter_is_t_up_to_phase():
    t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
    assert phase_aligned_max_diff(rz(np.pi / 4), t_gate) < 1e-15
    # the explicit global phase
    np.testing.assert_allclose(
        rz(np.pi / 4), np.exp(-1j * np.pi / 8) * t_gate, atol=1e-15
    )


def test_rx_ry_conventions():
    np.testing.assert_allclose(rx(0), I2, atol=1e-15)
    theta = 1.234
    np.testing.assert_allclose(
        rx(theta),
        np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * pauli("x"),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        ry(theta),
        np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * pauli("y"),
        atol=1e-15,
    )
    assert np.max(np.abs(ry(theta).imag)) == 0.0


def test_hadamard_involution():
    h = hadamard()
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(h @ h, I2, atol=1e-15)


def test_rz_rx_rz_sandwich_matrix():
    # rz(2a) rx(pi/2) rz(2b) = (1/sqrt2) [[e^{-iA}, -i e^{-iB}], [-i e^{iB}, e^{iA}]]
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.uniform(-1, 1, 2)
        big_a, big_b = a + b, a - b
        expected = np.array(
            [
                [np.exp(-1j * big_a), -1j * np.exp(-1j * big_b)],
                [-1j * np.exp(1j * big_b), np.exp(1j * big_a)],
            ]
        ) / np.sqrt(2)
        got = rz(2 * a) @ rx(np.pi / 2) @ rz(2 * b)
        np.testing.assert_allclose(got, expected, atol=1e-14)


def test_j_gate():
    np.testing.assert_allclose(j_gate(0), hadamard(), atol=1e-15)
    beta = 0.41
    np.testing.assert_allclose(j_gate(beta), hadamard() @ rz(beta), atol=1e-15)
    np.testing.assert_allclose(j_gate(beta).conj().T @ j_gate(beta), I2, atol=1e-14)


def test_c_rz_and_c_phase():
    theta = 0.77
    np.testing.assert_allclose(
        c_rz(theta, control=0),
        np.diag([1, 1, np.exp(-0.5j * theta), np.exp(0.5j * theta)]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        c_rz(theta, control=1),
        np.diag([1, np.exp(-0.5j * theta), 1, np.exp(0.5j * theta)]),
        atol=1e-15,
    )
    np.testing.assert_allclose(c_phase(np.pi), np.diag([1, 1, 1, -1]), atol=1e-15)
    np.testing.assert_allclose(cz(), np.diag([1, 1, 1, -1]), atol=1e-15)
    with pytest.raises(ValueError):
        c_rz(theta, control=2)


def test_tensor_and_apply_basics():
    np.testing.assert_allclose(tensor(I2, I2), np.eye(4), atol=1e-15)
    ket11 = tensor(basis_state(1), basis_state(1))
    np.testing.assert_allclose(apply(cz(), ket11, (0, 1)), -ket11, atol=1e-15)
    plus2 = tensor(plus_state(), plus_state())
    np.testing.assert_allclose(
        apply(tensor(hadamard(), hadamard()), tensor(basis_state(0), basis_state(0)), (0, 1)),
        plus2,
        atol=1e-15,
    )


def test_apply_factorizes_on_disjoint_qubits():
    rng = np.random.default_rng(5)
    for _ in range(25):
        psi = haar_state(rng, 3)
        a = haar_unitary(2, rng)
        b = haar_unitary(2, rng)
        joint = apply(tensor(a, b), psi, (0, 2))
        split = apply(a, apply(b, psi, 2), 0)
        np.testing.assert_allclose(joint, split, atol=1e-12)


def test_apply_respects_qubit_order():
    rng = np.random.default_rng(6)
    psi = haar_state(rng, 2)
    g = tensor(rz(0.3), rx(0.7))
    # feeding qubits reversed swaps which factor hits which qubit
    np.testing.assert_allclose(
        apply(g, psi, (1, 0)), apply(tensor(rx(0.7), rz(0.3)), psi, (0, 1)), atol=1e-13
    )
    with pytest.raises(ValueError):
        apply(g, psi, (0, 0))
    with pytest.raises(ValueError):
        apply(g, psi, (0, 2))


def test_trace_distance_basics():
    rng = np.random.default_rng(3)
    u = haar_unitary(2, rng)
    # sqrt amplifies float noise near zero, so coincident inputs land ~1e-8
    assert trace_distance(u, u) < 1e-7
    assert trace_distance(-u, u) < 1e-7
    assert abs(trace_distance(pauli("x"), I2) - 1.0) < 1e-12


def test_trace_distance_phase_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = haar_unitary(2, rng)
        v = haar_unitary(2, rng)
        gamma = rng.uniform(0, 2 * np.pi)
        d1 = trace_distance(u, v)
        d2 = trace_distance(np.exp(1j * gamma) * u, v)
        assert abs(d1 - d2) < 1e-12
        assert 0.0 <= d1 <= 1.0


def test_phase_aligned_max_diff():
    rng = np.random.default_rng(8)
    u = haar_unitary(2, rng)
    assert phase_aligned_max_diff(u, np.exp(0.45j) * u) < 1e-15
    assert phase_aligned_max_diff(u, pauli("x") @ u) > 0.1


def test_measure_plus_in_x_basis():
    outcome, p, post = measure_qubit(plus_state(), 0, x_basis(), forced=0)
    assert outcome == 0
    assert abs(p - 1.0) < 1e-12
    np.testing.assert_allclose(post, plus_state(), atol=1e-12)


def test_measure_computational():
    outcome, p, post = measure_qubit(basis_state(0), 0, (basis_state(0), basis_state(1)), forced=0)
    assert outcome == 0 and abs(p - 1.0) < 1e-12
    np.testing.assert_allclose(post, basis_state(0), atol=1e-15)

    psi = np.array([0.6, 0.8j])
    _, p0, _ = measure_qubit(psi, 0, (basis_state(0), basis_state(1)), forced=0)
    assert abs(p0 - 0.36) < 1e-12


def test_measure_branch_probabilities_and_reconstruction():
    rng = np.random.default_rng(12)
    basis = (basis_state(0), basis_state(1))
    for _ in range(30):
        psi = haar_state(rng, 3)
        q = int(rng.integers(0, 3))
        _, p0, post0 = measure_qubit(psi, q, basis, forced=0)
        _, p1, post1 = measure_qubit(psi, q, basis, forced=1)
        assert abs(p0 + p1 - 1.0) < 1e-12
        # rebuild the pre-measurement state from the two branches
        rebuilt = np.zeros(8, dtype=complex)
        for bit, p, post in ((0, p0, post0), (1, p1, post1)):
            branch = np.sqrt(p) * tensor(basis_state(bit), post)
            rebuilt += np.moveaxis(
                branch.reshape(2, 2, 2), 0, q
            ).reshape(-1)
        np.testing.assert_allclose(rebuilt, psi, atol=1e-12)


def test_measure_forced_impossible_branch():
    with pytest.raises(ImpossibleBranchError):
        measure_qubit(basis_state(0), 0, (basis_state(0), basis_state(1)), forced=1)
    with pytest.raises(ValueError):
        measure_qubit(basis_state(0), 0, (basis_state(0), basis_state(1)))


class _FixedDraw:
    """A generator stub whose every draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def test_sample_outcome_rule():
    # one draw per outcome, and outcome 0 iff the draw is below p0
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    for p0 in np.linspace(0.0, 1.0, 41):
        for _ in range(25):
            assert sample_outcome(p0, 1.0 - p0, rng) == int(twin.random() >= p0)
    assert sample_outcome(0.3, 0.7, _FixedDraw(0.3)) == 1
    assert sample_outcome(0.3, 0.7, _FixedDraw(0.2999)) == 0
    assert sample_outcome(0.3, 0.7, _FixedDraw(0.9), forced=0) == 0
    # a branch below BRANCH_TOL is refused whether it is forced or sampled
    with pytest.raises(ImpossibleBranchError):
        sample_outcome(1.0, 0.0, forced=1)
    with pytest.raises(ImpossibleBranchError):
        sample_outcome(0.5, 1e-15, _FixedDraw(0.75))
    for forced in (2, -1, 0.5):
        with pytest.raises(ValueError, match="forced outcome must be 0 or 1"):
            sample_outcome(0.5, 0.5, forced=forced)
    with pytest.raises(ValueError, match="either rng or forced"):
        sample_outcome(0.5, 0.5)


def test_measure_requires_orthogonal_basis():
    with pytest.raises(ValueError):
        measure_qubit(plus_state(), 0, (plus_state(), basis_state(0)), forced=0)


def test_bloch_fixed_points():
    b = state_to_bloch(basis_state(0))
    assert abs(b.theta) < 1e-12 and b.phi == 0.0
    b = state_to_bloch(plus_state())
    assert abs(b.theta - np.pi / 2) < 1e-12 and abs(b.phi) < 1e-12
    psi = np.array([1, np.exp(1j * np.pi / 3)]) / np.sqrt(2)
    b = state_to_bloch(psi)
    assert abs(b.theta - np.pi / 2) < 1e-12
    assert abs(b.phi - np.pi / 3) < 1e-12
    np.testing.assert_allclose(
        b.cartesian, [np.cos(np.pi / 3), np.sin(np.pi / 3), 0.0], atol=1e-12
    )


def test_bloch_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        psi = haar_state(rng, 1)
        b = state_to_bloch(psi)
        back = bloch_to_state(b.theta, b.phi)
        fidelity = abs(np.vdot(back, psi)) ** 2
        assert fidelity >= 1.0 - 1e-10


def test_pole_azimuth_is_zero():
    assert state_to_bloch(np.exp(0.3j) * basis_state(1)).phi == 0.0


def test_validators():
    with pytest.raises(ValueError):
        as_state(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        as_state(np.array([1.0, 0.0, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            as_state(np.array([bad, 0.0]))
    with pytest.raises(ValueError):
        as_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
    rng = np.random.default_rng(2)
    u = haar_unitary(4, rng)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_wrap_angle():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.25) == pytest.approx(0.25)
