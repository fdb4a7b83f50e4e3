from __future__ import annotations

import numpy as np
import pytest

from adqcsim.kraus import kraus_for
from adqcsim.measure import (
    MeasureConfig,
    initialize_register,
    interaction_cost,
    measurement_ensemble,
    required_steps,
    run_measurement,
    step_operators,
    weak_interaction,
    weak_step,
)
from adqcsim.qmath import (
    ImpossibleBranchError,
    basis_state,
    bloch_to_state,
    computational_basis,
    hadamard,
    haar_state,
    plus_state,
)
from adqcsim.seeding import derive_rng

THETA = np.pi / 4


def test_required_steps_reference_values():
    assert required_steps(THETA, 0.1) == 30
    assert required_steps(THETA, 0.05) == 38
    assert required_steps(THETA, 0.01) == 59
    # minimality: one step fewer still exceeds the target
    c = np.cos(THETA / 2)
    for eps, n in ((0.1, 30), (0.05, 38), (0.01, 59)):
        assert c**n <= eps < c ** (n - 1)


def test_required_steps_projective_and_clamp():
    assert required_steps(np.pi, 0.05) == 1
    # a hand-typed 7-digit pi must not be rejected
    assert required_steps(3.141593, 0.05) == 1
    assert required_steps(0.999 * np.pi, 0.05) == 1
    with pytest.raises(ValueError):
        required_steps(0.0, 0.05)
    with pytest.raises(ValueError):
        required_steps(3.15, 0.05)
    with pytest.raises(ValueError):
        required_steps(THETA, 0.0)
    with pytest.raises(ValueError):
        required_steps(THETA, 1.0)


def test_step_operators_completeness():
    for theta in (0.1, THETA, np.pi / 2, np.pi):
        m0, m1 = step_operators(theta)
        np.testing.assert_allclose(
            m0.conj().T @ m0 + m1.conj().T @ m1, np.eye(2), atol=1e-14
        )
    m0, m1 = step_operators(THETA)
    np.testing.assert_allclose(m0, np.diag([1, np.cos(np.pi / 8)]), atol=1e-14)
    np.testing.assert_allclose(m1, np.diag([0, -1j * np.sin(np.pi / 8)]), atol=1e-14)


def test_kraus_pipeline_matches_step_operators():
    # the abstract ancilla pipeline and the closed-form step operators must
    # produce the same physical Kraus pair (H times the diagonal)
    h = hadamard()
    for theta in (0.2, THETA, np.pi / 2, 2.5):
        ops = kraus_for(weak_interaction(theta), plus_state(), computational_basis())
        m0, m1 = step_operators(theta)
        np.testing.assert_allclose(ops[0].operator, h @ m0, atol=1e-10)
        np.testing.assert_allclose(ops[1].operator, h @ m1, atol=1e-10)
        assert not ops[0].proportional_unitary
        assert not ops[1].proportional_unitary


def test_weak_step_probabilities_and_posts():
    theta = np.pi / 2
    outcome, post, p = weak_step(plus_state(), theta, forced=1)
    assert outcome == 1
    assert abs(p - 0.25) < 1e-12
    np.testing.assert_array_equal(post, basis_state(1))

    outcome, post, p = weak_step(plus_state(), theta, forced=0)
    assert outcome == 0
    assert abs(p - 0.75) < 1e-12
    c = np.cos(theta / 2)
    expected = np.array([1, c]) / np.sqrt(1 + c**2)
    np.testing.assert_allclose(post, expected, atol=1e-12)

    with pytest.raises(ValueError):
        weak_step(plus_state(), theta)  # no rng and no forced outcome
    with pytest.raises(ImpossibleBranchError):
        weak_step(basis_state(1), np.pi, forced=0)  # zero-probability branch
    with pytest.raises(ImpossibleBranchError):
        weak_step(basis_state(0), np.pi / 4, forced=1)  # zero-probability branch
    with pytest.raises(ValueError, match="forced outcome must be 0 or 1"):
        weak_step(plus_state(), np.pi / 4, forced=2)


def test_weak_step_projective_limit():
    outcome, post, p = weak_step(plus_state(), np.pi, forced=0)
    np.testing.assert_allclose(post, basis_state(0), atol=1e-12)
    assert abs(p - 0.5) < 1e-12
    outcome, post, p = weak_step(plus_state(), np.pi, forced=1)
    np.testing.assert_array_equal(post, basis_state(1))
    assert abs(p - 0.5) < 1e-12


def test_zero_amplitude_input_never_clicks():
    rng = derive_rng(55, 0)
    for _ in range(50):
        outcome, post, p = weak_step(basis_state(0), THETA, rng=rng)
        assert outcome == 0
        assert abs(p - 1.0) < 1e-14
        np.testing.assert_allclose(post, basis_state(0), atol=1e-14)


def test_chain_closed_form():
    # k forced-0 rounds leave alpha|0> + beta cos^k |1> with cumulative
    # probability |alpha|^2 + |beta|^2 cos^{2k}
    rng = np.random.default_rng(56)
    c = np.cos(THETA / 2)
    for _ in range(20):
        psi = haar_state(rng, 1)
        state = psi
        cumulative = 1.0
        for k in range(1, 65):
            _, state, p = weak_step(state, THETA, forced=0)
            cumulative *= p
            expected = np.array([psi[0], psi[1] * c**k])
            nrm = np.linalg.norm(expected)
            np.testing.assert_allclose(state, expected / nrm, atol=1e-12)
            assert abs(cumulative - nrm**2) < 1e-12


def test_measure_config_steps():
    assert MeasureConfig(theta=THETA, epsilon=0.05).n_steps == 38
    assert interaction_cost(38) == 76
    assert interaction_cost(MeasureConfig(theta=THETA).n_steps) == 76


def test_run_measurement_label_one():
    cfg = MeasureConfig(theta=THETA, epsilon=0.05)
    res = run_measurement(basis_state(1), cfg, derive_rng(57, 0))
    assert res.label == 1
    assert res.residual_bound == 0.0
    np.testing.assert_array_equal(res.post_state, basis_state(1))
    # rounds 1 .. steps_used - 1 read 0 and the last one read 1
    assert 1 <= res.steps_used <= cfg.n_steps


def test_run_measurement_label_zero():
    cfg = MeasureConfig(theta=THETA, epsilon=0.05)
    res = run_measurement(basis_state(0), cfg, derive_rng(58, 0))
    assert res.label == 0
    assert res.steps_used == 38
    assert abs(res.residual_bound - np.cos(np.pi / 8) ** 38) < 1e-14
    assert res.residual_bound <= 0.05
    np.testing.assert_allclose(res.post_state, basis_state(0), atol=1e-12)


def test_label_zero_post_state_within_residual():
    cfg = MeasureConfig(theta=THETA, epsilon=0.05)
    for t in range(50):
        res = run_measurement(plus_state(), cfg, derive_rng(59, t))
        if res.label == 0:
            assert abs(res.post_state[1]) <= res.residual_bound + 1e-12


def test_mislabel_rate_for_one_input():
    # a |1> input is mislabelled 0 only if all n rounds read 0, which
    # happens with probability cos^{2n}(theta/2)
    cfg = MeasureConfig(theta=THETA, epsilon=0.05)
    bound = np.cos(np.pi / 8) ** 76
    assert abs(bound - 0.002436499294649102) < 1e-15
    trials = 2000
    results = measurement_ensemble(basis_state(1), cfg, trials)
    wrong = sum(1 for r in results if r.label == 0)
    sigma = np.sqrt(bound * (1 - bound) / trials)
    assert wrong / trials <= bound + 3 * sigma
    assert abs(wrong / trials - bound) < 4 * sigma


def test_ensemble_determinism_and_frequency():
    state = bloch_to_state(2 * np.arcsin(np.sqrt(0.3)), 0.0)
    assert abs(abs(state[1]) ** 2 - 0.3) < 1e-12
    cfg = MeasureConfig(theta=THETA, epsilon=0.05, seed=61)
    a = measurement_ensemble(state, cfg, 400)
    b = measurement_ensemble(state, cfg, 400)
    assert [(r.label, r.steps_used) for r in a] == [(r.label, r.steps_used) for r in b]
    direct = run_measurement(state, cfg, derive_rng(61, 13))
    assert (a[13].label, a[13].steps_used) == (direct.label, direct.steps_used)
    p_one = 0.3 * (1 - np.cos(np.pi / 8) ** 76)
    freq = np.mean([r.label for r in a])
    sigma = np.sqrt(p_one * (1 - p_one) / 400)
    assert abs(freq - p_one) < 4 * sigma
    with pytest.raises(ValueError):
        measurement_ensemble(state, cfg, 0)


def test_initialize_register_projective():
    cfg = MeasureConfig(theta=np.pi, epsilon=0.05, seed=62)
    labels = []
    for t in range(200):
        state, label = initialize_register(cfg, derive_rng(62, t))
        labels.append(label)
        np.testing.assert_allclose(state, basis_state(label), atol=1e-12)
    assert 60 < sum(labels) < 140  # fair coin from |+>


def test_initialize_register_weak():
    cfg = MeasureConfig(theta=THETA, epsilon=0.05, seed=63)
    for t in range(50):
        state, label = initialize_register(cfg, derive_rng(63, t))
        if label == 1:
            np.testing.assert_array_equal(state, basis_state(1))
        else:
            assert abs(state[1]) <= 0.05
