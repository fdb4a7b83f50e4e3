from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adqcsim.kraus import kraus_for
from adqcsim.measure import (
    MeasureConfig,
    MeasureResult,
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
    # cos(pi/2) is 6e-17 in floating point, not 0: the logarithm must not decide
    assert required_steps(np.pi, 1e-20) == 1
    # a hand-typed 7-digit pi must not be rejected
    assert required_steps(3.141593, 0.05) == 1
    assert required_steps(0.999 * np.pi, 0.05) == 1
    with pytest.raises(ValueError):
        required_steps(0.0, 0.05)
    with pytest.raises(ValueError):
        required_steps(3.15, 0.05)
    # cos(theta/2) rounds to 1: no chain length reaches any epsilon
    with pytest.raises(ValueError, match="theta"):
        required_steps(1e-10, 0.05)
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


def _reference_chain(
    register: np.ndarray, cfg: MeasureConfig, rng: np.random.Generator
) -> MeasureResult:
    """The chain round by round: one weak_step, and one draw, per round."""
    psi = register
    for step in range(1, cfg.n_steps + 1):
        outcome, psi, _ = weak_step(psi, cfg.theta, rng)
        if outcome == 1:
            return MeasureResult(1, step, psi, 0.0)
    return MeasureResult(0, cfg.n_steps, psi, float(np.cos(cfg.theta / 2) ** cfg.n_steps))


def _assert_same_chain(register, cfg, rng, twin) -> None:
    try:
        fast = run_measurement(register, cfg, rng)
    except ImpossibleBranchError:
        with pytest.raises(ImpossibleBranchError):
            _reference_chain(register, cfg, twin)
        return
    slow = _reference_chain(register, cfg, twin)
    assert (fast.label, fast.steps_used, fast.residual_bound) == (
        slow.label, slow.steps_used, slow.residual_bound
    )
    np.testing.assert_allclose(fast.post_state, slow.post_state, rtol=0, atol=1e-12)


_REGISTERS = st.one_of(
    st.sampled_from([0, 1]).map(basis_state),
    st.integers(0, 2**32 - 1).map(lambda s: haar_state(np.random.default_rng(s), 1)),
)


@settings(max_examples=150)
@given(
    register=_REGISTERS,
    theta=st.one_of(st.just(np.pi), st.floats(0.0, np.pi, exclude_min=True)),
    epsilon=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_matches_stepwise_reference(register, theta, epsilon, seed):
    # at most 2000 rounds keeps the reference quick; this also skips the
    # thetas so small that cos(theta / 2) rounds to 1
    assume(np.cos(theta / 2) ** 2000 <= epsilon)
    cfg = MeasureConfig(theta=theta, epsilon=epsilon)
    _assert_same_chain(register, cfg, derive_rng(seed, 0), derive_rng(seed, 0))


class _Draws:
    """A generator stand-in that serves fixed uniforms, singly or as an array."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


def test_chain_refuses_impossible_branches_like_the_reference():
    # round 1 reads 0 at weight ~1e-15: |1> all but exactly, projectively
    nearly_one = np.array([np.sqrt(1e-15), np.sqrt(1 - 1e-15)])
    # round 1 reads 1 at weight 1e-15 on the largest draw below 1
    nearly_zero = np.array([np.sqrt(1 - 2e-15), np.sqrt(2e-15)])
    for register, theta, first in (
        (nearly_one, np.pi, 0.0),
        (nearly_zero, np.pi / 2, np.nextafter(1.0, 0.0)),
    ):
        cfg = MeasureConfig(theta=theta, epsilon=0.05)
        draws = [first] + [0.5] * (cfg.n_steps - 1)
        with pytest.raises(ImpossibleBranchError):
            run_measurement(register, cfg, _Draws(draws))
        with pytest.raises(ImpossibleBranchError):
            _reference_chain(register, cfg, _Draws(draws))
        # the same register survives an ordinary first draw
        draws[0] = 0.5
        _assert_same_chain(register, cfg, _Draws(draws), _Draws(draws))


def test_chain_takes_n_draws_from_the_callers_generator():
    cfg = MeasureConfig(theta=THETA, epsilon=0.05)
    steps = []
    for register in (basis_state(0), basis_state(1), plus_state()):
        rng, twin = derive_rng(64, 0), derive_rng(64, 0)
        steps.append(run_measurement(register, cfg, rng).steps_used)
        twin.random(cfg.n_steps)
        assert rng.random() == twin.random()
    assert min(steps) < cfg.n_steps  # one chain stopped early


def test_measure_config_steps():
    assert MeasureConfig(theta=THETA, epsilon=0.05).n_steps == 38
    assert interaction_cost(38) == 76
    assert interaction_cost(MeasureConfig(theta=THETA).n_steps) == 76
    # checked when built, replace included, before any chain runs
    for bad in ({"theta": 0.0}, {"theta": float("nan")}, {"epsilon": 1.0}):
        with pytest.raises(ValueError):
            replace(MeasureConfig(theta=THETA), **bad)
    assert replace(MeasureConfig(theta=THETA), epsilon=0.1).n_steps == 30


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
