from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from adqcsim import measure
from adqcsim.kraus import kraus_for
from adqcsim.measure import (
    MeasureConfig,
    MeasureResult,
    interaction_cost,
    measurement_ensemble,
    required_steps,
    run_measurement,
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
    sample_outcome,
)
from adqcsim.seeding import derive_rng

from oracle import (
    chain_round_law,
    chi_square_power,
    fold_tail,
    seed_sequence_rng,
    step_operators,
)

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


def test_long_chain_matches_stepwise_reference_and_draws_in_blocks():
    # n = 9586 rounds take three blocks of at most 4096 draws; a chain draws
    # every block up to the one that holds its click, and no further
    cfg = MeasureConfig(theta=0.05, epsilon=0.05)
    assert cfg.n_steps == 9586
    for register, seed, steps in (
        (basis_state(1), 1, 39),
        (basis_state(1), 22, 4918),
        (basis_state(1), 4, 9586),
        (plus_state(), 0, 9586),
    ):
        _assert_same_chain(register, cfg, derive_rng(seed, 0), derive_rng(seed, 0))
        rng, twin = derive_rng(seed, 0), derive_rng(seed, 0)
        assert run_measurement(register, cfg, rng).steps_used == steps
        twin.random(min(cfg.n_steps, -(-steps // 4096) * 4096))
        assert rng.random() == twin.random()


def test_chain_memory_is_bounded_by_the_block():
    # n-long arrays would take about 33 bytes a round, 88 MB here
    cfg = MeasureConfig(theta=3e-3, epsilon=0.05)
    assert cfg.n_steps == 2662873
    rng = derive_rng(65, 0)
    tracemalloc.start()
    try:
        res = run_measurement(basis_state(0), cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.label, res.steps_used) == (0, cfg.n_steps)
    assert peak < 1_000_000


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
    results = measurement_ensemble(basis_state(1), cfg, 0, trials)
    wrong = sum(1 for r in results if r.label == 0)
    sigma = np.sqrt(bound * (1 - bound) / trials)
    assert wrong / trials <= bound + 3 * sigma
    assert abs(wrong / trials - bound) < 4 * sigma


def test_ensemble_determinism_and_frequency():
    state = bloch_to_state(2 * np.arcsin(np.sqrt(0.3)), 0.0)
    assert abs(abs(state[1]) ** 2 - 0.3) < 1e-12
    cfg = MeasureConfig(theta=THETA, epsilon=0.05)
    a = measurement_ensemble(state, cfg, 61, 400)
    b = measurement_ensemble(state, cfg, 61, 400)
    assert [(r.label, r.steps_used) for r in a] == [(r.label, r.steps_used) for r in b]
    direct = run_measurement(state, cfg, derive_rng(61, 13))
    assert (a[13].label, a[13].steps_used) == (direct.label, direct.steps_used)
    p_one = 0.3 * (1 - np.cos(np.pi / 8) ** 76)
    freq = np.mean([r.label for r in a])
    sigma = np.sqrt(p_one * (1 - p_one) / 400)
    assert abs(freq - p_one) < 4 * sigma
    with pytest.raises(ValueError):
        measurement_ensemble(state, cfg, 61, 0)


def test_chain_round_counts_follow_their_law():
    """Round counts of 20000 chains at theta = pi/4, eps = 0.05 (n = 38) on |+>.

    ``oracle.chain_round_law`` gives the first click's round 1..n and label 0
    from the ``measure`` docstring's p1_k.  The late rounds are folded until
    every bin expects 5 counts (37 round bins) and label 0 is a bin of its
    own.  The chi-square test rejects a correct chain with probability 1e-3;
    with 90 % power it detects theta moved by +3.9 % or -3.6 % (relative),
    which the test recomputes.
    """
    trials, level = 20000, 1e-3
    cfg = MeasureConfig(theta=THETA, epsilon=0.05)
    n = cfg.n_steps
    assert n == 38
    a2, b2 = abs(plus_state()) ** 2
    full = chain_round_law(a2, b2, THETA, n)
    starts = np.append(fold_tail(full[:n], trials), n)
    law = np.add.reduceat(full, starts)
    results = measurement_ensemble(plus_state(), cfg, 62, trials)
    # label 1 at round k is entry k - 1, label 0 (n rounds) entry n
    counts = np.bincount([r.steps_used - r.label for r in results], minlength=n + 1)
    assert stats.chisquare(np.add.reduceat(counts, starts), trials * law).pvalue > level
    for shift in (0.039, -0.036):
        alt = np.add.reduceat(chain_round_law(a2, b2, THETA * (1 + shift), n), starts)
        assert chi_square_power(law, alt, trials, level) >= 0.9


def test_initialize_register_projective():
    cfg = MeasureConfig(theta=np.pi, epsilon=0.05)
    labels = []
    for t in range(200):
        result = run_measurement(plus_state(), cfg, derive_rng(62, t))
        state, label = result.post_state, result.label
        labels.append(label)
        np.testing.assert_allclose(state, basis_state(label), atol=1e-12)
    assert 60 < sum(labels) < 140  # fair coin from |+>


def test_initialize_register_weak():
    cfg = MeasureConfig(theta=THETA, epsilon=0.05)
    for t in range(50):
        result = run_measurement(plus_state(), cfg, derive_rng(63, t))
        state, label = result.post_state, result.label
        if label == 1:
            np.testing.assert_array_equal(state, basis_state(1))
        else:
            assert abs(state[1]) <= 0.05


def _per_trial_ensemble(register, cfg, seed, trials):
    return [run_measurement(register, cfg, seed_sequence_rng(seed, t)) for t in range(trials)]


@pytest.mark.parametrize(
    "theta, epsilon, trials",
    [
        (np.pi, 0.05, 300),  # n = 1
        (THETA, 0.05, 1000),  # n = 38, streams from four derived blocks
        (0.05, 0.05, 150),  # n = 9586: chains draw more than one round block
    ],
)
@pytest.mark.parametrize("seed", [0, 2**40, 2**64 + 1])
def test_ensemble_is_the_per_trial_loop(theta, epsilon, trials, seed):
    cfg = MeasureConfig(theta=theta, epsilon=epsilon)
    registers = (plus_state(), basis_state(0), basis_state(1),
                 haar_state(np.random.default_rng(seed % 97), 1))
    for register in registers:
        got = measurement_ensemble(register, cfg, seed, trials)
        want = _per_trial_ensemble(register, cfg, seed, trials)
        assert len(got) == trials
        for a, b in zip(got, want):
            assert (a.label, a.steps_used, a.residual_bound) == (b.label, b.steps_used, b.residual_bound)
            assert np.array_equal(a.post_state, b.post_state)
    if cfg.n_steps > 4096:  # some chain read past its first round block
        assert max(r.steps_used for r in got) > 4096


def test_ensemble_derives_one_stream_per_trial_in_order(monkeypatch):
    calls = []

    def counted(seed, index=0):
        calls.append((seed, index))
        return derive_rng(seed, index)

    monkeypatch.setattr(measure, "derive_rng", counted)
    measurement_ensemble(plus_state(), MeasureConfig(theta=THETA), 3, 500)
    assert calls == [(3, t) for t in range(500)]


def test_plan_is_built_once_per_register_and_shared_read_only():
    measure._Plan.cache_clear()
    results = measurement_ensemble(plus_state(), MeasureConfig(theta=THETA), 0, 100)
    info = measure._Plan.cache_info()
    assert (info.misses, info.hits) == (1, 99)
    plan = measure._Plan(plus_state().tobytes(), THETA, 38)
    zeros = [r for r in results if r.label == 0]
    ones = [r for r in results if r.label == 1]
    assert zeros and ones
    # one label-0 result and one |1> for every chain
    assert all(r is plan.zero for r in zeros)
    assert all(r.post_state is ones[0].post_state for r in ones)
    for array in (*plan.first, plan.zero.post_state, ones[0].post_state):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_label_one_chains_share_one_result_per_click_round():
    measure._Plan.cache_clear()
    results = measurement_ensemble(plus_state(), MeasureConfig(theta=THETA), 0, 500)
    plan = measure._Plan(plus_state().tobytes(), THETA, 38)
    ones = [r for r in results if r.label == 1]
    assert len({r.steps_used for r in ones}) > 5
    for r in ones:
        assert r is plan.ones[r.steps_used - 1]
        assert r.residual_bound == 0.0 and not r.post_state.flags.writeable
        np.testing.assert_array_equal(r.post_state, basis_state(1))
    with pytest.raises(ValueError):
        ones[0].post_state[1] = 0.0


def _click_draws(n: int, k: int) -> _Draws:
    """Draws that read 0 at every round but round k + 1, which reads 1."""
    return _Draws([0.0] * k + [np.nextafter(1.0, 0.0)] + [0.0] * (n - k - 1))


def test_branch_checks_run_once_per_plan_and_click_round(monkeypatch):
    checks = []

    def counted(p0, p1, rng=None, forced=None):
        checks.append((forced, p1 if forced else p0))
        return sample_outcome(p0, p1, rng, forced)

    monkeypatch.setattr(measure, "sample_outcome", counted)
    cfg = MeasureConfig(theta=THETA)
    measure._Plan.cache_clear()
    for register in (plus_state(), np.array([0.6, 0.8j]), plus_state()):
        results = measurement_ensemble(register, cfg, 0, 300)
        measurement_ensemble(register, cfg, 1, 300)
        assert {r.label for r in results} == {0, 1}
    # per plan, one zero check and one check per click round seen, and no more
    want = []
    for register in (plus_state(), np.array([0.6, 0.8j])):
        plan = measure._Plan(register.tobytes(), THETA, 38)
        p0, p1 = plan.first
        want += [(0, p0[0])] + [(1, p1[k]) for k in plan.ones]
    assert len(want) > 10 and sorted(checks) == sorted(want)


def test_plan_keeps_at_most_one_block_of_clicks():
    measure._Plan.cache_clear()
    cfg = MeasureConfig(theta=THETA)
    plan = measure._Plan(plus_state().tobytes(), THETA, 38)
    for _ in range(2):
        got = [run_measurement(plus_state(), cfg, _click_draws(38, k)) for k in range(38)]
        assert [r.steps_used for r in got] == list(range(1, 39))
        assert len(plan.ones) == 38 and all(plan.ones[k] is r for k, r in enumerate(got))
    # n = 9586: a click after round 4096 gets a result of its own, not kept
    cfg = MeasureConfig(theta=0.05, epsilon=0.05)
    clicks = (0, 1, 4095, 4096, 4097, 8191, 8192, 9585)
    for _ in range(2):
        got = [run_measurement(basis_state(1), cfg, _click_draws(9586, k)) for k in clicks]
        assert [r.steps_used for r in got] == [k + 1 for k in clicks]
    plan = measure._Plan(basis_state(1).tobytes(), 0.05, 9586)
    assert sorted(plan.ones) == [0, 1, 4095]
    again = run_measurement(basis_state(1), cfg, _click_draws(9586, 4096))
    assert again.steps_used == 4097 and again is not got[3]


def test_impossible_branch_raises_on_every_call():
    # as in test_chain_refuses_impossible_branches_like_the_reference: round 1
    # reads 0, then 1, at weight ~1e-15; a failed check keeps no result
    nearly_one = np.array([np.sqrt(1e-15), np.sqrt(1 - 1e-15)])
    nearly_zero = np.array([np.sqrt(1 - 2e-15), np.sqrt(2e-15)])
    measure._Plan.cache_clear()
    for register, theta, first in (
        (nearly_one, np.pi, 0.0),
        (nearly_zero, np.pi / 2, np.nextafter(1.0, 0.0)),
    ):
        cfg = MeasureConfig(theta=theta, epsilon=0.05)
        for _ in range(2):
            with pytest.raises(ImpossibleBranchError):
                run_measurement(register, cfg, _Draws([first] + [0.5] * (cfg.n_steps - 1)))
        plan = measure._Plan(register.astype(complex).tobytes(), theta, cfg.n_steps)
        assert plan.ones == {} and not plan.zero_checked


def test_long_chains_build_each_block_once(monkeypatch):
    # n = 59914 rounds take 15 blocks; chains on |0> read them all, in order
    cfg = MeasureConfig(theta=0.02, epsilon=0.05)
    assert cfg.n_steps == 59914
    built = {}
    block = measure._Plan.__wrapped__.block

    def kept(self, start):
        p0, p1 = block(self, start)
        built.setdefault(start, []).append(p1)
        return p0, p1

    monkeypatch.setattr(measure._Plan.__wrapped__, "block", kept)
    measure._Plan.cache_clear()
    results = [run_measurement(basis_state(0), cfg, derive_rng(0, t)) for t in range(50)]
    assert {(r.label, r.steps_used) for r in results} == {(0, cfg.n_steps)}
    assert sorted(built) == list(range(0, cfg.n_steps, 4096))
    # block 0 is read from the plan itself; every later read returns the one p1 built
    assert [len(p1s) for p1s in built.values()] == [1] + [50] * 14
    for p1s in built.values():
        assert all(p1 is p1s[0] for p1 in p1s)
        assert not p1s[0].flags.writeable


@pytest.mark.parametrize(
    "register",
    [np.array([np.nan, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 0.0, 0.0])],
    ids=["nan", "unnormalised", "three-element"],
)
def test_bad_register_raises_on_every_call(register):
    cfg = MeasureConfig(theta=THETA)
    measure._Plan.cache_clear()
    for t in range(3):
        with pytest.raises(ValueError):
            run_measurement(register, cfg, derive_rng(0, t))
    with pytest.raises(ValueError):
        measurement_ensemble(register, cfg, 0, 5)
    assert measure._Plan.cache_info().currsize == 0


def test_register_mutated_in_place_is_read_afresh():
    # on seed 1 the chains on |+> and on (0.6, 0.8i) read n zeros, with
    # different post states, and the chain on |1> clicks
    cfg = MeasureConfig(theta=THETA)
    register = plus_state()
    labels = []
    for new in (plus_state(), np.array([0.6, 0.8j]), basis_state(1)):
        register[:] = new
        got = run_measurement(register, cfg, derive_rng(1, 0))
        want = _reference_chain(new, cfg, derive_rng(1, 0))
        assert (got.label, got.steps_used) == (want.label, want.steps_used)
        np.testing.assert_allclose(got.post_state, want.post_state, rtol=0, atol=1e-12)
        labels.append(got.label)
    assert labels == [0, 0, 1]


def test_label_zero_result_is_built_only_when_a_chain_needs_it():
    # cos(1.55) ** 193 underflows to 0, so a label-0 post state for |1> would
    # divide 0 by 0; no chain on |1> reads 193 zeros, so none is built
    cfg = MeasureConfig(theta=3.1, epsilon=5e-324)
    assert cfg.n_steps == 193 and np.cos(1.55) ** 193 == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = measurement_ensemble(basis_state(1), cfg, 0, 20)
    assert {r.label for r in results} == {1}
    assert "zero" not in vars(measure._Plan(basis_state(1).tobytes(), 3.1, 193))
