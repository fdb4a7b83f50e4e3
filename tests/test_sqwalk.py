from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adqcsim.qmath import haar_unitary, hadamard, identity, rx, ry, rz, trace_distance
from adqcsim.seeding import derive_rng
from adqcsim.sqwalk import (
    Histogram,
    WalkConfig,
    WalkResult,
    fit_exponential,
    histogram,
    log_bin_counts,
    log_linear_r2,
    run_ensemble,
    run_walk,
    walk_config,
)


def test_one_parameter_gates():
    cfg = walk_config("one-param")
    np.testing.assert_allclose(cfg.u0, hadamard() @ rz(np.pi / 8), atol=1e-10)
    np.testing.assert_allclose(cfg.u1, hadamard() @ rz(-np.pi / 8), atol=1e-10)
    assert abs(cfg.p0 - 0.5) < 1e-12
    np.testing.assert_allclose(cfg.target, rx(np.pi / 2), atol=1e-15)


def test_two_parameter_gates():
    cfg = walk_config("two-param")
    np.testing.assert_allclose(cfg.u0, rz(np.pi / 8) @ rx(np.pi / 8), atol=1e-10)
    np.testing.assert_allclose(cfg.u1, rz(-np.pi / 8) @ rx(np.pi / 8), atol=1e-10)
    assert abs(cfg.p0 - 0.5) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        walk_config("one-param", epsilon=0.0)
    with pytest.raises(ValueError):
        walk_config("one-param", epsilon=1.5)
    with pytest.raises(ValueError):
        WalkConfig(u0=hadamard(), u1=hadamard(), p0=1.5)
    with pytest.raises(ValueError):
        WalkConfig(u0=np.diag([1.0, 0.5]), u1=hadamard())


def test_replace_checks_and_rebuilds_the_config():
    base = walk_config("one-param", epsilon=0.08)
    with pytest.raises(ValueError):
        replace(base, target=rx(float("nan")))
    run_walk(base, derive_rng(0, 0))  # builds the tables of base
    target = ry(np.pi / 2)
    fresh = WalkConfig(u0=base.u0, u1=base.u1, target=target, p0=base.p0, epsilon=0.08)
    moved = replace(base, target=target)
    for t in range(5):
        assert run_walk(moved, derive_rng(11, t)) == run_walk(fresh, derive_rng(11, t))


def test_identity_target_hits_at_step_zero():
    cfg = WalkConfig(u0=hadamard(), u1=hadamard(), target=identity())
    res = run_walk(cfg, derive_rng(0, 0))
    assert res == WalkResult(0, True, 0.0)


def test_epsilon_one_accepts_everything():
    cfg = walk_config("one-param", epsilon=1.0)
    res = run_walk(cfg, derive_rng(0, 0))
    assert res.steps == 0 and res.hit
    # starting distance to rx(pi/2) from the identity
    assert abs(res.final_distance - np.sqrt(1.0 - np.cos(np.pi / 4))) < 1e-12
    assert abs(res.final_distance - 0.5411961001461969) < 1e-12


def test_miss_reports_max_steps():
    cfg = walk_config("one-param", epsilon=0.001, max_steps=50)
    res = run_walk(cfg, derive_rng(3, 0))
    assert not res.hit and res.steps == 50
    assert res.final_distance > 0.001


def test_hit_distance_within_epsilon():
    cfg = walk_config("one-param", epsilon=0.1, seed=5)
    for t in range(10):
        res = run_walk(cfg, derive_rng(5, t))
        assert res.hit
        assert res.final_distance <= 0.1


def test_looser_epsilon_stops_no_later_on_same_stream():
    for t in range(10):
        tight = run_walk(walk_config("one-param", epsilon=0.05), derive_rng(9, t))
        loose = run_walk(walk_config("one-param", epsilon=0.1), derive_rng(9, t))
        assert loose.steps <= tight.steps


def test_ensemble_determinism():
    cfg = walk_config("one-param", epsilon=0.1, seed=42)
    a = run_ensemble(cfg, 20)
    b = run_ensemble(cfg, 20)
    assert a == b
    # trial t consumes exactly the stream derived for index t
    t7 = run_walk(cfg, derive_rng(42, 7))
    assert a[7] == t7
    with pytest.raises(ValueError):
        run_ensemble(cfg, 0)


def _reference_walk(cfg: WalkConfig, rng: np.random.Generator) -> WalkResult:
    v = np.eye(2, dtype=complex)
    d = trace_distance(v, cfg.target)
    if d <= cfg.epsilon:
        return WalkResult(0, True, d)
    for k in range(1, cfg.max_steps + 1):
        gate = cfg.u0 if rng.random() < cfg.p0 else cfg.u1
        v = gate @ v
        d = trace_distance(v, cfg.target)
        if d <= cfg.epsilon:
            return WalkResult(k, True, d)
    return WalkResult(cfg.max_steps, False, d)


def _assert_same_walk(cfg: WalkConfig, seed: int, trials: int) -> None:
    for t in range(trials):
        fast = run_walk(cfg, derive_rng(seed, t))
        slow = _reference_walk(cfg, derive_rng(seed, t))
        assert fast.steps == slow.steps, (seed, t)
        assert fast.hit == slow.hit, (seed, t)
        assert abs(fast.final_distance - slow.final_distance) < 1e-9, (seed, t)


def test_engine_matches_naive_reference():
    for preset in ("one-param", "two-param"):
        for seed in (13, 21, 1234):
            _assert_same_walk(walk_config(preset, epsilon=0.08), seed, 10)

    base = walk_config("one-param", epsilon=0.08)
    # ry is not symmetric: a distance taken to the transpose would differ
    for target in (rx(np.pi / 3), ry(np.pi / 2)):
        _assert_same_walk(replace(base, target=target), 13, 10)
    # limits inside the first 4096-draw block and around the ends of the first two
    for max_steps in (1, 63, 64, 65, 4096, 4097, 8192, 8193):
        _assert_same_walk(replace(base, epsilon=0.02, max_steps=max_steps), 7, 3)
    # a single gate every step: a fixed rotation that may never come close
    for p0 in (0.0, 1.0):
        _assert_same_walk(replace(base, p0=p0, max_steps=5000), 7, 2)
    # gates and target off SU(2) by a global phase, so det != 1
    phase = np.exp(0.7j)
    _assert_same_walk(
        replace(base, u0=phase * base.u0, u1=phase * base.u1, target=phase * base.target),
        13,
        10,
    )


@settings(max_examples=60)
@given(
    seeds=st.tuples(*[st.integers(0, 2**32 - 1)] * 4),
    p0=st.floats(0.0, 1.0),
    epsilon=st.floats(0.05, 0.6),
    max_steps=st.integers(1, 300),
)
def test_engine_matches_naive_reference_on_haar_gates(seeds, p0, epsilon, max_steps):
    u0, u1, target = (haar_unitary(2, np.random.default_rng(s)) for s in seeds[:3])
    cfg = WalkConfig(u0=u0, u1=u1, target=target, p0=p0, epsilon=epsilon, max_steps=max_steps)
    fast = run_walk(cfg, derive_rng(seeds[3], 0))
    slow = _reference_walk(cfg, derive_rng(seeds[3], 0))
    assert fast.steps == slow.steps
    assert fast.hit == slow.hit
    # d = sqrt(1 - |Tr|/2) turns a rounding error r in the trace into one
    # of sqrt(r) near d = 0 (for example a gate equal to the target), so
    # there the squared distances are compared instead
    assert (
        abs(fast.final_distance - slow.final_distance) < 1e-9
        or abs(fast.final_distance**2 - slow.final_distance**2) < 1e-12
    )
    if fast.hit:
        assert fast.final_distance <= epsilon


def test_shortest_exact_word_is_only_approximate():
    # for the two-parameter gates the best 4-gate product lands near but not
    # on the target: within the default epsilon = 0.05 yet far outside any
    # exact-match tolerance
    cfg = walk_config("two-param")
    best = np.inf
    for length in (1, 2, 3, 4):
        for word in itertools.product((cfg.u0, cfg.u1), repeat=length):
            v = np.eye(2, dtype=complex)
            for g in word:
                v = g @ v
            best = min(best, trace_distance(v, cfg.target))
    assert abs(best - 0.045352018708) < 1e-9
    assert best < 0.05
    assert best > 1e-3


def test_mean_steps_one_parameter():
    cfg = walk_config("one-param", seed=20240901)
    results = run_ensemble(cfg, 100)
    assert all(r.hit for r in results)
    mean = np.mean([r.steps for r in results])
    assert 5000 < mean < 11000


def test_histogram_layout():
    h = histogram([1, 1, 2, 5], bins=4)
    assert h.bin_count == 4 and h.total == 4
    np.testing.assert_allclose(h.bin_edges, np.linspace(1.0, 6.0, 5), atol=1e-12)
    np.testing.assert_array_equal(h.counts, [3, 0, 0, 1])
    # max sample falls inside the last bin, not on its edge
    assert h.bin_edges[-1] == 6.0
    with pytest.raises(ValueError):
        histogram([], bins=4)
    with pytest.raises(ValueError):
        histogram([1, 2], bins=0)


def test_log_bin_counts_skips_empty():
    h = histogram([1, 1, 2, 5], bins=4)
    pts = log_bin_counts(h)
    assert len(pts) == 2
    centers = [p[0] for p in pts]
    assert all(np.isfinite(p[1]) for p in pts)
    np.testing.assert_allclose(centers, [1.625, 5.375], atol=1e-12)
    np.testing.assert_allclose(pts[0][1], np.log(3.0), atol=1e-12)
    np.testing.assert_allclose(pts[1][1], 0.0, atol=1e-12)


def test_fit_exponential():
    assert abs(fit_exponential([2, 2, 2]) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        fit_exponential([])
    with pytest.raises(ValueError):
        fit_exponential([0, 0])


def test_log_linear_r2_on_exponential_samples():
    rng = np.random.default_rng(77)
    samples = rng.exponential(scale=100.0, size=5000)
    h = histogram(samples, bins=20)
    r2 = log_linear_r2(h)
    assert 0.9 < r2 <= 1.0
    tiny = histogram([1, 2, 3], bins=3)
    with pytest.raises(ValueError):
        log_linear_r2(tiny)
