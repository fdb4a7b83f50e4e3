from __future__ import annotations

import itertools

import numpy as np
import pytest

from adqcsim.egg import (
    AncillaTrajectory,
    CollinearPoints,
    ConstraintViolated,
    DegenerateRing,
    EggConfig,
    NoRoot,
    NotCoplanar,
    UnequalMagnitudes,
    analytic_overlaps,
    constrained_distance,
    coplanarity_distance,
    delta_phi_raw,
    effective_beta,
    entangling_phase,
    final_ancilla_states,
    find_balanced_beta,
    local_reduction,
    midpoint_measurement,
    outcome_probabilities,
    phi_scan,
    plane_coefficients,
    register_unitary,
    run_rus,
    spherical_point,
    success_probability,
    symmetric_config,
    theta_prep_for_beta,
    vertical_plane_check,
)
from adqcsim.qmath import (
    apply,
    basis_state,
    bloch_to_state,
    computational_basis,
    plus_state,
    rx,
    rz,
    state_to_bloch,
    tensor,
    wrap_angle,
)
from adqcsim.interaction import delta_gate
from adqcsim.seeding import derive_rng

ALPHA = np.pi / 16


# ---------------------------------------------------------------------------
# configuration and effective split


def test_effective_beta():
    assert abs(effective_beta(np.pi / 2, ALPHA) - ALPHA) < 1e-12
    assert effective_beta(0.0, ALPHA) == 0.0
    assert abs(effective_beta(np.pi / 6, ALPHA) - 0.09626446897586942) < 1e-12


def test_theta_prep_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(100):
        alpha = rng.uniform(0.01, np.pi / 4)
        beta = rng.uniform(0.0, alpha)
        theta = theta_prep_for_beta(beta, alpha)
        assert abs(effective_beta(theta, alpha) - beta) < 1e-10
    with pytest.raises(ValueError):
        theta_prep_for_beta(0.2, 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        EggConfig(alpha=0.0)
    with pytest.raises(ValueError):
        EggConfig(alpha=np.pi / 4 + 0.01)
    cfg = symmetric_config(ALPHA)
    assert abs(cfg.beta - ALPHA) < 1e-12
    cfg = symmetric_config(ALPHA, beta=0.1)
    assert abs(cfg.beta - 0.1) < 1e-10


# ---------------------------------------------------------------------------
# trajectory


def test_trajectory_matches_analytic_overlaps():
    rng = np.random.default_rng(42)
    plus = plus_state()
    minus = np.array([1, -1]) / np.sqrt(2)
    for _ in range(50):
        alpha = rng.uniform(0.01, np.pi / 4)
        beta = rng.uniform(0.0, alpha)
        t = final_ancilla_states(symmetric_config(alpha, beta))
        c_plus, c_minus = analytic_overlaps(alpha, beta)
        got_plus = np.array([np.vdot(plus, s) for s in t.final_states]).reshape(2, 2)
        got_minus = np.array([np.vdot(minus, s) for s in t.final_states]).reshape(2, 2)
        np.testing.assert_allclose(got_plus, c_plus, atol=1e-12)
        np.testing.assert_allclose(got_minus, c_minus, atol=1e-12)


def test_trajectory_matches_three_qubit_circuit():
    # the ancilla (qubit 0) couples diagonally to register qubit 1 with
    # angle beta, is rotated by rx(pi/2), then couples to qubit 2 with
    # angle alpha; per register basis pair (i, j) this must reproduce the
    # constructed final states exactly, including global phase
    rng = np.random.default_rng(43)
    for _ in range(50):
        alpha = rng.uniform(0.01, np.pi / 4)
        beta = rng.uniform(0.0, alpha)
        finals = final_ancilla_states(symmetric_config(alpha, beta)).final_states
        for i in (0, 1):
            for j in (0, 1):
                psi = tensor(plus_state(), basis_state(i), basis_state(j))
                psi = apply(delta_gate(0, 0, beta), psi, (0, 1))
                psi = apply(rx(np.pi / 2), psi, 0)
                psi = apply(delta_gate(0, 0, alpha), psi, (0, 2))
                ancilla = psi.reshape(2, 2, 2)[:, i, j]
                np.testing.assert_allclose(ancilla, finals[2 * i + j], atol=1e-12)


def _circuit_trajectory(alpha: float, theta_prep: float) -> AncillaTrajectory:
    # the ancilla, prepared at theta_prep, couples to register qubit 1, is
    # rotated by rx(pi/2), then couples to qubit 2, both with angle alpha
    finals = []
    for i, j in itertools.product((0, 1), repeat=2):
        psi = tensor(bloch_to_state(theta_prep, 0), basis_state(i), basis_state(j))
        psi = apply(delta_gate(0, 0, alpha), psi, (0, 1))
        psi = apply(rx(np.pi / 2), psi, 0)
        psi = apply(delta_gate(0, 0, alpha), psi, (0, 2))
        finals.append(psi.reshape(2, 2, 2)[:, i, j])
    return _manual_trajectory(finals)


def test_trajectory_matches_circuit_at_any_preparation():
    # the effective-split family has the circuit's ring, outcome
    # probabilities and Phi, though not its per-branch states
    rng = np.random.default_rng(50)
    for _ in range(30):
        alpha = rng.uniform(0.01, np.pi / 4)
        # away from the poles, where the ring shrinks to two points
        theta_prep = rng.uniform(0.05, np.pi - 0.05)
        model = final_ancilla_states(EggConfig(alpha, theta_prep))
        circuit = _circuit_trajectory(alpha, theta_prep)
        grams, outcomes = [], []
        for t in (model, circuit):
            states = np.array(t.final_states)
            grams.append(np.abs(states.conj() @ states.T))
            mb = midpoint_measurement(t)
            outcomes.append(register_unitary(t, (mb.m, mb.m_perp)))
        np.testing.assert_allclose(grams[0], grams[1], atol=1e-12)
        for got, want in zip(*outcomes):
            assert abs(got.probability - want.probability) < 1e-12
            assert abs(wrap_angle(got.Phi - want.Phi)) < 1e-12


def test_zero_beta_collapses_first_index():
    t = final_ancilla_states(symmetric_config(ALPHA, beta=0.0))
    np.testing.assert_allclose(t.final_states[0], t.final_states[2], atol=1e-12)
    np.testing.assert_allclose(t.final_states[1], t.final_states[3], atol=1e-12)


def test_cap_half_angle_consistency():
    t = final_ancilla_states(symmetric_config(ALPHA))
    mb = midpoint_measurement(t)
    # uniform overlap (1 + height)/2 = cos^2 of the cap half-angle equals
    # the analytic outcome probability
    p_plus, _ = outcome_probabilities(ALPHA, ALPHA)
    assert abs((1 + mb.height) / 2 - p_plus) < 1e-10
    assert abs(np.cos(mb.cap_half_angle) ** 2 - p_plus) < 1e-10


# ---------------------------------------------------------------------------
# midpoint measurement


def test_symmetric_midpoint_is_plus():
    t = final_ancilla_states(symmetric_config(ALPHA))
    mb = midpoint_measurement(t)
    np.testing.assert_allclose(mb.m, plus_state(), atol=1e-8)
    np.testing.assert_allclose(mb.axis, [1.0, 0.0, 0.0], atol=1e-8)
    overlaps = [abs(np.vdot(mb.m, s)) ** 2 for s in t.final_states]
    np.testing.assert_allclose(overlaps, overlaps[0], atol=1e-10)


def _manual_trajectory(states) -> AncillaTrajectory:
    return AncillaTrajectory(tuple(states), tuple(state_to_bloch(s) for s in states))


def test_horizontal_ring_midpoint_is_pole():
    theta = 0.8
    states = [bloch_to_state(theta, phi) for phi in (0, np.pi / 2, np.pi, 3 * np.pi / 2)]
    mb = midpoint_measurement(_manual_trajectory(states))
    np.testing.assert_allclose(mb.m, basis_state(0), atol=1e-8)
    assert abs(mb.height - np.cos(theta)) < 1e-10
    assert abs(mb.cap_half_angle - theta / 2) < 1e-10


def test_degenerate_ring_raises():
    states = [plus_state()] * 4
    with pytest.raises(DegenerateRing):
        midpoint_measurement(_manual_trajectory(states))


def test_off_plane_point_raises():
    states = [bloch_to_state(0.8, phi) for phi in (0, np.pi / 2, np.pi)]
    states.append(bloch_to_state(0.8 + 1e-4, 3 * np.pi / 2))
    with pytest.raises(NotCoplanar):
        midpoint_measurement(_manual_trajectory(states))


def test_register_unitary_wrong_basis_leaks():
    t = final_ancilla_states(symmetric_config(ALPHA))
    with pytest.raises(UnequalMagnitudes):
        register_unitary(t, computational_basis())


def test_register_unitary_probabilities_and_completeness():
    t = final_ancilla_states(symmetric_config(ALPHA))
    mb = midpoint_measurement(t)
    o_plus, o_minus = register_unitary(t, (mb.m, mb.m_perp))
    assert abs(o_plus.probability + o_minus.probability - 1.0) < 1e-10
    p_plus, p_minus = outcome_probabilities(ALPHA, ALPHA)
    assert abs(o_plus.probability - p_plus) < 1e-10
    assert abs(o_minus.probability - p_minus) < 1e-10
    assert o_plus.measurement_outcome == 0 and o_minus.measurement_outcome == 1
    # the two diagonal Kraus branches resolve the identity entrywise
    total = np.abs(o_plus.kraus_diagonal) ** 2 + np.abs(o_minus.kraus_diagonal) ** 2
    np.testing.assert_allclose(total, np.ones(4), atol=1e-10)


def test_outcome_phases_match_analytic():
    rng = np.random.default_rng(44)
    for _ in range(25):
        alpha = rng.uniform(0.02, np.pi / 4)
        beta = rng.uniform(0.001, alpha)
        t = final_ancilla_states(symmetric_config(alpha, beta))
        mb = midpoint_measurement(t)
        o_plus, o_minus = register_unitary(t, (mb.m, mb.m_perp))
        c_plus, c_minus = analytic_overlaps(alpha, beta)
        np.testing.assert_allclose(
            np.exp(1j * o_plus.phi), np.exp(1j * np.angle(c_plus)), atol=1e-8
        )
        np.testing.assert_allclose(
            np.exp(1j * o_minus.phi), np.exp(1j * np.angle(c_minus)), atol=1e-8
        )


def test_theta_prep_zero_gives_local_back_action():
    # with no preparation split the first register qubit never talks to the
    # ancilla: the ring collapses to two points and the computational
    # readout applies a purely local phase (Phi = 0) for both outcomes
    cfg = EggConfig(alpha=ALPHA, theta_prep=0.0)
    t = final_ancilla_states(cfg)
    np.testing.assert_allclose(t.final_states[0], t.final_states[2], atol=1e-12)
    with pytest.raises(DegenerateRing):
        midpoint_measurement(t)
    o0, o1 = register_unitary(t, computational_basis())
    assert abs(o0.Phi) < 1e-10
    assert abs(o1.Phi) < 1e-10
    assert abs(o0.probability - 0.5) < 1e-10


def test_phase_invariance_under_alpha_shifts():
    # shifting the second coupling by pi/2 relocates the ring (midpoint
    # moves to |->) but leaves both outcome phases unchanged; negating it
    # flips their signs
    alpha, beta = ALPHA, 0.12

    def manual(alpha_mod):
        inter = tuple(rx(np.pi / 2) @ rz(s * 2 * beta) @ plus_state() for s in (+1, -1))
        finals = tuple(
            rz(sj * 2 * alpha_mod) @ inter[i] for i in (0, 1) for sj in (+1, -1)
        )
        return _manual_trajectory(list(finals))

    base = final_ancilla_states(symmetric_config(alpha, beta))
    mb = midpoint_measurement(base)
    b_plus, b_minus = register_unitary(base, (mb.m, mb.m_perp))

    shifted = manual(np.pi / 2 + alpha)
    mbs = midpoint_measurement(shifted)
    assert abs(state_to_bloch(mbs.m).phi - np.pi) < 1e-8
    s0, s1 = register_unitary(shifted, (mbs.m, mbs.m_perp))
    assert abs(wrap_angle(s0.Phi - b_plus.Phi)) < 1e-8
    assert abs(wrap_angle(s1.Phi - b_minus.Phi)) < 1e-8
    assert abs(s0.probability - b_plus.probability) < 1e-10

    negated = manual(-alpha)
    mbn = midpoint_measurement(negated)
    n0, n1 = register_unitary(negated, (mbn.m, mbn.m_perp))
    assert abs(wrap_angle(n0.Phi + b_plus.Phi)) < 1e-8
    assert abs(wrap_angle(n1.Phi + b_minus.Phi)) < 1e-8


# ---------------------------------------------------------------------------
# analytic overlap table


def test_overlap_values_at_equal_angles():
    c_plus, c_minus = analytic_overlaps(ALPHA, ALPHA)
    a = 2 * ALPHA  # A = 2 alpha, B = 0
    assert abs(c_plus[0, 0] - (np.cos(a) - 1j) / np.sqrt(2)) < 1e-12
    assert abs(c_minus[0, 0] - (-1j * np.sin(a)) / np.sqrt(2)) < 1e-12
    p_plus, p_minus = outcome_probabilities(ALPHA, ALPHA)
    assert abs(p_plus - 0.9267766952966369) < 1e-12
    assert abs(p_plus + p_minus - 1.0) < 1e-14
    np.testing.assert_allclose(np.abs(c_plus) ** 2, p_plus, atol=1e-12)
    np.testing.assert_allclose(np.abs(c_minus) ** 2, p_minus, atol=1e-12)


def test_phase_table_relations():
    rng = np.random.default_rng(46)
    for _ in range(50):
        alpha = rng.uniform(0.02, np.pi / 4)
        beta = rng.uniform(0.001, alpha - 1e-3) if alpha > 2e-3 else alpha / 2
        c_plus, c_minus = analytic_overlaps(alpha, beta)
        fp = np.angle(c_plus)
        fm = np.angle(c_minus)
        # outcome +: the cross branches share one phase, the diagonal repeats
        assert abs(wrap_angle(fp[0, 1] + fp[0, 0] + np.pi / 2)) < 1e-10
        assert abs(wrap_angle(fp[1, 0] - fp[0, 1])) < 1e-10
        assert abs(wrap_angle(fp[1, 1] - fp[0, 0])) < 1e-10
        # outcome -: mirrored relations; swapping either index negates the
        # amplitude, so the cross and diagonal branches pick up pi offsets
        assert abs(wrap_angle(fm[1, 0] + fm[0, 0] - np.pi / 2)) < 1e-10
        assert abs(wrap_angle(fm[0, 1] - fm[1, 0] - np.pi)) < 1e-10
        assert abs(wrap_angle(fm[1, 1] - fm[0, 0] - np.pi)) < 1e-10
        # both entangling phases reduce to 4 phi00 + pi modulo 2 pi
        assert abs(wrap_angle(entangling_phase(fp) - (4 * fp[0, 0] + np.pi))) < 1e-10
        assert abs(wrap_angle(entangling_phase(fm) - (4 * fm[0, 0] + np.pi))) < 1e-10


# ---------------------------------------------------------------------------
# local reduction


def test_local_reduction_example():
    phi = np.array([[0.1, 0.2], [0.3, 0.7]])
    lr = local_reduction(phi)
    assert lr.a1 == 0.0
    assert abs(lr.b1 - 0.1) < 1e-15
    assert abs(lr.b2 - 0.2) < 1e-15
    assert abs(lr.a2 - 0.2) < 1e-15
    assert abs(lr.Phi - 0.3) < 1e-12
    np.testing.assert_allclose(
        np.diag(lr.reconstruct()), np.exp(1j * phi.reshape(-1)), atol=1e-12
    )
    np.testing.assert_allclose(
        lr.residual, np.diag([1, 1, 1, np.exp(0.3j)]), atol=1e-12
    )


def test_local_reduction_random_round_trip():
    rng = np.random.default_rng(47)
    for _ in range(10_000):
        phi = rng.uniform(-np.pi, np.pi, (2, 2))
        lr = local_reduction(phi)
        np.testing.assert_allclose(
            np.diag(lr.reconstruct()), np.exp(1j * phi.reshape(-1)), atol=1e-10
        )
        assert abs(wrap_angle(lr.Phi) - entangling_phase(phi)) < 1e-10


# ---------------------------------------------------------------------------
# scan and balanced point


def test_phi_scan_endpoints():
    rows = phi_scan(ALPHA)
    assert len(rows) == 101
    first, last = rows[0], rows[-1]
    assert first.beta == 0.0
    assert abs(first.delta_phi - 2 * np.pi) < 1e-12
    assert abs(first.phi_plus) < 1e-12 and abs(first.phi_minus) < 1e-12
    assert abs(first.p_plus - np.cos(ALPHA) ** 2) < 1e-12
    assert abs(last.beta - ALPHA) < 1e-12
    assert abs(last.p_plus - 0.9267766952966369) < 1e-12
    assert abs(last.success_prob - 0.13572330470336313) < 1e-12
    # the continuous difference decreases monotonically from 2 pi
    deltas = [r.delta_phi for r in rows]
    assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(deltas, deltas[1:]))
    with pytest.raises(ValueError):
        phi_scan(ALPHA, (0.1, 0.05))
    with pytest.raises(ValueError):
        phi_scan(ALPHA, (0.0, 2 * ALPHA))
    for alpha in (float("nan"), 1.0):
        with pytest.raises(ValueError, match="alpha must lie"):
            phi_scan(alpha)


def test_find_balanced_beta_reference_point():
    beta_star = find_balanced_beta(ALPHA)
    assert abs(beta_star - 0.18274487798409644) < 1e-8
    assert abs(delta_phi_raw(ALPHA, beta_star) - np.pi) < 1e-8
    assert abs(success_probability(ALPHA, beta_star) - 0.12773958089728293) < 1e-8
    assert abs(success_probability(ALPHA, 0.18274487798409644) - 0.12773958089728293) < 1e-12


def test_find_balanced_beta_other_alphas():
    # the pi crossing exists across the whole coupling range, including
    # couplings far below the maximally entangling point
    for alpha in (np.pi / 4, 0.3, 0.05, 0.01):
        beta_star = find_balanced_beta(alpha)
        assert 0.0 < beta_star <= alpha
        assert abs(delta_phi_raw(alpha, beta_star) - np.pi) < 1e-6
    assert abs(find_balanced_beta(0.01) - 0.009998) < 1e-4


def test_find_balanced_beta_no_root_on_truncated_interval():
    with pytest.raises(NoRoot):
        find_balanced_beta(ALPHA, beta_max=0.05)
    with pytest.raises(ValueError):
        find_balanced_beta(0.0)
    with pytest.raises(ValueError):
        find_balanced_beta(ALPHA, beta_max=2 * ALPHA)


# ---------------------------------------------------------------------------
# repeat-until-success


def test_run_rus_log_structure():
    beta_star = find_balanced_beta(ALPHA)
    rng = derive_rng(101, 0)
    for _ in range(200):
        res = run_rus(ALPHA, beta_star, rng)
        assert res.success
        assert res.attempts == len(res.log)
        for rec in res.log[:-1]:
            assert not rec.success
            assert rec.outcome_first == rec.outcome_second
            assert abs(rec.combined_phase) < 1e-9
        last = res.log[-1]
        assert last.success
        assert last.outcome_first != last.outcome_second
        assert abs(abs(last.combined_phase) - np.pi) < 1e-6
    # the same stream gives the same result
    assert run_rus(ALPHA, beta_star, derive_rng(101, 1)) == run_rus(
        ALPHA, beta_star, derive_rng(101, 1)
    )


def test_run_rus_rejects_unbalanced_beta():
    rng = derive_rng(0, 0)
    for beta in (0.1, float("nan")):
        with pytest.raises(ValueError, match="balanced condition"):
            run_rus(ALPHA, beta, rng)


def test_run_rus_mean_attempts():
    beta_star = find_balanced_beta(ALPHA)
    rng = derive_rng(102, 0)
    n = 2000
    attempts = [run_rus(ALPHA, beta_star, rng).attempts for _ in range(n)]
    mean = np.mean(attempts)
    p = success_probability(ALPHA, beta_star)
    sigma = np.sqrt(1 - p) / p / np.sqrt(n)
    assert abs(mean - 1.0 / p) < 4 * sigma


def test_run_rus_success_rate():
    # the first n attempts of run_rus over per-trial streams, as egg-rus runs it
    beta_star = find_balanced_beta(ALPHA)
    n = 5000
    logs = (run_rus(ALPHA, beta_star, derive_rng(7, t)).log for t in itertools.count())
    attempts = list(itertools.islice(itertools.chain.from_iterable(logs), n))
    p = success_probability(ALPHA, beta_star)
    freq = np.mean([rec.success for rec in attempts])
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(freq - p) < 4 * sigma


# ---------------------------------------------------------------------------
# plane geometry


def test_plane_coefficients_reference():
    c = plane_coefficients(
        np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])
    )
    assert not c.used_fallback
    np.testing.assert_allclose([c.a, c.b, c.c, c.d], [-1, -1, -1, 1], atol=1e-12)


def test_plane_through_origin_uses_fallback():
    c = plane_coefficients(
        np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([-1.0, 0, 0])
    )
    assert c.used_fallback
    n = np.array([c.a, c.b, c.c])
    np.testing.assert_allclose(np.abs(n / np.linalg.norm(n)), [0, 0, 1], atol=1e-12)
    assert abs(c.d) < 1e-12


def test_collinear_points_raise():
    with pytest.raises(CollinearPoints):
        plane_coefficients(
            np.array([0.0, 0, 0]), np.array([1.0, 1, 1]), np.array([2.0, 2, 2])
        )


def test_coplanarity_distance_cases():
    ring = [spherical_point(0.8, phi) for phi in (0, np.pi / 2, np.pi, 3 * np.pi / 2)]
    assert coplanarity_distance(*ring) < 1e-12
    lifted = ring[:3] + [spherical_point(0.8 + 1e-3, 3 * np.pi / 2)]
    assert coplanarity_distance(*lifted) > 1e-5
    t = final_ancilla_states(symmetric_config(ALPHA))
    assert coplanarity_distance(*[b.cartesian for b in t.bloch]) < 1e-10


def test_constrained_distance_matches_determinant():
    rng = np.random.default_rng(48)
    for _ in range(500):
        t2, t4 = rng.uniform(0.1, np.pi - 0.1, 2)
        p1, p3 = rng.uniform(0, 2 * np.pi, 2)
        gap = rng.uniform(0.05, np.pi - 0.05)
        closed = constrained_distance(t2, t4, p1, p1 + gap, p3, p3 + gap)
        det = coplanarity_distance(
            spherical_point(t2, p1),
            spherical_point(t2, p1 + gap),
            spherical_point(t4, p3),
            spherical_point(t4, p3 + gap),
        )
        assert abs(abs(closed) - det) < 1e-9


def test_constrained_distance_zero_cases():
    # equal latitudes, matching azimuth midlines (mod pi) and vanishing gap
    # all collapse the defect
    assert abs(constrained_distance(0.7, 0.7, 0.1, 0.4, 1.3, 1.6)) < 1e-12
    assert abs(constrained_distance(0.7, 1.1, 0.1, 0.4, 0.1, 0.4)) < 1e-12
    assert (
        abs(constrained_distance(0.7, 1.1, 0.1, 0.4, 0.1 + np.pi, 0.4 + np.pi)) < 1e-12
    )
    assert abs(constrained_distance(0.7, 1.1, 0.1, 0.1, 1.3, 1.3)) < 1e-12
    assert abs(constrained_distance(0.7, 1.1, 0.1, 0.4, 1.3, 1.6)) > 1e-3


def test_constrained_distance_guard():
    with pytest.raises(ConstraintViolated):
        constrained_distance(0.7, 1.1, 0.1, 0.4, 1.3, 1.7)


def test_vertical_plane_check():
    assert vertical_plane_check(0.3, 0.3)
    assert vertical_plane_check(0.3, 0.3 + np.pi)
    assert vertical_plane_check(0.3, 0.3 - 3 * np.pi)
    assert not vertical_plane_check(0.3, 0.5)
    assert vertical_plane_check(0.3, 0.5, tol=0.5)


def test_vertical_plane_characterizes_zero_set_at_distinct_latitudes():
    rng = np.random.default_rng(49)
    checked = 0
    for _ in range(500):
        t2, t4 = rng.uniform(0.1, np.pi - 0.1, 2)
        if abs(np.cos(t2) - np.cos(t4)) < 1e-3:
            continue
        p1, p3 = rng.uniform(0, 2 * np.pi, 2)
        gap = rng.uniform(0.05, np.pi - 0.05)
        closed = abs(constrained_distance(t2, t4, p1, p1 + gap, p3, p3 + gap))
        # the pair midlines sit at p1 + gap/2 and p3 + gap/2
        vertical = vertical_plane_check(p1, p3, tol=1e-7)
        if vertical:
            assert closed < 1e-6
        else:
            assert closed > 1e-8 or vertical_plane_check(p1, p3, tol=1e-4)
        checked += 1
    assert checked > 300
