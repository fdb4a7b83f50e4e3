"""End-to-end acceptance checks: operating points, stochastic margins, and
cross-module consistency of the full simulation pipeline.

Each test prints a PASS/FAIL line, and the same result as a one-line JSON
object starting ``{"acceptance"``, so the suite doubles as a report.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
from scipy import stats

from adqcsim.egg import (
    analytic_overlaps,
    delta_phi_raw,
    find_balanced_beta,
    outcome_probabilities,
    run_rus,
    success_probability,
)
from adqcsim.interaction import delta_gate
from adqcsim.kraus import hh_crz_interaction, kraus_for, program_deterministic
from adqcsim.measure import MeasureConfig, measurement_ensemble, required_steps
from adqcsim.qmath import (
    basis_state,
    hadamard,
    haar_state,
    haar_unitary,
    phase_aligned_max_diff,
    plus_state,
    rx,
    rz,
    tensor,
    trace_distance,
    wrap_angle,
    x_basis,
)
from adqcsim.seeding import derive_rng
from adqcsim.sqwalk import (
    WalkConfig,
    fit_exponential,
    histogram,
    log_linear_r2,
    run_ensemble,
    walk_config,
)

from oracle import (
    apply,
    ball_measure,
    chain_round_law,
    constrained_distance,
    coplanarity_distance,
    fold_tail,
    measure_qubit,
    rus_attempts_law,
    spherical_point,
    vertical_plane_check,
)

ALPHA = np.pi / 16
SEED = 20240901


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number}/10 ({name}): {status} - {detail}")
    # the same line as one JSON object, for tools that collect the report
    record = {"acceptance": number, "name": name, "status": status, "detail": detail}
    print(json.dumps(record))


def test_balanced_beta_operating_point():
    t0 = time.perf_counter()
    beta_star = find_balanced_beta(ALPHA)
    residual = abs(delta_phi_raw(ALPHA, beta_star) - np.pi)
    elapsed = time.perf_counter() - t0
    ok = 0.178 <= beta_star <= 0.188 and residual < 1e-8 and elapsed < 1.0
    _report(1, "balanced beta operating point", ok,
            f"beta*={beta_star:.6f}, |dPhi-pi|={residual:.2e}, {elapsed:.3f}s")
    assert 0.178 <= beta_star <= 0.188
    assert residual < 1e-8
    assert elapsed < 1.0


def test_rus_success_probability():
    t0 = time.perf_counter()
    beta_star = find_balanced_beta(ALPHA)
    p = success_probability(ALPHA, beta_star)
    n = 100_000
    # the first n attempts of run_rus over per-trial streams, as egg-rus runs it
    codes = (run_rus(ALPHA, derive_rng(SEED, t)).codes for t in itertools.count())
    attempts = itertools.islice(itertools.chain.from_iterable(codes), n)
    freq = sum(code in (1, 2) for code in attempts) / n  # unequal outcomes
    sigma = math.sqrt(p * (1.0 - p) / n)
    elapsed = time.perf_counter() - t0
    ok = abs(p - 0.128) <= 0.005 and abs(freq - p) <= 3 * sigma and elapsed < 10.0
    _report(2, "repeat-until-success probability", ok,
            f"analytic={p:.6f}, empirical={freq:.6f} ({abs(freq - p) / sigma:.2f} sigma), "
            f"{elapsed:.2f}s")
    assert abs(p - 0.128) <= 0.005
    assert abs(freq - p) <= 3 * sigma
    assert elapsed < 10.0


def test_measurement_step_bound():
    t0 = time.perf_counter()
    theta = np.pi / 4
    cos_half = math.cos(theta / 2)
    for eps in (0.1, 0.05, 0.01):
        assert required_steps(theta, eps) == math.ceil(math.log(eps) / math.log(cos_half))
    cfg = MeasureConfig(theta=theta, epsilon=0.05)
    assert cfg.n_steps == 38

    n = 100_000
    results = measurement_ensemble(basis_state(1), cfg, SEED, n)
    mislabel = sum(1 for r in results if r.label == 0) / n
    bound = cos_half ** (2 * cfg.n_steps)
    sigma = math.sqrt(bound * (1.0 - bound) / n)
    elapsed = time.perf_counter() - t0
    ok = mislabel <= bound + 3 * sigma and elapsed < 30.0
    _report(3, "measurement step bound", ok,
            f"steps(0.1/0.05/0.01)=30/38/59, mislabel={mislabel:.5f} vs "
            f"bound+3sigma={bound + 3 * sigma:.5f}, {elapsed:.1f}s")
    assert mislabel <= bound + 3 * sigma
    assert elapsed < 30.0


def _chi_square_exponential(steps: np.ndarray) -> tuple[float, float, int]:
    """Chi-square statistic against the mean-parametrised exponential.

    Bins with expected count below 5 are merged forward; the tail mass beyond
    the last edge is folded into the final bin so expectations sum to N.
    """
    h = histogram(steps, bins=20)
    lam = fit_exponential(steps)
    edges = np.asarray(h.bin_edges)
    cdf = 1.0 - np.exp(-lam * (edges - edges[0]))
    probs = np.diff(cdf)
    probs[-1] += np.exp(-lam * (edges[-1] - edges[0]))
    expected = h.total * probs
    observed = np.asarray(h.counts, dtype=float)

    obs_m: list[float] = []
    exp_m: list[float] = []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs_m.append(o_acc)
            exp_m.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0.0:
        obs_m[-1] += o_acc
        exp_m[-1] += e_acc
    obs = np.array(obs_m)
    exp = np.array(exp_m)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs) - 2
    return chi2, float(stats.chi2.ppf(0.99, dof)), dof


def _word_distances(cfg: WalkConfig, max_length: int) -> dict[tuple[int, ...], float]:
    """Trace distance to the target of every gate word of length 0..max_length.

    Word (b_1, ..., b_L) is the product u_{b_L} ... u_{b_1}, the order in
    which run_walk applies its draws; bit 0 is u0, drawn with probability p0.
    """
    gates = (cfg.u0, cfg.u1)
    dist = {}
    for length in range(max_length + 1):
        for word in itertools.product((0, 1), repeat=length):
            v = np.eye(2, dtype=complex)
            for b in word:
                v = gates[b] @ v
            dist[word] = trace_distance(v, cfg.target)
    return dist


def test_walk_distributions():
    t0 = time.perf_counter()
    res1 = run_ensemble(walk_config("one-param"), SEED, 1000)
    steps1 = np.array([r.steps for r in res1], dtype=float)
    chi2, crit, dof = _chi_square_exponential(steps1)
    chi_ok = chi2 <= crit

    r2 = log_linear_r2(histogram(steps1, bins=20))
    r2_ok = r2 >= 0.9

    cfg2 = walk_config("two-param")
    res2 = run_ensemble(cfg2, SEED, 1000)
    h2 = histogram(np.array([r.steps for r in res2], dtype=float), bins=20)
    first_bin_ok = h2.counts[0] == max(h2.counts)

    # The two-parameter gates reach rx(pi/2) only to within epsilon, never
    # exactly: the closest words, 0110 and 1001, sit at trace distance 0.0454
    # (no word of length 1-8 does better), so exactness is not claimed.  What
    # the walk does have is a shortest hit: some length-4 word lies inside the
    # hitting ball and no shorter word does.  Every walk whose first four
    # draws spell an in-ball word therefore stops at exactly four steps, which
    # is the first-bin spike; the share of such walks must match the
    # enumerated probability of those words within 3 sigma of a binomial.
    dist = _word_distances(cfg2, 4)
    best_word = min((w for w in dist if len(w) == 4), key=dist.__getitem__)
    best = dist[best_word]
    shorter_hits = sum(1 for w, d in dist.items() if len(w) < 4 and d <= cfg2.epsilon)
    p4 = sum(cfg2.p0 ** w.count(0) * (1.0 - cfg2.p0) ** w.count(1)
             for w, d in dist.items() if len(w) == 4 and d <= cfg2.epsilon)
    n4 = sum(1 for r in res2 if r.steps == 4)
    expected4 = len(res2) * p4
    sigma4 = math.sqrt(len(res2) * p4 * (1.0 - p4))
    four_step_ok = (best <= cfg2.epsilon and shorter_hits == 0
                    and abs(n4 - expected4) <= 3 * sigma4)
    elapsed = time.perf_counter() - t0
    ok = chi_ok and r2_ok and first_bin_ok and four_step_ok and elapsed < 60.0
    word = "".join(map(str, best_word))
    _report(4, "walk distributions", ok,
            f"chi2={chi2:.2f} (crit {crit:.2f}, dof {dof}), R2={r2:.4f}, "
            f"first-bin-largest={first_bin_ok}, best 4-step word {word}="
            f"{best:.3e} (eps {cfg2.epsilon}), shorter hits={shorter_hits}, "
            f"4-step walks={n4} vs expected {expected4:.1f} +/- {sigma4:.1f}, "
            f"{elapsed:.1f}s")
    assert chi_ok
    assert r2_ok
    assert first_bin_ok
    assert elapsed < 60.0
    assert best <= cfg2.epsilon, (
        f"best length-4 word {word} reaches trace distance {best:.12f}, "
        f"outside epsilon = {cfg2.epsilon}")
    assert shorter_hits == 0, (
        f"{shorter_hits} words shorter than 4 lie within epsilon = {cfg2.epsilon}")
    assert abs(n4 - expected4) <= 3 * sigma4, (
        f"{n4} walks stopped at 4 steps; the in-ball words give "
        f"{expected4:.1f} +/- {sigma4:.1f}")


def test_geometry_oracle_agreement():
    rng = derive_rng(SEED, 5)
    disagree = 0
    char_mismatch = 0
    char_checked = 0
    for k in range(10_000):
        th2, th4 = rng.uniform(0.05, np.pi - 0.05, size=2)
        phi1 = rng.uniform(0.0, 2 * np.pi)
        if k % 2 == 0:
            phi3 = phi1 + rng.integers(0, 2) * np.pi
        else:
            phi3 = rng.uniform(0.0, 2 * np.pi)
        gap = rng.uniform(0.02, np.pi - 0.02)
        phis = (phi1 + gap, phi1 - gap, phi3 + gap, phi3 - gap)
        closed = abs(constrained_distance(th2, th4, *phis))
        det = coplanarity_distance(
            spherical_point(th2, phis[0]), spherical_point(th2, phis[1]),
            spherical_point(th4, phis[2]), spherical_point(th4, phis[3]))
        if (closed <= 1e-8) != (det <= 1e-8):
            disagree += 1
        degenerate = (abs(np.cos(th2) - np.cos(th4)) <= 1e-3
                      or min(abs(np.sin(th2)), abs(np.sin(th4))) <= 1e-3)
        if not degenerate:
            char_checked += 1
            if vertical_plane_check(phi1, phi3) != (closed <= 1e-8):
                char_mismatch += 1
    ok = disagree == 0 and char_mismatch == 0 and char_checked > 5000
    _report(5, "geometry oracle agreement", ok,
            f"disagreements={disagree}/10000, vertical-plane mismatches="
            f"{char_mismatch}/{char_checked}")
    assert disagree == 0
    assert char_mismatch == 0
    assert char_checked > 5000


def test_kraus_pipeline_equivalence():
    rng = derive_rng(SEED, 7)
    finals = x_basis()
    worst_phase = 0.0
    worst_prob = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.01, np.pi / 4)
        beta = rng.uniform(0.0, alpha)
        c_plus, c_minus = analytic_overlaps(alpha, beta)
        p_plus, p_minus = outcome_probabilities(alpha, beta)
        for i in range(2):
            for j in range(2):
                psi = tensor(plus_state(), basis_state(i), basis_state(j))
                psi = apply(delta_gate(0.0, 0.0, beta), psi, (0, 1))
                psi = apply(rx(np.pi / 2), psi, 0)
                psi = apply(delta_gate(0.0, 0.0, alpha), psi, (0, 2))
                ancilla = psi.reshape(2, 2, 2)[:, i, j]
                for c, p, m in ((c_plus, p_plus, finals[0]),
                                (c_minus, p_minus, finals[1])):
                    amp = np.vdot(m, ancilla)
                    worst_phase = max(worst_phase, abs(wrap_angle(
                        np.angle(amp) - np.angle(c[i, j]))))
                    worst_prob = max(worst_prob, abs(abs(amp) ** 2 - p))
    phases_ok = worst_phase < 1e-9
    probs_ok = worst_prob < 1e-10

    rng = derive_rng(SEED, 6)
    worst_complete = 0.0
    for _ in range(10_000):
        e = haar_unitary(4, rng)
        anc = haar_state(rng, 1)
        b = haar_unitary(2, rng)
        ks = kraus_for(e, anc, (b[:, 0], b[:, 1]))
        total = sum(k.operator.conj().T @ k.operator for k in ks)
        worst_complete = max(worst_complete, float(np.max(np.abs(total - np.eye(2)))))
    complete_ok = worst_complete < 1e-10
    ok = phases_ok and probs_ok and complete_ok
    _report(6, "kraus pipeline equivalence", ok,
            f"max phase err={worst_phase:.2e}, max prob err={worst_prob:.2e}, "
            f"max completeness defect={worst_complete:.2e}")
    assert phases_ok
    assert probs_ok
    assert complete_ok


def test_deterministic_programming():
    e = hh_crz_interaction(np.pi / 4)
    basis = x_basis()
    rng = derive_rng(SEED, 8)
    worst = 0.0
    n_words = 0
    for length in range(1, 7):
        for word in np.ndindex(*([2] * length)):
            bits = "".join(str(b) for b in word)
            programmed = program_deterministic(bits)
            columns = []
            for col in range(2):
                psi = basis_state(col)
                for ch in bits:
                    state = e @ tensor(basis_state(int(ch)), psi)
                    _, _, psi = measure_qubit(state, 0, basis, rng)
                columns.append(psi)
            simulated = np.column_stack(columns)
            worst = max(worst, phase_aligned_max_diff(simulated, programmed))
            n_words += 1
    words_ok = worst < 1e-10 and n_words == 126

    u0 = kraus_for(e, basis_state(0), basis)[0].unitary_part
    u1 = kraus_for(e, basis_state(1), basis)[1].unitary_part
    d0 = phase_aligned_max_diff(u0, hadamard())
    d1 = phase_aligned_max_diff(u1, hadamard() @ rz(np.pi / 4))
    pair_ok = d0 < 1e-10 and d1 < 1e-10
    ok = words_ok and pair_ok
    _report(7, "deterministic programming", ok,
            f"max word deviation={worst:.2e} over {n_words} bitstrings, "
            f"gate pair deviations={d0:.2e}/{d1:.2e}")
    assert words_ok
    assert pair_ok


# The three laws below are the whole-histogram tests of test_egg.py,
# test_measure.py and test_sqwalk.py at their sizes and seeds; each chi-square
# or binomial test rejects a correct ensemble with probability 1e-3.
LAW_LEVEL = 1e-3


def test_rus_attempts_law():
    t0 = time.perf_counter()
    n, max_attempts = 20000, 1000
    s2 = np.sin(2 * ALPHA) ** 2
    p_s = s2 / (1 + s2)
    runs = [run_rus(ALPHA, derive_rng(11, t), max_attempts) for t in range(n)]
    full = rus_attempts_law(p_s, max_attempts)
    starts = fold_tail(full, n)
    counts = np.bincount([r.attempts for r in runs], minlength=max_attempts + 1)[1:]
    chi = stats.chisquare(np.add.reduceat(counts, starts), n * np.add.reduceat(full, starts))
    firsts = [r.codes[-1] >> 1 for r in runs if r.success]  # 0 for the pair (0, 1)
    pair = stats.binomtest(firsts.count(0), len(firsts), 0.5)
    elapsed = time.perf_counter() - t0
    ok = chi.pvalue > LAW_LEVEL and pair.pvalue > LAW_LEVEL
    _report(8, "repeat-until-success attempts law", ok,
            f"{n} runs at alpha=pi/16, chi2 p={chi.pvalue:.3f} over {len(starts)} bins, "
            f"deciding pair (0,1) share={firsts.count(0) / len(firsts):.4f} "
            f"(binomial p={pair.pvalue:.3f}), {elapsed:.2f}s")
    assert chi.pvalue > LAW_LEVEL
    assert pair.pvalue > LAW_LEVEL


def test_weak_chain_round_law():
    t0 = time.perf_counter()
    trials = 20000
    cfg = MeasureConfig(theta=np.pi / 4, epsilon=0.05)
    n = cfg.n_steps
    full = chain_round_law(0.5, 0.5, cfg.theta, n)  # |+>
    starts = np.append(fold_tail(full[:n], trials), n)  # label 0 is a bin of its own
    results = measurement_ensemble(plus_state(), cfg, 62, trials)
    # label 1 at round k is entry k - 1, label 0 (n rounds) entry n
    counts = np.bincount([r.steps_used - r.label for r in results], minlength=n + 1)
    chi = stats.chisquare(np.add.reduceat(counts, starts), trials * np.add.reduceat(full, starts))
    elapsed = time.perf_counter() - t0
    ok = n == 38 and chi.pvalue > LAW_LEVEL
    _report(9, "weak-chain round law", ok,
            f"{trials} chains at theta=pi/4 (n={n}) on |+>, label-0 share="
            f"{counts[n] / trials:.4f} vs {full[n]:.4f}, chi2 p={chi.pvalue:.3f} over "
            f"{len(starts)} bins, {elapsed:.2f}s")
    assert n == 38
    assert chi.pvalue > LAW_LEVEL


def test_walk_tail_ball_measure():
    # the hitting tail (mean excess over the median) of an equidistributing
    # walk is 1 / mu for a target ball of Haar measure mu (Kac's lemma)
    t0 = time.perf_counter()
    eps = 0.1
    cfg = walk_config("two-param", epsilon=eps)
    steps = np.array([r.steps for r in run_ensemble(cfg, 11, 3000)])
    median = np.median(steps)
    ratio = np.mean(steps[steps > median] - median) * ball_measure(eps)
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 1) < 0.13
    _report(10, "walk tail x ball measure", ok,
            f"two-param, eps={eps}, 3000 walks: tail*mu={ratio:.4f} (band 1 +/- 0.13), "
            f"{elapsed:.2f}s")
    assert abs(ratio - 1) < 0.13
