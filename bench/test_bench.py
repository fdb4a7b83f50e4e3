"""Self-tests of the benchmark, at small sizes.

    python3 -m pytest -q bench/test_bench.py

They check the self-time arithmetic, that the tracer restores what it
wraps, that every output check rejects a corrupted copy of a real
artifact, that the traced counters agree with the artifacts, and that
BENCHMARK.json lists what the code measures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, AnalyticSweep, EggRus, Ops, Walk, WeakChain  # noqa: E402

SMALL = {
    "walk": dict(trials=4),
    "weak-chain": dict(trials=60),
    "egg-rus": dict(trials=30),
    "analytic-sweep": dict(samples=11, triples=5, kraus=5, programs=5),
}


def execute(workload, out: Path, tracer: tracing.Tracer | None = None):
    """One iteration's timed part with stdout silenced; returns (inputs, raw, ops)."""
    inp = workload.inputs(7, 0)
    ops = Ops()
    if tracer is not None:
        tracer.install(worker.MODULES)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            raw = workload.execute(inp, out, ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert ops.failed == 0, ops.errors
    return inp, raw, ops


# ---------------------------------------------------------------------------
# self time


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = tracing.self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == end[0] - start[0]


def test_by_name_sums_self_time_per_name():
    t = tracing.Tracer()
    for name_id, par, s, e in [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (1, 0, 5.0, 6.0), (2, 1, 2.0, 3.5)]:
        t.name_ids.append(name_id)
        t.parents.append(par)
        t.iterations.append(0)
        t.starts.append(s)
        t.ends.append(e)
    t.names = ["root", "layer", "leaf"]
    got = tracing.by_name(t)
    assert got["root"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert got["layer"] == {"calls": 2, "total_s": 4.0, "self_s": 2.5}
    assert got["leaf"] == {"calls": 1, "total_s": 1.5, "self_s": 1.5}


def test_nested_spans_record_parents():
    t = tracing.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    s = t.spans()
    assert s["parent"].tolist() == [-1, 0, 0]
    own = tracing.self_times(s["parent"], s["start"], s["end"])
    assert math.isclose(own.sum(), s["end"][0] - s["start"][0], rel_tol=1e-9)


def test_uninstall_restores_every_binding():
    before = {
        (m, attr): getattr(worker.MODULES[m], attr)
        for _, mods, attr, _ in tracing.TARGETS
        for m in mods
    }
    t = tracing.Tracer()
    t.install(worker.MODULES)
    assert all(getattr(worker.MODULES[m], a) is not f for (m, a), f in before.items())
    t.uninstall()
    assert all(getattr(worker.MODULES[m], a) is f for (m, a), f in before.items())
    assert t.missing == []


def test_checks_in_a_child_stay_out_of_the_worker_peak():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert worker.in_child(lambda n: len(b"x" * n), 64 << 20) == 64 << 20
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < before + 16 * 1024
    with pytest.raises(RuntimeError):
        worker.in_child(lambda: 1 / 0)


# ---------------------------------------------------------------------------
# output checks reject corrupted artifacts


def edit(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text()
    assert old in text, f"{old!r} not in {path.name}"
    path.write_text(text.replace(old, new, count))


def drop_last_line(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def corrupted(src: Path, tmp: Path, corrupt) -> Path:
    dst = tmp / f"bad{len(list(tmp.iterdir()))}"
    shutil.copytree(src, dst)
    corrupt(dst)
    return dst


def assert_rejects(check, src: Path, tmp: Path, corruptions) -> None:
    check(src)  # the real artifact passes
    for corrupt in corruptions:
        with pytest.raises(checks.CheckError):
            check(corrupted(src, tmp, corrupt))


def test_walk_checks_reject_corruption(tmp_path):
    wl = Walk(**SMALL["walk"])
    execute(wl, tmp_path / "run")
    src = tmp_path / "run" / "one-param"
    bad = tmp_path / "bad"
    bad.mkdir()
    assert_rejects(wl.check_artifacts, src, bad, [
        lambda d: edit(d / "walk.json", '"lambda": ', '"lambda": NaN, "x": '),
        lambda d: edit(d / "walk.json", '"hits": 4', '"hits": 3'),
        lambda d: drop_last_line(d / "walk.csv"),
        lambda d: edit(d / "walk.csv", ",1,", ",2,"),
        lambda d: drop_last_line(d / "walk.svg"),
        lambda d: (d / "walk_manifest.json").write_text("{"),
    ])


def test_measure_checks_reject_corruption(tmp_path):
    wl = WeakChain(**SMALL["weak-chain"])
    execute(wl, tmp_path / "run")
    src = tmp_path / "run" / "measure"
    bad = tmp_path / "bad"
    bad.mkdir()
    assert_rejects(wl.check_artifacts, src, bad, [
        lambda d: drop_last_line(d / "measure.csv"),
        lambda d: edit(d / "measure.csv", ",0,38,", ",0,37,"),
        lambda d: edit(d / "measure.json", '"required_steps": 38', '"required_steps": 37'),
        lambda d: edit(d / "measure.json", '"theta": ', '"theta": Infinity, "x": '),
        lambda d: edit(d / "measure.json", '"1": 0.', '"1": 0.9'),
    ])


def test_rus_checks_reject_corruption(tmp_path):
    wl = EggRus(**SMALL["egg-rus"])
    execute(wl, tmp_path / "run")
    src = tmp_path / "run" / "egg-rus"
    payload = checks.load_json(src / "egg-rus.json")
    success = next(e for t in payload["trials"] for e in t["log"] if e["success"])
    failure = next(e for t in payload["trials"] for e in t["log"] if not e["success"])
    bad = tmp_path / "bad"
    bad.mkdir()
    assert_rejects(wl.check_artifacts, src, bad, [
        lambda d: edit(d / "egg-rus.json", f'"combined_phase": {success["combined_phase"]!r}',
                       '"combined_phase": 0.0'),
        lambda d: edit(d / "egg-rus.json", '"combined_phase": 0.0',
                       f'"combined_phase": {math.pi!r}'),
        lambda d: edit(d / "egg-rus.json", '"all_succeeded": true', '"all_succeeded": false'),
        lambda d: edit(d / "egg-rus.json", '"mean_attempts": ', '"mean_attempts": NaN, "x": '),
        lambda d: edit(d / "egg-rus.json", f'"beta": {payload["beta"]!r}', '"beta": 0.1'),
    ])
    assert failure["combined_phase"] == 0.0


def test_scan_and_library_checks_reject_corruption(tmp_path):
    wl = AnalyticSweep(**SMALL["analytic-sweep"])
    inp, raw, ops = execute(wl, tmp_path / "run")
    assert wl.verify(inp, tmp_path / "run", raw, ops)["scan_rows"] == 11
    assert ops.failed == 0, ops.errors
    src = tmp_path / "run" / "egg-scan"
    bad = tmp_path / "bad"
    bad.mkdir()
    beta_star = checks.load_json(src / "egg-scan.json")["beta_star"]
    assert_rejects(wl.check_artifacts, src, bad, [
        lambda d: drop_last_line(d / "egg-scan.csv"),
        lambda d: edit(d / "egg-scan.csv", "\n0,", "\nnan,"),
        lambda d: edit(d / "egg-scan.json", repr(beta_star), repr(beta_star * 1.001)),
    ])
    outcomes = raw["kraus"][0]
    checks.check_kraus_completeness(outcomes)
    with pytest.raises(checks.CheckError):
        checks.check_kraus_completeness(outcomes[:1])
    canon = raw["normalized"][0][0]
    with pytest.raises(checks.CheckError):
        checks.check_idempotent(canon, [canon.ax + 1e-9, canon.ay, canon.az])
    checks.check_unitary(raw["programs"][0])
    with pytest.raises(checks.CheckError):
        checks.check_unitary(raw["programs"][0] * 1.001)


def test_pooled_checks_reject_biased_counts():
    p1 = checks.born_label_one((math.pi / 2, 0.0), math.pi / 4, 38)
    checks.check_born(round(p1 * 10000), 10000, (math.pi / 2, 0.0), math.pi / 4, 0.05)
    with pytest.raises(checks.CheckError):
        checks.check_born(round((p1 + 0.03) * 10000), 10000, (math.pi / 2, 0.0), math.pi / 4, 0.05)
    q = checks.rus_success_probability(math.pi / 16, checks.balanced_beta(math.pi / 16))
    assert abs(q - 0.1277) < 1e-3
    checks.check_mean_attempts(round(10000 / q), 10000, math.pi / 16)
    with pytest.raises(checks.CheckError):
        checks.check_mean_attempts(round(10000 / q * 1.05), 10000, math.pi / 16)


# ---------------------------------------------------------------------------
# traced counters against the artifacts


def csv_column_sum(path: Path, column: str) -> int:
    lines = path.read_text().splitlines()
    k = lines[0].split(",").index(column)
    return sum(int(line.split(",")[k]) for line in lines[1:])


def test_traced_walk_steps_equal_csv_steps(tmp_path):
    tracer = tracing.Tracer()
    execute(Walk(**SMALL["walk"]), tmp_path, tracer)
    steps = sum(csv_column_sum(tmp_path / p / "walk.csv", "steps") for p in ("one-param", "two-param"))
    layers = tracing.layer_metrics(tracer, 1, 1)
    assert layers["sqwalk.steps"] == steps
    assert layers["sqwalk.walks"] == 2 * SMALL["walk"]["trials"]
    assert layers["kraus.calls"] == 2


def test_traced_rus_attempts_equal_json_attempts(tmp_path):
    tracer = tracing.Tracer()
    execute(EggRus(**SMALL["egg-rus"]), tmp_path, tracer)
    payload = checks.load_json(tmp_path / "egg-rus" / "egg-rus.json")
    attempts = sum(t["attempts"] for t in payload["trials"])
    layers = tracing.layer_metrics(tracer, 1, 1)
    assert layers["egg.rus_attempts"] == attempts
    assert layers["egg.rus_trials"] == SMALL["egg-rus"]["trials"]
    assert layers["seeding.streams"] == SMALL["egg-rus"]["trials"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_clean(name, tmp_path):
    """Traced and untraced halves agree on artifacts and counters; nothing fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        record = worker.run(WORKLOADS[name](**SMALL[name]), 3, 0.0, True, tmp_path)
    assert record["result"]["failed"] == 0, record["errors"]
    assert record["tracing"]["traced_iterations"] == worker.MIN_TRACED
    assert record["tracing"]["missing_bindings"] == []
    assert (tmp_path / "spans.npz").is_file()
    assert set(record["tracing"]["layers"]) == {m[0] for m in tracing.LAYER_METRICS}


def test_scan_artifacts_match_the_reference(tmp_path):
    """egg-scan takes no seed, so its reference covers every run."""
    state = worker.Run(AnalyticSweep(triples=1, kraus=1, programs=1), tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        _, _, hashes, _ = state.iteration(0, state.workload.inputs(0, 0), None, "")
    state.record_hashes(0, hashes)
    assert dict(state.reference_verdicts) == {"match": 1}


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command


def test_benchmark_json_lists_what_the_code_measures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert [tuple(m.values()) for m in spec["end_to_end"]] == run.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == [m[:3] for m in tracing.LAYER_METRICS]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
