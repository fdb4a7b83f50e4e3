"""adqcsim benchmark: one command per workload run, from the checkout root.

    python3 bench/run.py --workload walk --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 10

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over 24 fresh interpreters that import ``adqcsim.cli`` and build
its parser, half started before the worker and half after it, so the
median spans the run's drift), then, from one fresh worker process,
``wall_s`` (timed part of an iteration, imports excluded),
``peak_rss_mb`` (the worker's ``ru_maxrss`` after its first three
iterations; the output checks run in forked children and do not count),
``output_bytes`` (bytes an iteration writes) and ``ok_frac`` (one minus
failed operations over attempted ones).
``wall_s`` and ``output_bytes`` are means over the run's iterations: the
machine's speed drifts over tens of seconds and the walk's work per
iteration varies with its inputs, and the mean of a run averages both
better than the median of its iterations does.  With
``--trace 1`` a worker runs the same iterations traced and untraced and
reports the per-layer metrics of ``tracing.LAYER_METRICS``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` runs every workload both ways and prints the tables only.
Artifacts and run records go to ``.bench_out/`` in the checkout.  The
program is imported from the checkout's ``src/``; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("walk", "weak-chain", "egg-rus", "analytic-sweep")

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("output_bytes", "bytes", "lower", 0.05),
    ("ok_frac", "fraction", "higher", 0.01),
]
SETUP_RUNS = 12  # before the worker, and as many after it
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import adqcsim.cli\n"
    "adqcsim.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)
TIME_LIMIT = 170.0


def child_env() -> dict:
    """The environment of every child: adqcsim comes from this checkout only."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def setup_seconds(warm_up: bool) -> list[float]:
    """Import-and-parser time of SETUP_RUNS fresh interpreters.

    ``warm_up`` first starts one more, untimed, that compiles the sources.
    """
    times = [
        float(subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True).stdout)
        for _ in range(SETUP_RUNS + warm_up)
    ]
    return times[warm_up:]


def run_dir(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}"


def run_worker(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Run one worker to completion and return its run record."""
    rd = run_dir(workload, seed, trace)
    shutil.rmtree(rd, ignore_errors=True)
    rd.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", str(rd)]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    record = rd / "record.json"
    if done.returncode != 0 or not record.is_file():
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(record.read_text())


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run: the contract's result object plus the run record."""
    deadline = perf_counter() + TIME_LIMIT
    setup = None if trace else setup_seconds(warm_up=True)
    record = run_worker(workload, seed, seconds, trace, deadline)
    if not trace:
        setup += setup_seconds(warm_up=False)
    res = record["result"]
    if trace:
        values = record["tracing"]["layers"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": res["wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "output_bytes": res["output_bytes"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
        record["setup_s_runs"] = setup
        (run_dir(workload, seed, trace) / "record.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in units(trace).items()},
        "record": record,
    }


def units(trace: int) -> dict:
    if trace:
        return {name: (unit, moves) for name, unit, _, moves in tracing.LAYER_METRICS}
    return {name: (unit, "") for name, unit, *_ in END_TO_END}


def show(workload: str, trace: int, out: dict) -> None:
    """Human-readable lines: each metric with its unit, then the run's account."""
    rec = out["record"]
    print(f"== {workload} ({'traced' if trace else 'untraced'}, seed {rec['seed']}, "
          f"{rec['result']['iterations']} iterations, sizes {json.dumps(rec['sizes'])})")
    for name, (unit, moves) in units(trace).items():
        value = out["metrics"][name]["value"]
        print(f"  {name:26s} {value:14.6g} {unit:9s} {moves}".rstrip())
    failed_frac = out["failed"] / out["attempted"]
    print(f"  failed_frac {failed_frac:.6g} ({out['failed']}/{out['attempted']} operations), "
          f"work {json.dumps(rec['work'], sort_keys=True)}, "
          f"reference hashes {json.dumps(rec['reference_hashes'], sort_keys=True)}")
    if trace:
        t = rec["tracing"]
        print(f"  tracing overhead {t['overhead_s']:.4g} s per iteration "
              f"(traced {t['traced_wall_s']:.4g} s - untraced {t['untraced_wall_s']:.4g} s), "
              f"{t['spans']} spans")
        if t["missing_bindings"]:
            print(f"  not traced (missing bindings): {', '.join(t['missing_bindings'])}")
    for err in rec["errors"]:
        print(f"  error: {err}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="adqcsim benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        p.error("--seed must be >= 0 and --seconds in [1, 120]")
    if not (ROOT / "src" / "adqcsim" / "cli.py").is_file():
        sys.stderr.write(f"no adqcsim source under {ROOT / 'src'}; nothing to benchmark\n")
        return 2
    try:
        if args.workload == "all":
            ok = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    out = measure(workload, args.seed, args.seconds, trace)
                    show(workload, trace, out)
                    ok &= out["correct"]
            return 0 if ok else 1
        out = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    show(args.workload, args.trace, out)
    del out["record"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
