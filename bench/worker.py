"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports adqcsim (not timed), then runs iterations of the
workload until ``--seconds`` have passed and at least a few iterations are
done.  Each iteration's timed part is followed by its output checks, the
sha256 of every data artifact and the removal of the artifacts.  Those run
in a forked child, so the memory they take to parse and hash the artifacts
stays out of this process's ``ru_maxrss``: ``peak_rss_mb`` is then the
program's peak alone.

With ``--trace 1`` every iteration runs twice on the same inputs: first
untraced, then with the tracer installed.  The pair gives the tracing
overhead, the traced half gives the per-layer metrics, and both halves
must write byte-identical artifacts.

The run record, with the result, goes to ``record.json`` in ``--run-dir``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import adqcsim
from adqcsim import cli, egg, interaction, kraus, measure, seeding, sqwalk, svgplot

import checks
import tracing
from workloads import WORKLOADS, Ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = BENCH / "reference_hashes.json"
MODULES = {
    "cli": cli, "egg": egg, "interaction": interaction, "kraus": kraus,
    "measure": measure, "seeding": seeding, "sqwalk": sqwalk, "svgplot": svgplot,
}
MIN_ITERATIONS = 3
MIN_TRACED = 2


def argv_key(argv: list[str]) -> str:
    """Reference-table key of one command line (without --out-dir)."""
    return hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:32]


def artifacts(out: Path, inp: dict) -> tuple[int, dict[str, dict[str, str]]]:
    """Bytes written under ``out`` and sha256 per data file, per command line.

    Manifests embed --out-dir, so they count toward the bytes but are not
    hashed.
    """
    total = 0
    hashes: dict[str, dict[str, str]] = {}
    for op, argv in inp["cli"].items():
        files = {}
        op_dir = out / op
        for path in sorted(op_dir.iterdir()) if op_dir.is_dir() else ():
            total += path.stat().st_size
            if not path.name.endswith("_manifest.json"):
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        hashes[argv_key(argv)] = files
    return total, hashes


def in_child(fn, *args):
    """``fn(*args)`` run in a forked child; its result comes back pickled.

    The child's memory counts toward its own ``ru_maxrss``, not this
    process's.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(fn(*args), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"output checks crashed (wait status {status})")
    return pickle.loads(data)


class Run:
    """State of one run: operations, work counts, timings and hashes."""

    def __init__(self, workload, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.ops = Ops()
        self.work: Counter = Counter()
        self.cli_ok = 0
        self.references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        self.reference_verdicts: Counter = Counter()
        self.hash_log: list[dict] = []

    def iteration(self, i: int, inp: dict, tracer: tracing.Tracer | None, tag: str):
        """Timed part, then checks, hashes and clean-up.

        Returns the timed seconds, the bytes written, the artifact hashes and
        the work counts read from the artifacts.
        """
        out = self.run_dir / f"it{i}{tag}"
        if tracer is not None:
            tracer.iteration = i
            tracer.install(MODULES)
        try:
            with tracer.span("bench.iteration") if tracer else nullcontext():
                t0 = perf_counter()
                raw = self.workload.execute(inp, out, self.ops)
                seconds = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.ops, cli_ok, counts, size, hashes = in_child(self.check, inp, out, raw)
        self.cli_ok += cli_ok
        return seconds, size, hashes, counts

    def check(self, inp: dict, out: Path, raw: dict):
        """Untimed part: output checks, artifact hashes, clean-up."""
        counts = self.workload.verify(inp, out, raw, self.ops)
        cli_ok = sum(raw[op] for op in inp["cli"])
        size, hashes = artifacts(out, inp)
        shutil.rmtree(out, ignore_errors=True)
        return self.ops, cli_ok, counts, size, hashes

    def record_hashes(self, i: int, hashes: dict) -> None:
        for key, files in hashes.items():
            ref = self.references.get(key)
            verdict = "none" if ref is None else ("match" if ref == files else "mismatch")
            self.reference_verdicts[verdict] += 1
            self.hash_log.append({"iteration": i, "argv_key": key, "files": files,
                                  "reference": verdict})

    def pooled(self) -> None:
        """Pooled statistical checks; a failure fails every passing CLI call of the run."""
        try:
            self.workload.pooled(self.work)
        except checks.CheckError as exc:
            self.ops.fail(f"pooled check: {exc}")
            self.ops.failed += self.cli_ok - 1


def run(workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Iterate the workload for ``seconds``; return the result and run record."""
    state = Run(workload, run_dir)
    tracer = tracing.Tracer() if trace else None
    walls, traced_walls, sizes, traced_sizes = [], [], [], []
    needed = MIN_TRACED if trace else MIN_ITERATIONS
    start = perf_counter()
    i = 0
    while i < needed or perf_counter() - start < seconds:
        inp = workload.inputs(seed, i)
        wall, size, hashes, counts = state.iteration(i, inp, None, "")
        state.work.update(counts)
        walls.append(wall)
        sizes.append(size)
        state.record_hashes(i, hashes)
        if i == needed - 1:
            # The peak after a fixed number of iterations, so a faster machine
            # running more iterations in --seconds does not read as more memory.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            before = {k: tracer.counter(*c) for k, c in tracing.ARTIFACT_COUNTERS.items()}
            wall_t, size_t, hashes_t, _ = state.iteration(i, inp, tracer, "t")
            traced_walls.append(wall_t)
            traced_sizes.append(size_t)
            if hashes_t != hashes:
                state.ops.fail(f"iteration {i}: traced artifacts differ from untraced ones")
            for key, (name, counter) in tracing.ARTIFACT_COUNTERS.items():
                seen = tracer.counter(name, counter) - before[key]
                if key in counts and seen != counts[key]:
                    state.ops.fail(f"iteration {i}: traced {name}.{counter} = {seen}, "
                                   f"artifacts say {counts[key]}")
        i += 1
    state.pooled()

    result = {
        "iterations": i,
        "wall_s": statistics.fmean(walls),
        "output_bytes": statistics.fmean(sizes),
        "peak_rss_mb": peak_kib / 1024,
        "attempted": state.ops.attempted,
        "failed": state.ops.failed,
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": workload.sizes,
        "machine": machine(),
        "source": source(),
        "result": result,
        "wall_s_per_iteration": walls,
        "output_bytes_per_iteration": sizes,
        "work": dict(state.work),
        "errors": state.ops.errors,
        "reference_hashes": dict(state.reference_verdicts),
        "artifacts": state.hash_log,
    }
    if tracer is not None:
        record["tracing"] = {
            "overhead_s": statistics.median([t - u for t, u in zip(traced_walls, walls)]),
            "traced_wall_s": statistics.median(traced_walls),
            "untraced_wall_s": statistics.median(walls),
            "traced_iterations": len(traced_walls),
            "missing_bindings": tracer.missing,
            "spans": len(tracer.starts),
            "by_name": tracing.by_name(tracer),
            "layers": tracing.layer_metrics(tracer, len(traced_walls), sum(traced_sizes)),
        }
        tracer.save(run_dir / "spans.npz")
    return record


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def source() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    src = Path(adqcsim.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "version": adqcsim.__version__}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", type=Path, required=True)
    args = p.parse_args(argv)
    if Path(adqcsim.__file__).resolve().parent != ROOT / "src" / "adqcsim":
        sys.stderr.write(f"adqcsim imported from {adqcsim.__file__}, not from this checkout\n")
        return 2
    record = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
                 args.run_dir)
    (args.run_dir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
