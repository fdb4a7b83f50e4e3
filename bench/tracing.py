"""Outside-in tracing of adqcsim's layers, driven from the benchmark.

:class:`Tracer` replaces public functions of adqcsim's modules with
wrappers that record one span per call (name, start, end, parent, and the
iteration it belongs to) and read work counters from the return values.
Nothing under ``src/`` is edited: the wrappers are installed by setting
module attributes, and :meth:`Tracer.uninstall` puts every original back
before an untraced iteration runs.

Each target names the module bindings it replaces.  A function is wrapped
where its callers look it up: ``derive_rng`` in every module that imported
it, ``run_walk`` in ``sqwalk`` (called by ``run_ensemble``), the qmath
validators as bound in ``measure`` and ``kraus``, and so on.  ``phi_scan``
is wrapped only as bound in ``cli``, so the one-row scan inside ``run_rus``
stays part of the RUS span.  A binding a later version no longer has is
skipped and listed in :attr:`Tracer.missing`.

Spans live in flat arrays in memory and are written out once, at the end.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


def _walk_counts(r, c):
    c["steps"] += r.steps
    c["cutoffs"] += not r.hit


def _chain_counts(r, c):
    c["rounds"] += r.steps_used


def _rus_counts(r, c):
    c["attempts"] += r.attempts
    c["exhausted"] += not r.success
    c["successes"] += bool(r.success)


def _scan_counts(rows, c):
    c["rows"] += len(rows)


# (span name, modules whose binding is replaced, attribute, counter or None)
TARGETS = [
    ("cli.main", ("cli",), "main", None),
    ("seeding.derive_rng", ("sqwalk", "measure", "egg", "cli"), "derive_rng", None),
    ("sqwalk.run_ensemble", ("cli",), "run_ensemble", None),
    ("sqwalk.run_walk", ("sqwalk",), "run_walk", _walk_counts),
    ("sqwalk.histogram", ("cli",), "histogram", None),
    ("sqwalk.fit_exponential", ("cli",), "fit_exponential", None),
    ("sqwalk.log_linear_r2", ("cli",), "log_linear_r2", None),
    ("measure.measurement_ensemble", ("cli",), "measurement_ensemble", None),
    ("measure.run_measurement", ("measure",), "run_measurement", _chain_counts),
    ("qmath.as_state", ("measure", "kraus"), "as_state", None),
    ("qmath.as_unitary", ("measure", "kraus"), "as_unitary", None),
    ("egg.run_rus", ("cli",), "run_rus", _rus_counts),
    ("egg.phi_scan", ("cli",), "phi_scan", _scan_counts),
    ("egg.find_balanced_beta", ("cli",), "find_balanced_beta", None),
    ("kraus.kraus_for", ("kraus", "sqwalk", "cli"), "kraus_for", None),
    ("kraus.program_deterministic", ("kraus",), "program_deterministic", None),
    ("interaction.normalize_params", ("interaction", "cli"), "normalize_params", None),
    ("interaction.classify", ("interaction", "cli"), "classify", None),
    ("svgplot.histogram_svg", ("cli",), "histogram_svg", None),
]

# Traced counter that must equal a work count read from the artifacts.
ARTIFACT_COUNTERS = {
    "steps": ("sqwalk.run_walk", "steps"),
    "rounds": ("measure.run_measurement", "rounds"),
    "attempts": ("egg.run_rus", "attempts"),
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.iterations = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, Counter] = {}
        self.iteration = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.iterations.append(self.iteration)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, count=None):
        name_id = self._name_id(name)
        counter = self.counters.setdefault(name, Counter())
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if count is not None:
                count(result, counter)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Replace every target binding in ``modules`` (name -> module)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, mods, attr, count in TARGETS:
            for mod_name in mods:
                mod = modules[mod_name]
                if not hasattr(mod, attr):
                    if f"{mod_name}.{attr}" not in self.missing:
                        self.missing.append(f"{mod_name}.{attr}")
                    continue
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        """Put every replaced binding back, last replaced first."""
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def counter(self, name: str, key: str) -> int:
        return self.counters.get(name, Counter())[key]

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "iteration": np.frombuffer(self.iterations, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def by_name(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name."""
    s = tracer.spans()
    n = len(tracer.names)
    own = self_times(s["parent"], s["start"], s["end"])
    calls = np.bincount(s["name_id"], minlength=n)
    total = np.bincount(s["name_id"], weights=s["end"] - s["start"], minlength=n)
    self_s = np.bincount(s["name_id"], weights=own, minlength=n)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(tracer.names)
    }


# Per-layer metrics: (name, unit, better, end-to-end metric and workload it should move).
LAYER_METRICS = [
    ("seeding.streams", "count", "lower", "wall_s on weak-chain and egg-rus (one stream per trial); not on walk"),
    ("seeding.self_s", "s", "lower", "wall_s on weak-chain and egg-rus; not on walk"),
    ("seeding.us_per_stream", "us", "lower", "wall_s on weak-chain and egg-rus; not on walk"),
    ("sqwalk.walks", "count", "higher", "wall_s on walk only"),
    ("sqwalk.steps", "count", "lower", "wall_s on walk only"),
    ("sqwalk.cutoffs", "count", "lower", "wall_s on walk only (walks stopped at max_steps)"),
    ("sqwalk.kernel_s", "s", "lower", "wall_s on walk only (self time of run_walk)"),
    ("sqwalk.ns_per_step", "ns", "lower", "wall_s on walk only"),
    ("sqwalk.summary_s", "s", "lower", "wall_s on walk only (histogram, fit and R^2)"),
    ("measure.chains", "count", "higher", "wall_s on weak-chain"),
    ("measure.rounds", "count", "lower", "wall_s on weak-chain"),
    ("measure.chain_s", "s", "lower", "wall_s on weak-chain (self time of run_measurement)"),
    ("measure.us_per_round", "us", "lower", "wall_s on weak-chain"),
    ("qmath.as_state.calls", "count", "lower", "wall_s on weak-chain and analytic-sweep"),
    ("qmath.as_state.self_s", "s", "lower", "wall_s on weak-chain and analytic-sweep"),
    ("qmath.as_unitary.calls", "count", "lower", "wall_s on weak-chain and analytic-sweep"),
    ("qmath.as_unitary.self_s", "s", "lower", "wall_s on weak-chain and analytic-sweep"),
    ("egg.rus_trials", "count", "higher", "wall_s on egg-rus"),
    ("egg.rus_attempts", "count", "lower", "wall_s on egg-rus"),
    ("egg.rus_exhausted", "count", "lower", "wall_s on egg-rus (runs that used up max_attempts)"),
    ("egg.success_per_attempt", "ratio", "higher", "wall_s on egg-rus (expected 2 p+ p- = 0.1277)"),
    ("egg.rus_s", "s", "lower", "wall_s on egg-rus (self time of run_rus)"),
    ("egg.us_per_attempt", "us", "lower", "wall_s on egg-rus"),
    ("egg.scan_rows", "count", "higher", "wall_s on analytic-sweep"),
    ("egg.scan_s", "s", "lower", "wall_s on analytic-sweep"),
    ("egg.balance_s", "s", "lower", "wall_s on analytic-sweep"),
    ("kraus.calls", "count", "lower", "wall_s on analytic-sweep (2 calls on walk)"),
    ("kraus.self_s", "s", "lower", "wall_s on analytic-sweep"),
    ("kraus.us_per_call", "us", "lower", "wall_s on analytic-sweep"),
    ("kraus.program_calls", "count", "lower", "wall_s on analytic-sweep"),
    ("kraus.program_s", "s", "lower", "wall_s on analytic-sweep"),
    ("interaction.calls", "count", "lower", "wall_s on analytic-sweep"),
    ("interaction.self_s", "s", "lower", "wall_s on analytic-sweep"),
    ("svgplot.self_s", "s", "lower", "wall_s on walk"),
    ("cli.self_s", "s", "lower", "wall_s, peak_rss_mb and output_bytes on egg-rus, weak-chain and analytic-sweep; barely on walk"),
    ("cli.bytes_written", "bytes", "lower", "output_bytes and wall_s on egg-rus, weak-chain and analytic-sweep"),
    ("cli.MB_per_s", "MB/s", "higher", "wall_s on egg-rus, weak-chain and analytic-sweep"),
]


def layer_metrics(tracer: Tracer, iterations: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics per traced iteration; ratios from the run's totals.

    A ratio whose base is zero (the layer did not run) reads 0.
    """
    spans = by_name(tracer)

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def own(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    c = tracer.counter
    streams, stream_s = calls("seeding.derive_rng"), own("seeding.derive_rng")
    walks, steps, kernel_s = calls("sqwalk.run_walk"), c("sqwalk.run_walk", "steps"), own("sqwalk.run_walk")
    chains, rounds, chain_s = (
        calls("measure.run_measurement"), c("measure.run_measurement", "rounds"),
        own("measure.run_measurement"),
    )
    rus_trials, attempts, rus_s = calls("egg.run_rus"), c("egg.run_rus", "attempts"), own("egg.run_rus")
    kcalls, kself = calls("kraus.kraus_for"), own("kraus.kraus_for")
    cli_s = own("cli.main")
    total = {
        "seeding.streams": streams,
        "seeding.self_s": stream_s,
        "sqwalk.walks": walks,
        "sqwalk.steps": steps,
        "sqwalk.cutoffs": c("sqwalk.run_walk", "cutoffs"),
        "sqwalk.kernel_s": kernel_s,
        "sqwalk.summary_s": own("sqwalk.histogram", "sqwalk.fit_exponential", "sqwalk.log_linear_r2"),
        "measure.chains": chains,
        "measure.rounds": rounds,
        "measure.chain_s": chain_s,
        "qmath.as_state.calls": calls("qmath.as_state"),
        "qmath.as_state.self_s": own("qmath.as_state"),
        "qmath.as_unitary.calls": calls("qmath.as_unitary"),
        "qmath.as_unitary.self_s": own("qmath.as_unitary"),
        "egg.rus_trials": rus_trials,
        "egg.rus_attempts": attempts,
        "egg.rus_exhausted": c("egg.run_rus", "exhausted"),
        "egg.rus_s": rus_s,
        "egg.scan_rows": c("egg.phi_scan", "rows"),
        "egg.scan_s": own("egg.phi_scan"),
        "egg.balance_s": own("egg.find_balanced_beta"),
        "kraus.calls": kcalls,
        "kraus.self_s": kself,
        "kraus.program_calls": calls("kraus.program_deterministic"),
        "kraus.program_s": own("kraus.program_deterministic"),
        "interaction.calls": calls("interaction.normalize_params", "interaction.classify"),
        "interaction.self_s": own("interaction.normalize_params", "interaction.classify"),
        "svgplot.self_s": own("svgplot.histogram_svg"),
        "cli.self_s": cli_s,
        "cli.bytes_written": bytes_written,
    }
    out = {name: float(v) / iterations for name, v in total.items()}
    out.update({
        "seeding.us_per_stream": ratio(stream_s, streams, 1e6),
        "sqwalk.ns_per_step": ratio(kernel_s, steps, 1e9),
        "measure.us_per_round": ratio(chain_s, rounds, 1e6),
        "egg.success_per_attempt": ratio(c("egg.run_rus", "successes"), attempts),
        "egg.us_per_attempt": ratio(rus_s, attempts, 1e6),
        "kraus.us_per_call": ratio(kself, kcalls, 1e6),
        "cli.MB_per_s": ratio(bytes_written, cli_s, 1e-6),
    })
    return {name: out[name] for name, *_ in LAYER_METRICS}
