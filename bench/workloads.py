"""The benchmark's four workloads.

Each workload is a closed loop with one client: an iteration calls the
package's public surface (``adqcsim.cli.main`` and, for the analytic
sweep, the library functions the demos use) and the next iteration starts
when it returns.  Iteration ``i`` of a run with seed ``s`` draws its
inputs from ``numpy.random.default_rng([s, i])``; the program sees only
those inputs.

An iteration has a timed part (:meth:`Workload.execute`) and an untimed
part (:meth:`Workload.verify`) that checks what the timed part produced.
Every CLI call writes into its own sub-directory of the iteration's
output directory, named after the operation, so artifacts can be hashed
per command line.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from adqcsim import cli, interaction, kraus

import checks

THETA = math.pi / 4
EPSILON = 0.05
ALPHA = math.pi / 16
PLUS = (math.pi / 2, 0.0)
CHECK_ERRORS = (checks.CheckError, KeyError, TypeError, ValueError, IndexError)


class Ops:
    """Counts operations attempted and failed; one CLI call or library call each."""

    MAX_ERRORS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(message)

    def main(self, argv: list[str]) -> bool:
        """Run ``cli.main``; a non-zero exit or an exception is a failure."""
        self.attempted += 1
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            rc = exc.code
        except Exception as exc:  # the operation boundary: count it and go on
            self.fail(f"{argv[0]}: {exc!r}")
            return False
        if rc != 0:
            self.fail(f"{argv[0]}: exit code {rc}")
            return False
        return True

    def call(self, fn, *args):
        """One library call; returns None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the operation boundary: count it and go on
            self.fail(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def check(self, what: str, fn, *args):
        """Run an output check on a successful operation; a failure fails it."""
        try:
            return fn(*args)
        except CHECK_ERRORS as exc:
            self.fail(f"{what}: {exc}")
            return None


class Workload:
    """Sizes, inputs, timed part and output checks of one workload."""

    name = ""
    why = ""

    def __init__(self, **sizes):
        self.sizes = {**self.default_sizes(), **sizes}

    def default_sizes(self) -> dict:
        raise NotImplementedError

    def inputs(self, seed: int, iteration: int) -> dict:
        """``{"cli": {op: argv}}`` plus any library inputs, all drawn from the seed."""
        rng = np.random.default_rng([seed, iteration])
        return self.draw(rng)

    def draw(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def execute(self, inp: dict, out: Path, ops: Ops) -> dict:
        """Timed part: run every CLI call, then any library sweep."""
        raw = {op: ops.main(argv + ["--out-dir", str(out / op)]) for op, argv in inp["cli"].items()}
        raw.update(self.library(inp, ops))
        return raw

    def library(self, inp: dict, ops: Ops) -> dict:
        return {}

    def verify(self, inp: dict, out: Path, raw: dict, ops: Ops) -> dict:
        """Untimed part: check the artifacts and results, return work counts.

        A CLI call whose artifacts fail a check is marked failed in ``raw``.
        """
        counts: dict[str, int] = {}
        for op in inp["cli"]:
            if raw[op]:
                got = ops.check(op, self.check_artifacts, out / op)
                raw[op] = got is not None
                for key, value in (got or {}).items():
                    counts[key] = counts.get(key, 0) + value
        return counts

    def check_artifacts(self, out: Path) -> dict:
        raise NotImplementedError

    def pooled(self, totals: dict) -> None:
        """Statistical checks on the counts pooled over a run's iterations."""


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


class Walk(Workload):
    name = "walk"
    why = (
        "random-walk gate synthesis, both presets at eps=0.05 with SVG and CSV+JSON: "
        "the sqwalk step kernel does nearly all the work, with few RNG streams and little output"
    )

    def default_sizes(self):
        return {"trials": 100, "epsilon": EPSILON, "presets": ["one-param", "two-param"]}

    def draw(self, rng):
        return {
            "cli": {
                preset: [
                    "walk", "--preset", preset, "--epsilon", repr(self.sizes["epsilon"]),
                    "--trials", str(self.sizes["trials"]), "--svg", "--format", "both",
                    "--seed", _seed(rng),
                ]
                for preset in self.sizes["presets"]
            }
        }

    def check_artifacts(self, out):
        return checks.check_walk(out, self.sizes["trials"])


class WeakChain(Workload):
    name = "weak-chain"
    why = (
        "weak z-measurement chains, theta=pi/4, eps=0.05 (n=38) on |+>: half the chains run "
        "all rounds, half stop early; one stream per trial and a CSV row per trial"
    )

    def default_sizes(self):
        return {"trials": 5000, "theta": THETA, "epsilon": EPSILON, "state": list(PLUS)}

    def draw(self, rng):
        s = self.sizes
        return {
            "cli": {
                "measure": [
                    "measure", "--theta", repr(s["theta"]), "--epsilon", repr(s["epsilon"]),
                    "--state", repr(s["state"][0]), repr(s["state"][1]),
                    "--trials", str(s["trials"]), "--seed", _seed(rng),
                ]
            }
        }

    def check_artifacts(self, out):
        s = self.sizes
        return checks.check_measure(out, s["trials"], s["theta"], s["epsilon"])

    def pooled(self, totals):
        s = self.sizes
        if totals.get("chains"):
            checks.check_born(totals["ones"], totals["chains"], tuple(s["state"]),
                              s["theta"], s["epsilon"])


class EggRus(Workload):
    name = "egg-rus"
    why = (
        "repeat-until-success CZ at the balanced point alpha=pi/16 with the per-attempt log: "
        "light RNG work per trial, heavy JSON output and memory"
    )

    def default_sizes(self):
        return {"trials": 8000, "alpha": ALPHA}

    def draw(self, rng):
        s = self.sizes
        return {
            "cli": {
                "egg-rus": [
                    "egg-rus", "--alpha", repr(s["alpha"]), "--trials", str(s["trials"]),
                    "--seed", _seed(rng),
                ]
            }
        }

    def check_artifacts(self, out):
        return checks.check_rus(out, self.sizes["trials"])

    def pooled(self, totals):
        if totals.get("rus_trials"):
            checks.check_mean_attempts(totals["attempts"], totals["rus_trials"],
                                       self.sizes["alpha"])


class AnalyticSweep(Workload):
    name = "analytic-sweep"
    why = (
        "egg-scan on a dense beta grid plus seeded library sweeps of normalize_params, "
        "classify, kraus_for and program_deterministic: the only load on interaction and kraus"
    )

    def default_sizes(self):
        return {"samples": 20001, "alpha": ALPHA, "triples": 4000, "kraus": 4000,
                "programs": 2000, "max_bits": 32}

    def draw(self, rng):
        s = self.sizes
        lengths = rng.integers(1, s["max_bits"] + 1, size=s["programs"])
        return {
            "cli": {
                "egg-scan": [
                    "egg-scan", "--alpha", repr(s["alpha"]), "--samples", str(s["samples"]),
                ]
            },
            "triples": rng.uniform(-math.pi, math.pi, size=(s["triples"], 3)).tolist(),
            "kraus": [
                (haar_unitary(rng, 4), haar_state(rng), tuple(haar_unitary(rng, 2).T))
                for _ in range(s["kraus"])
            ],
            "programs": ["".join(map(str, rng.integers(0, 2, size=n))) for n in lengths],
        }

    def library(self, inp, ops):
        return {
            "normalized": [ops.call(interaction.normalize_params, *t) for t in inp["triples"]],
            "classified": [ops.call(interaction.classify, *t) for t in inp["triples"]],
            "kraus": [ops.call(kraus.kraus_for, *args) for args in inp["kraus"]],
            "programs": [ops.call(kraus.program_deterministic, bits) for bits in inp["programs"]],
        }

    def check_artifacts(self, out):
        return checks.check_scan(out, self.sizes["samples"])

    def verify(self, inp, out, raw, ops):
        counts = super().verify(inp, out, raw, ops)
        for norm, cls in zip(raw["normalized"], raw["classified"]):
            if norm is not None:
                ops.check("normalize_params", _check_normalized, norm[0], cls)
        for outcomes in raw["kraus"]:
            if outcomes is not None:
                ops.check("kraus_for", checks.check_kraus_completeness, outcomes)
        for u in raw["programs"]:
            if u is not None:
                ops.check("program_deterministic", checks.check_unitary, u)
        counts["library_calls"] = sum(
            len(raw[k]) for k in ("normalized", "classified", "kraus", "programs")
        )
        return counts


def _check_normalized(canon, cls) -> None:
    checks.check_idempotent(canon, interaction.normalize_params(*canon)[0])
    if cls is not None:
        checks.check_idempotent(canon, cls.params)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the phases of R fixed."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_state(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


WORKLOADS = {w.name: w for w in (Walk, WeakChain, EggRus, AnalyticSweep)}
