"""Output checks for the benchmark's artifacts.

Every check is written against the artifact formats and the physics, not
against a particular random stream: a change to how trials draw their
random numbers moves the artifacts but must not make a check fail.  The
analytic references (Born weights, RUS success probability, balanced
phase) are computed here with plain numpy instead of through adqcsim, so
the program is not checked against itself.

A failed check raises :class:`CheckError`.  Successful checks return the
work counts read from the artifacts (walks, steps, rounds, attempts),
which feed the run record and are compared with the traced counters.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

SIGMAS = 4.0
PHASE_TOL = 1e-6
COMPLETENESS_TOL = 1e-10
UNITARY_TOL = 1e-10


class CheckError(Exception):
    """An artifact or a library result is wrong."""


def _reject_constant(token: str):
    raise CheckError(f"non-standard JSON token {token}")


def load_json(path: Path):
    """Parse a JSON artifact, rejecting NaN and Infinity."""
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def read_csv(path: Path, header: list[str], rows: int) -> list[list[str]]:
    """Rows of a CSV artifact after checking its header and row count."""
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    if not table or table[0] != header:
        raise CheckError(f"{path.name}: header {table[:1]} != {header}")
    body = table[1:]
    if len(body) != rows:
        raise CheckError(f"{path.name}: {len(body)} rows, expected {rows}")
    return body


def finite(path: Path, text: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise CheckError(f"{path.name}: {text!r} is not a number") from exc
    if not math.isfinite(x):
        raise CheckError(f"{path.name}: non-finite value {text}")
    return x


def within_sigmas(what: str, observed: float, expected: float, sigma: float) -> None:
    if abs(observed - expected) > SIGMAS * sigma:
        raise CheckError(
            f"{what}: observed {observed:.6g}, expected {expected:.6g} "
            f"+/- {SIGMAS:g} x {sigma:.3g}"
        )


# ---------------------------------------------------------------------------
# closed forms, independent of adqcsim


def delta_phi_raw(alpha: float, beta: float) -> float:
    """Unwrapped outcome-phase difference; pi at the balanced point."""
    a, b = alpha + beta, alpha - beta
    phi_plus = np.angle(np.cos(a) - 1j * np.cos(b))
    phi_minus = np.angle(-1j * np.sin(a) - np.sin(b))
    return float(4.0 * (phi_plus - phi_minus))


def rus_success_probability(alpha: float, beta: float) -> float:
    """2 p+ p- with p+ = (cos^2(alpha + beta) + cos^2(alpha - beta)) / 2."""
    p_plus = (np.cos(alpha + beta) ** 2 + np.cos(alpha - beta) ** 2) / 2
    return float(2 * p_plus * (1 - p_plus))


def weak_rounds(theta: float, epsilon: float) -> int:
    """Smallest n with cos^n(theta/2) <= epsilon."""
    return max(1, math.ceil(math.log(epsilon) / math.log(math.cos(theta / 2))))


def born_label_one(state: tuple[float, float], theta: float, n: int) -> float:
    """|beta|^2 (1 - cos^(2n)(theta/2)) for the Bloch state (polar, azimuth)."""
    beta_sq = math.sin(state[0] / 2) ** 2
    return beta_sq * (1 - math.cos(theta / 2) ** (2 * n))


def check_balanced(what: str, alpha: float, beta: float) -> None:
    err = abs(delta_phi_raw(alpha, beta) - math.pi)
    if err > PHASE_TOL:
        raise CheckError(f"{what}: delta_phi_raw at beta {beta!r} is off pi by {err:.3g}")


# ---------------------------------------------------------------------------
# per-command artifacts

WALK_HEADER = ["trial", "steps", "hit", "final_distance"]
MEASURE_HEADER = ["trial", "label", "steps", "residual_bound"]
SCAN_HEADER = [
    "beta", "phi_plus", "phi_minus", "delta_phi", "p_plus", "p_minus", "success_prob",
]


def check_walk(out: Path, trials: int) -> dict:
    """walk --format both --svg: CSV, summary JSON, manifest and SVG agree."""
    csv_path = out / "walk.csv"
    rows = read_csv(csv_path, WALK_HEADER, trials)
    steps = hits = 0
    for t, row in enumerate(rows):
        if int(row[0]) != t or row[2] not in ("0", "1"):
            raise CheckError(f"walk.csv: malformed row {row}")
        steps += int(row[1])
        hits += row[2] == "1"
        finite(csv_path, row[3])
    summary = load_json(out / "walk.json")
    if summary.get("trials") != trials or summary.get("hits") != hits:
        raise CheckError(
            f"walk.json: trials/hits {summary.get('trials')}/{summary.get('hits')}"
            f" but walk.csv has {trials}/{hits}"
        )
    if hits and sum(summary["histogram"]["counts"]) != hits:
        raise CheckError("walk.json: histogram counts do not sum to the hits")
    manifest = load_json(out / "walk_manifest.json")
    if sorted(manifest.get("outputs", [])) != ["walk.csv", "walk.json", "walk.svg"]:
        raise CheckError(f"walk_manifest.json: outputs {manifest.get('outputs')}")
    try:
        ET.parse(out / "walk.svg")
    except (OSError, ET.ParseError) as exc:
        raise CheckError(f"walk.svg: {exc}") from exc
    return {"walks": trials, "steps": steps, "cutoffs": trials - hits}


def check_measure(
    out: Path, trials: int, theta: float, epsilon: float
) -> dict:
    """measure: labels, chain lengths and the summary agree with each other."""
    n = weak_rounds(theta, epsilon)
    csv_path = out / "measure.csv"
    rows = read_csv(csv_path, MEASURE_HEADER, trials)
    rounds = ones = 0
    for t, row in enumerate(rows):
        label, used = int(row[1]), int(row[2])
        if int(row[0]) != t or label not in (0, 1):
            raise CheckError(f"measure.csv: malformed row {row}")
        if not 1 <= used <= n or (label == 0 and used != n):
            raise CheckError(f"measure.csv: label {label} after {used} of {n} rounds")
        finite(csv_path, row[3])
        rounds += used
        ones += label
    summary = load_json(out / "measure.json")
    if summary.get("required_steps") != n or summary.get("trials") != trials:
        raise CheckError(
            f"measure.json: required_steps/trials {summary.get('required_steps')}"
            f"/{summary.get('trials')}, expected {n}/{trials}"
        )
    if abs(summary["label_frequencies"]["1"] - ones / trials) > 1e-12:
        raise CheckError("measure.json: label-1 frequency disagrees with measure.csv")
    load_json(out / "measure_manifest.json")
    return {"chains": trials, "rounds": rounds, "ones": ones}


def check_born(ones: int, chains: int, state: tuple[float, float], theta: float,
               epsilon: float) -> None:
    """Pooled label-1 frequency within SIGMAS of the Born value."""
    p = born_label_one(state, theta, weak_rounds(theta, epsilon))
    within_sigmas("label-1 frequency", ones / chains, p, math.sqrt(p * (1 - p) / chains))


def check_rus(out: Path, trials: int) -> dict:
    """egg-rus: every trial succeeds and every logged phase is +/-pi or 0."""
    payload = load_json(out / "egg-rus.json")
    alpha, beta = payload["alpha"], payload["beta"]
    check_balanced("egg-rus.json", alpha, beta)
    records = payload["trials"]
    if len(records) != trials or not payload.get("all_succeeded"):
        raise CheckError(f"egg-rus.json: {len(records)} trials, all_succeeded "
                         f"{payload.get('all_succeeded')}")
    attempts = 0
    for t, rec in enumerate(records):
        log = rec["log"]
        if rec["trial"] != t or not rec["success"] or rec["attempts"] != len(log):
            raise CheckError(f"egg-rus.json: trial {t} did not succeed cleanly")
        for k, entry in enumerate(log, start=1):
            success = entry["outcome_first"] != entry["outcome_second"]
            phase = entry["combined_phase"]
            if entry["attempt"] != k or entry["success"] != success or success != (k == len(log)):
                raise CheckError(f"egg-rus.json: trial {t} attempt {k} is inconsistent")
            off = abs(abs(phase) - math.pi) if success else abs(phase)
            if off > PHASE_TOL:
                raise CheckError(
                    f"egg-rus.json: trial {t} attempt {k} has combined phase {phase!r}"
                )
        attempts += len(log)
    load_json(out / "egg-rus_manifest.json")
    return {"rus_trials": trials, "attempts": attempts}


def balanced_beta(alpha: float) -> float:
    """Root of delta_phi_raw(alpha, beta) = pi on (0, alpha] by bisection.

    delta_phi_raw falls from 2 pi at beta = 0, so the root is bracketed
    whenever it is below pi at beta = alpha.
    """
    lo, hi = 0.0, alpha
    if delta_phi_raw(alpha, hi) > math.pi:
        raise CheckError(f"no balanced point for alpha {alpha!r}")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if delta_phi_raw(alpha, mid) > math.pi else (lo, mid)
    return 0.5 * (lo + hi)


def check_mean_attempts(attempts: int, trials: int, alpha: float) -> None:
    """Pooled mean attempts within SIGMAS of the geometric mean 1/(2 p+ p-)."""
    q = rus_success_probability(alpha, balanced_beta(alpha))
    sigma = math.sqrt((1 - q) / q**2 / trials)
    within_sigmas("mean RUS attempts", attempts / trials, 1 / q, sigma)


def check_scan(out: Path, samples: int) -> dict:
    """egg-scan: the grid has one row per sample and beta* is balanced."""
    csv_path = out / "egg-scan.csv"
    for row in read_csv(csv_path, SCAN_HEADER, samples):
        for cell in row:
            finite(csv_path, cell)
    summary = load_json(out / "egg-scan.json")
    check_balanced("egg-scan.json", summary["alpha"], summary["beta_star"])
    load_json(out / "egg-scan_manifest.json")
    return {"scan_rows": samples}


# ---------------------------------------------------------------------------
# library results


def check_kraus_completeness(outcomes) -> None:
    """sum_m K_m^dag K_m = I within COMPLETENESS_TOL."""
    total = sum(o.operator.conj().T @ o.operator for o in outcomes)
    err = float(np.max(np.abs(total - np.eye(2))))
    if err > COMPLETENESS_TOL:
        raise CheckError(f"Kraus completeness violated by {err:.3g}")


def check_idempotent(first, second) -> None:
    """normalize_params applied to its own output returns that output."""
    if max(abs(a - b) for a, b in zip(first, second)) > 1e-12:
        raise CheckError(f"normalize_params not idempotent: {tuple(first)} -> {tuple(second)}")


def check_unitary(u: np.ndarray) -> None:
    err = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
    if err > UNITARY_TOL:
        raise CheckError(f"programmed gate is not unitary (error {err:.3g})")
