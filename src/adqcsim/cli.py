"""Command-line surface: reproducible experiments with file outputs.

Subcommands: classify, kraus, walk, egg-scan, egg-rus, measure.  Every
subcommand takes --out-dir.  Only those that draw random numbers (walk,
egg-rus, measure) take --seed, and only those that write a CSV (walk,
egg-scan, measure) take --format to pick CSV, JSON summary or both; any
other combination is an argument error.

Every subcommand computes first and returns its artifacts and its stdout
text; :func:`main` then writes the artifacts as ``<subcommand>.<suffix>``
under --out-dir with a manifest beside them recording the subcommand, its
parameters (--seed among them, --out-dir relative to the working
directory), the package version and the output names, and only then
prints.  A CSV is encoded a block of rows at a time as it is written
(:func:`_csv_chunks`), and egg-rus's log a block of trials at a time
(:func:`_rus_chunks`), so no table is held whole as text; every other JSON
file is a summary of a few kB, written as one string by :func:`_json_text`.
All files go to temporaries first and are renamed into place together, so a
failed run, in the computation, encoding or writing, leaves no file, and
re-running the same manifest reproduces the files byte for byte.  A temporary
is written in 256 KiB blocks (``WRITE_BUFFER``), not text mode's 8 KiB ones.
classify and kraus print JSON and write it only under an explicit
--out-dir; the other four print one summary line and always write, into
the current directory by default.

Exit codes: 0 success, 2 argument error, 3 numeric failure (for example no
balanced operating point in the requested range, or an artifact value that
cannot be encoded, such as a NaN in strict JSON), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import operator
import os
import re
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .egg import (
    EggError,
    _rus_setup,
    find_balanced_beta,
    phi_scan,
    run_rus,
    success_probability,
)
from .interaction import classify, delta_gate, normalize_params
from .kraus import hh_crz_interaction, kraus_for
from .measure import (
    MeasureConfig,
    interaction_cost,
    measurement_ensemble,
    weak_interaction,
)
from .qmath import bloch_to_state, computational_basis, rx, x_basis
from .seeding import derive_rng
from .sqwalk import (
    WALK_PRESETS,
    fit_exponential,
    histogram,
    log_linear_r2,
    run_ensemble,
    walk_config,
)
from .svgplot import histogram_svg

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

CLI_CLASS_TOL = 1e-6
CSV_BLOCK = 1024  # lines per CSV chunk, and record-array rows per tolist()
RUS_CHUNK = 64  # egg-rus trials per log chunk
WRITE_BUFFER = 1 << 18  # bytes an artifact's temporary buffers per write call
_parser = functools.cache(lambda: build_parser())  # main's one parser; build_parser stays fresh

# kraus flags with their defaults, and the flags each preset does not read;
# kraus rejects any other value of an unread flag, so that a contradictory
# command cannot exit 0.  A walk preset pins interaction, ancilla and basis.
KRAUS_DEFAULTS = {
    "params": [0.0, 0.0, np.pi / 16],
    "ancilla": [np.pi / 2, 0.0],
    "basis": "computational",
    "theta": np.pi / 4,
}
KRAUS_IGNORED = {
    **dict.fromkeys(WALK_PRESETS, ("params", "ancilla", "basis", "theta")),
    "deterministic": ("params", "theta"),
    "weak": ("params", "ancilla", "basis"),
    "none": ("theta",),
}


class _Parser(argparse.ArgumentParser):
    """Reads a token such as -1e-05 or -inf as a negative number, not as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        digits = r"\d(_?\d)*"  # as float() reads them, in any case: 1_0, 1., .5, 1.e-5, inf
        number = rf"({digits}(\.({digits})?)?|\.{digits})(e[-+]?{digits})?|inf(inity)?|nan"
        self._negative_number_matcher = re.compile(rf"(?i)^-({number})$")


class NoHits(ValueError):
    """A walk ensemble without a single hit has no histogram to plot."""


class EncodingError(ValueError):
    """An artifact holds a value that its format cannot encode."""


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` and a newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _rus_chunks(summary: dict, trials, phases) -> Iterator[str]:
    """egg-rus's log, ``summary`` with ``"trials"``, as :func:`_json_text` writes it.

    The head, then ``RUS_CHUNK`` trials a chunk, then the tail.  Attempt k with
    pair code c = 2 m1 + m2 logs k, ``phases[c]``, m1, m2 and whether they
    differ.  A code's entry is made when a block first holds the code, and
    attempt k's texts, one per code seen so far, when a block first reaches
    k: at most four per attempt number are kept, and a trial's text lives
    only in its chunk.
    """
    head, tail = _json_text({**summary, "trials": [None]}).rsplit("\n    null", 1)
    opening = ',\n    {\n      "attempts": %d,\n      "log": [\n        '
    closing = '\n      ],\n      "success": %s,\n      "trial": %d\n    }'
    separator = ("", ",\n        ")  # before attempt 1, before every later one

    @functools.cache
    def entry(c: int) -> str:  # with %d for the attempt number
        m1, m2 = divmod(c, 2)  # "attempt" sorts before these keys
        fields = {"combined_phase": phases[c], "outcome_first": m1, "outcome_second": m2,
                  "success": m1 != m2}
        return ('{\n  "attempt": %d,' + _json_text(fields)[1:-1]).replace("\n", "\n" + " " * 8)

    seen: set[int] = set()
    rows: list[tuple] = []  # rows[k - 1][c]: attempt k's text, for each code in seen

    yield head
    trials = enumerate(trials)
    while block := list(itertools.islice(trials, RUS_CHUNK)):
        if not seen.issuperset(codes := b"".join([r.codes for _, r in block])):
            seen.update(codes)
            rows.clear()  # made again with the new codes' entries
        rows += [tuple(separator[k > 1] + entry(c) % k if c in seen else None for c in range(4))
                 for k in range(len(rows) + 1, max(len(r.codes) for _, r in block) + 1)]
        parts = []
        for t, r in block:
            parts.append(opening % r.attempts)
            parts += map(operator.getitem, rows, r.codes)
            parts.append(closing % (("false", "true")[r.success], t))
        parts[0] = parts[0][block[0][0] == 0 :]  # no "," before trial 0
        yield "".join(parts)
    yield tail


def _complex_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _csv_chunks(header, rows) -> Iterator[str]:
    """A CSV of ``header`` and the tuples ``rows`` as lazy chunks: the header, then
    runs of CSV_BLOCK lines.

    One %-format writes every row, with each column's kind taken from the
    first row: ``%d`` for bools and ints, ``%.17g`` for the rest.
    """
    yield ",".join(header) + "\n"
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    ints = (int, np.integer, np.bool_)
    fmt = ",".join("%d" if isinstance(v, ints) else "%.17g" for v in first) + "\n"
    lines = map(fmt.__mod__, itertools.chain([first], rows))
    while block := list(itertools.islice(lines, CSV_BLOCK)):
        yield "".join(block)


def _tables(args: argparse.Namespace, header, rows, summary: dict) -> dict:
    """The --format-selected artifacts: a CSV of ``rows`` and a JSON summary."""
    files = {}
    if args.format in ("csv", "both"):
        files["csv"] = _csv_chunks(header, rows)
    if args.format in ("json", "both"):
        files["json"] = map(_json_text, [summary])  # encoded as it is written
    return files


def _echo(args: argparse.Namespace, payload: dict) -> tuple[dict, str]:
    """Print ``payload``; write it as a file only under an explicit --out-dir."""
    text = _json_text(payload)
    return ({"json": [text]} if args.out_dir is not None else {}), text


def _write_outputs(args: argparse.Namespace, files: dict) -> None:
    """Write each artifact as ``<subcommand>.<suffix>`` and the manifest, all or none.

    Each artifact is an iterable of text chunks, written to a hidden temporary
    in --out-dir as it makes them; the temporaries are renamed into place once
    all are written.  If any step fails, every temporary and every file
    already renamed is removed, then each directory that this call made,
    deepest first, if it is empty, and the error propagates: a ValueError met
    while encoding as :class:`EncodingError`.
    """
    named = {f"{args.command}.{suffix}": chunks for suffix, chunks in files.items()}
    parameters = {k: v for k, v in vars(args).items() if k != "func"}
    # relative, so that the manifest does not depend on where the run sits
    out_dir = "." if args.out_dir is None else args.out_dir
    parameters["out_dir"] = os.path.relpath(out_dir)
    manifest = {
        "subcommand": args.command,
        "parameters": parameters,
        "version": __version__,
        "outputs": sorted(named),
    }
    named[f"{args.command}_manifest.json"] = map(_json_text, [manifest])
    out_dir = Path(out_dir)
    made: list[Path] = []  # directories made here, shallowest first
    written: list[Path] = []  # per file: its temporary, then its target once renamed
    try:
        for path in (*reversed(out_dir.parents), out_dir):
            with contextlib.suppress(FileExistsError):
                path.mkdir()
                made.append(path)
        for name, chunks in named.items():
            tmp = out_dir / f".{name}.{os.getpid()}.tmp"
            with open(tmp, "x", buffering=WRITE_BUFFER, newline="\n") as fh:
                written.append(tmp)
                try:
                    fh.writelines(chunks)
                except ValueError as exc:  # a value, not an argument, is at fault
                    raise EncodingError(f"{name}: {exc}") from exc
        for i, name in enumerate(named):
            os.replace(written[i], out_dir / name)
            written[i] = out_dir / name
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for path in reversed(made):
            with contextlib.suppress(OSError):  # not empty: someone else wrote there
                path.rmdir()
        raise


# ---------------------------------------------------------------------------
# subcommands: each returns (artifacts by suffix, as chunk iterables; stdout text)


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, str]:
    canon, moves = normalize_params(args.ax, args.ay, args.az)
    cls = classify(args.ax, args.ay, args.az, tol=args.tol)
    return _echo(
        args,
        {
            "input": [args.ax, args.ay, args.az],
            "normalized": [canon.ax, canon.ay, canon.az],
            "moves": moves,
            "class": cls.kind.value,
            "is_cz_class": cls.is_cz_class,
            "is_cz_swap_class": cls.is_cz_swap_class,
        },
    )


def _kraus_inputs(args: argparse.Namespace):
    if args.preset == "weak":
        ancilla, basis = bloch_to_state(np.pi / 2, 0.0), computational_basis()
        return weak_interaction(args.theta), ancilla, basis
    basis = {"computational": computational_basis(), "x": x_basis()}[args.basis]
    ancilla = bloch_to_state(args.ancilla[0], args.ancilla[1])
    if args.preset == "deterministic":
        return hh_crz_interaction(np.pi / 4), ancilla, basis
    return delta_gate(*args.params), ancilla, basis


def _cmd_kraus(args: argparse.Namespace) -> tuple[dict, str]:
    for name in KRAUS_IGNORED[args.preset]:
        if getattr(args, name) != KRAUS_DEFAULTS[name]:
            raise ValueError(f"--{name} has no effect under --preset {args.preset}")
    e, ancilla, basis = WALK_PRESETS.get(args.preset) or _kraus_inputs(args)
    outcomes = kraus_for(e, ancilla, basis)
    return _echo(
        args,
        {
            "interaction": _complex_matrix(e),
            "ancilla": _complex_matrix(ancilla.reshape(1, -1)),
            "outcomes": [
                {
                    "outcome": i,
                    "operator": _complex_matrix(o.operator),
                    "probability": o.probability,
                    "proportional_unitary": o.proportional_unitary,
                    "is_zero": o.is_zero,
                }
                for i, o in enumerate(outcomes)
            ],
        },
    )


def _cmd_walk(args: argparse.Namespace) -> tuple[dict, str]:
    if args.bins < 1:
        raise ValueError("bins must be >= 1")
    cfg = walk_config(
        args.preset,
        target=rx(args.target_rx),
        epsilon=args.epsilon,
        max_steps=args.max_steps,
    )
    results = run_ensemble(cfg, args.seed, args.trials)
    steps = [r.steps for r in results if r.hit]
    if args.svg and not steps:
        raise NoHits(f"no walk of {args.trials} hit the target: no histogram for --svg")

    summary: dict = {
        "preset": args.preset,
        "epsilon": args.epsilon,
        "trials": args.trials,
        "hits": len(steps),
    }
    if steps:
        hist = histogram(steps, args.bins)
        mean_steps = float(np.mean(steps))
        # every walk hit at step 0: no exponential to fit
        rate = fit_exponential(steps) if mean_steps > 0 else None
        summary.update(
            {
                "mean_steps": mean_steps,
                "lambda": rate,
                "histogram": {
                    "bin_edges": [float(e) for e in hist.bin_edges],
                    "counts": [int(c) for c in hist.counts],
                },
            }
        )
        try:
            summary["log_linear_r2"] = log_linear_r2(hist)
        except ValueError:
            summary["log_linear_r2"] = None
    files = _tables(
        args,
        ["trial", "steps", "hit", "final_distance"],
        ((t, r.steps, r.hit, r.final_distance) for t, r in enumerate(results)),
        summary,
    )
    if args.svg:
        files["svg"] = [histogram_svg(hist, rate, title=f"walk {args.preset}")]
    mean = f", mean steps {summary['mean_steps']:.1f}" if steps else ""
    return files, f"walk: {len(steps)}/{args.trials} hits{mean}\n"


def _cmd_egg_scan(args: argparse.Namespace) -> tuple[dict, str]:
    beta_max = args.beta_max if args.beta_max is not None else args.alpha
    rows = phi_scan(args.alpha, (args.beta_min, beta_max), args.samples)
    beta_star = find_balanced_beta(args.alpha, beta_max=beta_max)
    summary = {
        "alpha": args.alpha,
        "beta_star": beta_star,
        "delta_phi_at_beta_star": np.pi,
        "success_prob_at_beta_star": success_probability(args.alpha, beta_star),
    }
    # one block of rows at a time as Python tuples, not the whole scan
    blocks = (rows[k : k + CSV_BLOCK].tolist() for k in range(0, len(rows), CSV_BLOCK))
    files = _tables(args, rows.dtype.names, itertools.chain.from_iterable(blocks), summary)
    return files, (
        f"egg-scan: beta* = {beta_star:.6f}, success prob "
        f"{summary['success_prob_at_beta_star']:.6f}\n"
    )


def _cmd_egg_rus(args: argparse.Namespace) -> tuple[dict, str]:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    beta, _, phases = _rus_setup(args.alpha)  # checks alpha
    trials = [
        run_rus(args.alpha, derive_rng(args.seed, t), args.max_attempts)
        for t in range(args.trials)
    ]
    summary = {
        "alpha": args.alpha,
        "beta": beta,
        "analytic_success_prob": success_probability(args.alpha, beta),
        "mean_attempts": float(np.mean([r.attempts for r in trials])),
        "all_succeeded": all(r.success for r in trials),
    }
    return {"json": _rus_chunks(summary, trials, phases)}, (
        f"egg-rus: mean attempts {summary['mean_attempts']:.2f} "
        f"(analytic {1 / summary['analytic_success_prob']:.2f})\n"
    )


def _cmd_measure(args: argparse.Namespace) -> tuple[dict, str]:
    cfg = MeasureConfig(theta=args.theta, epsilon=args.epsilon)
    state = bloch_to_state(args.state[0], args.state[1])
    results = measurement_ensemble(state, cfg, args.seed, args.trials)
    n = cfg.n_steps
    labels = np.array([r.label for r in results])
    summary = {
        "theta": cfg.theta,
        "epsilon": args.epsilon,
        "required_steps": n,
        "interaction_cost": interaction_cost(n),
        "trials": args.trials,
        "label_frequencies": {
            "0": float(np.mean(labels == 0)),
            "1": float(np.mean(labels == 1)),
        },
        "mislabel_bound_for_one_input": float(np.cos(cfg.theta / 2) ** (2 * n)),
    }
    files = _tables(
        args,
        ["trial", "label", "steps", "residual_bound"],
        ((t, r.label, r.steps_used, r.residual_bound) for t, r in enumerate(results)),
        summary,
    )
    freq = summary["label_frequencies"]
    return files, (
        f"measure: n = {n}, label frequencies 0: {freq['0']:.4f}, 1: {freq['1']:.4f}\n"
    )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adqcsim",
        description="Simulator for ancilla-driven quantum computation "
        "with arbitrary-strength entangling interactions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool, fmt: bool) -> None:
        """--out-dir always; --seed where the run draws, --format where it has a CSV."""
        if seed:
            p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument(
            "--out-dir",
            help="directory for output files (default: the current directory; "
            "classify and kraus write files only when it is given)",
        )
        if fmt:
            p.add_argument(
                "--format",
                choices=("csv", "json", "both"),
                default="both",
                help="which tabular outputs to write",
            )

    p = sub.add_parser("classify", help="canonicalize and classify interaction parameters")
    p.add_argument("ax", type=float)
    p.add_argument("ay", type=float)
    p.add_argument("az", type=float)
    p.add_argument("--tol", type=float, default=CLI_CLASS_TOL,
                   help="tolerance for zero/special-class tests on typed-in decimals")
    common(p, seed=False, fmt=False)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("kraus", help="measurement-induced register operators")
    p.add_argument("--preset", choices=tuple(KRAUS_IGNORED), default="none")
    p.add_argument("--params", type=float, nargs=3, default=KRAUS_DEFAULTS["params"],
                   metavar=("AX", "AY", "AZ"))
    p.add_argument("--ancilla", type=float, nargs=2, default=KRAUS_DEFAULTS["ancilla"],
                   metavar=("THETA", "PHI"), help="ancilla Bloch angles")
    p.add_argument("--basis", choices=("computational", "x"),
                   default=KRAUS_DEFAULTS["basis"])
    p.add_argument("--theta", type=float, default=KRAUS_DEFAULTS["theta"],
                   help="C-Rz angle for the weak preset")
    common(p, seed=False, fmt=False)
    p.set_defaults(func=_cmd_kraus)

    p = sub.add_parser("walk", help="stochastic gate-product walks to a target")
    p.add_argument("--preset", choices=tuple(WALK_PRESETS), default="one-param")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--target-rx", type=float, default=np.pi / 2,
                   help="target is rx of this angle")
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--svg", action="store_true", help="also write an SVG histogram")
    common(p, seed=True, fmt=True)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("egg-scan", help="outcome phases over the preparation split")
    p.add_argument("--alpha", type=float, default=np.pi / 16)
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=101)
    common(p, seed=False, fmt=True)
    p.set_defaults(func=_cmd_egg_scan)

    p = sub.add_parser("egg-rus", help="repeat-until-success CZ at the balanced point")
    p.add_argument("--alpha", type=float, default=np.pi / 16)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-attempts", type=int, default=1000)
    common(p, seed=True, fmt=False)
    p.set_defaults(func=_cmd_egg_rus)

    p = sub.add_parser("measure", help="iterative weak z-measurement chains")
    p.add_argument("--theta", type=float, default=np.pi / 4)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--state", type=float, nargs=2, default=[np.pi / 2, 0.0],
                   metavar=("THETA", "PHI"), help="input register Bloch angles")
    p.add_argument("--trials", type=int, default=1000)
    common(p, seed=True, fmt=True)
    p.set_defaults(func=_cmd_measure)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        files, text = args.func(args)
        if files:
            _write_outputs(args, files)
    except (EggError, NoHits, EncodingError) as exc:
        sys.stderr.write(_json_text({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_NUMERIC
    except ValueError as exc:
        sys.stderr.write(_json_text({"error": "ArgumentError", "message": str(exc)}))
        return EXIT_ARGS
    except OSError as exc:
        sys.stderr.write(_json_text({"error": "IOError", "message": str(exc)}))
        return EXIT_IO
    sys.stdout.write(text)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())
