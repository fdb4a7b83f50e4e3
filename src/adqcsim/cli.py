"""Command-line surface: reproducible experiments with file outputs.

Subcommands: classify, kraus, walk, egg-scan, egg-rus, measure.  Global
flags --seed, --out-dir and --format control randomness and serialization.

Every subcommand computes first and returns its artifacts and its stdout
text; :func:`main` then writes the artifacts as ``<subcommand>.<suffix>``
under --out-dir, writes a manifest beside them recording the subcommand,
parameters, seed, package version and output names, and only then prints.
So a failed run leaves no file, and re-running the same manifest
reproduces the files byte for byte.  classify and kraus print JSON and
write it only under an explicit --out-dir; the other four print one
summary line and always write, into the current directory by default.

Exit codes: 0 success, 2 argument error, 3 numeric failure (for example no
balanced operating point in the requested range), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .egg import (
    EggError,
    ScanRow,
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


class NoHits(ValueError):
    """A walk ensemble without a single hit has no histogram to plot."""


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _json_text(obj) -> str:
    # RFC 8259 has no NaN or Infinity: a non-finite value is a ValueError
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _complex_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _tables(args: argparse.Namespace, header: list[str], rows, summary: dict) -> dict:
    """The --format-selected artifacts: a CSV of ``rows`` and a JSON summary."""
    files = {}
    if args.format in ("csv", "both"):
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        files["csv"] = "\n".join(lines) + "\n"
    if args.format in ("json", "both"):
        files["json"] = _json_text(summary)
    return files


def _echo(args: argparse.Namespace, payload: dict) -> tuple[dict, str]:
    """Print ``payload``; write it as a file only under an explicit --out-dir."""
    text = _json_text(payload)
    return ({"json": text} if args.out_dir != "." else {}), text


def _write_outputs(args: argparse.Namespace, files: dict) -> None:
    """Write each artifact as ``<subcommand>.<suffix>``, then the manifest."""
    named = {f"{args.command}.{suffix}": text for suffix, text in files.items()}
    manifest = {
        "subcommand": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": args.seed,
        "version": __version__,
        "outputs": sorted(named),
    }
    named[f"{args.command}_manifest.json"] = _json_text(manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in named.items():
        with open(out_dir / name, "w", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns (artifacts by suffix, stdout text)


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
    cfg = walk_config(args.preset, args.epsilon, args.seed, args.max_steps)
    results = run_ensemble(replace(cfg, target=rx(args.target_rx)), args.trials)
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
        ([t, r.steps, r.hit, r.final_distance] for t, r in enumerate(results)),
        summary,
    )
    if args.svg:
        files["svg"] = histogram_svg(hist, rate, title=f"walk {args.preset}")
    return files, (
        f"walk: {len(steps)}/{args.trials} hits, mean steps "
        f"{summary.get('mean_steps', float('nan')):.1f}\n"
    )


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
    header = [f.name for f in fields(ScanRow)]
    files = _tables(args, header, (vars(r).values() for r in rows), summary)
    return files, (
        f"egg-scan: beta* = {beta_star:.6f}, success prob "
        f"{summary['success_prob_at_beta_star']:.6f}\n"
    )


def _cmd_egg_rus(args: argparse.Namespace) -> tuple[dict, str]:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    beta = args.beta if args.beta is not None else find_balanced_beta(args.alpha)
    trials = [
        run_rus(args.alpha, beta, derive_rng(args.seed, t), args.max_attempts)
        for t in range(args.trials)
    ]
    payload = {
        "alpha": args.alpha,
        "beta": beta,
        "analytic_success_prob": success_probability(args.alpha, beta),
        "mean_attempts": float(np.mean([r.attempts for r in trials])),
        "all_succeeded": all(r.success for r in trials),
        # the JSON keys are the field names of RusResult and AttemptRecord
        "trials": [
            {"trial": t, **vars(r), "log": [vars(rec) for rec in r.log]}
            for t, r in enumerate(trials)
        ],
    }
    return {"json": _json_text(payload)}, (
        f"egg-rus: mean attempts {payload['mean_attempts']:.2f} "
        f"(analytic {1 / payload['analytic_success_prob']:.2f})\n"
    )


def _cmd_measure(args: argparse.Namespace) -> tuple[dict, str]:
    cfg = MeasureConfig(theta=args.theta, epsilon=args.epsilon, seed=args.seed)
    state = bloch_to_state(args.state[0], args.state[1])
    results = measurement_ensemble(state, cfg, args.trials)
    n = cfg.n_steps
    labels = np.array([r.label for r in results])
    summary = {
        "theta": args.theta,
        "epsilon": args.epsilon,
        "required_steps": n,
        "interaction_cost": interaction_cost(n),
        "trials": args.trials,
        "label_frequencies": {
            "0": float(np.mean(labels == 0)),
            "1": float(np.mean(labels == 1)),
        },
        "mislabel_bound_for_one_input": float(np.cos(args.theta / 2) ** (2 * n)),
    }
    files = _tables(
        args,
        ["trial", "label", "steps", "residual_bound"],
        ([t, r.label, r.steps_used, r.residual_bound] for t, r in enumerate(results)),
        summary,
    )
    freq = summary["label_frequencies"]
    return files, (
        f"measure: n = {n}, label frequencies 0: {freq['0']:.4f}, 1: {freq['1']:.4f}\n"
    )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adqcsim",
        description="Simulator for ancilla-driven quantum computation "
        "with arbitrary-strength entangling interactions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--out-dir", default=".", help="directory for output files")
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
    p.add_argument(
        "--tol",
        type=float,
        default=CLI_CLASS_TOL,
        help="tolerance for zero/special-class tests on typed-in decimals",
    )
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("kraus", help="measurement-induced register operators")
    p.add_argument(
        "--preset",
        choices=tuple(KRAUS_IGNORED),
        default="none",
    )
    p.add_argument("--params", type=float, nargs=3, default=KRAUS_DEFAULTS["params"],
                   metavar=("AX", "AY", "AZ"))
    p.add_argument("--ancilla", type=float, nargs=2, default=KRAUS_DEFAULTS["ancilla"],
                   metavar=("THETA", "PHI"), help="ancilla Bloch angles")
    p.add_argument("--basis", choices=("computational", "x"),
                   default=KRAUS_DEFAULTS["basis"])
    p.add_argument("--theta", type=float, default=KRAUS_DEFAULTS["theta"],
                   help="C-Rz angle for the weak preset")
    common(p)
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
    common(p)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("egg-scan", help="outcome phases over the preparation split")
    p.add_argument("--alpha", type=float, default=np.pi / 16)
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=101)
    common(p)
    p.set_defaults(func=_cmd_egg_scan)

    p = sub.add_parser("egg-rus", help="repeat-until-success CZ generation")
    p.add_argument("--alpha", type=float, default=np.pi / 16)
    p.add_argument("--beta", type=float, default=None,
                   help="operating split; defaults to the balanced point")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-attempts", type=int, default=1000)
    common(p)
    p.set_defaults(func=_cmd_egg_rus)

    p = sub.add_parser("measure", help="iterative weak z-measurement chains")
    p.add_argument("--theta", type=float, default=np.pi / 4)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--state", type=float, nargs=2, default=[np.pi / 2, 0.0],
                   metavar=("THETA", "PHI"), help="input register Bloch angles")
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=_cmd_measure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        files, text = args.func(args)
        if files:
            _write_outputs(args, files)
    except (EggError, NoHits) as exc:
        sys.stderr.write(
            _json_text({"error": type(exc).__name__, "message": str(exc)})
        )
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
