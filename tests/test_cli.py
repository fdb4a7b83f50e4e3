from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adqcsim
from adqcsim import cli
from adqcsim.sqwalk import WALK_PRESETS, walk_config


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_local(capsys):
    code, out, _ = run(capsys, "classify", "0", "0", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "Local"
    assert payload["normalized"] == [0.0, 0.0, 0.0]
    assert not payload["is_cz_class"] and not payload["is_cz_swap_class"]


def test_classify_one_parameter(capsys):
    code, out, _ = run(capsys, "classify", "0", "0", "0.19634954")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "OneParameter"
    assert abs(payload["normalized"][0] - 0.19634954) < 1e-9
    assert payload["normalized"][1] == 0.0 and payload["normalized"][2] == 0.0
    assert payload["moves"]  # the z entry moved to the leading axis


def test_classify_cz_class_with_typed_decimals(capsys):
    code, out, _ = run(capsys, "classify", "0.7853981", "0", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_cz_class"]
    assert payload["class"] == "OneParameter"


def test_classify_writes_files_only_on_request(capsys, tmp_path):
    run(capsys, "classify", "0", "0", "0")
    code, out, _ = run(capsys, "classify", "0", "0", "0", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "classify.json").exists()
    manifest = json.loads((tmp_path / "classify_manifest.json").read_text())
    assert manifest["subcommand"] == "classify"
    assert manifest["outputs"] == ["classify.json"]
    assert manifest["version"] == adqcsim.__version__
    on_disk = json.loads((tmp_path / "classify.json").read_text())
    assert on_disk == json.loads(out)


def test_kraus_deterministic_preset(capsys):
    code, out, _ = run(
        capsys, "kraus", "--preset", "deterministic", "--ancilla", "0", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["outcomes"]) == 2
    h_scaled = np.array([[0.5, 0.5], [0.5, -0.5]])
    for o in payload["outcomes"]:
        assert o["proportional_unitary"]
        assert abs(o["probability"] - 0.5) < 1e-12
        op = np.array([[complex(re, im) for re, im in row] for row in o["operator"]])
        np.testing.assert_allclose(np.abs(op), np.abs(h_scaled), atol=1e-10)


def test_kraus_one_param_preset_overrides_basis(capsys):
    code, out, _ = run(capsys, "kraus", "--preset", "one-param", "--basis", "computational")
    assert code == 0
    payload = json.loads(out)
    # the preset pins ancilla and basis; both branches are unitary with p 1/2
    for o in payload["outcomes"]:
        assert o["proportional_unitary"]
        assert abs(o["probability"] - 0.5) < 1e-10


@pytest.mark.parametrize("preset", list(WALK_PRESETS))
def test_kraus_walk_presets_are_the_walk_gates(capsys, preset):
    code, out, _ = run(capsys, "kraus", "--preset", preset)
    assert code == 0
    outcomes = json.loads(out)["outcomes"]
    cfg = walk_config(preset)
    assert outcomes[0]["probability"] == cfg.p0
    for o, gate in zip(outcomes, (cfg.u0, cfg.u1)):
        op = np.array([[complex(re, im) for re, im in row] for row in o["operator"]])
        np.testing.assert_array_equal(op / np.sqrt(o["probability"]), gate)


def test_echo_commands_write_nothing_without_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (("classify", "0", "0", "0"), ("kraus",), ("kraus", "--preset", "weak")):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out), argv
    assert list(tmp_path.iterdir()) == []


def test_kraus_rejects_flags_the_preset_ignores(capsys, tmp_path):
    cases = [
        (("--preset", "one-param", "--ancilla", "nan", "0", "--basis", "x"), "--ancilla"),
        (("--preset", "two-param", "--basis", "x"), "--basis"),
        (("--preset", "one-param", "--params", "1", "2", "3"), "--params"),
        (("--preset", "weak", "--params", "1", "2", "3"), "--params"),
        (("--preset", "weak", "--ancilla", "0", "0"), "--ancilla"),
        (("--preset", "deterministic", "--params", "1", "2", "3"), "--params"),
        (("--preset", "deterministic", "--theta", "0.5"), "--theta"),
        (("--preset", "two-param", "--theta", "0.5"), "--theta"),
        (("--theta", "0.5"), "--theta"),
    ]
    for i, (argv, flag) in enumerate(cases):
        out_dir = tmp_path / str(i)
        code, out, err = run(capsys, "kraus", *argv, "--out-dir", str(out_dir))
        assert code == 2, argv
        assert json.loads(err)["message"].startswith(f"{flag} has no effect"), argv
        assert out == "", argv
        assert not out_dir.exists(), argv


def test_kraus_explicit_params_zero_branch(capsys):
    code, out, _ = run(
        capsys, "kraus", "--params", "0", "0", "0.3", "--ancilla", "0", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"][0]["proportional_unitary"]
    assert abs(payload["outcomes"][0]["probability"] - 1.0) < 1e-12
    assert payload["outcomes"][1]["is_zero"]


def test_walk_outputs_and_reproducibility(capsys, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = [
        "walk", "--preset", "two-param", "--trials", "40", "--epsilon", "0.1",
        "--seed", "11", "--svg",
    ]
    code, out, _ = run(capsys, *argv, "--out-dir", str(d1))
    assert code == 0
    assert "hits" in out
    code, _, _ = run(capsys, *argv, "--out-dir", str(d2))
    assert code == 0
    for name in ("walk.csv", "walk.json", "walk.svg"):
        a, b = (d1 / name).read_bytes(), (d2 / name).read_bytes()
        assert a == b, name
    # manifests agree apart from the output directory they record
    m1 = json.loads((d1 / "walk_manifest.json").read_text())
    m2 = json.loads((d2 / "walk_manifest.json").read_text())
    m1["parameters"].pop("out_dir")
    m2["parameters"].pop("out_dir")
    assert m1 == m2

    csv_lines = (d1 / "walk.csv").read_text().splitlines()
    assert csv_lines[0] == "trial,steps,hit,final_distance"
    assert len(csv_lines) == 41
    first = csv_lines[1].split(",")
    assert first[0] == "0" and first[2] in ("0", "1")

    summary = json.loads((d1 / "walk.json").read_text())
    assert summary["trials"] == 40
    assert summary["hits"] == sum(
        1 for line in csv_lines[1:] if line.split(",")[2] == "1"
    )
    assert len(summary["histogram"]["counts"]) == 20
    assert sum(summary["histogram"]["counts"]) == summary["hits"]
    assert abs(summary["lambda"] - 1.0 / summary["mean_steps"]) < 1e-12

    svg = (d1 / "walk.svg").read_text()
    assert svg.startswith("<svg") and "<rect" in svg

    manifest = json.loads((d1 / "walk_manifest.json").read_text())
    assert manifest["outputs"] == ["walk.csv", "walk.json", "walk.svg"]
    assert manifest["seed"] == 11
    assert manifest["parameters"]["preset"] == "two-param"


def test_walk_all_hits_at_step_zero(capsys, tmp_path):
    # epsilon = 1 accepts the identity, so there is no exponential to fit
    code, out, _ = run(
        capsys, "walk", "--epsilon", "1.0", "--trials", "3", "--svg",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert "3/3 hits" in out
    summary = json.loads((tmp_path / "walk.json").read_text())
    assert summary["mean_steps"] == 0.0
    assert summary["lambda"] is None
    assert sum(summary["histogram"]["counts"]) == 3
    assert "<polyline" not in (tmp_path / "walk.svg").read_text()
    manifest = json.loads((tmp_path / "walk_manifest.json").read_text())
    assert manifest["outputs"] == ["walk.csv", "walk.json", "walk.svg"]


def test_argument_errors_write_nothing(capsys, tmp_path):
    cases = [
        ("walk", "--bins", "0", "--trials", "3"),
        ("egg-rus", "--trials", "0"),
        ("egg-rus", "--max-attempts", "0", "--trials", "2"),
        ("egg-scan", "--samples", "0"),
        ("kraus", "--ancilla", "nan", "0"),
        ("classify", "nan", "0", "0"),
        ("classify", "0", "inf", "0"),
        ("measure", "--theta", "1e-10", "--trials", "1"),
    ]
    for i, argv in enumerate(cases):
        out_dir = tmp_path / str(i)
        code, out, err = run(capsys, *argv, "--out-dir", str(out_dir))
        assert code == 2, argv
        assert json.loads(err)["error"] == "ArgumentError", argv
        assert out == "", argv
        assert not out_dir.exists(), argv


def test_negative_numbers_in_scientific_notation(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "-1e-05", "0", "-2.5E-1")
    assert code == 0
    assert json.loads(out)["input"] == [-1e-05, 0.0, -0.25]
    code, _, _ = run(
        capsys, "walk", "--target-rx", "-1e-3", "--trials", "2", "--out-dir", str(tmp_path)
    )
    assert code == 0
    manifest = json.loads((tmp_path / "walk_manifest.json").read_text())
    assert manifest["parameters"]["target_rx"] == -1e-3


def test_manifest_records_out_dir_relative_to_the_working_directory(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path / "..")
    for out_dir in (tmp_path / "out", f"./{tmp_path.name}/out/"):
        code, _, _ = run(capsys, "egg-scan", "--samples", "3", "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "egg-scan_manifest.json").read_text())
        assert manifest["parameters"]["out_dir"] == f"{tmp_path.name}/out"


def test_walk_svg_without_hits_is_numeric_failure(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("walk", "--trials", "3", "--max-steps", "1", "--svg")
    for extra in ((), ("--out-dir", "out")):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 3
        assert json.loads(err)["error"] == "NoHits"
        assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_nan_messages_name_the_argument(capsys, tmp_path):
    cases = [
        (("egg-scan", "--alpha", "nan"), "alpha must lie in (0, pi/4]"),
        (("egg-rus", "--beta", "nan", "--trials", "2"), "beta_star does not satisfy"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == 2, argv
        assert json.loads(err)["message"].startswith(message), argv
        assert out == "", argv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "fmt, suffixes", [("csv", ["csv"]), ("json", ["json"]), ("both", ["csv", "json"])]
)
@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "--trials", "3", "--epsilon", "0.5"),
        ("egg-scan", "--samples", "5"),
        ("measure", "--trials", "5"),
    ],
)
def test_format_selects_the_files(capsys, tmp_path, argv, fmt, suffixes):
    code, _, _ = run(capsys, *argv, "--format", fmt, "--out-dir", str(tmp_path))
    assert code == 0
    name = argv[0]
    outputs = [f"{name}.{suffix}" for suffix in suffixes]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(outputs + [f"{name}_manifest.json"])
    manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
    assert manifest["outputs"] == outputs


def test_manifest_parameters_are_the_parser_dests(capsys, tmp_path):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    argvs = {
        "classify": ["0", "0", "0"],
        "kraus": [],
        "walk": ["--trials", "3", "--epsilon", "0.5"],
        "egg-scan": ["--samples", "5"],
        "egg-rus": ["--trials", "2"],
        "measure": ["--trials", "5"],
    }
    assert set(argvs) == set(sub.choices)
    for name, extra in argvs.items():
        out_dir = tmp_path / name
        code, _, _ = run(capsys, name, *extra, "--out-dir", str(out_dir))
        assert code == 0, name
        dests = {
            a.dest for a in sub.choices[name]._actions if a.default is not argparse.SUPPRESS
        }
        manifest = json.loads((out_dir / f"{name}_manifest.json").read_text())
        assert set(manifest["parameters"]) == dests | {"command"}, name


def _number(lo: float, hi: float):
    # shortest round-trip text, so scientific notation such as "-1e-05" occurs
    return st.floats(lo, hi).map(repr)


def _count(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


def _flat(parts) -> list[str]:
    return [parts] if isinstance(parts, str) else [a for p in parts for a in _flat(p)]


def _command(*parts):
    """argv from literal strings and strategies, which may draw nested tuples."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(_flat)


def _opt(flag: str, *values):
    """Either nothing or ``flag`` with one drawn value per strategy in ``values``."""
    return st.one_of(st.just(()), st.tuples(st.just(flag), *values))


_FORMAT = _opt("--format", st.sampled_from(["csv", "json", "both"]))
_SEED = _opt("--seed", _count(0, 1000))
_ANCILLA = _opt("--ancilla", _number(0, np.pi), _number(0, 2 * np.pi))
_BASIS = _opt("--basis", st.sampled_from(["computational", "x"]))
_KRAUS_FLAGS = {
    "none": st.tuples(
        _opt("--params", _number(-2, 2), _number(-2, 2), _number(-2, 2)), _ANCILLA, _BASIS
    ),
    "deterministic": st.tuples(_ANCILLA, _BASIS),
    "weak": _opt("--theta", _number(0.01, np.pi)),
    **{preset: st.just(()) for preset in WALK_PRESETS},
}
_SMALL_RUNS = st.one_of(
    _command("classify", _number(-6, 6), _number(-6, 6), _number(-6, 6),
             _opt("--tol", _number(1e-9, 1e-3))),
    st.sampled_from(list(_KRAUS_FLAGS)).flatmap(
        lambda preset: _command("kraus", "--preset", preset, _KRAUS_FLAGS[preset])
    ),
    _command(
        "walk",
        _opt("--preset", st.sampled_from(list(WALK_PRESETS))),
        _opt("--epsilon", _number(0.2, 1.0)),
        "--trials", _count(1, 4),
        _opt("--bins", _count(1, 6)),
        _opt("--target-rx", _number(-np.pi, np.pi)),
        _opt("--max-steps", _count(1, 300)),
        st.sampled_from([(), "--svg"]),
        _FORMAT,
        _SEED,
    ),
    st.floats(0.01, 0.785).flatmap(
        lambda alpha: _command(
            "egg-scan", "--alpha", f"{alpha:.9f}",
            _opt("--beta-max", _number(alpha / 2, alpha)),
            _opt("--samples", _count(1, 12)),
            _FORMAT,
        )
    ),
    # alpha >= 0.05 keeps the expected attempts, 1 / success probability, low
    _command(
        "egg-rus",
        _opt("--alpha", _number(0.05, np.pi / 4)),
        "--trials", _count(1, 4),
        _opt("--max-attempts", _count(1, 30)),
        _SEED,
    ),
    # theta >= 0.5 keeps a chain, ln(eps) / ln(cos(theta / 2)) rounds, under 100
    _command(
        "measure",
        _opt("--theta", _number(0.5, np.pi)),
        _opt("--epsilon", _number(0.05, 0.9)),
        _opt("--state", _number(0, np.pi), _number(0, 2 * np.pi)),
        "--trials", _count(1, 4),
        _FORMAT,
        _SEED,
    ),
)

_NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)", re.IGNORECASE)


@settings(max_examples=120)
@given(_SMALL_RUNS)
def test_no_output_contains_nan_or_infinity(argv):
    # a relative --out-dir keeps the temporary path out of the manifest
    cwd, stdout = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main([*argv, "--out-dir", "out"])
        finally:
            os.chdir(cwd)
        if code != 0:
            assert list(Path(tmp).iterdir()) == [], argv
            return
        written = sorted(Path(tmp, "out").iterdir())
        texts = [stdout.getvalue()] + [p.read_text() for p in written]
    assert written, argv
    for text in texts:
        assert not _NON_FINITE.search(text), argv


def test_json_output_is_strict():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._json_text({"value": bad})


def test_egg_scan_outputs(capsys, tmp_path):
    code, out, _ = run(
        capsys, "egg-scan", "--samples", "41", "--out-dir", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "egg-scan.csv").read_text().splitlines()
    assert lines[0] == "beta,phi_plus,phi_minus,delta_phi,p_plus,p_minus,success_prob"
    assert len(lines) == 42
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[3]) - 2 * np.pi) < 1e-12
    assert abs(float(first[4]) - np.cos(np.pi / 16) ** 2) < 1e-12

    summary = json.loads((tmp_path / "egg-scan.json").read_text())
    assert 0.178 < summary["beta_star"] < 0.188
    assert abs(summary["success_prob_at_beta_star"] - 0.1277) < 0.005
    assert "beta*" in out


def test_egg_scan_no_root_is_numeric_failure(capsys, tmp_path):
    code, _, err = run(
        capsys, "egg-scan", "--beta-max", "0.05", "--out-dir", str(tmp_path)
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "NoRoot"


def test_egg_rus_consistency(capsys, tmp_path):
    code, _, _ = run(
        capsys, "egg-rus", "--trials", "25", "--seed", "3", "--out-dir", str(tmp_path)
    )
    assert code == 0
    payload = json.loads((tmp_path / "egg-rus.json").read_text())
    assert payload["all_succeeded"]
    assert len(payload["trials"]) == 25
    attempts = [t["attempts"] for t in payload["trials"]]
    assert abs(payload["mean_attempts"] - np.mean(attempts)) < 1e-12
    assert abs(payload["analytic_success_prob"] - 0.1277) < 0.005
    for t in payload["trials"]:
        assert t["attempts"] == len(t["log"])
        last = t["log"][-1]
        assert last["success"]
        assert last["outcome_first"] != last["outcome_second"]
        assert abs(abs(last["combined_phase"]) - np.pi) < 1e-6
        for rec in t["log"][:-1]:
            assert not rec["success"]
            assert abs(rec["combined_phase"]) < 1e-9


def test_measure_defaults(capsys, tmp_path):
    code, _, _ = run(
        capsys, "measure", "--trials", "200", "--out-dir", str(tmp_path)
    )
    assert code == 0
    summary = json.loads((tmp_path / "measure.json").read_text())
    assert summary["required_steps"] == 38
    assert summary["interaction_cost"] == 76
    assert abs(summary["mislabel_bound_for_one_input"] - 0.002436499294649102) < 1e-15
    freq = summary["label_frequencies"]
    assert abs(freq["0"] + freq["1"] - 1.0) < 1e-12
    lines = (tmp_path / "measure.csv").read_text().splitlines()
    assert lines[0] == "trial,label,steps,residual_bound"
    assert len(lines) == 201


def test_measure_projective_theta_tolerance(capsys, tmp_path):
    code, _, _ = run(
        capsys, "measure", "--theta", "3.141593", "--trials", "50",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "measure.json").read_text())
    assert summary["required_steps"] == 1
    assert summary["interaction_cost"] == 2


def test_measure_basis_states(capsys, tmp_path):
    code, _, _ = run(
        capsys, "measure", "--state", "0", "0", "--trials", "100",
        "--out-dir", str(tmp_path / "zero"),
    )
    assert code == 0
    summary = json.loads((tmp_path / "zero" / "measure.json").read_text())
    assert summary["label_frequencies"]["0"] == 1.0

    code, _, _ = run(
        capsys, "measure", "--state", "3.141592653589793", "0", "--trials", "200",
        "--out-dir", str(tmp_path / "one"),
    )
    assert code == 0
    summary = json.loads((tmp_path / "one" / "measure.json").read_text())
    assert summary["label_frequencies"]["1"] >= 0.98


def test_runtime_argument_error_exit_code(capsys):
    code, _, err = run(capsys, "measure", "--theta", "3.15", "--trials", "1")
    assert code == 2
    assert json.loads(err)["error"] == "ArgumentError"
    code, _, err = run(capsys, "walk", "--epsilon", "0", "--trials", "1")
    assert code == 2


def test_unknown_subcommand_is_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert adqcsim.__version__ in capsys.readouterr().out


def _digest(values) -> str:
    return hashlib.sha256(",".join(str(int(v)) for v in values).encode()).hexdigest()


# sha256 of integer outcome columns, one fixed seed each.  They change only
# with the RNG contract: how streams are derived and how outcomes are drawn
# from them.  Integer columns only, so no digest depends on libm's last digits.
RNG_CONTRACT_DIGESTS = {
    "walk one-param steps": "b30471b798f11e64cde40d83739261d7f4ca91bf5774938dafd37422b898eb63",
    "walk one-param hits": "03e89df38a0a78730a30d4fa99a1642190bcb04af99ddcedad58fbd039c5ad35",
    "walk two-param steps": "b9d633d54e7c47e1e1f4259cbccd40b3adac4e45f6542a3e919560dd9db6fbf6",
    "walk two-param hits": "b2ca170418db2f1d3294b6364e438db3e02e7c0403f555a6776a0c2054d80e23",
    "measure labels": "d4d39310001f64c9e85eee64cfc6416543517bc438f7a510f7d57443f7ea6ec6",
    "measure steps": "f7ee2a60c97d1e585656b21acb7d8f5c7bac113ce53fd39f4ff6f798cd35a948",
    "egg-rus attempts": "ef641131fb54d4d46d61fe3f01a31e5f37bf02de452859cd5f1d9a11e4cdcb28",
    "egg-rus outcome pairs": "db6de53b17370764f01fb6f1790e31941f34d67bb5b361761508535a51b93c2a",
}


def test_rng_contract_digests(capsys, tmp_path):
    got = {}
    for preset in WALK_PRESETS:
        # --max-steps cuts about half the walks off, so the hit column varies
        run(capsys, "walk", "--preset", preset, "--trials", "40", "--seed", "11",
            "--max-steps", "5000", "--format", "csv", "--out-dir", str(tmp_path / preset))
        lines = (tmp_path / preset / "walk.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        got[f"walk {preset} steps"] = _digest(r[1] for r in rows)
        got[f"walk {preset} hits"] = _digest(r[2] for r in rows)
    run(capsys, "measure", "--trials", "400", "--seed", "12", "--format", "csv",
        "--out-dir", str(tmp_path / "measure"))
    lines = (tmp_path / "measure" / "measure.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    got["measure labels"] = _digest(r[1] for r in rows)
    got["measure steps"] = _digest(r[2] for r in rows)
    run(capsys, "egg-rus", "--trials", "200", "--seed", "13",
        "--out-dir", str(tmp_path / "rus"))
    trials = json.loads((tmp_path / "rus" / "egg-rus.json").read_text())["trials"]
    got["egg-rus attempts"] = _digest(t["attempts"] for t in trials)
    log = [rec for t in trials for rec in t["log"]]
    got["egg-rus outcome pairs"] = _digest(
        m for rec in log for m in (rec["outcome_first"], rec["outcome_second"])
    )
    assert got == RNG_CONTRACT_DIGESTS
