from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import tempfile
import tracemalloc
import warnings
from collections.abc import Iterator
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adqcsim
from adqcsim import cli, egg
from adqcsim.egg import RusResult
from adqcsim.seeding import derive_rng
from adqcsim.sqwalk import WALK_PRESETS, walk_config

from oracle import csv_cell


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


@pytest.mark.parametrize("out_dir", [".", "./"])
@pytest.mark.parametrize("argv", [("classify", "0.3", "0.1", "0"), ("kraus",)])
def test_echo_commands_write_under_either_spelling_of_the_cwd(
    capsys, tmp_path, monkeypatch, argv, out_dir
):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv, "--out-dir", out_dir)
    assert code == 0
    name = argv[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{name}.json", f"{name}_manifest.json"]
    assert json.loads((tmp_path / f"{name}.json").read_text()) == json.loads(out)
    manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
    assert manifest["parameters"]["out_dir"] == "."


def test_default_out_dir_is_recorded_as_the_cwd(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "egg-scan", "--samples", "3")
    assert code == 0
    manifest = json.loads((tmp_path / "egg-scan_manifest.json").read_text())
    assert manifest["parameters"]["out_dir"] == "."


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--state", "0", "inf", "--trials", "2"),
        ("measure", "--state", "inf", "0", "--trials", "2"),
        ("measure", "--state", "nan", "0", "--trials", "2"),
        ("kraus", "--ancilla", "inf", "0"),
        ("kraus", "--ancilla", "0", "nan"),
    ],
)
def test_non_finite_bloch_angles_are_argument_errors(capsys, tmp_path, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    error = json.loads(err)  # exactly one JSON object, no warning text around it
    assert error["error"] == "ArgumentError"
    assert error["message"].startswith("Bloch angles (theta, phi) must be finite")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("walk", "--target-rx", "inf", "--trials", "2"), "rx angle theta must be finite"),
        (("walk", "--target-rx", "nan", "--trials", "2"), "rx angle theta must be finite"),
        (("kraus", "--params", "inf", "0", "0"), "delta_gate angles (ax, ay, az) must be finite"),
        (("kraus", "--params", "0", "nan", "0"), "delta_gate angles (ax, ay, az) must be finite"),
        (("kraus", "--preset", "weak", "--theta", "-inf"), "c_rz angle theta must be finite"),
        (("kraus", "--preset", "weak", "--theta", "nan"), "c_rz angle theta must be finite"),
    ],
)
def test_non_finite_gate_angles_are_argument_errors(capsys, tmp_path, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    error = json.loads(err)  # exactly one JSON object, no warning text around it
    assert error["error"] == "ArgumentError"
    assert error["message"].startswith(message)
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
    assert manifest["parameters"]["seed"] == 11
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
        *(
            ("classify", "0.7", "0.1", "0", "--tol", tol)
            for tol in ("nan", "inf", "-1", "0.5")
        ),
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
    # every spelling float() reads: a trailing point, with an exponent, digit groups
    for token, value in (("-1.", -1.0), ("-1.e-5", -1e-5), ("-1_0", -10.0)):
        code, out, _ = run(capsys, "classify", token, "0", "0")
        assert code == 0
        assert json.loads(out)["input"] == [value, 0.0, 0.0]
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
        (("egg-rus", "--alpha", "nan", "--trials", "2"), "alpha must lie in (0, pi/4]"),
        (("classify", "0", "0", "0", "--tol", "nan"), "tol must lie in (0, pi/8]"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == 2, argv
        assert json.loads(err)["message"].startswith(message), argv
        assert out == "", argv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("kraus", "--ancilla", "0", "-inf"), "Bloch angles (theta, phi) must be finite"),
        (("kraus", "--ancilla", "-Infinity", "0"), "Bloch angles (theta, phi) must be finite"),
        (("measure", "--state", "-NaN", "0", "--trials", "2"), "Bloch angles (theta, phi)"),
        (("classify", "0", "-INF", "0"), "interaction parameters must be finite"),
        (("classify", "0", "0", "0", "--tol", "-nan"), "tol must lie in (0, pi/8]"),
        (("egg-scan", "--alpha", "-inf"), "alpha must lie in (0, pi/4]"),
        (("walk", "--epsilon", "-iNfInItY", "--trials", "2"), "epsilon"),
    ],
)
def test_negative_non_finite_values_reach_the_validators(capsys, tmp_path, argv, message):
    # -inf, -infinity and -nan, in any case, are values, not flags: the
    # validators reject them with a JSON error instead of argparse's usage text
    code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ArgumentError"
    assert message in error["message"]
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


def _nest(value, depth: int):
    """``value`` under ``depth`` containers: list, dict, tuple, list, ..."""
    for level in range(depth):
        value = ([value], {"k": value}, (value,))[level % 3]
    return value


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_json_output_is_strict():
    for depth in range(5):
        for bad in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
            for obj in ({"value": _nest(bad, depth)}, _nest({bad: 1}, depth)):
                with pytest.raises(ValueError):
                    _stdlib_json(obj)
                with pytest.raises(ValueError):
                    cli._json_text(obj)
        # types the stdlib does not encode, as values and as keys
        for obj in (_nest(np.int64(3), depth), _nest({(1, 2): 0}, depth), _nest({1j: 0}, depth)):
            with pytest.raises(TypeError):
                _stdlib_json(obj)
            with pytest.raises(TypeError):
                cli._json_text(obj)
    # egg-rus's writer: a non-finite phase in any slot, or in the summary, raises
    phases = (0.0, np.pi, -np.pi, 0.0)
    runs = [RusResult(1, True, b"\x01")] * 3 + [RusResult(3, True, b"\x00\x03\x02")]
    for bad in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
        for slot in range(4):
            with pytest.raises(ValueError):
                "".join(cli._rus_chunks(_RUS_SUMMARY, runs, (*phases[:slot], bad, *phases[slot + 1:])))
        with pytest.raises(ValueError):
            "".join(cli._rus_chunks({**_RUS_SUMMARY, "beta": bad}, runs, phases))


_JSON_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "é", "\x00\x1f\n\t\"\\", "\u2028ü", "\U0001f600", "ключ"]),
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**63, 2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 2.0**53 + 1]),
    _JSON_KEYS,
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_json_text_is_the_stdlib_indented_dump(tree):
    assert cli._json_text(tree) == _stdlib_json(tree)


_INT_CELLS = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(2**53 - 3, 2**53 + 3) | st.integers(-(2**53) - 3, -(2**53) + 3),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
_FLOAT_CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1e16, 2.0**53 + 2, -(2.0**53)]),
)


@settings(max_examples=200)
@given(st.data())
def test_csv_text_is_the_cell_rule(data):
    # each column keeps one kind, int-like or float-like, but not one type
    kind = st.sampled_from([_INT_CELLS, _FLOAT_CELLS])
    kinds = data.draw(st.lists(kind, min_size=1, max_size=7))
    rows = data.draw(st.lists(st.tuples(*kinds), max_size=12))
    header = [f"c{j}" for j in range(len(kinds))]
    lines = [",".join(header)] + [",".join(map(csv_cell, row)) for row in rows]
    assert "".join(cli._csv_chunks(header, rows)) == "\n".join(lines) + "\n"


def test_json_text_writes_non_str_keys_as_the_stdlib_does():
    numbered = {2: [1.5, {"a": None}], -3: {}, 0.5: {False: "x"}, 10**20: ()}
    for obj in (numbered, [{"n": numbered}], {"k": [{None: [numbered]}]}):
        assert cli._json_text(obj) == _stdlib_json(obj)


_RUS_SUMMARY = {
    "alpha": np.pi / 16,
    "beta": 0.18,
    "analytic_success_prob": 0.13,
    "mean_attempts": 7.5,
    "all_succeeded": False,
}
_PHASES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, np.pi, -np.pi, 5e-324, np.float64(np.pi)]
)
_FAILED = st.lists(st.sampled_from([0, 3]), max_size=6)  # equal outcomes
_CODES = st.one_of(
    _FAILED.filter(bool),  # a run that used up its attempts
    st.builds(lambda failed, won: [*failed, won], _FAILED, st.sampled_from([1, 2])),
).map(bytes)


def _rus_result(codes: bytes) -> RusResult:
    """A run with these ``codes``, as run_rus returns one."""
    return RusResult(len(codes), codes[-1] in (1, 2), codes)


@st.composite
def _rus_runs(draw):
    """Lists of RusResult: kernel runs, successes and exhausted ones, and hand-made
    runs whose codes repeat across trials (as equal objects, not the same one),
    or are first seen late."""
    pool = draw(st.lists(_CODES, min_size=1, max_size=5))
    again = st.sampled_from(pool).map(lambda codes: bytes(bytearray(codes)))
    made = (again | _CODES).map(_rus_result)
    kernel = st.builds(
        lambda t, max_attempts: egg.run_rus(np.pi / 16, derive_rng(3, t), max_attempts),
        st.integers(0, 200), st.sampled_from([1, 3, 1000]),
    )
    runs = draw(st.lists(made | kernel, min_size=1, max_size=8))
    late = draw(st.lists(_CODES.map(_rus_result), max_size=2))
    return runs + late


def _rus_plain(summary: dict, trials, phases) -> dict:
    """egg-rus's log as plain data, the way the stdlib reads it."""
    return {
        **summary,
        "trials": [
            {
                "trial": t,
                "attempts": r.attempts,
                "success": r.success,
                "log": [
                    {"attempt": k, "combined_phase": phases[c], "outcome_first": c // 2,
                     "outcome_second": c % 2, "success": c // 2 != c % 2}
                    for k, c in enumerate(r.codes, 1)
                ],
            }
            for t, r in enumerate(trials)
        ],
    }


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries({k: _PHASES for k in _RUS_SUMMARY if k != "all_succeeded"}),
    st.booleans(),
    st.tuples(_PHASES, _PHASES, _PHASES, _PHASES),
    _rus_runs(),
    st.sampled_from([1, 2, 3, cli.RUS_CHUNK]),  # trials a chunk: codes first seen in a later one
)
def test_rus_chunks_are_the_stdlib_indented_dump(summary, all_succeeded, phases, trials, chunk):
    summary["all_succeeded"] = all_succeeded
    with mock.patch.object(cli, "RUS_CHUNK", chunk):
        text = "".join(cli._rus_chunks(summary, trials, phases))
    assert text == _stdlib_json(_rus_plain(summary, trials, phases))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_rus_chunks_are_lazy_and_at_most_one_block_long():
    args = cli.build_parser().parse_args(["egg-rus", "--trials", "5"])
    assert isinstance(args.func(args)[0]["json"], Iterator)
    results = [egg.run_rus(np.pi / 16, derive_rng(2, t)) for t in range(500)]
    phases = egg.rus_phases(np.pi / 16)
    read = []

    def reading():
        for r in results:
            read.append(r)
            yield r

    chunks = cli._rus_chunks(_RUS_SUMMARY, reading(), phases)
    head = next(chunks)
    assert read == []
    first = next(chunks)
    assert len(read) == cli.RUS_CHUNK  # the next block is not read yet
    chunks = [head, first, *chunks]
    plain = _rus_plain(_RUS_SUMMARY, results, phases)
    assert _sha("".join(chunks)) == _sha(_stdlib_json(plain))
    # each chunk between head and tail is a block of RUS_CHUNK trials (the last
    # block fewer) as they stand in the file, each trial's lines indented by 4
    # and after the separator from the one before it
    trials = [
        json.dumps(t, indent=2, sort_keys=True).replace("\n", "\n    ")
        for t in plain["trials"]
    ]
    blocks = [
        "".join(",\n    " + t for t in trials[k : k + cli.RUS_CHUNK])[k == 0 :]
        for k in range(0, len(trials), cli.RUS_CHUNK)
    ]
    assert [_sha(c) for c in chunks[1:-1]] == [_sha(b) for b in blocks]
    assert max(len(chunks[0]), len(chunks[-1])) < min(map(len, trials))


def test_rus_chunks_memory_is_one_block_s_when_no_run_repeats():
    # 640 exhausted runs of 100 random 0/3 codes, all distinct: the whole log
    # is ten blocks long, and encoding it holds only about one block's text
    codes = np.random.default_rng(0).choice(np.array([0, 3], np.uint8), (10 * cli.RUS_CHUNK, 100))
    runs = [_rus_result(row.tobytes()) for row in codes]
    assert len({r.codes for r in runs}) == len(runs)
    sizes = []
    peak = _traced_peak(
        lambda: sizes.extend(map(len, cli._rus_chunks(_RUS_SUMMARY, runs, egg.rus_phases(0.1))))
    )
    assert sum(sizes) > 9 * max(sizes)
    assert peak < 4 * max(sizes), (peak, max(sizes))


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "0.3", "0.2", "0.1"),
        ("kraus", "--preset", "weak"),
        ("walk", "--trials", "20", "--epsilon", "0.3", "--svg"),
        ("egg-scan", "--samples", "11"),
        ("measure", "--trials", "50"),
        ("egg-rus", "--trials", "200", "--max-attempts", "3"),
    ],
)
def test_every_json_file_is_the_stdlib_dump_of_itself(capsys, tmp_path, argv):
    code, _, _ = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 0
    paths = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in paths if p.name.endswith("_manifest.json")] == [
        f"{argv[0]}_manifest.json"
    ]
    assert len(paths) == 2
    for path in paths:
        text = path.read_text()
        assert _sha(text) == _sha(_stdlib_json(json.loads(text))), path.name
    if argv[0] == "egg-rus":  # some runs used up their attempts
        assert json.loads(paths[0].read_text())["all_succeeded"] is False


def test_csv_chunks_are_lazy_and_at_most_one_block_long():
    read = []

    def rows():
        for t in range(2 * cli.CSV_BLOCK + 5):
            read.append(t)
            yield t, t / 3, t % 2 == 0

    header = ["t", "third", "even"]
    chunks = cli._csv_chunks(header, rows())
    assert isinstance(chunks, Iterator)
    assert (next(chunks), read) == ("t,third,even\n", [])
    first = next(chunks)
    assert len(read) == cli.CSV_BLOCK  # the rest is not read yet
    rest = list(chunks)
    assert [c.count("\n") for c in (first, *rest)] == [cli.CSV_BLOCK] * 2 + [5]
    lines = [",".join(map(csv_cell, row)) for row in rows()]
    assert first + "".join(rest) == "\n".join(lines) + "\n"
    assert list(cli._csv_chunks(header, iter(()))) == ["t,third,even\n"]


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


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_egg_scan_memory_is_the_scan_s(capsys, tmp_path):
    # the CSV is written a block of rows at a time, so the run needs no more
    # memory than the scan itself: about 170 B a sample, against 660 B when
    # the whole table was turned into tuples, lines and one string
    samples, alpha = 80001, np.pi / 16
    assert cli.main(["egg-scan", "--samples", "11", "--out-dir", str(tmp_path)]) == 0
    scan = _traced_peak(egg.phi_scan, alpha, (0.0, alpha), samples)
    argv = ["egg-scan", "--samples", str(samples), "--out-dir", str(tmp_path)]
    run = _traced_peak(cli.main, argv)
    assert len((tmp_path / "egg-scan.csv").read_text().splitlines()) == samples + 1
    assert run < scan + 2**20, (run, scan)
    capsys.readouterr()


def test_phi_scan_peaks_near_its_record_array():
    # 56 B a sample are the seven float columns it returns; beta's linspace
    # and one block of column temporaries are all it holds beside them
    samples = 80001
    peak = _traced_peak(egg.phi_scan, np.pi / 16, (0.0, np.pi / 16), samples)
    assert peak <= 75 * samples, peak / samples


# sha256 of egg-scan.csv and egg-scan.json, taken from the per-point scan
# before the scan went by columns.  Unlike the RNG digests these pin float
# columns, so they hold numpy's ufunc loops and the platform's libm to the
# last bit, as bench/reference_hashes.json does.
EGG_SCAN_DIGESTS = {
    ("--alpha", repr(np.pi / 16)): (
        "aa353c4120c1b06f6b9abc041673ff54b955e8e36e02ac4089f5fa9723864d4f",
        "74631045620d65264fe3e9a73730ce7a439d719e92b7bb70dcbd40855a687664",
    ),
    ("--alpha", "0.3"): (
        "9400048804c2bc9d5a913734c6f502a5e111618c97a6281e0007dedcb9fbef32",
        "4949d5e0f5f50fca1c86a6ca8fde3479b775ffc0c5ca0317632af0d163000cd9",
    ),
    ("--alpha", repr(np.pi / 4)): (
        "151a8478b48924cb27ffd7f8ae8cc96ad7cab692f5babc4f1a37ebc58e695ef3",
        "ad102fccd1fed055973fa69aaefc9d3d7480179b6f51c9de2a7cee89faac1924",
    ),
    ("--alpha", "0.3", "--beta-min", "0.1", "--beta-max", "0.3", "--samples", "777"): (
        "3cfc296eaaec19236b3bbe1dafac04ba9c13bfb61c8f76edce4645d1a742fd08",
        "4949d5e0f5f50fca1c86a6ca8fde3479b775ffc0c5ca0317632af0d163000cd9",
    ),
}


@pytest.mark.parametrize("argv", list(EGG_SCAN_DIGESTS))
def test_egg_scan_digests(capsys, tmp_path, argv):
    code, _, _ = run(capsys, "egg-scan", *argv, "--out-dir", str(tmp_path))
    assert code == 0
    got = tuple(
        hashlib.sha256((tmp_path / f"egg-scan.{suffix}").read_bytes()).hexdigest()
        for suffix in ("csv", "json")
    )
    assert got == EGG_SCAN_DIGESTS[argv]


def test_egg_scan_no_root_is_numeric_failure(capsys, tmp_path):
    code, _, err = run(
        capsys, "egg-scan", "--beta-max", "0.05", "--out-dir", str(tmp_path)
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "NoRoot"


@pytest.mark.parametrize("alpha", ["1e-9", "5e-8"])
def test_egg_rus_below_the_branch_floor_is_numeric_failure(capsys, tmp_path, alpha):
    # p- is about 2 alpha^2: exactly 0 at 1e-9, below BRANCH_TOL at 5e-8, so no
    # attempt can succeed (1e-9 used to divide by the zero success probability)
    out_dir = tmp_path / "out"
    argv = ("egg-rus", "--alpha", alpha, "--trials", "3", "--out-dir", str(out_dir))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "EggError"
    assert not out_dir.exists()


def test_egg_rus_just_above_the_branch_floor_runs(capsys, tmp_path):
    # p- is 2e-14 at alpha 1e-7, above BRANCH_TOL: every trial uses up its attempts
    argv = ("egg-rus", "--alpha", "1e-7", "--trials", "3", "--out-dir", str(tmp_path))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads((tmp_path / "egg-rus.json").read_text())["all_succeeded"] is False


def test_egg_rus_finds_the_balanced_point_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counted(alpha, beta_max=None):
        calls.append(alpha)
        return find(alpha, beta_max)

    find = egg.find_balanced_beta
    monkeypatch.setattr(egg, "find_balanced_beta", counted)
    monkeypatch.setattr(cli, "find_balanced_beta", counted)
    egg._rus_setup.cache_clear()
    code, _, _ = run(capsys, "egg-rus", "--alpha", "0.3", "--trials", "5",
                     "--out-dir", str(tmp_path))
    assert code == 0 and calls == [0.3]
    payload = json.loads((tmp_path / "egg-rus.json").read_text())
    assert payload["beta"] == find(0.3)


def test_egg_rus_consistency(capsys, tmp_path):
    code, _, _ = run(
        capsys, "egg-rus", "--trials", "25", "--seed", "3", "--out-dir", str(tmp_path)
    )
    assert code == 0
    text = (tmp_path / "egg-rus.json").read_text()
    payload = json.loads(text)
    assert text == _stdlib_json(payload)  # written chunk by chunk, same bytes
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


# sha256 of egg-rus.json, taken before the encoder wrote dicts through
# templates and chunks lazily; the second run has exhausted trials
EGG_RUS_DIGESTS = {
    ("--trials", "300", "--seed", "13"):
        "53f6af53f220eea19a33f1f12d0a068ecd9c92130c3e9562cbf74544e5dd1228",
    ("--trials", "200", "--max-attempts", "3", "--seed", "5"):
        "200ff74bae3a257464248be367db83b1984acbeccb5569c7e8df6b45f402a25f",
}


@pytest.mark.parametrize("argv", list(EGG_RUS_DIGESTS))
def test_egg_rus_digests(capsys, tmp_path, argv):
    code, _, _ = run(capsys, "egg-rus", *argv, "--out-dir", str(tmp_path))
    assert code == 0
    digest = hashlib.sha256((tmp_path / "egg-rus.json").read_bytes()).hexdigest()
    assert digest == EGG_RUS_DIGESTS[argv]


def _egg_rus_failing_in_the_write(capsys, monkeypatch, out_dir: Path, trials: int) -> None:
    # a NaN phase for the pair (1, 1), whose code only the last trial holds, is
    # met only while the log is being written, at that trial
    calls = []

    def last_holds_code_3(alpha, rng, max_attempts):
        result = run_rus(alpha, rng, max_attempts)
        calls.append(result)
        if len(calls) < trials:  # (1, 1) -> (0, 0): still a failed attempt
            return result._replace(codes=result.codes.replace(b"\x03", b"\x00"))
        return RusResult(result.attempts + 1, result.success, b"\x03" + result.codes)

    def nan_for_code_3(alpha):
        beta, probs, phases = setup(alpha)
        return beta, probs, (*phases[:3], float("nan"))

    run_rus, setup = cli.run_rus, cli._rus_setup
    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_rus", last_holds_code_3)
        patch.setattr(cli, "_rus_setup", nan_for_code_3)
        argv = ("egg-rus", "--trials", str(trials), "--out-dir", str(out_dir))
        code, out, err = run(capsys, *argv)
    assert (code, out, len(calls)) == (3, "", trials)
    assert json.loads(err)["error"] == "EncodingError"


# at 50 trials (about 70 kB of log) the run fails before the write buffer
# first flushes; at 400 (about 560 kB) the temporary already holds written data
_FAILING_TRIALS = (50, 400)


def test_egg_rus_failing_in_the_write_leaves_no_file(capsys, tmp_path, monkeypatch):
    # fd, fd/new and fd/new/sub were made by the run, and go with its files
    for trials in _FAILING_TRIALS:
        _egg_rus_failing_in_the_write(capsys, monkeypatch, tmp_path / "fd" / "new" / "sub", trials)
        assert list(tmp_path.iterdir()) == [], trials


def test_egg_rus_failing_in_the_write_keeps_an_existing_out_dir(capsys, tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    for trials in _FAILING_TRIALS:
        _egg_rus_failing_in_the_write(capsys, monkeypatch, tmp_path / "sub", trials)
        assert [p.name for p in tmp_path.iterdir()] == ["sub"], trials
        assert list((tmp_path / "sub").iterdir()) == [], trials


def test_failed_write_keeps_a_made_directory_that_is_not_empty(capsys, tmp_path, monkeypatch):
    # a file that another writer puts in a directory the run made keeps that directory
    out_dir = tmp_path / "made" / "sub"

    def failing_rename(src, dst):
        (out_dir.parent / "other.txt").write_text("x")
        raise OSError("rename failed")

    monkeypatch.setattr(cli.os, "replace", failing_rename)
    code, _, err = run(capsys, "measure", "--trials", "5", "--out-dir", str(out_dir))
    assert (code, json.loads(err)["error"]) == (4, "IOError")
    assert [p.name for p in tmp_path.iterdir()] == ["made"]
    assert [p.name for p in (tmp_path / "made").iterdir()] == ["other.txt"]


class _Unwritable:
    """A cell whose float conversion fails, as the CSV format asks for it."""

    def __init__(self, calls: list):
        self.calls = calls

    def __float__(self):
        self.calls.append(self)
        raise ValueError("this cell cannot be written")


def test_failing_in_the_csv_write_leaves_no_file(capsys, tmp_path, monkeypatch):
    # the bad row sits in the second block of lines, after the first was written
    trials, calls = cli.CSV_BLOCK + 20, []

    def one_bad(register, cfg, seed, n):
        results = ensemble(register, cfg, seed, n)
        results[cli.CSV_BLOCK + 10] = dataclasses.replace(
            results[cli.CSV_BLOCK + 10], residual_bound=_Unwritable(calls)
        )
        return results

    ensemble = cli.measurement_ensemble
    monkeypatch.setattr(cli, "measurement_ensemble", one_bad)
    out_dir = tmp_path / "fd" / "new" / "sub"
    code, out, err = run(capsys, "measure", "--trials", str(trials), "--out-dir", str(out_dir))
    assert (code, out, len(calls)) == (3, "", 1)
    assert json.loads(err)["error"] == "EncodingError"
    assert list(tmp_path.iterdir()) == []


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


def test_measure_hand_typed_pi_runs_at_pi(capsys, tmp_path):
    # a theta a rounding error above pi runs the chain at pi, so no label-0
    # chain reports the negative residual cos(theta/2) of the typed value
    for theta in ("3.1415927", "3.141592653589793"):
        code, _, _ = run(
            capsys, "measure", "--theta", theta, "--state", "1.0", "0", "--trials", "6",
            "--format", "both", "--out-dir", str(tmp_path / theta),
        )
        assert code == 0
    typed, exact = (tmp_path / "3.1415927", tmp_path / "3.141592653589793")
    for name in ("measure.csv", "measure.json"):
        assert (typed / name).read_bytes() == (exact / name).read_bytes()
    rows = [line.split(",") for line in (typed / "measure.csv").read_text().splitlines()[1:]]
    assert any(r[1] == "0" for r in rows)
    assert all(float(r[3]) >= 0.0 for r in rows)


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


def test_unknown_subcommand_is_parse_error(capsys, tmp_path):
    # egg-rus always runs at the balanced point: it has no --beta
    no_beta = ["egg-rus", "--beta", "0.1", "--out-dir", str(tmp_path)]
    for argv in (["frobnicate"], no_beta):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "0", "0", "0", "--seed", "1"),
        ("kraus", "--seed", "1"),
        ("egg-scan", "--samples", "3", "--seed", "1"),
        ("classify", "0", "0", "0", "--format", "csv"),
        ("kraus", "--format", "json"),
        ("egg-rus", "--trials", "2", "--format", "both"),
    ],
)
def test_seed_and_format_only_where_they_act(capsys, tmp_path, argv):
    # classify, kraus and egg-scan draw nothing; classify, kraus and egg-rus write JSON only
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_file(capsys, tmp_path):
    # walk.csv is written before walk.json would be; a directory in walk.json's place
    # makes the run fail, and neither walk.csv nor any temporary may be left behind
    (tmp_path / "walk.json").mkdir()
    code, out, err = run(
        capsys, "walk", "--trials", "5", "--epsilon", "0.5", "--out-dir", str(tmp_path)
    )
    assert code == 4
    assert json.loads(err)["error"] == "IOError"
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["walk.json"]
    assert list((tmp_path / "walk.json").iterdir()) == []


_EVERY_SUBCOMMAND = [
    ["classify", "0.3", "0.2", "0.1"],
    ["kraus", "--preset", "weak"],
    ["walk", "--trials", "3", "--epsilon", "0.5", "--svg"],
    ["egg-scan", "--samples", "5"],
    ["egg-rus", "--trials", "3", "--seed", "4"],
    ["measure", "--trials", "5", "--seed", "4"],
]


def test_main_parses_every_run_alike(capsys, tmp_path):
    # main keeps one parser; no run, failed or not, may change what the next one does
    def files(argv) -> tuple:
        out_dir = tmp_path / argv[0]
        code, out, err = run(capsys, *argv, "--out-dir", str(out_dir))
        written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        for p in out_dir.iterdir():
            p.unlink()
        return code, out, err, written

    first = [files(argv) for argv in _EVERY_SUBCOMMAND]
    assert [f[0] for f in first] == [0] * 6 and all(f[3] for f in first)
    for argv, want in zip(_EVERY_SUBCOMMAND, first):
        with pytest.raises(SystemExit) as exc:  # a parse error
            cli.main([argv[0], "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "measure", "--theta", "3.15", "--trials", "1")[0] == 2
        assert files(argv) == want


def test_build_parser_is_not_the_parser_main_keeps(capsys, tmp_path):
    argv = ["--extra", "1", "classify", "0", "0", "0", "--out-dir", str(tmp_path)]
    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    parser.add_argument("--extra")
    parser.set_defaults(seed=99)
    assert vars(parser.parse_args(argv))["seed"] == 99
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert run(capsys, *argv[2:])[0] == 0
    manifest = json.loads((tmp_path / "classify_manifest.json").read_text())
    assert "seed" not in manifest["parameters"] and "extra" not in manifest["parameters"]


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


# sha256 of measure.csv and measure.json, taken before chains ran from a cached
# plan per register.  residual_bound and the frequencies are floats, so these
# also pin numpy's pow and libm to the last bit, as EGG_SCAN_DIGESTS do.
MEASURE_DIGESTS = {
    ("--trials", "2000", "--seed", "3"): (
        "3a9355eb4e6603d9db714247cc159831d0aa1e71fa02b0146d16143185214a8e",
        "d745a1b0fb56fd2df21f6b9cd08e260970b005c2ae19ec3bac57573b260f77f1",
    ),
    # n = 9586: chains read past their first block of 4096 rounds
    ("--theta", "0.05", "--trials", "300"): (
        "69a7e7a6a17695a86c49c7602473f8d377fd6e105b5f5235971a6840128854e0",
        "83c977419eadd23ffd5fa907c2de029f8db72f1125163634415a077552798ff7",
    ),
    ("--state", "1.1", "0.4"): (
        "f7042356ab8b693a399d7a8485c5ed2d82b091a05c9be02ac5e55e491e5aaf96",
        "4d66146388a1a37761ddf7065d2b9b884af863a250f705c82a80f3e248abb991",
    ),
    ("--state", "0", "0"): (
        "d8f6bfcf0b0cfdb4907e680a7be46d306e8a438abc8db172bf3b34f4bfd7b084",
        "3c62426cb5a9905ad6cbe19dbe88c4082005260300449a69694af5ecb00da429",
    ),
    ("--state", "3.141592653589793", "0"): (
        "b679e8ed41466f01ec49be8711396da35b3c5daed16e47432cec1574aaa1fd55",
        "4f2cc9852bbca381a407ff9e805ae58ddc8778b1427e4221533f7b7dd842886d",
    ),
}


@pytest.mark.parametrize("argv", list(MEASURE_DIGESTS))
def test_measure_digests(capsys, tmp_path, argv):
    code, _, _ = run(capsys, "measure", *argv, "--format", "both", "--out-dir", str(tmp_path))
    assert code == 0
    got = tuple(
        hashlib.sha256((tmp_path / f"measure.{suffix}").read_bytes()).hexdigest()
        for suffix in ("csv", "json")
    )
    assert got == MEASURE_DIGESTS[argv]
