"""Strict-JSON artifacts and malformed configuration values."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from fracasym.cli import main
from fracasym.coeffexpr import Coefficient, save_coefficient
from fracasym.hypotheses import lemma1_profile
from fracasym.meshfun import GridFunction, TailModel, json_ready, make_graded_grid, write_json


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _coeff_file(tmp_path, amplitude="0.01"):
    coeff = tmp_path / "coeff.json"
    coeff.write_text('{"envelope": {"A": %s, "p": 3.5, "valid_from": 1.0}, '
                     '"expr": "0.01 / (1+t)^3.5"}' % amplitude)
    return coeff


def test_profile_json_is_strict_with_two_sign_changes(tmp_path):
    # two sign changes leave t0 undefined (nan)
    coeff = Coefficient.from_expression(
        "0.01*(1-t)*exp(-t)*(2-t)", envelope=TailModel("power", 1.0, 3.0, 1.0))
    profile = lemma1_profile(coeff, 0.5, grid=make_graded_grid(n=512))
    write_json(tmp_path / "profile.json", profile)
    doc = json.loads((tmp_path / "profile.json").read_text(), parse_constant=_reject_constant)
    assert doc["n_zeros"] == 2
    assert doc["t0"] == "nan"


@pytest.mark.parametrize("payload", [{"nodes": "abc"}, {"sweep": 5}])
def test_mistyped_config_value_rejected(tmp_path, payload, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(payload))
    rc = main(["check", "--coeff", str(_coeff_file(tmp_path)), "--config", str(cfgfile),
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags, config, amplitude", [
    (["--a", "inf"], None, "0.01"),
    (["--tmax", "inf"], None, "0.01"),
    (["--b", "nan"], None, "0.01"),
    ([], '{"tolerance": 1e999}', "0.01"),
    (["--override-hypotheses"], None, "Infinity"),
], ids=["a-inf", "tmax-inf", "b-nan", "config-tolerance-1e999", "envelope-A-Infinity"])
def test_non_finite_input_exits_2_before_writing(tmp_path, capsys, flags, config, amplitude):
    out = tmp_path / "out"
    argv = ["solve", "--coeff", str(_coeff_file(tmp_path, amplitude)), "--case", "thm1",
            "--nodes", "64", "--out", str(out), *flags]
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(config)
        argv += ["--config", str(cfgfile)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_coefficient_above_its_envelope_exits_2_before_writing(tmp_path, capsys):
    # |a| = 0.5/(1+t)^2 lies far above 0.001 t^-4 past t = 1, so every tail
    # the gate closes with that envelope would be too small; an envelope
    # that holds only from t = 1e4 bounds nothing on (100, 1e4), where no
    # grid node lies either
    for name, text in [
        ("above", '{"expr": "0.5/(1+t)^2", '
                  '"envelope": {"A": 0.001, "p": 4.0, "valid_from": 1.0}}'),
        ("past-tmax", '{"expr": "0.01/(1+t)^3.5", '
                      '"envelope": {"A": 0.01, "p": 3.5, "valid_from": 1e4}}'),
    ]:
        coeff = tmp_path / f"{name}.json"
        coeff.write_text(text)
        out = tmp_path / name
        argv = ["check", "--case", "thm1", "--coeff", str(coeff), "--nodes", "64",
                "--tmax", "100", "--out", str(out)]
        assert main(argv) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error:") and "envelope" in err, name
        assert not out.exists(), name


_TABLE = '[[0, 0.001], [1, %s], [2, 0], [200, 0]]'


@pytest.mark.parametrize("text, tmax", [
    # the pole at t = 500 lies past t = 100 but inside the run's horizon
    ('{"expr": "1e-9/(t-500)^3", '
     '"envelope": {"A": 2.2e-7, "p": 3.0, "valid_from": 600.0}}', "1000"),
    ('{"samples": %s, "envelope": {"A": 0.01, "p": 3.5, "valid_from": 2.0}}'
     % (_TABLE % "NaN"), "100"),
    ('{"samples": %s, "envelope": {"A": 0.01, "p": 3.5, "valid_from": 2.0}}'
     % (_TABLE % "1e999"), "100"),
], ids=["pole-inside-horizon", "nan-sample", "inf-sample"])
def test_coefficient_not_finite_on_the_horizon_exits_2_before_writing(
        tmp_path, capsys, text, tmax):
    coeff = tmp_path / "coeff.json"
    coeff.write_text(text)
    out = tmp_path / "out"
    argv = ["check", "--case", "thm1", "--coeff", str(coeff), "--tmax", tmax,
            "--nodes", "256", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@dataclass(frozen=True)
class _Report:
    k: float
    pair: tuple
    nodes: np.ndarray
    fun: GridFunction


def test_json_ready_encodes_non_finite_tuples_and_drops_arrays():
    grid = make_graded_grid(n=16)
    rep = _Report(np.float64("inf"), (1.0, float("nan")), grid.nodes,
                  GridFunction(grid, np.zeros(17)))
    assert json_ready(rep) == {"k": "inf", "pair": [1.0, "nan"]}
    assert json_ready({"x": (-np.inf,)}) == {"x": ["-inf"]}


def _cli_runs(tmp_path, coeffs):
    """(out dir, argv) of check (all chains), solve and verify per conftest
    coefficient at n=256, a thm1 check with C1 = inf and an overridden
    lemma2 solve whose gate raises (predicted_k = nan)."""
    runs = []
    for case, (coeff, a, b) in coeffs.items():
        path = tmp_path / f"{case}.json"
        save_coefficient(coeff, str(path))
        args = ["--coeff", str(path), "--nodes", "256"]
        runs.append((tmp_path / case, ["check", *args]))
        for cmd in ("solve", "verify"):
            runs.append((tmp_path / case, [cmd, *args, "--case", case,
                                           "--a", repr(a), "--b", repr(b)]))
    for name, expr, env in [("weak", "0.01/(1+t)^2", (0.01, 2.0)),
                            ("strong", "0.5*(1-t)*exp(-t)", (350.0, 6.0))]:
        save_coefficient(Coefficient.from_expression(expr, TailModel("power", *env, 1.0)),
                         str(tmp_path / f"{name}.json"))
    runs.append((tmp_path / "weak", ["check", "--coeff", str(tmp_path / "weak.json"),
                                     "--case", "thm1", "--nodes", "256"]))
    runs.append((tmp_path / "strong", ["solve", "--coeff", str(tmp_path / "strong.json"),
                                       "--case", "lemma2", "--a", "0", "--b", "0",
                                       "--nodes", "256", "--override-hypotheses"]))
    return runs


def test_every_cli_json_artifact_is_strict(tmp_path, slow_decay_coeff, origin_quadratic_coeff,
                                           heavy_tail_coeff, sign_change_coeff):
    coeffs = {"thm1": (slow_decay_coeff, 1.0, 1.0),
              "thm2": (origin_quadratic_coeff, 1.0, 1.0),
              "thm3": (heavy_tail_coeff, 0.3, 1.0),
              "lemma2": (sign_change_coeff, 0.0, 0.0)}
    for out, argv in _cli_runs(tmp_path, coeffs):
        assert main(argv + ["--out", str(out)]) in (0, 1, 4)
    docs = {}
    for path in tmp_path.glob("*/*.json"):
        with open(path) as fh:
            docs[f"{path.parent.name}/{path.name}"] = json.load(
                fh, parse_constant=_reject_constant)
    for case in coeffs:
        for kind in ("run_meta", "check_thm1", "check_thm2", "check_thm3", "check_lemma2",
                     f"solve_{case}", f"residual_{case}", f"asymptotic_{case}",
                     f"boundary_{case}"):
            assert f"{case}/{kind}.json" in docs
    assert "lemma2/certificate_lemma2.json" in docs
    assert docs["weak/check_thm1.json"]["C1"] == "inf"
    assert docs["strong/solve_lemma2.json"]["predicted_k"] == "nan"
