"""Strict-JSON artifacts and malformed configuration values."""

import json

import pytest

from fracasym.cli import main
from fracasym.coeffexpr import Coefficient
from fracasym.hypotheses import lemma1_profile
from fracasym.meshfun import TailModel, make_graded_grid


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_profile_json_is_strict_with_two_sign_changes():
    # two sign changes leave t0 and T0 undefined (nan)
    coeff = Coefficient.from_expression(
        "0.01*(1-t)*exp(-t)*(2-t)", envelope=TailModel("power", 1.0, 3.0, 1.0))
    profile = lemma1_profile(coeff, 0.5, grid=make_graded_grid(n=512))
    doc = json.loads(profile.to_json(), parse_constant=_reject_constant)
    assert doc["n_zeros"] == 2
    assert doc["t0"] == "nan" and doc["T0"] == "nan"


@pytest.mark.parametrize("payload", [{"nodes": "abc"}, {"sweep": 5}])
def test_mistyped_config_value_rejected(tmp_path, payload, capsys):
    coeff = tmp_path / "coeff.json"
    coeff.write_text(json.dumps({
        "envelope": {"A": 0.01, "p": 3.5, "valid_from": 1.0},
        "expr": "0.01 / (1+t)^3.5",
    }))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(payload))
    rc = main(["check", "--coeff", str(coeff), "--config", str(cfgfile),
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
