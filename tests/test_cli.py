"""End-to-end command line runs: exit codes, artifacts, determinism.

Runs go through main(argv) in-process. A reduced node count keeps the
module fast; contraction constants are quadrature-based and do not
depend on the mesh, so the frozen sweep values match the full-size runs.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracasym.cli import RunConfig, _build_parser, _read_artifact_csv, main
from fracasym.coeffexpr import Coefficient, load_coefficient
from fracasym.hypotheses import _NODE_CAP
from fracasym.meshfun import GradedGrid, TailModel, float_texts, make_graded_grid, write_csv
from fracasym.solver import gates

NODES = "512"


def _write_coeff(path, expr, amplitude, exponent, valid_from=1.0):
    doc = {
        "envelope": {"A": amplitude, "p": exponent, "valid_from": valid_from},
        "expr": expr,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def test_cli_import_loads_no_scipy():
    import fracasym

    src = str(Path(fracasym.__file__).resolve().parents[1])
    probe = ("import sys, fracasym.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src},
                         timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def slow_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("coeff")
    return _write_coeff(d / "slow.json", "0.01 / (1+t)^3.5", 0.01, 3.5)


@pytest.fixture(scope="module")
def mean_zero_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("coeffmz")
    return _write_coeff(d / "meanzero.json", "0.01 * (1 - t) * exp(-t)", 7.0, 6.0)


@pytest.fixture(scope="module")
def quad_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("coeffquad")
    return _write_coeff(d / "quad.json", "0.01 * t^2 / (1+t)^6", 0.01, 4.0)


@pytest.fixture(scope="module")
def heavy_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("coeffheavy")
    return _write_coeff(d / "heavy.json", "0.005 / (1+t)^2.5", 0.005, 2.5)


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory, slow_file):
    out = tmp_path_factory.mktemp("run_thm1")
    rc = main(["solve", "--coeff", slow_file, "--case", "thm1",
               "--nodes", NODES, "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def solved_lemma2_dir(tmp_path_factory, mean_zero_file):
    out = tmp_path_factory.mktemp("run_lemma2")
    rc = main(["solve", "--coeff", mean_zero_file, "--case", "lemma2",
               "--nodes", NODES, "--out", str(out)])
    assert rc == 0
    return out


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

class TestCheck:
    def test_single_case_passes(self, tmp_path, slow_file):
        rc = main(["check", "--coeff", slow_file, "--case", "thm1",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "check_thm1.json").read_text())
        assert doc["passed"] is True
        assert doc["k"] == pytest.approx(4.862925523449131e-3, rel=1e-9)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["command"] == "check"
        assert meta["config"]["nodes"] == 512

    def test_all_cases_reports_each(self, tmp_path, slow_file):
        # this coefficient does not vanish at the origin, so the singular
        # head constants refuse it; the run reports that case and fails
        rc = main(["check", "--coeff", slow_file,
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 1
        for case in ("thm1", "thm2", "thm3", "lemma2"):
            assert (tmp_path / f"check_{case}.json").exists()
        ok = json.loads((tmp_path / "check_thm1.json").read_text())
        assert ok["passed"] is True
        bad = json.loads((tmp_path / "check_thm2.json").read_text())
        assert bad["passed"] is False and "error" in bad
        lem = json.loads((tmp_path / "check_lemma2.json").read_text())
        assert "mean_zero" in lem


    def test_linear_growth_gate_at_a_large_horizon(self, tmp_path):
        # chi peaks near t = 1.62; a scan out to t = 1e6 must not read
        # quadrature error at large t as a higher sup
        coeff = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "origin_quadratic.json"
        rc = main(["check", "--coeff", str(coeff), "--case", "thm3", "--tmax", "1e6",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "check_thm3.json").read_text())
        assert doc["chi"] == pytest.approx(4.7951148801691e-4, rel=1e-12)
        assert doc["chi_argmax"] == pytest.approx(1.619, abs=1e-3)
        assert doc["k3"] == pytest.approx(4.7824e-4, rel=1e-4)


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

class TestSolve:
    def test_artifacts(self, solved_dir):
        doc = json.loads((solved_dir / "solve_thm1.json").read_text())
        assert doc["converged"] is True
        assert doc["case"] == "thm1"
        assert doc["predicted_k"] == pytest.approx(4.862925523449131e-3, rel=1e-9)
        assert len(doc["distances"]) == doc["iterations"]
        lines = (solved_dir / "fixed_point_thm1.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 512 + 2
        assert not (solved_dir / "solution_thm1.csv").exists()

    def test_deterministic_reruns(self, tmp_path, slow_file, solved_dir):
        rc = main(["solve", "--coeff", slow_file, "--case", "thm1",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        for name in ("solve_thm1.json", "fixed_point_thm1.csv"):
            assert (tmp_path / name).read_bytes() == (solved_dir / name).read_bytes()
        # a rerun of verify rewrites every artifact byte for byte
        verify = ["verify", "--coeff", slow_file, "--case", "thm1",
                  "--nodes", NODES, "--out", str(tmp_path)]
        assert main(verify) == 0
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()
                   if p.name != "run_meta.json"}
        assert {"residual_thm1.csv", "verify_thm1.csv", "boundary_thm1.json"} <= set(written)
        assert main(verify) == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
                if p.name != "run_meta.json"} == written

    def test_case_required(self, tmp_path, slow_file):
        rc = main(["solve", "--coeff", slow_file,
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 2

    def test_gate_failure_writes_the_reason(self, tmp_path):
        hot = _write_coeff(tmp_path / "hot.json", "5.0 / (1+t)^3.5", 5.0, 3.5)
        rc = main(["solve", "--coeff", hot, "--case", "thm1",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 1
        doc = json.loads((tmp_path / "solve_thm1.json").read_text())
        assert "error" in doc

    def test_gate_refusal_names_the_failed_hypothesis(self, tmp_path, heavy_file):
        # heavy_tail's k passes, but its envelope t^-2.5 leaves C1's tail
        # divergent, so thm1 refuses it on tail_ok alone
        rc = main(["solve", "--coeff", heavy_file, "--case", "thm1",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 1
        error = json.loads((tmp_path / "solve_thm1.json").read_text())["error"]
        assert "k=0.00486" in error and ": pass" in error
        assert "tail_ok: false" in error

    def test_nonconvergence_exit(self, tmp_path, slow_file):
        cfgfile = tmp_path / "config.json"
        cfgfile.write_text(json.dumps({"max_iterations": 2, "nodes": 512}))
        rc = main(["solve", "--coeff", slow_file, "--case", "thm1",
                   "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 3

    def test_linear_growth_writes_both_functions(self, tmp_path, heavy_file):
        rc = main(["solve", "--coeff", heavy_file, "--case", "thm3",
                   "--a", "0.3", "--b", "1.0",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fixed_point_thm3.csv").exists()
        assert (tmp_path / "solution_thm3.csv").exists()
        rc = main(["verify", "--coeff", heavy_file, "--case", "thm3",
                   "--a", "0.3", "--b", "1.0",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

class TestVerify:
    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(
        st.one_of(st.floats(allow_nan=False),
                  st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308 / 3,
                                   math.inf, -math.inf])),
        min_size=17, max_size=17))
    def test_artifact_csv_round_trip_is_bit_exact(self, tmp_path_factory, values):
        grid = make_graded_grid(n=16)
        path = str(tmp_path_factory.mktemp("csv") / "solution.csv")
        want = np.array(values)
        write_csv(path, "t,value", [grid.nodes, want])
        got = _read_artifact_csv(path, grid)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(columns=st.lists(
        st.tuples(*[st.one_of(st.floats(allow_nan=False),
                              st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308 / 3,
                                               math.inf, -math.inf]))] * 2),
        min_size=1, max_size=17))
    def test_a_text_column_writes_the_bytes_of_its_floats(self, tmp_path_factory, columns):
        d = tmp_path_factory.mktemp("csv")
        t, v = (np.array(c) for c in zip(*columns))
        write_csv(str(d / "floats.csv"), "t,value", [t, v])
        write_csv(str(d / "texts.csv"), "t,value", [list(float_texts(t)), v])
        assert (d / "texts.csv").read_bytes() == (d / "floats.csv").read_bytes()
        assert list(float_texts(t)) == [repr(float(c)) for c in t]

    @pytest.mark.parametrize("case, coeff, a, b", [
        ("thm1", "slow_file", "1", "1"),
        ("thm2", "quad_file", "1", "1"),
        ("thm3", "heavy_file", "0.3", "1"),
        ("lemma2", "mean_zero_file", "0", "0"),
    ])
    def test_csv_rows_are_repr_of_the_grid_nodes_and_values(
            self, request, tmp_path, case, coeff, a, b):
        args = ["--coeff", request.getfixturevalue(coeff), "--case", case, "--a", a,
                "--b", b, "--nodes", "1024", "--out", str(tmp_path)]
        assert main(["solve", *args]) == 0
        assert main(["verify", *args]) == 0
        nodes = make_graded_grid(n=1024).nodes
        lo, hi = json.loads((tmp_path / f"residual_{case}.json").read_text())["window"]
        window = np.flatnonzero((nodes >= lo) & (nodes <= hi))
        rows = {f"fixed_point_{case}.csv": range(1025), f"verify_{case}.csv": range(1, 1025),
                f"residual_{case}.csv": window[window >= 1]}
        if case in ("thm3", "lemma2"):
            rows[f"solution_{case}.csv"] = range(1025)
        for name, index in rows.items():
            lines = (tmp_path / name).read_text().splitlines()[1:]
            assert len(lines) == len(index), name
            for j, line in zip(index, lines):
                values = [float(c) for c in line.split(",")[1:]]
                assert line == ",".join(repr(float(c)) for c in (nodes[j], *values)), name

    def test_a_command_builds_one_grid(self, tmp_path, slow_file, monkeypatch):
        # the grid main checks the envelope on is the grid the command runs on
        built = []
        post_init = GradedGrid.__post_init__

        def counted(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(GradedGrid, "__post_init__", counted)
        args = ["--coeff", slow_file, "--case", "thm1", "--nodes", "1024", "--out", str(tmp_path)]
        for command in ("solve", "verify"):
            built.clear()
            assert main([command, *args]) == 0
            assert built == [1024], command

    def test_verify_writes_the_grid_node_texts_not_the_files(
            self, tmp_path, slow_file, solved_dir):
        # the reader accepts t cells within 1e-12 of the grid; verify's t
        # columns are the grid's own texts, however the file spells them
        lines = (solved_dir / "fixed_point_thm1.csv").read_text().splitlines()
        spelled = [lines[0]] + [f"{float(t):.17e},{v}" for t, v in
                                (line.split(",") for line in lines[1:])]
        assert spelled[1:] != lines[1:]
        written = {}
        for name, text in (("repr", lines), ("e17", spelled)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "fixed_point_thm1.csv").write_text("\n".join(text) + "\n")
            assert main(["verify", "--coeff", slow_file, "--case", "thm1",
                         "--nodes", NODES, "--out", str(tmp_path / name)]) == 0
            written[name] = [(tmp_path / name / f).read_bytes()
                             for f in ("verify_thm1.csv", "residual_thm1.csv")]
        assert written["e17"] == written["repr"]

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_a_non_finite_solution_fails_verification(self, tmp_path, slow_file, solved_dir,
                                                      cell):
        # a nan residual is not above the tolerance, and not within it either;
        # an inf cell meets inf - inf in the kernel, which numpy flags as invalid
        lines = (solved_dir / "fixed_point_thm1.csv").read_text().splitlines()
        mid = len(lines) // 2
        lines[mid] = lines[mid].split(",")[0] + "," + cell
        (tmp_path / "fixed_point_thm1.csv").write_text("\n".join(lines) + "\n")
        with np.errstate(invalid="ignore"):
            rc = main(["verify", "--coeff", slow_file, "--case", "thm1",
                       "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 4
        res = json.loads((tmp_path / "residual_thm1.json").read_text())
        assert res["sup_residual"] in ("nan", "inf")

    def test_malformed_artifact_row_is_named(self, tmp_path):
        grid = make_graded_grid(n=16)
        path = tmp_path / "solution.csv"
        rows = [f"{t!r},1.0" for t in grid.nodes]
        # one comma short on line 3 and one too many on line 5: the comma
        # count of the whole file is right, the rows are not
        rows[1], rows[3] = rows[1].replace(",", ";"), rows[3] + ",2.0"
        path.write_text("t,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="malformed row 3"):
            _read_artifact_csv(str(path), grid)

    def test_pipeline(self, solved_dir, slow_file):
        rc = main(["verify", "--coeff", slow_file, "--case", "thm1",
                   "--nodes", NODES, "--out", str(solved_dir)])
        assert rc == 0
        for name in ("residual_thm1.json", "residual_thm1.csv",
                     "asymptotic_thm1.json", "boundary_thm1.json",
                     "verify_thm1.csv"):
            assert (solved_dir / name).exists()
        res = json.loads((solved_dir / "residual_thm1.json").read_text())
        assert res["sup_residual"] <= 5e-3
        fit = json.loads((solved_dir / "asymptotic_thm1.json").read_text())
        assert abs(fit["b_hat"] - 1.0) <= 1e-3
        header = (solved_dir / "verify_thm1.csv").read_text().splitlines()[0]
        assert header == "t,x,head,weighted_remainder"

    def test_missing_artifacts_rejected(self, tmp_path, slow_file):
        rc = main(["verify", "--coeff", slow_file, "--case", "thm1",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 2

    def test_corrupted_artifact_rejected(self, tmp_path, slow_file, solved_dir):
        shutil.copy(solved_dir / "fixed_point_thm1.csv",
                    tmp_path / "fixed_point_thm1.csv")
        body = (tmp_path / "fixed_point_thm1.csv").read_text().splitlines()
        (tmp_path / "fixed_point_thm1.csv").write_text("\n".join(body[:-3]) + "\n")
        rc = main(["verify", "--coeff", slow_file, "--case", "thm1",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 2

    def test_grid_mismatch_rejected(self, tmp_path, slow_file, solved_dir):
        shutil.copy(solved_dir / "fixed_point_thm1.csv",
                    tmp_path / "fixed_point_thm1.csv")
        rc = main(["verify", "--coeff", slow_file, "--case", "thm1",
                   "--nodes", "1024", "--out", str(tmp_path)])
        assert rc == 2

    def test_residual_gate_breach(self, tmp_path, slow_file, solved_dir):
        for name in ("fixed_point_thm1.csv",):
            shutil.copy(solved_dir / name, tmp_path / name)
        cfgfile = tmp_path / "strict.json"
        cfgfile.write_text(json.dumps({"residual_tolerance": 1e-12, "nodes": 512}))
        rc = main(["verify", "--coeff", slow_file, "--case", "thm1",
                   "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 4

    def test_sign_change_certificate(self, solved_lemma2_dir, mean_zero_file):
        assert (solved_lemma2_dir / "solution_lemma2.csv").exists()
        rc = main(["verify", "--coeff", mean_zero_file, "--case", "lemma2",
                   "--nodes", NODES, "--out", str(solved_lemma2_dir)])
        assert rc == 0
        cert = json.loads((solved_lemma2_dir / "certificate_lemma2.json").read_text())
        for key in ("y_at_origin", "xprime_l1", "xprime_sup", "tail_sup_deviation"):
            assert math.isfinite(cert[key])
        res = json.loads((solved_lemma2_dir / "residual_lemma2.json").read_text())
        assert res["sup_residual"] <= 5e-3


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _read_sweep(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    def test_amplitude_scaling_is_linear(self, tmp_path, slow_file):
        rc = main(["sweep", "--coeff", slow_file, "--case", "thm1",
                   "--sweep", "amp=0.5:2.0:4",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_sweep(tmp_path / "sweep_thm1.csv")
        assert len(rows) == 4
        frozen = (2.4314627617245655e-3, 4.862925523449131e-3,
                  7.294388285173697e-3, 9.725851046898262e-3)
        for row, want in zip(rows, frozen):
            assert float(row["k"]) == pytest.approx(want, rel=1e-9)
            assert row["passed"] == "True"
            assert row["error"] == ""
        ratios = [float(r["k"]) / float(r["amp"]) for r in rows]
        assert max(ratios) - min(ratios) <= 1e-12

    def test_error_cells_are_recorded(self, tmp_path, slow_file):
        rc = main(["sweep", "--coeff", slow_file, "--case", "thm2",
                   "--sweep", "alpha=0.5:0.5:1",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_sweep(tmp_path / "sweep_thm2.csv")
        assert len(rows) == 1
        assert rows[0]["k"] == "" and rows[0]["error"] != ""
        assert rows[0]["passed"] == "False"

    def test_empty_range_writes_header_only(self, tmp_path, slow_file):
        rc = main(["sweep", "--coeff", slow_file, "--case", "thm1",
                   "--sweep", "amp=0.5:2.0:0",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep_thm1.csv").read_text().splitlines()
        assert lines == ["alpha,amp,T,k,passed,observed_ratio,error"]

    def test_observed_ratio_column(self, tmp_path, slow_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"sweep_ratios": True, "nodes": 512}))
        rc = main(["sweep", "--coeff", slow_file, "--case", "thm1",
                   "--sweep", "amp=1.0:1.0:1", "--config", str(cfgfile),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_sweep(tmp_path / "sweep_thm1.csv")
        assert float(rows[0]["observed_ratio"]) >= 0.0

    def test_sign_changes_are_searched_once_per_window(self, tmp_path, mean_zero_file,
                                                      monkeypatch):
        windows = []
        search = Coefficient._sign_changes

        def counted(self, lo, hi):
            windows.append((id(self), lo, hi))
            return search(self, lo, hi)

        monkeypatch.setattr(Coefficient, "_sign_changes", counted)
        main(["check", "--coeff", mean_zero_file,
              "--nodes", NODES, "--out", str(tmp_path / "check")])
        assert len(windows) == 1
        windows.clear()
        rc = main(["sweep", "--coeff", mean_zero_file, "--case", "thm1",
                   "--sweep", "T=0.5:50:128",
                   "--nodes", NODES, "--out", str(tmp_path / "sweep")])
        assert rc == 0
        assert len(_read_sweep(tmp_path / "sweep" / "sweep_thm1.csv")) == 128
        assert len(windows) == 1

    @pytest.mark.parametrize("case, name, axis", [
        ("thm1", "slow_file", "T=0.5:4:16"),
        ("thm1", "mean_zero_file", "T=0.5:50:16"),
        # cells at and past t_max = 100 are refused one by one
        ("thm2", "quad_file", "T=0.5:140:16"),
        # |a(0)| > 0: every cell is refused at the origin
        ("thm2", "slow_file", "T=0.5:4:4"),
        ("thm3", "heavy_file", "T=0.5:4:3"),
        ("lemma2", "mean_zero_file", "T=0.5:4:3"),
    ])
    def test_t_sweep_cells_equal_the_single_gate(self, request, tmp_path, case, name, axis):
        path = request.getfixturevalue(name)
        rc = main(["sweep", "--coeff", path, "--case", case, "--sweep", axis,
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        coeff = load_coefficient(path)
        grid = make_graded_grid(100.0, int(NODES), 2.0)
        for row in _read_sweep(tmp_path / f"sweep_{case}.csv"):
            g = gates(case, coeff, 0.5, [float(row["T"])], grid)[0]
            want = ([repr(g.k), str(g.passed), ""] if g.error is None
                    else ["", "False", str(g.error)])
            assert [row["k"], row["passed"], row["error"]] == want

    def test_amp_sweep_searches_sign_changes_once(self, tmp_path, mean_zero_file,
                                                  monkeypatch):
        windows = []
        search = Coefficient._sign_changes

        def counted(self, lo, hi):
            windows.append((lo, hi))
            return search(self, lo, hi)

        monkeypatch.setattr(Coefficient, "_sign_changes", counted)
        rc = main(["sweep", "--coeff", mean_zero_file, "--case", "lemma2",
                   "--sweep", "amp=0.5:2:8", "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        assert len(_read_sweep(tmp_path / "sweep_lemma2.csv")) == 8
        # one search per scaled coefficient before they shared it (8 in all)
        assert windows == [(0.0, 100.0)]

    @pytest.mark.parametrize("case, name", [
        ("thm1", "slow_file"), ("thm3", "heavy_file"), ("lemma2", "mean_zero_file")])
    def test_amp_sweep_cells_equal_the_single_gate(self, request, tmp_path, case, name):
        path = request.getfixturevalue(name)
        rc = main(["sweep", "--coeff", path, "--case", case, "--sweep", "amp=-1:2:4",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        coeff = load_coefficient(path)
        env = coeff.envelope
        grid = make_graded_grid(100.0, int(NODES), 2.0)
        rows = _read_sweep(tmp_path / f"sweep_{case}.csv")
        assert [row["amp"] for row in rows] == ["-1.0", "0.0", "1.0", "2.0"]
        for row in rows:
            amp = float(row["amp"])
            scaled = Coefficient.from_expression(
                f"{amp!r} * ({coeff.text})",
                TailModel("power", env.amplitude * abs(amp), env.exponent, env.valid_from))
            g = gates(case, scaled, 0.5, [1.0], grid)[0]
            want = ([repr(g.k), str(g.passed), ""] if g.error is None
                    else ["", "False", str(g.error)])
            assert [row["k"], row["passed"], row["error"]] == want, amp

    def test_t_sweep_calls_the_coefficient_per_block_of_cells(self, tmp_path, slow_file,
                                                             monkeypatch):
        sizes = []
        call = Coefficient.__call__

        def counted(self, t):
            sizes.append(np.size(t))
            return call(self, t)

        monkeypatch.setattr(Coefficient, "__call__", counted)
        rc = main(["sweep", "--coeff", slow_file, "--case", "thm1",
                   "--sweep", "T=0.5:4:128", "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 0
        assert len(_read_sweep(tmp_path / "sweep_thm1.csv")) == 128
        # four calls a cell when each cell ran its gate alone (515 in all)
        assert len(sizes) <= 64
        assert max(sizes) <= _NODE_CAP

    def test_overflowing_range_rejected(self, tmp_path, slow_file, capsys):
        # an overflowing, a malformed and an out-of-range axis, and one of
        # more points than memory holds: exit 2 before anything is written,
        # run_meta.json and --out included
        for axis, err in [("amp=-1e308:1e308:3", "bad sweep range"),
                          ("T=0.5:4:1000000000000000", "do not fit in memory"),
                          ("T=1:2", "sweep range must be lo:hi:steps"),
                          ("alpha=0.5:1.5:3", "outside the supported range")]:
            out = tmp_path / axis
            rc = main(["sweep", "--coeff", slow_file, "--case", "thm1",
                       "--sweep", axis, "--nodes", NODES, "--out", str(out)])
            assert rc == 2
            assert err in capsys.readouterr().err
            assert not out.exists()

    def test_overflowing_amplitude_becomes_an_error_cell(self, tmp_path, heavy_file):
        # lemma1_profile's norms overflow to inf, silently, instead of raising
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["sweep", "--coeff", heavy_file, "--case", "lemma2",
                       "--sweep", "amp=1e308:1e308:1", "--nodes", "256",
                       "--out", str(tmp_path)])
        assert rc == 0
        cell, = _read_sweep(tmp_path / "sweep_lemma2.csv")
        assert cell["passed"] == "False" and cell["k"] == ""
        assert cell["error"].startswith("2*||C*||_L1 = ")

    def test_unknown_parameter_rejected(self, tmp_path, slow_file):
        rc = main(["sweep", "--coeff", slow_file, "--case", "thm1",
                   "--sweep", "beta=0:1:3",
                   "--nodes", NODES, "--out", str(tmp_path)])
        assert rc == 2


# --------------------------------------------------------------------------
# configuration plumbing
# --------------------------------------------------------------------------

class TestConfig:
    def test_flags_override_the_file(self, tmp_path, slow_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"alpha": 0.25, "nodes": 512}))
        rc = main(["check", "--coeff", slow_file, "--case", "thm1",
                   "--config", str(cfgfile), "--alpha", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 0
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["config"]["alpha"] == 0.5
        assert meta["config"]["nodes"] == 512

    def test_unknown_config_key_rejected(self, tmp_path, slow_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"nope": 1}))
        rc = main(["check", "--coeff", slow_file, "--config", str(cfgfile),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_coefficient_file_is_required(self, tmp_path):
        rc = main(["check", "--out", str(tmp_path)])
        assert rc == 2

    def test_malformed_coefficient_rejected(self, tmp_path, capsys):
        docs = ["{not json", "[1, 2]", '{"envelope": [1, 2], "expr": "0.01"}',
                '{"envelope": {"A": 0.01, "p": 3.5}, "expr": 5}',
                '{"envelope": {"A": null, "p": 3.5}, "expr": "0"}',
                '{"envelope": {"A": true, "p": 3.5}, "expr": "0.01 / (1+t)^3.5"}',
                '{"envelope": {"A": 0.01, "p": true}, "expr": "0.01 / (1+t)^3.5"}',
                '{"envelope": {"A": 0.01, "p": 3.5, "valid_from": false}, "expr": "0"}',
                '{"envelope": {"A": 0.01, "p": 3.5}, "samples": [[0, 0.01], [1, true]]}',
                '{"envelope": {"A": "0.01", "p": 3.5}, "expr": "0.01 / (1+t)^3.5"}',
                '{"envelope": {"A": 1' + '0' * 400 + ', "p": 3.5}, "expr": "0"}']
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        for doc in docs:
            bad.write_text(doc)
            rc = main(["check", "--coeff", str(bad), "--out", str(out)])
            assert rc == 2, doc
            assert capsys.readouterr().err.startswith("error:"), doc
            assert not out.exists(), doc

    def test_every_flag_is_a_run_config_field(self):
        # the flags are built from RunConfig: every field that is not
        # config-only has one, named after it, and no other flag exists
        # besides --config
        config_only = {"max_iterations", "tolerance", "residual_tolerance", "sweep_ratios"}
        want = {f.name for f in fields(RunConfig)} - {"command"} - config_only
        parser = _build_parser()
        for command in ("check", "solve", "verify", "sweep"):
            got = set(vars(parser.parse_args([command]))) - {"command", "config"}
            assert got == want, command
        for key in want:  # each flag is spelled like its field
            value = {"case": ["thm1"], "override_hypotheses": []}.get(key, ["1"])
            ns = parser.parse_args(["check", "--" + key.replace("_", "-"), *value])
            assert getattr(ns, key) is not None, key

    def test_deep_expression_exits_2_before_writing(self, tmp_path):
        coeff = _write_coeff(tmp_path / "deep.json", "-" * 3000 + "0.01/(1+t)^3.5", 0.01, 3.5)
        rc = main(["check", "--coeff", coeff, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, reason", [
        (["--nodes", str(10**15)], "does not fit in memory"),
        (["--grading", "200", "--nodes", "4096"], "not strictly increasing"),
    ], ids=["unallocatable", "nodes-rounded-together"])
    def test_unbuildable_grid_exits_2_before_writing(self, tmp_path, slow_file, capsys,
                                                      flags, reason):
        rc = main(["solve", "--coeff", slow_file, "--case", "thm1", *flags,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
    def test_missing_case_exits_2_before_writing(self, tmp_path, slow_file, capsys, command):
        rc = main([command, "--coeff", slow_file, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {command} needs --case\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_case_rejected_by_the_parser(self, tmp_path, slow_file, capsys):
        rc = main(["solve", "--coeff", slow_file, "--case", "thm9",
                   "--out", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()


# --------------------------------------------------------------------------
# known limits: each test asserts the right behaviour and fails until its
# defect is mended (README "Known limits")
# --------------------------------------------------------------------------

class TestKnownLimits:
    @pytest.mark.xfail(strict=True, reason="lemma2 passes on k1 alone with mean_zero false, "
                                           "and C's tail bound assumes a zero mean")
    def test_lemma2_refuses_a_coefficient_with_nonzero_mean(self, tmp_path):
        coeff = _write_coeff(tmp_path / "c.json", "0.01 * exp(-t)", 100.0, 6.0)
        assert main(["check", "--coeff", coeff, "--case", "lemma2",
                     "--out", str(tmp_path / "out")]) != 0

    @pytest.mark.xfail(strict=True, reason="thm2 fits the origin exponent on probes "
                                           "above the t^0.4 term that makes it diverge")
    def test_thm2_refuses_a_divergent_origin_integral(self, tmp_path):
        coeff = _write_coeff(tmp_path / "c.json", "0.01 * (t^2 + 1e-12 * t^0.4) / (1+t)^6",
                             0.01, 4.0)
        assert main(["check", "--coeff", coeff, "--case", "thm2",
                     "--out", str(tmp_path / "out")]) != 0

    @pytest.mark.xfail(strict=True, reason="the declared envelope is trusted past --tmax")
    def test_thm1_refuses_an_envelope_the_expression_outgrows(self, tmp_path):
        coeff = _write_coeff(tmp_path / "c.json", "0.01 / (1+t)^1.2", 40.0, 3.0)
        assert main(["check", "--coeff", coeff, "--case", "thm1",
                     "--out", str(tmp_path / "out")]) != 0

    @pytest.mark.xfail(strict=True, reason="chi is scanned only up to the horizon")
    def test_thm3_chi_bounds_its_sup_past_the_horizon(self, tmp_path):
        coeff = _write_coeff(tmp_path / "c.json", "0.01/(1+t)^0.8", 0.01, 0.8)
        out = tmp_path / "out"
        main(["check", "--coeff", coeff, "--case", "thm3", "--out", str(out)])
        # chi at --tmax 1e6 reads 0.045280, and chi rises with the horizon
        assert json.loads((out / "check_thm3.json").read_text())["chi"] >= 0.04528
