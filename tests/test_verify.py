"""Post-hoc solution checks: equation defect, head fits, boundary limits.

Null-space members of each composite operator must leave residuals at
rounding scale; solved fixed points must beat the acceptance gate by
orders of magnitude. Head fits are pinned on synthetic inputs with known
coefficients before they are trusted on solved instances.
"""

import json

import numpy as np
import pytest

from fracasym.meshfun import GridFunction, json_ready, make_graded_grid, write_json
from fracasym.solver import reconstruct_prop1
from fracasym.specialfn import gamma
from fracasym.verify import (
    AsymptoticReport,
    BoundaryLimits,
    ResidualReport,
    asymptotic_fit,
    boundary_limits,
    prop1_certify,
    residual,
)

from conftest import ALPHA


def zero_coefficient(t):
    return np.zeros_like(np.asarray(t, dtype=np.float64))


# --------------------------------------------------------------------------
# equation residuals
# --------------------------------------------------------------------------

class TestResidual:
    def test_null_member_of_the_bounded_case(self, default_grid):
        t = default_grid.nodes
        x = GridFunction(default_grid, 1.0 + t**ALPHA)
        rep = residual(x, 1, zero_coefficient, ALPHA)
        assert rep.sup_residual <= 1e-3
        assert rep.window == (0.1, 98.0)

    def test_null_member_of_the_linear_growth_case(self, default_grid):
        x = GridFunction(default_grid, 3.0 * default_grid.nodes)
        rep = residual(x, 3, zero_coefficient, ALPHA)
        assert rep.sup_residual <= 1e-3

    def test_null_member_with_singular_head(self, default_grid):
        t = default_grid.nodes
        vals = np.empty(default_grid.n + 1)
        vals[1:] = t[1:] ** (ALPHA - 1.0)
        vals[0] = 1.0
        x = GridFunction(default_grid, vals, head_exponent=ALPHA - 1.0)
        rep = residual(x, 2, zero_coefficient, ALPHA)
        assert rep.sup_residual <= 1e-8

    def test_solved_bounded_case(self, solved_thm1, slow_decay_coeff):
        rep = residual(solved_thm1.solution, 1, slow_decay_coeff, ALPHA)
        # the sup is a double numerical derivative of the solution: scaling
        # the solution node-wise by 1 + 1e-14 N(0,1) moves it by up to 2.8e-4
        # relative (8 draws), so a closer pin than 1e-3 pins rounding noise
        assert rep.sup_residual == pytest.approx(5.687871170688419e-7, rel=1e-3)
        assert rep.sup_residual <= 5e-3

    def test_solved_singular_head_case(self, solved_thm2, origin_quadratic_coeff):
        rep = residual(solved_thm2.solution, 2, origin_quadratic_coeff, ALPHA)
        assert rep.sup_residual <= 2e-6

    def test_solved_linear_growth_case(self, solved_thm3, heavy_tail_coeff):
        rep = residual(solved_thm3.solution, 3, heavy_tail_coeff, ALPHA)
        assert rep.sup_residual <= 5e-5

    def test_solved_sign_change_case(self, solved_lemma2, sign_change_coeff):
        x, _ = reconstruct_prop1(solved_lemma2.fixed_point)
        rep = residual(x, 1, sign_change_coeff, ALPHA)
        assert rep.sup_residual == pytest.approx(2.7162109080793723e-5, rel=1e-5)
        assert rep.sup_residual <= 5e-3

    def test_report_serialization(self, default_grid, tmp_path):
        t = default_grid.nodes
        rep = residual(GridFunction(default_grid, 1.0 + t**ALPHA), 1,
                       zero_coefficient, ALPHA)
        write_json(tmp_path / "residual.json", rep)
        doc = json.loads((tmp_path / "residual.json").read_text())
        assert doc["case"] == 1 and doc["alpha"] == ALPHA
        assert doc["window"] == [0.1, 98.0]
        assert isinstance(doc["sup_residual"], float)

        path = tmp_path / "residual.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,residual"
        assert len(lines) == rep.t.size + 1
        cells = lines[1].split(",")
        assert float(cells[0]) == rep.t[0]


# --------------------------------------------------------------------------
# head fits over the last decade
# --------------------------------------------------------------------------

class TestAsymptoticFit:
    def test_exact_head_is_recovered(self, default_grid):
        t = default_grid.nodes
        x = GridFunction(default_grid, 1.0 + 2.0 * t**ALPHA)
        rep = asymptotic_fit(x, "thm1", ALPHA)
        assert rep.a_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.b_hat == pytest.approx(2.0, abs=1e-12)
        assert rep.weighted_remainder_sup <= 1e-12
        assert rep.bounded
        assert rep.window == (10.0, 100.0)

    def test_linear_head_with_decaying_remainder(self, default_grid):
        # x = 2t + 0.37 t^(alpha-1): the remainder term is exactly the
        # decaying power, so the weighted curve must sit at the level 0.37
        t = default_grid.nodes
        vals = np.empty(default_grid.n + 1)
        vals[1:] = 2.0 * t[1:] + 0.37 * t[1:] ** (ALPHA - 1.0)
        vals[0] = 0.37
        x = GridFunction(default_grid, vals, head_exponent=ALPHA - 1.0)
        rep = asymptotic_fit(x, "thm3", ALPHA, b_true=2.0)
        assert rep.b_hat == pytest.approx(2.0, abs=1e-9)
        assert rep.weighted_remainder_sup == pytest.approx(0.37, rel=1e-9)
        assert rep.bounded

    def test_solved_bounded_case_fit(self, solved_thm1):
        rep = asymptotic_fit(solved_thm1.solution, "thm1", ALPHA,
                             a_true=1.0, b_true=1.0)
        assert abs(rep.a_hat - 1.0) <= 5e-3
        assert abs(rep.b_hat - 1.0) <= 2.5e-4
        assert rep.weighted_remainder_sup == pytest.approx(4.043539223359434e-3, rel=1e-5)
        assert rep.bounded

    def test_solved_singular_head_case_fit(self, solved_thm2):
        rep = asymptotic_fit(solved_thm2.solution, "thm2", ALPHA,
                             a_true=1.0, b_true=1.0)
        assert abs(rep.b_hat - 1.0) <= 1e-5
        # the t^(alpha-1) term is not part of the reference head, so the
        # weighted remainder levels off at its coefficient
        assert rep.weighted_remainder_sup == pytest.approx(1.0, abs=5e-3)
        assert rep.bounded

    def test_solved_linear_growth_case_fit(self, solved_thm3):
        rep = asymptotic_fit(solved_thm3.solution, "thm3", ALPHA, b_true=1.0)
        assert abs(rep.b_hat - 1.0) <= 1e-5
        assert rep.weighted_remainder_sup <= 0.25
        assert rep.bounded

    def test_unknown_case_rejected(self, default_grid):
        x = GridFunction(default_grid, default_grid.nodes)
        with pytest.raises(ValueError, match="case must be one of"):
            asymptotic_fit(x, "lemma2", ALPHA)

    def test_under_resolved_window_rejected(self):
        grid = make_graded_grid(n=16, grading=5.0)
        x = GridFunction(grid, grid.nodes**ALPHA)
        with pytest.raises(ValueError, match="under-resolved"):
            asymptotic_fit(x, "thm1", ALPHA)

    def test_report_serialization(self, default_grid, tmp_path):
        t = default_grid.nodes
        rep = asymptotic_fit(GridFunction(default_grid, 1.0 + t**ALPHA),
                             "thm1", ALPHA)
        write_json(tmp_path / "asymptotic.json", rep)
        doc = json.loads((tmp_path / "asymptotic.json").read_text())
        assert doc["case"] == "thm1"
        assert doc["bounded"] is True


# --------------------------------------------------------------------------
# boundary limits
# --------------------------------------------------------------------------

class TestBoundaryLimits:
    def test_synthetic_singular_head(self, default_grid):
        t = default_grid.nodes
        vals = np.empty(default_grid.n + 1)
        vals[1:] = 0.7 * t[1:] ** (ALPHA - 1.0) + 1.3 * t[1:] ** ALPHA
        vals[0] = 0.7
        x = GridFunction(default_grid, vals, head_exponent=ALPHA - 1.0)
        lim = boundary_limits(x, "thm2", ALPHA)
        assert lim.origin_limit == pytest.approx(0.7, rel=1e-12)
        assert lim.origin_converged
        assert lim.derivative_at_horizon == pytest.approx(1.3 * gamma(1.0 + ALPHA),
                                                          rel=1e-8)

    def test_pure_power_derivative(self, default_grid):
        x = GridFunction(default_grid, default_grid.nodes**ALPHA)
        lim = boundary_limits(x, "thm1", ALPHA)
        assert abs(lim.origin_limit) <= 1e-12
        assert lim.origin_converged
        assert lim.derivative_at_horizon == pytest.approx(gamma(1.0 + ALPHA), rel=1e-8)
        assert lim.horizon_node <= 0.98 * default_grid.t_max

    def test_solved_singular_head_case(self, solved_thm2):
        lim = boundary_limits(solved_thm2.solution, "thm2", ALPHA)
        assert lim.origin_limit == pytest.approx(1.0, abs=1e-9)
        assert lim.origin_converged
        assert abs(lim.derivative_at_horizon - gamma(1.0 + ALPHA)) <= 1e-7

    def test_serialization(self, default_grid):
        x = GridFunction(default_grid, default_grid.nodes**ALPHA)
        doc = json_ready(boundary_limits(x, "thm1", ALPHA))
        assert set(doc) == {"origin_limit", "origin_converged",
                            "derivative_at_horizon", "horizon_node"}
        json.dumps(doc)


# --------------------------------------------------------------------------
# the integrable-derivative certificate
# --------------------------------------------------------------------------

class TestCertificate:
    def test_solved_sign_change_case(self, solved_lemma2):
        cert = prop1_certify(solved_lemma2.fixed_point)
        assert cert["y_at_origin"] == pytest.approx(1.585549315165522e-5, rel=1e-5)
        assert cert["xprime_l1"] == pytest.approx(9.05619100248721e-3, rel=1e-5)
        assert cert["xprime_sup"] == pytest.approx(4.121180441676065e-3, rel=1e-5)
        assert cert["tail_sup_deviation"] == pytest.approx(2.4437365877161277e-4,
                                                           rel=1e-5)
        assert all(np.isfinite(v) for v in cert.values())

    def test_zero_iterate(self, default_grid):
        y = GridFunction(default_grid, np.zeros(default_grid.n + 1))
        cert = prop1_certify(y)
        assert cert["y_at_origin"] == 0.0
        assert cert["xprime_l1"] == 0.0
        assert cert["xprime_sup"] == 0.0
        assert cert["tail_sup_deviation"] == 0.0
