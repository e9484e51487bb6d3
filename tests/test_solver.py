"""Fixed-point iteration: seeds, oracle-checked first iterates, contraction.

First Picard iterates are pinned against two-level adaptive quadrature
(inner tail integral out to infinity, outer integral with the algebraic
kernel weight), evaluated at actual grid nodes. The contraction law,
stationarity, seed independence and the proof-chain tail estimates are
property-tested with seeded random inputs.
"""

import csv
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracasym.cli import main
from fracasym.fracops import convolve
from fracasym.hypotheses import (
    EnvelopeError,
    envelope_tail_integral,
    lemma1_profile,
    thm1_constants,
)
from fracasym.meshfun import (
    GridFunction,
    TailModel,
    WeightedMetric,
    integrate,
    json_ready,
    make_graded_grid,
    metric_distance,
    write_json,
)
from fracasym.solver import (
    SOLVE_CASES,
    SolveSpec,
    gates,
    reconstruct_prop1,
    reconstruct_thm3,
    solve,
    step_lemma2,
    step_thm1,
    step_thm2,
    step_thm3,
    x_to_y,
)
from fracasym.solver import _inverse_square_sweep
from fracasym.specialfn import gamma

from conftest import ALPHA, make_power_coefficient


@pytest.fixture(scope="module")
def zero_coeff():
    return make_power_coefficient("0 * t", 0.0, 4.0)


# --------------------------------------------------------------------------
# spec validation
# --------------------------------------------------------------------------

class TestSolveSpecValidation:
    def test_unknown_case_rejected(self, zero_coeff):
        with pytest.raises(ValueError, match="case must be one of"):
            SolveSpec("thm5", ALPHA, 1.0, 1.0, zero_coeff)

    def test_vanishing_scalar_pair_rejected(self, zero_coeff):
        for case in ("thm1", "thm2"):
            with pytest.raises(ValueError, match="not both vanish"):
                SolveSpec(case, ALPHA, 0.0, 0.0, zero_coeff)

    @pytest.mark.parametrize("case", ["thm1", "thm2"])
    @pytest.mark.parametrize("a", [1e-200, 1e155])
    def test_tiny_or_huge_scalar_pair_accepted(self, zero_coeff, case, a):
        # a^2 + b^2 underflows to 0 at 1e-200 and overflows at 1e155
        assert SolveSpec(case, ALPHA, a, 0.0, zero_coeff).a == a

    def test_linear_growth_needs_nonzero_slope(self, zero_coeff):
        with pytest.raises(ValueError, match="b != 0"):
            SolveSpec("thm3", ALPHA, 1.0, 0.0, zero_coeff)

    def test_order_parameter_must_be_fractional(self, zero_coeff):
        with pytest.raises(ValueError):
            SolveSpec("thm1", 1.5, 1.0, 1.0, zero_coeff)

    def test_split_must_sit_inside_the_grid(self, zero_coeff):
        with pytest.raises(ValueError, match="split"):
            SolveSpec("thm1", ALPHA, 1.0, 1.0, zero_coeff, split=500.0)

    def test_stop_parameters_validated(self, zero_coeff):
        with pytest.raises(ValueError, match="tolerance"):
            SolveSpec("thm1", ALPHA, 1.0, 1.0, zero_coeff, tolerance=0.0)
        with pytest.raises(ValueError, match="iteration"):
            SolveSpec("thm1", ALPHA, 1.0, 1.0, zero_coeff, max_iterations=0)

    def test_echo_carries_the_run_parameters(self, zero_coeff):
        spec = SolveSpec("thm1", ALPHA, 1.0, 2.0, zero_coeff)
        echo = spec.echo()
        assert echo["case"] == "thm1"
        assert echo["a"] == 1.0 and echo["b"] == 2.0
        assert echo["n"] == 4096 and echo["t_max"] == 100.0
        assert "envelope" in echo["coefficient"]


# --------------------------------------------------------------------------
# trivial fixed points and single steps
# --------------------------------------------------------------------------

class TestTrivialSteps:
    def test_zero_coefficient_converges_immediately(self, zero_coeff):
        res = solve(SolveSpec("thm1", ALPHA, 1.0, 2.0, zero_coeff))
        assert res.converged and res.iterations == 1
        assert res.distances == (0.0,)
        t = res.solution.grid.nodes
        assert np.array_equal(res.solution.values, 1.0 + 2.0 * t**ALPHA)

    def test_step_on_zero_input_returns_the_affine_head(self, zero_coeff, slow_decay_coeff):
        grid = make_graded_grid()
        t = grid.nodes
        x0 = GridFunction(grid, np.zeros(grid.n + 1))
        out = step_thm1(x0, SolveSpec("thm1", ALPHA, 3.0, -1.0, slow_decay_coeff))
        assert np.allclose(out.values, 3.0 - t**ALPHA, rtol=0.0, atol=1e-15)

    def test_step_thm2_zero_coefficient_is_exact(self, zero_coeff):
        grid = make_graded_grid()
        t = grid.nodes
        x0 = GridFunction(grid, np.zeros(grid.n + 1), head_exponent=ALPHA - 1.0)
        out = step_thm2(x0, SolveSpec("thm2", ALPHA, 2.0, 0.5, zero_coeff))
        assert out.head_exponent == ALPHA - 1.0
        assert out.values[0] == 2.0
        expected = 2.0 * t[1:] ** (ALPHA - 1.0) + 0.5 * t[1:] ** ALPHA
        assert np.allclose(out.values[1:], expected, rtol=1e-15)

    def test_step_thm3_zero_everything_is_the_pure_head(self, zero_coeff):
        grid = make_graded_grid()
        y0 = GridFunction(grid, np.zeros(grid.n + 1), head_exponent=ALPHA - 1.0)
        out = step_thm3(y0, SolveSpec("thm3", ALPHA, 0.7, 1.0, zero_coeff))
        assert out.values[0] == pytest.approx(0.7, abs=1e-15)
        t = grid.nodes
        assert np.allclose(out.values[1:], 0.7 * t[1:] ** (ALPHA - 1.0), rtol=1e-12)

    def test_step_lemma2_zero_kernel_and_zero_iterate(self, default_grid):
        grid = default_grid
        rng = np.random.default_rng(3)
        y = GridFunction(grid, rng.uniform(-1.0, 1.0, grid.n + 1))
        zero_kernel = GridFunction(grid, np.zeros(grid.n + 1))
        assert not np.any(step_lemma2(y, zero_kernel).values)
        cvals = np.exp(-grid.nodes)
        cfun = GridFunction(grid, cvals)
        zero_y = GridFunction(grid, np.zeros(grid.n + 1))
        assert np.allclose(step_lemma2(zero_y, cfun).values, -cvals, rtol=1e-15)

    @pytest.mark.parametrize("step", [step_thm1, step_thm2, step_thm3])
    @pytest.mark.parametrize("other", [
        make_graded_grid(t_max=60.0, n=64),
        make_graded_grid(t_max=50.0, n=64, grading=1.5),
        make_graded_grid(t_max=50.0, n=128),
    ], ids=["t_max", "grading", "n"])
    def test_steps_refuse_an_iterate_off_the_problem_grid(self, step, other,
                                                          slow_decay_coeff):
        # the coefficient samples a step reads are cached on the spec's grid
        case = step.__name__.removeprefix("step_")
        spec = SolveSpec(case, ALPHA, 1.0, 1.0, slow_decay_coeff,
                         grid=make_graded_grid(t_max=50.0, n=64))
        x = GridFunction(other, np.ones(other.n + 1))
        with pytest.raises(ValueError, match="different grids"):
            step(x, spec)

    def test_solution_map_is_linear_in_the_scalars(self, slow_decay_coeff, solved_thm1):
        doubled = solve(SolveSpec("thm1", ALPHA, 2.0, 2.0, slow_decay_coeff))
        gap = np.max(np.abs(doubled.solution.values - 2.0 * solved_thm1.solution.values))
        assert gap <= 1e-8


# --------------------------------------------------------------------------
# first iterates against nested adaptive quadrature
# --------------------------------------------------------------------------

class TestFirstIterateOracles:
    def test_bounded_case_first_iterate(self, slow_decay_coeff):
        grid = make_graded_grid()
        t = grid.nodes
        spec = SolveSpec("thm1", ALPHA, 1.0, 1.0, slow_decay_coeff)
        x1 = step_thm1(GridFunction(grid, 1.0 + t**ALPHA), spec)

        a_fn = lambda u: 0.01 / (1.0 + u) ** 3.5
        inner = lambda s: quad(lambda u: a_fn(u) * (1.0 + u**ALPHA),
                               s, np.inf, limit=400)[0]
        for target in (1.0, 10.0):
            i = grid.index_at_or_above(target)
            tn = t[i]
            outer = quad(inner, 0.0, tn, weight="alg",
                         wvar=(0.0, ALPHA - 1.0), limit=400)[0]
            oracle = 1.0 + tn**ALPHA + outer / gamma(ALPHA)
            assert x1.values[i] == pytest.approx(oracle, rel=2e-6)

    def test_singular_head_case_first_iterate(self, origin_quadratic_coeff):
        grid = make_graded_grid()
        t = grid.nodes
        spec = SolveSpec("thm2", ALPHA, 1.0, 1.0, origin_quadratic_coeff)
        vals = np.empty(grid.n + 1)
        vals[1:] = t[1:] ** (ALPHA - 1.0)
        vals[0] = 1.0
        x1 = step_thm2(GridFunction(grid, vals, head_exponent=ALPHA - 1.0), spec)

        a_fn = lambda u: 0.01 * u**2 / (1.0 + u) ** 6
        inner = lambda s: quad(lambda u: a_fn(u) * u ** (ALPHA - 1.0),
                               s, np.inf, limit=400)[0]
        i = grid.index_at_or_above(1.0)
        tn = t[i]
        outer = quad(inner, 0.0, tn, weight="alg",
                     wvar=(0.0, ALPHA - 1.0), limit=400)[0]
        oracle = tn ** (ALPHA - 1.0) + tn**ALPHA + outer / gamma(ALPHA)
        assert x1.values[i] == pytest.approx(oracle, rel=1e-8)


# --------------------------------------------------------------------------
# convergence traces of the four reference instances
# --------------------------------------------------------------------------

class TestConvergenceTraces:
    def test_bounded_case_trace(self, solved_thm1):
        r = solved_thm1
        assert r.converged and r.hypotheses_pass and not r.ratio_exceeded
        assert r.iterations == 4
        frozen = (3.26179067975807e-3, 4.884658078685433e-6,
                  6.9669330304833466e-9, 9.75197700370245e-12)
        for got, want in zip(r.distances, frozen):
            assert got == pytest.approx(want, rel=1e-6)
        assert r.observed_ratio == pytest.approx(1.3997517933692389e-3, rel=1e-6)
        assert r.observed_ratio <= r.predicted_k + 0.05
        assert r.predicted_k == pytest.approx(4.862925523449131e-3, rel=1e-9)
        assert r.tail_budget == pytest.approx(1.1296123376779776e-6, rel=1e-6)

    def test_bounded_case_stationarity_and_seed_independence(
            self, solved_thm1, slow_decay_coeff):
        spec = SolveSpec("thm1", ALPHA, 1.0, 1.0, slow_decay_coeff)
        metric = WeightedMetric("sup_over_t_alpha_after_T", split=1.0, alpha=ALPHA)
        again = step_thm1(solved_thm1.fixed_point, spec)
        assert metric_distance(metric, again, solved_thm1.fixed_point) <= 10.0 * spec.tolerance

        # a different admissible seed must land on the same fixed point
        current = GridFunction(spec.grid, np.zeros(spec.grid.n + 1))
        for _ in range(spec.max_iterations):
            nxt = step_thm1(current, spec)
            d = metric_distance(metric, nxt, current)
            current = nxt
            if d <= spec.tolerance:
                break
        assert metric_distance(metric, current, solved_thm1.fixed_point) \
            <= 100.0 * spec.tolerance

    def test_singular_head_case_trace(self, solved_thm2):
        r = solved_thm2
        assert r.converged and r.hypotheses_pass and not r.ratio_exceeded
        assert r.iterations == 3
        assert r.distances[-1] <= 1e-10
        assert r.predicted_k == pytest.approx(1.1625246546315437e-3, rel=1e-9)
        assert r.tail_budget == pytest.approx(9.020763400083182e-8, rel=1e-6)
        assert r.fixed_point.head_exponent == ALPHA - 1.0
        assert r.fixed_point.values[0] == pytest.approx(1.0, rel=1e-12)

    def test_linear_growth_case_trace(self, solved_thm3):
        r = solved_thm3
        assert r.converged and r.hypotheses_pass and not r.ratio_exceeded
        assert r.iterations == 5
        assert r.observed_ratio == pytest.approx(3.6535717463028166e-4, rel=1e-6)
        assert r.observed_ratio <= r.predicted_k + 0.05
        assert r.tail_budget == pytest.approx(5.642180733965739e-4, rel=1e-6)
        # head of the iterated object and of the reconstructed solution
        assert r.fixed_point.head_exponent == ALPHA - 1.0
        assert r.fixed_point.values[0] == pytest.approx(0.3024433822244282, rel=1e-9)
        assert r.solution.head_exponent == ALPHA - 1.0
        assert r.solution.values[0] == pytest.approx(-0.2016289214829521, rel=1e-9)

    def test_linear_growth_head_limit_identity(self, heavy_tail_coeff):
        # one application to the zero iterate realizes the origin limit
        # a + b/Gamma(alpha) * integral of s a(s)
        grid = make_graded_grid()
        t = grid.nodes
        spec = SolveSpec("thm3", ALPHA, 0.3, 1.0, heavy_tail_coeff)
        y0 = GridFunction(grid, np.zeros(grid.n + 1), head_exponent=ALPHA - 1.0)
        out = step_thm3(y0, spec)
        moment = integrate(GridFunction(grid, t * heavy_tail_coeff(t)))
        assert out.values[0] == pytest.approx(0.3 + moment / gamma(ALPHA), rel=1e-12)

    def test_sign_change_case_trace(self, solved_lemma2):
        r = solved_lemma2
        assert r.converged and r.hypotheses_pass and not r.ratio_exceeded
        assert r.iterations == 3
        assert r.predicted_k == pytest.approx(4.1969268855186495e-2, rel=1e-9)
        assert r.tail_budget == pytest.approx(1.3485346445490942e-4, rel=1e-6)
        assert r.diagnostics["kernel_rescale"] == pytest.approx(1.0 / gamma(ALPHA), rel=1e-15)
        assert r.diagnostics["y_at_origin"] == pytest.approx(1.585549315165522e-5, rel=1e-6)
        assert r.diagnostics["xprime_l1"] == pytest.approx(9.05619100248721e-3, rel=1e-6)
        assert r.diagnostics["xprime_sup"] == pytest.approx(4.121180441676065e-3, rel=1e-6)
        assert r.diagnostics["x_at_horizon"] == pytest.approx(1.0, abs=1e-9)

    def test_iteration_cap_reports_instead_of_raising(self, slow_decay_coeff):
        res = solve(SolveSpec("thm1", ALPHA, 1.0, 1.0, slow_decay_coeff,
                              max_iterations=2))
        assert not res.converged
        assert res.iterations == 2
        assert len(res.distances) == 2
        assert not res.ratio_exceeded


# --------------------------------------------------------------------------
# the contraction law on random pairs
# --------------------------------------------------------------------------

def _bounded_pair(rng, grid):
    t = grid.nodes
    c = rng.uniform(-1.0, 1.0, 3)
    return GridFunction(grid, c[0] + c[1] * t**ALPHA + c[2] * t**ALPHA / (1.0 + t))


def _singular_head_pair(rng, grid):
    # all members share the head coefficient: the iteration never moves
    # the singular part and the plain-sup window of the metric requires
    # differences to stay bounded near 0
    t = grid.nodes
    c = rng.uniform(-1.0, 1.0, 2)
    vals = np.empty(grid.n + 1)
    vals[1:] = (t[1:] ** (ALPHA - 1.0) + c[0] * t[1:] ** ALPHA
                + c[1] * t[1:] ** ALPHA / (1.0 + t[1:]))
    vals[0] = 1.0
    return GridFunction(grid, vals, head_exponent=ALPHA - 1.0)


def _decaying_pair(rng, grid):
    t = grid.nodes
    c = rng.uniform(-1.0, 1.0, 3)
    vals = np.empty(grid.n + 1)
    vals[1:] = (c[0] * t[1:] ** (ALPHA - 1.0)
                + c[1] * t[1:] ** ALPHA / (1.0 + t[1:]) ** 2
                + c[2] * t[1:] ** (ALPHA - 1.0) * (1.0 - np.exp(-t[1:])))
    vals[0] = c[0]
    return GridFunction(grid, vals, head_exponent=ALPHA - 1.0)


class TestContractionLaw:
    def test_bounded_case_pairs(self, slow_decay_coeff, solved_thm1):
        spec = SolveSpec("thm1", ALPHA, 1.0, 1.0, slow_decay_coeff)
        metric = WeightedMetric("sup_over_t_alpha_after_T", split=1.0, alpha=ALPHA)
        rng = np.random.default_rng(11)
        bound = solved_thm1.predicted_k + 0.05
        for _ in range(20):
            u, v = _bounded_pair(rng, spec.grid), _bounded_pair(rng, spec.grid)
            d0 = metric_distance(metric, u, v)
            d1 = metric_distance(metric, step_thm1(u, spec), step_thm1(v, spec))
            assert d1 <= bound * d0

    def test_singular_head_case_pairs(self, origin_quadratic_coeff, solved_thm2):
        spec = SolveSpec("thm2", ALPHA, 1.0, 1.0, origin_quadratic_coeff)
        metric = WeightedMetric("sup_over_t_alpha_after_T", split=1.0, alpha=ALPHA)
        rng = np.random.default_rng(12)
        bound = solved_thm2.predicted_k + 0.05
        for _ in range(20):
            u = _singular_head_pair(rng, spec.grid)
            v = _singular_head_pair(rng, spec.grid)
            d0 = metric_distance(metric, u, v)
            d1 = metric_distance(metric, step_thm2(u, spec), step_thm2(v, spec))
            assert d1 <= bound * d0

    def test_linear_growth_case_pairs(self, heavy_tail_coeff, solved_thm3):
        spec = SolveSpec("thm3", ALPHA, 0.3, 1.0, heavy_tail_coeff)
        metric = WeightedMetric("sup_t_one_minus_alpha", alpha=ALPHA)
        rng = np.random.default_rng(13)
        bound = solved_thm3.predicted_k + 0.05
        for _ in range(20):
            u = _decaying_pair(rng, spec.grid)
            v = _decaying_pair(rng, spec.grid)
            d0 = metric_distance(metric, u, v)
            d1 = metric_distance(metric, step_thm3(u, spec), step_thm3(v, spec))
            assert d1 <= bound * d0

    def test_sign_change_case_pairs(self, sign_change_coeff, solved_lemma2):
        grid = make_graded_grid()
        profile = lemma1_profile(sign_change_coeff, ALPHA, grid=grid)
        cfun = profile.C.scaled(1.0 / gamma(ALPHA))
        metric = WeightedMetric("max_sup_and_L1", alpha=ALPHA)
        rng = np.random.default_rng(14)
        bound = solved_lemma2.predicted_k + 0.05
        gamma_ball = 2.071764923634157
        for _ in range(20):
            u = GridFunction(grid, gamma_ball * profile.C_star.values
                             * rng.uniform(-1.0, 1.0, grid.n + 1))
            v = GridFunction(grid, gamma_ball * profile.C_star.values
                             * rng.uniform(-1.0, 1.0, grid.n + 1))
            d0 = metric_distance(metric, u, v)
            d1 = metric_distance(metric, step_lemma2(u, cfun), step_lemma2(v, cfun))
            assert d1 <= bound * d0


# --------------------------------------------------------------------------
# proof-chain tail estimates
# --------------------------------------------------------------------------

class TestTailEstimates:
    def test_bounded_case_coupling_bound(self, solved_thm1, slow_decay_coeff):
        # the absolute coupling integral is controlled by the first-moment
        # constant: conv((t-s)^(alpha-1), tail of |a x*|) stays below
        # (2 C1 / alpha) d(x*, 0) t^(alpha-1) past the split point
        grid = solved_thm1.fixed_point.grid
        t = grid.nodes
        report = thm1_constants(slow_decay_coeff, ALPHA, T=1.0)
        metric = WeightedMetric("sup_over_t_alpha_after_T", split=1.0, alpha=ALPHA)
        zero = GridFunction(grid, np.zeros(grid.n + 1))
        dist = metric_distance(metric, solved_thm1.fixed_point, zero)

        xv = solved_thm1.fixed_point.values
        growth = float(np.max(np.abs(xv[1:]) / np.maximum(t[1:], 1.0) ** ALPHA))
        g_abs = GridFunction(grid, np.abs(slow_decay_coeff(t) * xv))
        tail = TailModel("power", 0.01 * growth, 3.5 - ALPHA, 1.0)
        total = integrate(g_abs) + envelope_tail_integral(tail, 0.0, grid.t_max)
        conv = convolve(g_abs, ALPHA).pointwise_values()
        lhs = (t[1:] ** ALPHA * total - conv[1:]) / ALPHA
        rhs = (2.0 * report.C1 / ALPHA) * dist * t[1:] ** (ALPHA - 1.0)
        past = t[1:] >= 1.0
        assert np.all(lhs[past] <= rhs[past])

    def test_linear_growth_weighted_tail_inequality(self, default_grid):
        grid = default_grid
        t = grid.nodes
        metric = WeightedMetric("sup_t_one_minus_alpha", alpha=ALPHA)
        zero = GridFunction(grid, np.zeros(grid.n + 1), head_exponent=ALPHA - 1.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = _decaying_pair(rng, grid)
            y_abs = GridFunction(grid, np.abs(y.values), head_exponent=ALPHA - 1.0)
            sweep = _inverse_square_sweep(y_abs)
            lhs = float(np.max(t[1:] ** (2.0 - ALPHA) * sweep[1:]))
            rhs = metric_distance(metric, y, zero) / (2.0 - ALPHA)
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_sign_change_ball_preservation(self, sign_change_coeff, solved_lemma2):
        grid = make_graded_grid()
        profile = lemma1_profile(sign_change_coeff, ALPHA, grid=grid)
        gamma_ball = 2.071764923634157
        envelope = gamma_ball * profile.C_star.values
        rng = np.random.default_rng(21)
        for _ in range(5):
            y = GridFunction(grid, envelope * rng.uniform(-1.0, 1.0, grid.n + 1))
            out = step_lemma2(y, profile.C)
            assert np.all(np.abs(out.values[1:]) <= envelope[1:] * (1.0 + 1e-12))
        # the solved fixed point sits inside the same ball
        inside = np.abs(solved_lemma2.fixed_point.values[1:]) \
            <= envelope[1:] * (1.0 + 1e-12)
        assert np.all(inside)


# --------------------------------------------------------------------------
# reconstruction back to solutions
# --------------------------------------------------------------------------

class TestReconstruction:
    def test_zero_iterate_gives_the_line(self, default_grid):
        y = GridFunction(default_grid, np.zeros(default_grid.n + 1))
        x = reconstruct_thm3(y, 3.0)
        assert np.allclose(x.values, 3.0 * default_grid.nodes, rtol=0.0, atol=0.0)

    def test_pure_power_iterate_closed_form(self, default_grid):
        grid = default_grid
        t = grid.nodes
        vals = np.empty(grid.n + 1)
        vals[1:] = t[1:] ** (ALPHA - 1.0)
        vals[0] = 1.0
        y = GridFunction(grid, vals, head_exponent=ALPHA - 1.0)
        x = reconstruct_thm3(y, 2.0)
        exact = 2.0 * t[1:] - t[1:] ** (ALPHA - 1.0) / (2.0 - ALPHA)
        assert float(np.max(np.abs(x.values[1:] - exact))) <= 1e-12
        assert x.values[0] == pytest.approx(-1.0 / (2.0 - ALPHA), rel=1e-13)

    def test_round_trip_recovers_the_iterate(self, solved_thm3):
        grid = solved_thm3.solution.grid
        t = grid.nodes
        back = x_to_y(solved_thm3.solution)
        sl = slice(grid.index_at_or_above(0.1), grid.index_at_or_above(98.0))
        w = t[sl] ** (1.0 - ALPHA)
        scale = float(np.max(w * np.abs(solved_thm3.fixed_point.values[sl])))
        gap = float(np.max(w * np.abs(back.values[sl]
                                      - solved_thm3.fixed_point.values[sl])))
        assert gap <= 1e-6 * scale

    def test_integral_reconstruction_trivial_and_horizon(self, default_grid):
        y = GridFunction(default_grid, np.zeros(default_grid.n + 1))
        x, diag = reconstruct_prop1(y)
        assert np.array_equal(x.values, np.ones(default_grid.n + 1))
        assert diag["y_at_origin"] == 0.0
        assert diag["xprime_l1"] == 0.0 and diag["xprime_sup"] == 0.0
        assert diag["x_at_horizon"] == 1.0

        rng = np.random.default_rng(5)
        bumps = np.exp(-default_grid.nodes) * rng.uniform(-1.0, 1.0, default_grid.n + 1)
        x2, diag2 = reconstruct_prop1(GridFunction(default_grid, bumps))
        assert x2.values[-1] == 1.0
        assert diag2["xprime_sup"] == pytest.approx(np.max(np.abs(bumps)), rel=1e-15)


# --------------------------------------------------------------------------
# the certification gate and refusal paths
# --------------------------------------------------------------------------

class TestGateAndRefusals:
    def test_failing_constants_block_the_run(self):
        big = make_power_coefficient("5.0 / (1+t)^3.5", 5.0, 3.5)
        with pytest.raises(ValueError, match="do not certify contraction"):
            solve(SolveSpec("thm1", ALPHA, 1.0, 1.0, big))

    def test_override_iterates_and_reports_divergence(self):
        big = make_power_coefficient("5.0 / (1+t)^3.5", 5.0, 3.5)
        res = solve(SolveSpec("thm1", ALPHA, 1.0, 1.0, big,
                              max_iterations=3, attempt_anyway=True))
        assert not res.hypotheses_pass
        assert not res.converged
        assert res.iterations == 3
        assert res.predicted_k > 1.0

    def test_tail_closure_refusal_survives_the_override(self):
        # each chain's gate refuses the envelope that cannot close the tail
        # it needs: thm1's s^alpha |a|, thm3's s^(alpha-1) |a| and lemma2's
        # ||C*||_L1; the cases run in one test, under the test's one id
        for case, a, b, text, amplitude, exponent in [
            ("thm1", 1.0, 1.0, "0.01 / (1+t)^1.2", 0.01, 1.2),
            ("thm3", 0.3, 1.0, "0.005 / (1+t)^0.4", 0.005, 0.4),
            ("lemma2", 0.0, 0.0, "0.01 / (1+t)^1.4", 0.01, 1.4),
        ]:
            thin = make_power_coefficient(text, amplitude, exponent)
            with pytest.raises(EnvelopeError, match="cannot close its tail"):
                solve(SolveSpec(case, ALPHA, a, b, thin, grid=make_graded_grid(n=512),
                                attempt_anyway=True))

    @pytest.mark.parametrize("case, text, amplitude, exponent, sweep, refused", [
        # T = 150 lies past t_max = 100, after two good splits
        ("thm1", "0.01 / (1+t)^3.5", 0.01, 3.5, "T=1:150:3", 2),
        # |a(0)| > 0: no growth at the origin for the singular head
        ("thm2", "0.005 / (1+t)^2.5", 0.005, 2.5, "T=0.5:2:3", 1),
        # 2||C*||_L1 >= 1: the comparison scale is undefined
        ("lemma2", "5.0 / (1+t)^3.5", 5.0, 3.5, "T=1:1:1", 0),
    ])
    def test_a_refused_split_is_a_gate_every_reader_reports(
            self, tmp_path, capsys, case, text, amplitude, exponent, sweep, refused):
        grid = make_graded_grid(n=512)
        lo, hi, steps = map(float, sweep[2:].split(":"))
        splits = np.linspace(lo, hi, int(steps)).tolist()
        block = gates(case, make_power_coefficient(text, amplitude, exponent), ALPHA,
                      splits, grid)
        assert len(block) == len(splits)
        g = block[refused]
        assert isinstance(g.error, ValueError) and g.report is None
        assert math.isnan(g.k) and g.passed is False
        assert (g.profile is not None) == (case == "lemma2")
        if case == "lemma2":
            assert g.profile.C.grid.same_layout(grid)
        if case == "thm1":
            assert [o.error is None for o in block] == [True, True, False]

        # check, the sweep cell and solve's refusal write the same text
        path = tmp_path / "coeff.json"
        path.write_text(json.dumps({"expr": text, "envelope": {
            "A": amplitude, "p": exponent, "valid_from": 1.0}}))
        T = repr(splits[refused])
        args = ["--coeff", str(path), "--case", case, "--nodes", "512", "--out", str(tmp_path)]
        assert main(["check", "--T", T, *args]) == 1
        check = json.loads((tmp_path / f"check_{case}.json").read_text())
        assert check == {"error": str(g.error), "passed": False}
        assert main(["sweep", "--sweep", sweep, *args]) == 0
        with open(tmp_path / f"sweep_{case}.csv") as fh:
            cells = list(csv.DictReader(fh))
        assert cells[refused]["error"] == str(g.error)
        assert (cells[refused]["k"], cells[refused]["passed"]) == ("", "False")
        if case == "thm1":
            # a split past t_max is refused by SolveSpec before any gate,
            # with check's text
            capsys.readouterr()
            assert main(["solve", "--T", T, *args]) == 2
            assert capsys.readouterr().err == f"error: {check['error']}\n"
            return
        assert main(["solve", "--T", T, *args]) == 1
        refusal = json.loads((tmp_path / f"solve_{case}.json").read_text())
        assert refusal == {"error": str(g.error), "converged": False}

    def test_horizon_below_one_closes_its_tail(self):
        # the growth of x is read at the last node when t_max < 1, and the
        # tail closes from t_max
        a = make_power_coefficient("0.01 / (1+t)^3.5", 0.01, 3.5, valid_from=0.1)
        res = solve(SolveSpec("thm1", ALPHA, 1.0, 1.0, a, grid=make_graded_grid(0.8, 256),
                              split=0.5))
        assert res.converged
        assert res.tail_budget == pytest.approx(0.018682088, rel=1e-6)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

class TestSerialization:
    def test_json_round_trip(self, solved_thm1, tmp_path):
        write_json(tmp_path / "solve.json", solved_thm1)
        doc = json.loads((tmp_path / "solve.json").read_text())
        assert doc["case"] == "thm1"
        assert len(doc["distances"]) == doc["iterations"]
        assert doc["converged"] is True
        assert doc["spec"]["coefficient"]["expr"] == "0.01 / (1+t)^3.5"
        assert math.isfinite(doc["predicted_k"])

    def test_zero_coefficient_budget_is_zero(self, zero_coeff):
        res = solve(SolveSpec("thm1", ALPHA, 1.0, 1.0, zero_coeff))
        doc = json.loads(json.dumps(json_ready(res)))
        assert doc["tail_budget"] == 0.0

    def test_overridden_gate_exception_serializes_nan(self):
        hot = make_power_coefficient("0.5 * (1 - t) * exp(-t)", 350.0, 6.0)
        with pytest.raises(ValueError):
            solve(SolveSpec("lemma2", ALPHA, 0.0, 0.0, hot))
        res = solve(SolveSpec("lemma2", ALPHA, 0.0, 0.0, hot,
                              max_iterations=3, attempt_anyway=True))
        assert math.isnan(res.predicted_k)
        assert not res.hypotheses_pass
        doc = json.loads(json.dumps(json_ready(res)))
        assert doc["predicted_k"] == "nan"

    def test_solution_csv_carries_the_head_row(self, solved_thm3, tmp_path):
        path = tmp_path / "solution.csv"
        solved_thm3.solution.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == solved_thm3.solution.grid.n + 2
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(-0.2016289214829521, rel=1e-9)
