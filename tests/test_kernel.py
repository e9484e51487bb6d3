"""The product-integration kernel: exactness, accuracy, memory and call counts.

_prodint_linear is a treecode: each row takes the panels of its own leaf
box and the two before it exactly, and every other panel through a
truncated binomial expansion about box centres. The first version of
the kernel, a loop that formed the panel moments m0 and m1 row by row,
is kept below as a test-local oracle, in float64 and in extended
precision. The test names still say "factored rows" and "power rows"
after the two row kinds the treecode replaced; both now run the same
code.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracasym import fracops
from fracasym.cli import main
from fracasym.fracops import _prodint_linear
from fracasym.meshfun import make_graded_grid
from fracasym.solver import SolveSpec, solve

from conftest import ALPHA

# --------------------------------------------------------------------------
# the loop before factoring: exact panel moments m0, m1 per row
# --------------------------------------------------------------------------


def _moment_loop(t, f, beta, kernel_origin=1.0, dtype=np.float64):
    t = np.asarray(t, dtype=dtype)
    f = np.asarray(f, dtype=dtype)
    bp1 = dtype(beta) + dtype(1.0)
    bp2 = bp1 + dtype(1.0)
    out = np.zeros(t.shape[0], dtype=dtype)
    slope = np.diff(f) / np.diff(t)
    for n in range(1, t.shape[0]):
        d = dtype(kernel_origin) * t[n] - t[: n + 1]
        if dtype is np.float64:
            p1 = d**bp1
        else:
            # powl runs about 3x slower than expl(logl); the latter is still
            # accurate to ~1e-18, far below float64 rounding
            with np.errstate(divide="ignore"):
                p1 = np.exp(bp1 * np.log(d))
        p2 = p1 * d
        dp1 = p1[:-1] - p1[1:]
        m0 = dp1 / bp1
        m1 = (d[:-1] * dp1) / bp1 - (p2[:-1] - p2[1:]) / bp2
        out[n] = np.dot(f[:n], m0) + np.dot(slope[:n], m1)
    return out


def _extended(t, f, beta, kernel_origin=1.0):
    return _moment_loop(t, f, beta, kernel_origin, dtype=np.longdouble)


needs_extended = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is no wider than float64 on this platform")


def _abs_scale(t, f, beta, kernel_origin=1.0):
    """max_n of the integral of |kernel| |f_h|: the size of what a row sums."""
    return float(np.max(_extended(t, np.abs(f), beta, kernel_origin)))


# --------------------------------------------------------------------------
# exactness on linear integrands, every path
# --------------------------------------------------------------------------


def _linear_closed_form(t, c0, c1, beta, o):
    # int_0^t (o t - s)^beta (c0 + c1 s) ds with D = o t - s
    bp1, bp2 = beta + 1.0, beta + 2.0
    hi, lo = o * t, (o - 1.0) * t
    return ((c0 + c1 * o * t) * (hi**bp1 - lo**bp1) / bp1
            - c1 * (hi**bp2 - lo**bp2) / bp2)


@settings(max_examples=80, deadline=None)
@given(grading=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       beta=st.floats(-0.99, 0.99),
       origin=st.sampled_from([1.0, 2.0]),
       c0=st.floats(-10.0, 10.0, allow_subnormal=False),
       c1=st.floats(-10.0, 10.0, allow_subnormal=False),
       n=st.integers(16, 96),
       t_max=st.floats(0.5, 200.0))
def test_exact_on_linear_integrands(grading, beta, origin, c0, c1, n, t_max):
    # no subnormal coefficients: with c1 = 5e-324 the bound 1e-12 * scale
    # lies below the smallest positive float, and one unit of rounding fails it
    g = make_graded_grid(t_max, n, grading)
    t = g.nodes
    got = _prodint_linear(t, c0 + c1 * t, beta, kernel_origin=origin)
    want = _linear_closed_form(t, c0, c1, beta, origin)
    scale = float(np.max(_linear_closed_form(t, abs(c0), abs(c1), beta, origin)))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


# --------------------------------------------------------------------------
# the rows against the moment loop in extended precision
# --------------------------------------------------------------------------


@needs_extended
@settings(max_examples=40, deadline=None)
@given(beta=st.floats(-0.99, 0.99),
       n=st.integers(16, 128),
       t_max=st.floats(0.5, 200.0),
       grading=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       origin=st.sampled_from([1.0, 2.0]),
       c=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=4, max_size=4),
       rate=st.floats(0.01, 5.0),
       power=st.floats(0.5, 4.0))
def test_factored_rows_match_extended_precision(beta, n, t_max, grading, origin, c, rate,
                                                power):
    # every mesh and both kernel origins; a fast-decaying f over a long
    # horizon (beta=0, n=16, t_max=170, f=exp(-3t)) once broke the bound in
    # the factored grading-2 rows, the doubled origin was 3e-12 to 5e-11 of
    # the column max off in the power rows
    t = make_graded_grid(t_max, n, grading).nodes
    f = c[0] + c[1] * np.exp(-rate * t) + c[2] * np.sin(rate * t) + c[3] / (1.0 + t) ** power
    got = _prodint_linear(t, f, beta, origin)
    want = _extended(t, f, beta, origin)
    assert np.max(np.abs(got - want)) <= 1e-12 * _abs_scale(t, f, beta, origin)


# --------------------------------------------------------------------------
# the loop before factoring as oracle on the conftest coefficients
# --------------------------------------------------------------------------

_CONFTEST_COEFFICIENTS = {
    "slow_decay": lambda t: 0.01 / (1.0 + t) ** 3.5,
    "origin_quadratic": lambda t: 0.01 * t**2 / (1.0 + t) ** 6,
    "heavy_tail": lambda t: 0.005 / (1.0 + t) ** 2.5,
    "sign_change": lambda t: 0.01 * (1.0 - t) * np.exp(-t),
}


@pytest.fixture(scope="module")
def grid_1024():
    return make_graded_grid(n=1024)


@pytest.mark.parametrize("name", sorted(_CONFTEST_COEFFICIENTS))
def test_factored_rows_match_the_moment_loop(name, grid_1024):
    # the convolutions of conv_C (a) and of step_thm3 (t a), kernel
    # (t-s)^(alpha-1), on the grading-2 mesh at six tree levels; the moment
    # loop itself is within 2e-13 of the column max of an extended-precision
    # evaluation here
    t = grid_1024.nodes
    a = _CONFTEST_COEFFICIENTS[name](t)
    for f in (a, t * a):
        got = _prodint_linear(t, f, ALPHA - 1.0)
        want = _moment_loop(t, f, ALPHA - 1.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@needs_extended
@pytest.mark.parametrize("grading, origin", [(2.0, 2.0), (1.5, 1.0), (3.0, 2.0)])
def test_power_rows_are_as_accurate_as_the_moment_loop(grading, origin):
    # the doubled-argument kernel of lemma1_profile and meshes of other
    # gradings, which the factored table did not cover, on a(t) (1 + t^alpha)
    # with kernel exponents alpha - 1 and alpha, against extended precision
    g = make_graded_grid(n=128, grading=grading)
    t = g.nodes
    for coefficient in _CONFTEST_COEFFICIENTS.values():
        f = coefficient(t) * (1.0 + t**ALPHA)
        for beta in (ALPHA - 1.0, ALPHA):
            exact = _extended(t, f, beta, origin)
            scale = float(np.max(np.abs(exact)))
            err_new = np.max(np.abs(_prodint_linear(t, f, beta, origin) - exact))
            err_old = np.max(np.abs(_moment_loop(t, f, beta, origin) - exact))
            assert err_new <= 2.0 * err_old + 1e-14 * scale


# --------------------------------------------------------------------------
# the tree at depth: partial boxes, both origins, split pairs, memory
# --------------------------------------------------------------------------


@needs_extended
@pytest.mark.parametrize("origin", [1.0, 2.0])
@pytest.mark.parametrize("n", [1024, 1500])
def test_tree_matches_extended_precision_at_depth(n, origin):
    # n = 1500 leaves partial boxes on every level; beta runs over the
    # exponents the chains use. The float64 moment loop is no oracle here:
    # for beta = alpha and for origin 2 it is itself 1.5e-11 to 1.2e-10 of
    # the column max off the extended one
    t = make_graded_grid(n=n).nodes
    for coefficient in _CONFTEST_COEFFICIENTS.values():
        f = coefficient(t)
        for beta in sorted({ALPHA - 1.0, ALPHA, -ALPHA}):
            want = _extended(t, f, beta, origin)
            got = _prodint_linear(t, f, beta, origin)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_wide_pairs_split_down_to_the_near_field():
    # on a grading-8 mesh the boxes near the origin grow too fast for the
    # index pairs to be admitted; their children take over, and at the
    # leaves the near field. Exactness on a linear integrand checks that
    # every panel is still counted once
    t = make_graded_grid(100.0, 1024, 8.0).nodes
    _, _, (split_t, _) = fracops._interactions(fracops._levels(t, t))
    assert split_t.size > 0
    for origin in (1.0, 2.0):
        got = _prodint_linear(t, 2.0 - 0.03 * t, -0.7, origin)
        want = _linear_closed_form(t, 2.0, -0.03, -0.7, origin)
        scale = float(np.max(_linear_closed_form(t, 2.0, 0.03, -0.7, origin)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("origin", [1.0, 2.0])
def test_one_call_stays_within_two_mebibytes(origin):
    t = make_graded_grid(n=8192).nodes
    f = _CONFTEST_COEFFICIENTS["slow_decay"](t)
    tracemalloc.start()
    try:
        _prodint_linear(t, f, ALPHA - 1.0, origin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# --------------------------------------------------------------------------
# kernel calls per solve: the iterate-free convolution runs once
# --------------------------------------------------------------------------


@pytest.fixture()
def kernel_calls(monkeypatch):
    calls = []
    inner = fracops._prodint_linear

    def counting(t, *args, **kwargs):
        calls.append(len(t))
        return inner(t, *args, **kwargs)

    monkeypatch.setattr(fracops, "_prodint_linear", counting)
    return calls


def test_thm3_solve_convolves_the_source_once(kernel_calls, heavy_tail_coeff):
    r = solve(SolveSpec("thm3", ALPHA, 0.3, 1.0, heavy_tail_coeff))
    assert r.converged and r.iterations == 5
    assert len(kernel_calls) == r.iterations + 1


@pytest.mark.parametrize("case, coefficient", [("thm1", "slow_decay_coeff"),
                                               ("thm2", "origin_quadratic_coeff")])
def test_split_time_solves_convolve_once_per_step(kernel_calls, case, coefficient, request):
    spec = SolveSpec(case, ALPHA, 1.0, 1.0, request.getfixturevalue(coefficient),
                     grid=make_graded_grid(n=512))
    r = solve(spec)
    assert r.converged
    assert len(kernel_calls) == r.iterations


# --------------------------------------------------------------------------
# kernel calls per verify: the residual and the boundary derivative share
# I^(1-alpha) x
# --------------------------------------------------------------------------


@pytest.mark.parametrize("case, expr, envelope, a, b, calls", [
    ("thm1", "0.01 / (1+t)^3.5", (0.01, 3.5), 1.0, 1.0, 1),
    ("thm2", "0.01 * t^2 / (1+t)^6", (0.01, 4.0), 1.0, 1.0, 1),
    ("thm3", "0.005 / (1+t)^2.5", (0.005, 2.5), 0.3, 1.0, 2),
    ("lemma2", "0.01 * (1 - t) * exp(-t)", (7.0, 6.0), 0.0, 0.0, 1),
])
def test_verify_integrates_the_solution_once(kernel_calls, tmp_path, case, expr, envelope,
                                             a, b, calls):
    # one call for operator cases 1 and 2, two for case 3, which also
    # integrates t x
    coeff = tmp_path / "coeff.json"
    coeff.write_text(json.dumps(
        {"expr": expr, "envelope": {"A": envelope[0], "p": envelope[1], "valid_from": 1.0}}))
    args = ["--coeff", str(coeff), "--case", case, "--a", repr(a), "--b", repr(b),
            "--nodes", "512", "--out", str(tmp_path)]
    assert main(["solve", *args]) == 0
    kernel_calls.clear()
    assert main(["verify", *args]) == 0
    assert len(kernel_calls) == calls


@pytest.mark.parametrize("case, solved", [(1, "solved_thm1"), (2, "solved_thm2"),
                                          (3, "solved_thm3")])
def test_shared_integral_changes_no_value(case, solved, request):
    # case 1 integrates x - x(0), whose regular part is x's, and drops the
    # head; the operator and the derivative come out bit for bit as when
    # each integrates x itself
    x = request.getfixturevalue(solved).solution
    inner = fracops.peeled_integral(x, 1.0 - ALPHA)
    for shared, alone in ((fracops.apply_operator(case, x, ALPHA, inner=inner),
                           fracops.apply_operator(case, x, ALPHA)),
                          (fracops.rl_derivative(x, ALPHA, inner=inner),
                           fracops.rl_derivative(x, ALPHA))):
        assert shared.head_exponent == alone.head_exponent
        assert np.array_equal(shared.values, alone.values)
