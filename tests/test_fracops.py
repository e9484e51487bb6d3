"""Fractional integrals/derivatives and the composed operators.

Oracle values come from scipy.integrate.quad with an algebraic endpoint
weight, which shares no code with the product-integration rule under test.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracasym.coeffexpr import Coefficient
from fracasym.fracops import (
    as_alpha,
    apply_operator,
    frac_integral,
    grid_gradient,
    rl_derivative,
    times_t,
    trusted_slice,
)
from fracasym.hypotheses import lemma1_profile
from fracasym.meshfun import GridFunction, TailModel, make_graded_grid


def grid10(n=1024):
    return make_graded_grid(t_max=10.0, n=n, grading=2.0)


def monomial(g, e, c=1.0):
    v = np.empty(g.n + 1)
    v[0] = c
    if e == 0.0:
        v[:] = c
    else:
        v[1:] = c * g.nodes[1:] ** e
    return GridFunction(g, v, head_exponent=e)


def ref_frac_integral(fn, tn, mu):
    val, _ = quad(fn, 0.0, tn, weight="alg", wvar=(0.0, mu - 1.0))
    return val / math.gamma(mu)


# -- order bookkeeping -----------------------------------------------------


def test_order_bounds():
    assert as_alpha(0.5) == 0.5
    for bad in (0.02, 0.96, -0.5, 1.5):
        with pytest.raises(ValueError):
            as_alpha(bad)


def test_operator_case_is_checked():
    g = grid10(n=64)
    x = monomial(g, 0.0)
    with pytest.raises(ValueError):
        apply_operator(4, x, 0.5)


# -- fractional integral ----------------------------------------------------


def test_integral_of_smooth_function_matches_quadrature():
    g = grid10()
    f = GridFunction.from_callable(g, lambda s: 1.0 / (1.0 + s))
    for alpha in (0.25, 0.75):
        out = frac_integral(f, alpha)
        for target in (0.5, 2.0, 8.0):
            j = g.index_at_or_above(target)
            want = ref_frac_integral(lambda s: 1.0 / (1.0 + s), g.nodes[j], alpha)
            assert out.values[j] == pytest.approx(want, rel=1e-5)


def test_integral_frozen_value():
    g = make_graded_grid(t_max=1.0, n=1024, grading=2.0)
    f = GridFunction.from_callable(g, lambda s: np.exp(-s))
    out = frac_integral(f, 0.5)
    # int_0^1 e^-s (1-s)^-0.5 ds = 1.0761590138255368383 (mpmath, 50 digits)
    want = 1.0761590138255368383 / math.gamma(0.5)
    assert out.values[-1] == pytest.approx(want, rel=1e-6)


def test_integral_of_declared_heads_is_closed_form():
    g = grid10()
    sl = trusted_slice(g)
    for alpha in (0.25, 0.5, 0.75):
        for e in (0.5, alpha, alpha - 1.0):
            f = monomial(g, e, c=2.0)
            out = frac_integral(f, alpha)
            want_c = 2.0 * math.gamma(1 + e) / math.gamma(1 + e + alpha)
            tt = g.nodes[sl]
            assert np.allclose(
                out.values[sl], want_c * tt ** (e + alpha), rtol=1e-12, atol=1e-14
            )


def test_integral_semigroup_on_smooth_data():
    g = grid10()
    f = GridFunction.from_callable(g, lambda s: 1.0 / (1.0 + s))
    two = frac_integral(frac_integral(f, 0.4), 0.3)
    one = frac_integral(f, 0.7)
    lo = g.index_at_or_above(0.5)
    assert np.allclose(two.values[lo:], one.values[lo:], rtol=5e-6, atol=0)


# -- derivative ---------------------------------------------------------------


def test_derivative_inverts_the_integral():
    g = grid10()
    sl = trusted_slice(g)
    for alpha in (0.25, 0.5, 0.75):
        f = GridFunction.from_callable(g, lambda s: 1.0 / (1.0 + s))
        back = rl_derivative(frac_integral(f, alpha), alpha)
        assert np.abs(back.values[sl] - f.values[sl]).max() <= 1e-5


def test_derivative_of_the_cusp_power_is_constant():
    g = grid10()
    for alpha in (0.25, 0.5, 0.75):
        out = rl_derivative(monomial(g, alpha), alpha)
        assert out.head_exponent == 0.0
        assert np.allclose(out.values, math.gamma(1 + alpha), rtol=1e-12)


def test_derivative_kills_the_singular_power():
    g = grid10()
    sl = trusted_slice(g)
    for alpha in (0.25, 0.5, 0.75):
        out = rl_derivative(monomial(g, alpha - 1.0), alpha)
        assert np.abs(out.values[sl]).max() <= 1e-8


def test_derivative_refuses_heads_it_cannot_lower():
    g = grid10(n=64)
    f = monomial(g, -0.25)
    with pytest.raises(ValueError):
        grid_gradient(f)


def test_gradient_flags_garbage_data():
    g = make_graded_grid(t_max=1.0, n=64, grading=1.0)
    noisy = GridFunction(g, (-1.0) ** np.arange(g.n + 1))
    with pytest.warns(RuntimeWarning):
        grid_gradient(noisy)


# -- convolution with the kernel ---------------------------------------------


ENV = TailModel(kind="power", amplitude=0.011, exponent=3.5, valid_from=1.0)


def test_conv_constant_coefficient_is_exact():
    g = grid10()
    a = Coefficient.from_expression("0.3", ENV)
    alpha = 0.5
    C = lemma1_profile(a, alpha, grid=g).C
    sl = trusted_slice(g)
    tt = g.nodes[sl]
    assert np.allclose(C.values[sl], 0.3 * tt**alpha / alpha, rtol=1e-12)


def test_conv_matches_quadrature():
    g = grid10()
    a = Coefficient.from_expression("0.01/(1+t)^3.5", ENV)
    alpha = 0.5
    C = lemma1_profile(a, alpha, grid=g).C
    for target in (0.5, 3.0):
        j = g.index_at_or_above(target)
        tn = g.nodes[j]
        want, _ = quad(a, 0.0, tn, weight="alg", wvar=(0.0, alpha - 1.0))
        assert C.values[j] == pytest.approx(want, rel=5e-5)


# -- composed operators --------------------------------------------------------


def case_generators(case, alpha):
    if case == 1:
        return [0.0, alpha]
    if case == 2:
        return [alpha - 1.0, alpha]
    return [1.0, alpha - 1.0]


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_operators_annihilate_their_null_spaces(case, alpha):
    g = grid10()
    sl = trusted_slice(g)
    for e in case_generators(case, alpha):
        x = monomial(g, e)
        out = apply_operator(case, x, alpha)
        assert np.abs(out.values[sl]).max() <= 1e-8


def test_case3_heads_agree_at_every_order():
    # both terms of O3 x = d/dt D^alpha(t x) - 2 D^alpha x carry x's head
    # exponent minus alpha; rounded along two paths and compared with ==,
    # they used to refuse x = t as "incompatible singular heads" at 0.3
    g = make_graded_grid(t_max=100.0, n=1024, grading=2.0)
    sl = trusted_slice(g)
    window = (g.nodes[sl] >= 2.0) & (g.nodes[sl] <= 0.98 * g.t_max)
    one_plus_t = GridFunction.from_callable(g, lambda s: 1.0 + s)
    for alpha in (k / 100 for k in range(5, 96)):
        apply_operator(3, one_plus_t, alpha)
        for e in (1.0, alpha - 1.0):  # the null generators t and t^(alpha-1)
            out = apply_operator(3, monomial(g, e), alpha).values[sl]
            assert np.abs(out[window]).max() <= 1e-10, (alpha, e)


def test_operator_values_on_a_known_polynomial():
    # case 2 on x = t^(1+alpha): O2 x = d/dt D^alpha x
    # D^alpha t^(1+alpha) = Gamma(2+alpha)/Gamma(2) t, so O2 x = Gamma(2+alpha)
    g = grid10()
    sl = trusted_slice(g)
    for alpha in (0.25, 0.5, 0.75):
        x = monomial(g, 1.0 + alpha)
        out = apply_operator(2, x, alpha)
        want = math.gamma(2.0 + alpha)
        assert np.abs(out.values[sl] - want).max() <= 1e-6 * want


def test_times_t_shifts_the_head():
    g = grid10(n=64)
    f = monomial(g, 0.5, c=2.0)
    tf = times_t(f)
    assert tf.head_exponent == 1.5
    assert tf.head_coefficient == 2.0
    assert np.allclose(tf.values[1:], f.values[1:] * g.nodes[1:])

    smooth = GridFunction.from_callable(g, lambda t: np.cos(t))
    ts = times_t(smooth)
    assert ts.head_exponent == 1.0
    assert ts.head_coefficient == 1.0
    assert ts.values[0] == 1.0  # coefficient slot: t*cos(t) ~ 1*t near 0


def test_trusted_slice_trims_both_ends():
    g = grid10(n=100)
    sl = trusted_slice(g)
    assert sl.start == 2
    assert sl.stop == 99
