"""Graded grids, headed grid functions, weighted metrics, and integration."""

import math

import numpy as np
import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracasym.hypotheses import EnvelopeError, _power_tail, envelope_tail_integral
from fracasym.meshfun import (
    GradedGrid,
    GridFunction,
    TailModel,
    WeightedMetric,
    integrate,
    make_graded_grid,
    metric_distance,
)


def small_grid(n=64, t_max=10.0, grading=2.0):
    return make_graded_grid(t_max=t_max, n=n, grading=grading)


# -- grid ---------------------------------------------------------------


def test_grid_follows_the_grading_law():
    g = make_graded_grid(t_max=100.0, n=4096, grading=2.0)
    j = np.arange(4097)
    expect = 100.0 * (j / 4096.0) ** 2.0
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 100.0
    assert np.allclose(g.nodes, expect, rtol=0, atol=1e-12)
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GradedGrid(t_max=-1.0, n=64, grading=2.0)
    with pytest.raises(ValueError):
        GradedGrid(t_max=1.0, n=8, grading=2.0)
    with pytest.raises(ValueError):
        GradedGrid(t_max=1.0, n=64, grading=0.5)
    # 8e15 bytes lie past any address space, so numpy allocates nothing
    with pytest.raises(ValueError, match="does not fit in memory"):
        GradedGrid(t_max=100.0, n=10**15, grading=2.0)
    # (j/n)^200 underflows to 0 for the first 98 nodes
    with pytest.raises(ValueError, match="not strictly increasing"):
        GradedGrid(t_max=100.0, n=4096, grading=200.0)
    # the nodes are always built from (t_max, n, grading), never passed in
    with pytest.raises(TypeError):
        GradedGrid(t_max=100.0, n=16, grading=2.0, nodes=np.zeros(3))


def test_grid_layout_and_lookup():
    a = small_grid()
    b = small_grid()
    c = small_grid(n=128)
    assert a.same_layout(b)
    assert not a.same_layout(c)
    j = a.index_at_or_above(3.0)
    assert a.nodes[j] >= 3.0
    assert a.nodes[j - 1] < 3.0


def test_doubling_n_nests_the_grid():
    coarse = small_grid(n=64)
    fine = small_grid(n=128)
    assert np.allclose(fine.nodes[::2], coarse.nodes, rtol=0, atol=1e-12)


# -- tails ---------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(p=st.floats(1.0, 8.0), alpha=st.floats(0.05, 0.95), lo=st.floats(1.0, 1e3))
@example(p=6.0, alpha=0.5, lo=100.0)
@example(p=1.2, alpha=0.5, lo=1.0)
def test_power_tail_closed_form(p, alpha, lo):
    tail = TailModel(kind="power", amplitude=3.0, exponent=2.5, valid_from=1.0)
    # int_2^inf 3 s^-2.5 ds = 3 * 2^-1.5 / 1.5
    assert envelope_tail_integral(tail, 0.0, 2.0) == pytest.approx(3.0 * 2.0**-1.5 / 1.5, rel=1e-14)
    # the envelope bounds nothing below valid_from, so a lower limit there
    # is refused instead of clamped up to it
    with pytest.raises(EnvelopeError, match="valid_from"):
        envelope_tail_integral(tail, 0.0, 0.5)
    # the one rule every tail closes through, at the exponents of the
    # profile: q = p - alpha (C, C*, B), 2q (C^2, B^2), q - 1/2 (E) and p
    # (a's mean); s = lo e^u turns each tail into an exponential decay
    # mpmath resolves to the relative precision asked of it, as long as the
    # decay rate x - 1 is not within 1e-9 of 0
    q = p - alpha
    for x in (q, 2.0 * q, q - 0.5, p):
        # a zero envelope has no tail at any exponent, divergent or not
        assert _power_tail(0.0, x, lo) == 0.0
        got = _power_tail(3.0, x, lo)
        if x <= 1.0:
            assert got == math.inf
            continue
        if x - 1.0 < 1e-9:
            assert math.isfinite(got) and got > 0.0
            continue
        with mpmath.workdps(30):
            ref = 3 * mpmath.mpf(lo) ** (1 - x) * mpmath.quad(
                lambda u: mpmath.exp((1 - x) * u), [0, mpmath.inf])
        assert got == pytest.approx(float(ref), rel=1e-13)


def test_tail_validation():
    with pytest.raises(ValueError):
        TailModel(kind="bogus")
    slow = TailModel(kind="power", amplitude=1.0, exponent=0.5, valid_from=1.0)
    assert envelope_tail_integral(slow, 0.0, 2.0) == math.inf


# -- grid functions -------------------------------------------------------


def test_from_callable_head_bookkeeping():
    g = small_grid()
    f = GridFunction.from_callable(g, lambda t: 2.0 + np.sin(t))
    assert f.head_exponent == 0.0
    assert f.head_coefficient == 2.0

    cusp = GridFunction.from_callable(
        g, lambda t: 3.0 * t**0.5, head_exponent=0.5, head_coefficient=3.0
    )
    assert cusp.head_coefficient == 3.0
    r = cusp.regular_part()
    assert r[0] == 0.0
    assert np.abs(r).max() <= 1e-12

    with pytest.raises(ValueError):
        GridFunction.from_callable(g, lambda t: t**0.5, head_exponent=0.5)


def test_values_shape_and_head_exponent_checks():
    g = small_grid()
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(g.n))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(g.n + 1), head_exponent=-1.0)


def test_arithmetic_and_scaling():
    g = small_grid()
    f = GridFunction.from_callable(g, lambda t: t / (1 + t))
    h = GridFunction.from_callable(g, lambda t: np.cos(t))
    s = f + h
    d = f - h
    assert np.allclose(s.values, f.values + h.values)
    assert np.allclose(d.values, f.values - h.values)
    k = GridFunction.from_callable(g, lambda t: 1.0 / (1 + t) ** 3)
    k2 = k.scaled(-2.0)
    assert np.allclose(k2.values, -2.0 * k.values)

    other = GridFunction.from_callable(small_grid(n=128), lambda t: t)
    with pytest.raises(ValueError):
        f + other


def test_csv_export(tmp_path):
    g = small_grid(n=16)
    f = GridFunction.from_callable(g, lambda t: t)
    p = tmp_path / "f.csv"
    f.to_csv(str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == g.n + 2
    t0, v0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(v0) == 0.0


def test_node_texts_are_formatted_once_per_grid():
    g = small_grid(n=16)
    assert g.node_texts is g.node_texts
    assert g.node_texts == [repr(float(t)) for t in g.nodes]
    # the texts belong to the grid: an equal grid formats its own
    assert small_grid(n=16).node_texts is not g.node_texts


# -- metrics ---------------------------------------------------------------


def polyline(g, rng, head_exponent=0.0):
    vals = rng.normal(size=g.n + 1)
    return GridFunction(g, vals, head_exponent=head_exponent)


@pytest.mark.parametrize(
    "metric",
    [
        WeightedMetric(kind="sup_over_t_alpha_after_T", split=1.0, alpha=0.5),
        WeightedMetric(kind="sup_t_one_minus_alpha", alpha=0.5),
        WeightedMetric(kind="max_sup_and_L1"),
    ],
)
def test_metric_axioms_on_random_functions(metric):
    g = small_grid()
    rng = np.random.default_rng(42)
    e = 0.5 if metric.kind == "sup_t_one_minus_alpha" else 0.0
    for _ in range(10):
        f, h, k = (polyline(g, rng, head_exponent=e) for _ in range(3))
        dfh = metric_distance(metric, f, h)
        dhf = metric_distance(metric, h, f)
        assert dfh == pytest.approx(dhf, rel=1e-14)
        assert metric_distance(metric, f, f) == 0.0
        assert dfh <= metric_distance(metric, f, k) + metric_distance(metric, k, h) + 1e-12


def test_metric_homogeneity():
    g = small_grid()
    rng = np.random.default_rng(3)
    f = polyline(g, rng)
    z = GridFunction(g, np.zeros(g.n + 1))
    m = WeightedMetric(kind="max_sup_and_L1")
    base = metric_distance(m, f, z)
    assert metric_distance(m, f.scaled(-2.5), z) == pytest.approx(2.5 * base, rel=1e-12)


def test_weighted_sup_origin_rule():
    g = small_grid()
    alpha = 0.5
    m = WeightedMetric(kind="sup_t_one_minus_alpha", alpha=alpha)
    z = GridFunction(g, np.zeros(g.n + 1), head_exponent=alpha - 1.0)

    # head t^(alpha-1) against weight t^(1-alpha): the origin contributes |c|
    vals = np.zeros(g.n + 1)
    vals[0] = 2.0
    vals[1:] = 2.0 * g.nodes[1:] ** (alpha - 1.0)
    f = GridFunction(g, vals, head_exponent=alpha - 1.0)
    assert metric_distance(m, f, z) == pytest.approx(2.0, rel=1e-12)

    # a weight too light for the head blows up at the origin
    m_light = WeightedMetric(kind="sup_t_one_minus_alpha", alpha=0.9)
    z2 = GridFunction(g, np.zeros(g.n + 1), head_exponent=alpha - 1.0)
    assert metric_distance(m_light, f, z2) == math.inf


def test_split_metric_weighs_the_far_range():
    g = small_grid(t_max=100.0, n=256)
    m = WeightedMetric(kind="sup_over_t_alpha_after_T", split=1.0, alpha=0.5)
    f = GridFunction.from_callable(g, lambda t: np.full_like(t, 5.0))
    z = GridFunction(g, np.zeros(g.n + 1))
    # sup before T=1 is 5; after T the weighted value 5/t^0.5 never exceeds it
    assert metric_distance(m, f, z) == pytest.approx(5.0, rel=1e-12)

    h = GridFunction.from_callable(g, lambda t: 3.0 * t**0.5)
    # |h|/t^0.5 = 3 at every node past T and beats sup_{[0,1]} |h| < 3
    assert metric_distance(m, h, z) == pytest.approx(3.0, rel=1e-12)


# -- integration ------------------------------------------------------------


def test_integrate_smooth_against_quadrature():
    g = make_graded_grid(t_max=10.0, n=2048, grading=2.0)
    f = GridFunction.from_callable(g, lambda t: np.cos(t) / (1 + t))
    want, _ = quad(lambda t: math.cos(t) / (1 + t), 0.0, 10.0, limit=200)
    got = integrate(f)
    assert got == pytest.approx(want, rel=0, abs=2e-4)


def test_integrate_resolves_the_head_in_closed_form():
    g = small_grid(n=64, t_max=1.0)
    f = GridFunction.from_callable(
        g, lambda t: t**-0.5, head_exponent=-0.5, head_coefficient=1.0
    )
    # int_0^1 t^-0.5 dt = 2 despite the non-integrable-looking samples
    assert integrate(f) == pytest.approx(2.0, rel=1e-12)
