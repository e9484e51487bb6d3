"""Batched gate quadrature against per-panel loops and a high-precision oracle.

The per-panel chi below evaluates the coefficient once per 24-node panel
of an independent rule built for each t alone: Gauss-Jacobi panels of
1e-3 t/2 at both ends, geometric Gauss-Legendre panels between. Up to
t = 100 both it and the batched rules are good to a few ulps, so they
agree to 1e-13; past t = 1e4 its end panels outgrow the coefficient's
scale, and the 30-digit oracle takes over.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracasym import hypotheses as hyp
from fracasym import solver
from fracasym.coeffexpr import Coefficient
from fracasym.meshfun import make_graded_grid
from fracasym.solver import SolveSpec, solve

from conftest import ALPHA, make_power_coefficient

# --------------------------------------------------------------------------
# per-panel reference: one coefficient call per panel
# --------------------------------------------------------------------------

_X, _W = np.polynomial.legendre.leggauss(24)


def _ref_gl_panel(fn, lo, hi):
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * float(np.dot(_W, fn(mid + half * _X)))


def _ref_gj_panel(fn, lo, hi, exponent, right):
    x, w = hyp._gj_rule(exponent)
    half = 0.5 * (hi - lo)
    s = hi - half * (x + 1.0) if right else lo + half * (x + 1.0)
    return half ** (exponent + 1.0) * float(np.dot(w, fn(s)))


def _ref_edges(lo, hi, breakpoints=(), panels_per_decade=6, min_panels=8):
    if hi <= lo:
        return np.array([lo, hi])
    anchor = max(lo, hi * 1e-12)
    if lo <= 0.0:
        base = [0.0]
    else:
        base = []
        anchor = lo
    decades = math.log10(hi / anchor) if hi > anchor else 0.0
    count = max(min_panels, int(math.ceil(decades * panels_per_decade))) + 1
    base.extend(np.geomspace(anchor, hi, count))
    cuts = [b for b in breakpoints if lo < b < hi]
    edges = np.unique(np.concatenate([base, cuts, [lo, hi]]))
    return edges[(edges >= lo) & (edges <= hi)]


def _ref_integral(fn, lo, hi, breakpoints=()):
    edges = _ref_edges(lo, hi, breakpoints)
    return sum(_ref_gl_panel(fn, a, b) for a, b in zip(edges[:-1], edges[1:]))


def _ref_chi_point(afun, alpha, t, zeros):
    e = alpha - 1.0
    half = 0.5 * t
    sliver = 1e-3 * half
    head_hi = min([sliver] + [z for z in zeros if 0.0 < z < half])
    left = _ref_gj_panel(lambda s: afun(s) * (t - s) ** e, 0.0, head_hi, e, False)
    left += _ref_integral(lambda s: afun(s) * s ** e * (t - s) ** e,
                          head_hi, half, zeros)
    tail_lo = max([t - sliver] + [z for z in zeros if half < z < t])
    right = _ref_gj_panel(lambda s: afun(s) * s ** e, tail_lo, t, e, True)
    right += _ref_integral(lambda u: afun(t - u) * (t - u) ** e * u ** e,
                           t - tail_lo, half,
                           [t - z for z in zeros if half < z < tail_lo])
    return t ** (1.0 - alpha) * (left + right)


# --------------------------------------------------------------------------
# chi: batched rules against the per-panel loop
# --------------------------------------------------------------------------

_CHI_TS = np.concatenate([np.geomspace(1e-4, 100.0, 10), [1.5, 3.0]])


@pytest.fixture(scope="module")
def zero_coeff():
    return make_power_coefficient("0", 0.0, 4.0)


# 512 geometric cuts in (0, 100) from 1e-9, the spacing of the zero
# coefficient's probes and far denser than the sign changes of any
# coefficient here
_DENSE_CUTS = np.geomspace(1e-9, 100.0, 513)[:-1]


@pytest.mark.parametrize("name, cuts", [
    ("slow_decay_coeff", None),
    ("origin_quadratic_coeff", None),
    ("heavy_tail_coeff", None),
    ("sign_change_coeff", None),
    ("zero_coeff", None),
    # a nonzero integrand on the dense cuts: the densest panelization
    pytest.param("heavy_tail_coeff", _DENSE_CUTS, id="heavy_tail_coeff-zero_coeff"),
])
def test_batched_chi_matches_per_panel_loop(request, name, cuts):
    coeff = request.getfixturevalue(name)
    zs = hyp._breakpoints(coeff, 0.0, 100.0) if cuts is None else cuts
    afun = lambda s: np.abs(coeff(s))
    batched = hyp._chi_function(afun, ALPHA, float(_CHI_TS.max()), zs)(_CHI_TS)
    ref = np.array([_ref_chi_point(afun, ALPHA, t, list(zs)) for t in _CHI_TS])
    np.testing.assert_allclose(batched, ref, rtol=1e-13, atol=0.0)


def test_thm3_gate_calls_the_coefficient_in_batches(heavy_tail_coeff, monkeypatch):
    sizes = []
    call = Coefficient.__call__

    def counted(self, t):
        sizes.append(np.size(t))
        return call(self, t)

    monkeypatch.setattr(Coefficient, "__call__", counted)
    hyp.thm3_constants(heavy_tail_coeff, ALPHA)
    # chi and the pushed chi share one rule, one scan and one refinement,
    # with a evaluated once per node: 56 calls and 378,209 points in all
    # on a fresh coefficient; the refinement takes 4 of its calls
    assert len(sizes) <= 70
    assert max(sizes) <= hyp._NODE_CAP
    assert sum(sizes) <= 4.2e5


@pytest.mark.parametrize("coeff, builds, calls, points", [
    # heavy_tail and sign_change of conftest, built afresh: a coefficient
    # caches its zeros, so a fixture's count depends on the tests before
    (("0.005 / (1+t)^2.5", 0.005, 2.5), 2, 56, 378_209),
    (("0.01 * (1 - t) * exp(-t)", 7.0, 6.0), 5, 102, 386_949),
], ids=["heavy_tail", "sign_change"])
def test_thm3_builds_the_right_half_rule_once(coeff, builds, calls, points, monkeypatch):
    # the left half's panelization and the right half's rule at t/2 = 1 are
    # built once; a chunk of scan points builds a rule of its own only for
    # its rows with a zero of a in (t/2, t). The nodes are those of the
    # per-t rule, so the coefficient's calls and points are the same
    coeff = make_power_coefficient(*coeff)
    built, chunks, sizes = [], [], []
    graded, chi_function, call = hyp._graded_edges, hyp._chi_function, Coefficient.__call__

    def counted_edges(*args):
        built.append(args)
        return graded(*args)

    def chunked_chi(*args):
        chi = chi_function(*args)

        def recorded(ts):
            ts = np.asarray(ts, dtype=float)
            chunks.extend(ts[i:i + hyp._CHUNK] for i in range(0, ts.size, hyp._CHUNK))
            return chi(ts)

        return recorded

    def counted_call(self, t):
        sizes.append(np.size(t))
        return call(self, t)

    monkeypatch.setattr(hyp, "_graded_edges", counted_edges)
    monkeypatch.setattr(hyp, "_chi_function", chunked_chi)
    monkeypatch.setattr(Coefficient, "__call__", counted_call)
    hyp.thm3_constants(coeff, ALPHA)
    zs = hyp._breakpoints(coeff, 0.0, 100.0)
    cut = sum(bool(((zs > 0.5 * ts[:, None]) & (zs < ts[:, None])).any()) for ts in chunks)
    assert len(built) == 2 + cut == builds
    assert (len(sizes), sum(sizes)) == (calls, points)


@pytest.mark.parametrize("name", ["slow_decay_coeff", "origin_quadratic_coeff",
                                  "heavy_tail_coeff", "sign_change_coeff"])
def test_thm3_shared_scan_equals_a_scan_of_each_integrand(request, name):
    coeff = request.getfixturevalue(name)
    zs = hyp._breakpoints(coeff, 0.0, 100.0)

    def alone(afun):
        return hyp._sup_scan(hyp._chi_function(afun, ALPHA, 100.0, zs), hyp._SCAN_FLOOR, 100.0)

    chi, chi_argmax = alone(lambda s: np.abs(coeff(s)))
    sup_value, _ = alone(lambda s: np.abs(s ** (2.0 - ALPHA) * coeff(s)))
    rep = hyp.thm3_constants(coeff, ALPHA)
    assert (rep.chi, rep.chi_argmax, rep.sup_value) == (chi, chi_argmax, sup_value)


# --------------------------------------------------------------------------
# chi against a high-precision oracle, up to t = 1e6
# --------------------------------------------------------------------------

# t^(1/2) * integral_0^t |a(s)| s^(-1/2) (t-s)^(-1/2) ds by mpmath's quad at
# 34 digits, the halves [0, t/2] and [t/2, t] apart, each on panels graded
# geometrically toward its singular end and cut at the zero of sign_change
_CHI_ORACLE = [
    ("slow_decay_coeff", 1e-4, 0.00031410429676364011838),
    ("slow_decay_coeff", 1.0, 0.01194677494204046446),
    ("slow_decay_coeff", 1e2, 0.010680159266145971295),
    ("slow_decay_coeff", 1e4, 0.010666800015024001153),
    ("slow_decay_coeff", 1e5, 0.010666680000150031204),
    ("slow_decay_coeff", 1e6, 0.010666668000001500038),
    ("origin_quadratic_coeff", 1e-4, 1.1775083768264790288e-12),
    ("origin_quadratic_coeff", 1.0, 0.00044743388964607570237),
    ("origin_quadratic_coeff", 1e2, 0.00037003057193765094586),
    ("origin_quadratic_coeff", 1e4, 0.00036817380008578187262),
    ("origin_quadratic_coeff", 1e5, 0.00036815722990171537023),
    ("origin_quadratic_coeff", 1e6, 0.00036815557317057057979),
    ("heavy_tail_coeff", 1e-4, 0.00015706000030217035591),
    ("heavy_tail_coeff", 1.0, 0.0073654465106591802027),
    ("heavy_tail_coeff", 1e2, 0.0066839822355084450728),
    ("heavy_tail_coeff", 1e4, 0.0066668334861043414578),
    ("heavy_tail_coeff", 1e5, 0.0066666833352930743319),
    ("heavy_tail_coeff", 1e6, 0.0066666683333572484676),
    ("sign_change_coeff", 1e-4, 0.00031412785119952385303),
    ("sign_change_coeff", 1.0, 0.012589242565517815809),
    ("sign_change_coeff", 1e2, 0.013472624020253447742),
    ("sign_change_coeff", 1e4, 0.013432202268808584975),
    ("sign_change_coeff", 1e5, 0.013431842222330563149),
    ("sign_change_coeff", 1e6, 0.013431806224796054559),
]


def _chi_at(coeff, ts):
    zs = hyp._breakpoints(coeff, 0.0, 1e6)
    ts = np.asarray(ts, dtype=float)
    return hyp._chi_function(lambda s: np.abs(coeff(s)), ALPHA, float(ts.max()), zs)(ts)


@pytest.mark.parametrize("name, t, chi", _CHI_ORACLE)
def test_chi_matches_a_high_precision_oracle(request, name, t, chi):
    assert _chi_at(request.getfixturevalue(name), [t])[0] == pytest.approx(chi, rel=1e-12)


@pytest.mark.parametrize("offset, chi", [
    (1e-4, 0.012588868609213149375),
    (1e-9, 0.012589242561680556661),
])
def test_chi_just_past_a_zero(sign_change_coeff, offset, chi):
    # t = z (1 + offset) just above the zero z = 1: the right half's cut
    # t - z falls inside its Gauss-Jacobi sliver, and the panels past the
    # cut must still refine toward s = t. The oracle is taken at the exact
    # zero, t = 1 + offset; z here is off by 2e-15, far below the bound.
    z = hyp._breakpoints(sign_change_coeff, 0.0, 100.0)[0]
    assert _chi_at(sign_change_coeff, [z * (1.0 + offset)])[0] == pytest.approx(chi, rel=1e-12)


@pytest.mark.parametrize("name", ["slow_decay_coeff", "origin_quadratic_coeff",
                                  "heavy_tail_coeff", "sign_change_coeff"])
def test_chi_of_each_t_alone_equals_the_batch(request, name):
    coeff = request.getfixturevalue(name)
    ts = np.concatenate([np.geomspace(1e-4, 1e6, 25), [0.7, 1.0001, 2.0, 3.3]])
    batched = _chi_at(coeff, ts)
    np.testing.assert_array_equal(batched, [_chi_at(coeff, [t])[0] for t in ts])
    np.testing.assert_array_equal(batched, _chi_at(coeff, ts[::-1])[::-1])


# --------------------------------------------------------------------------
# the right half's scaled rule against the per-t rule it replaced
# --------------------------------------------------------------------------

_NO_ZEROS = make_power_coefficient("0.005 / (1+t)^2.5", 0.005, 2.5)
# a zero at t = 1: the t in (1, 2) build their own right half, cut at t - 1
_ONE_ZERO = make_power_coefficient("0.01 * (1 - t) * exp(-t)", 7.0, 6.0)


def _right_half_per_t(afun, m, e, t, zeros):
    """int_{t/2}^t afun(s) s^m (t-s)^e ds on a rule built for t alone, as
    the convolution built every right half before it scaled one rule: the
    rungs (t/2) r^-j down to a Gauss-Jacobi sliver at y = t - s = 0, cut
    at t - z for each zero z in (t/2, t)."""
    half = 0.5 * t
    cuts = np.array([[t - z for z in zeros if half < z < t]])
    sliver = min(half * hyp._RATIO ** -hyp._SLIVER_RUNGS, cuts.min(initial=np.inf))
    depth = -hyp._rung(sliver / half) + 1
    edges, _ = hyp._graded_edges(half * hyp._RATIO ** -np.arange(depth + 1.0)[None, :],
                                 np.array([sliver]), cuts)
    y, w = hyp._panel_nodes(edges[:-1], edges[1:], e)
    if m != e:
        w *= (t - y) ** (m - e)
    w = w * (t - y) ** e
    return float(np.dot(w.ravel(), afun(t - y.ravel())))


@settings(max_examples=60, deadline=None)
@given(log_t=st.floats(-4.0, 2.0), alpha=st.floats(0.1, 0.9), chi=st.booleans(),
       zero=st.booleans())
# inside the cut band (1, 2) and just past either end of it
@example(log_t=math.log10(1.5), alpha=0.5, chi=True, zero=True)
@example(log_t=math.log10(1.0001), alpha=0.3, chi=False, zero=True)
@example(log_t=math.log10(2.0001), alpha=0.8, chi=True, zero=True)
@example(log_t=math.log10(0.9999), alpha=0.5, chi=False, zero=True)
def test_scaled_right_half_equals_the_per_t_rule(log_t, alpha, chi, zero):
    # chi's convolution (m = e = alpha - 1) or F's (m = 0); the left half is
    # the convolution's own, of afun cut to s < t/2, where the right half's
    # nodes read 0
    coeff = _ONE_ZERO if zero else _NO_ZEROS
    t, e = 10.0 ** log_t, alpha - 1.0
    m = e if chi else 0.0
    zs = hyp._breakpoints(coeff, 0.0, 100.0)
    afun = lambda s: np.abs(coeff(s))
    conv = lambda fn: hyp._conv_function(fn, m, e, 100.0, zs)(np.array([t]))[0]
    left = conv(lambda s: np.where(s < 0.5 * t, afun(s), 0.0))
    want = left + _right_half_per_t(afun, m, e, t, zs)
    assert conv(afun) == pytest.approx(want, rel=4e-15, abs=0.0)


# --------------------------------------------------------------------------
# composite GL-24 is exact on polynomials of degree <= 47
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=48),
       width=st.floats(1e-3, 50.0),
       offset=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=12))
# an integral of 2.2e-311, a subnormal: rounding there is absolute, 15
# subnormal spacings apart, so the bound carries a floor below the
# smallest normal float and keeps its relative strength above it
@example(coeffs=[0.0, 2.2250738585072014e-308], width=0.001953125, offset=0.0, cuts=[])
def test_batched_integral_is_exact_on_polynomials(coeffs, width, offset, cuts):
    # lo <= width keeps the rounding of the nodes, relative to the width,
    # near one ulp, so the polynomial is evaluated to full precision
    lo = offset * width
    hi = lo + width
    p = np.polynomial.Polynomial(coeffs, domain=[lo, hi], window=[0.0, 1.0])
    exact = width * sum(c / (k + 1) for k, c in enumerate(coeffs))
    scale = width * sum(abs(c) for c in coeffs)
    got = hyp._weighted_moment(p, 0.0, lo, hi, [lo + c * width for c in cuts])
    assert abs(got - exact) <= 1e-12 * scale + 1e-320


# --------------------------------------------------------------------------
# the batched integral rule against the scalar rule it replaced
# --------------------------------------------------------------------------

def _scalar_edges(lo, hi, breakpoints=()):
    anchor = max(lo, hi * 1e-12) if lo <= 0.0 else lo
    decades = math.log10(hi / anchor) if hi > anchor else 0.0
    count = max(8, math.ceil(decades * 6)) + 1
    edges = np.concatenate([np.geomspace(anchor, hi, count),
                            np.asarray(breakpoints, dtype=float), [lo, hi]])
    return np.unique(edges[(edges >= lo) & (edges <= hi)])


def _scalar_panel_nodes(lo, hi, e):
    head = (lo == 0.0)[:, None]
    gj_x, gj_w = hyp._gj_rule(e) if head.any() else (_X, _W)
    half = 0.5 * (hi - lo)[:, None]
    y = lo[:, None] + half * (np.where(head, gj_x, _X) + 1.0)
    # both weights are computed on every row: a head panel of subnormal
    # width (a cut at 5e-324) overflows in the Legendre weight it discards
    with np.errstate(divide="ignore", invalid="ignore"):
        return y, np.where(head, half ** (e + 1.0) * gj_w, half * _W * y ** e)


def _scalar_moment(fn, m, lo, hi, breakpoints=()):
    """The scalar rule the batched one replaced: one interval, one exponent,
    one coefficient call on all its nodes and one np.dot."""
    if hi <= lo:
        return 0.0
    edges = _scalar_edges(lo, hi, breakpoints)
    s, w = _scalar_panel_nodes(edges[:-1], edges[1:], m)
    return float(np.dot(w.ravel(), fn(s.ravel())))


@settings(max_examples=60, deadline=None)
@given(exponents=st.lists(st.floats(-0.95, 3.0), min_size=1, max_size=3),
       spans=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 20.0)),
                                st.one_of(st.just(0.0), st.floats(1e-6, 80.0))),
                      min_size=1, max_size=12),
       cuts=st.lists(st.floats(0.0, 100.0), max_size=10))
def test_batched_rows_equal_the_scalar_rule(exponents, spans, cuts):
    # each row of the batch equals the scalar rule's value bit for bit,
    # whatever the other rows, the block they fall in and the shared nodes
    fn = lambda s: np.abs(np.exp(-0.3 * s) * np.cos(s) / (1.0 + s) ** 1.5)
    lo = [a for a, _ in spans]
    hi = [a + width for a, width in spans]
    got = hyp._moments(fn, exponents, lo, hi, cuts)
    want = [[_scalar_moment(fn, m, a, b, cuts) for a, b in zip(lo, hi)] for m in exponents]
    assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(exponents=st.lists(st.floats(-0.95, 3.0), min_size=1, max_size=3),
       spans=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 20.0)),
                                st.one_of(st.just(0.0), st.floats(1e-6, 80.0))),
                      min_size=1, max_size=12),
       cuts=st.lists(st.floats(0.0, 100.0), max_size=10))
def test_integrand_rows_equal_each_integrand_alone(exponents, spans, cuts):
    # an integrand that returns two rows is called once per block, and each
    # row equals a call of its own integrand bit for bit
    signed = lambda s: np.exp(-0.3 * s) * np.cos(s) / (1.0 + s) ** 1.5
    calls = []

    def both(s):
        calls.append(s.size)
        a = signed(s)
        return np.stack([a, np.abs(a)])

    lo = [a for a, _ in spans]
    hi = [a + width for a, width in spans]
    got = hyp._moments(both, exponents, lo, hi, cuts)
    alone = [hyp._moments(f, exponents, lo, hi, cuts) for f in (signed, lambda s: np.abs(signed(s)))]
    if not any(width > 0.0 for _, width in spans):
        assert calls == [] and got.tolist() == alone[0].tolist() == np.zeros((len(exponents), len(lo))).tolist()
        return
    assert got.shape == (2, len(exponents), len(lo))
    assert [row.tolist() for row in got] == [a.tolist() for a in alone]
    assert max(calls) <= hyp._NODE_CAP


def test_batched_rows_on_dense_cuts_equal_the_scalar_rule(heavy_tail_coeff):
    # intervals past the node cap alone, split into several coefficient calls
    fn = lambda s: np.abs(heavy_tail_coeff(s))
    lo, hi = [0.0, 0.0, 0.5, 3.0], [100.0, 2.0, 100.0, 4.0]
    got = hyp._moments(fn, [0.0, 1.0], lo, hi, _DENSE_CUTS)
    want = [[_scalar_moment(fn, m, a, b, _DENSE_CUTS) for a, b in zip(lo, hi)]
            for m in (0.0, 1.0)]
    assert got.tolist() == want


# --------------------------------------------------------------------------
# chi_argmax is where chi was evaluated, whatever order the brackets take
# --------------------------------------------------------------------------

def test_chi_argmax_attains_chi_in_any_bracket_order(heavy_tail_coeff, monkeypatch):
    rep = hyp.thm3_constants(heavy_tail_coeff, ALPHA)
    zs = hyp._breakpoints(heavy_tail_coeff, 0.0, 100.0)
    afun = lambda s: np.abs(heavy_tail_coeff(s))
    at_argmax = hyp._chi_function(afun, ALPHA, rep.chi_argmax, zs)(np.array([rep.chi_argmax]))[0]
    assert at_argmax == pytest.approx(rep.chi, rel=1e-14)

    refine = hyp._parabolic_refine

    def reversed_brackets(fn, *brackets):
        # results come back in reversed bracket order, each bracket with its
        # row: the scan must take each maximiser and its row from the
        # refinement, not from its bracket's slot
        return refine(fn, *(b[::-1] for b in brackets))

    monkeypatch.setattr(hyp, "_parabolic_refine", reversed_brackets)
    again = hyp.thm3_constants(heavy_tail_coeff, ALPHA)
    assert ((again.chi, again.chi_argmax, again.sup_value)
            == (rep.chi, rep.chi_argmax, rep.sup_value))


# --------------------------------------------------------------------------
# the parabolic refinement against the golden-section refinement it replaced
# --------------------------------------------------------------------------

def _golden(fn, lo, hi, pts, vals, rows):
    """The 40-step golden-section refinement, 42 lockstep calls of fn; it
    reads each bracket alone, not the scan points inside it."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    cols = np.arange(rows.size)
    row_fn = lambda x: fn(x)[rows, cols]
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = row_fn(c), row_fn(d)
    for _ in range(40):
        left = fc > fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        x = np.where(left, b - inv * (b - a), a + inv * (b - a))
        fx = row_fn(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    at_c = fc >= fd  # c < d, so a tie keeps the smaller point
    return np.where(at_c, fc, fd), np.where(at_c, c, d), rows


def _scan_only(fn, lo, hi, pts, vals, rows):
    # no refinement: each bracket reports the best of its scan points
    best = np.argmax(vals, axis=1)[:, None]
    return (np.take_along_axis(vals, best, 1)[:, 0], np.take_along_axis(pts, best, 1)[:, 0],
            rows)


@pytest.fixture(scope="module")
def horizon_coeff():
    # chi still rises at the horizon: its sup is the scan's last point
    return make_power_coefficient("0.01 / (1+t)^0.8", 0.01, 0.8)


@pytest.fixture(scope="module")
def bump_coeff():
    # about one scan spacing wide at t = 3: the refinement adds 9% to chi
    return make_power_coefficient("exp(-((t-3)/0.05)^2)", 1.0, 4.0, valid_from=5.0)


_REFINED = ["slow_decay_coeff", "origin_quadratic_coeff", "heavy_tail_coeff",
            "sign_change_coeff", "zero_coeff", "horizon_coeff", "bump_coeff"]


@pytest.mark.parametrize("name", _REFINED)
def test_parabolic_refinement_matches_the_golden_oracle(request, name, monkeypatch):
    coeff = request.getfixturevalue(name)
    rep = hyp.thm3_constants(coeff, ALPHA)
    with monkeypatch.context() as m:
        m.setattr(hyp, "_parabolic_refine", _golden)
        oracle = hyp.thm3_constants(coeff, ALPHA)
        m.setattr(hyp, "_parabolic_refine", _scan_only)
        scan = hyp.thm3_constants(coeff, ALPHA)
    for field in ("chi", "sup_value", "sup_chain_bound", "k3"):
        got, want, floor = (getattr(r, field) for r in (rep, oracle, scan))
        assert got == pytest.approx(want, rel=4e-15, abs=0.0), field
        assert got >= floor, field


@pytest.mark.parametrize("name", _REFINED)
def test_a_scan_refines_in_at_most_ten_calls(request, name, monkeypatch):
    calls = []
    refine = hyp._parabolic_refine

    def counted(fn, *brackets):
        calls.append(0)

        def fn_counted(x):
            calls[-1] += 1
            return fn(x)

        return refine(fn_counted, *brackets)

    monkeypatch.setattr(hyp, "_parabolic_refine", counted)
    hyp.thm3_constants(request.getfixturevalue(name), ALPHA)
    # one refinement per scan: the joint chi and pushed chi scan, and the
    # pushed coefficient's own where its chain closes; golden took 42 calls
    assert 1 <= len(calls) <= 2
    assert max(calls) <= 10


def _assert_inside_and_above_the_start(lo, hi, pts, vals, best, best_at):
    # each bracket's maximum lies inside it and is never below its start
    # points inside it
    assert np.all((lo <= best_at) & (best_at <= hi))
    inside = (lo[:, None] <= pts) & (pts <= hi[:, None])
    assert np.all(best >= np.where(inside, vals, -np.inf).max(axis=1))


def test_an_end_bracket_reports_a_point_inside_it(monkeypatch):
    # the first scan point is a candidate whose bracket [t0, t1] starts from
    # t0, t1 and t2, and t2 is the highest of the three: the bracket must
    # not report t2, which lies past it
    ts = np.geomspace(hyp._SCAN_FLOOR, 1.0, 513)
    table = np.full(ts.size, 0.01)
    table[:4] = [0.9, 0.1, 0.95, 0.0]
    fn = lambda t: np.interp(t, ts, table)
    brackets = []
    refine = hyp._parabolic_refine

    def kept(fn, lo, hi, pts, vals, rows):
        out = refine(fn, lo, hi, pts, vals, rows)
        brackets.append((lo, hi, pts, vals, *out[:2]))
        return out

    monkeypatch.setattr(hyp, "_parabolic_refine", kept)
    assert hyp._sup_scan(fn, hyp._SCAN_FLOOR, 1.0) == (0.95, ts[2])
    [(lo, hi, pts, vals, best, best_at)] = brackets
    # the brackets are the local maxima t2, t0 and t4, the plateau's first point
    assert (lo == ts[0]).tolist() == [False, True, False] and hi[1] == ts[1]
    assert (best[1], best_at[1]) == (0.9, ts[0])
    _assert_inside_and_above_the_start(lo, hi, pts, vals, best, best_at)


def test_a_narrow_second_peak_is_refined():
    # a broad peak of height 1 at t = 0.01 and a peak of 1.05, narrower than
    # the scan spacing, midway between scan points 500 and 501: the scan
    # reads 0.39 there, below the broad peak's three highest points, but
    # it is a local maximum of the scan, so it is refined
    ts = np.geomspace(hyp._SCAN_FLOOR, 100.0, 769)
    mid, half = 0.5 * (ts[500] + ts[501]), 0.5 * (ts[501] - ts[500])

    def fn(t):
        broad = np.exp(-np.log(t / 0.01) ** 2)
        return np.maximum(broad, 1.05 * np.exp(-((t - mid) / half) ** 2))

    sup, at = hyp._sup_scan(fn, hyp._SCAN_FLOOR, 100.0)
    assert sup == pytest.approx(1.05, rel=1e-14)
    assert at == pytest.approx(mid, rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.5, 40.0), peak=st.floats(-5.0, 3.0))
def test_parabolic_refinement_finds_a_smooth_peak(p, peak):
    # t^p e^(-t/q) with q = m/p, over its maximum m^p e^-p at t = m, written
    # through log1p so it rounds to about one ulp; as written it carries
    # about p ulps of rounding, which the oracle's 40 samples near the peak
    # and the refinement's few sample differently
    m = 10.0 ** peak

    def fn(t):
        r = t / m - 1.0
        return np.exp(p * (np.log1p(r) - r))

    brackets = []
    refine = hyp._parabolic_refine

    def kept(fn, lo, hi, pts, vals, rows):
        out = refine(fn, lo, hi, pts, vals, rows)
        brackets.append((lo, hi, pts, vals, out))
        return out

    with mock.patch.object(hyp, "_parabolic_refine", kept):
        sup, at = hyp._sup_scan(fn, hyp._SCAN_FLOOR, 100.0)
    with mock.patch.object(hyp, "_parabolic_refine", _golden):
        want, _ = hyp._sup_scan(fn, hyp._SCAN_FLOOR, 100.0)
    assert sup == pytest.approx(want, rel=4e-15, abs=0.0)
    [(lo, hi, pts, vals, (best, best_at, _))] = brackets
    _assert_inside_and_above_the_start(lo, hi, pts, vals, best, best_at)
    if hyp._SCAN_FLOOR < m < 100.0:
        assert sup == pytest.approx(1.0, rel=4e-15)
        assert at == pytest.approx(m, rel=1e-6)
    else:
        assert at == (hyp._SCAN_FLOOR if m < 1.0 else 100.0)


# --------------------------------------------------------------------------
# the overridden mean-zero gate builds its profile once
# --------------------------------------------------------------------------

def test_overridden_lemma2_gate_builds_one_profile(monkeypatch):
    calls = []
    build = solver.lemma1_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(solver, "lemma1_profile", counted)
    hot = make_power_coefficient("0.5 * (1 - t) * exp(-t)", 350.0, 6.0)
    res = solve(SolveSpec("lemma2", ALPHA, 0.0, 0.0, hot,
                          grid=make_graded_grid(n=256), max_iterations=3,
                          attempt_anyway=True))
    assert math.isnan(res.predicted_k)
    assert len(calls) == 1


# --------------------------------------------------------------------------
# thm2's origin fit: one least-squares slope per split, batched
# --------------------------------------------------------------------------

_ORIGIN_COEFFS = [
    make_power_coefficient("0.01 * t^2 / (1+t)^6", 0.01, 4.0),
    make_power_coefficient("0.01 / (1+t)^3.5", 0.01, 3.5),
    make_power_coefficient("t^2.5 * exp(-t)", 10.0, 4.0),
    # |a| = 0 below 1e-7 and at t = 1e-6 and beyond: all, some and no
    # probes of a split below the threshold
    Coefficient.from_samples([[0.0, 0.0], [1e-7, 0.0], [1e-6, 1e-6], [1.0, 0.0]],
                             make_power_coefficient("0", 0.0, 2.0).envelope),
]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(_ORIGIN_COEFFS) - 1),
       splits=st.lists(st.floats(1e-3, 200.0), min_size=1, max_size=40))
def test_origin_fit_of_each_split_alone_equals_the_batch(which, splits):
    a = _ORIGIN_COEFFS[which]
    powers, a_eps = hyp._origin_exponents(a, np.array(splits))
    for T, q, v in zip(splits, powers, a_eps.tolist()):
        [q_alone], [v_alone] = hyp._origin_exponents(a, np.array([T]))
        assert (q, v) == (q_alone, v_alone.item())
        # the centred slope is the least-squares line polyfit finds
        x = np.geomspace(1e-6 * T, 1e-5 * T, 12)
        y = np.abs(a(x))
        if np.all(y >= 1e-300):
            assert abs(q - np.polyfit(np.log(x), np.log(y), 1)[0]) <= 1e-12 * max(1.0, abs(q))
        else:
            assert q == (math.inf if np.all(y < 1e-300) else 0.0)
