"""Smallness constants and integrability profiles for damping coefficients.

Every contraction argument in this package hinges on a handful of weighted
integrals of the coefficient a(t).  This module computes them with composite
Gauss-Legendre rules on geometric panels, switching to Gauss-Jacobi panels
wherever a power weight s^m (m > -1) or (t-s)^(alpha-1) touches an endpoint.
Panels are always split at the sign changes of a so the |a| factor stays
smooth inside each panel. The Gauss-Jacobi rules are built from numpy
alone by the Golub-Welsch method (Golub & Welsch, Math. Comp. 23, 1969),
with one Newton step on the nodes; nodes are good to about 1e-16 and
weights to about 1e-13 relative (see _gj_rule).

Two rules do all the quadrature.  Plain integrals of fn(s) s^m are the
rows of one batched rule (_moments; _weighted_moment is its one-row case):
a block of rows shares its panels and all nodes but the Gauss-Jacobi heads,
fn is called once per node, and each row is reduced on its own; thm1 and
thm2 run all the split times of a sweep through it at once.  fn may return
rows, one integrand each, as in the convolutions below: lemma1_profile
reads a's mean and the mass of |a| from one call.  The weakly
singular convolutions int_0^t |a(s)| s^m (t-s)^e ds, thm3's chi
(m = e = alpha - 1) and the divergence demonstration's F (m = 0,
e = alpha - 1), run on one rule for a batch of points t (_conv_function).
Each t is a row: its nodes carry weights with the kernel factors folded
in, and the coefficient is called once on the nodes of a chunk of rows.
A row with no zero of a in (t/2, t) takes its right half from one rule
built at t/2 = 1 and scaled by t; the rows of a chunk that do so form
one (rows x nodes) block, reduced by np.sum along each row.  A row with
such a zero builds its own right half, cut there, and np.bincount reduces
it.  Each row is summed on its own in a fixed order, so its value does
not depend on the rest of the batch.  A coefficient call walks the
whole expression tree and allocates one temporary per tree node.  Called
per 24-node panel, that overhead dominates; called on every node of a
full sup scan, the temporaries of the whole scan are alive at once.  So
scans run in chunks of _CHUNK points, and no call receives more than
_NODE_CAP nodes; larger chunks run faster but hold more memory at the
peak.

The convolution splits at t/2 (see _conv_function).  The left half, which
must resolve a's own scale, runs on one panelization built and evaluated
once per batch; the right half, which must resolve the kernel singularity
at s = t, runs on one rule in t - s, built once and scaled by t, except
at the t whose right half holds a zero of a.  A convolution may carry
several integrands on one rule: the integrand returns one row per
function, and each row is reduced on its own.  thm3's two sups, chi of
|a| and chi of the pushed coefficient |t^(2-alpha) a(t)|, share one rule,
one scan and one refinement, with a evaluated once per node.

Integrals over [horizon, infinity) are never chased numerically: they are
closed in one rule, _power_tail (int_lo^inf amp s^-q ds, inf for q <= 1),
under the coefficient's declared power envelope A*t^(-p).  It is the
package's only closed form of an envelope tail, the solver's budgets
included.  A zero envelope (A = 0) says a = 0 past valid_from, so its
tails are 0 at any exponent; envelope_tail_integral refuses a lower limit
below valid_from, where the envelope bounds nothing.  A gate that needs a
tail the rule reads as inf raises EnvelopeError, which the solver's
override does not bypass.  A Coefficient cannot be built without an
envelope, and the command line refuses a coefficient that exceeds it at
the grid nodes, or whose valid_from lies past --tmax (exit 2), because
the reported constants would silently drop their tails otherwise.

Suprema over t > 0 run a 128-points-per-decade logarithmic scan; the three
highest local maxima of each function's scan then take safeguarded
parabolic steps from the scan's own points, in lockstep, one batched
evaluation per step.
Pass/fail flags use a one-sided margin: a constant within 1e-9 of the
threshold is reported as "inconclusive" rather than rounded to either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeffexpr import Coefficient
from .fracops import as_alpha, convolve
from .meshfun import (
    GradedGrid,
    GridFunction,
    TailModel,
    _right_cumtrapz,
    make_graded_grid,
)
from .specialfn import gamma

__all__ = [
    "EnvelopeError",
    "Thm1Report",
    "Thm2Report",
    "Thm3Report",
    "Lemma1Profile",
    "Lemma2Report",
    "thm1_constants",
    "thm2_constants",
    "thm3_constants",
    "lemma1_profile",
    "lemma2_constants",
    "f_l1_divergence",
    "envelope_tail_integral",
]

_MARGIN = 1e-9
_SCAN_PER_DECADE = 128
_SCAN_FLOOR = 1e-4


# --------------------------------------------------------------------------
# quadrature primitives
# --------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# most nodes one coefficient call receives
_NODE_CAP = 8192
# scan points whose panels are built together; 16 chi scan points of a
# coefficient without sign changes carry ~7.7k nodes, one call's worth
_CHUNK = 16


_GJ_POINTS = 24


def _jacobi(e: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_24^(0,e)(x) and (1-x^2) P_24^(0,e)'(x) by the three-term recurrence.

    P_1 is written in 1+x: near x = -1 it is O(e+1), and 1 + (e+2)(x-1)/2
    would lose that many digits to cancellation.
    """
    n = _GJ_POINTS
    p_prev, p = np.ones_like(x), 0.5 * (e + 2.0) * (1.0 + x) - (e + 1.0)
    for k in range(2, n + 1):
        c = 2 * k + e
        p_prev, p = p, (((c - 1) * (c * (c - 2) * x - e * e) * p
                         - 2 * (k - 1) * (k + e - 1) * c * p_prev)
                        / (2 * k * (k + e) * (c - 2)))
    c = 2 * n + e
    return p, n * (2 * (n + e) * p_prev - (e + c * x) * p) / c


@lru_cache(maxsize=32)
def _gj_rule(exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """24-node Gauss-Jacobi rule on [-1, 1] for the weight (1+x)^exponent.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the weight, polished by one Newton step
    on P_24^(0,e). The weights are 2^(e+1) / ((1-x^2) P_24'(x)^2), the
    Gauss-Jacobi formula whose Gamma factor is 1 when the first Jacobi
    parameter is 0, times a first-order term that carries each node's
    rounding error into its weight (near x = -1 a node error d moves the
    weight by about d/(1+x) relative). Against a 40-digit reference
    the nodes are within 1.1e-16 for exponents in [-0.99, 2], and the
    weights within 6e-14 relative at -0.99 and 2.5e-13 on [-0.9, 2].
    """
    e = exponent
    k = np.arange(1, _GJ_POINTS)
    c = 2 * k + e
    diag = np.concatenate([[e / (e + 2.0)], e * e / (c * (c + 2))])
    off = 2 * k * (k + e) / (c * np.sqrt((c - 1) * (c + 1)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    p, dp = _jacobi(e, x)
    x = x - p * (1.0 - x) * (1.0 + x) / dp
    p, dp = _jacobi(e, x)
    w = (2.0 ** (e + 1.0) * (1.0 - x) * (1.0 + x) / dp ** 2
         * (1.0 + 2.0 * ((e + 1.0) * x - e) * p / dp))
    return x, w


def _panel_nodes(lo: np.ndarray, hi: np.ndarray, e: float):
    """Nodes y and weights of y^e dy on each panel [lo_i, hi_i], one row each.

    A panel that starts at y = 0 takes the Gauss-Jacobi rule of the weight;
    any other takes Gauss-Legendre with y^e folded into its weights. The
    Jacobi rule exists for e > -1 only, so it is built, and its nodes and
    weights written, only on the rows that start at 0.
    """
    head = lo == 0.0
    half = 0.5 * (hi - lo)[:, None]
    y, w = lo[:, None] + half * (_GL_NODES + 1.0), half * _GL_WEIGHTS
    # y^e on every row: selecting the Legendre rows costs more than it saves;
    # only a row from 0 can hold y = 0, and the Jacobi rule overwrites it
    with np.errstate(divide="ignore", invalid="ignore"):
        w *= y ** e
    if head.any():
        gj_x, gj_w = _gj_rule(e)
        y[head], w[head] = half[head] * (gj_x + 1.0), half[head] ** (e + 1.0) * gj_w
    return y, w


def _sorted_edges(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of table sorted, without NaN and repeats: the edges and their rows."""
    table = np.sort(table, axis=1)
    keep = ~np.isnan(table)
    keep[:, 1:] &= table[:, 1:] != table[:, :-1]
    return table[keep], np.nonzero(keep)[0]


def _call(fn, s: np.ndarray) -> np.ndarray:
    """fn(s), at most _NODE_CAP nodes per call; fn may return rows, a column per node."""
    if s.size <= _NODE_CAP:
        return fn(s)
    return np.concatenate([fn(s[i:i + _NODE_CAP]) for i in range(0, s.size, _NODE_CAP)],
                          axis=-1)


def _moments(fn, exponents, lo, hi, breakpoints=()) -> np.ndarray:
    """integral of fn(s) s^m over [lo_j, hi_j] (lo_j >= 0; m > -1 where lo_j = 0),
    one row per m of exponents and one column per interval j.

    fn may return k rows, one integrand each, one column per node; the
    result then has shape (k, exponents, intervals). With no interval of
    positive width fn is never called, and the result is zeros of shape
    (exponents, intervals).

    Panels are geometric, 6 to a decade and at least 8, cut at the breakpoints;
    from lo = 0 they grade down to a first panel [0, 1e-12 hi]. A block of at
    most _NODE_CAP nodes takes one _panel_nodes call per exponent and one
    call of fn, on the nodes its rows share and on their own Gauss-Jacobi
    heads. Each row is reduced by its own np.dot in its own node order.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(lo).astype(float), np.asarray(hi, dtype=float))
    out = None
    live = np.flatnonzero(hi > lo)
    cuts = np.sort(np.asarray(breakpoints, dtype=float))
    anchor = np.where(lo <= 0.0, np.maximum(lo, hi * 1e-12), lo)
    count = np.array([max(8, math.ceil(math.log10(h / a) * 6)) if h > a else 8
                      for a, h in zip(anchor.tolist(), hi.tolist())], dtype=int) + 1
    first, last = np.searchsorted(cuts, lo), np.searchsorted(cuts, hi, "right")
    geometric = np.full((lo.size, count.max(initial=0)), np.nan)
    for n in set(count[live].tolist()):
        rows = live[count[live] == n]
        geometric[rows, :n] = np.geomspace(anchor[rows], hi[rows], n).T
    # at most this many nodes per interval: its panels and its extra heads
    size = _GL_NODES.size * (count + last - first + (len(exponents) - 1) * (lo == 0.0))
    per = max(1, _NODE_CAP // int(size[live].max(initial=1)))
    for b in (live[i:i + per] for i in range(0, live.size, per)):
        span = cuts[first[b].min():last[b].max()]
        table = np.column_stack([geometric[b], lo[b], np.broadcast_to(span, (b.size, span.size))])
        table[~((table >= lo[b, None]) & (table <= hi[b, None]))] = np.nan
        edges, owner = _sorted_edges(table)
        inner = owner[1:] == owner[:-1]
        plo, phi = edges[:-1][inner], edges[1:][inner]
        ends = np.searchsorted(owner[1:][inner], np.arange(b.size + 1))
        head = plo == 0.0
        ys, ws = zip(*(_panel_nodes(plo, phi, m) for m in exponents))
        values = _call(fn, np.concatenate([ys[0].ravel()] + [y[head].ravel() for y in ys[1:]]))
        lead = values.shape[:-1]  # (k,) for k integrands, () for one
        if out is None:
            out = np.zeros(lead + (len(exponents), lo.size))
        vals = values[..., :ys[0].size].reshape(lead + ys[0].shape)
        heads = values[..., ys[0].size:].reshape(lead + (len(ys) - 1, head.sum(), _GL_NODES.size))
        for i, w in enumerate(ws):
            if i:  # the shared nodes, and the Gauss-Jacobi heads of exponent i
                vals = vals.copy()
                vals[..., head, :] = heads[..., i - 1, :, :]
            for row_out, row_vals in zip(out.reshape((-1,) + out.shape[-2:]),
                                         vals.reshape((-1,) + ys[0].shape)):
                for j, p, q in zip(b.tolist(), ends[:-1].tolist(), ends[1:].tolist()):
                    row_out[i, j] = np.dot(w[p:q].ravel(), row_vals[p:q].ravel())
    return np.zeros((len(exponents), lo.size)) if out is None else out


def _weighted_moment(fn, m: float, lo: float, hi: float, breakpoints=()) -> float:
    """integral of fn(s) * s^m over [lo, hi]: the one-row case of _moments."""
    return float(_moments(fn, [m], lo, hi, breakpoints)[0, 0])


class EnvelopeError(ValueError):
    """A tail past the horizon that the coefficient's envelope cannot close."""


def _power_tail(amp: float, q: float, lo: float) -> float:
    """Closed form of integral_lo^inf amp s^(-q) ds: 0 if amp = 0, inf if q <= 1."""
    if amp == 0.0:
        return 0.0
    if q <= 1.0:
        return math.inf
    return amp * lo ** (1.0 - q) / (q - 1.0)


def envelope_tail_integral(envelope: TailModel, m: float, lo: float) -> float:
    """Closed form of integral_lo^inf s^m * A s^(-p) ds; refused for lo < valid_from."""
    if envelope.valid_from > lo:
        raise EnvelopeError(
            f"the envelope holds only from valid_from={envelope.valid_from!r}, "
            f"past {lo!r}, so the gate cannot close its tail from {lo!r}"
        )
    return _power_tail(envelope.amplitude, envelope.exponent - m, lo)


def _closed(tail: float, envelope: TailModel, need: str) -> float:
    """A tail the rule closed; an EnvelopeError when it read inf."""
    if math.isinf(tail):
        raise EnvelopeError(
            f"coefficient envelope decays like t^-{envelope.exponent!r}; {need}, "
            "so the gate cannot close its tail"
        )
    return tail


def _breakpoints(a: Coefficient, lo: float, hi: float) -> np.ndarray:
    """Panel cuts where |a| loses smoothness: sign changes and sample kinks."""
    cuts = set(a.zeros(lo, hi))
    if getattr(a, "samples", None) is not None:
        cuts.update(float(s) for s in a.samples[:, 0] if lo < s < hi)
    return np.array(sorted(cuts), dtype=float)


# --------------------------------------------------------------------------
# sup over t > 0: log scan + safeguarded parabolic polish
# --------------------------------------------------------------------------

# the most refinement steps of a scan, each one call of the scanned function
_REFINE_STEPS = 10


def _parabolic_refine(fn, lo: np.ndarray, hi: np.ndarray, pts: np.ndarray, vals: np.ndarray,
                      rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum of row rows_i of a vectorized fn on [lo_i, hi_i], from pts_i valued vals_i.

    fn(x) holds one row per function, one column per point. Each step is
    one call of fn, on one point per live bracket: the vertex of the
    parabola through its best three points (Brent 1973, ch. 5), or a golden
    step into the larger side where the vertex is outside the bracket, the
    points are not concave or the move is below rounding. A bracket freezes
    on its own values, once the parabola's maximum over it is within one
    ulp of its best value. Returns the best value, its point (ties to the
    smaller t) and the row, per bracket, after _REFINE_STEPS steps at most.
    """
    def best_three(pts, vals, span=(lo[:, None], hi[:, None])):
        # a start point past the bracket, the third of an end bracket, ranks last
        rank = np.where((span[0] <= pts) & (pts <= span[1]), -vals, np.inf)
        keep = np.lexsort((pts, rank), axis=1)[:, :3]
        return np.take_along_axis(pts, keep, 1), np.take_along_axis(vals, keep, 1)

    pts, vals = best_three(pts, vals)
    live = np.ones(rows.size, bool)
    for _ in range(_REFINE_STEPS):
        (x, w, v), (fx, fw, fv) = pts.T, vals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 = (fw - fx) / (w - x)
            c2 = ((fv - fx) / (v - x) - d1) / (v - w)
            model = lambda t: fx + (d1 + c2 * (t - w)) * (t - x)
            u = 0.5 * (x + w - d1 / c2)
            inside = (c2 < 0.0) & (lo < u) & (u < hi)
            top = np.where(inside, model(u), np.maximum(model(lo), model(hi)))
        live &= top - fx > np.spacing(np.abs(fx))
        if not live.any():
            break
        golden = x + (3.0 - math.sqrt(5.0)) / 2.0 * np.where(hi - x >= x - lo, hi - x, lo - x)
        u = np.where(inside & (np.abs(u - x) > 2.0 * np.spacing(x)), u, golden)
        fu = np.full(rows.size, -np.inf)
        fu[live] = fn(u[live])[rows[live], np.arange(np.count_nonzero(live))]
        # a worse point becomes the end on its side; a better one moves the other end to x
        up = (fu > fx) | ((fu == fx) & (u < x))
        cut, low = np.where(up, x, u), up == (u >= x)
        lo, hi = np.where(live & low, cut, lo), np.where(live & ~low, cut, hi)
        pts, vals = best_three(np.column_stack([pts, u]), np.column_stack([vals, fu]))
    return vals[:, 0], pts[:, 0], rows


def _sup_scan(fn, lo: float, hi: float):
    """(sup, argmax) of a vectorized fn over [lo, hi] by log scan + refinement.

    A fn that returns k rows, one per function, scans the k functions on
    shared points and returns a list of k (sup, argmax) pairs. The three
    highest local maxima of each row, scan points no lower than their
    neighbours, are refined together, at most 3k brackets in one lockstep
    refinement; each spans its point's neighbours (one at an end of the
    scan) and starts, at no call, from the three scan points around it.
    The argmax is where the reported sup was evaluated; exact ties between
    scan points and refined brackets go to the smaller t.
    """
    decades = math.log10(hi / lo)
    npts = max(16, int(math.ceil(decades * _SCAN_PER_DECADE))) + 1
    ts = np.geomspace(lo, hi, npts)
    vals = fn(ts)
    table = np.atleast_2d(vals)
    padded = np.pad(table, ((0, 0), (1, 1)), constant_values=-np.inf)
    local = (table >= padded[:, :-2]) & (table >= padded[:, 2:])
    # the three highest local maxima of each row, ties to the smaller t
    order = np.argsort(np.where(local, -table, np.inf), axis=1, kind="stable")[:, :3]
    kept = np.take_along_axis(local, order, 1)
    rows, order = np.nonzero(kept)[0], order[kept]
    start = np.clip(order, 1, npts - 2)[:, None] + [-1, 0, 1]
    peaks, peak_at, peak_rows = _parabolic_refine(
        lambda x: np.atleast_2d(fn(x)), ts[np.maximum(order - 1, 0)],
        ts[np.minimum(order + 1, npts - 1)], ts[start], table[rows[:, None], start], rows)
    sups = []
    for row, row_vals in enumerate(table):
        mine = peak_rows == row
        values = np.concatenate([row_vals, peaks[mine]])
        points = np.concatenate([ts, peak_at[mine]])
        best = float(values.max())
        hit = values == best
        sups.append((best, float(points[hit].min()) if hit.any() else math.nan))
    return sups if vals.ndim == 2 else sups[0]


# --------------------------------------------------------------------------
# report containers
# --------------------------------------------------------------------------

def _classify(k: float) -> str:
    if k <= 1.0 - _MARGIN:
        return "pass"
    if k < 1.0 + _MARGIN:
        return "inconclusive"
    return "fail"


@dataclass(frozen=True)
class Thm1Report:
    """Smallness data for the bounded-solution contraction with split time T."""

    alpha: float
    T: float
    horizon: float
    C0: float
    C1: float
    k: float
    tail_ok: bool
    k_status: str
    passed: bool


@dataclass(frozen=True)
class Thm2Report:
    """Smallness data for the contraction built on the s^(-1-alpha) weight."""

    alpha: float
    T: float
    horizon: float
    k4: float
    origin_exponent: float
    tail_ok: bool
    k_status: str
    passed: bool


@dataclass(frozen=True)
class Thm3Report:
    """Smallness data for the linear-growth contraction: chi and k3."""

    alpha: float
    horizon: float
    chi: float
    chi_argmax: float
    k3: float
    weighted_l1: float
    first_moment: float
    moment_ok: bool
    sup_value: float
    sup_chain_bound: float
    sup_ok: bool
    k_status: str
    passed: bool


@dataclass(frozen=True)
class Lemma2Report:
    """Contraction constants read off a Lemma-1 style integrability profile,
    with the profile's mean-zero flag; passed is pass_k1."""

    k1: float
    k2: float
    gamma: float
    pass_k1: bool
    pass_k2: bool
    k1_status: str
    k2_status: str
    mean_zero: bool
    passed: bool


@dataclass(frozen=True)
class Lemma1Profile:
    """Integrability profile of a mean-zero coefficient on a graded grid.

    C is the power-kernel convolution of a, C* its non-increasing right
    envelope and E(t) = ||C||_L2(t, inf).  lemma2's gate, step and budget
    read C, C*, mean_zero, the envelope and the c- and e-norms.  B* (the
    right envelope of B(t) = t^alpha ||a||_Linf(t, inf)), n_zeros and t0
    (a's one sign change, else nan) are kept for the acceptance gate on
    the mean-zero chain, their only reader.  Scalar norms close their
    tails with _power_tail, under a bound of C that fails when a's mean or
    first moment is nonzero (see lemma1_profile); a divergent tail is inf.
    Lemma 1's intermediate conditions only say that these norms are
    finite, which the gate already carries: an infinite ||C*||_L1 is an
    EnvelopeError, an infinite ||C||_inf fails k1, and k2 reports
    ||C||_L1 and ||E||_L1 as they are.
    """

    envelope: TailModel
    B_star: GridFunction
    C: GridFunction
    C_star: GridFunction
    c_l1: float
    c_l2: float
    c_sup: float
    c_star_l1: float
    e_l1: float
    mean_zero: bool
    n_zeros: int
    t0: float


# --------------------------------------------------------------------------
# split-time contraction (bounded solutions)
# --------------------------------------------------------------------------

def _split_refusal(T: float, t_max: float) -> ValueError | None:
    """The one refusal of a split time outside (0, t_max), or None."""
    return None if 0.0 < T < t_max else ValueError(
        f"split time T={T!r} must lie in (0, t_max={t_max!r})")


def _per_split(a: Coefficient, al: float, T, t_max: float, build):
    """The report for the split time T, or a list of reports and ValueErrors
    for a sequence T: build(splits, tail) reports the splits in (0, t_max),
    once the s^alpha |a| tail past t_max closes."""
    splits = list(T) if np.ndim(T) else [T]
    try:
        tail = _closed(envelope_tail_integral(a.envelope, al, t_max), a.envelope,
                       f"the weighted tail needs decay faster than t^-{1.0 + al!r}")
    except ValueError as e:
        tail = e
    out = [_split_refusal(t, t_max) or tail for t in splits]
    kept = [i for i, r in enumerate(out) if not isinstance(r, ValueError)]
    for i, r in zip(kept, build([splits[i] for i in kept], tail) if kept else ()):
        out[i] = r
    if not np.ndim(T) and isinstance(out[0], ValueError):
        raise out[0]
    return out if np.ndim(T) else out[0]


def thm1_constants(a: Coefficient, alpha: float, T, t_max: float = 100.0):
    """C0, C1 and the contraction constant k for the split time T.

    C(j) = integral_0^T s^j |a| ds + integral_T^inf s^(j+alpha) |a| ds,
    k = max(1, T^alpha) * C0 / Gamma(1+alpha).  The j=1 tail needs the
    stronger decay p > 2 + alpha; when only p > 1 + alpha holds, C1 is
    inf and tail_ok goes false.  Weaker decay makes C0 itself diverge,
    which is an EnvelopeError.  A sequence T gives a list (_per_split).
    """
    al = as_alpha(alpha)

    def build(splits, tail0):
        zs = _breakpoints(a, 0.0, t_max)
        afun = lambda s: np.abs(a(s))
        tail1 = envelope_tail_integral(a.envelope, 1.0 + al, t_max)
        tail_ok = math.isfinite(tail1)
        head = _moments(afun, [0.0, 1.0], 0.0, splits, zs).tolist()
        body = _moments(afun, [al, 1.0 + al], splits, t_max, zs).tolist()
        reports = []
        for T, h0, h1, b0, b1 in zip(splits, *head, *body):
            C0, C1 = h0 + b0 + tail0, h1 + b1 + tail1
            k = max(1.0, T ** al) * C0 / gamma(1.0 + al)
            status = _classify(k)
            reports.append(Thm1Report(alpha=al, T=T, horizon=t_max, C0=C0, C1=C1, k=k,
                                      tail_ok=tail_ok, k_status=status,
                                      passed=(status == "pass") and tail_ok))
        return reports

    return _per_split(a, al, T, t_max, build)


# --------------------------------------------------------------------------
# s^(-1-alpha)-weighted contraction (t^alpha-dominant solutions)
# --------------------------------------------------------------------------

def _origin_exponents(a: Coefficient, splits: np.ndarray) -> tuple[list, np.ndarray]:
    """Local power of |a| near 0, fitted log-log on a decade of probes below
    each split T, and |a(1e-5 T)|; one coefficient call for every split.

    The power is the least-squares slope from centred sums along each row:
    inf where |a| underflows at every probe, 0 where it does at some. The
    sums run left to right (np.add.accumulate), since numpy's sum along
    rows rounds differently with the number of rows, so a split's fit does
    not depend on the other splits.
    """
    probes = np.geomspace(1e-6 * splits, 1e-5 * splits, 12, axis=1)
    vals = np.abs(_call(a, np.concatenate([probes.ravel(), 1e-5 * splits])))
    v = vals[:probes.size].reshape(probes.shape)
    tiny = v < 1e-300
    row_sum = lambda z: np.add.accumulate(z, axis=1)[:, -1]
    x, y = np.log(probes), np.log(np.where(tiny, 1.0, v))
    x -= row_sum(x)[:, None] / x.shape[1]
    slope = row_sum(x * (y - row_sum(y)[:, None] / y.shape[1])) / row_sum(x * x)
    powers = np.where(tiny.all(axis=1), math.inf, np.where(tiny.any(axis=1), 0.0, slope))
    return powers.tolist(), vals[probes.size:]


def thm2_constants(a: Coefficient, alpha: float, T, t_max: float = 100.0):
    """k4 = max(1,T)/Gamma(1+alpha) * (int_0^T |a| s^(-1-alpha) + int_T^inf s^alpha |a|).

    The origin integral only converges when |a| vanishes at 0 faster than
    t^alpha; the fitted local exponent gates that and is reported.  tail_ok
    tracks the extra decay p > 2 + alpha the asymptotic expansion needs.
    A sequence T gives a list (_per_split).
    """
    al = as_alpha(alpha)

    def build(splits, tail0):
        qs, a_eps = _origin_exponents(a, np.asarray(splits, dtype=float))
        reports = [ValueError(f"|a(t)| ~ t^{q:.4f} near 0, so the s^-(1+alpha) weight "
                              f"diverges (needs local growth beyond t^{al!r})") for q in qs]
        fit = [i for i, q in enumerate(qs) if q > al]
        Ts = [splits[i] for i in fit]
        zs = _breakpoints(a, 0.0, t_max) if fit else ()
        afun = lambda s: np.abs(a(s))
        tail_ok = math.isfinite(envelope_tail_integral(a.envelope, 1.0 + al, t_max))
        # the weight s^(-1-alpha) sits below the Jacobi range, so the first
        # sliver closes under the fitted local power: |a| ~ |a(eps)| (s/eps)^q
        origin = _moments(afun, [-1.0 - al], [1e-5 * T for T in Ts], Ts, zs)[0].tolist()
        body = _moments(afun, [al], Ts, t_max, zs)[0].tolist()
        for i, T, o, b in zip(fit, Ts, origin, body):
            q, eps = qs[i], 1e-5 * T
            head = 0.0 if math.isinf(q) else float(a_eps[i]) * eps ** (-al) / (q - al)
            k4 = max(1.0, T) / gamma(1.0 + al) * ((head + o) + (b + tail0))
            status = _classify(k4)
            reports[i] = Thm2Report(alpha=al, T=T, horizon=t_max, k4=k4, origin_exponent=q,
                                    tail_ok=tail_ok, k_status=status,
                                    passed=(status == "pass") and tail_ok)
        return reports

    return _per_split(a, al, T, t_max, build)


# --------------------------------------------------------------------------
# weakly singular convolutions: chi's and F's rule
# --------------------------------------------------------------------------

# The convolution rule grades its panels geometrically, _PER_DECADE to a decade.
# The left half's Gauss-Jacobi head is [0, r^_HEAD_RUNG] = [0, 1e-7] and
# the right half's sliver is [0, r^-_SLIVER_RUNGS t/2], about [0, 5e-4 t].
_PER_DECADE = 6
_RATIO = 10.0 ** (1.0 / _PER_DECADE)
_HEAD_RUNG = -7 * _PER_DECADE
_SLIVER_RUNGS = 3 * _PER_DECADE
# the whole left panels below t/2 enter the convolution through the moments
# of their terms: (t-s)^e = t^e sum_k c_k (s/t)^k with every c_k in (0, 1]
# for e = alpha - 1, so for s <= t/2 the terms past _MOMENTS sum to less
# than 2^(1-_MOMENTS) < 3e-17 relative
_MOMENTS = 56


def _graded_edges(rungs: np.ndarray, g: np.ndarray, cuts: np.ndarray):
    """Panel edges of each row: 0, g_i, the rungs above g_i*sqrt(r), the cuts.

    rungs and cuts hold one row per integral, NaN where absent. The first
    panel [0, g_i] is left to a Gauss-Jacobi rule; the last rung kept is
    at least sqrt(r) g_i, so no sliver of a panel follows it.
    """
    rungs = np.where(rungs > g[:, None] * math.sqrt(_RATIO), rungs, np.nan)
    return _sorted_edges(np.column_stack([np.zeros_like(g), g, rungs, cuts]))


def _rung(x) -> int:
    """The exponent j of the rung r^j at or below x."""
    return math.floor(math.log(x) / math.log(_RATIO))


def _right_rule(ts: np.ndarray, cuts: np.ndarray, m: float, e: float):
    """The right half's panels of each t: their rows, y = t - s and the weights.

    The weights are those of y^e (t-y)^m dy. The rungs (t/2) r^-j run
    down to a Gauss-Jacobi sliver at y = 0, about [0, 5e-4 t], and the
    cuts (one row per t, NaN where absent) are inserted. A cut inside the
    sliver shrinks it to the cut, and the rungs follow it down, so the
    panels past the cut stay graded.
    """
    half = 0.5 * ts
    sliver = np.minimum(half * _RATIO ** -_SLIVER_RUNGS,
                        np.fmin.reduce(cuts, axis=1, initial=np.inf))
    depth = -_rung(float((sliver / half).min())) + 1
    edges, owner = _graded_edges(half[:, None] * _RATIO ** -np.arange(depth + 1.0),
                                 sliver, cuts)
    inner = owner[1:] == owner[:-1]
    rows = owner[1:][inner]
    y, w = _panel_nodes(edges[:-1][inner], edges[1:][inner], e)
    return rows, y, w * (ts[rows, None] - y) ** m


def _conv_function(afun, m: float, e: float, t_hi: float, zeros: np.ndarray):
    """t -> int_0^t afun(s) s^m (t-s)^e ds for 0 < t <= t_hi, with m, e > -1.

    afun may return k rows, one integrand each, one column per node; the
    convolution then returns k rows, one per integrand, on one rule and
    one coefficient call per node block.

    The integrand is afun(s) y^m (t-y)^e on the left half [0, t/2], where
    y = s, and afun(s) y^e (t-y)^m on the right half, where y = t - s, so
    both halves are integrals against a power of y from y = 0 to t/2
    (_panel_nodes), y^m on the left and y^e on the right.
    The left half runs on one panelization of [0, t_hi/2]: the rungs r^j
    down to 1e-7, cut at the zeros of a, with a Gauss-Jacobi head at 0.
    afun(s) is evaluated on its nodes here, once, and the _MOMENTS moments
    of each prefix of panels are summed. Each t takes the whole panels
    below t/2 through those moments, and one partial panel up to t/2 node
    by node. The right half runs on the rungs (t/2) r^-j with a
    Gauss-Jacobi sliver at y = 0 (_right_rule). That rule is built here
    once, at t/2 = 1: its nodes u and weights W(u) (2 - u)^m serve every t
    with no zero of a in (t/2, t), as the nodes t - (t/2) u and the weights
    (t/2)^(1+e+m) W(u) (2 - u)^m, one row of a (rows x nodes) block. A t
    with a zero z in (t/2, t) builds its own rule, cut at t - z. No
    Gauss-Jacobi panel grows with t, so a's own scale is resolved at every
    t. A row's value is its moment terms, its partial panel and its right
    half, each summed by np.sum along the row (np.bincount on a cut row's
    own nodes) and added in that order, so it does not depend on the other
    points of the batch, on the other rows or on t_hi.
    """
    n = _GL_NODES.size
    zeros = np.asarray(zeros, dtype=float)
    cut = zeros[(zeros > 0.0) & (zeros < 0.5 * t_hi)]
    g = min(_RATIO ** _HEAD_RUNG, cut.min(initial=np.inf))
    edges, _ = _graded_edges(_RATIO ** np.arange(_rung(g), _rung(0.5 * t_hi) + 2.0)[None, :],
                             np.array([g]), cut[None, :])
    s, w = _panel_nodes(edges[:-1], edges[1:], m)
    values = _call(afun, s.ravel())
    lead = values.shape[:-1]  # (k,) for k integrands, () for one
    wf = w * values.reshape(lead + s.shape)

    # moments[..., q, k]: the sum of wf (s/E_q)^k over the first q panels,
    # E_q the top of panel q-1; no term exceeds wf, so none overflows.
    # Summed panel by panel and node by node, so a panel's sums do not
    # depend on how many panels there are.
    powers = np.arange(_MOMENTS)
    c = np.cumprod(np.concatenate([[1.0], (powers[:-1] - e) / (powers[:-1] + 1.0)]))
    ratio = s / edges[1:, None]
    panels = 0.0
    for j in range(n):
        panels = panels + wf[..., j, None] * ratio[:, j, None] ** powers
    moments = np.zeros(lead + (edges.size, _MOMENTS))
    for q in range(1, edges.size):
        moments[..., q, :] = (moments[..., q - 1, :] * (edges[q - 1] / edges[q]) ** powers
                              + panels[..., q - 1, :])

    # the right half's rule at t/2 = 1
    _, u, wu = _right_rule(np.array([2.0]), np.empty((1, 0)), m, e)
    u, wu = u.ravel(), wu.ravel()

    def chunk_values(ts: np.ndarray) -> np.ndarray:
        half = 0.5 * ts
        # the whole left panels below t/2 by their moments ...
        k = np.searchsorted(edges, half, side="right") - 1
        whole = (ts ** e)[:, None] * c * moments[..., k, :] * (edges[k] / ts)[:, None] ** powers
        # ... the partial panel up to t/2 ...
        y, w = _panel_nodes(edges[k], half, m)
        w *= (ts[:, None] - y) ** e
        # ... and the right half: the rule at t/2 = 1 scaled, or a row's own
        # rule where a zero z of a in (t/2, t) cuts it at t - z
        z = zeros[None, :]
        cuts = np.where((z > half[:, None]) & (z < ts[:, None]), ts[:, None] - z, np.nan)
        own = ~np.isnan(cuts).all(axis=1)
        scaled = np.flatnonzero(~own)
        nodes = [y.ravel(), (ts[scaled, None] - half[scaled, None] * u).ravel()]
        if own.any():
            rows, y_own, w_own = _right_rule(ts[own], cuts[own], m, e)
            nodes.append((ts[own][rows, None] - y_own).ravel())
        values = _call(afun, np.concatenate(nodes))
        left, right = y.size, y.size + scaled.size * u.size
        out = (whole.sum(axis=-1)
               + (values[..., :left].reshape(lead + y.shape) * w).sum(axis=-1))
        out[..., scaled] += ((values[..., left:right].reshape(lead + (scaled.size, u.size)) * wu)
                             .sum(axis=-1) * half[scaled] ** (1.0 + e + m))
        if own.any():
            index = np.repeat(rows, n)
            out[..., own] += np.reshape(
                [np.bincount(index, weights=w_own.ravel() * row)
                 for row in values[..., right:].reshape(-1, index.size)],
                lead + (-1,))
        return out

    def conv(ts: np.ndarray) -> np.ndarray:
        # numpy's pow can round a strided input differently from a contiguous one
        ts = np.ascontiguousarray(ts, dtype=float)
        return np.concatenate([chunk_values(ts[i:i + _CHUNK]) for i in range(0, ts.size, _CHUNK)],
                              axis=-1)

    return conv


# --------------------------------------------------------------------------
# linear-growth contraction: chi and k3
# --------------------------------------------------------------------------

def _chi_function(afun, alpha: float, t_hi: float, zeros: np.ndarray):
    """t -> t^(1-alpha) * int_0^t afun(s) s^(alpha-1) (t-s)^(alpha-1) ds, 0 < t <= t_hi."""
    conv = _conv_function(afun, alpha - 1.0, alpha - 1.0, t_hi, zeros)

    def chi(ts: np.ndarray) -> np.ndarray:
        ts = np.ascontiguousarray(ts, dtype=float)
        return ts ** (1.0 - alpha) * conv(ts)

    return chi


def thm3_constants(a: Coefficient, alpha: float,
                   t_max: float = 100.0) -> Thm3Report:
    """chi, k3 and the moment/sup hypotheses for linearly growing solutions.

    k3 = (integral_0^inf |a| s^(alpha-1) ds + chi) / Gamma(alpha) with
    chi = sup_t t^(1-alpha) integral_0^t |a| s^(alpha-1) (t-s)^(alpha-1) ds.
    The s-weighted sup hypothesis equals chi of the pushed coefficient
    t^(2-alpha) a(t); sup_ok holds only when the envelope chain bound is
    finite. The scanned sup_value is reported and certifies nothing.
    chi and sup_value share one rule, one scan and one refinement: the
    integrand evaluates a once per node and returns both rows.
    """
    al = as_alpha(alpha)
    env = a.envelope
    weighted_tail = _closed(envelope_tail_integral(env, al - 1.0, t_max), env,
                            f"the s^(alpha-1) tail needs decay faster than t^-{al!r}")
    zs = _breakpoints(a, 0.0, t_max)
    afun = lambda s: np.abs(a(s))

    # the s-weighted sup hypothesis is chi of the pushed coefficient
    # t^(2-alpha) a(t); its certificate is the L_inf/L1/amplitude chain,
    # which needs the rule to close the s^(2-alpha) |a| tail: envelope
    # decay beyond t^-(3-alpha), or a zero envelope. The 513-point scan of
    # the pushed coefficient runs only for a chain that closes
    pushed_abs = lambda s: np.abs(s ** (2.0 - al) * a(s))

    def both(s: np.ndarray) -> np.ndarray:
        a_s = a(s)
        return np.stack([np.abs(a_s), np.abs(s ** (2.0 - al) * a_s)])

    (chi, chi_arg), (sup_value, _) = _sup_scan(_chi_function(both, al, t_max, zs),
                                               _SCAN_FLOOR, t_max)
    l1, m1 = _moments(afun, [al - 1.0, 1.0], 0.0, t_max, zs)[:, 0].tolist()
    weighted_l1 = l1 + weighted_tail
    k3 = (weighted_l1 + chi) / gamma(al)

    first_moment = m1 + envelope_tail_integral(env, 1.0, t_max)
    moment_ok = math.isfinite(first_moment)

    sup_chain = envelope_tail_integral(env, 2.0 - al, t_max)
    if math.isfinite(sup_chain):
        chain_amp = env.amplitude * max(1.0, env.valid_from) ** (2.0 - env.exponent)
        sup_chain = (_sup_scan(pushed_abs, _SCAN_FLOOR, 1.0)[0] / al
                     + _weighted_moment(pushed_abs, 0.0, 1.0, t_max, zs)
                     + sup_chain
                     + chain_amp * 2.0 ** (1.0 - al) / al)
    sup_ok = math.isfinite(sup_chain)

    status = _classify(k3)
    return Thm3Report(
        alpha=al, horizon=t_max, chi=chi, chi_argmax=chi_arg, k3=k3,
        weighted_l1=weighted_l1, first_moment=first_moment,
        moment_ok=moment_ok, sup_value=sup_value, sup_chain_bound=sup_chain,
        sup_ok=sup_ok, k_status=status,
        passed=(status == "pass"),
    )


# --------------------------------------------------------------------------
# integrability profile (mean-zero coefficients)
# --------------------------------------------------------------------------

def _running_max_from_right(values: np.ndarray, floor: float) -> np.ndarray:
    out = np.maximum(values, floor)
    return np.maximum.accumulate(out[::-1])[::-1]


@np.errstate(over="ignore")  # a norm past the float range reads inf: the gate refuses it
def lemma1_profile(a: Coefficient, alpha: float,
                   grid: GradedGrid | None = None) -> Lemma1Profile:
    """The Lemma1Profile of a on grid, with one kernel call (C).

    B(t) = t^alpha ||a||_Linf(t, inf), C(t) = int_0^t a(s)(t-s)^(alpha-1) ds,
    starred versions are sup_{s>=t}, E(t) = ||C||_L2(t, inf), which
    enters only as ||C||_L2 = E(0) and ||E||_L1.  Past the
    horizon the tails take |C| <= K t^(alpha-p), K = A 2^(p-alpha)
    (1/alpha + 2/(p-2)) for p > 2 and inf otherwise (0 when A = 0); an
    infinite K makes C's sup and C* inf as well.  That is no bound when
    a's mean m0 or first moment m1 is nonzero, for then
    C(t) ~ m0 t^(alpha-1) + (1-alpha) m1 t^(alpha-2).
    """
    al = as_alpha(alpha)
    env = a.envelope
    if grid is None:
        grid = make_graded_grid()
    t = grid.nodes
    p = env.exponent
    A = env.amplitude
    q = p - al  # past the horizon B <= A s^-q, and C is taken as <= K s^-q
    t_max = grid.t_max
    zs = _breakpoints(a, 0.0, t_max)
    # a is sampled on the grid once, for B* and C
    fa = GridFunction.from_callable(grid, a)

    # B* from the right-running sup of |a| with the envelope floor at the
    # horizon; B vanishes at t = 0
    run_sup = _running_max_from_right(np.abs(fa.values), A * t_max ** (-p))
    b_point = t ** al * run_sup
    b_point[0] = 0.0
    B_star = GridFunction(grid, _running_max_from_right(b_point, A * t_max ** (al - p)))

    # C via the product-integration convolution; past the horizon
    # |C|, and so C*, take K s^-q.  K's 2/(p-2) term is the envelope's
    # first moment, which for p <= 2 is inf, or 0 for a zero envelope
    C = convolve(fa, al - 1.0)
    K = (A * 2.0 ** (p - al) * (1.0 / al + 2.0 / (p - 2.0)) if p > 2.0
         else _power_tail(A, p - 1.0, 1.0))
    c_point = np.abs(C.pointwise_values())
    c_tail_sup = K * t_max ** (-q)
    cstar_vals = _running_max_from_right(c_point, c_tail_sup)

    # E(t) = sqrt(integral_t^inf C^2); past the horizon E(t)^2 is at most
    # the C^2 tail, so E(t) <= sqrt(K^2/(2q-1)) t^(1/2-q)
    E = np.sqrt(_right_cumtrapz(t, c_point ** 2) + _power_tail(K * K, 2.0 * q, t_max))
    e_amp = math.sqrt(_power_tail(K * K, 2.0 * q, 1.0))

    # scalar norms; an infinite tail propagates by itself
    c_l1_tail = _power_tail(K, q, t_max)
    c_l1 = float(np.trapezoid(c_point, t)) + c_l1_tail
    c_l2 = float(E[0])
    c_sup = float(max(c_point.max(), c_tail_sup))
    c_star_l1 = float(np.trapezoid(cstar_vals, t)) + c_l1_tail
    e_l1 = float(np.trapezoid(E, t)) + _power_tail(e_amp, q - 0.5, t_max)

    # mean-zero check: integral of the signed coefficient + tail bound,
    # against the mass of |a|; both rows on one rule, a evaluated once
    def signed_and_abs(s: np.ndarray) -> np.ndarray:
        a_s = np.asarray(a(s), dtype=float)
        return np.stack([a_s, np.abs(a_s)])

    mean_value, abs_mass = _moments(signed_and_abs, [0.0], 0.0, t_max, zs)[:, 0, 0].tolist()
    mean_tail = envelope_tail_integral(env, 0.0, t_max)
    mean_zero = (math.isfinite(mean_tail)
                 and abs(mean_value) <= 1e-6 * (1.0 + abs_mass) + mean_tail)

    sign_changes = a.zeros(0.0, t_max)
    n_zeros = len(sign_changes)
    t0 = sign_changes[0] if n_zeros == 1 else math.nan

    return Lemma1Profile(
        envelope=env, B_star=B_star, C=C, C_star=GridFunction(grid, cstar_vals),
        c_l1=c_l1, c_l2=c_l2, c_sup=c_sup, c_star_l1=c_star_l1, e_l1=e_l1,
        mean_zero=mean_zero, n_zeros=n_zeros, t0=t0,
    )


def lemma2_constants(profile: Lemma1Profile) -> Lemma2Report:
    """k1, k2 and the comparison scale gamma from an integrability profile.

    k1 = ||C||_inf + 2 ||C*||_L1, k2 = max(||C||_inf + ||C||_L2,
    ||C||_L1 + ||E||_L1), gamma = 2 / (1 - 2 ||C*||_L1).  gamma is only
    meaningful below the 2||C*||_L1 < 1 threshold; past it the comparison
    argument has no scale and this raises instead of reporting a negative.
    An infinite ||C*||_L1 is the envelope's open tail: an EnvelopeError.
    """
    m = _closed(profile.c_star_l1, profile.envelope,
                "||C*||_L1 needs decay faster than t^-2")
    if 2.0 * m >= 1.0:
        raise ValueError(
            f"2*||C*||_L1 = {2.0 * m!r} >= 1: the comparison scale "
            "gamma = 2/(1 - 2||C*||_L1) is undefined"
        )
    k1 = profile.c_sup + 2.0 * m
    k2 = max(profile.c_sup + profile.c_l2, profile.c_l1 + profile.e_l1)
    gam = 2.0 / (1.0 - 2.0 * m)
    s1, s2 = _classify(k1), _classify(k2)
    return Lemma2Report(
        k1=k1, k2=k2, gamma=gam,
        pass_k1=(s1 == "pass"), pass_k2=(s2 == "pass"),
        k1_status=s1, k2_status=s2,
        mean_zero=bool(profile.mean_zero), passed=(s1 == "pass"),
    )


# --------------------------------------------------------------------------
# divergence demonstration: the F integral has no L1 bound
# --------------------------------------------------------------------------

def f_l1_divergence(a: Coefficient, alpha: float, T: float,
                    t_samples) -> list[dict]:
    """Running integral of F(2s) past T, against its closed-form lower bound.

    F(tau) = integral_0^tau |a(u)| (tau-u)^(alpha-1) du runs on chi's rule
    (_conv_function with m = 0), built once up to tau = 2 max(t_samples).
    Rows carry (t, integral_T^t F(2s) ds, lower_bound) where the bound is
    [(2t - T/2)^alpha - (3T/2)^alpha] / (2 alpha) * integral_{T/2}^{2T} |a|.
    The growth of the bound in t shows F cannot be integrable whenever the
    coefficient has mass on [T/2, 2T].
    """
    al = as_alpha(alpha)
    ts = sorted(float(t) for t in t_samples)
    if not ts or ts[0] < T:
        raise ValueError("samples must be >= the anchor time T")
    zs = _breakpoints(a, 0.0, 2.0 * max(ts))
    afun = lambda u: np.abs(a(u))
    window_mass = _weighted_moment(afun, 0.0, 0.5 * T, 2.0 * T, zs)
    if window_mass <= 0.0:
        probe = np.geomspace(1e-9, 2.0 * max(ts), 512)
        if float(np.max(np.abs(a(probe)))) == 0.0:
            # identically zero coefficient: the running integral and the
            # bound are both exactly zero at every sample
            return [{"t": t, "integral": 0.0, "lower_bound": 0.0} for t in ts]
        raise ValueError(
            f"coefficient carries no mass on [{0.5 * T!r}, {2.0 * T!r}]; "
            "the divergence bound is vacuous there"
        )

    # F(2s) has a kink at s = z/2 for each breakpoint z of a, so the
    # outer panels are cut there
    F = _conv_function(afun, 0.0, al - 1.0, 2.0 * max(ts), zs)
    f2 = lambda s: F(2.0 * s)

    rows = []
    running = 0.0
    for t, piece in zip(ts, _moments(f2, [0.0], [T] + ts[:-1], ts, 0.5 * zs)[0].tolist()):
        running += piece
        bound = ((2.0 * t - 0.5 * T) ** al - (1.5 * T) ** al) / (2.0 * al) \
            * window_mass
        rows.append({"t": t, "integral": running, "lower_bound": bound})
    return rows
