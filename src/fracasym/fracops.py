"""Fractional integrals, derivatives, and the three operator factorizations.

All weakly singular integrals reduce to one primitive: product integration
of a piecewise-linear interpolant f_h against the kernel (c*t_n - s)^beta
with beta > -1 and c >= 1, row n = 0..N. It runs as a treecode
(_prodint_linear). Panels and rows are grouped in dyadic index boxes of
16 * 2^level panels; a row's target box at a level holds the rows that
end in its panels.

- Near field: each row integrates the panels of its own leaf box and of
  the two leaf boxes before it exactly, one panel at a time, as
  m0 (f_mid + slope D_m) - slope dQ/(beta+2) with D = c*t_n - s and D_m
  its midpoint value. The panel differences m0 (of D^(beta+1)/(beta+1))
  and dQ (of D^(beta+2)) are formed as D0^p * -expm1(p*log1p(-h/D0))
  from the node differences h, so no difference of nearly equal powers
  is taken. There is no boundary term: f_0 never meets the slopes, and
  no term grows like 1/(beta+1) where the kernel is smooth.
- Far field: every other panel lies in a source box at least two boxes
  before the row's target box. The kernel is expanded in a binomial
  series about the two box centres, admitted when (R + r)/(X - c) <= 0.45
  (half-widths R, r, centres X in c*t and c in t). Exact moments of f_h
  are formed at the leaves and shifted up the tree (M2M); each admitted
  pair adds to the target box's local expansion (M2L), which is shifted
  down (L2L), so each row evaluates one polynomial. Pairs that are not
  admitted split into their children, down to the near field, so the
  rule holds on any mesh; on grading-2 meshes every pair has ratio
  <= 1/3, on grading 3 at most 0.42, for both kernel origins.
- Truncation: the order K is the fewest terms whose dropped tail
  sum_(q>=K) |binom(beta, q)| rho^q, at the largest admitted ratio rho,
  stays below 1e-15 of the smallest kernel value on the pair, and so of
  the block's integral of |K| |f_h| (K = 30 at rho = 1/3, beta = -1/2).
  The moments and shifts sum terms bounded by the block's integral of
  |f_h|, so a row is accurate to a few ulps of max_n int |K| |f_h|.
- Cost: O(N K^2/16 + 48 N) work and O(N) transient memory (1.6 MiB at
  N = 8192). Python loops run over tree levels, expansion orders and the
  panels of a leaf, never over rows.

Power heads c * t^e of the integrand are never interpolated; they are
integrated analytically through the beta function and only the remainder
(which vanishes at the origin) goes through the panel quadrature. On a
grading-2 mesh this keeps the quadrature error of t^alpha-type cusps
essentially flat in t, which is what makes the double-differentiation in
apply_operator stable.

Derivatives are taken after integration, never before: the composite
operators are evaluated as

    case 1:  O1 x = d/dt D^alpha (x - x(0))      (x - x(0) kills the
              Caputo correction term, so no raw numerical derivative of
              x is ever fed into a singular convolution)
    case 2:  O2 x = d/dt D^alpha x
    case 3:  O3 x = d/dt D^alpha (t x) - 2 D^alpha x

using D^alpha f = d/dt I^(1-alpha) f and the identity
t x' - x = (t x)' - 2 x.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coeffexpr import Coefficient
from .meshfun import GradedGrid, GridFunction, TailModel, ZERO_TAIL
from .specialfn import beta as beta_fn
from .specialfn import gamma

__all__ = [
    "Alpha",
    "as_alpha",
    "OPERATOR_CASES",
    "frac_integral",
    "peeled_integral",
    "rl_derivative",
    "conv_C",
    "apply_operator",
    "grid_gradient",
    "trusted_slice",
]

OPERATOR_CASES = (1, 2, 3)


@dataclass(frozen=True)
class Alpha:
    """Fractional order; the numerics are calibrated for [0.05, 0.95]."""

    value: float

    def __post_init__(self) -> None:
        if not 0.05 <= self.value <= 0.95:
            raise ValueError(
                f"order {self.value!r} outside the supported range [0.05, 0.95]"
            )


def as_alpha(a: "Alpha | float") -> float:
    if isinstance(a, Alpha):
        return a.value
    return Alpha(float(a)).value


def _check_case(case: int) -> int:
    if case not in OPERATOR_CASES:
        raise ValueError(f"operator case must be one of {OPERATOR_CASES}, got {case!r}")
    return case


# --------------------------------------------------------------------------
# the product-integration kernel: a treecode over dyadic panel boxes
# --------------------------------------------------------------------------

_LEAF = 16           # panels per leaf box; the rows ending in them form its target box
_GAP = 2             # boxes kept between a target box and any box it expands
_TOP = 32            # at most this many boxes on the coarsest level
_RHO = 0.45          # largest admitted (R + r) / (X - c); wider pairs split
_TRUNCATION = 1e-15  # expansion tail bound, relative to the block's int |K| |f_h|
_KMAX = 80           # expansion orders never exceed this
_FACTORIAL = np.cumprod(np.r_[1.0, np.arange(1.0, 2 * _KMAX)])
_PASCAL = _FACTORIAL[np.add.outer(np.arange(_KMAX), np.arange(_KMAX))] / np.multiply.outer(
    _FACTORIAL[:_KMAX], _FACTORIAL[:_KMAX])


def _binomials(beta: float, k: int) -> np.ndarray:
    """binom(beta, q) for q = 0..k-1."""
    ratios = np.ones(k)
    ratios[1:] = (beta - np.arange(k - 1)) / np.arange(1, k)
    return np.cumprod(ratios)


def _expansion_order(beta: float, rho: float) -> int:
    """Fewest terms K whose dropped tail sum_(q>=K) |binom(beta, q)| rho^q
    stays below _TRUNCATION of the smallest kernel value on the pair,
    (1 -+ rho)^beta in units of (X - c)^beta."""
    tail = np.cumsum((np.abs(_binomials(beta, _KMAX)) * rho ** np.arange(_KMAX))[::-1])[::-1]
    floor = min((1.0 - rho) ** beta, (1.0 + rho) ** beta)
    fits = np.flatnonzero(tail <= _TRUNCATION * floor)
    return max(int(fits[0]), 1) if fits.size else _KMAX


def _powers(z: np.ndarray, k: int) -> np.ndarray:
    """(k, len(z)) table of z**q, q = 0..k-1, by running products."""
    p = np.empty((k, z.size))
    p[0] = 1.0
    for q in range(1, k):
        np.multiply(p[q - 1], z, out=p[q])
    return p


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, 0 where den = 0 (a target box of a single row)."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _shift_moments(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Moments about a parent centre (M2M), one column per child box.

    With u_parent = a + b u_child, out_q = sum_k binom(q, k) a^(q-k) b^k m_k,
    summed as q! sum_j (a^j / j!) (b^(q-j) m_(q-j) / (q-j)!). |a| + |b| <= 1,
    so no term exceeds the child's int |f_h|.
    """
    k = m.shape[0]
    inv = 1.0 / _FACTORIAL[:k, None]
    w = m * _powers(b, k) * inv
    e = _powers(a, k) * inv
    out = e * w[0]
    for j in range(1, k):
        out[j:] += e[: k - j] * w[j]
    out *= _FACTORIAL[:k, None]
    return out


def _shift_locals(loc: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Local coefficients about a child centre (L2L), one column per child.

    With v_parent = a + b v_child, out_k = sum_p binom(p, k) a^(p-k) b^k L_p.
    """
    k = loc.shape[0]
    inv = 1.0 / _FACTORIAL[:k, None]
    g = loc * _FACTORIAL[:k, None]
    e = _powers(a, k) * inv
    out = g * e[0]
    for j in range(1, k):
        out[: k - j] += e[j] * g[j:]
    out *= _powers(b, k) * inv
    return out


@dataclass(frozen=True)
class _Level:
    """The boxes of one tree level: box k holds panels [k M, (k+1) M) (source
    centre c, half-width r) and rows k M + 1 .. (k+1) M (target centre X,
    half-width R in x = kernel_origin * t), M = _LEAF * 2^level."""

    c: np.ndarray
    r: np.ndarray
    X: np.ndarray
    R: np.ndarray

    @classmethod
    def of(cls, t: np.ndarray, x: np.ndarray, size: int) -> "_Level":
        n = t.shape[0] - 1
        lo = np.arange(0, n, size)
        hi = np.minimum(lo + size, n)
        return cls(0.5 * (t[lo] + t[hi]), 0.5 * (t[hi] - t[lo]),
                   0.5 * (x[lo + 1] + x[hi]), 0.5 * (x[hi] - x[lo + 1]))


def _levels(t: np.ndarray, x: np.ndarray) -> list[_Level]:
    """Leaf boxes of _LEAF panels, doubled until at most _TOP boxes remain."""
    levels = [_Level.of(t, x, _LEAF)]
    while levels[-1].c.size > _TOP:
        levels.append(_Level.of(t, x, _LEAF << len(levels)))
    return levels


def _index_pairs(nb: int, top: bool) -> tuple[np.ndarray, np.ndarray]:
    """(target, source) boxes with at least _GAP boxes between them; below
    the top level only those whose parents are closer than that."""
    if top:
        return np.tril_indices(nb, -_GAP - 1)
    k = np.arange(nb)
    ks, js = [], []
    for d in range(_GAP + 1, 2 * _GAP + 2):
        j = k - d
        keep = (j >= 0) & (j // 2 >= k // 2 - _GAP)
        ks.append(k[keep])
        js.append(j[keep])
    return np.concatenate(ks), np.concatenate(js)


def _interactions(levels: list[_Level]):
    """Admitted far pairs per level, their largest ratio, and the leaf pairs
    that no level admits.

    A pair is admitted when (R + r) / (X - c) <= _RHO; one that is not
    passes its four child pairs down a level, and at the leaves it joins
    the near field. On graded meshes t_max (j/N)^g with g <= 3 every index
    pair is admitted (the ratio is at most 1/3 for g <= 2, 0.42 for g = 3).
    """
    lists = [None] * len(levels)
    k = j = np.empty(0, dtype=np.intp)
    rho = 0.0
    for lev in range(len(levels) - 1, -1, -1):
        box = levels[lev]
        ki, ji = _index_pairs(box.c.size, lev == len(levels) - 1)
        k, j = np.concatenate([ki, k]), np.concatenate([ji, j])
        ratio = (box.R[k] + box.r[j]) / (box.X[k] - box.c[j])
        ok = ratio <= _RHO
        if ok.any():
            rho = max(rho, float(ratio[ok].max()))
        lists[lev] = (k[ok], j[ok])
        k, j = k[~ok], j[~ok]
        if lev:
            nb = levels[lev - 1].c.size
            k = (2 * k[:, None] + [0, 0, 1, 1]).ravel()
            j = (2 * j[:, None] + [0, 1, 0, 1]).ravel()
            keep = (k < nb) & (j < nb)
            k, j = k[keep], j[keep]
    return lists, rho, (k, j)


def _leaf_moments(t: np.ndarray, f: np.ndarray, leaf: _Level, k: int) -> np.ndarray:
    """m_q = int ((s - c)/r)^q f_h(s) ds over each leaf, q < k, as (k, leaves).

    On a panel with ends u_a, u_b (leaf units) and values f_a, f_b,
    int u^q f_h ds = h (f_a A_q + f_b B_q) / ((q+1)(q+2)) with
    A_q = sum_i (q-i+1) u_a^(q-i) u_b^i and B_q = sum_i (i+1) u_a^(q-i) u_b^i:
    weights of one sign, no difference of powers.
    """
    n = t.shape[0] - 1
    nb = leaf.c.size
    pad = nb * _LEAF
    box = np.arange(n) // _LEAF
    ua, ub, fa, fb = np.zeros((4, pad))
    ua[:n] = (t[:-1] - leaf.c[box]) / leaf.r[box]
    ub[:n] = (t[1:] - leaf.c[box]) / leaf.r[box]
    h = np.diff(t)
    fa[:n] = f[:-1] * h
    fb[:n] = f[1:] * h
    A, B, pa, pb = np.ones((4, pad))
    tmp = np.empty(pad)
    acc = np.empty(pad)
    m = np.empty((k, nb))
    for q in range(k):
        if q:
            pa *= ua
            pb *= ub
            A *= ub
            A += np.multiply(pa, q + 1, out=tmp)
            B *= ua
            B += np.multiply(pb, q + 1, out=tmp)
        np.multiply(fa, A, out=acc)
        acc += np.multiply(fb, B, out=tmp)
        np.sum(acc.reshape(nb, _LEAF), axis=1, out=m[q])
    m /= (np.arange(1.0, k + 1) * np.arange(2.0, k + 2))[:, None]
    return m


def _far_field(t, x, f, beta, levels, lists, k) -> np.ndarray:
    """Rows 1..N of the admitted far pairs: moments up the tree (M2M), one
    local expansion per target box (M2L), shifted down (L2L) and summed
    at the rows as one polynomial of degree k - 1."""
    moments = [_leaf_moments(t, f, levels[0], k)]
    for child, parent in zip(levels, levels[1:]):
        up = np.arange(child.c.size) // 2
        s = _shift_moments(moments[-1], (child.c - parent.c[up]) / parent.r[up],
                           child.r / parent.r[up])
        if s.shape[1] % 2:
            s = np.concatenate([s, np.zeros((k, 1))], axis=1)
        moments.append(s[:, ::2] + s[:, 1::2])
    # (X + R v - s)^beta = sum_(p,q) C_pq Delta^beta (R v/Delta)^p (-r u/Delta)^q,
    # Delta = X - c, C_pq = binom(p+q, p) binom(beta, p+q); kept for p + q < k
    pq = np.add.outer(np.arange(k), np.arange(k))
    C = _PASCAL[:k, :k] * _binomials(beta, 2 * k)[pq]
    C[pq >= k] = 0.0
    loc = np.zeros((k, levels[-1].c.size))
    for lev in range(len(levels) - 1, -1, -1):
        box = levels[lev]
        if lev < len(levels) - 1:
            parent = levels[lev + 1]
            up = np.arange(box.c.size) // 2
            loc = _shift_locals(loc[:, up], _divide(box.X - parent.X[up], parent.R[up]),
                                _divide(box.R, parent.R[up]))
        tk, sj = lists[lev]
        if tk.size:
            delta = box.X[tk] - box.c[sj]
            z = C @ (moments[lev][:, sj] * _powers(-box.r[sj] / delta, k))
            z *= _powers(box.R[tk] / delta, k)
            z *= delta**beta
            order = np.argsort(tk, kind="stable")
            tk = tk[order]
            first = np.flatnonzero(np.r_[True, tk[1:] != tk[:-1]])
            loc[:, tk[first]] += np.add.reduceat(z[:, order], first, axis=1)
        moments[lev] = None
    leaf = levels[0]
    n = t.shape[0] - 1
    rows = np.minimum(np.arange(1, leaf.c.size * _LEAF + 1), n).reshape(-1, _LEAF)
    v = _divide(x[rows] - leaf.X[:, None], np.repeat(leaf.R[:, None], _LEAF, axis=1))
    acc = np.repeat(loc[k - 1][:, None], _LEAF, axis=1)
    for p in range(k - 2, -1, -1):
        acc *= v
        acc += loc[p][:, None]
    return acc.ravel()[:n]


def _near_field(t, x, f, beta, T, S, own) -> np.ndarray:
    """Rows of the leaf boxes T over panels of the leaf boxes S, exactly:
    all of box S < T, or with own (S = T) the panels before each row.

    Panel j of row n, with D = x_n - s from D0 = x_n - t_j down to
    D0 - h_j and midpoint distance D_m = D0 - h_j/2, integrates to
    m0 (f_mid + slope D_m) - slope dQ/(b+2): m0 = int D^b ds and
    dQ = D0^(b+2) - (D0 - h)^(b+2), each formed as
    D0^p * -expm1(p log1p(-h/D0)) from the node difference h. No term
    carries 1/(b+1) beyond the panel's own int D^b, and there is no
    boundary term, so f_0 never meets the slopes.
    """
    bp1 = beta + 1.0
    bp2 = beta + 2.0
    n = t.shape[0] - 1
    h = np.diff(t)
    slope = np.diff(f) / h
    # f_mid + slope D_m = f_j + slope D0, scaled by -1/(b+1)
    line_at = -f[:-1] / bp1
    line_slope = -slope / bp1
    slope /= bp2
    rows = T[:, None] * _LEAF + np.arange(1, _LEAF + 1)
    live = rows <= n
    rows = np.minimum(rows, n)
    xr = x[rows]
    a = S * _LEAF
    acc = np.zeros(rows.shape)
    with np.errstate(divide="ignore"):  # log1p(-1) on the panel ending at t_n
        for i in range(_LEAF):
            # with own, panel a + i lies before the rows of column i and up
            cols = slice(i if own else 0, None)
            j = np.minimum(a + i, n - 1)[:, None]
            d0 = xr[:, cols] - t[j]
            ratio = np.log1p(np.divide(-h[j], d0))  # log((D0 - h)/D0)
            m0 = np.expm1(bp1 * ratio)  # -(b+1) m0 / D0^(b+1)
            dq = np.expm1(np.multiply(bp2, ratio, out=ratio), out=ratio)
            dq *= d0
            dq *= slope[j]  # -slope dQ/(b+2) / D0^(b+1)
            m0 *= line_slope[j] * d0 + line_at[j]
            m0 += dq
            m0 *= d0**bp1
            acc[:, cols] += m0
    return np.bincount(rows[live], weights=acc[live], minlength=n + 1)


def _prodint_linear(
    t: np.ndarray,
    f: np.ndarray,
    beta: float,
    kernel_origin: float = 1.0,
) -> np.ndarray:
    """out[n] = integral over [t_0, t_n] of (kernel_origin*t_n - s)^beta f_h(s) ds.

    f_h is the piecewise-linear interpolant of f on the nodes t (t_0 = 0 on
    every grid here). kernel_origin >= 1; above 1 the kernel singularity
    lies outside the domain (kernels like (2t - s)^beta). The tree reads
    its geometry from t, so every mesh and both origins take one path.

    Treecode (see the module docstring): the near field (_near_field) is
    exact; the far field (_far_field) is a binomial expansion about box
    centres admitted at (R + r)/(X - c) <= _RHO, truncated at the order
    that keeps the dropped tail below _TRUNCATION of each block's
    int |K| |f_h|. The rule is exact whenever f is piecewise linear, up to
    that tail and rounding. Work O(N), transient memory O(N).
    """
    if not beta > -1.0:
        raise ValueError(f"kernel exponent must exceed -1, got {beta!r}")
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    n = t.shape[0] - 1
    out = np.zeros(n + 1)
    if n == 0:
        return out
    x = kernel_origin * t
    levels = _levels(t, x)
    lists, rho, (ek, ej) = _interactions(levels)
    if rho > 0.0:
        out[1:] = _far_field(t, x, f, beta, levels, lists, _expansion_order(beta, rho))
    # the rows' own leaf, then the _GAP leaves before it and the leaf pairs
    # no level admitted
    k = np.arange(levels[0].c.size)
    out += _near_field(t, x, f, beta, k, k, own=True)
    T = np.concatenate([k[d:] for d in range(1, _GAP + 1)] + [ek])
    if T.size:
        S = np.concatenate([k[:-d] for d in range(1, _GAP + 1)] + [ej])
        out += _near_field(t, x, f, beta, T, S, own=False)
    return out


def _conv_power_kernel(
    f: GridFunction, beta: float, kernel_origin: float = 1.0
) -> tuple[np.ndarray, float, float]:
    """Head-peeled evaluation of int_0^t (o*t - s)^beta f(s) ds at the nodes.

    Returns (values, head_exponent_out, head_coefficient_out) where the
    analytic image of the head c*t^e is head_coefficient * t^(e + beta + 1).
    Only kernel_origin = 1 admits the closed-form head; a shifted kernel is
    smooth on the domain, so a continuous head is folded into the values
    and only a genuinely singular head is refused.
    """
    t = f.grid.nodes
    c = f.head_coefficient
    e = f.head_exponent
    if kernel_origin != 1.0 and c != 0.0:
        if e < 0.0:
            raise ValueError("shifted kernels cannot take singular integrands")
        plain = f.values.copy()
        plain[0] = c if e == 0.0 else 0.0
        return _prodint_linear(t, plain, beta, kernel_origin=kernel_origin), 0.0, 0.0
    r = f.regular_part()
    quad = _prodint_linear(t, r, beta, kernel_origin=kernel_origin)
    if c == 0.0:
        return quad, 0.0, 0.0
    # int_0^t s^e (t-s)^beta ds = B(1+e, 1+beta) t^(1+e+beta)
    coef = c * beta_fn(1.0 + e, 1.0 + beta)
    e_out = e + beta + 1.0
    return quad, e_out, coef


def _assemble(
    grid: GradedGrid,
    reg_values: np.ndarray,
    e_out: float,
    c_out: float,
    tail: TailModel = ZERO_TAIL,
) -> GridFunction:
    """Headed grid function from a regular part and an analytic head."""
    vals = reg_values.copy()
    if c_out != 0.0:
        if e_out == 0.0:
            vals += c_out
        else:
            vals[1:] += c_out * grid.nodes[1:] ** e_out
            vals[0] = c_out  # node 0 stores the coefficient, remainder -> 0
            return GridFunction(grid, vals, tail=tail, head_exponent=e_out)
    if e_out != 0.0 and c_out == 0.0:
        e_out = 0.0
    return GridFunction(grid, vals, tail=tail, head_exponent=e_out)


def peeled_integral(f: GridFunction, order: "Alpha | float") -> tuple[np.ndarray, float, float]:
    """The Riemann-Liouville integral of f before assembly: the quadrature
    of f's regular part, and the exponent and coefficient of the analytic
    image of its head, all divided by Gamma(order).

    frac_integral assembles it. apply_operator and rl_derivative take it
    ready-made (inner=), so that a caller needing both computes
    I^(1-alpha) x once.
    """
    mu = as_alpha(order)
    quad, e_head, c_head = _conv_power_kernel(f, mu - 1.0)
    g = gamma(mu)
    return quad / g, e_head, c_head / g if c_head else 0.0


def frac_integral(f: GridFunction, order: "Alpha | float") -> GridFunction:
    """Riemann-Liouville integral of the given order, 1/Gamma built in."""
    return _assemble(f.grid, *peeled_integral(f, order))


def grid_gradient(f: GridFunction) -> GridFunction:
    """Derivative on the graded mesh: analytic on the head, a three-point
    nonuniform stencil on the remainder (one-sided at the ends)."""
    t = f.grid.nodes
    c = f.head_coefficient
    e = f.head_exponent
    if e == 0.0 or c == 0.0:
        vals = np.gradient(f.values, t)
        _warn_unstable(f.values, vals, t)
        return GridFunction(f.grid, vals, head_exponent=0.0)
    if e <= 0.0:
        raise ValueError(
            f"cannot differentiate a singular head t^{e!r}; the image would "
            "not be integrable at the origin"
        )
    r_grad = np.gradient(f.regular_part(), t)
    return _assemble(f.grid, r_grad, e - 1.0, c * e)


def _warn_unstable(values: np.ndarray, deriv: np.ndarray, t: np.ndarray) -> None:
    # relative spread between one-sided slopes; > 1e3 marks a node whose
    # difference quotient carries no significant digits
    dl = np.diff(values[:-1]) / np.diff(t[:-1])
    dr = np.diff(values[1:]) / np.diff(t[1:])
    scale = np.abs(deriv[1:-1]) + 1e-300
    spread = np.abs(dl - dr) / scale
    bad = spread > 1e3
    # scattered flags are normal near a cusp; complain only when a quarter
    # of the interior carries no significant digits
    if bad.mean() > 0.25:
        warnings.warn(
            f"difference quotient unstable at {int(bad.sum())} node(s)",
            RuntimeWarning,
            stacklevel=3,
        )


def rl_derivative(f: GridFunction, order: "Alpha | float", inner=None) -> GridFunction:
    """Derivative of order alpha: d/dt of the (1-alpha)-integral.

    inner, if given, is peeled_integral(f, 1 - alpha).
    """
    if inner is None:
        inner = peeled_integral(f, 1.0 - as_alpha(order))
    return grid_gradient(_assemble(f.grid, *inner))


def conv_C(
    a: "Coefficient | GridFunction",
    order: "Alpha | float",
    grid: GradedGrid | None = None,
    rescaled: bool = False,
) -> GridFunction:
    """C(t) = int_0^t a(s) (t-s)^(alpha-1) ds, optionally divided by Gamma(alpha).

    Accepts a Coefficient (sampled on the grid, which must be given) or a
    GridFunction. The unscaled form matches the profile definitions; the
    rescaled form is the one the fixed-point machinery feeds on.
    """
    alpha = as_alpha(order)
    if isinstance(a, Coefficient):
        if grid is None:
            raise ValueError("conv_C of a Coefficient needs a grid")
        f = GridFunction.from_callable(grid, a)
    else:
        f = a
    quad, e_head, c_head = _conv_power_kernel(f, alpha - 1.0)
    scale = 1.0 / gamma(alpha) if rescaled else 1.0
    return _assemble(f.grid, quad * scale, e_head, c_head * scale)


def times_t(f: GridFunction) -> GridFunction:
    """The grid function t * f(t); head exponent shifts up by one."""
    vals = f.values * f.grid.nodes
    if f.head_coefficient != 0.0 and f.head_exponent + 1.0 != 0.0:
        vals[0] = f.head_coefficient
        return GridFunction(f.grid, vals, head_exponent=f.head_exponent + 1.0)
    return GridFunction(f.grid, vals, head_exponent=0.0)


def _shift_constant(f: GridFunction) -> GridFunction:
    """x - x(0) for a function continuous at the origin."""
    e, c = f.head_exponent, f.head_coefficient
    if e < 0.0 and c != 0.0:
        raise ValueError("case-1 operand must be continuous at the origin")
    if e != 0.0 or c == 0.0:
        return f
    return GridFunction(f.grid, f.values - c, head_exponent=0.0)


def trusted_slice(grid: GradedGrid) -> slice:
    """Interior nodes: the first and last 2% are endpoint-contaminated."""
    k = max(1, math.ceil(0.02 * grid.n))
    return slice(k, grid.n + 1 - k)


def apply_operator(
    case: int, x: GridFunction, order: "Alpha | float", inner=None
) -> GridFunction:
    """Apply one of the three factorizations; see the module docstring.

    inner, if given, is peeled_integral(x, 1 - alpha), shared with the
    caller's rl_derivative(x): every case integrates x itself, except
    that case 1 drops the head of x - x(0), whose regular part is x's.

    The returned values at the first and last 2% of nodes sit outside the
    trusted range (trusted_slice) and should not enter residual sups.
    """
    _check_case(case)
    mu = 1.0 - as_alpha(order)
    if case == 1:
        shifted = _shift_constant(x)
        if inner is None:
            inner = peeled_integral(shifted, mu)
        elif shifted is not x:
            inner = (inner[0], 0.0, 0.0)
        return grid_gradient(grid_gradient(_assemble(x.grid, *inner)))
    whole = _assemble(x.grid, *(peeled_integral(x, mu) if inner is None else inner))
    if case == 2:
        return grid_gradient(grid_gradient(whole))
    first = grid_gradient(grid_gradient(frac_integral(times_t(x), mu)))
    second = grid_gradient(whole)
    if first.head_exponent == second.head_exponent:
        return GridFunction(
            x.grid,
            first.values - 2.0 * second.values,
            head_exponent=first.head_exponent,
        )
    return _combine_mixed(first, second)


def _combine_mixed(first: GridFunction, second: GridFunction) -> GridFunction:
    """first - 2*second when the analytic heads came out with different
    exponents (possible when one head vanished); fall back to plain values
    with the origin marked by the surviving head."""
    vals = first.values - 2.0 * second.values
    if second.head_coefficient == 0.0:
        return GridFunction(first.grid, vals, head_exponent=first.head_exponent)
    if first.head_coefficient == 0.0:
        vals[0] = -2.0 * second.head_coefficient
        return GridFunction(first.grid, vals, head_exponent=second.head_exponent)
    raise ValueError(
        "incompatible singular heads "
        f"(t^{first.head_exponent!r} vs t^{second.head_exponent!r})"
    )
