"""Post-hoc checks on a computed solution: does it satisfy the equation,
does it approach the claimed head, and do the boundary limits come out.

Everything here consumes a finished GridFunction; nothing iterates. The
residual is measured on the trusted range [0.1, 0.98 t_max]: below it the
discrete double differentiation of the operator is dominated by the head
representation, above it the one-sided stencil at the horizon leaks in.
Remainder fits use the last decade [t_max/10, t_max], where the head
separation is cleanest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracops import apply_operator, as_alpha, rl_derivative, trusted_slice
from .meshfun import GradedGrid, GridFunction, write_csv
from .solver import CHAINS, prop1_certify

__all__ = [
    "ResidualReport",
    "AsymptoticReport",
    "BoundaryLimits",
    "chain_head",
    "residual",
    "asymptotic_fit",
    "boundary_limits",
    "prop1_certify",
]


@dataclass(frozen=True)
class ResidualReport:
    """Sup and per-node values of the defect of the equation itself, at
    the nodes of grid inside window."""

    case: int
    alpha: float
    sup_residual: float
    window: tuple[float, float]
    grid: GradedGrid
    values: np.ndarray

    @property
    def rows(self) -> slice:
        """The node indices of the window."""
        return _window_slice(self.grid, *self.window)

    @property
    def t(self) -> np.ndarray:
        return self.grid.nodes[self.rows]

    def to_csv(self, path: str) -> None:
        """Two columns t,residual; t is the window's rows of the grid's node_texts."""
        write_csv(path, "t,residual", [self.grid.node_texts[self.rows], self.values])


@dataclass(frozen=True)
class AsymptoticReport:
    """Fitted head coefficients and the weighted remainder they leave."""

    case: str
    alpha: float
    a_hat: float
    b_hat: float
    weighted_remainder_sup: float
    bounded: bool
    window: tuple[float, float]
    t: np.ndarray
    weighted_remainder: np.ndarray


@dataclass(frozen=True)
class BoundaryLimits:
    """The two ends of the solution: weighted value at 0, derivative at the horizon.

    origin_limit extrapolates t^(1-alpha) x(t) to t = 0 from the three
    smallest positive nodes; origin_converged compares it against the
    two-node linear extrapolation and is False when they disagree, which
    signals an unresolved origin rather than a genuine limit.
    """

    origin_limit: float
    origin_converged: bool
    derivative_at_horizon: float
    horizon_node: float


def _window_slice(grid, lo: float, hi: float) -> slice:
    i1 = int(np.searchsorted(grid.nodes, hi, side="right"))
    return slice(max(grid.index_at_or_above(lo), 1), i1)


def chain_head(case: str, alpha: float) -> tuple:
    """From the thm chain's declared operator and head a t^e0 + b t^e1 at
    order alpha: the operator case, the head exponent e0 of the solution
    CSV, the fit basis t -> [t^e0, t^e1] and the reference head (t, a, b).
    A t^(alpha-1) term shares its decay with the t^(1-alpha)-weighted
    remainder, so the reference leaves it out; it shows up as a level.
    """
    chain = CHAINS.get(case)
    if chain is None or chain.head is None:
        fit_cases = tuple(k for k, c in CHAINS.items() if c.head is not None)
        raise ValueError(f"case must be one of {fit_cases}, got {case!r}")
    operator, exponents = chain.head
    e0, e1 = exponents(alpha)

    def reference(t: np.ndarray, a: float, b: float) -> np.ndarray:
        growth = b * t**e1
        return growth if e0 == alpha - 1.0 else a * t**e0 + growth

    return operator, e0, lambda t: [t**e0, t**e1], reference


def residual(x: GridFunction, case: int, a, alpha, inner=None) -> ResidualReport:
    """Defect of the composite-operator equation at the trusted nodes.

    a is the coefficient (any callable of t). Node values past index 0
    are actual function values regardless of the head representation, so
    the window, which starts at 0.1, never touches the coefficient slot.
    inner, if given, is peeled_integral(x, 1 - alpha), shared with
    boundary_limits.
    """
    al = as_alpha(alpha)
    op = apply_operator(case, x, al, inner=inner)
    grid = x.grid
    lo, hi = 0.1, 0.98 * grid.t_max
    sl = _window_slice(grid, lo, hi)
    vals = op.values[sl] + np.asarray(a(grid.nodes[sl])) * x.values[sl]
    return ResidualReport(
        case=case,
        alpha=al,
        sup_residual=float(np.max(np.abs(vals))),
        window=(lo, hi),
        grid=grid,
        values=vals,
    )


def asymptotic_fit(
    x: GridFunction,
    case: str,
    alpha,
    a_true: float | None = None,
    b_true: float | None = None,
) -> AsymptoticReport:
    """Least-squares head coefficients over the last decade, and the
    weighted remainder left by the true head.

    The remainder weight is t^(1-alpha) throughout. The reference head
    (chain_head) uses the supplied true scalars, falling back to the
    fitted ones.
    """
    al = as_alpha(alpha)
    _, _, basis, reference = chain_head(case, al)
    grid = x.grid
    lo = grid.t_max / 10.0
    sl = _window_slice(grid, lo, grid.t_max)
    t = grid.nodes[sl]
    if t.size < 8:
        raise ValueError(
            f"only {t.size} nodes in the fit window [{lo!r}, {grid.t_max!r}]; "
            "the tail is under-resolved"
        )
    xv = x.values[sl]

    A = np.column_stack(basis(t))
    sol, *_ = np.linalg.lstsq(A, xv, rcond=None)
    a_hat, b_hat = float(sol[0]), float(sol[1])

    a_ref = a_true if a_true is not None else a_hat
    b_ref = b_true if b_true is not None else b_hat
    head = reference(t, a_ref, b_ref)
    weighted = t ** (1.0 - al) * np.abs(xv - head)

    sup_r = float(np.max(weighted))
    mid = grid.t_max / 2.0
    quarter = grid.t_max / 4.0
    first = weighted[(t >= quarter) & (t < mid)]
    second = weighted[t >= mid]
    trend_ok = (
        first.size > 0
        and second.size > 0
        and float(second.max()) <= float(first.max()) * (1.0 + 1e-9) + 1e-12
    )
    return AsymptoticReport(
        case=case,
        alpha=al,
        a_hat=a_hat,
        b_hat=b_hat,
        weighted_remainder_sup=sup_r,
        bounded=math.isfinite(sup_r) and trend_ok,
        window=(lo, grid.t_max),
        t=t,
        weighted_remainder=weighted,
    )


def boundary_limits(x: GridFunction, case: str, alpha, inner=None) -> BoundaryLimits:
    """Extrapolated weighted origin value and the fractional derivative at
    the far end of the trusted range; inner as in residual."""
    al = as_alpha(alpha)
    t = x.grid.nodes
    w = t[1:4] ** (1.0 - al) * x.values[1:4]
    u = t[1:4] / t[3]
    # quadratic through three points, evaluated at 0
    quad = 0.0
    for i in range(3):
        term = w[i]
        for j in range(3):
            if j != i:
                term *= (0.0 - u[j]) / (u[i] - u[j])
        quad += term
    lin = w[0] - u[0] * (w[1] - w[0]) / (u[1] - u[0])
    scale = max(abs(quad), abs(lin), 1e-12)
    converged = abs(quad - lin) <= 1e-3 * scale or abs(quad - lin) <= 1e-9

    d = rl_derivative(x, al, inner=inner)
    sl = trusted_slice(x.grid)
    j_last = sl.stop - 1
    return BoundaryLimits(
        origin_limit=float(quad),
        origin_converged=bool(converged),
        derivative_at_horizon=float(d.values[j_last]),
        horizon_node=float(t[j_last]),
    )
