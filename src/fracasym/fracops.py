"""Fractional integrals, derivatives, and the three operator factorizations.

All weakly singular integrals reduce to one primitive: product integration
of a piecewise-linear interpolant against the kernel (c*t_n - s)^beta with
beta > -1. Integration by parts moves the kernel onto its antiderivative,
so row n is a boundary term in f_0 and f_n plus one dot product of the
interpolant's slopes with the panel differences Q_j - Q_(j+1) of
Q_j = (c*t_n - t_j)^(beta+2). On the grading-2 mesh t_j = t_max (j/N)^2
with c = 1 the distances factor, t_n - t_j = (t_max/N^2)(n-j)(n+j), so
each difference is a two-term combination of the table A[k] = k^(beta+2),
k <= 2N, and of its forward differences, formed without cancellation:
no power per pair and O(N) extra memory. Other meshes and c != 1 raise
each row to the power directly.

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


def _prodint_linear(
    t: np.ndarray,
    f: np.ndarray,
    beta: float,
    kernel_origin: float = 1.0,
    grading: float | None = None,
) -> np.ndarray:
    """out[n] = integral over [0, t_n] of (kernel_origin*t_n - s)^beta f_h(s) ds.

    f_h is the piecewise-linear interpolant of f on the nodes t. Panel
    integrals are exact, so the rule is exact whenever f is piecewise
    linear. kernel_origin > 1 shifts the kernel singularity outside the
    domain (used for kernels like (2t - s)^(beta)). grading = 2 declares
    the nodes t_max (j/N)^2, which selects the factored rows.
    """
    if not beta > -1.0:
        raise ValueError(f"kernel exponent must exceed -1, got {beta!r}")
    bp1 = beta + 1.0
    bp2 = beta + 2.0
    n_panels = t.shape[0] - 1
    slope = np.diff(f) / np.diff(t)
    # sums[n] = sum_j slope_j (Q_j - Q_(j+1)), Q_j = (kernel_origin*t_n - t_j)^bp2
    sums = np.zeros(n_panels + 1)
    if grading == 2.0 and kernel_origin == 1.0:
        # Q_j = scale * A[n-j] * A[n+j] with A[k] = k^bp2, so that
        # Q_j - Q_(j+1) = scale * (A[n+j+1] dA[n-j-1] - A[n-j] dA[n+j]),
        # dA[k] = A[k+1] - A[k] formed without cancellation. The reversed
        # copies keep every slice contiguous: at n = 8192 the rows run
        # 15-25% faster than with negative-stride views (numpy 2.4, Xeon)
        top = 2 * n_panels
        k = np.arange(top + 1, dtype=float)
        A = k**bp2
        dA = np.ones_like(A)
        dA[1:] = A[1:] * np.expm1(bp2 * np.log1p(1.0 / k[1:]))
        A_rev = A[::-1].copy()
        dA_rev = dA[::-1].copy()
        ahead = np.empty(n_panels)
        behind = np.empty(n_panels)
        for n in range(1, n_panels + 1):
            x = np.multiply(A[n + 1 : 2 * n + 1], dA_rev[top - n + 1 :], out=ahead[:n])
            y = np.multiply(A_rev[top - n : top], dA[n : 2 * n], out=behind[:n])
            sums[n] = np.dot(slope[:n], np.subtract(x, y, out=x))
        sums *= (t[-1] / n_panels**2) ** bp2
    else:
        for n in range(1, n_panels + 1):
            q = (kernel_origin * t[n] - t[: n + 1]) ** bp2
            sums[n] = np.dot(slope[:n], q[:-1] - q[1:])
    # the boundary terms of the integration by parts, at s = 0 and s = t_n
    boundary = f[0] * (kernel_origin * t) ** bp1 - f * ((kernel_origin - 1.0) * t) ** bp1
    return boundary / bp1 + sums / (bp1 * bp2)


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
        return (_prodint_linear(t, plain, beta, kernel_origin=kernel_origin,
                                grading=f.grid.grading), 0.0, 0.0)
    r = f.regular_part()
    quad = _prodint_linear(t, r, beta, kernel_origin=kernel_origin,
                           grading=f.grid.grading)
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


def frac_integral(f: GridFunction, order: "Alpha | float") -> GridFunction:
    """Riemann-Liouville integral of the given order, 1/Gamma built in."""
    mu = as_alpha(order)
    quad, e_head, c_head = _conv_power_kernel(f, mu - 1.0)
    g = gamma(mu)
    return _assemble(f.grid, quad / g, e_head, c_head / g if c_head else 0.0)


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


def rl_derivative(f: GridFunction, order: "Alpha | float") -> GridFunction:
    """Derivative of order alpha: d/dt of the (1-alpha)-integral."""
    alpha = as_alpha(order)
    return grid_gradient(frac_integral(f, 1.0 - alpha))


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


def apply_operator(case: int, x: GridFunction, order: "Alpha | float") -> GridFunction:
    """Apply one of the three factorizations; see the module docstring.

    The returned values at the first and last 2% of nodes sit outside the
    trusted range (trusted_slice) and should not enter residual sups.
    """
    _check_case(case)
    alpha = as_alpha(order)
    if case == 1:
        inner = frac_integral(_shift_constant(x), 1.0 - alpha)
        return grid_gradient(grid_gradient(inner))
    if case == 2:
        inner = frac_integral(x, 1.0 - alpha)
        return grid_gradient(grid_gradient(inner))
    u = frac_integral(times_t(x), 1.0 - alpha)
    first = grid_gradient(grid_gradient(u))
    second = grid_gradient(frac_integral(x, 1.0 - alpha))
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
