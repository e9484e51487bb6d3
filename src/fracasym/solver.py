"""Picard iteration of the four integral step maps to their fixed points.

Each case iterates an affine map head + L(x) in its own weighted metric
space; the seed is the affine head itself, so the first iterate is head
plus a single integral application. The split-time cases (thm1, thm2)
fold the double integral

    int_0^t (t-s)^(alpha-1) int_s^inf g(tau) dtau ds,   g = a * x,

into [t^alpha * int_0^inf g - int_0^t (t-s)^alpha g ds] / alpha, so each
step costs one product-integration convolution and one global integral
instead of a tail integral per node. The tail-coupled cases (thm3,
lemma2) evaluate their inf-range inner integrals by right-to-left node
sweeps that are exact for the piecewise-linear remainder, with the power
head taken in closed form.

Everything happens on the truncation window [0, t_max]. Mass beyond the
horizon is not invented: signed integrals stop at t_max and the envelope
bound on the neglected tail is reported as tail_budget, in the units of
the case metric, each tail closed by the gate's one rule. A solve, a
check and a block of sweep cells make one gates() call per chain, whose
Gate per split carries a refusal as its error. Only the gate refuses an
envelope: its EnvelopeError, for a tail the chain needs and cannot close,
is raised whatever attempt_anyway says, which bypasses only the other
refusals and a failed contraction estimate (sufficient, not necessary).
thm3's gate passes on k3 alone, so thm3 with envelope decay t^-p,
alpha < p <= 2, still iterates, with tail_budget = inf.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .coeffexpr import Coefficient, coefficient_to_json_dict
from .fracops import KernelPlan, as_alpha, convolve, trusted_slice
from .hypotheses import (
    EnvelopeError,
    Lemma1Profile,
    _classify,
    _power_tail,
    _split_refusal,
    envelope_tail_integral,
    lemma1_profile,
    lemma2_constants,
    thm1_constants,
    thm2_constants,
    thm3_constants,
)
from .meshfun import (
    GradedGrid,
    GridFunction,
    WeightedMetric,
    _right_cumtrapz,
    integrate,
    make_graded_grid,
    metric_distance,
)
from .specialfn import gamma

__all__ = [
    "CHAINS",
    "Chain",
    "Gate",
    "SOLVE_CASES",
    "SolveSpec",
    "SolveResult",
    "step_thm1",
    "step_thm2",
    "step_thm3",
    "step_lemma2",
    "solve",
    "reconstruct_thm3",
    "reconstruct_prop1",
    "x_to_y",
    "gates",
    "prop1_certify",
]


def _frozen(values: np.ndarray) -> np.ndarray:
    """values, made read-only: every step of a solve shares them."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class SolveSpec:
    """One fixed-point problem: case, scalars, coefficient, mesh, stopping."""

    case: str
    alpha: float
    a: float
    b: float
    coefficient: Coefficient
    grid: GradedGrid = None  # type: ignore[assignment]
    split: float = 1.0
    max_iterations: int = 60
    tolerance: float = 1e-10
    attempt_anyway: bool = False

    def __post_init__(self) -> None:
        if self.case not in CHAINS:
            raise ValueError(f"case must be one of {SOLVE_CASES}, got {self.case!r}")
        object.__setattr__(self, "alpha", as_alpha(self.alpha))
        if self.grid is None:
            object.__setattr__(self, "grid", make_graded_grid())
        scalars_ok, why = CHAINS[self.case].requires
        if not scalars_ok(self.a, self.b):
            raise ValueError(why)
        refused = _split_refusal(self.split, self.grid.t_max)
        if refused is not None:
            raise refused
        if not self.tolerance > 0.0:
            raise ValueError("stop tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")

    # What a step reads of the coefficient does not change from one
    # iterate to the next; each is sampled once.
    @cached_property
    def a_nodes(self) -> np.ndarray:
        """a(t_j) at the positive nodes j >= 1."""
        return _frozen(self.coefficient(self.grid.nodes[1:]))

    @cached_property
    def a_origin(self) -> float:
        """a(0), read only when the iterate's origin node holds a value."""
        return float(self.coefficient(0.0))

    @cached_property
    def thm3_source(self) -> tuple[np.ndarray, float]:
        """s a(s) at the nodes and its integral over the window: the
        iterate-free part of step_thm3."""
        grid = self.grid
        sa = np.empty(grid.n + 1)
        sa[0] = 0.0
        sa[1:] = grid.nodes[1:] * self.a_nodes
        return _frozen(sa), integrate(GridFunction(grid, sa))

    @cached_property
    def head(self) -> GridFunction:
        """The solution head a t^e0 + b t^e1 that the case's Chain.head
        declares, node 0 holding a; the split-time chains seed and step
        from it."""
        e0, e1 = CHAINS[self.case].head[1](self.alpha)
        t = self.grid.nodes[1:]
        vals = np.empty(self.grid.n + 1)
        vals[1:] = self.a * t**e0 + self.b * t**e1
        vals[0] = self.a
        return GridFunction(self.grid, _frozen(vals), head_exponent=e0)

    def echo(self) -> dict:
        """Every field, the grid as its layout and the coefficient as its JSON."""
        g = self.grid
        return {**{f.name: getattr(self, f.name) for f in fields(self) if f.name != "grid"},
                "t_max": g.t_max, "n": g.n, "grading": g.grading,
                "coefficient": coefficient_to_json_dict(self.coefficient)}


@dataclass(frozen=True)
class SolveResult:
    """Fixed point plus the iteration trace that certifies how it was won.

    fixed_point is the iterated object (x for thm1/thm2, y for thm3 and
    lemma2); solution is the reconstructed x (identical to fixed_point
    for thm1/thm2). observed_ratio is the largest successive distance
    quotient from iteration 3 on, the empirical contraction factor. spec
    is SolveSpec.echo() of the problem solved.
    """

    case: str
    fixed_point: GridFunction
    solution: GridFunction
    iterations: int
    distances: tuple[float, ...]
    observed_ratio: float
    predicted_k: float
    hypotheses_pass: bool
    converged: bool
    ratio_exceeded: bool
    tail_budget: float
    spec: dict
    diagnostics: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# split-time steps (thm1, thm2)
# --------------------------------------------------------------------------

def _check_grid(x: GridFunction, spec: SolveSpec) -> None:
    """The cached samples of spec belong to spec.grid: refuse other grids."""
    if not x.grid.same_layout(spec.grid):
        raise ValueError("iterate and problem live on different grids")


def _coefficient_times(spec: SolveSpec, x: GridFunction) -> GridFunction:
    """The product a(t) * x(t) as a plain grid function.

    A decaying head of x contributes nothing at the origin; a singular
    head (thm2) leaves an integrable spike confined to the first panel,
    whose quadrature weight is negligible on the graded mesh, so node 0
    carries the limit 0.
    """
    _check_grid(x, spec)
    gv = np.empty_like(x.values)
    gv[1:] = spec.a_nodes * x.values[1:]
    if x.head_exponent == 0.0:
        gv[0] = spec.a_origin * x.values[0]
    else:
        gv[0] = 0.0
    return GridFunction(x.grid, gv)


def _tail_coupling(spec: SolveSpec, x: GridFunction, plan: KernelPlan | None) -> np.ndarray:
    """Node values of (1/Gamma(al)) int_0^t (t-s)^(al-1) int_s^inf (a x) ds.

    Uses the single-tail fold: the double integral equals
    [t^al * int_0^inf g - int_0^t (t-s)^al g ds] / al with g = a x. The
    signed global integral stops at the horizon; see tail_budget.
    """
    al = spec.alpha
    g = _coefficient_times(spec, x)
    total = integrate(g)
    K = convolve(g, al, plan=plan).pointwise_values()
    t = x.grid.nodes
    return (t**al * total - K) / (al * gamma(al))


def _split_budget(spec: SolveSpec, x: GridFunction) -> float:
    """Metric-units bound on what ignoring the (t_max, inf) mass can move:
    the envelope of a(t) times the growth of x (read from max(1, valid_from)
    on, or at t_max when that lies past it), integrated past t_max."""
    env = spec.coefficient.envelope
    t = x.grid.nodes
    sel = t >= min(max(1.0, env.valid_from), x.grid.t_max)
    growth = float(np.max(np.abs(x.values[sel]) / t[sel] ** spec.alpha))
    neglected = _power_tail(env.amplitude * growth, env.exponent - spec.alpha, x.grid.t_max)
    return max(1.0, spec.split**spec.alpha) * neglected / gamma(1.0 + spec.alpha)


def _split_step(x: GridFunction, spec: SolveSpec, plan: KernelPlan | None) -> GridFunction:
    """spec.head + coupling. The coupling vanishes at 0 faster than the
    head, so node 0 keeps a: the value for thm1, the t^(al-1) coefficient
    for thm2."""
    head = spec.head
    return GridFunction(x.grid, head.values + _tail_coupling(spec, x, plan),
                        head_exponent=head.head_exponent)


def step_thm1(x: GridFunction, spec: SolveSpec, plan: KernelPlan | None = None) -> GridFunction:
    """One application of the bounded-growth integral map: a + b t^al + coupling.
    plan, if given, keeps the convolution's geometry for the next step."""
    return _split_step(x, spec, plan)


def step_thm2(x: GridFunction, spec: SolveSpec, plan: KernelPlan | None = None) -> GridFunction:
    """As step_thm1 with the singular head a t^(al-1) + b t^al."""
    return _split_step(x, spec, plan)


# --------------------------------------------------------------------------
# tail-coupled steps (thm3, lemma2)
# --------------------------------------------------------------------------

def _inverse_square_sweep(y: GridFunction) -> np.ndarray:
    """R[j] = int_{t_j}^inf y(u) / u^2 du at nodes j >= 1 (R[0] is not finite
    for a singular head and is reported as the head-stripped value 0).

    The piecewise-linear remainder integrates exactly on each panel as
    (r0 - s u0)(1/u0 - 1/u1) + s log(u1/u0); the power head c u^e closes
    as c (u^(e-1) - t_max^(e-1))/(1-e). Past the horizon y is continued
    self-similarly from its last value, y(u) ~ y(t_max) (u/t_max)^e, which
    is exact for a pure power and adds y(t_max) / ((1-e) t_max).
    """
    grid = y.grid
    u = grid.nodes[1:]
    e = y.head_exponent
    c = y.head_coefficient if e != 0.0 else 0.0
    r = y.regular_part()[1:] if c != 0.0 else y.values[1:]

    slope = np.diff(r) / np.diff(u)
    a0 = r[:-1] - slope * u[:-1]
    panels = a0 * (1.0 / u[:-1] - 1.0 / u[1:]) + slope * np.log(u[1:] / u[:-1])
    acc = np.zeros_like(u)
    acc[:-1] = np.cumsum(panels[::-1])[::-1]

    t_max = grid.t_max
    if c != 0.0:
        acc += c * (u ** (e - 1.0) - t_max ** (e - 1.0)) / (1.0 - e)
    y_end = float(y.values[-1])
    closure = y_end / ((1.0 - e) * t_max)

    out = np.zeros(grid.n + 1)
    out[1:] = acc + closure
    return out


def step_thm3(y: GridFunction, spec: SolveSpec, plan: KernelPlan | None = None) -> GridFunction:
    """One application of the linear-growth map in the t^(1-al)-weighted space.

    The t^(al-1) head with analytic coefficient, plus the inverse-square
    tail coupling w, entering once globally (through the head) and once
    under the convolution. The convolution is linear, so it takes
    w - b s a(s) in one call, with plan as step_thm1's does; sa[0] = 0
    leaves node 0 at w's head coefficient.
    """
    _check_grid(y, spec)
    al = spec.alpha
    grid = y.grid
    t = grid.nodes
    ga = gamma(al)
    sa, moment1 = spec.thm3_source

    w = sa * _inverse_square_sweep(y)  # node 0: 0 * 0, set below
    c_y = y.head_coefficient if y.head_exponent == al - 1.0 else 0.0
    c_w = spec.a_origin * c_y / (2.0 - al)
    w[0] = c_w
    e_w = al - 1.0 if c_w != 0.0 else 0.0
    coupling_mass = integrate(GridFunction(grid, w, head_exponent=e_w))
    conv = convolve(GridFunction(grid, w - spec.b * sa, head_exponent=e_w), al - 1.0,
                    plan=plan).values

    head = spec.a + (spec.b * moment1 - coupling_mass) / ga
    vals = np.empty(grid.n + 1)
    vals[1:] = head * t[1:] ** (al - 1.0) + conv[1:] / ga
    vals[0] = head
    return GridFunction(grid, vals, head_exponent=al - 1.0)


def step_lemma2(y: GridFunction, Cfun: GridFunction) -> GridFunction:
    """y -> -C (1 - int_t^inf y) - int_t^inf C y, by right-to-left sweeps."""
    if not y.grid.same_layout(Cfun.grid):
        raise ValueError("iterate and convolution profile live on different grids")
    t = y.grid.nodes
    yv = y.pointwise_values()
    cv = Cfun.pointwise_values()
    remaining = _right_cumtrapz(t, yv)
    weighted = _right_cumtrapz(t, cv * yv)
    return GridFunction(y.grid, -cv * (1.0 - remaining) - weighted)


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def x_to_y(x: GridFunction) -> GridFunction:
    """The first-order combination t x'(t) - x(t), head differentiated exactly."""
    t = x.grid.nodes
    e, c = x.head_exponent, x.head_coefficient
    if c != 0.0 and e != 0.0:
        r = x.regular_part()
        rp = np.gradient(r, t)
        vals = t * rp - r
        vals[1:] += c * (e - 1.0) * t[1:] ** e
        vals[0] = c * (e - 1.0)
        return GridFunction(x.grid, vals, head_exponent=e)
    xp = np.gradient(x.values, t)
    return GridFunction(x.grid, t * xp - x.values)


def reconstruct_thm3(y: GridFunction, b: float) -> GridFunction:
    """Solution from the linear-growth fixed point: x = b t - t int_t^inf y/u^2.

    The singular part of y maps to the head -c/(1-e) t^e in closed form.
    The defining relation t x' - x = y is re-derived numerically on the
    interior and a mismatch beyond 1e-3 (relative, in the weighted sup)
    is reported as a warning.
    """
    grid = y.grid
    t = grid.nodes
    e = y.head_exponent
    c = y.head_coefficient if e != 0.0 else float(y.values[0])
    R = _inverse_square_sweep(y)
    vals = np.empty(grid.n + 1)
    vals[1:] = b * t[1:] - t[1:] * R[1:]
    vals[0] = -c / (1.0 - e)
    x = GridFunction(grid, vals, head_exponent=e if c != 0.0 else 0.0)

    w = -e  # weight exponent of the space the iterate lives in
    back = x_to_y(x)
    sl = trusted_slice(grid)
    tw = t[sl] ** w
    scale = float(np.max(tw * np.abs(y.values[sl])))
    if scale > 0.0:
        gap = float(np.max(tw * np.abs(back.values[sl] - y.values[sl])))
        if gap > 1e-3 * scale:
            warnings.warn(
                f"round-trip t x' - x deviates from the input by {gap / scale:.2e} "
                "(weighted relative) on the interior",
                RuntimeWarning,
                stacklevel=2,
            )
    return x


def reconstruct_prop1(y: GridFunction) -> tuple[GridFunction, dict]:
    """x = 1 - int_t^inf y, plus the norms that certify x' = y.

    The y(0) = 0 requirement is reported, never assumed: the diagnostics
    carry y at the origin, the L1/sup norms of x' (= those of y), and the
    value approached at the horizon.
    """
    t = y.grid.nodes
    yv = y.pointwise_values()
    remaining = _right_cumtrapz(t, yv)
    x = GridFunction(y.grid, 1.0 - remaining)
    diag = {
        "y_at_origin": float(yv[0]),
        "xprime_l1": float(np.trapezoid(np.abs(yv), t)),
        "xprime_sup": float(np.max(np.abs(yv))),
        "x_at_horizon": float(x.values[-1]),
    }
    return x, diag


def prop1_certify(y: GridFunction) -> dict:
    """Certificate numbers for the bounded-solution construction.

    All four entries must come out finite: the absolute value of y at the
    origin (reported, never assumed to vanish), the two norms of x' = y,
    and how far x strays from its limit over the outer half of the range.
    """
    x, diag = reconstruct_prop1(y)
    t = y.grid.nodes
    half = t >= y.grid.t_max / 2.0
    return {
        "y_at_origin": abs(diag["y_at_origin"]),
        "xprime_l1": diag["xprime_l1"],
        "xprime_sup": diag["xprime_sup"],
        "tail_sup_deviation": float(np.max(np.abs(x.values[half] - 1.0))),
    }


# --------------------------------------------------------------------------
# tail budgets
# --------------------------------------------------------------------------

def _thm3_budget(spec: SolveSpec, y: GridFunction) -> float:
    """The tails of thm3's gate past t_max: |b| times the first moment's, plus
    the s^(alpha-1) one times the sup of y's inverse-square sweep."""
    env = spec.coefficient.envelope
    al = spec.alpha
    t_max = spec.grid.t_max
    t = spec.grid.nodes
    d0 = float(np.max(t[1:] ** (1.0 - al) * np.abs(y.values[1:])))
    sweep_sup = d0 / (2.0 - al)
    w_tail = _power_tail(env.amplitude * sweep_sup, env.exponent - al + 1.0, t_max)
    return (abs(spec.b) * envelope_tail_integral(env, 1.0, t_max) + w_tail) / gamma(al)


def _lemma2_budget(spec: SolveSpec, g: Gate) -> float:
    """Budget on the rescaled kernel, C*(t_max) (s/t_max)^-q closed past the
    horizon in u = s/t_max; the comparison scale gamma falls back to 2 when
    the gate refused before reporting it."""
    env = spec.coefficient.envelope
    if env.amplitude == 0.0:
        return 0.0
    gamma_scale = g.report.gamma if g.report is not None else 2.0
    star_tail = _power_tail(float(g.profile.C_star.values[-1]) * spec.grid.t_max,
                            env.exponent - spec.alpha, 1.0)
    return gamma_scale * star_tail * (1.0 + g.profile.c_sup) / gamma(spec.alpha)


# --------------------------------------------------------------------------
# the chain table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """A chain's verdict at one split: its constants report, contraction
    constant k and pass flag, the integrability profile the mean-zero chain
    iterates on, and error, the ValueError that refused the split (report
    None, k nan, passed False) or None."""

    report: Any
    k: float
    passed: bool
    profile: Lemma1Profile | None = None
    error: ValueError | None = None


@dataclass(frozen=True)
class Chain:
    """One contraction chain, from its gate to the head verify checks.

    constants maps a list of split times to a report or ValueError each;
    a chain that ignores the split repeats one report, and a report is
    what check writes. The gate reads k_field and passed off a report;
    flags names the report's booleans that the gate needs besides k, so
    a refusal can say which hypothesis failed. requires is the (a, b)
    predicate with its error message; operand is the step map's second
    argument, and its third the KernelPlan that solve makes for the
    iteration (a step that convolves passes it to convolve). head is the
    equation a thm chain solves: the operator case and, at order alpha,
    the exponents e0, e1 of the solution head a t^e0 + b t^e1
    (SolveSpec.head builds it for the split-time steps,
    verify.chain_head derives the rest). A chain without one names in
    verify_as the (chain, a, b) whose head checks its solution.
    Entries call traced layers (constants, steps, reconstructions) by
    module-global name at call time and never hold those functions, so
    instrumentation that rebinds the names reaches every call.
    """

    constants: Callable[[Coefficient, float, list, GradedGrid, Any], Any]
    k_field: str
    seed: Callable[[SolveSpec, Any], GridFunction]
    step: Callable[[GridFunction, Any, KernelPlan], GridFunction]
    metric: str
    budget: Callable[[SolveSpec, GridFunction, Gate], float]
    flags: tuple[str, ...] = ()
    profile: Callable[[Coefficient, float, GradedGrid], Any] = lambda c, al, grid: None
    requires: tuple[Callable[[float, float], bool], str] = (lambda a, b: True, "")
    operand: Callable[[SolveSpec, Gate], Any] = lambda spec, g: spec
    reconstruct: Callable[[SolveSpec, GridFunction], tuple] = lambda spec, y: (y, {})
    head: tuple[int, Callable[[float], tuple[float, float]]] | None = None
    verify_as: tuple[str, float, float] | None = None
    certify: Callable[[GridFunction], dict] | None = None


_NONZERO_PAIR = (lambda a, b: a != 0.0 or b != 0.0,
                 "the scalar pair (a, b) must not both vanish")


def _prop1_solution(spec: SolveSpec, y: GridFunction) -> tuple[GridFunction, dict]:
    x, diag = reconstruct_prop1(y)
    return x, {"kernel_rescale": 1.0 / gamma(spec.alpha), **diag}


CHAINS: dict[str, Chain] = {
    "thm1": Chain(
        constants=lambda c, al, Ts, grid, _: thm1_constants(c, al, Ts, t_max=grid.t_max),
        k_field="k",
        requires=_NONZERO_PAIR,
        seed=lambda spec, _: spec.head,
        step=lambda x, spec, plan: step_thm1(x, spec, plan),
        metric="sup_over_t_alpha_after_T",
        budget=lambda spec, x, g: _split_budget(spec, x),
        flags=("tail_ok",),
        head=(1, lambda al: (0.0, al)),
    ),
    "thm2": Chain(
        constants=lambda c, al, Ts, grid, _: thm2_constants(c, al, Ts, t_max=grid.t_max),
        k_field="k4",
        requires=_NONZERO_PAIR,
        seed=lambda spec, _: spec.head,
        step=lambda x, spec, plan: step_thm2(x, spec, plan),
        metric="sup_over_t_alpha_after_T",
        budget=lambda spec, x, g: _split_budget(spec, x),
        flags=("tail_ok",),
        head=(2, lambda al: (al - 1.0, al)),
    ),
    "thm3": Chain(
        constants=lambda c, al, Ts, grid, _: [thm3_constants(c, al, t_max=grid.t_max)] * len(Ts),
        k_field="k3",
        requires=(lambda a, b: b != 0.0, "the linear-growth case needs b != 0"),
        seed=lambda spec, _: GridFunction(
            spec.grid, np.zeros(spec.grid.n + 1), head_exponent=spec.alpha - 1.0),
        step=lambda y, spec, plan: step_thm3(y, spec, plan),
        metric="sup_t_one_minus_alpha",
        reconstruct=lambda spec, y: (reconstruct_thm3(y, spec.b), {}),
        budget=lambda spec, y, g: _thm3_budget(spec, y),
        head=(3, lambda al: (al - 1.0, 1.0)),
    ),
    "lemma2": Chain(
        profile=lambda c, al, grid: lemma1_profile(c, al, grid=grid),
        constants=lambda c, al, Ts, grid, profile: [lemma2_constants(profile)] * len(Ts),
        k_field="k1",
        # The reported constants (k1, gamma, C*) describe the raw kernel;
        # the iteration runs on the kernel divided by Gamma(alpha), which
        # is what makes the reconstructed antiderivative solve the
        # differential equation with the input coefficient. The division
        # only shrinks the contraction factor, so the raw-kernel gate is
        # sufficient, and the gamma C* ball holds with room to spare.
        operand=lambda spec, g: g.profile.C.scaled(1.0 / gamma(spec.alpha)),
        seed=lambda spec, cfun: GridFunction(spec.grid, -cfun.pointwise_values()),
        step=lambda y, cfun, plan: step_lemma2(y, cfun),
        metric="max_sup_and_L1",
        reconstruct=_prop1_solution,
        budget=lambda spec, y, g: _lemma2_budget(spec, g),
        verify_as=("thm1", 1.0, 0.0),
        certify=lambda y: prop1_certify(y),
    ),
}

SOLVE_CASES = tuple(CHAINS)


def gates(case: str, coefficient: Coefficient, alpha: float, splits,
          grid: GradedGrid) -> list[Gate]:
    """One chain's Gate at each split time, all on one constants call; a
    refused split's Gate carries the ValueError (k nan, the profile kept).
    The profile is built outside that refusal: from the command line it
    cannot raise, since valid_from <= --tmax is checked before any gate."""
    chain = CHAINS[case]
    profile = chain.profile(coefficient, alpha, grid)
    splits = list(splits)
    try:
        reports = chain.constants(coefficient, alpha, splits, grid, profile)
    except ValueError as e:
        reports = [e] * len(splits)
    out = []
    for r in reports:
        match r:
            case ValueError():
                out.append(Gate(None, math.nan, False, profile, r))
            case _:
                out.append(Gate(r, float(getattr(r, chain.k_field)), bool(r.passed), profile))
    return out


# --------------------------------------------------------------------------
# iteration to the fixed point
# --------------------------------------------------------------------------

def solve(spec: SolveSpec) -> SolveResult:
    """Iterate the case's step map from its affine seed to the fixed point.

    Raises the gate's refusal, or when the contraction estimate fails, unless
    attempt_anyway is set, in which case divergence is a legitimate
    observable outcome; an EnvelopeError is raised either way.
    Non-convergence at the iteration cap does not raise: the trace comes
    back with converged=False and the ratio comparison filled in.
    """
    chain = CHAINS[spec.case]
    g, = gates(spec.case, spec.coefficient, spec.alpha, [spec.split], spec.grid)
    if g.error is not None and (isinstance(g.error, EnvelopeError) or not spec.attempt_anyway):
        raise g.error
    if not g.passed and not spec.attempt_anyway:
        failed = "".join(f"; {flag}: false" for flag in chain.flags
                         if not getattr(g.report, flag))
        raise ValueError(
            f"hypothesis constants do not certify contraction "
            f"({chain.k_field}={g.k!r}: {_classify(g.k)}{failed}); "
            "set attempt_anyway=True to iterate regardless"
        )

    operand = chain.operand(spec, g)
    current = chain.seed(spec, operand)
    # the steps' convolutions share one geometry, built by the first
    plan = KernelPlan()
    metric = WeightedMetric(chain.metric, split=spec.split, alpha=spec.alpha)
    distances: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, spec.max_iterations + 1):
        nxt = chain.step(current, operand, plan)
        d = metric_distance(metric, nxt, current)
        distances.append(d)
        current = nxt
        if d <= spec.tolerance:
            converged = True
            break

    quotients = [
        distances[i] / distances[i - 1]
        for i in range(3, len(distances))
        if distances[i - 1] > 0.0
    ]
    observed = float(max(quotients)) if quotients else 0.0
    ratio_exceeded = bool(math.isfinite(g.k) and observed > g.k + 0.05)

    solution, diagnostics = chain.reconstruct(spec, current)
    return SolveResult(
        case=spec.case,
        fixed_point=current,
        solution=solution,
        iterations=iterations,
        distances=tuple(distances),
        observed_ratio=observed,
        predicted_k=g.k,
        hypotheses_pass=g.passed,
        converged=converged,
        ratio_exceeded=ratio_exceeded,
        tail_budget=chain.budget(spec, current, g),
        spec=spec.echo(),
        diagnostics=diagnostics,
    )
