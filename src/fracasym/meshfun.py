"""Graded meshes and grid functions with power-law heads.

The functions this package manipulates live on [0, infinity) and are
singular or cusped at the origin (powers t^e with e in (-1, 1)). A
GridFunction is sampled on the truncation window [0, t_max] and carries
two pieces:

* node values on a graded mesh t_j = t_max * (j/n)^grading, which
  clusters nodes near the origin where the kernels are singular;
* a power "head": f(t) = values[0] * t^head_exponent + r(t) near 0,
  with r(0) = 0. values[0] stores the head coefficient, i.e. the limit
  of t^(-head_exponent) * f(t) at the origin. head_exponent = 0 is the
  ordinary continuous case where values[0] is just f(0).

Past t_max only the coefficient's decay envelope (a TailModel) is
modelled, and only the gate and the solver's tail budgets read it.

Quadrature and metric code treats the head in closed form and the node
values by trapezoid panels, so singular factors are never interpolated
linearly across the origin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "GradedGrid",
    "TailModel",
    "GridFunction",
    "WeightedMetric",
    "make_graded_grid",
    "metric_distance",
    "integrate",
    "json_ready",
    "write_json",
    "write_csv",
    "float_texts",
]


def json_ready(v):
    """v as plain JSON data, the one encoding every artifact uses.

    A dataclass becomes the dict of its fields, leaving out arrays, grids
    and grid functions (those are written as CSV); dicts, lists and
    tuples are walked, tuples becoming lists; a non-finite float becomes
    its repr ("inf", "-inf", "nan"), since strict JSON has no such numbers.
    """
    if is_dataclass(v) and not isinstance(v, type):
        items = ((f.name, getattr(v, f.name)) for f in fields(v))
        return {k: json_ready(x) for k, x in items
                if not isinstance(x, (np.ndarray, GradedGrid, GridFunction))}
    if isinstance(v, dict):
        return {k: json_ready(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [json_ready(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return repr(float(v))
    return v


def write_json(path: str, v) -> None:
    """json_ready(v) with sorted keys, indent 2 and a trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(json_ready(v), fh, indent=2, sort_keys=True)
        fh.write("\n")


def float_texts(column) -> Iterator[str]:
    """repr(float) of each value of column, in order: the text of one CSV
    column, formatted as it is read."""
    return map(repr, np.asarray(column, dtype=np.float64).tolist())


def write_csv(path: str, header: str, columns: Sequence[np.ndarray | list[str]]) -> None:
    """A header line, then one row per index with every value as repr(float).
    A column may be a list of those texts already, such as GradedGrid.node_texts."""
    texts = [c if isinstance(c, list) else float_texts(c) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*texts):
            fh.write(",".join(row) + "\n")


def _right_cumtrapz(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[j] = trapezoid of y over [t_j, t_max]."""
    panels = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
    out = np.zeros_like(y)
    out[:-1] = np.cumsum(panels[::-1])[::-1]
    return out


@dataclass(frozen=True, eq=False)
class GradedGrid:
    """Nodes t_j = t_max * (j/n)^grading for j = 0..n; their CSV texts,
    node_texts, are formatted on first read and live as long as the grid."""

    t_max: float
    n: int
    grading: float
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if self.n < 16:
            raise ValueError(f"need at least 16 panels, got n={self.n!r}")
        if not self.grading >= 1.0:
            raise ValueError(f"grading must be >= 1, got {self.grading!r}")
        try:
            j = np.arange(self.n + 1, dtype=np.float64)
            t = self.t_max * (j / self.n) ** self.grading
            t[-1] = self.t_max  # guard rounding at the right end
            increasing = bool(np.all(t[1:] > t[:-1]))
        except MemoryError:  # numpy refuses an array it cannot allocate, allocating nothing
            raise ValueError(f"a grid of {self.n + 1} nodes does not fit in memory") from None
        if not increasing:
            raise ValueError(f"grading {self.grading!r} rounds the first of n={self.n} "
                             "nodes together: they are not strictly increasing")
        object.__setattr__(self, "nodes", t)

    @cached_property
    def node_texts(self) -> list[str]:
        """float_texts of the nodes: every CSV of the grid writes its t column from them."""
        return list(float_texts(self.nodes))

    def same_layout(self, other: "GradedGrid") -> bool:
        return (
            self.t_max == other.t_max
            and self.n == other.n
            and self.grading == other.grading
        )

    def index_at_or_above(self, t: float) -> int:
        """Smallest j with t_j >= t."""
        return int(np.searchsorted(self.nodes, t, side="left"))


def make_graded_grid(t_max: float = 100.0, n: int = 4096, grading: float = 2.0) -> GradedGrid:
    return GradedGrid(t_max=float(t_max), n=int(n), grading=float(grading))


@dataclass(frozen=True)
class TailModel:
    """Behaviour past the horizon: kind 'zero' or 'power'.

    'power' asserts |f(t)| <= amplitude * t^(-exponent) for t >= valid_from;
    hypotheses.envelope_tail_integral integrates the tails it bounds in
    closed form.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    exponent: float = 0.0
    valid_from: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "power"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.kind == "power" and not self.amplitude >= 0.0:
            raise ValueError("tail amplitude must be nonnegative")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Sampled function on [0, t_max] with a power head at 0."""

    grid: GradedGrid
    values: np.ndarray
    head_exponent: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n + 1,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with {self.grid.n + 1} nodes"
            )
        if not self.head_exponent > -1.0:
            raise ValueError(
                f"head exponent must exceed -1 for integrability, got {self.head_exponent!r}"
            )
        object.__setattr__(self, "values", v)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_callable(
        grid: GradedGrid,
        fn: Callable[[np.ndarray], np.ndarray],
        head_exponent: float = 0.0,
        head_coefficient: float | None = None,
    ) -> "GridFunction":
        """Sample fn at positive nodes; node 0 stores the head coefficient.

        For head_exponent 0 the coefficient defaults to fn(0); otherwise it
        must be supplied (it is the limit of t^(-e) fn(t), which sampling
        cannot produce).
        """
        t = grid.nodes
        vals = np.empty_like(t)
        vals[1:] = np.asarray(fn(t[1:]), dtype=np.float64)
        if head_exponent == 0.0:
            if head_coefficient is None:
                head_coefficient = float(fn(np.array([0.0]))[0])
        elif head_coefficient is None:
            raise ValueError("a nonzero head exponent needs an explicit coefficient")
        vals[0] = head_coefficient
        return GridFunction(grid, vals, head_exponent=head_exponent)

    # -- head/remainder split ---------------------------------------------

    @property
    def head_coefficient(self) -> float:
        return float(self.values[0])

    def head_at(self, t: np.ndarray) -> np.ndarray:
        """Evaluate the head c * t^e at positive times t."""
        return self.values[0] * np.power(t, self.head_exponent)

    def regular_part(self) -> np.ndarray:
        """Node values of r = f - c*t^e; r[0] = 0 by construction."""
        r = np.empty_like(self.values)
        r[0] = 0.0
        if self.values[0] == 0.0:
            r[1:] = self.values[1:]
        else:
            r[1:] = self.values[1:] - self.head_at(self.grid.nodes[1:])
        return r

    def pointwise_values(self) -> np.ndarray:
        """Values with the coefficient slot replaced by the limit at 0.

        A decaying head contributes 0 there, an exponent-0 head is the
        value itself, and a singular head has no finite limit to report.
        """
        if self.head_exponent == 0.0:
            return self.values.copy()
        v = self.values.copy()
        if self.head_exponent > 0.0 or v[0] == 0.0:
            v[0] = 0.0
            return v
        raise ValueError(
            f"head t^{self.head_exponent!r} has no finite value at the origin"
        )

    # -- arithmetic (same grid and head exponent) ---------------------------

    def _check_compatible(self, other: "GridFunction") -> None:
        if not self.grid.same_layout(other.grid):
            raise ValueError("grid functions live on different grids")
        if self.head_exponent != other.head_exponent:
            raise ValueError(
                "head exponents differ "
                f"({self.head_exponent!r} vs {other.head_exponent!r})"
            )

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(
            self.grid, self.values + other.values, head_exponent=self.head_exponent
        )

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(
            self.grid, self.values - other.values, head_exponent=self.head_exponent
        )

    def scaled(self, s: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * s, head_exponent=self.head_exponent)

    # -- serialization ------------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Two columns t,value; the first row carries the head coefficient.
        The t column is the grid's node_texts, formatted once per grid."""
        write_csv(path, "t,value", [self.grid.node_texts, self.values])


@dataclass(frozen=True)
class WeightedMetric:
    """Distance on grid functions; kind selects the weighting.

    sup_over_t_alpha_after_T  max of sup on [0, T] and sup of |f-g|/t^alpha on [T, inf)
    sup_t_one_minus_alpha   sup t^(1-alpha) |f - g|
    max_sup_and_L1          max of sup |f - g| and the L1 norm of f - g
    """

    kind: str
    split: float = 1.0
    alpha: float = 0.5

    _KINDS = (
        "sup_over_t_alpha_after_T",
        "sup_t_one_minus_alpha",
        "max_sup_and_L1",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "sup_over_t_alpha_after_T" and not self.split > 0.0:
            raise ValueError("the split point must be positive")


def _origin_sup_term(delta0: float, head_exponent: float, weight_exponent: float) -> float:
    """Contribution of the origin to sup of t^weight_exponent |delta|.

    The difference behaves like delta0 * t^head_exponent near 0, so the
    weighted value tends to |delta0| when the exponents cancel, to 0 when
    the head decays faster than the weight grows, and diverges otherwise.
    """
    e = head_exponent + weight_exponent
    if e > 0.0:
        return 0.0
    if e == 0.0:
        return abs(float(delta0))
    return math.inf if delta0 != 0.0 else 0.0


def metric_distance(metric: WeightedMetric, f: GridFunction, g: GridFunction) -> float:
    f._check_compatible(g)
    t = f.grid.nodes
    d = f.values - g.values
    e = f.head_exponent
    interior = np.abs(d[1:])

    if metric.kind == "sup_over_t_alpha_after_T":
        T = metric.split
        before = t[1:] <= T
        after = t[1:] >= T
        sup_before = float(interior[before].max()) if before.any() else 0.0
        sup_before = max(sup_before, _origin_sup_term(d[0], e, 0.0))
        if after.any():
            sup_after = float((interior[after] / t[1:][after] ** metric.alpha).max())
        else:
            sup_after = 0.0
        return max(sup_before, sup_after)

    if metric.kind == "sup_t_one_minus_alpha":
        w = 1.0 - metric.alpha
        sup_pos = float((t[1:] ** w * interior).max())
        return max(sup_pos, _origin_sup_term(d[0], e, w))

    # max_sup_and_L1
    sup = max(float(interior.max()), _origin_sup_term(d[0], e, 0.0))
    return max(sup, _l1_norm_grid(f - g))


def _l1_norm_grid(f: GridFunction) -> float:
    """Trapezoid of |f| over the grid, a nonzero head handled separately."""
    t = f.grid.nodes
    c = f.values[0]
    e = f.head_exponent
    if c == 0.0 or e == 0.0:
        return float(np.trapezoid(np.abs(f.values), t))
    # a genuine power head: bound |f| <= |r| + |c| t^e, with the head's
    # L1 mass over [0, t_max] in closed form (exact near the singularity,
    # where sampling cannot resolve it).
    r = f.regular_part()
    out = float(np.trapezoid(np.abs(r), t))
    out += abs(c) * f.grid.t_max ** (1.0 + e) / (1.0 + e)
    return out


def integrate(f: GridFunction) -> float:
    """Integral of f over its window [0, t_max]: the trapezoid rule on the
    regular part, the power head in closed form."""
    total = float(np.trapezoid(f.regular_part(), f.grid.nodes))
    c = f.values[0]
    if c != 0.0:
        e = f.head_exponent
        total += c * f.grid.t_max ** (1.0 + e) / (1.0 + e)
    return total
