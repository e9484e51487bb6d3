"""Coefficient functions a(t): tiny expression language plus sample tables.

Expressions are built from numbers, the time variable t, binary + - * / ^,
unary minus, and exp/sin/cos/abs. Precedence from tightest to loosest:
power, unary minus, * and /, + and -. Power is right associative and its
exponent may carry an explicit sign (so "t^-2" works even though unary
minus binds looser than power elsewhere). Neither the tree (a level per
operator or function) nor the operands (a level per parenthesis, function,
unary minus or exponent) may nest deeper than MAX_DEPTH levels.

A Coefficient pairs the evaluator with a decay envelope |a(t)| <= A t^-p
for t >= valid_from. The envelope is what lets hypothesis constants close
their integrals past the mesh horizon, so most of the package refuses
coefficients without one.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .meshfun import GradedGrid, TailModel, write_json

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "ParseError",
    "MAX_DEPTH",
    "parse_coefficient",
    "print_expr",
    "eval_expr",
    "Coefficient",
    "check_envelope",
    "load_coefficient",
    "save_coefficient",
]


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg', 'exp', 'sin', 'cos', 'abs'
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # '+', '-', '*', '/', '^'
    left: Expr
    right: Expr


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_FUNCTIONS = ("exp", "sin", "cos", "abs")

# an operand level costs the parser at most five frames (sum, term, unary,
# power, atom), a tree level the evaluator, printer and denominator scan one:
# well inside Python's default recursion limit of 1000
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than MAX_DEPTH = {MAX_DEPTH} levels"

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup is not None:
            kind = m.lastgroup
            tok = m.group(kind)
            if kind == "op" and tok == "**":
                tok = "^"
            tokens.append((kind, tok, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # operands open: the calls of parse_unary on the stack

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, op: str) -> None:
        kind, tok, off = self.peek()
        if kind != "op" or tok != op:
            raise ParseError(f"expected {op!r}", off)
        self.advance()

    # sum := term (('+'|'-') term)*
    def parse_sum(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, tok, _ = self.peek()
            if kind == "op" and tok in "+-":
                self.advance()
                node = Binary(tok, node, self.parse_term())
            else:
                return node

    # term := unary (('*'|'/') unary)*
    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, tok, _ = self.peek()
            if kind == "op" and tok in "*/":
                self.advance()
                node = Binary(tok, node, self.parse_unary())
            else:
                return node

    # unary := '-' unary | power
    def parse_unary(self) -> Expr:
        kind, tok, off = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, off)
        if kind == "op" and tok == "-":
            self.advance()
            node = Unary("neg", self.parse_unary())
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    # power := atom ('^' signed_unary)?   (right associative)
    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, tok, _ = self.peek()
        if kind == "op" and tok == "^":
            self.advance()
            return Binary("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        kind, tok, off = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(tok))
        if kind == "name":
            self.advance()
            if tok == "t":
                return Var()
            if tok in _FUNCTIONS:
                self.expect("(")
                arg = self.parse_sum()
                self.expect(")")
                return Unary(tok, arg)
            raise ParseError(
                f"unknown identifier {tok!r}; allowed: t, {', '.join(_FUNCTIONS)}", off
            )
        if kind == "op" and tok == "(":
            self.advance()
            node = self.parse_sum()
            self.expect(")")
            return node
        raise ParseError(f"expected a value, got {tok or 'end of input'!r}", off)


def _tree_depth(node: Expr) -> int:
    """Levels of the tree, one level at a time: a flat sum is as deep as it is long."""
    depth, level = 0, [node]
    while level:
        depth += 1
        level = [c for n in level for c in ((n.arg,) if isinstance(n, Unary) else
                                           (n.left, n.right) if isinstance(n, Binary) else ())]
    return depth


def parse_coefficient(text: str) -> Expr:
    """Parse an expression in t; raises ParseError with a byte offset, at
    the end of the input for a tree deeper than MAX_DEPTH."""
    p = _Parser(text)
    node = p.parse_sum()
    kind, tok, off = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", off)
    if _tree_depth(node) > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, off)
    return node


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def print_expr(node: Expr) -> str:
    """Canonical text form; parse(print_expr(e)) reproduces e."""

    def go(n: Expr, parent_prec: int, right_side: bool) -> str:
        if isinstance(n, Num):
            v = n.value
            if v == int(v) and abs(v) < 1e16:
                return str(int(v))
            return repr(v)
        if isinstance(n, Var):
            return "t"
        if isinstance(n, Unary):
            if n.op == "neg":
                inner = go(n.arg, _PREC["neg"], False)
                s = f"-{inner}"
                return f"({s})" if parent_prec > _PREC["neg"] or (
                    right_side and parent_prec == _PREC["neg"]
                ) else s
            return f"{n.op}({go(n.arg, 0, False)})"
        assert isinstance(n, Binary)
        prec = _PREC[n.op]
        if n.op == "^":
            # right associative; parenthesize a compound left operand
            left = go(n.left, prec + 1, False)
            right = go(n.right, prec, False)
            s = f"{left}^{right}"
        else:
            left = go(n.left, prec, False)
            right = go(n.right, prec, True)
            s = f"{left} {n.op} {right}"
        needs = parent_prec > prec or (right_side and parent_prec == prec)
        return f"({s})" if needs else s

    return go(node, 0, False)


def eval_expr(node: Expr, t: np.ndarray) -> np.ndarray:
    """Evaluate on a numpy array (or scalar) of times."""
    t = np.asarray(t, dtype=np.float64)
    if isinstance(node, Num):
        return np.full_like(t, node.value)
    if isinstance(node, Var):
        return t.copy()
    if isinstance(node, Unary):
        a = eval_expr(node.arg, t)
        if node.op == "neg":
            return -a
        if node.op == "exp":
            return np.exp(a)
        if node.op == "sin":
            return np.sin(a)
        if node.op == "cos":
            return np.cos(a)
        return np.abs(a)
    assert isinstance(node, Binary)
    a = eval_expr(node.left, t)
    b = eval_expr(node.right, t)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    with np.errstate(invalid="ignore"):
        return np.power(a, b)


# probe points of the sign-change search in Coefficient.zeros
_ZERO_PROBES = 4096


@dataclass(frozen=True, eq=False)
class Coefficient:
    """Evaluatable coefficient with a decay envelope.

    Built either from an expression in t or from a sample table that is
    interpolated linearly (tables should cover [0, t_max]; outside their
    span the end values are held). The envelope asserts
    |a(t)| <= amplitude * t^(-exponent) for t >= valid_from.

    scaled(lam) is lam * a. For lam != 0 it shares this coefficient's
    sign-change memo (the dict itself), since lam * a changes sign where a
    does (away from underflow): the first search of a window serves every
    amplitude. lam = 0 gives a = 0, which has no sign changes, so it gets
    a memo of its own.
    """

    text: str | None
    expr: Expr | None
    samples: np.ndarray | None
    envelope: TailModel
    alpha_context: dict | None = None
    # the sign changes found per (lo, hi) window; a coefficient never changes
    _zeros: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.expr is None) == (self.samples is None):
            raise ValueError("exactly one of expression or samples is required")
        if self.envelope.kind != "power":
            raise ValueError("a coefficient envelope must be a power tail")

    @staticmethod
    def from_expression(
        text: str,
        envelope: TailModel,
        alpha_context: dict | None = None,
        guard_t_max: float = 100.0,
    ) -> "Coefficient":
        expr = parse_coefficient(text)
        c = Coefficient(text=text, expr=expr, samples=None, envelope=envelope,
                        alpha_context=alpha_context)
        # nonzero-denominator / domain guard on [0, guard_t_max]
        probe = c._finite_probe(guard_t_max)
        _reject_vanishing_denominators(expr, probe, guard_t_max)
        return c

    def _finite_probe(self, guard_t_max: float) -> np.ndarray:
        """The guard's probe of [0, guard_t_max]; refuses a non-finite value there."""
        probe = np.concatenate(
            [np.array([0.0]), np.geomspace(1e-9, guard_t_max, 2048)]
        )
        vals = self(probe)
        if not np.all(np.isfinite(vals)):
            bad = probe[~np.isfinite(vals)][0]
            raise ValueError(
                f"expression is not finite on [0, {guard_t_max}]: fails near t={float(bad)!r}"
            )
        return probe

    @staticmethod
    def from_samples(
        samples: Sequence[Sequence[float]],
        envelope: TailModel,
        alpha_context: dict | None = None,
    ) -> "Coefficient":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise ValueError("samples must be an (m, 2) table with m >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample times and values must be finite")
        if not np.all(np.diff(arr[:, 0]) > 0):
            raise ValueError("sample times must be strictly increasing")
        return Coefficient(text=None, expr=None, samples=arr, envelope=envelope,
                           alpha_context=alpha_context)

    def scaled(self, lam: float, guard_t_max: float = 100.0) -> "Coefficient":
        """lam * a, its envelope amplitude times |lam|; self for lam = 1.

        An expression becomes the tree that f"{lam!r} * ({text})" parses to,
        with that text, and passes the finiteness probe on [0, guard_t_max];
        its denominators are this coefficient's, already scanned. A table
        scales its sample values.
        """
        if lam == 1.0:
            return self
        env = replace(self.envelope, amplitude=self.envelope.amplitude * abs(lam))
        if self.expr is None:
            scaled = np.column_stack([self.samples[:, 0], self.samples[:, 1] * lam])
            c = Coefficient.from_samples(scaled, env, alpha_context=self.alpha_context)
        else:
            c = Coefficient(text=f"{lam!r} * ({self.text})", expr=Binary("*", Num(lam), self.expr),
                            samples=None, envelope=env, alpha_context=self.alpha_context)
            c._finite_probe(guard_t_max)
        if lam != 0.0:
            object.__setattr__(c, "_zeros", self._zeros)
        return c

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        if self.expr is not None:
            out = eval_expr(self.expr, tt)
        else:
            out = np.interp(tt, self.samples[:, 0], self.samples[:, 1])
        return float(out[0]) if scalar else out

    def zeros(self, lo: float, hi: float) -> list[float]:
        """Sign changes of a on [lo, hi], in increasing order.

        The search runs once per window; each call returns a fresh list.
        a is probed at _ZERO_PROBES points: geometric from max(lo, 1e-9)
        for an expression, linear plus the sample times for a table,
        always with lo and hi. A run of consecutive probes where a is
        exactly 0 gives a zero at each of its ends (one for a run of one
        probe, also at lo or hi). The window's edge is no run end: a run
        that reaches lo or hi counts at its inner end only, and a run over
        every probe gives none, since a never changes sign. Every probe
        interval whose ends differ in sign is bisected, all of them
        together with one coefficient call per step, until each bracket
        [l, r] is narrower than 1e-14 + 1e-15 * min(|l|, |r|); its midpoint
        is then within half that of the root. Zeros closer than 1e-12
        relative are merged.
        """
        window = (float(lo), float(hi))
        if window not in self._zeros:
            self._zeros[window] = self._sign_changes(*window)
        return list(self._zeros[window])

    def _sign_changes(self, lo: float, hi: float) -> list[float]:
        if self.samples is not None:
            ts = self.samples[:, 0]
            grid = np.unique(np.clip(
                np.concatenate([ts, np.linspace(lo, hi, _ZERO_PROBES)]), lo, hi))
        else:
            interior = np.geomspace(max(lo, 1e-9), hi, _ZERO_PROBES) if hi > 0 else []
            grid = np.unique(np.concatenate([[lo], interior, [hi]]))
        sign = np.sign(self(grid))
        zero = sign == 0.0
        # past the window's edges counts as zero: the edge is no run end
        padded = np.concatenate([[True], zero, [True]])
        run_ends = zero & ~(padded[:-2] & padded[2:])
        at = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        left, right, left_sign = grid[at], grid[at + 1], sign[at]
        while True:
            wide = np.flatnonzero(right - left > 1e-14 + 1e-15 * np.minimum(
                np.abs(left), np.abs(right)))
            if wide.size == 0:
                break
            mid = 0.5 * (left[wide] + right[wide])
            up = np.sign(self(mid)) == left_sign[wide]  # root right of mid
            left[wide] = np.where(up, mid, left[wide])
            right[wide] = np.where(up, right[wide], mid)
        out = np.sort(np.concatenate([grid[run_ends], 0.5 * (left + right)]))
        # collapse duplicates from probe points landing on a zero
        dedup: list[float] = []
        for z in out.tolist():
            if not dedup or abs(z - dedup[-1]) > 1e-12 * max(1.0, abs(z)):
                dedup.append(z)
        return dedup


def _reject_vanishing_denominators(
    node: Expr, probe: np.ndarray, guard_t_max: float
) -> None:
    """Refuse denominators that vanish somewhere on [0, guard_t_max].

    A pole can slip between probe points with finite values everywhere,
    so every division's denominator is scanned for sign changes and exact
    zeros. Even-order touches are only caught when a probe lands on them.
    """
    if isinstance(node, Unary):
        _reject_vanishing_denominators(node.arg, probe, guard_t_max)
        return
    if not isinstance(node, Binary):
        return
    _reject_vanishing_denominators(node.left, probe, guard_t_max)
    _reject_vanishing_denominators(node.right, probe, guard_t_max)
    if node.op != "/":
        return
    den = eval_expr(node.right, probe)
    sign = np.sign(den)
    crosses = (sign[:-1] * sign[1:] < 0).any()
    if crosses or (den == 0.0).any():
        raise ValueError(
            f"denominator {print_expr(node.right)!r} vanishes on [0, {guard_t_max}]"
        )


def check_envelope(coeff: Coefficient, grid: GradedGrid) -> tuple[bool, float]:
    """Does |a(t_j)| <= A t_j^-p hold at nodes past valid_from?

    Returns (ok, worst violation), violation = max(|a| - bound, 0).
    """
    env = coeff.envelope
    t = grid.nodes[1:]
    mask = t >= max(env.valid_from, t[0])
    tt = t[mask]
    if tt.size == 0:
        return True, 0.0
    bound = env.amplitude * tt ** (-env.exponent)
    excess = np.abs(coeff(tt)) - bound
    worst = float(excess.max())
    return worst <= 1e-12 * max(1.0, env.amplitude), max(worst, 0.0)


def coefficient_to_json_dict(coeff: Coefficient) -> dict:
    d: dict = {
        "envelope": {
            "A": coeff.envelope.amplitude,
            "p": coeff.envelope.exponent,
            "valid_from": coeff.envelope.valid_from,
        }
    }
    if coeff.text is not None:
        d["expr"] = coeff.text
    elif coeff.expr is not None:
        d["expr"] = print_expr(coeff.expr)
    else:
        d["samples"] = coeff.samples.tolist()
    if coeff.alpha_context is not None:
        d["alpha-context"] = coeff.alpha_context
    return d


def _json_number(v) -> float:
    """A JSON number, not a boolean, as a float; anything else is a TypeError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"{v!r} is not a number")
    return float(v)


def coefficient_from_json_dict(d: dict, guard_t_max: float = 100.0) -> Coefficient:
    """The coefficient of a JSON document; a malformed shape is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"coefficient JSON must be an object, got {type(d).__name__}")
    env = d.get("envelope")
    if not isinstance(env, dict):
        raise ValueError("coefficient JSON needs an 'envelope' object")
    try:
        A, p = _json_number(env["A"]), _json_number(env["p"])
        valid_from = _json_number(env.get("valid_from", 0.0))
    except (KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"envelope needs numbers A, p and valid_from, got {env!r}") from e
    if not all(map(math.isfinite, (A, p, valid_from))):
        raise ValueError(f"envelope A, p and valid_from must be finite, got {env!r}")
    tail = TailModel(kind="power", amplitude=A, exponent=p, valid_from=valid_from)
    ctx = d.get("alpha-context")
    if "expr" in d:
        if not isinstance(d["expr"], str):
            raise ValueError(f"coefficient 'expr' must be a string, got {d['expr']!r}")
        return Coefficient.from_expression(d["expr"], tail, alpha_context=ctx,
                                           guard_t_max=guard_t_max)
    if "samples" in d:
        try:
            table = [[_json_number(v) for v in row] for row in d["samples"]]
        except (TypeError, OverflowError) as e:
            raise ValueError(f"samples must be a table of [t, value] numbers: {e}") from e
        return Coefficient.from_samples(table, tail, alpha_context=ctx)
    raise ValueError("coefficient JSON needs 'expr' or 'samples'")


def load_coefficient(path: str, guard_t_max: float = 100.0) -> Coefficient:
    with open(path) as fh:
        return coefficient_from_json_dict(json.load(fh), guard_t_max)


def save_coefficient(coeff: Coefficient, path: str) -> None:
    write_json(path, coefficient_to_json_dict(coeff))
