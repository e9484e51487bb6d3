"""Expression parsing, printing, evaluation, and coefficient plumbing."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fracasym.coeffexpr import (
    MAX_DEPTH,
    Coefficient,
    ParseError,
    check_envelope,
    coefficient_from_json_dict,
    coefficient_to_json_dict,
    eval_expr,
    load_coefficient,
    parse_coefficient,
    print_expr,
    save_coefficient,
)
from fracasym.hypotheses import lemma1_profile
from fracasym.meshfun import TailModel, make_graded_grid

ENV = TailModel(kind="power", amplitude=1.0, exponent=2.0, valid_from=1.0)


def ev(text, t):
    return eval_expr(parse_coefficient(text), np.asarray(t, dtype=float))


# -- parsing and evaluation ---------------------------------------------


@pytest.mark.parametrize(
    "text,fn",
    [
        ("0.01/(1+t)^3.5", lambda t: 0.01 / (1 + t) ** 3.5),
        ("0.01*t^2/(1+t)^6", lambda t: 0.01 * t**2 / (1 + t) ** 6),
        ("0.01*(1-t)*exp(-t)", lambda t: 0.01 * (1 - t) * np.exp(-t)),
        ("2 - 3 - 4", lambda t: np.full_like(t, -5.0)),
        ("2^3^2", lambda t: np.full_like(t, 512.0)),
        ("-t^2", lambda t: -(t**2)),
        ("(-t)^2", lambda t: t**2),
        ("t^-2 + 1", lambda t: t**-2.0 + 1),
        ("t**2 + 1", lambda t: t**2 + 1),
        ("abs(sin(t))*cos(t)", lambda t: np.abs(np.sin(t)) * np.cos(t)),
        ("1e-2*t + 2.5E3", lambda t: 0.01 * t + 2500.0),
        ("6/3/2", lambda t: np.full_like(t, 1.0)),
    ],
)
def test_expressions_evaluate_like_python(text, fn):
    t = np.linspace(0.1, 9.0, 57)
    assert np.allclose(ev(text, t), fn(t), rtol=1e-14, atol=0)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_coefficient("1 + q")
    assert err.value.offset == 4

    with pytest.raises(ParseError) as err:
        parse_coefficient("2 * (1 + t")
    assert "expected ')'" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_coefficient("1 + 2 ) 3")
    assert "trailing" in str(err.value)

    with pytest.raises(ParseError):
        parse_coefficient("sin 3")
    with pytest.raises(ParseError):
        parse_coefficient("")
    with pytest.raises(ParseError):
        parse_coefficient("1 @ 2")


@pytest.mark.parametrize("text", [
    "-" * 3000 + "0.01/(1+t)^3.5",
    "(" * 5000 + "t" + ")" * 5000,
    " + ".join(["t"] * 3000),  # flat, so only its tree is deep
], ids=["unary-minus", "parentheses", "flat-sum"])
def test_deep_expressions_are_refused(text):
    with pytest.raises(ParseError, match=f"MAX_DEPTH = {MAX_DEPTH}"):
        parse_coefficient(text)


def test_expressions_at_the_depth_bound_parse_print_and_evaluate():
    for text in ("-" * (MAX_DEPTH - 1) + "t", "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
                 " + ".join(["t"] * MAX_DEPTH), "t^" * (MAX_DEPTH - 1) + "t"):
        node = parse_coefficient(text)
        assert parse_coefficient(print_expr(node)) == node
        assert np.isfinite(eval_expr(node, np.array([1.0])))
    # a denominator as deep as the bound allows goes through the pole scan
    c = Coefficient.from_expression("1/(2" + " + t" * (MAX_DEPTH - 2) + ")", ENV)
    assert c(1.0) == 1.0 / MAX_DEPTH
    for text in ("-" * MAX_DEPTH + "t", " + ".join(["t"] * (MAX_DEPTH + 1))):
        with pytest.raises(ParseError):
            parse_coefficient(text)


def test_printer_round_trips():
    texts = [
        "0.01/(1+t)^3.5",
        "-(t + 1)*(t - 2)",
        "2^3^2",
        "-t^2",
        "(-t)^2",
        "1 - (2 - 3)",
        "6/(3/2)",
        "exp(-(t^0.5))*abs(t - 1)",
    ]
    t = np.linspace(0.05, 4.0, 41)
    for text in texts:
        node = parse_coefficient(text)
        printed = print_expr(node)
        again = parse_coefficient(printed)
        assert np.allclose(eval_expr(node, t), eval_expr(again, t), rtol=1e-15)
        # printing is idempotent once canonical
        assert print_expr(again) == printed


def test_printed_form_respects_precedence():
    assert print_expr(parse_coefficient("(1 + t)*2")) == "(1 + t) * 2"
    assert print_expr(parse_coefficient("1 + t*2")) == "1 + t * 2"
    assert print_expr(parse_coefficient("2 - (3 - 4)")) == "2 - (3 - 4)"
    assert print_expr(parse_coefficient("(2^3)^2")) == "(2^3)^2"


# -- coefficients ---------------------------------------------------------


def test_expression_coefficient_scalar_and_array():
    c = Coefficient.from_expression("0.01/(1+t)^3.5", ENV)
    assert c(1.0) == pytest.approx(0.01 / 2**3.5, rel=1e-15)
    arr = c(np.array([0.0, 1.0, 3.0]))
    assert arr.shape == (3,)
    assert arr[0] == pytest.approx(0.01)


def test_expression_guard_rejects_poles_in_range():
    with pytest.raises(ValueError):
        Coefficient.from_expression("1/(t - 1)", ENV)
    with pytest.raises(ValueError):
        Coefficient.from_expression("t^0.5/(5 - t)", ENV, guard_t_max=10.0)
    # a pole past the guard horizon is accepted
    Coefficient.from_expression("1/(200 - t)", ENV, guard_t_max=100.0)


def test_non_finite_probe_names_a_plain_float():
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError) as err:
            Coefficient.from_expression("1/t", ENV)
    assert str(err.value).endswith("fails near t=0.0")


def test_sample_coefficient_interpolates_and_clamps():
    c = Coefficient.from_samples([[0.0, 0.0], [1.0, 2.0], [3.0, 2.0]], ENV)
    assert c(0.5) == pytest.approx(1.0)
    assert c(2.0) == pytest.approx(2.0)
    assert c(10.0) == pytest.approx(2.0)  # held past the table
    with pytest.raises(ValueError):
        Coefficient.from_samples([[0.0, 1.0]], ENV)
    with pytest.raises(ValueError):
        Coefficient.from_samples([[0.0, 1.0], [0.0, 2.0]], ENV)


def test_coefficient_requires_power_envelope():
    with pytest.raises(ValueError):
        Coefficient.from_expression("t", TailModel())


def test_zeros_finds_sign_changes():
    c = Coefficient.from_expression(
        "(1 - t)*exp(-t)", TailModel(kind="power", amplitude=5.0, exponent=2.0,
                                     valid_from=1.0)
    )
    zs = c.zeros(0.0, 10.0)
    assert len(zs) == 1
    assert zs[0] == pytest.approx(1.0, abs=1e-12)

    s = Coefficient.from_expression(
        "sin(t)", TailModel(kind="power", amplitude=1.0, exponent=1.5, valid_from=1.0)
    )
    zs = s.zeros(0.5, 7.0)
    assert [pytest.approx(z, abs=1e-10) for z in (math.pi, 2 * math.pi)] == zs

    def within_tolerance(found, exact):
        assert len(found) == len(exact)
        for z, ref in zip(found, exact):
            assert abs(z - ref) <= 1e-14 + 1e-15 * abs(ref), (z, ref)

    # nine brackets refined together
    within_tolerance(s.zeros(0.5, 30.0), [k * math.pi for k in range(1, 10)])

    # a table whose root, 1.3, lies between its samples and between probes
    table = Coefficient.from_samples([[0.0, 1.0], [1.0, 0.3], [2.0, -0.7], [3.0, -1.0]], ENV)
    within_tolerance(table.zeros(0.0, 3.0), [1.3])

    # probes of a table on [0, 2047.5] are the multiples of 0.5, so one lands
    # on the zero of a(t) = t - 1; it is reported once
    line = Coefficient.from_samples([[0.0, -1.0], [2047.5, 2046.5]], ENV)
    assert line.zeros(0.0, 2047.5) == [1.0]

    # a zero at hi
    assert Coefficient.from_expression("t - 2", ENV).zeros(0.0, 2.0) == [2.0]


@pytest.mark.parametrize("name, count", [
    ("heavy_tail", 0), ("origin_quadratic", 1), ("sign_change", 1), ("slow_decay", 0)])
def test_zeros_counts_on_the_benchmark_coefficients(name, count):
    inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
    assert len(load_coefficient(str(inputs / f"{name}.json")).zeros(0.0, 100.0)) == count


def test_zeros_returns_a_fresh_list_each_call():
    c = Coefficient.from_expression("sin(t)", ENV)
    first = c.zeros(0.5, 7.0)
    first.append(99.0)
    first[0] = -1.0
    again = c.zeros(0.5, 7.0)
    assert again == pytest.approx([math.pi, 2.0 * math.pi], rel=1e-13)
    assert again is not c.zeros(0.5, 7.0)


def test_the_zero_coefficient_has_no_zeros():
    # a vanishes at every probe, so it never changes sign
    zero = Coefficient.from_expression("0", ENV)
    assert zero.zeros(0.0, 100.0) == []
    assert lemma1_profile(zero, 0.5, grid=make_graded_grid(100.0, 256)).n_zeros == 0


def test_a_run_of_exact_zeros_counts_at_its_ends():
    # a = 0 on [1, 3] exactly, between two positive stretches
    table = Coefficient.from_samples([[0, 1], [1, 0], [2, 0], [3, 0], [4, 1]], ENV)
    assert table.zeros(0.0, 4.0) == [1.0, 3.0]


def test_a_run_of_exact_zeros_to_the_window_edge_counts_once():
    # a falls to 0 at t = 1 and stays there past the window's end: the
    # edge of the window is no end of the run
    table = Coefficient.from_samples([[0, 1], [1, 0], [200, 0]], ENV)
    assert table.zeros(0.0, 100.0) == [1.0]
    profile = lemma1_profile(table, 0.5, grid=make_graded_grid(100.0, 256))
    assert (profile.n_zeros, profile.t0) == (1, 1.0)


INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
BENCH_NAMES = ("heavy_tail", "origin_quadratic", "sign_change", "slow_decay")
SCALES = (-2.0, -0.5, 1e-5, 0.5, 2.0)


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _scaled_text(c, lam):
    env = TailModel("power", c.envelope.amplitude * abs(lam), c.envelope.exponent,
                    c.envelope.valid_from)
    return Coefficient.from_expression(f"{lam!r} * ({c.text})", env,
                                       alpha_context=c.alpha_context)


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_scaled_coefficient_evaluates_like_its_text(name):
    c = load_coefficient(str(INPUTS / f"{name}.json"))
    probe = np.concatenate([[0.0], np.geomspace(1e-9, 100.0, 2048)])
    nodes = make_graded_grid().nodes
    for lam in SCALES:
        scaled, parsed = c.scaled(lam), _scaled_text(c, lam)
        assert (scaled.text, scaled.envelope, scaled.alpha_context) == (
            parsed.text, parsed.envelope, parsed.alpha_context)
        for t in (probe, nodes):
            assert _same_bits(scaled(t), parsed(t)), lam


def test_scaled_coefficient_is_refused_where_it_overflows():
    c = Coefficient.from_expression("exp(t)", ENV)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as want:
            _scaled_text(c, 1e300)
        with pytest.raises(ValueError) as got:
            c.scaled(1e300)
    assert str(got.value) == str(want.value)
    assert c.scaled(1.0) is c


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_scaled_coefficients_share_one_sign_change_search(name, monkeypatch):
    c = load_coefficient(str(INPUTS / f"{name}.json"))
    fresh = {lam: _scaled_text(c, lam).zeros(0.0, 100.0) for lam in SCALES}
    searches = []
    search = Coefficient._sign_changes

    def counted(self, lo, hi):
        searches.append((lo, hi))
        return search(self, lo, hi)

    monkeypatch.setattr(Coefficient, "_sign_changes", counted)
    for lam in SCALES:
        scaled = c.scaled(lam)
        assert scaled._zeros is c._zeros
        assert _same_bits(scaled.zeros(0.0, 100.0), fresh[lam]), lam
    assert searches == [(0.0, 100.0)]


def test_a_zero_scale_has_no_zeros_and_its_own_memo():
    c = Coefficient.from_expression("(1 - t)*exp(-t)", ENV)
    zs = c.zeros(0.0, 10.0)
    for lam in (0.0, -0.0):
        zero = c.scaled(lam)
        assert zero._zeros is not c._zeros
        assert zero.zeros(0.0, 10.0) == []
        assert c.zeros(0.0, 10.0) == zs
    table = Coefficient.from_samples([[0.0, 1.0], [2.0, -1.0]], ENV)
    assert table.zeros(0.0, 2.0) == pytest.approx([1.0], abs=1e-14)
    assert table.scaled(0.0).zeros(0.0, 2.0) == []


def test_a_scaled_table_shares_its_zeros_within_the_bracket():
    ts = np.geomspace(1e-3, 30.0, 97)
    samples = np.column_stack([ts, np.cos(3.0 * ts) / (1.0 + ts) ** 2])
    table = Coefficient.from_samples(samples, ENV)
    zs = table.zeros(0.0, 30.0)
    assert len(zs) >= 10
    for lam in SCALES + (1.37, -3.1):
        scaled = table.scaled(lam)
        assert _same_bits(scaled.samples[:, 1], samples[:, 1] * lam)
        own = Coefficient.from_samples(scaled.samples, scaled.envelope).zeros(0.0, 30.0)
        shared = scaled.zeros(0.0, 30.0)
        assert len(shared) == len(own)
        for z, ref in zip(shared, own):
            assert abs(z - ref) <= 1e-14 + 1e-15 * abs(ref), (lam, z, ref)


def test_envelope_check_passes_and_fails():
    grid = make_graded_grid(t_max=50.0, n=512, grading=2.0)
    ok_env = TailModel(kind="power", amplitude=0.01, exponent=3.5, valid_from=1.0)
    good = Coefficient.from_expression("0.01/(1+t)^3.5", ok_env)
    ok, excess = check_envelope(good, grid)
    assert ok and excess == 0.0

    bad_env = TailModel(kind="power", amplitude=0.001, exponent=3.5, valid_from=1.0)
    liar = Coefficient.from_expression("0.01/(1+t)^3.5", bad_env)
    ok, excess = check_envelope(liar, grid)
    assert not ok and excess > 0.0


def test_json_round_trip_for_both_variants(tmp_path):
    c = Coefficient.from_expression("0.01/(1+t)^3.5", ENV, alpha_context={"alpha": 0.5})
    d = coefficient_to_json_dict(c)
    assert d["expr"] == "0.01/(1+t)^3.5"
    assert d["alpha-context"] == {"alpha": 0.5}
    back = coefficient_from_json_dict(json.loads(json.dumps(d)))
    t = np.linspace(0.0, 9.0, 33)
    assert np.allclose(back(t), c(t), rtol=0, atol=0)

    s = Coefficient.from_samples([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], ENV)
    path = tmp_path / "c.json"
    save_coefficient(s, str(path))
    back = load_coefficient(str(path))
    assert np.allclose(back(t), s(t), rtol=0, atol=0)
    with pytest.raises(ValueError):
        coefficient_from_json_dict({"expr": "t"})
