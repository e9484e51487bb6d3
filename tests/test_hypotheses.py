"""Contraction constants and integrability profiles against quadrature oracles.

Reference values come from scipy adaptive quadrature on the finite ranges
plus the same closed-form envelope tail the implementation is contracted to
use beyond the horizon. Sups are cross-checked by brute-force maximization
over a dense grid with local refinement.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gamma as sp_gamma

from fracasym.coeffexpr import Coefficient
from fracasym import hypotheses as hyp_module
from fracasym.hypotheses import (
    EnvelopeError,
    _breakpoints,
    _conv_function,
    _gj_rule,
    _weighted_moment,
    Lemma1Profile,
    envelope_tail_integral,
    f_l1_divergence,
    lemma1_profile,
    lemma2_constants,
    thm1_constants,
    thm2_constants,
    thm3_constants,
)
from fracasym.meshfun import GridFunction, TailModel, json_ready, make_graded_grid, write_json

AL = 0.5
HOR = 100.0


def power_coeff(text, amplitude, exponent, valid_from=1.0):
    return Coefficient.from_expression(
        text, envelope=TailModel("power", amplitude, exponent, valid_from))


def env_tail(A, p, m, lo):
    # closed form of the envelope tail integral_lo^inf s^m * A s^-p ds
    return A * lo ** (m - p + 1.0) / (p - m - 1.0)


@pytest.fixture(scope="module")
def slow_decay():
    return power_coeff("0.01 / (1+t)^3.5", 0.01, 3.5)


@pytest.fixture(scope="module")
def origin_quadratic():
    return power_coeff("0.01 * t^2 / (1+t)^6", 0.01, 4.0)


@pytest.fixture(scope="module")
def heavy_tail():
    return power_coeff("0.005 / (1+t)^2.5", 0.005, 2.5)


@pytest.fixture(scope="module")
def mean_zero_coeff():
    return power_coeff("0.01 * (1 - t) * exp(-t)", 7.0, 6.0)


@pytest.fixture(scope="module")
def zero_coeff():
    return power_coeff("0", 0.0, 4.0)


@pytest.fixture(scope="module")
def mean_zero_profile(mean_zero_coeff):
    return lemma1_profile(mean_zero_coeff, AL)


# --------------------------------------------------------------------------
# Gauss-Jacobi rule
# --------------------------------------------------------------------------

def gj_reference(e, n=24):
    """Golub-Welsch at 40 digits for the weight (1+x)^e on [-1, 1].

    Nodes are the eigenvalues of the Jacobi matrix. The eigenvector at a
    node x is (p_0(x), ..., p_(n-1)(x)), the orthonormal polynomials of
    the matrix's own recurrence, so the weight mu_0 v_0^2 of the normalized
    eigenvector is mu_0 / sum_k p_k(x)^2.
    """
    with mpmath.workdps(40):
        e = mpmath.mpf(e)
        c = [2 * k + e for k in range(n)]
        diag = [e / (e + 2)] + [e * e / (c[k] * (c[k] + 2)) for k in range(1, n)]
        off = [2 * k * (k + e) / (c[k] * mpmath.sqrt(c[k] ** 2 - 1)) for k in range(1, n)]
        jac = mpmath.matrix(n)
        for k in range(n):
            jac[k, k] = diag[k]
            if k:
                jac[k, k - 1] = jac[k - 1, k] = off[k - 1]
        nodes = sorted(mpmath.eigsy(jac, eigvals_only=True))
        mu0 = 2 ** (e + 1) / (e + 1)
        weights = []
        for x in nodes:
            p_prev, p, norm = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1)
            for k in range(n - 1):
                p_prev, p = p, ((x - diag[k]) * p - (off[k - 1] * p_prev if k else 0)) / off[k]
                norm += p * p
            weights.append(mu0 / norm)
        return (np.array([float(x) for x in nodes]),
                np.array([float(w) for w in weights]))


@pytest.mark.parametrize("e", [-0.99, -0.9, -0.5, 0.0, 0.5, 1.5])
def test_gauss_jacobi_rule_matches_golub_welsch_at_40_digits(e):
    x, w = _gj_rule(e)
    x_ref, w_ref = gj_reference(e)
    # 4 ulp on the scale of [-1, 1]
    np.testing.assert_array_less(np.abs(x - x_ref), 4 * np.spacing(np.abs(x_ref).max()))
    np.testing.assert_array_less(np.abs(w - w_ref), 1e-12 * w_ref)


# --------------------------------------------------------------------------
# split-time constants
# --------------------------------------------------------------------------

class TestSplitTimeConstants:
    def test_matches_adaptive_quadrature(self, slow_decay):
        rep = thm1_constants(slow_decay, AL, T=1.0)
        f = lambda s: 0.01 / (1 + s) ** 3.5
        C0 = (quad(f, 0, 1, epsabs=1e-14, epsrel=1e-13)[0]
              + quad(lambda s: f(s) * s ** AL, 1, HOR, epsabs=1e-14, epsrel=1e-13)[0]
              + env_tail(0.01, 3.5, AL, HOR))
        C1 = (quad(lambda s: f(s) * s, 0, 1, epsabs=1e-14, epsrel=1e-13)[0]
              + quad(lambda s: f(s) * s ** (1 + AL), 1, HOR, epsabs=1e-14, epsrel=1e-13)[0]
              + env_tail(0.01, 3.5, 1 + AL, HOR))
        assert rep.C0 == pytest.approx(C0, rel=1e-10)
        assert rep.C1 == pytest.approx(C1, rel=1e-10)
        assert rep.k == pytest.approx(C0 / sp_gamma(1.5), rel=1e-10)
        assert rep.k < 1.0
        assert rep.tail_ok and rep.passed and rep.k_status == "pass"

    def test_zero_coefficient(self, zero_coeff):
        rep = thm1_constants(zero_coeff, AL, T=1.0)
        assert rep.C0 == 0.0 and rep.C1 == 0.0 and rep.k == 0.0
        assert rep.passed

    def test_split_time_weight(self, slow_decay):
        # k carries max(1, T^alpha); with T=4 the prefactor is 2
        r1 = thm1_constants(slow_decay, AL, T=4.0)
        f = lambda s: 0.01 / (1 + s) ** 3.5
        C0 = (quad(f, 0, 4, epsabs=1e-14, epsrel=1e-13)[0]
              + quad(lambda s: f(s) * s ** AL, 4, HOR, epsabs=1e-14, epsrel=1e-13)[0]
              + env_tail(0.01, 3.5, AL, HOR))
        assert r1.k == pytest.approx(2.0 * C0 / sp_gamma(1.5), rel=1e-10)

    def test_rejects_divergent_weighted_tail(self):
        a = power_coeff("0.01 / (1+t)^1.4", 0.01, 1.4)
        with pytest.raises(ValueError, match="decays like"):
            thm1_constants(a, AL, T=1.0)

    def test_zero_envelope_is_never_refused(self):
        # A = 0 says a = 0 past valid_from, so every tail is 0 whatever p says
        rep = thm1_constants(power_coeff("0", 0.0, 1.2), AL, T=1.0)
        assert rep.C0 == 0.0 and rep.C1 == 0.0
        assert rep.tail_ok and rep.passed

    def test_envelope_past_the_horizon_is_refused(self):
        # nothing bounds a on (t_max, valid_from), so no tail can be closed
        a = power_coeff("0.01 / (1+t)^3.5", 0.01, 3.5, valid_from=1e4)
        with pytest.raises(EnvelopeError, match="valid_from"):
            thm1_constants(a, AL, T=1.0)
        with pytest.raises(EnvelopeError, match="valid_from"):
            thm3_constants(a, AL)

    def test_weak_decay_reports_infinite_C1(self):
        # decay beyond t^-(1+alpha) but not t^-(2+alpha): C0 finite, C1 not
        a = power_coeff("0.01 / (1+t)^2", 0.01, 2.0)
        rep = thm1_constants(a, AL, T=1.0)
        assert math.isfinite(rep.C0)
        assert math.isinf(rep.C1)
        assert not rep.tail_ok
        assert not rep.passed

    def test_rejects_bad_split_time(self, slow_decay):
        with pytest.raises(ValueError, match="split time"):
            thm1_constants(slow_decay, AL, T=0.0)
        with pytest.raises(ValueError, match="split time"):
            thm1_constants(slow_decay, AL, T=500.0)

    def test_near_unit_constant_is_inconclusive(self, slow_decay):
        k0 = thm1_constants(slow_decay, AL, T=1.0).k
        lam = 1.0 / k0
        a = power_coeff(f"{lam!r} * (0.01 / (1+t)^3.5)", lam * 0.01, 3.5)
        rep = thm1_constants(a, AL, T=1.0)
        assert rep.k_status == "inconclusive"
        assert not rep.passed
        big = power_coeff(f"{1.2 * lam!r} * (0.01 / (1+t)^3.5)",
                          1.2 * lam * 0.01, 3.5)
        assert thm1_constants(big, AL, T=1.0).k_status == "fail"


# --------------------------------------------------------------------------
# weighted-origin constants
# --------------------------------------------------------------------------

class TestWeightedOriginConstants:
    def test_matches_adaptive_quadrature(self, origin_quadratic):
        rep = thm2_constants(origin_quadratic, AL, T=1.0)
        f = lambda s: 0.01 * s ** 2 / (1 + s) ** 6
        k4 = (1.0 / sp_gamma(1.5)
              * (quad(lambda s: f(s) * s ** (-1 - AL), 0, 1,
                      epsabs=1e-16, epsrel=1e-13)[0]
                 + quad(lambda s: f(s) * s ** AL, 1, HOR,
                        epsabs=1e-16, epsrel=1e-13)[0]
                 + env_tail(0.01, 4.0, AL, HOR)))
        assert rep.k4 == pytest.approx(k4, rel=1e-10)
        assert rep.origin_exponent == pytest.approx(2.0, abs=1e-3)
        assert rep.tail_ok and rep.passed

    def test_zero_coefficient(self, zero_coeff):
        rep = thm2_constants(zero_coeff, AL, T=1.0)
        assert rep.k4 == 0.0
        assert math.isinf(rep.origin_exponent)

    def test_nonvanishing_origin_rejected(self):
        # a(0) != 0 makes the s^-(1+alpha) weight divergent
        a = power_coeff("0.01 * exp(-t)", 0.05, 4.0)
        with pytest.raises(ValueError, match=r"near 0"):
            thm2_constants(a, AL, T=1.0)
        try:
            thm2_constants(a, AL, T=1.0)
        except ValueError as err:
            assert "t^0.0" in str(err) or "t^-0.0" in str(err)

    def test_barely_integrable_origin(self):
        # |a| ~ t near 0 converges against s^-1.5 (exponent 1 > alpha)
        a = power_coeff("0.01 * t / (1+t)^4.5", 0.01, 3.5)
        rep = thm2_constants(a, AL, T=1.0)
        f = lambda s: 0.01 * s / (1 + s) ** 4.5
        ref = (quad(lambda s: f(s) * s ** (-1 - AL), 0, 1,
                    epsabs=1e-16, epsrel=1e-13)[0]
               + quad(lambda s: f(s) * s ** AL, 1, HOR,
                      epsabs=1e-16, epsrel=1e-13)[0]
               + env_tail(0.01, 3.5, AL, HOR)) / sp_gamma(1.5)
        assert rep.origin_exponent == pytest.approx(1.0, abs=1e-3)
        assert rep.k4 == pytest.approx(ref, rel=1e-7)


# --------------------------------------------------------------------------
# linear-growth constants: chi and k3
# --------------------------------------------------------------------------

def chi_oracle_at(f, t):
    v, _ = quad(f, 0, t, weight="alg", wvar=(AL - 1, AL - 1),
                epsabs=1e-15, epsrel=1e-13)
    return t ** (1 - AL) * v


def chi_oracle_sup(f, lo=1e-4, hi=HOR, n=3000):
    ts = np.geomspace(lo, hi, n)
    vals = np.array([chi_oracle_at(f, t) for t in ts])
    i = int(vals.argmax())
    br = (ts[max(0, i - 1)], ts[min(n - 1, i + 1)])
    m = minimize_scalar(lambda t: -chi_oracle_at(f, t), bounds=br,
                        method="bounded", options={"xatol": 1e-12})
    return max(float(vals[i]), -float(m.fun))


class TestLinearGrowthConstants:
    def test_chi_and_k3_match_bruteforce_oracle(self, heavy_tail):
        rep = thm3_constants(heavy_tail, AL)
        f = lambda s: 0.005 / (1 + s) ** 2.5
        chi_ref = chi_oracle_sup(f)
        wl1_ref = (quad(f, 0, HOR, weight="alg", wvar=(AL - 1, 0),
                        epsabs=1e-15, epsrel=1e-13)[0]
                   + env_tail(0.005, 2.5, AL - 1, HOR))
        k3_ref = (wl1_ref + chi_ref) / sp_gamma(AL)
        assert rep.chi == pytest.approx(chi_ref, rel=1e-8)
        assert rep.k3 == pytest.approx(k3_ref, rel=1e-8)
        assert rep.moment_ok  # first moment finite: decay 2.5 > 2
        # the certificate chain needs decay beyond 3 - alpha = 2.5, so it
        # diverges here even though the scanned sup stays bounded
        assert not rep.sup_ok
        assert math.isinf(rep.sup_chain_bound)
        assert math.isfinite(rep.sup_value)
        assert rep.passed  # pass tracks k3 alone

    def test_zero_coefficient(self, zero_coeff):
        rep = thm3_constants(zero_coeff, AL)
        assert rep.chi == 0.0 and rep.k3 == 0.0
        assert rep.moment_ok and rep.sup_ok

    def test_sup_certificate_with_fast_decay(self, slow_decay):
        rep = thm3_constants(slow_decay, AL)
        assert rep.sup_ok
        assert rep.sup_value <= rep.sup_chain_bound

    def test_clamped_power_coefficient_respects_chain_bound(self):
        # |a| = A/t^alpha clamped near 0 and cut at the horizon; chi must
        # stay below the chain value (1/al)*sup + L1 tail + A 2^(1-al)/al
        A = 0.01
        ts = np.geomspace(1e-6, 98.0, 48)
        vals = A / ts ** AL
        pts = np.concatenate([[[0.0, vals[0]]],
                              np.column_stack([ts, vals]),
                              [[99.0, 0.0], [HOR, 0.0]]])
        a = Coefficient.from_samples(pts, envelope=TailModel("power", 0.0, 6.0, 99.0))
        rep = thm3_constants(a, AL)
        chain = (vals[0] / AL
                 + quad(lambda s: float(a(s)), 1.0, 99.0, limit=400,
                        points=list(ts[ts > 1.0]))[0]
                 + A * 2 ** (1 - AL) / AL)
        assert 0.0 < rep.chi <= chain

    def test_zero_envelope_closes_the_sup_chain(self):
        # A = 0 closes the s^(2-alpha) tail at any p, so the chain bound
        # is the zero coefficient's 0, not inf
        rep = thm3_constants(power_coeff("0", 0.0, 2.0), AL)
        assert rep.sup_ok and rep.sup_chain_bound == 0.0

    def test_rejects_divergent_weighted_mass(self):
        a = power_coeff("0.01 / (1+t)^0.3", 0.01, 0.3)
        with pytest.raises(ValueError, match="decays like"):
            thm3_constants(a, AL)


@pytest.mark.parametrize("constants, name", [
    (thm1_constants, "slow_decay"),
    (thm1_constants, "mean_zero_coeff"),
    (thm2_constants, "origin_quadratic"),
    (thm2_constants, "slow_decay"),  # refused at the origin at every T
])
def test_a_sequence_of_splits_reports_each_split_alone(request, constants, name):
    # in-range splits, a repeat, and splits outside (0, t_max) that raise
    a = request.getfixturevalue(name)
    splits = [0.5, 1.0, 0.0, 3.7, HOR, 150.0, 1.0, 42.0]
    batch = constants(a, AL, splits)
    assert len(batch) == len(splits)
    for T, got in zip(splits, batch):
        try:
            want = constants(a, AL, T)
        except ValueError as e:
            assert isinstance(got, ValueError) and str(got) == str(e)
        else:
            assert got == want


# --------------------------------------------------------------------------
# integrability profile
# --------------------------------------------------------------------------

class TestIntegrabilityProfile:
    def test_mean_zero_and_unique_zero(self, mean_zero_coeff, mean_zero_profile):
        p = mean_zero_profile
        assert p.mean_zero
        # the mean the flag reads, on the profile's own rule (see the next test)
        a = mean_zero_coeff
        mean = _weighted_moment(lambda s: np.asarray(a(s), dtype=float), 0.0, 0.0, HOR,
                                _breakpoints(a, 0.0, HOR))
        assert abs(mean) < 1e-8
        assert p.n_zeros == 1
        assert p.t0 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("text, A, p", [
        ("0.01 * (1 - t) * exp(-t)", 7.0, 6.0),
        # hundreds of sign changes: more nodes than one call of a takes
        ("0.01 * sin(20 * t) * exp(-t / 20)", 1e9, 6.0),
    ])
    def test_mean_and_mass_share_one_rule_call(self, text, A, p, monkeypatch):
        a = power_coeff(text, A, p)
        grid = make_graded_grid(HOR, 512)
        zs = _breakpoints(a, 0.0, HOR)
        mean = _weighted_moment(lambda s: np.asarray(a(s), dtype=float), 0.0, 0.0, HOR, zs)
        mass = _weighted_moment(lambda s: np.abs(a(s)), 0.0, 0.0, HOR, zs)
        rules, sizes = [], []
        moments = hyp_module._moments

        def counted(fn, *args):
            def calls(s):
                sizes.append(s.size)
                return fn(s)
            out = moments(calls, *args)
            rules.append(out)
            return out

        monkeypatch.setattr(hyp_module, "_moments", counted)
        prof = lemma1_profile(a, AL, grid=grid)
        # one rule call reads both rows; each block of nodes is one call of a
        [rows] = rules
        assert len(sizes) == math.ceil(sum(sizes) / hyp_module._NODE_CAP)
        assert max(sizes) <= hyp_module._NODE_CAP
        assert rows.shape == (2, 1, 1)
        assert (rows[0, 0, 0], rows[1, 0, 0]) == (mean, mass)
        tail = envelope_tail_integral(a.envelope, 0.0, HOR)
        assert prof.mean_zero == (math.isfinite(tail) and abs(mean) <= 1e-6 * (1.0 + mass) + tail)

    def test_envelopes_non_increasing(self, mean_zero_profile):
        p = mean_zero_profile
        for g in (p.B_star, p.C_star):
            assert np.all(np.diff(g.values) <= 1e-15)

    def test_star_origin_equals_sup_norm(self, mean_zero_profile):
        p = mean_zero_profile
        assert p.C_star.values[0] == p.c_sup
        # for p <= 2 nothing bounds C past the horizon, so its sup reads inf
        # with its norms, and so does C* at the horizon
        slow = lemma1_profile(power_coeff("0.01 / (1+t)^1.5", 0.01, 1.5), AL,
                              grid=make_graded_grid(HOR, 1024))
        assert slow.C_star.values[0] == slow.c_sup == math.inf
        assert math.isinf(slow.c_l1) and math.isinf(slow.c_star_l1) and math.isinf(slow.e_l1)
        assert slow.C_star.values[-1] == math.inf

    def test_scalar_norms_finite_and_flags(self, mean_zero_profile):
        p = mean_zero_profile
        # Lemma 1's intermediate conditions: these norms are finite
        for v in (p.c_l1, p.c_l2, p.c_sup, p.c_star_l1, p.e_l1):
            assert math.isfinite(v) and v > 0.0

    def test_convolution_matches_quadrature(self, mean_zero_profile):
        p = mean_zero_profile
        g = p.C.grid
        cvals = p.C.pointwise_values()
        fn = lambda s: 0.01 * (1 - s) * np.exp(-s)
        for frac in (0.1, 0.45, 0.9):
            j = int(frac * g.n)
            t = g.nodes[j]
            ref = quad(lambda s: fn(s) * (t - s) ** (AL - 1), 0, t,
                       epsabs=1e-14, epsrel=1e-12, limit=400)[0]
            # mean-zero integrand: the value is a near-cancellation, so the
            # grid convolution only carries a few digits of it
            assert cvals[j] == pytest.approx(ref, rel=1e-3, abs=1e-10)

    def test_multiple_sign_changes_flagged_not_fatal(self):
        a = power_coeff("0.001 * sin(t) * exp(-t)", 1.0, 6.0)
        p = lemma1_profile(a, AL)
        assert p.n_zeros > 1
        assert math.isnan(p.t0)

    def test_zero_coefficient_profile(self, zero_coeff):
        p = lemma1_profile(zero_coeff, AL)
        assert p.c_l1 == 0.0 and p.c_sup == 0.0 and p.e_l1 == 0.0
        assert p.mean_zero

    def test_json_reports_scalars(self, mean_zero_profile):
        d = json_ready(mean_zero_profile)
        for key in ("c_l1", "c_l2", "c_sup", "c_star_l1", "envelope",
                    "e_l1", "mean_zero", "n_zeros", "t0"):
            assert key in d
        # the profile's grid functions stay out
        assert not {"B_star", "C", "C_star"} & set(d)


# --------------------------------------------------------------------------
# contraction constants from the profile
# --------------------------------------------------------------------------

def synthetic_profile(c_sup=0.3, c_star_l1=0.2, c_l1=0.1, c_l2=0.1, e_l1=0.1):
    g = make_graded_grid(t_max=10.0, n=16)
    z = GridFunction(g, np.zeros(g.n + 1))
    return Lemma1Profile(
        envelope=TailModel("power", 0.0, 6.0, 1.0), B_star=z, C=z, C_star=z,
        c_l1=c_l1, c_l2=c_l2, c_sup=c_sup, c_star_l1=c_star_l1, e_l1=e_l1,
        mean_zero=True, n_zeros=1, t0=1.0,
    )


class TestProfileConstants:
    def test_displayed_arithmetic(self):
        rep = lemma2_constants(synthetic_profile())
        assert rep.k1 == pytest.approx(0.7, abs=1e-15)
        assert rep.k2 == pytest.approx(max(0.3 + 0.1, 0.1 + 0.1), abs=1e-15)
        assert rep.gamma == pytest.approx(2.0 / 0.6, rel=1e-15)
        assert rep.pass_k1 and rep.pass_k2
        # the comparison-scale inequality the gamma form must satisfy
        assert 1.0 + 2.0 * rep.gamma * 0.2 < rep.gamma

    def test_report_carries_what_check_writes(self, mean_zero_profile):
        rep = lemma2_constants(mean_zero_profile)
        d = json_ready(rep)
        assert d["mean_zero"] is True and d["mean_zero"] is mean_zero_profile.mean_zero
        assert d["passed"] is rep.pass_k1 is True
        failing = lemma2_constants(synthetic_profile(c_sup=0.7))
        assert failing.passed is failing.pass_k1 is False

    def test_zero_profile_gives_gamma_two(self, zero_coeff):
        rep = lemma2_constants(lemma1_profile(zero_coeff, AL))
        assert rep.k1 == 0.0 and rep.k2 == 0.0 and rep.gamma == 2.0

    def test_infeasible_scale_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            lemma2_constants(synthetic_profile(c_star_l1=0.6))

    def test_pipeline_constants_cross_checked(self, mean_zero_profile):
        # ||C||_inf by direct maximization of the quadrature oracle
        rep = lemma2_constants(mean_zero_profile)
        fn = lambda s: 0.01 * (1 - s) * np.exp(-s)
        ts = np.geomspace(1e-3, 60.0, 800)
        vals = []
        for t in ts:
            v = quad(fn, 0, t, weight="alg", wvar=(0.0, AL - 1),
                     epsabs=1e-13, epsrel=1e-10, limit=400)[0]
            vals.append(abs(v))
        c_sup_ref = max(vals)
        assert mean_zero_profile.c_sup == pytest.approx(c_sup_ref, rel=1e-3)
        assert rep.k1 == pytest.approx(
            mean_zero_profile.c_sup + 2 * mean_zero_profile.c_star_l1, rel=1e-14)
        assert rep.k1 < 1.0 and rep.pass_k1


# --------------------------------------------------------------------------
# homogeneity and monotone dominance
# --------------------------------------------------------------------------

class TestScalingProperties:
    LAM = 3.7

    def test_split_time_homogeneity(self, slow_decay):
        base = thm1_constants(slow_decay, AL, T=1.0)
        lam = self.LAM
        scaled = power_coeff(f"{lam!r} * (0.01 / (1+t)^3.5)", lam * 0.01, 3.5)
        rep = thm1_constants(scaled, AL, T=1.0)
        assert rep.C0 == pytest.approx(lam * base.C0, rel=1e-12)
        assert rep.C1 == pytest.approx(lam * base.C1, rel=1e-12)
        assert rep.k == pytest.approx(lam * base.k, rel=1e-12)

    def test_weighted_origin_homogeneity(self, origin_quadratic):
        base = thm2_constants(origin_quadratic, AL, T=1.0)
        lam = self.LAM
        scaled = power_coeff(f"{lam!r} * (0.01 * t^2 / (1+t)^6)",
                             lam * 0.01, 4.0)
        rep = thm2_constants(scaled, AL, T=1.0)
        assert rep.k4 == pytest.approx(lam * base.k4, rel=1e-12)

    def test_linear_growth_homogeneity(self, heavy_tail):
        base = thm3_constants(heavy_tail, AL)
        lam = self.LAM
        scaled = power_coeff(f"{lam!r} * (0.005 / (1+t)^2.5)",
                             lam * 0.005, 2.5)
        rep = thm3_constants(scaled, AL)
        assert rep.chi == pytest.approx(lam * base.chi, rel=1e-12)
        assert rep.k3 == pytest.approx(lam * base.k3, rel=1e-12)

    def test_profile_constants_homogeneity(self, mean_zero_profile, mean_zero_coeff):
        base = lemma2_constants(mean_zero_profile)
        lam = self.LAM
        scaled = power_coeff(f"{lam!r} * (0.01 * (1 - t) * exp(-t))",
                             lam * 7.0, 6.0)
        rep = lemma2_constants(lemma1_profile(scaled, AL))
        assert rep.k1 == pytest.approx(lam * base.k1, rel=1e-12)
        assert rep.k2 == pytest.approx(lam * base.k2, rel=1e-12)

    def test_monotone_under_domination(self, slow_decay, origin_quadratic,
                                       heavy_tail):
        tol = 1e-8
        small = power_coeff("0.01 * t / (1+t)^4.5", 0.01, 3.5)
        s, b = thm1_constants(small, AL, 1.0), thm1_constants(slow_decay, AL, 1.0)
        assert s.C0 <= b.C0 + tol and s.C1 <= b.C1 + tol and s.k <= b.k + tol

        small = power_coeff("0.01 * t^2 / (1+t)^6.5", 0.01, 4.5)
        s, b = thm2_constants(small, AL, 1.0), thm2_constants(origin_quadratic, AL, 1.0)
        assert s.k4 <= b.k4 + tol

        small = power_coeff("0.005 / (1+t)^3", 0.005, 3.0)
        s, b = thm3_constants(small, AL), thm3_constants(heavy_tail, AL)
        assert s.chi <= b.chi + tol and s.k3 <= b.k3 + tol

    def test_profile_monotone_under_domination(self, mean_zero_profile):
        dominating = power_coeff("0.01 * (1 + t) * exp(-t)", 10.0, 6.0)
        big = lemma2_constants(lemma1_profile(dominating, AL))
        small = lemma2_constants(mean_zero_profile)
        assert small.k1 <= big.k1 + 1e-8
        assert small.k2 <= big.k2 + 1e-8


# --------------------------------------------------------------------------
# divergence demonstration
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bump():
    pts = np.array([[0.0, 0.0], [0.5 - 1e-4, 0.0], [0.5, 1.0],
                    [2.0, 1.0], [2.0 + 1e-4, 0.0], [3.0, 0.0]])
    return Coefficient.from_samples(pts, envelope=TailModel("power", 16.0, 4.0, 1.0))


class TestDivergenceDemonstration:
    def test_bump_exceeds_closed_form_bound(self, bump):
        ts = np.geomspace(1.0, 100.0, 9)
        rows = f_l1_divergence(bump, AL, T=1.0, t_samples=ts)
        mass = 1.5  # the ramps sit just outside the [0.5, 2] window
        for r in rows:
            expect = ((2 * r["t"] - 0.5) ** AL - 1.5 ** AL) / (2 * AL) * mass
            assert r["lower_bound"] == pytest.approx(expect, rel=2e-3, abs=1e-12)
            assert r["integral"] >= r["lower_bound"] - 1e-12
        # unbounded growth: the running integral keeps climbing
        vals = [r["integral"] for r in rows]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] > 4.0 * vals[1]

    def test_non_decreasing_in_t(self, bump):
        rows = f_l1_divergence(bump, AL, T=1.0,
                               t_samples=np.linspace(2.0, 30.0, 8))
        vals = [r["integral"] for r in rows]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))

    def test_zero_coefficient_rows(self, zero_coeff):
        rows = f_l1_divergence(zero_coeff, AL, T=1.0, t_samples=[1.0, 5.0])
        assert rows == [{"t": 1.0, "integral": 0.0, "lower_bound": 0.0},
                        {"t": 5.0, "integral": 0.0, "lower_bound": 0.0}]

    def test_vacuous_window_rejected(self):
        pts = np.array([[0.0, 0.0], [9.9, 0.0], [10.0, 1.0],
                        [20.0, 1.0], [20.1, 0.0], [30.0, 0.0]])
        far = Coefficient.from_samples(pts, envelope=TailModel("power", 1e6, 4.0, 30.0))
        with pytest.raises(ValueError, match="no mass"):
            f_l1_divergence(far, AL, T=1.0, t_samples=[1.0, 50.0])

    def test_samples_before_anchor_rejected(self, bump):
        with pytest.raises(ValueError, match="anchor"):
            f_l1_divergence(bump, AL, T=1.0, t_samples=[0.5, 2.0])

    @pytest.mark.parametrize("tau", [0.7, 1.0, 2.0, 2.00005, 2.0002, 4.0, 5.0, 200.0, 400.0])
    def test_f_matches_its_closed_form(self, bump, tau):
        # F(tau) = int_0^tau |a(u)| (tau-u)^(alpha-1) du, term by term on the
        # linear pieces of the bump at 30 digits; tau past the ramp at 2 puts
        # a cut of the right half inside its Gauss-Jacobi sliver
        with mpmath.workdps(30):
            e = mpmath.mpf(AL) - 1
            pts = [(mpmath.mpf(u), mpmath.mpf(v)) for u, v in bump.samples]
            want = mpmath.mpf(0)
            x = mpmath.mpf(tau)
            for (u0, a0), (u1, a1) in zip(pts[:-1], pts[1:]):
                if u0 >= x:
                    break
                slope = (a1 - a0) / (u1 - u0)
                amp = a0 + slope * (x - u0)
                prim = lambda v: amp * v ** (e + 1) / (e + 1) - slope * v ** (e + 2) / (e + 2)
                want += prim(x - u0) - prim(x - min(u1, x))
        zs = _breakpoints(bump, 0.0, 800.0)
        F = _conv_function(lambda u: np.abs(bump(u)), 0.0, AL - 1.0, 400.0, zs)
        assert F(np.array([tau]))[0] == pytest.approx(float(want), rel=1e-13)

    # integral_1^t F(2s) ds for the bump by mpmath at 30 digits; F(2s) has
    # kinks at half the bump's corners, which the outer panels must cut at
    @pytest.mark.parametrize("t, want", [(2.0, 1.2550070107255340695),
                                         (10.0, 5.270384202432324645),
                                         (100.0, 19.923399398110750492)])
    def test_running_integral_matches_a_high_precision_oracle(self, bump, t, want):
        rows = f_l1_divergence(bump, AL, T=1.0, t_samples=[t])
        assert rows[0]["integral"] == pytest.approx(want, rel=1e-6)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

class TestReportSerialization:
    def test_split_time_report_round_trip(self, slow_decay, tmp_path):
        rep = thm1_constants(slow_decay, AL, T=1.0)
        write_json(tmp_path / "thm1.json", rep)
        d = json.loads((tmp_path / "thm1.json").read_text())
        assert d["k"] == rep.k and d["T"] == 1.0 and d["tail_ok"] is True

    def test_infinite_values_marked(self):
        a = power_coeff("0.01 / (1+t)^2", 0.01, 2.0)
        d = json_ready(thm1_constants(a, AL, T=1.0))
        assert d["C1"] == "inf"

    def test_linear_growth_report_keys(self, heavy_tail):
        d = json_ready(thm3_constants(heavy_tail, AL))
        for key in ("chi", "k3", "moment_ok", "sup_ok", "k_status",
                    "weighted_l1", "first_moment", "horizon"):
            assert key in d
