"""Worked examples: maxima indicator, cumulative family, counterexamples."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from poisson_ou import (
    GroundSpace,
    SemigroupEngine,
    check_talagrand,
    counterexample_fk,
    counterexample_scan,
    exponential_functional,
    maxima_closed_forms,
    near_optimality_scan,
    near_optimality_sides,
    one_dim_bound_comparison,
    one_dim_cumulative,
    talagrand_bound,
    variance,
)
from poisson_ou.errors import PreconditionError
from poisson_ou.functionals import PROP_D2F_GE0, PROP_DF_LE0, certify_monotonicity

from conftest import engine_for
from maxima_mc import _invert_tail, maxima_monte_carlo


class TestMaxima:
    @pytest.mark.parametrize("m", [0.5, 1.0, 5.0, 20.0])
    def test_closed_forms(self, m):
        forms = maxima_closed_forms(m)
        em = math.exp(-m)
        assert forms["variance"] == pytest.approx(em * (1 - em), abs=1e-12)
        assert forms["poincare_rhs"] == pytest.approx(m * em, abs=1e-12)
        assert forms["log_norm_ratio"] == pytest.approx(m / 2.0, abs=1e-12)

    def test_norm_relation(self):
        # ||D F||_2 = sqrt(||D F||_1) for an indicator derivative
        forms = maxima_closed_forms(2.0)
        assert forms["dx_norm_l2"] == pytest.approx(
            math.sqrt(forms["dx_norm_l1"]), abs=1e-15
        )

    def test_talagrand_asymptotic(self):
        # talagrand_rhs ~ 4 e^-m; within 16% at m = 50
        m = 50.0
        forms = maxima_closed_forms(m)
        assert abs(forms["talagrand_rhs"] / (4.0 * math.exp(-m)) - 1.0) < 0.16

    def test_talagrand_to_variance_ratio(self):
        for m in (10.0, 20.0, 50.0):
            forms = maxima_closed_forms(m)
            assert forms["talagrand_rhs"] / forms["variance"] <= 5.0

    def test_rejects_nonpositive_m(self):
        for m in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="m must be positive"):
                maxima_closed_forms(m)

    def test_engine_crosscheck(self):
        # the indicator depends only on the outside count: model it as a
        # one-atom space with weight m and F = 1{count >= 1}
        m = 1.5
        engine = engine_for(m)
        from poisson_ou import from_rule

        F = from_rule(lambda c: 1.0 if c[0] >= 1 else 0.0)
        forms = maxima_closed_forms(m)
        assert variance(engine, F) == pytest.approx(forms["variance"], abs=1e-10)

    def test_invert_tail(self):
        tail = lambda r: math.exp(-2.0 * r)
        for u in (0.9, 0.5, 0.1, 1e-3):
            r = _invert_tail(tail, u)
            assert tail(r) == pytest.approx(u, rel=1e-9)

    def test_monte_carlo_routes_agree(self):
        tail = lambda r: min(1.0, math.exp(-r))
        out = maxima_monte_carlo(tail, n_points_intensity=10.0, t=2.3,
                                 replications=100_000, seed=0)
        closed = out["closed_forms"]
        for route in ("radial_reduction", "full_sampling"):
            r = out[route]
            assert abs(r["variance"] - closed["variance"]) <= 4 * r["variance_stderr"]
            assert abs(r["poincare_rhs"] - closed["poincare_rhs"]) <= (
                4 * r["poincare_rhs_stderr"]
            )
        # the two routes agree with each other within combined error
        a, b = out["radial_reduction"], out["full_sampling"]
        comb = math.hypot(a["variance_stderr"], b["variance_stderr"])
        assert abs(a["variance"] - b["variance"]) <= 4 * comb

    def test_full_sampling_draws_are_pinned(self):
        # written by the earlier form that drew each replication's radii in a
        # Python loop; one draw of all of them is the same stream
        tail = lambda r: min(1.0, math.exp(-r))
        out = maxima_monte_carlo(tail, n_points_intensity=10.0, t=2.3, replications=2000,
                                 seed=7)
        assert out["full_sampling"] == {
            "mean": 0.6165, "variance": 0.23654602301150576,
            "variance_stderr": 0.0025339541277686582, "poincare_rhs": 0.38449266567695245,
            "poincare_rhs_stderr": 0.01090348973805628}


class TestOneDimFamily:
    def test_cumulative_values(self):
        G = one_dim_cumulative(lambda j: 1.0 if j <= 1 else 0.0)
        assert [G((n,)) for n in range(5)] == [0.0, 1.0, 2.0, 2.0, 2.0]

    def test_rejects_bad_g(self):
        with pytest.raises(PreconditionError):
            one_dim_cumulative(lambda j: -1.0)
        with pytest.raises(PreconditionError):
            one_dim_cumulative(lambda j: float(j))

    def test_norms_closed_form_indicator(self):
        # ||g(X)||_1 = P(X <= M) = e^-lam (1 + lam) for M = 1
        lam, M = 2.0, 1
        rec = one_dim_bound_comparison(lambda j: 1.0 if j <= M else 0.0, lam)
        expected = math.exp(-lam) * (1.0 + lam)
        assert rec["g_norm_l1"] == pytest.approx(expected, abs=1e-12)
        assert rec["g_norm_l2"] == pytest.approx(math.sqrt(expected), abs=1e-12)
        assert rec["log_norm_ratio"] == pytest.approx(
            -0.5 * math.log(expected), abs=1e-12
        )

    def test_denominator_diverges_along_lambda(self):
        ratios = [
            one_dim_bound_comparison(lambda j: 1.0 if j <= 1 else 0.0, lam)[
                "log_norm_ratio"
            ]
            for lam in (1.0, 5.0, 10.0, 20.0)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_l1l2_eventually_beats_poincare(self):
        # once the log ratio exceeds 1 the L1-L2 bound is the smaller one
        rec = one_dim_bound_comparison(lambda j: 1.0 if j <= 1 else 0.0, 10.0)
        assert rec["log_norm_ratio"] > 1.0
        assert rec["talagrand_rhs"] < rec["poincare_rhs"]
        assert rec["talagrand_rhs"] / rec["poincare_rhs"] == pytest.approx(
            2.0 / (1.0 + rec["log_norm_ratio"]), rel=1e-12
        )

    def test_bound_holds_on_family(self):
        for lam in (1.0, 5.0, 20.0):
            rec = one_dim_bound_comparison(lambda j: 1.0 if j <= 3 else 0.0, lam)
            assert rec["variance"] <= rec["talagrand_rhs"] + 1e-9

    def test_engine_crosscheck(self):
        lam, M = 3.0, 2
        engine = engine_for(lam)
        g = lambda j: 1.0 if j <= M else 0.0
        rec = one_dim_bound_comparison(g, lam)
        G = one_dim_cumulative(g)
        # the checker's bound equals the worked one-atom form
        assert talagrand_bound(engine, G) == pytest.approx(rec["talagrand_rhs"], rel=1e-10)
        rep = check_talagrand(engine, G)
        assert rep.verdict == "holds"


class TestCounterexample:
    @pytest.mark.parametrize("k", range(2, 31))
    def test_derivative_identity(self, k):
        # E[DF_k^2] = e^-1 / (k-1)!
        rec = counterexample_fk(k)
        assert rec["e_dF_sq"] == pytest.approx(
            math.exp(-1.0) / math.factorial(k - 1), rel=1e-12
        )

    def test_variance_identity(self):
        rec = counterexample_fk(5)
        expected = stats.poisson.cdf(4, 1.0) * stats.poisson.sf(4, 1.0)
        assert rec["variance"] == pytest.approx(expected, rel=1e-14)

    def test_ratio_exceeds_one_beyond_k0(self):
        k0, ratios = counterexample_scan(50)
        assert k0 <= 20
        seg = ratios[k0 - 2:]
        assert np.all(seg > 1.0)
        assert np.all(np.diff(seg) > 0.0)

    def test_ratio_finite_past_factorial_overflow(self):
        # from k = 172 on, 1 / pmf(k - 1) overflows and the ratio is taken in logs
        ratios = np.array([counterexample_fk(k)["lhs_over_rhs"] for k in range(170, 401)])
        assert np.all(np.isfinite(ratios))
        assert np.all(np.diff(ratios) > 0.0)

    def test_variance_positive_past_tail_underflow(self):
        # pdtrc(k - 1, 1) flushes to 0 from k = 172; the tail is then taken in logs
        recs = [counterexample_fk(k) for k in range(170, 176)]
        variances = np.array([rec["variance"] for rec in recs])
        assert np.all(variances > 0.0)
        assert np.all(np.diff(variances) < 0.0)
        # the columns give the ratio again while the sides keep enough digits
        for rec in recs[:4]:
            assert rec["variance"] / rec["talagrand_rhs"] == pytest.approx(
                rec["lhs_over_rhs"], rel=1e-8)

    def test_variance_unchanged_where_scipy_tail_is_normal(self):
        from scipy.special import pdtr, pdtrc

        for k in range(2, 171):
            assert pdtrc(k - 1, 1.0) >= np.finfo(float).tiny
            assert counterexample_fk(k)["variance"] == pdtr(k - 1, 1.0) * pdtrc(k - 1, 1.0)

    def test_engine_agrees_with_closed_form(self):
        from poisson_ou import from_rule

        k = 4
        engine = engine_for(1.0)
        F = from_rule(lambda c: 1.0 if c[0] <= k - 1 else 0.0)
        rec = counterexample_fk(k)
        assert variance(engine, F) == pytest.approx(rec["variance"], abs=1e-10)

    def test_k_lower_bound(self):
        with pytest.raises(ValueError):
            counterexample_fk(1)


class TestNearOptimality:
    def test_sides_closed_form(self):
        a, q = 0.5, 2.0
        lhs, rhs = near_optimality_sides(a, q)
        assert lhs == pytest.approx(
            1.0 - a * q * math.exp(-a * q) - math.exp(-a * q), rel=1e-12
        )
        assert rhs == pytest.approx(
            q**2 / (q - 1.0) * (1 - math.exp(-a)) * (1 - math.exp(-(q - 1) * a)),
            rel=1e-12,
        )

    def test_ratio_at_least_one_on_grid(self):
        scan = near_optimality_scan([0.05, 0.1, 0.5, 1.0, 2.0], [1.05, 1.5, 2.0, 3.0])
        assert scan["min_ratio"] >= 1.0

    def test_lhs_keeps_its_relative_precision_for_small_a(self):
        # 1 - (1 + x) e^-x = sum_{k >= 2} (-1)^k (k - 1) x^k / k!, summed in
        # exact rationals at the double x = a q; the difference form was off
        # by 1.5e-4 at a = 1e-12 and read 0 below a = 1e-16
        def series(x):
            x, total, term, k = Fraction(x), Fraction(0), Fraction(x), 1
            while True:
                k += 1
                term = term * x / k
                total += (-1) ** k * (k - 1) * term
                if term < total * Fraction(1, 10**40):
                    return total

        for q in (1.05, 2.0, 3.0):
            for e in range(-170, 1):  # a from 1e-17 to 1, ten per decade
                a = 10.0 ** (e / 10)
                want = series(a * q)
                lhs, _ = near_optimality_sides(a, q)
                error = abs(Fraction(lhs) - want)
                assert error <= want * Fraction(2, 10**14), (a, q)
                if a * q < 1e-4:  # the series, not scipy's gammainc
                    assert error <= 2 * Fraction(math.ulp(float(want))), (a, q)

    def test_small_corner_ratio_near_two(self):
        # Taylor expansion at a, q -> their lower limits: lhs -> (aq)^2/2 and
        # rhs -> (qa)^2, so the ratio approaches 2 from above, never 1
        lhs, rhs = near_optimality_sides(0.05, 1.05)
        assert rhs / lhs == pytest.approx(2.0176, abs=1e-3)
        tiny_lhs, tiny_rhs = near_optimality_sides(1e-6, 1.0 + 1e-6)
        assert tiny_rhs / tiny_lhs == pytest.approx(2.0, abs=1e-4)

    def test_engine_entropy_matches_closed_form(self):
        scan = near_optimality_scan([0.3, 0.5, 0.8], [1.5, 2.0, 2.5], gamma=1.0)
        assert scan["engine_entropy"] == pytest.approx(
            scan["closed_form_entropy"], abs=1e-9
        )

    def test_exponential_functional_signs(self):
        F = exponential_functional(0.5)
        engine = SemigroupEngine(GroundSpace((1.0,)))
        for prop in (PROP_DF_LE0, PROP_D2F_GE0):
            cert = certify_monotonicity(engine, F, prop)
            assert cert.valid and cert.brief() == f"{prop}:exact:ok"
        assert F.bounded_by == 1.0
        assert F((0,)) == 1.0
