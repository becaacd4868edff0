"""Worked examples: maxima indicator, cumulative family, counterexamples."""

import math

import numpy as np
import pytest
from scipy import stats

from poisson_ou import (
    GroundSpace,
    MaximaModel,
    SemigroupEngine,
    check_talagrand,
    counterexample_fk,
    counterexample_scan,
    exponential_functional,
    indicator_family,
    maxima_closed_forms,
    maxima_monte_carlo,
    near_optimality_scan,
    near_optimality_sides,
    one_dim_bound_comparison,
    one_dim_cumulative,
    talagrand_bound,
    talagrand_crosscheck,
    variance,
)
from poisson_ou.casestudies import _invert_tail
from poisson_ou.errors import PreconditionError
from poisson_ou.functionals import PROP_D2F_GE0, PROP_DF_LE0, certify_monotonicity

from conftest import engine_for


class TestMaxima:
    @pytest.mark.parametrize("m", [0.5, 1.0, 5.0, 20.0])
    def test_closed_forms(self, m):
        forms = maxima_closed_forms(MaximaModel(m=m))
        em = math.exp(-m)
        assert forms["variance"] == pytest.approx(em * (1 - em), abs=1e-12)
        assert forms["poincare_rhs"] == pytest.approx(m * em, abs=1e-12)
        assert forms["log_norm_ratio"] == pytest.approx(m / 2.0, abs=1e-12)

    def test_norm_relation(self):
        # ||D F||_2 = sqrt(||D F||_1) for an indicator derivative
        forms = maxima_closed_forms(MaximaModel(m=2.0))
        assert forms["dx_norm_l2"] == pytest.approx(
            math.sqrt(forms["dx_norm_l1"]), abs=1e-15
        )

    def test_talagrand_asymptotic(self):
        # talagrand_rhs ~ 4 e^-m; within 16% at m = 50
        m = 50.0
        forms = maxima_closed_forms(MaximaModel(m=m))
        assert abs(forms["talagrand_rhs"] / (4.0 * math.exp(-m)) - 1.0) < 0.16

    def test_talagrand_to_variance_ratio(self):
        for m in (10.0, 20.0, 50.0):
            forms = maxima_closed_forms(MaximaModel(m=m))
            assert forms["talagrand_rhs"] / forms["variance"] <= 5.0

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            MaximaModel(m=0.0)

    def test_engine_crosscheck(self):
        # the indicator depends only on the outside count: model it as a
        # one-atom space with weight m and F = 1{count >= 1}
        m = 1.5
        engine = engine_for(m)
        from poisson_ou import from_rule

        F = from_rule(lambda c: 1.0 if c[0] >= 1 else 0.0)
        forms = maxima_closed_forms(MaximaModel(m=m))
        assert variance(engine, F) == pytest.approx(forms["variance"], abs=1e-10)

    def test_invert_tail(self):
        tail = lambda r: math.exp(-2.0 * r)
        for u in (0.9, 0.5, 0.1, 1e-3):
            r = _invert_tail(tail, u)
            assert tail(r) == pytest.approx(u, rel=1e-9)

    def test_monte_carlo_routes_agree(self):
        tail = lambda r: min(1.0, math.exp(-r))
        model = MaximaModel(m=1.0, mode="monte-carlo", radial_tail=tail)
        out = maxima_monte_carlo(model, n_points_intensity=10.0, t=2.3,
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

    def test_monte_carlo_needs_tail(self):
        with pytest.raises(PreconditionError):
            maxima_monte_carlo(MaximaModel(m=1.0), 10.0, 1.0, 100, 0)


class TestOneDimFamily:
    def test_cumulative_values(self):
        G = one_dim_cumulative(lambda j: 1.0 if j <= 1 else 0.0, 1.0)
        assert [G((n,)) for n in range(5)] == [0.0, 1.0, 2.0, 2.0, 2.0]

    def test_rejects_bad_g(self):
        with pytest.raises(PreconditionError):
            one_dim_cumulative(lambda j: -1.0, 1.0)
        with pytest.raises(PreconditionError):
            one_dim_cumulative(lambda j: float(j), 1.0)

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
        out = talagrand_crosscheck(engine, M)
        rec = out["comparison"]
        # the checker's bound equals the worked one-atom form
        assert out["talagrand_rhs_engine"] == pytest.approx(
            rec["talagrand_rhs"], rel=1e-10
        )
        rep = check_talagrand(engine, indicator_family(M, lam))
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
            assert cert.valid and cert.kind == "exact"
        assert F.bounded_by == 1.0
        assert F((0,)) == 1.0
