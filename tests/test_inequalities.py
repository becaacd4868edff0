"""Inequality checkers against closed-form oracles and property sweeps."""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from poisson_ou import (
    GroundSpace,
    SemigroupEngine,
    check_concentration,
    check_entropy_power,
    check_lsi_failure,
    check_min_form_lsi,
    check_modified_lsi,
    check_pathwise_lemma,
    check_poincare,
    check_restricted_hypercontractivity,
    check_talagrand,
    check_weak_hypercontractivity,
    entropy,
    from_rule,
    l1_variance_bound,
    lsi_failure_ratios,
    talagrand_bound,
)
from poisson_ou import grids, inequalities
from poisson_ou.errors import NonFiniteValueError, PreconditionError

from conftest import (engine_for, pathwise_sweep_draws, random_bounded_functional,
                      random_decreasing_functional)


def exp_functional(a):
    return from_rule(lambda c: math.exp(-a * float(c[0])), name=f"exp(-{a}c)")


def exp_moment(lam, a, q=1.0):
    """E[e^{-q a c}] = exp(lam (e^{-qa} - 1)) for c ~ Poisson(lam)."""
    return math.exp(lam * (math.exp(-q * a) - 1.0))


class TestEntropy:
    def test_closed_form_exponential(self):
        # Ent(F^q) for F = e^{-ac}: gamma * e^{gamma(e^{-qa}-1)} *
        #   (1 - a q e^{-aq} - e^{-aq})
        lam, a, q = 1.0, 0.5, 2.0
        engine = engine_for(lam)
        Fq = from_rule(lambda c: math.exp(-a * q * float(c[0])))
        expected = lam * exp_moment(lam, a, q) * (
            1.0 - a * q * math.exp(-a * q) - math.exp(-a * q)
        )
        assert entropy(engine, Fq) == pytest.approx(expected, abs=1e-12)

    def test_constant_has_zero_entropy(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: 2.0)
        assert entropy(engine, F) == pytest.approx(0.0, abs=1e-12)

    def test_zero_values_use_convention(self):
        # F = 1{c >= 1}: F log F = 0 everywhere under 0 log 0 = 0, so
        # Ent(F) = -m log m with m = P[c >= 1] = 1 - e^-1
        engine = engine_for(1.0)
        F = from_rule(lambda c: 0.0 if c[0] == 0 else 1.0)
        mean = -math.expm1(-1.0)
        assert entropy(engine, F) == pytest.approx(-mean * math.log(mean), abs=1e-12)

    def test_negative_rejected(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: -1.0)
        with pytest.raises(Exception):
            entropy(engine, F)


class TestPoincare:
    def test_linear_saturates(self):
        # Var(c) = lam = E[(Dc)^2] * lam: equality
        engine = engine_for(2.0)
        F = from_rule(lambda c: float(c[0]))
        rep = check_poincare(engine, F)
        assert rep.verdict == "holds"
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_functionals(self, seed):
        engine = engine_for(1.0)
        F = random_bounded_functional(np.random.default_rng(seed))
        rep = check_poincare(engine, F)
        assert rep.verdict == "holds"

    def test_mc_mode(self):
        engine = engine_for(1.0, mode="mc", replications=40_000, seed=2)
        F = exp_functional(0.4)
        rep = check_poincare(engine, F)
        assert rep.verdict in ("holds", "holds-within-stat-error")


class TestModifiedLsi:
    def test_exponential_near_equality_small_a(self):
        engine = engine_for(1.0)
        rep = check_modified_lsi(engine, exp_functional(0.01))
        assert rep.verdict == "holds"
        assert rep.slack < 1e-4 * rep.lhs + 1e-12

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_holds_on_exponentials(self, a, lam):
        rep = check_modified_lsi(engine_for(lam), exp_functional(a))
        assert rep.verdict == "holds"

    def test_requires_positive(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: float(c[0]))  # zero at the origin, not 0*log0-safe
        with pytest.raises(PreconditionError):
            check_modified_lsi(engine, F)


class TestMinFormLsi:
    @pytest.mark.parametrize("a", [0.1, 1.0])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_holds_on_exponentials(self, a, lam):
        rep = check_min_form_lsi(engine_for(lam), exp_functional(a))
        assert rep.verdict == "holds"

    def test_tighter_than_both_branches(self):
        # the min integrand is dominated by either branch alone
        engine = engine_for(1.0)
        F = exp_functional(0.5)
        min_form = check_min_form_lsi(engine, F)
        modified = check_modified_lsi(engine, F)
        assert min_form.lhs == pytest.approx(modified.lhs, abs=1e-12)


class TestPathwiseLemma:
    def test_equality_at_a_equals_b(self):
        (rep,) = check_pathwise_lemma(2.0, 2.0, 1.7)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_b_zero_gives_infinite_rhs(self):
        (rep,) = check_pathwise_lemma(1.0, 0.0, 2.0)
        assert math.isinf(rep.rhs) and rep.lhs > 0

    def test_a_and_b_zero(self):
        (rep,) = check_pathwise_lemma(0.0, 0.0, 2.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_q_two_explicit(self):
        # q = 2: lhs = (a^2-b^2)^2/b^2, rhs = 4 (a-b)^2 max(a/b, 1)^2
        a, b = 3.0, 2.0
        (rep,) = check_pathwise_lemma(a, b, 2.0)
        assert rep.lhs == pytest.approx((a**2 - b**2) ** 2 / b**2, rel=1e-12)
        assert rep.rhs == pytest.approx(4.0 * (a - b) ** 2 * (a / b) ** 2, rel=1e-12)

    def test_near_diagonal_is_stable(self):
        # tight to second order at a = b: naive powers would lose the digits
        a = 1.0 + 1e-9
        (rep,) = check_pathwise_lemma(a, 1.0, 1.5)
        assert rep.verdict == "holds"

    def test_million_draw_sweep(self):
        # the evaluator's violation mask, which every verdict of
        # check_pathwise_lemma is asserted to match
        violated = inequalities._pathwise_eval(*pathwise_sweep_draws(1_000_000))[4]
        assert np.count_nonzero(violated) == 0

    @given(
        a=st.floats(0.0, 50.0),
        b=st.floats(0.0, 50.0),
        q=st.floats(1.001, 5.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_property(self, a, b, q):
        assert check_pathwise_lemma(a, b, q)[0].verdict == "holds"

    @given(
        log_a=st.floats(-300.0, 300.0),
        log_b=st.floats(-300.0, 300.0),
        log_q=st.floats(-9.0, math.log10(299.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_over_magnitudes(self, log_a, log_b, log_q):
        a, b, q = 10.0**log_a, 10.0**log_b, 1.0 + 10.0**log_q
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (rep,) = check_pathwise_lemma(a, b, q)
        assert rep.verdict == "holds"
        assert not (math.isnan(rep.lhs) or math.isnan(rep.rhs))

    def test_nearly_equal_sides_beyond_the_double_range(self):
        # a and b one part in 1e14 apart with b^q far beyond a double: the
        # log sides share q log b ~ 3e4, whose rounding must not split them
        (rep,) = check_pathwise_lemma(6.541656404063829e284, 6.541656404063816e284, 50.0)
        assert rep.parameters["log_scale"] and rep.verdict == "holds"
        assert rep.lhs <= rep.rhs

    @pytest.mark.parametrize("q", [1e150, 1e200, 1e300])
    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.0, 2.0), (1e-3, 1.0)])
    def test_q_whose_square_overflows(self, a, b, q):
        # q^2/(q - 1) overflows from q ~ 1.3e154, and rhs read inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (rep,) = check_pathwise_lemma(a, b, q)
        assert rep.verdict == "holds"
        assert math.isfinite(rep.rhs) and rep.rhs >= rep.lhs
        assert rep.parameters.get("log_scale", False) == (a > 1e-3)
        if a == 1e-3:  # rhs = q^2/(q - 1) (1 - a)(1 - a^(q-1)), lhs = 1
            assert (rep.lhs, rep.rhs) == (1.0, pytest.approx(0.999 * q, rel=1e-12))


#: (a, b, q) and the evaluator's five outputs, as float.hex, recorded with the
#: subset-copy evaluator that preceded the one-pass form; no point whose sides
#: that evaluator left non-finite below the log regime
GOLDEN = Path(__file__).parent / "data" / "pathwise_golden.json"


class TestPathwiseGolden:
    @pytest.mark.parametrize("rel_tol", [1e-12, 0.0])
    def test_table_bit_for_bit(self, monkeypatch, rel_tol):
        monkeypatch.setattr(inequalities, "_REL_TOL", rel_tol)
        data = json.loads(GOLDEN.read_text())
        rows = data["rows"]
        a, b, q = (np.array([float.fromhex(row[k]) for row in rows]) for k in range(3))
        *sides, violated = inequalities._pathwise_eval(a, b, q)
        got = [[float(x).hex() for x in col] for col in sides]
        assert got == [[row[3 + k] for row in rows] for k in range(4)]
        column = data["columns"].index(f"violated_rel_tol_{rel_tol:g}")
        assert violated.tolist() == [row[column] for row in rows]

    def test_one_call_reports_as_one_point_calls(self):
        rows = json.loads(GOLDEN.read_text())["rows"]
        a, b, q = ([float.fromhex(row[k]) for row in rows] for k in range(3))

        def fields(rep):
            sides = (rep.lhs, rep.rhs, rep.slack)
            return [float(x).hex() for x in sides], rep.verdict, rep.parameters

        batch = check_pathwise_lemma(a, b, q)
        assert len(batch) == len(rows)
        assert any(rep.parameters.get("log_scale") for rep in batch)
        for rep, point in zip(batch, zip(a, b, q)):
            (single,) = check_pathwise_lemma(*point)
            assert fields(rep) == fields(single)

    @pytest.mark.parametrize("rel_tol", [1e-12, 0.0])
    def test_sweep_set_digest(self, monkeypatch, rel_tol):
        monkeypatch.setattr(inequalities, "_REL_TOL", rel_tol)
        out = inequalities._pathwise_eval(*pathwise_sweep_draws(1_000_000))
        digest = hashlib.sha256(b"".join(x.tobytes() for x in out)).hexdigest()
        assert digest == json.loads(GOLDEN.read_text())["sweep_sha256"][f"{rel_tol:g}"]


class TestEntropyPower:
    @pytest.mark.parametrize("a", [0.1, 1.0])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_holds_on_decreasing_exponentials(self, a, lam):
        rep = check_entropy_power(engine_for(lam), exp_functional(a), 2.0)
        assert rep.verdict == "holds"
        assert all(c.valid for c in rep.hypothesis_certificates)

    def test_gate_blocks_increasing(self):
        engine = engine_for(1.0)
        G = from_rule(lambda c: 1.0 + float(c[0]))
        rep = check_entropy_power(engine, G, 2.0)
        assert rep.verdict == "hypothesis-not-met"

    def test_q_must_exceed_one(self):
        with pytest.raises(ValueError):
            check_entropy_power(engine_for(1.0), exp_functional(0.5), 1.0)

    def test_one_power_of_g_per_call(self, monkeypatch):
        engine = SemigroupEngine(GroundSpace((0.3, 0.5, 0.7)))
        G = from_rule(lambda c: math.exp(-0.4 * c[0] - 0.7 * c[1] - 1.1 * c[2]), name="G")
        q = 2.5
        for i in range(3):  # D_i G is memoized, so only the terms take differences
            engine.difference(G, i)
        diffs = []
        diff_axis = grids.diff_axis

        def spy(table, axis):
            diffs.append((table, axis))
            return diff_axis(table, axis)

        monkeypatch.setattr(grids, "diff_axis", spy)
        rep = check_entropy_power(engine, G, q)
        # one table G^{q-1} for every atom's term, not one power per atom
        powers = {id(table) for table, _ in diffs}
        assert [axis for _, axis in diffs] == [0, 1, 2] and len(powers) == 1
        table = engine.tabulate(G)
        assert diffs[0][0].tobytes() == (table ** (q - 1.0)).tobytes()
        rhs = 0.0
        for i, lam in enumerate(engine.space.weights):
            d_qm1 = np.diff(table ** (q - 1.0), axis=i)
            rhs += lam * engine.expect_table(d_qm1 * engine.difference(G, i))
        assert rep.rhs == rhs * (q**2 / (q - 1.0))

    def test_q_squared_beyond_the_double_range_is_no_verdict(self):
        # q**2 raised OverflowError; as inf it makes rhs non-finite
        with pytest.raises(NonFiniteValueError, match="a side of entropy-power"):
            check_entropy_power(engine_for(1.0), exp_functional(0.5), 1e308)


class TestRestrictedHypercontractivity:
    def test_exponent_growth(self):
        engine = engine_for(1.0)
        rep = check_restricted_hypercontractivity(engine, exp_functional(0.5), 1.0, 2.0)
        assert rep.parameters["q(t)"] == pytest.approx(1.0 + math.e, rel=1e-12)
        assert rep.verdict == "holds"

    def test_t_zero_is_lp_identity(self):
        engine = engine_for(1.0)
        rep = check_restricted_hypercontractivity(engine, exp_functional(0.5), 0.0, 2.0)
        assert rep.verdict == "holds"
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)

    def test_norms_closed_form(self):
        # ||F||_p = exp(lam(e^{-pa}-1))^{1/p} for F = e^{-ac}
        lam, a, t, p = 1.0, 0.5, 0.5, 2.0
        engine = engine_for(lam)
        rep = check_restricted_hypercontractivity(engine, exp_functional(a), t, p)
        assert rep.rhs == pytest.approx(exp_moment(lam, a, p) ** (1.0 / p), abs=1e-12)

    def test_gate_blocks_increasing(self):
        engine = engine_for(1.0)
        G = from_rule(lambda c: float(min(c[0], 5)))
        rep = check_restricted_hypercontractivity(engine, G, 0.5, 2.0)
        assert rep.verdict == "hypothesis-not-met"

    @pytest.mark.parametrize("t", [8.0, 10.0, 50.0, 700.0, 708.0])
    def test_an_underflowed_moment_is_no_verdict(self, t):
        # |P_t F| < 1 everywhere, so E|P_t F|^q(t) underflows to 0 for a
        # large q(t) = 1 + e^t; lhs read 0 and the verdict holds
        with pytest.raises(NonFiniteValueError, match=r"\^\S+ underflows to 0"):
            check_restricted_hypercontractivity(engine_for(1.0), exp_functional(0.5), t, 2.0)

    @pytest.mark.parametrize("t", [720.0, 800.0])
    def test_q_beyond_the_double_range_is_the_sup_norm(self, t):
        # e^t raised OverflowError; q(t) = inf takes ||P_t F||_inf, and P_t F
        # is the constant E[F] = exp(lam (e^-a - 1)) there
        rep = check_restricted_hypercontractivity(engine_for(1.0), exp_functional(0.5), t, 2.0)
        assert rep.parameters["q(t)"] == math.inf and rep.verdict == "holds"
        assert rep.lhs == pytest.approx(exp_moment(1.0, 0.5), abs=1e-10)

    @given(seed=st.integers(0, 10_000), t=st.floats(0.0, 3.0), p=st.floats(1.01, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_random_decreasing(self, seed, t, p):
        engine = engine_for(1.0)
        F = random_decreasing_functional(np.random.default_rng(seed))
        rep = check_restricted_hypercontractivity(engine, F, t, p)
        assert rep.verdict == "holds"


class TestWeakHypercontractivity:
    @given(seed=st.integers(0, 10_000), t=st.floats(0.01, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_random_bounded_any_sign(self, seed, t):
        engine = engine_for(1.0)
        F = random_bounded_functional(np.random.default_rng(seed))
        rep = check_weak_hypercontractivity(engine, F, t)
        assert rep.verdict == "holds"

    @pytest.mark.parametrize("t", [7.0, 710.0, math.inf])
    def test_a_vanished_moment_or_infinite_exponent_is_no_verdict(self, t):
        # F = -1{c <= 1}: E[exp(e^t P_t F)] underflows to 0 from t = 7, e^t
        # raised OverflowError past t = 709.78, and at t = inf lhs read
        # 0 ** (1 / inf) = 1 against rhs 0.535, a false violation
        F = from_rule(lambda c: -1.0 if c[0] <= 1 else 0.0)
        with pytest.raises(NonFiniteValueError, match="not a positive finite double"):
            check_weak_hypercontractivity(engine_for(1.0), F, t)

    def test_constant_saturates(self):
        engine = engine_for(1.0)
        rep = check_weak_hypercontractivity(engine, from_rule(lambda c: 0.7), 1.0)
        assert rep.lhs == pytest.approx(math.exp(0.7), abs=1e-9)
        assert rep.rhs == pytest.approx(math.exp(0.7), abs=1e-9)


class TestTalagrand:
    def test_bound_closed_form_step(self):
        # F = 1{c <= 1}, lam = 1: ||DF||_2^2 = pi(1), ||DF||_1 = pi(1)
        lam = 1.0
        engine = engine_for(lam)
        F = from_rule(lambda c: 1.0 if c[0] <= 1 else 0.0)
        p1 = stats.poisson.pmf(1, lam)
        expected = 2.0 * lam * p1 / (1.0 + 0.5 * math.log(1.0 / p1))
        assert talagrand_bound(engine, F) == pytest.approx(expected, abs=1e-12)

    def test_linear_is_within_bound(self):
        # Var(c) = lam, bound = 2 lam: consistency with Poincare saturation
        engine = engine_for(1.5)
        F = from_rule(lambda c: float(c[0]))
        rep = check_talagrand(engine, F)
        assert rep.verdict == "holds"
        assert rep.rhs == pytest.approx(2.0 * 1.5, abs=1e-8)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_decreasing_holds(self, seed):
        engine = engine_for(1.0)
        F = random_decreasing_functional(np.random.default_rng(seed))
        rep = check_talagrand(engine, F)
        if rep.verdict != "hypothesis-not-met":
            assert rep.verdict == "holds"

    def test_gate_blocks_step(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: 1.0 if c[0] <= 1 else 0.0)
        rep = check_talagrand(engine, F)
        assert rep.verdict == "hypothesis-not-met"
        rep = check_talagrand(engine, F, bypass_hypotheses=True)
        assert rep.verdict in ("holds", "violated")

    def test_zero_derivative_atom_contributes_zero(self):
        space_engine = engine_for(1.0)
        F = from_rule(lambda c: 5.0)
        assert talagrand_bound(space_engine, F) == 0.0


class TestL1VarianceBound:
    def test_branch_selection(self):
        # bounded functional with E|DF| < 1 picks the logarithmic branch
        engine = engine_for(1.0)
        F = exp_functional(0.5)
        rep = l1_variance_bound(engine, F)
        assert rep.verdict == "holds"
        assert rep.parameters["alpha"] in (1.0, 2.0 / (math.e + 1.0))

    def test_alpha_switches_with_sup_norm(self):
        engine = engine_for(1.0)
        small = from_rule(lambda c: 0.2 * math.exp(-float(c[0])))
        large = from_rule(lambda c: 3.0 * math.exp(-float(c[0])))
        rep_small = l1_variance_bound(engine, small)
        rep_large = l1_variance_bound(engine, large)
        assert rep_small.parameters["alpha"] == pytest.approx(2.0 / (math.e + 1.0))
        assert rep_large.parameters["alpha"] == 1.0

    def test_dominates_variance_on_decreasing_corpus(self):
        rng = np.random.default_rng(0)
        engine = engine_for(1.0)
        for k in range(15):
            F = random_decreasing_functional(rng)
            rep = l1_variance_bound(engine, F)
            if rep.verdict != "hypothesis-not-met":
                assert rep.verdict == "holds"


class TestConcentration:
    def test_decreasing_exponential(self):
        engine = engine_for(1.0)
        rep = check_concentration(engine, exp_functional(0.5), [0.2, 0.4, 0.6])
        assert rep.verdict == "holds"

    def test_negated_count_closed_form(self):
        # F = lam - c: alpha^2 = lam, tail P[c < lam - t]
        lam = 1.0
        engine = engine_for(lam)
        F = from_rule(lambda c: lam - float(c[0]))
        rep = check_concentration(engine, F, [0.5, 1.0, 1.5])
        assert rep.verdict == "holds"
        assert rep.parameters["alpha^2"] == pytest.approx(lam, abs=1e-12)

    def test_gate_blocks_increasing(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: float(c[0]))
        rep = check_concentration(engine, F, [1.0])
        assert rep.verdict == "hypothesis-not-met"

    def test_thresholds_with_one_short_label_keep_their_own_pairs(self):
        # both round to t=0.123457 under :g; a label that does not round-trip
        # is the threshold's repr instead
        engine = engine_for(1.0)
        rep = check_concentration(engine, exp_functional(0.5), [0.1234567, 0.1234568, 0.3])
        labels = [key for key in rep.parameters if key.startswith("t=")]
        assert labels == ["t=0.1234567", "t=0.1234568", "t=0.3"]

    def test_negative_threshold_is_refused(self):
        # the bound is a theorem for t >= 0 only: at t = -1 the tail is 1 and
        # the bound e^{-1/(2 alpha^2)} < 1, a false "violated"
        engine = engine_for(1.0)
        with pytest.raises(ValueError, match="thresholds must be >= 0"):
            check_concentration(engine, exp_functional(0.5), [-1.0, 0.0, 1e308])
        rep = check_concentration(engine, exp_functional(0.5), [0.0])
        assert rep.verdict == "holds"

    def test_bypass_exposes_gaussian_failure_at_large_t(self):
        # Poisson upper tails decay like e^{-t log t}, slower than e^{-t^2/2}:
        # the bound genuinely fails for the increasing functional F = c
        engine = engine_for(1.0)
        F = from_rule(lambda c: float(c[0]))
        rep = check_concentration(engine, F, [5.0], bypass_hypotheses=True)
        assert rep.verdict == "violated"


class TestLsiFailure:
    def test_ratio_values(self):
        # -sf(k) log sf(k) / pmf(k) at lam = 1
        ratios = lsi_failure_ratios(10)
        k = 5
        sf = stats.poisson.sf(k, 1.0)
        expected = -sf * math.log(sf) / stats.poisson.pmf(k, 1.0)
        assert ratios[k - 1] == pytest.approx(expected, rel=1e-12)

    def test_ratios_eventually_increasing(self):
        rep = check_lsi_failure(60)
        assert rep.verdict == "holds"

    def test_divergence_is_slow(self):
        # the ratio does diverge, but only logarithmically: documents the
        # actual growth rate at k = 40
        ratios = lsi_failure_ratios(40)
        assert 2.5 < ratios[-1] < 3.5
        assert ratios[-1] > ratios[19] > ratios[9]

    def test_finite_past_tail_underflow(self):
        # the Poisson tail underflows to 0 from k = 171; the log-space tail
        # keeps every ratio finite and the sequence increasing
        ratios = lsi_failure_ratios(200)
        assert np.all(np.isfinite(ratios))
        assert np.all(np.diff(ratios) > 0)
        rep = check_lsi_failure(200)
        assert rep.verdict == "holds"
        assert math.isfinite(rep.rhs)
