"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Criteria 5b and 9b check magnitudes against targets derived in closed form.

5b: for the unit-rate Poisson law pi and tau = pi([k+1, inf)), write
tau = pi(k+1) S with 1 <= S <= (k+2)/(k+1). Since -u log u increases on
(0, 1/e), the log-Sobolev failure ratio r(k) = -tau log tau / pi(k) lies in
[(1 + lgamma(k+2))/(k+1), tau_bar (-log tau_bar) / pi(k)] with
tau_bar = pi(k+1)(k+2)/(k+1). So r(k) = log k + O(1): its lower end is at
least log(k+1) - 1, which forces divergence, but r stays below about 709
for every k a float64 can hold, so a target like 1e3 is out of reach.

9b: at G = exp(-a count) with a -> 0, Taylor expansion gives
lhs ~ (aq)^2/2 and rhs ~ (aq)^2 for every q > 1, so the entropy-power ratio
rhs/lhs tends to 2 in the small-parameter corner, and 2 is its infimum.
The constant q^2/(q-1) is the one that yields the rate q(t) of criterion 2;
a ratio near 1 would need a different inequality, not a different
evaluation.
"""

import math
import sys

import numpy as np
import pytest
from scipy import stats

from poisson_ou import (
    GroundSpace,
    SemigroupEngine,
    TruncatedStateSpace,
    check_concentration,
    check_mecke,
    check_pathwise_lemma,
    check_restricted_hypercontractivity,
    check_talagrand,
    check_weak_hypercontractivity,
    commutation_check,
    counterexample_fk,
    counterexample_scan,
    from_rule,
    integrated_gradient_check,
    lsi_failure_ratios,
    maxima_closed_forms,
    mean_preservation_check,
    near_optimality_scan,
    near_optimality_sides,
    one_dim_cumulative,
    pointwise_gradient_check,
    semigroup_property_check,
    symmetry_check,
)
from poisson_ou import inequalities

from conftest import (engine_for, pathwise_sweep_draws, random_bounded_functional,
                      random_decreasing_functional)
from maxima_mc import maxima_monte_carlo


def _record(criterion, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {description}", file=sys.stderr)
    assert ok, f"criterion {criterion}: {description}"


def test_criterion_1_exact_structural_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 5.0):
        engine = engine_for(lam)
        for _ in range(50 // 4 + 1):
            F = random_bounded_functional(rng)
            G = random_bounded_functional(rng)
            reports = [
                check_mecke(engine.space, lambda c, i: F(c), trunc=engine.trunc),
                mean_preservation_check(engine, F, 0.7),
                commutation_check(engine, F, 0.4),
                semigroup_property_check(engine, F, 0.3, 0.8),
                symmetry_check(engine, F, G),
            ]
            for rep in reports:
                worst = max(worst, abs(rep.lhs - rep.rhs))
    _record(1, f"structural identities exact to 1e-9 (worst {worst:.3g})",
            worst <= 1e-9)


def test_criterion_2_restricted_hypercontractivity():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(1000):
        lam = float(rng.uniform(0.1, 10.0))
        t = float(rng.uniform(0.0, 3.0))
        p = float(rng.uniform(1.0 + 1e-6, 3.0))
        engine = engine_for(lam)
        F = random_decreasing_functional(rng)
        rep = check_restricted_hypercontractivity(engine, F, t, p)
        assert rep.verdict != "hypothesis-not-met"
        if rep.lhs > rep.rhs + 1e-9:
            violations += 1
    _record(2, "restricted hypercontractivity, 1000 gated draws, slack 1e-9",
            violations == 0)


def test_criterion_3_weak_hypercontractivity():
    rng = np.random.default_rng(8)
    violations = 0
    for _ in range(500):
        lam = float(rng.uniform(0.1, 10.0))
        t = float(rng.uniform(0.0, 3.0))
        engine = engine_for(lam)
        F = random_bounded_functional(rng)
        rep = check_weak_hypercontractivity(engine, F, t)
        if rep.lhs > rep.rhs + 1e-9:
            violations += 1
    _record(3, "weak hypercontractivity, 500 bounded draws of any sign",
            violations == 0)


def test_criterion_4_talagrand_on_cumulative_family():
    family_ok = True
    for lam in range(1, 21):
        engine = engine_for(float(lam))
        for M in range(0, 11):
            rep = check_talagrand(engine, one_dim_cumulative(lambda j: 1.0 if j <= M else 0.0))
            if rep.verdict != "holds":
                family_ok = False
    # atomwise bound-vs-Poincare comparison on gated corpus members; the
    # denominator is >= 1 by Jensen, so each term is at most the constant
    # of the variance bound (2) times the matching Poincare term
    rng = np.random.default_rng(9)
    atomwise_ok = True
    engine = engine_for(1.0)
    for _ in range(50):
        F = random_decreasing_functional(rng)
        l1 = engine.difference_moment(F, 0, 1)
        l2 = math.sqrt(engine.difference_moment(F, 0, 2))
        if l2 == 0.0:
            continue
        tal_atom = 2.0 * 1.0 * l2**2 / (1.0 + math.log(l2 / l1))
        poin_atom = 1.0 * l2**2
        if tal_atom > 2.0 * poin_atom + 1e-12:
            atomwise_ok = False
    _record(4, "L1-L2 variance bound on the cumulative family, atomwise "
               "domination by the Poincare terms",
            family_ok and atomwise_ok)


def test_criterion_5a_counterexample_scan_and_identity():
    k0, ratios = counterexample_scan(50)
    identity_ok = all(
        abs(counterexample_fk(k)["e_dF_sq"] - math.exp(-1.0) / math.factorial(k - 1))
        <= 1e-12 * math.exp(-1.0) / math.factorial(k - 1)
        for k in range(2, 31)
    )
    _record("5a", f"counterexample ratio > 1 and increasing from k0 = {k0} <= 20; "
                  "derivative identity to 1e-12 for k <= 30",
            k0 <= 20 and bool(np.all(ratios[k0 - 2:] > 1.0)) and identity_ok)


def test_criterion_5b_lsi_failure_ratio_magnitude():
    # The ratio lies in the closed bracket of the module docstring at every
    # k, which pins it to log k + O(1); the bracket's lower end is at least
    # log(k+1) - 1, so the ratio diverges. The upper end is computed in log
    # space, where tau_bar does not underflow.
    def bracket(k):
        lower = (1.0 + math.lgamma(k + 2)) / (k + 1)
        upper = (k + 2) / (k + 1) ** 2 * (
            1.0 + math.lgamma(k + 2) - math.log((k + 2) / (k + 1)))
        return lower, upper

    ratios = lsi_failure_ratios(40)
    in_bracket = all(
        bracket(k)[0] <= ratios[k - 1] <= bracket(k)[1] for k in range(1, 41)
    )
    increasing = bool(np.all(np.diff(ratios) > 0))
    k_far = 1000
    far = float(lsi_failure_ratios(k_far)[-1])
    lower_far, upper_far = bracket(k_far)
    far_ok = lower_far <= far <= upper_far and far > 5.0
    _record("5b", f"log-Sobolev failure ratio in [(1 + lgamma(k+2))/(k+1), "
                  f"tau_bar(-log tau_bar)/pi(k)] for k = 1..40 and strictly "
                  f"increasing (r(40) = {ratios[-1]:.6g}); r({k_far}) = "
                  f"{far:.6g} > 5 in its bracket",
            in_bracket and increasing and far_ok)


def test_criterion_6_maxima_example():
    closed_ok = True
    for m in (0.5, 1.0, 5.0, 20.0):
        forms = maxima_closed_forms(m)
        em = math.exp(-m)
        closed_ok &= abs(forms["variance"] - em * (1 - em)) <= 1e-12
        closed_ok &= abs(forms["poincare_rhs"] - m * em) <= 1e-12
        closed_ok &= abs(forms["log_norm_ratio"] - m / 2.0) <= 1e-12
    tail = lambda r: min(1.0, math.exp(-r))
    out = maxima_monte_carlo(tail, n_points_intensity=8.0, t=2.0,
                             replications=100_000, seed=1)
    mc_ok = True
    for route in ("radial_reduction", "full_sampling"):
        r = out[route]
        closed = out["closed_forms"]
        mc_ok &= abs(r["variance"] - closed["variance"]) <= 4 * r["variance_stderr"]
        mc_ok &= abs(r["poincare_rhs"] - closed["poincare_rhs"]) <= (
            4 * r["poincare_rhs_stderr"])
    ratio_ok = all(
        maxima_closed_forms(m)["talagrand_rhs"]
        / maxima_closed_forms(m)["variance"] <= 5.0
        for m in (10.0, 15.0, 20.0, 50.0)
    )
    _record(6, "maxima closed forms to 1e-12, MC routes within 4 sigma, "
               "bound-to-variance ratio <= 5 for m >= 10",
            closed_ok and mc_ok and ratio_ok)


def test_criterion_7_gradient_estimates():
    rng = np.random.default_rng(10)
    ok = True
    engine = engine_for(1.0)
    for _ in range(50):
        F = random_bounded_functional(rng)  # values in [-1, 1]
        for t in (0.1, 0.5, 1.0, 2.0):
            rep = pointwise_gradient_check(engine, F, t)
            ok &= rep.lhs <= rep.rhs + 1e-9
            for p in (2.0, 4.0, math.inf):
                rep = integrated_gradient_check(engine, F, t, p)
                ok &= rep.lhs <= rep.rhs + 1e-9
    _record(7, "pointwise and integrated gradient bounds, zero violations",
            ok)


def test_criterion_8_pathwise_lemma_sweep():
    # the evaluator's violation mask, which every verdict of
    # check_pathwise_lemma is asserted to match
    violated = inequalities._pathwise_eval(*pathwise_sweep_draws(1_000_000))[4]
    violations = np.count_nonzero(violated)
    eq, b0 = check_pathwise_lemma([2.0, 1.0], [2.0, 0.0], [1.5, 2.0])
    boundary_ok = (eq.lhs == 0.0 and eq.rhs == 0.0
                   and math.isinf(b0.rhs) and b0.lhs == 1.0)
    _record(8, "pathwise power inequality: 1e6 draws at rel tol 1e-12, "
               "boundary conventions exact",
            violations == 0 and boundary_ok)


def test_criterion_9a_near_optimality_scan():
    scan = near_optimality_scan([0.05, 0.1, 0.5, 1.0, 2.0], [1.05, 1.5, 2.0, 3.0])
    entropy_ok = abs(scan["engine_entropy"] - scan["closed_form_entropy"]) <= 1e-9
    _record("9a", "entropy-power ratio >= 1 over the grid; engine entropy "
                  "matches the closed form to 1e-9",
            scan["min_ratio"] >= 1.0 and entropy_ok)


def test_criterion_9b_near_optimality_corner():
    # Both sides are quadratic in aq at the corner, with coefficients 1/2
    # (lhs) and 1 (rhs), so the ratio's infimum over the quadrant is 2. The
    # target is a 25% window above that infimum, and the ratio must come
    # strictly closer to 2 as (a, q - 1) shrinks tenfold.
    lhs, rhs = near_optimality_sides(0.05, 1.05)
    ratio = rhs / lhs
    tiny_lhs, tiny_rhs = near_optimality_sides(0.005, 1.005)
    tiny_ratio = tiny_rhs / tiny_lhs
    _record("9b", f"entropy-power ratio at (0.05, 1.05) is {ratio:.4f}, "
                  f"target in [2, 2.5]; at (0.005, 1.005) it is "
                  f"{tiny_ratio:.4f}, closer to 2",
            2.0 <= ratio <= 2.5 and 2.0 <= tiny_ratio < ratio)


def test_criterion_10_concentration():
    ok = True
    for lam in (1.0, 4.0):
        engine = engine_for(lam)
        F = from_rule(lambda c, lam=lam: lam - float(c[0]))
        rep = check_concentration(engine, F, [0.5, 1.0, 1.5, 2.0])
        ok &= rep.verdict == "holds"
    _record(10, "exact lower-tail probabilities beat the Gaussian bound "
                "for lam - count", ok)


def test_criterion_11_reproducibility(tmp_path):
    from pathlib import Path

    from poisson_ou.cli import main

    config = Path(__file__).resolve().parents[1] / "configs" / "onedim_suite.json"
    blobs = []
    for out in ("r1", "r2"):
        code = main(["run", str(config), "--out", str(tmp_path / out)])
        assert code == 0
        blobs.append((tmp_path / out / "report.txt").read_bytes())
    _record(11, "identical config and seed give byte-identical reports",
            blobs[0] == blobs[1] and len(blobs[0]) > 0)
