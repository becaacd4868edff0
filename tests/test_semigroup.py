"""Exact kernel semigroup: oracles, structural identities, and norms."""

import dataclasses
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ou import (
    BudgetExceededError,
    GroundSpace,
    SemigroupEngine,
    TruncatedStateSpace,
    apply_semigroup,
    commutation_check,
    expectation,
    from_rule,
    generator_check,
    generator_table,
    integrated_gradient_check,
    lp_norm,
    mean_preservation_check,
    ou_kernel_1d,
    pointwise_gradient_check,
    semigroup_property_check,
    symmetry_check,
    variance,
)
from poisson_ou import cli, functionals, grids, ground, inequalities, semigroup
from poisson_ou.errors import NegativeValueError, NonFiniteValueError, PreconditionError
from poisson_ou.functionals import (
    PROP_D2F_GE0,
    PROP_D2F_LE0,
    PROP_DF_GE0,
    PROP_DF_LE0,
    Functional,
    certify_monotonicity,
    from_table,
)

from conftest import engine_for, random_bounded_functional

ROOT = Path(__file__).resolve().parents[1]


def pgf_semigroup_value(n, s, lam, t):
    """Closed form (P_t F)(n) for F(c) = s^c on one atom of intensity lam.

    Thinning gives E[s^{Bin(n, e^-t)}] = (1 + e^-t (s-1))^n and the refresh
    contributes exp((1 - e^-t) lam (s - 1)).
    """
    keep = math.exp(-t)
    return (1.0 + keep * (s - 1.0)) ** n * math.exp((1.0 - keep) * lam * (s - 1.0))


class TestKernel:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 2.5])
    def test_rows_nonnegative_substochastic(self, lam, t):
        K = ou_kernel_1d(lam, 40, t)
        assert np.all(K >= 0.0)
        sums = K.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)

    def test_row_mass_nearly_one_in_interior(self):
        K = ou_kernel_1d(1.0, 40, 0.7)
        assert np.all(K[:20].sum(axis=1) >= 1.0 - 1e-12)

    def test_t_zero_is_identity(self):
        K = ou_kernel_1d(1.0, 15, 0.0)
        assert np.allclose(K, np.eye(15), atol=1e-14)

    def test_large_t_rows_approach_poisson(self):
        # P_t converges to the stationary law: rows forget the start state
        K = ou_kernel_1d(1.0, 30, 50.0)
        from scipy import stats

        pi = stats.poisson.pmf(np.arange(30), 1.0)
        for n in (0, 5, 10):
            assert np.allclose(K[n], pi, atol=1e-12)

    @pytest.mark.parametrize("size,t", [(12, 707.0), (12, 708.0), (12, 720.0),
                                        (12, 744.0), (600, 703.0)])
    def test_a_vanishing_keep_is_the_refresh_alone(self, size, t):
        # e^-t where scipy's binomial pmf overflowed, or subnormal: the
        # kernel is the one at t = 800, where e^-t is 0
        assert ou_kernel_1d(1.0, size, t).tobytes() == ou_kernel_1d(1.0, size, 800.0).tobytes()


class TestPgfOracle:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.5])
    @pytest.mark.parametrize("s", [0.3, 0.8])
    def test_exact_matches_closed_form(self, lam, t, s):
        engine = engine_for(lam)
        F = from_rule(lambda c: s ** float(c[0]), name="pgf")
        ptf = apply_semigroup(engine, F, t)
        for n in range(6):
            assert ptf((n,)) == pytest.approx(
                pgf_semigroup_value(n, s, lam, t), abs=1e-10
            )


@pytest.fixture(scope="module")
def engine():
    return engine_for(1.0)


@pytest.fixture(scope="module")
def F():
    return from_rule(lambda c: np.exp(-0.4 * float(c[0])), name="expdecay")


class TestStructuralIdentities:
    def test_mean_preservation(self, engine, F):
        rep = mean_preservation_check(engine, F, 0.8)
        assert rep.ok and abs(rep.lhs - rep.rhs) <= 1e-9

    def test_commutation(self, engine, F):
        rep = commutation_check(engine, F, 0.5)
        assert rep.ok and rep.lhs <= 1e-9

    def test_semigroup_property(self, engine, F):
        rep = semigroup_property_check(engine, F, 0.3, 0.9)
        assert rep.ok and rep.lhs <= 1e-9

    def test_generator_limit(self, engine, F):
        coarse = generator_check(engine, F, 1e-3)
        fine = generator_check(engine, F, 1e-5)
        assert coarse.ok and fine.ok
        # deviation scales like h
        assert fine.lhs < coarse.lhs

    def test_symmetry_three_way(self, engine, F):
        G = from_rule(lambda c: float(min(c[0], 4)), name="capped")
        rep = symmetry_check(engine, F, G)
        assert rep.ok and rep.lhs <= 1e-9

    def test_generator_on_linear(self, engine):
        # L c = lam - c for F(c) = c
        F = from_rule(lambda c: float(c[0]))
        table = generator_table(engine, F)
        n = np.arange(table.shape[0])
        assert np.allclose(table, 1.0 - n, atol=1e-12)


class TestContraction:
    @given(
        t=st.floats(0.05, 3.0),
        p=st.floats(1.0, 6.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_lp_contraction(self, t, p, seed):
        engine = engine_for(1.0)
        rng = np.random.default_rng(seed)
        F = random_bounded_functional(rng)
        before = lp_norm(engine, F, p).value
        after = lp_norm(engine, apply_semigroup(engine, F, t), p).value
        assert after <= before + 1e-9

    def test_sup_norm_contraction(self):
        engine = engine_for(2.0)
        F = from_rule(lambda c: math.sin(float(c[0])))
        after = lp_norm(engine, apply_semigroup(engine, F, 1.0), math.inf).value
        assert after <= 1.0 + 1e-9


class TestMoments:
    def test_expectation_variance_closed_form(self):
        engine = engine_for(3.0)
        F = from_rule(lambda c: float(c[0]))
        assert expectation(engine, F) == pytest.approx(3.0, abs=1e-9)
        assert variance(engine, F) == pytest.approx(3.0, abs=1e-9)

    def test_lp_norm_closed_form(self):
        # ||e^{-a c}||_p^p = exp(lam (e^{-pa} - 1))
        engine = engine_for(1.0)
        a, p = 0.5, 3.0
        F = from_rule(lambda c: math.exp(-a * float(c[0])))
        expected = math.exp((math.exp(-p * a) - 1.0)) ** (1.0 / p)
        assert lp_norm(engine, F, p).value == pytest.approx(expected, abs=1e-12)

    def test_mc_variance_agrees(self):
        exact = engine_for(1.0)
        mc = engine_for(1.0, mode="mc", replications=80_000, seed=11)
        F = from_rule(lambda c: math.exp(-0.3 * float(c[0])))
        val = variance(exact, F)
        est, se = variance(mc, F)
        assert abs(est - val) <= 4 * se


class TestGradientBounds:
    def test_pointwise_bound(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: math.cos(float(c[0])))  # sup |F| <= 1
        for t in (0.1, 0.5, 2.0):
            rep = pointwise_gradient_check(engine, F, t)
            assert rep.ok
            assert rep.rhs == pytest.approx(2.0 * math.exp(-t))

    def test_pointwise_requires_unit_bound(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: 3.0 * math.cos(float(c[0])))
        with pytest.raises(PreconditionError):
            pointwise_gradient_check(engine, F, 0.5)

    @pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
    def test_integrated_bound(self, p):
        engine = engine_for(1.0)
        F = from_rule(lambda c: 1.0 if c[0] <= 3 else 0.0)
        for t in (0.1, 0.5, 1.0):
            rep = integrated_gradient_check(engine, F, t, p)
            assert rep.ok

    def test_integrated_bound_indicator_p2(self):
        # rhs = e^-t / sqrt(1 - e^-t) * ||F||_2 with ||F||_2 = sqrt(P[c <= 3])
        from scipy import stats

        engine = engine_for(1.0)
        F = from_rule(lambda c: 1.0 if c[0] <= 3 else 0.0)
        t = 0.5
        rep = integrated_gradient_check(engine, F, t, 2.0)
        keep = math.exp(-t)
        expected = keep / math.sqrt(1.0 - keep) * math.sqrt(stats.poisson.cdf(3, 1.0))
        assert rep.rhs == pytest.approx(expected, abs=1e-12)


class TestEngineModes:
    def test_exact_only_operations_refused_in_mc(self):
        engine = engine_for(1.0, mode="mc", replications=1_000)
        with pytest.raises(PreconditionError):
            engine.tabulate(from_rule(lambda c: 1.0))
        with pytest.raises(PreconditionError):
            apply_semigroup(engine, from_rule(lambda c: 1.0), 0.5)

    @pytest.mark.parametrize("call", [
        lambda e, F: apply_semigroup(e, F, 0.5),
        lambda e, F: generator_table(e, F),
        lambda e, F: mean_preservation_check(e, F, 0.5),
        lambda e, F: commutation_check(e, F, 0.5),
        lambda e, F: semigroup_property_check(e, F, 0.3, 0.5),
        lambda e, F: generator_check(e, F, 0.1),
        lambda e, F: symmetry_check(e, F, F),
        lambda e, F: pointwise_gradient_check(e, F, 0.5),
        lambda e, F: integrated_gradient_check(e, F, 0.5, 2.0),
        lambda e, F: inequalities.check_modified_lsi(e, F),
        lambda e, F: inequalities.check_min_form_lsi(e, F),
        lambda e, F: inequalities.check_entropy_power(e, F, 2.0),
        lambda e, F: inequalities.check_restricted_hypercontractivity(e, F, 0.5, 2.0),
        lambda e, F: inequalities.check_weak_hypercontractivity(e, F, 0.5),
        lambda e, F: inequalities.talagrand_bound(e, F),
        lambda e, F: inequalities.check_talagrand(e, F),
        lambda e, F: inequalities.l1_variance_bound(e, F),
        lambda e, F: inequalities.check_concentration(e, F, [0.5, 1.0]),
        lambda e, F: certify_monotonicity(e, F, PROP_DF_LE0),
        lambda e, F: certify_monotonicity(e, F, PROP_D2F_GE0),
        lambda e, F: lp_norm(e, F, 2.0),
        lambda e, F: lp_norm(e, F, math.inf),
        lambda e, F: inequalities.entropy(e, F),
        lambda e, F: e.difference(F, 0, 0),
    ], ids=[
        "apply_semigroup", "generator_table", "mean_preservation_check",
        "commutation_check", "semigroup_property_check", "generator_check",
        "symmetry_check", "pointwise_gradient_check", "integrated_gradient_check",
        "check_modified_lsi", "check_min_form_lsi", "check_entropy_power",
        "check_restricted_hypercontractivity", "check_weak_hypercontractivity",
        "talagrand_bound", "check_talagrand", "l1_variance_bound",
        "check_concentration", "certify-DF<=0", "certify-D2F>=0", "lp_norm-2",
        "lp_norm-inf", "entropy", "second_difference",
    ])
    def test_exact_only_checks_refused_in_mc_before_any_work(self, call):
        # valid arguments otherwise: the refusal comes from the engine, before
        # any table, certificate, variance or sample value is stored
        engine = engine_for(1.0, mode="mc", replications=1_000)
        F = from_rule(lambda c: math.exp(-0.5 * float(c[0])), bounded_by=1.0)
        with pytest.raises(PreconditionError, match="requires an exact-mode engine"):
            call(engine, F)
        assert engine._results == {}

    @pytest.mark.parametrize("call", [
        lambda e, F: ou_kernel_1d(1.0, 10, -0.5),
        lambda e, F: e.apply_table(e.tabulate(F), -0.5),
        lambda e, F: apply_semigroup(e, F, -0.5),
        lambda e, F: inequalities.check_restricted_hypercontractivity(e, F, -0.5, 2.0),
        lambda e, F: inequalities.check_weak_hypercontractivity(e, F, -0.5),
        lambda e, F: mean_preservation_check(e, F, -0.5),
        lambda e, F: commutation_check(e, F, -0.5),
        lambda e, F: semigroup_property_check(e, F, -0.3, 0.5),
        lambda e, F: semigroup_property_check(e, F, 0.3, -0.5),
        lambda e, F: pointwise_gradient_check(e, F, -0.5),
    ], ids=[
        "ou_kernel_1d", "apply_table", "apply_semigroup",
        "check_restricted_hypercontractivity", "check_weak_hypercontractivity",
        "mean_preservation_check", "commutation_check",
        "semigroup_property_check-s", "semigroup_property_check-t",
        "pointwise_gradient_check",
    ])
    def test_every_time_entry_rejects_negative_time(self, call):
        engine = engine_for(1.0)
        F = from_rule(lambda c: math.exp(-0.5 * float(c[0])), bounded_by=1.0)  # ||F||_inf <= 1
        with pytest.raises(ValueError, match="negative time"):
            call(engine, F)
        # nothing stored for t < 0 in the engine's kernel table
        assert all(t >= 0 for t in engine._kernels)

    def test_sample_values_refused_in_exact(self):
        with pytest.raises(PreconditionError):
            engine_for(1.0).sample_values(from_rule(lambda c: 1.0))

    def test_unknown_mode_rejected(self):
        space = GroundSpace((1.0,))
        with pytest.raises(ValueError):
            SemigroupEngine(space, mode="approximate")

    @pytest.mark.parametrize("replications", [0, 1])
    def test_mc_needs_two_replications(self, replications):
        space = GroundSpace((1.0,))
        with pytest.raises(ValueError, match="at least 2 replications"):
            SemigroupEngine(space, mode="mc", replications=replications)
        # exact mode has no use for the field
        assert SemigroupEngine(space, replications=replications).mode == "exact"

    def test_budget_gates_the_padded_grid(self):
        space = GroundSpace((1.0, 1.0, 1.0))
        shape = SemigroupEngine(space).shape
        interior = TruncatedStateSpace.from_tail_mass(space).state_count()
        budget = math.prod(shape) - 1
        assert interior <= budget
        trunc = TruncatedStateSpace.from_tail_mass(space, budget=budget)
        with pytest.raises(BudgetExceededError, match=f"{math.prod(shape)} states"):
            SemigroupEngine(space, trunc)

    def test_negative_time_rejected(self):
        engine = engine_for(1.0)
        with pytest.raises(ValueError):
            apply_semigroup(engine, from_rule(lambda c: 1.0), -0.1)


class TestTableMemo:
    def test_one_read_only_table_per_functional(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: float(c[0]), name="count")
        table = engine.tabulate(F)
        assert engine.tabulate(F) is table
        assert np.array_equal(table, F.tabulate(engine.shape))
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0

    def test_throwaway_functionals_never_share_a_table(self):
        # CPython reuses the id of a freed functional; a memo that does not
        # hold F would hand the new one the old one's table
        engine = SemigroupEngine(GroundSpace((1.0, 0.5)))
        for k in range(200):
            F = from_rule(lambda c, k=k: float(k * c[0] + c[1]), name=f"F{k}")
            assert np.array_equal(engine.tabulate(F), F.tabulate(engine.shape))

    def test_table_backed_functionals_are_not_held(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: np.exp(-0.4 * float(c[0])))
        ptf = apply_semigroup(engine, F, 0.5)
        held = weakref.ref(ptf)
        table = engine.tabulate(ptf)
        assert not table.flags.writeable
        # nor by its certificates, its variance or its scalars
        assert certify_monotonicity(engine, ptf, PROP_DF_LE0).valid
        assert variance(engine, ptf) > 0
        assert engine.minimum(ptf) > 0 and engine.sup_abs(ptf) == table.max()
        assert engine.mean(ptf) > 0 and inequalities.entropy(engine, ptf) > 0
        assert lp_norm(engine, ptf, 2.0).value > 0
        del ptf, table
        gc.collect()
        assert held() is None

    def test_run_tabulates_each_functional_once(self, tmp_path, monkeypatch):
        seen = {}
        original = Functional.tabulate

        def spy(self, shape):
            seen.setdefault(id(self), [self, 0])[1] += 1
            return original(self, shape)

        monkeypatch.setattr(Functional, "tabulate", spy)
        checks = [
            {"check": "mecke", "functional": "f"},
            {"check": "poincare", "functional": "f"},
            {"check": "modified-lsi", "functional": "f"},
            {"check": "min-form-lsi", "functional": "f"},
            {"check": "pathwise-lemma", "params": {"a": 2.0, "b": 1.0, "q": 2.0}},
            {"check": "entropy-power", "functional": "f", "params": {"q": 2.0}},
            {"check": "restricted-hypercontractivity", "functional": "f",
             "params": {"t": [0.5, 1.0], "p": 2.0}},
            {"check": "weak-hypercontractivity", "functional": "g", "params": {"t": 0.5}},
            {"check": "talagrand", "functional": "f"},
            {"check": "talagrand", "functional": "g"},
            {"check": "l1-variance", "functional": "g"},
            {"check": "concentration", "functional": "f",
             "params": {"thresholds": [[0.05, 0.2]]}},
            {"check": "lsi-failure", "params": {"k_max": 10}},
        ]
        config = {
            "space": {"weights": [0.03, 0.1, 0.2]},
            "truncation": {"tail_mass": 1e-6},
            "functionals": {
                "f": "exp_neg(0.3, 0) + exp_neg(0.5, 1) + exp_neg(0.7, 2)",
                "g": "cumsum_g(0, 1) + cumsum_g(1, 2) + cumsum_g(2, 0)",
            },
            "checks": checks,
        }
        assert cli.run_config(config, tmp_path) == 0
        assert sorted(F.name for F, _ in seen.values()) == [
            "P_0.5[f]", "P_1[f]", "f", "f^2", "g"]
        assert all(calls == 1 for _, calls in seen.values())


class TestSampleMemo:
    def test_one_read_only_table_per_functional(self):
        engine = SemigroupEngine(GroundSpace((1.0, 0.5)), mode="mc",
                                 replications=300, seed=2)
        F = from_rule(lambda c: float(c[0] - 2 * c[1]), name="F")
        table = engine.sample_values(F)
        assert engine.sample_values(F) is table
        assert table.shape == (3, 300)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
        samples = tuple(engine.samples.T)
        assert np.array_equal(table[0], F.values(samples))
        assert np.array_equal(table[2], F.values((samples[0], samples[1] + 1)))

    def test_throwaway_functionals_never_share_values(self):
        engine = SemigroupEngine(GroundSpace((1.0, 0.5)), mode="mc",
                                 replications=50, seed=3)
        for k in range(200):
            F = from_rule(lambda c, k=k: float(k * c[0] + c[1]), name=f"F{k}")
            assert np.array_equal(engine.sample_values(F)[0],
                                  F.values(tuple(engine.samples.T)))

    def test_mecke_and_poincare_evaluate_once_per_functional(self, tmp_path, monkeypatch):
        calls = {"shift_table": 0, "values": 0, "sample_configurations": 0}
        for method in ("shift_table", "values"):
            original = getattr(Functional, method)

            def spy(self, counts, _method=method, _original=original):
                calls[_method] += 1
                return _original(self, counts)

            monkeypatch.setattr(Functional, method, spy)
        for module in (ground, semigroup):
            original = module.sample_configurations

            def draw_spy(*args, _original=original, **kwargs):
                calls["sample_configurations"] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "sample_configurations", draw_spy)
        weights = [0.7, 1.3, 1.9]
        config = {
            "space": {"weights": weights},
            "engine": {"mode": "mc", "replications": 500},
            "seed": 4,
            "functionals": {"f": "exp_neg(0.3, 0) + cumsum_g(1, 2) + count(2)"},
            "checks": [{"check": "mecke", "functional": "f"},
                       {"check": "poincare", "functional": "f"}],
        }
        assert cli.run_config(config, tmp_path) == 0
        # one table, built in one pass by the DSL batch, serves both checks
        assert calls == {"shift_table": 1, "values": 0, "sample_configurations": 1}


class TestKernels:
    def test_an_engine_builds_each_time_once_read_only(self, monkeypatch):
        engine = SemigroupEngine(GroundSpace((1.0, 0.5)))
        built = counting(monkeypatch, semigroup, "ou_kernel_1d")
        first = engine.kernels(0.3)
        second = engine.kernels(0.3)
        assert built == [(1.0, engine.shape[0], 0.3), (0.5, engine.shape[1], 0.3)]
        assert len(second) == 2 and all(a is b for a, b in zip(first, second))
        for mat in second:
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 1.0

    def test_an_engine_keeps_its_own_kernels(self, monkeypatch):
        # reuse across runs is the runner's held engine, not a shared table
        first = SemigroupEngine(GroundSpace((1.0,)))
        kernel = first.kernels(0.3)[0]
        built = counting(monkeypatch, semigroup, "ou_kernel_1d")
        second = SemigroupEngine(GroundSpace((1.0,)))
        assert second.shape == first.shape and second.kernels(0.3)[0] is not kernel
        assert built == [(1.0, first.shape[0], 0.3)]
        assert first.kernels(0.3)[0] is kernel

    def test_shipped_suite_twice_builds_kernels_once(self, tmp_path, monkeypatch):
        built = counting(monkeypatch, semigroup, "ou_kernel_1d")
        reference = (ROOT / "bench" / "reference" / "onedim_suite.report.txt").read_bytes()
        for run in ("first", "second"):
            config = cli.load_config(str(ROOT / "configs" / "onedim_suite.json"))
            assert cli.run_config(config, tmp_path / run) == 0
            assert (tmp_path / run / "report.txt").read_bytes() == reference
            if run == "first":
                first_builds = len(built)
                held = cli._held[2]
        assert first_builds > 0 and len(built) == first_builds
        assert cli._held[2] is held
        for mat in held.kernels(0.5):
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 1.0


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a spy; returns the list of its call args."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


#: the checks of one pass of the grid-3atom benchmark workload
GRID_3ATOM_CHECKS = [
    {"check": "mecke", "functional": "expsum"},
    {"check": "poincare", "functional": "expsum"},
    {"check": "poincare", "functional": "cumsum"},
    {"check": "modified-lsi", "functional": "expsum"},
    {"check": "entropy-power", "functional": "expsum", "params": {"q": 2.0}},
    {"check": "restricted-hypercontractivity", "functional": "expsum",
     "params": {"t": 0.7, "p": 2.0}},
    {"check": "weak-hypercontractivity", "functional": "cumsum", "params": {"t": 0.7}},
    {"check": "talagrand", "functional": "expsum"},
    {"check": "talagrand", "functional": "cumsum"},
    {"check": "l1-variance", "functional": "cumsum"},
    {"check": "concentration", "functional": "expsum",
     "params": {"thresholds": [[0.05, 0.2]]}},
]


#: the config the grid-3atom benchmark workload draws at seed 1, pass 0
GRID_3ATOM_SEED_1 = {
    "space": {"weights": [0.035355, 0.126532, 0.155858]},
    "truncation": {"tail_mass": 1e-06, "budget": 1000000},
    "functionals": {
        "expsum": "exp_neg(0.95892, 0) + exp_neg(0.449465, 1) + exp_neg(0.538661, 2)",
        "cumsum": "cumsum_g(0, 0) + cumsum_g(1, 2) + cumsum_g(2, 0)",
    },
    "checks": [dict(item, params={**item["params"], "t": 0.914472})
               if "t" in item.get("params", {}) else item for item in GRID_3ATOM_CHECKS],
}


class TestResultMemo:
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_certificate_and_variance_once_per_functional(self, monkeypatch, mode):
        engine = SemigroupEngine(GroundSpace((1.0, 0.5)), mode=mode,
                                 replications=300, seed=5)
        scans = counting(monkeypatch, functionals, "_scan_signs")
        variances = counting(monkeypatch, semigroup, "_variance")
        F = from_rule(lambda c: float(c[0] + 2 * c[1]), name="F")
        if mode == "exact":  # certificates are exact-only
            for prop in (PROP_DF_GE0, PROP_DF_LE0, PROP_D2F_GE0, PROP_D2F_LE0):
                cert = certify_monotonicity(engine, F, prop)
                assert certify_monotonicity(engine, F, prop) is cert
                assert cert.property == prop
        var = variance(engine, F)
        assert variance(engine, F) is var
        assert len(scans) == (4 if mode == "exact" else 0) and len(variances) == 1

    def test_grid_3atom_pass_scans_each_certificate_once(self, tmp_path, monkeypatch):
        config = cli.load_config(str(Path(__file__).parent / "data" / "grid_3atom.json"))
        config["checks"] = GRID_3ATOM_CHECKS
        certified = counting(monkeypatch, inequalities, "certify_monotonicity")
        varied = counting(monkeypatch, inequalities, "variance")
        scans = counting(monkeypatch, functionals, "_scan_signs")
        variances = counting(monkeypatch, semigroup, "_variance")
        assert cli.run_config(config, tmp_path / "all") == 0
        assert (len(certified), len(scans)) == (11, 6)
        assert (len(varied), len(variances)) == (5, 2)
        assert len({(id(F), prop) for _, F, prop in scans}) == 6
        # the memo changes no record: each check alone, on its own engine,
        # writes the same line
        alone = []
        for k, item in enumerate(GRID_3ATOM_CHECKS):
            cli._held = None
            assert cli.run_config(dict(config, checks=[item]), tmp_path / str(k)) == 0
            alone += (tmp_path / str(k) / "report.txt").read_text().splitlines()
        together = (tmp_path / "all" / "report.txt").read_text().splitlines()
        assert sorted(together) == sorted(alone)

    def test_differences_and_their_moments_once_per_functional(self, monkeypatch):
        engine = SemigroupEngine(GroundSpace((1.0, 0.5)))
        F = from_rule(lambda c: math.exp(-0.3 * c[0]) * (1.0 + c[1]), name="F")
        table = engine.tabulate(F)
        diffs = counting(monkeypatch, grids, "diff_axis")
        for atoms in ((0,), (1,), (0, 0), (0, 1), (1, 1)):
            d = engine.difference(F, *atoms)
            assert engine.difference(F, *atoms) is d
            assert not d.flags.writeable
            expected = table
            for a in atoms:
                expected = np.diff(expected, axis=a)
            if len(atoms) == 2:  # a second difference is held on the interior only
                expected = grids.trim_to(expected, engine.trunc.shape)
            assert np.array_equal(d, expected)
        assert len(diffs) == 5  # each pair reads its memoized D_i F
        d0 = engine.difference(F, 0)
        law = grids.trim_to(engine.law, d0.shape)
        moments = {1: float(np.sum(law * np.abs(d0))), 2: float(np.sum(law * d0**2))}
        for power, expected in moments.items():
            assert engine.difference_moment(F, 0, power) == expected
        expects = counting(monkeypatch, SemigroupEngine, "expect_table")
        for power, expected in moments.items():
            assert engine.difference_moment(F, 0, power) == expected
        assert expects == []

    def test_grid_3atom_pass_takes_each_difference_once(self, tmp_path, monkeypatch):
        expects = counting(monkeypatch, SemigroupEngine, "expect_table")
        diffs = counting(monkeypatch, grids, "diff_axis")
        assert cli.run_config(GRID_3ATOM_SEED_1, tmp_path) == 0
        # 42 and 55 before the difference memo, 33 expectations before the
        # scalar memos; E[D(F^{q-1}) D F] of entropy-power equals the energy
        # only at q = 2, so it is no hit
        assert len(expects) <= 32
        assert len(diffs) <= 26

    def test_grid_3atom_seed1_report_is_unchanged(self, tmp_path):
        # every exact check of a grid-3atom pass, as written before the
        # engine memoized min F, max|F|, E F, Ent F and ||F||_p
        assert cli.run_config(GRID_3ATOM_SEED_1, tmp_path) == 0
        expected = (ROOT / "tests" / "data" / "grid_3atom_seed1.report.txt").read_bytes()
        assert (tmp_path / "report.txt").read_bytes() == expected

    def test_grid_3atom_pass_searches_each_cap_once(self, tmp_path, monkeypatch):
        searches = counting(monkeypatch, ground, "_min_cap")
        # pdtrik starts every search, whichever module's name calls it
        guesses = counting(monkeypatch, ground, "pdtrik")
        assert cli.run_config(GRID_3ATOM_SEED_1, tmp_path) == 0
        # the caps and the pads read one search per atom
        assert len(searches) == len(guesses) == 3

    def test_given_caps_pad_as_searched_caps(self):
        space = GroundSpace((0.035355, 0.126532, 0.155858, 7.5))
        searched = TruncatedStateSpace.from_tail_mass(space, 1e-6)
        given = TruncatedStateSpace(space, searched.caps, 1e-6)
        assert given == searched
        assert SemigroupEngine(space, given).shape == SemigroupEngine(space, searched).shape
        wider = TruncatedStateSpace(space, tuple(n + 2 for n in searched.caps), 1e-6)
        assert SemigroupEngine(space, wider).shape == tuple(
            s + 2 for s in SemigroupEngine(space, searched).shape)
        # a copy at another tail mass searches its own pads
        looser = dataclasses.replace(searched, tail_mass=1e-3)
        assert SemigroupEngine(space, looser).shape == SemigroupEngine(
            space, TruncatedStateSpace(space, searched.caps, 1e-3)).shape
        assert SemigroupEngine(space, looser).shape != SemigroupEngine(space, searched).shape

    def test_four_atom_report_and_memo_bytes(self, tmp_path, monkeypatch):
        engines = []
        build = cli._build_engine
        monkeypatch.setattr(cli, "_build_engine", lambda *args: engines.append(build(*args))
                            or engines[-1])
        config = cli.load_config(str(ROOT / "tests" / "data" / "grid_4atom.json"))
        assert cli.run_config(config, tmp_path) == 0
        expected = (ROOT / "tests" / "data" / "grid_4atom.report.txt").read_bytes()
        assert (tmp_path / "report.txt").read_bytes() == expected
        (engine,) = engines
        arrays = {}
        for F, result in engine._results.values():
            if isinstance(result, np.ndarray):
                owner = result if result.base is None else result.base
                arrays[id(owner)] = owner.nbytes
        held = {id(F) for F, _ in engine._results.values()}
        # per functional: its table and F log F on the padded grid, one first
        # difference per atom, and every second difference on the interior
        padded, m = engine.shape, len(engine.shape)
        first = sum(math.prod(padded) * (s - 1) // s for s in padded)
        pairs = m * (m + 1) // 2 * engine.trunc.state_count()
        per_functional = 8 * (2 * math.prod(padded) + first + pairs)
        assert sum(arrays.values()) <= len(held) * per_functional

    def test_shipped_suite_takes_differences_through_the_engine(self, tmp_path, monkeypatch):
        diffs = counting(monkeypatch, grids, "diff_axis")
        expects = counting(monkeypatch, SemigroupEngine, "expect_table")
        config = cli.load_config(str(ROOT / "configs" / "onedim_suite.json"))
        assert cli.run_config(config, tmp_path) == 0
        assert len(diffs) == 11
        assert len(expects) == 31  # 35 before the scalar memos

    def test_shipped_suite_takes_u_log_u_once_per_table(self, tmp_path, monkeypatch):
        phis = counting(monkeypatch, inequalities, "_phi")
        config = cli.load_config(str(ROOT / "configs" / "onedim_suite.json"))
        assert cli.run_config(config, tmp_path) == 0
        # modified-lsi reads the F log F that entropy took: 4 calls before
        assert len(phis) == len({id(table) for table, in phis}) == 3

    def test_scalars_of_a_functional_once_per_engine(self, monkeypatch):
        engine = SemigroupEngine(GroundSpace((1.0, 0.5)))
        F = from_rule(lambda c: math.exp(-0.4 * c[0]) * (1.0 + c[1]), name="F")
        table = F.tabulate(engine.shape)

        def scalars():
            return (engine.minimum(F), engine.sup_abs(F), engine.mean(F),
                    inequalities.entropy(engine, F), lp_norm(engine, F, 2.0),
                    lp_norm(engine, F, math.inf))

        first = scalars()
        law = engine.law
        mean = float(np.sum(law * table))
        assert first[:4] == (float(np.min(table)), float(np.max(np.abs(table))), mean,
                             float(np.sum(law * (table * np.log(table)))) - mean * math.log(mean))
        assert first[4].value == float(np.sum(law * table**2)) ** 0.5
        assert first[5].value == float(np.max(engine.interior(table)))
        expects = counting(monkeypatch, SemigroupEngine, "expect_table")
        tables = counting(monkeypatch, Functional, "tabulate")
        again = scalars()
        assert all(a is b for a, b in zip(again, first))
        assert expects == [] and tables == []

    def test_restricted_at_ten_times_takes_the_norm_of_f_once(self, tmp_path, monkeypatch):
        built = counting(monkeypatch, semigroup, "_lp_norm")
        config = {
            "space": {"weights": [1.0]},
            "functionals": {"f": "exp_neg(0.5, 0)"},
            "checks": [{"check": "restricted-hypercontractivity", "functional": "f",
                        "params": {"t": [0.1 * k for k in range(1, 11)], "p": 2.0}}],
        }
        assert cli.run_config(config, tmp_path) == 0
        assert len((tmp_path / "report.txt").read_text().splitlines()) == 10
        # one norm of each P_t F, and one of F for all ten records
        names = [F.name for _, F, _ in built]
        assert len(names) == 11 and names.count("f") == 1

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_throwaway_functionals_never_share_a_certificate(self, mode):
        # increasing and decreasing functionals alternate, rule-backed and
        # table-backed, so an id reused by a freed functional would be served
        # the other sign's certificate, variance or scalars
        engine = SemigroupEngine(GroundSpace((1.0, 0.5)), mode=mode,
                                 replications=50, seed=3)
        counts = np.indices(engine.shape or (30, 30), dtype=float)
        if mode == "exact":
            top = sum(engine.shape) - 2  # c_0 + c_1 at the padded grid's far corner
            cap = sum(engine.trunc.caps)
            # Ent(c_0 + c_1); Ent(a F) = a Ent(F) for a > 0
            unit_entropy = inequalities.entropy(engine, from_table(counts[0] + counts[1]))
        for k in range(200):
            sign = 1.0 if k % 2 else -1.0
            if k % 4 < 2:
                F = from_rule(lambda c, a=sign * (k + 1): a * float(c[0] + c[1]))
            else:
                F = from_table(sign * (k + 1) * (counts[0] + counts[1]))
            if mode == "exact":  # certificates are exact-only
                assert certify_monotonicity(engine, F, PROP_DF_GE0).valid == (sign > 0)
                assert certify_monotonicity(engine, F, PROP_DF_LE0).valid == (sign < 0)
                # Var(c_0 + c_1) = 1 + 0.5
                assert variance(engine, F) == pytest.approx(1.5 * (k + 1) ** 2, rel=1e-9)
                a = sign * (k + 1)
                assert engine.minimum(F) == min(0.0, a * top)
                assert engine.sup_abs(F) == abs(a) * top
                assert engine.mean(F) == pytest.approx(1.5 * a, rel=1e-9)
                # E(c_0 + c_1)^2 = 1.5 + 1.5^2
                assert lp_norm(engine, F, 2).value == pytest.approx(
                    abs(a) * math.sqrt(3.75), rel=1e-9)
                assert lp_norm(engine, F, math.inf).value == abs(a) * cap
                if sign > 0:
                    assert inequalities.entropy(engine, F) == pytest.approx(
                        a * unit_entropy, rel=1e-9)
                else:
                    with pytest.raises(NegativeValueError):
                        inequalities.entropy(engine, F)
            else:
                samples = tuple(engine.samples.T)
                assert variance(engine, F)[0] == F.values(samples).var(ddof=1)

    def test_a_call_that_raises_stores_nothing(self):
        engine = engine_for(1.0)
        F = from_rule(lambda c: 1e200 * float(c[0]), name="huge")  # finite; its square is not
        for _ in range(2):
            with pytest.raises(NonFiniteValueError, match="variance of huge"):
                variance(engine, F)
        assert (id(F), "variance") not in engine._results


def weighted_sq_diffs(table, weights):
    """sum_i lam_i (D_i table)^2, the expression the energy density keeps."""
    reduced = tuple(s - 1 for s in table.shape)
    out = np.zeros(reduced)
    for i, lam in enumerate(weights):
        out += lam * grids.trim_to(np.diff(table, axis=i), reduced) ** 2
    return out


class TestOneDifferencePath:
    def test_energy_density_equals_the_weighted_square_sum(self):
        rng = np.random.default_rng(17)
        for m in (1, 2, 3):
            engine = SemigroupEngine(GroundSpace(tuple(rng.uniform(0.05, 1.0, m))))
            for scale in (1.0, 1e160):  # 1e160: some squares overflow to inf
                table = scale * rng.normal(size=engine.shape)
                got = engine.energy_density(from_table(table))  # no RuntimeWarning
                with np.errstate(over="ignore"):
                    expected = weighted_sq_diffs(table, engine.space.weights)
                assert got.shape == tuple(s - 1 for s in engine.shape)
                assert got.tobytes() == expected.tobytes()
            assert np.isinf(got).any()

    def test_sampled_differences_equal_the_one_state_calculus(self):
        engine = SemigroupEngine(GroundSpace((1.0, 0.5, 2.0)), mode="mc",
                                 replications=500, seed=6)
        F = from_rule(lambda c: math.exp(-0.3 * c[0]) * (1.0 + c[1]) - math.sqrt(c[2]))
        samples = tuple(engine.samples.T)
        for i in range(3):
            want = functionals.add_one_cost(F, samples, i)
            assert engine.difference(F, i).tobytes() == want.tobytes()

    def test_sampled_differences_are_not_stored(self):
        engine = SemigroupEngine(GroundSpace((1.0, 0.5, 2.0)), mode="mc",
                                 replications=500, seed=4)
        F = from_rule(lambda c: float(c[0] + 2 * c[1] + 3 * c[2]), name="F")
        for i in range(3):
            engine.difference(F, i)
        whats = [what for _, what in engine._results]
        assert whats == ["samples"]  # only the sample table stays
        d = engine.difference(F, 1)
        assert d is not engine.difference(F, 1)
        with pytest.raises(ValueError, match="read-only"):
            d[0] = 1.0


def tensordot_apply(mats, table):
    """``grids.tensor_apply`` as it was first written, on ``np.tensordot``."""
    for axis, mat in enumerate(mats):
        table = np.moveaxis(np.tensordot(mat, table, axes=(1, axis)), 0, axis)
    return table


def test_tensor_apply_is_tensordot_bit_for_bit():
    """Same bits, shape and strides as the tensordot loop on 200 seeded cases:
    1-3 axes of size 1-40, contiguous and trimmed (non-contiguous) tables, of
    values or of differences, and kernels sliced as ``apply_table`` slices
    them."""
    rng = np.random.default_rng(26)
    for case in range(200):
        m = 1 + case % 3
        sizes = [int(s) for s in rng.integers(1, 41, size=m)]
        if case < 6:  # every axis of size 1, and of size 40 on one axis
            sizes = [1] * m if case < 3 else [40] + sizes[1:]
        padded = [s + int(rng.integers(1, 4)) for s in sizes]
        full = rng.standard_normal(padded) * 10.0 ** rng.uniform(-5, 5, size=padded)
        table = grids.trim_to((full, grids.diff_axis(full, m - 1))[rng.integers(2)], sizes)
        if rng.integers(2):
            table = table.copy()  # contiguous; else a trimmed view
        t = float(rng.choice([rng.uniform(0, 3), 1e-6, 800.0]))
        mats = []
        for s, p in zip(table.shape, padded):
            kernel = ou_kernel_1d(float(rng.uniform(0.01, 40)), p, t)
            mats.append(kernel[:s, :s] if case % 2 else rng.random((s, s)))
        ours, ref = grids.tensor_apply(mats, table), tensordot_apply(mats, table)
        assert ours.shape == ref.shape and ours.strides == ref.strides, case
        assert ours.tobytes() == ref.tobytes(), case
