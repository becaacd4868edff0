"""Difference calculus: D, D^2, sign certification, and the carre-du-champ."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ou import (
    CapOverflowError,
    GroundSpace,
    SemigroupEngine,
    TruncatedStateSpace,
    add_one_cost,
    affine,
    certify_monotonicity,
    constant,
    from_rule,
    from_table,
    gamma_expectation,
    second_difference,
)
from poisson_ou.functionals import (
    PROP_D2F_GE0,
    PROP_D2F_LE0,
    PROP_DF_GE0,
    PROP_DF_LE0,
)

from conftest import engine_for, random_bounded_functional

counts2 = st.tuples(
    st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20)
)


def linear(a, b):
    return from_rule(lambda c: a * float(c[0]) + b * float(c[1]), name="lin")


class TestEvaluation:
    def test_rule_backed(self):
        F = from_rule(lambda c: float(c[0]) ** 2)
        assert F((3,)) == 9.0

    def test_table_backed_and_overflow(self):
        F = from_table(np.arange(5.0))
        assert F((4,)) == 4.0
        with pytest.raises(CapOverflowError):
            F((5,))

    @pytest.mark.parametrize("evaluate", [
        lambda F: F.values([[0, 0], [2, 1], [0, 2]]),
        lambda F: F.values([[0, 0], [-1, 0]]),
        lambda F: F.tabulate((4, 2)),
    ], ids=["values", "values-negative", "tabulate"])
    def test_table_has_no_values_beyond_it(self, evaluate):
        F = from_table(np.ones((3, 2)), name="T")
        with pytest.raises(CapOverflowError, match=r"T is tabulated only up to \(3, 2\)"):
            evaluate(F)

    def test_nonfinite_rejected(self):
        F = from_rule(lambda c: float("nan"))
        with pytest.raises(Exception):
            F((0,))

    def test_declared_bound_enforced(self):
        F = from_rule(lambda c: float(c[0]), bounded_by=2.0)
        assert F((2,)) == 2.0
        with pytest.raises(ValueError):
            F((3,))

    def test_constant(self):
        F = constant(3.5)
        assert F((0, 0)) == 3.5
        assert F((9,)) == 3.5


class TestDifferenceOperators:
    def test_add_one_cost_square(self):
        F = from_rule(lambda c: float(c[0]) ** 2)
        # (n+1)^2 - n^2 = 2n + 1
        assert add_one_cost(F, (3,), 0) == 7.0

    def test_second_difference_square(self):
        F = from_rule(lambda c: float(c[0]) ** 2)
        # constant second difference 2
        assert second_difference(F, (5,), 0, 0) == 2.0

    def test_linear_has_zero_second_difference(self):
        F = linear(2.0, -1.0)
        for i in range(2):
            for j in range(2):
                assert second_difference(F, (4, 2), i, j) == 0.0

    @given(c=counts2, a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_d_is_linear(self, c, a, b):
        F = from_rule(lambda x: float(x[0]) ** 2)
        G = from_rule(lambda x: float(x[0]) * float(x[1]))
        H = affine([a, b], [F, G])
        for i in range(2):
            lhs = add_one_cost(H, c, i)
            rhs = a * add_one_cost(F, c, i) + b * add_one_cost(G, c, i)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(c=counts2)
    @settings(max_examples=60, deadline=None)
    def test_d2_is_symmetric(self, c):
        F = from_rule(lambda x: np.exp(-0.1 * float(x[0])) * (1.0 + float(x[1])) ** 0.5)
        assert second_difference(F, c, 0, 1) == pytest.approx(
            second_difference(F, c, 1, 0), rel=1e-12, abs=1e-12
        )

    def test_d2_as_iterated_d(self):
        F = from_rule(lambda x: float(x[0]) ** 3 - 2.0 * float(x[1]))
        c = (2, 1)
        via_d = add_one_cost(
            from_rule(lambda x: add_one_cost(F, x, 1)), c, 0
        )
        assert second_difference(F, c, 0, 1) == via_d


class TestCertification:
    engine = SemigroupEngine(GroundSpace((1.0,)))

    def test_decreasing_exact(self):
        F = from_rule(lambda c: np.exp(-0.5 * float(c[0])))
        cert = certify_monotonicity(self.engine, F, PROP_DF_LE0)
        assert cert.valid and cert.kind == "exact"
        assert cert.states_checked > 0

    def test_violation_produces_witness(self):
        F = from_rule(lambda c: float(c[0]))  # DF = +1 everywhere
        cert = certify_monotonicity(self.engine, F, PROP_DF_LE0)
        assert not cert.valid
        state, atom, value = cert.witness
        assert value == 1.0 and atom == 0

    def test_second_difference_signs(self):
        convex = from_rule(lambda c: float(c[0]) ** 2)
        concave = from_rule(lambda c: -float(c[0]) ** 2)
        assert certify_monotonicity(self.engine, convex, PROP_D2F_GE0).valid
        assert certify_monotonicity(self.engine, concave, PROP_D2F_LE0).valid
        assert not certify_monotonicity(self.engine, convex, PROP_D2F_LE0).valid

    def test_indicator_step_fails_both_d2_signs(self):
        # 1{c <= 1} has a second difference changing sign near the step
        F = from_rule(lambda c: 1.0 if c[0] <= 1 else 0.0)
        assert certify_monotonicity(self.engine, F, PROP_DF_LE0).valid
        assert not certify_monotonicity(self.engine, F, PROP_D2F_LE0).valid
        assert not certify_monotonicity(self.engine, F, PROP_D2F_GE0).valid

    def test_sampled_mode(self):
        engine = SemigroupEngine(GroundSpace((1.0, 1.0)), mode="mc",
                                 replications=200, seed=0)
        F = from_rule(lambda c: -float(c[0]) - float(c[1]))
        cert = certify_monotonicity(engine, F, PROP_DF_LE0)
        assert cert.valid and cert.kind == "sampled"
        bad = certify_monotonicity(engine, F, PROP_DF_GE0)
        assert not bad.valid

    def test_exact_certificate_covers_the_engine_truncation(self):
        # a coarse tail mass gives caps well below the default ones: the
        # certificate must check exactly the engine's interior, once per atom
        space = GroundSpace((1.0, 0.5, 2.0))
        trunc = TruncatedStateSpace.from_tail_mass(space, tail_mass=1e-6)
        assert trunc.caps != TruncatedStateSpace.from_tail_mass(space).caps
        engine = SemigroupEngine(space, trunc)
        F = from_rule(lambda c: -float(sum(c)))
        cert = certify_monotonicity(engine, F, PROP_DF_LE0)
        assert cert.valid and cert.states_checked == 3 * trunc.state_count()

    def test_sampled_witness_is_a_row_of_the_engine_samples(self):
        engine = SemigroupEngine(GroundSpace((1.0, 2.0)), mode="mc",
                                 replications=50, seed=7)
        F = from_rule(lambda c: 1.0 if c[1] <= 1 else 0.0)
        cert = certify_monotonicity(engine, F, PROP_DF_LE0)
        assert cert.valid and cert.states_checked == 2 * 50
        bad = certify_monotonicity(engine, F, PROP_DF_GE0)
        state, atom, value = bad.witness
        assert (atom, value) == (1, -1.0)
        assert list(state) in engine.samples.tolist()
        assert state == tuple(next(r for r in engine.samples.tolist() if r[1] == 1))


class TestGammaExpectation:
    def test_linear_case_closed_form(self):
        # F(c) = c_1: E[Gamma(F, F)] = lam_1
        engine = engine_for(2.0)
        F = from_rule(lambda c: float(c[0]))
        assert gamma_expectation(engine, F) == pytest.approx(2.0, abs=1e-9)

    def test_symmetry(self, two_atom_engine):
        F = from_rule(lambda c: float(c[0]) ** 2)
        G = from_rule(lambda c: np.exp(-0.2 * float(c[1])))
        fg = gamma_expectation(two_atom_engine, F, G)
        gf = gamma_expectation(two_atom_engine, G, F)
        assert fg == pytest.approx(gf, rel=1e-12, abs=1e-12)

    def test_positive_semidefinite(self, two_atom_engine):
        rng = np.random.default_rng(5)
        for k in range(10):
            F = random_bounded_functional(rng, name=f"F{k}")
            assert gamma_expectation(two_atom_engine, F) >= 0.0

    def test_bilinear(self, two_atom_engine):
        F = from_rule(lambda c: float(c[0]))
        G = from_rule(lambda c: float(c[1]) ** 2)
        H = affine([2.0, -3.0], [F, G])
        lhs = gamma_expectation(two_atom_engine, H, F)
        rhs = 2.0 * gamma_expectation(two_atom_engine, F, F) - 3.0 * gamma_expectation(
            two_atom_engine, G, F
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_mc_agrees_with_exact(self):
        exact = engine_for(1.0)
        mc = engine_for(1.0, mode="mc", replications=60_000, seed=3)
        F = from_rule(lambda c: np.exp(-0.4 * float(c[0])))
        val = gamma_expectation(exact, F)
        est, se = gamma_expectation(mc, F)
        assert abs(est - val) <= 4 * se
