"""Array evaluation of DSL functionals: bit-equal to the scalar rule, same checks.

Grid tables, the difference operators, sampled certificates and Monte Carlo
sample loops evaluate a DSL functional through its array form
(``Functional.batch``); a Python-rule functional goes state by state. Every
comparison here is exact: the array form adds the same floats in the same
order as the rule, so reports do not move by a single bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ou import (
    Functional,
    GroundSpace,
    NonFiniteValueError,
    SemigroupEngine,
    TruncatedStateSpace,
    add_one_cost,
    certify_monotonicity,
    check_mecke,
    entropy,
    expectation,
    from_rule,
    functional_from_text,
    gamma_expectation,
    lp_norm,
    sample_configurations,
    second_difference,
    variance,
)
from poisson_ou import grids
from poisson_ou.cli import format_report_line
from poisson_ou.dsl import BUILTINS, Expr, Term, serialize, to_functional
from poisson_ou.functionals import PROP_D2F_GE0, PROP_D2F_LE0, PROP_DF_GE0, PROP_DF_LE0


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def expressions(draw, atoms):
    """A random DSL expression over the given number of atoms."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        func = draw(st.sampled_from(sorted(BUILTINS)))
        atom = float(draw(st.integers(0, atoms - 1)))
        level = draw(st.floats(0, 6, allow_nan=False).map(lambda x: round(x, 2)))
        args = {
            "count": (atom,),
            "indicator_le": (atom, level),
            "exp_neg": (draw(st.floats(0, 3, allow_nan=False)), atom),
            "cumsum_g": (atom, float(int(level))),
            "max_radius_gt": (atom,),
        }[func]
        coeff = draw(st.floats(-10, 10, allow_nan=False).filter(lambda x: x != 0))
        terms.append(Term(coeff, func, args))
    return Expr(const=draw(st.floats(-10, 10, allow_nan=False)), terms=tuple(terms))


@st.composite
def grid_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    return draw(expressions(len(shape))), shape


class TestGridParity:
    @given(case=grid_cases())
    @settings(max_examples=120, deadline=None)
    def test_tabulate_matches_scalar_rule(self, case):
        expr, shape = case
        F = to_functional(expr)
        batched = F.tabulate(shape)
        scalar = grids.tabulate_rule(F.rule, shape)
        assert np.array_equal(batched, scalar)
        assert same_bits(batched, scalar)

    @given(case=grid_cases(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_values_match_calls_on_samples(self, case, seed):
        expr, shape = case
        F = functional_from_text(serialize(expr))
        counts = np.random.default_rng(seed).poisson(3.0, size=(40, len(shape)))
        assert same_bits(F.values(counts), [F(c) for c in counts])

    def test_lines_grow_on_demand(self):
        F = functional_from_text("exp_neg(0.7, 0) + 3*cumsum_g(1, 4) - count(1)")
        for top in (2, 40, 5, 300):
            counts = np.array([[top, 0], [0, top], [top // 2, top]])
            assert same_bits(F.values(counts), [F(c) for c in counts])

    def test_negative_counts_rejected(self):
        F = functional_from_text("count(0)")
        with pytest.raises(ValueError, match="non-negative"):
            F.values([[1], [-1]])

    def test_axes_name_the_atoms_read(self):
        F = functional_from_text("exp_neg(0.5, 2) + count(0) - indicator_le(1, 3)")
        assert F.batch.axes == (2, 0, 1)


class TestChecksMatchCall:
    """``values`` raises what ``__call__`` raises at the first bad state."""

    @staticmethod
    def blows_up_at_2(**kwargs):
        return Functional(
            rule=lambda c: math.inf if c[0] == 2 else float(c[0]),
            batch=lambda c: np.where(c[..., 0] == 2, np.inf, c[..., 0].astype(float)),
            name="blowup", **kwargs,
        )

    def test_non_finite(self):
        F = self.blows_up_at_2()
        with pytest.raises(NonFiniteValueError) as scalar:
            F((2, 5))
        with pytest.raises(NonFiniteValueError) as batched:
            F.values([[0, 0], [2, 5], [2, 0]])
        assert str(batched.value) == str(scalar.value)
        assert "(2, 5)" in str(batched.value)

    def test_non_finite_without_batch(self):
        F = dataclasses.replace(self.blows_up_at_2(), batch=None)
        with pytest.raises(NonFiniteValueError) as scalar:
            F((2, 5))
        with pytest.raises(NonFiniteValueError) as batched:
            F.values([[0, 0], [2, 5]])
        assert str(batched.value) == str(scalar.value)

    def test_bound_violation(self):
        F = dataclasses.replace(functional_from_text("count(0)", name="n"), bounded_by=1.5)
        with pytest.raises(ValueError) as scalar:
            F((2,))
        with pytest.raises(ValueError) as batched:
            F.values([[1], [2], [3]])
        assert str(batched.value) == str(scalar.value)
        assert "declared bound 1.5" in str(batched.value)

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "rule"])
    def test_tabulate_checks_bound(self, batch):
        F = dataclasses.replace(functional_from_text("count(0)", name="n"), bounded_by=1.5)
        if not batch:
            F = dataclasses.replace(F, batch=None)
        with pytest.raises(ValueError, match=r"n exceeds its declared bound 1.5 at \(2, 0\)"):
            F.tabulate((4, 2))

    def test_first_bad_state_decides(self):
        # the bound breaks at c = 1 before the value blows up at c = 2
        F = self.blows_up_at_2(bounded_by=0.5)
        with pytest.raises(ValueError, match="declared bound"):
            F.values([[0, 0], [1, 0], [2, 0]])
        with pytest.raises(NonFiniteValueError):
            F.values([[0, 0], [2, 0], [1, 0]])


def unit(m, *atoms):
    e = np.zeros(m, dtype=np.int64)
    for a in atoms:
        e[a] += 1
    return e


class TestDifferenceParity:
    """D and D^2 on a (n, m) array equal the per-state calls and the scalar rule."""

    @given(case=grid_cases(), seed=st.integers(0, 2**16), python_rule=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_array_matches_per_state(self, case, seed, python_rule):
        expr, shape = case
        F = to_functional(expr)
        if python_rule:
            F = from_rule(F.rule, name=F.name)
        m = len(shape)
        counts = np.random.default_rng(seed).poisson(2.0, size=(25, m))
        rule = F.rule
        for i in range(m):
            d = add_one_cost(F, counts, i)
            assert same_bits(d, [add_one_cost(F, c, i) for c in counts])
            assert same_bits(d, [rule(c + unit(m, i)) - rule(c) for c in counts])
            for j in range(m):
                d2 = second_difference(F, counts, i, j)
                assert same_bits(d2, [second_difference(F, c, i, j) for c in counts])
                assert same_bits(d2, [
                    rule(c + unit(m, i, j)) - rule(c + unit(m, i))
                    - rule(c + unit(m, j)) + rule(c)
                    for c in counts
                ])

    def test_one_state_gives_a_float(self):
        F = functional_from_text("exp_neg(0.5, 0) + count(1)")
        assert type(add_one_cost(F, (2, 3), 0)) is float
        assert type(second_difference(F, (2, 3), 0, 1)) is float
        assert add_one_cost(F, [[2, 3]], 1).shape == (1,)


PROPS = [PROP_DF_LE0, PROP_DF_GE0, PROP_D2F_LE0, PROP_D2F_GE0]
#: DF >= 0 and D2F <= 0 hold; D2F fails at c_0 = 2 and at c_1 = 1
STAIRS = "cumsum_g(0, 2) + cumsum_g(1, 1)"


class TestSampledCertificates:
    space = GroundSpace((1.0, 1.0))
    exact = SemigroupEngine(space)
    mc = SemigroupEngine(space, mode="mc", replications=200, seed=0)

    def test_no_scalar_rule_calls(self):
        F = functional_from_text(STAIRS)
        calls = []

        def counted(c, _rule=F.rule):
            calls.append(tuple(c))
            return _rule(c)

        F = dataclasses.replace(F, rule=counted)
        for prop in PROPS:
            certify_monotonicity(self.mc, F, prop)
        assert calls == []

    @pytest.mark.parametrize("prop", PROPS)
    def test_agrees_with_exact(self, prop):
        F = functional_from_text(STAIRS)
        exact = certify_monotonicity(self.exact, F, prop)
        sampled = certify_monotonicity(self.mc, F, prop)
        assert sampled.kind == "sampled" and exact.valid == sampled.valid
        assert exact.valid == (prop in (PROP_DF_GE0, PROP_D2F_LE0))
        if not sampled.valid:
            state, atoms, value = sampled.witness
            if prop in (PROP_DF_LE0, PROP_DF_GE0):
                assert value == add_one_cost(F, state, atoms)
            else:
                assert value == second_difference(F, state, *atoms)

    def test_witness_is_first_failure_of_first_failing_pair(self):
        # pair (0, 0) fails first in the scan, at the first sample with c_0 = 2;
        # a whole block of samples is counted per pair
        F = functional_from_text(STAIRS)
        engine = SemigroupEngine(self.space, mode="mc", replications=200, seed=4)
        samples = sample_configurations(self.space, 200, 4)
        assert np.array_equal(engine.samples, samples)
        cert = certify_monotonicity(engine, F, PROP_D2F_GE0)
        first = next(tuple(c) for c in samples.tolist() if c[0] == 2)
        assert cert.witness == (first, (0, 0), -1.0)
        assert cert.states_checked == 200
        valid = certify_monotonicity(engine, F, PROP_D2F_LE0)
        assert valid.valid and valid.states_checked == 3 * 200


EXPR = "exp_neg(0.3, 0) + 2*cumsum_g(1, 2) - 0.5*indicator_le(2, 1) + 0.75"
OTHER = "count(2) - exp_neg(1.1, 1)"


@pytest.fixture(scope="module")
def mc_engine():
    space = GroundSpace((0.8, 1.5, 0.4))
    return SemigroupEngine(space, mode="mc", replications=700, seed=11)


def pair(text):
    """A DSL functional and the same rule with no array form."""
    F = functional_from_text(text)
    return F, from_rule(F.rule, name=F.name)


class TestMonteCarloParity:
    def test_variance(self, mc_engine):
        F, R = pair(EXPR)
        assert variance(mc_engine, F) == variance(mc_engine, R)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    def test_lp_norm(self, mc_engine, p):
        F, R = pair(EXPR)
        assert lp_norm(mc_engine, F, p) == lp_norm(mc_engine, R, p)

    def test_expectation_and_entropy(self, mc_engine):
        F, R = pair(EXPR)
        assert expectation(mc_engine, F) == expectation(mc_engine, R)
        assert entropy(mc_engine, F) == entropy(mc_engine, R)

    def test_gamma_expectation(self, mc_engine):
        F, R = pair(EXPR)
        G, S = pair(OTHER)
        assert gamma_expectation(mc_engine, F) == gamma_expectation(mc_engine, R)
        assert gamma_expectation(mc_engine, F, G) == gamma_expectation(mc_engine, R, S)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_check_mecke(self, mode):
        space = GroundSpace((0.8, 1.5, 0.4))
        trunc = TruncatedStateSpace.from_tail_mass(space, tail_mass=1e-9)
        F, R = pair(EXPR)
        lines = {
            format_report_line(check_mecke(space, h, trunc=trunc, mode=mode,
                                           replications=900, seed=5))
            for h in (F, R, lambda c, i: R(c))
        }
        assert len(lines) == 1

    def test_check_mecke_skips_empty_atoms(self):
        # h is infinite wherever its atom is empty; only occupied atoms enter
        # the left side and the shifted side never sees an empty atom, so the
        # report stays finite (and the identity holds: both sides are
        # sum_i P[c_i > 0])
        space = GroundSpace((3.0, 2.5))

        def h(c, i):
            return 1.0 / c[i] if c[i] else math.inf

        report = check_mecke(space, h, mode="mc", replications=400, seed=3)
        assert math.isfinite(report.lhs) and report.ok
