"""Array evaluation of DSL functionals: bit-equal to the scalar rule, same checks.

Grid tables, the difference operators and Monte Carlo sample loops evaluate
a DSL functional through its array form (``Functional.batch``); a
Python-rule functional goes state by state. Every
comparison here is exact: the array form adds the same floats in the same
order as the rule, so reports do not move by a single bit.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisson_ou import (
    Functional,
    GroundSpace,
    NonFiniteValueError,
    SemigroupEngine,
    TruncatedStateSpace,
    add_one_cost,
    check_mecke,
    from_rule,
    from_table,
    functional_from_text,
    gamma_expectation,
    second_difference,
    variance,
)
from poisson_ou import grids
from poisson_ou.cli import format_report_line
from poisson_ou.dsl import BUILTINS, Expr, Term, serialize, to_functional


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def columns(rows) -> tuple:
    """States given row by row, in the index form ``Functional.values`` takes."""
    return tuple(np.asarray(rows).T)


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


#: an expression reading each of four atoms, on a four-atom grid
FOUR_ATOMS = (Expr(0.25, (Term(2.0, "exp_neg", (0.3, 3.0)),
                          Term(-1.5, "cumsum_g", (0.0, 2.0)),
                          Term(0.7, "indicator_le", (2.0, 1.5)),
                          Term(1.0, "count", (1.0,)),
                          Term(3.0, "max_radius_gt", (3.0,)))),
              (4, 3, 5, 6))


class TestGridParity:
    @given(case=grid_cases())
    @example(case=FOUR_ATOMS)
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
        assert same_bits(F.values(columns(counts)), [F(c) for c in counts])

    def test_lines_grow_on_demand(self):
        F = functional_from_text("exp_neg(0.7, 0) + 3*cumsum_g(1, 4) - count(1)")
        for top in (2, 40, 5, 300):
            counts = np.array([[top, 0], [0, top], [top // 2, top]])
            assert same_bits(F.values(columns(counts)), [F(c) for c in counts])

    def test_negative_counts_rejected(self):
        F = functional_from_text("count(0)")
        with pytest.raises(ValueError, match="non-negative"):
            F.values(columns([[1], [-1]]))

    @pytest.mark.parametrize("counts", [np.array([[0, 1], [2, 3]]), [[0, 1], [2, 3]]],
                             ids=["array", "list"])
    def test_rows_are_refused(self, counts):
        # rows of states are not index form: read as axes they would give
        # F at (0, 2) and (1, 3)
        F = functional_from_text("count(0) + 10*count(1)")
        with pytest.raises(TypeError, match="tuple of m integer arrays"):
            F.values(counts)
        with pytest.raises(TypeError, match="tuple of m integer arrays"):
            add_one_cost(F, counts, 0)
        assert same_bits(F.values(columns(counts)), [10.0, 32.0])

    def test_axes_name_the_atoms_read(self):
        F = functional_from_text("exp_neg(0.5, 2) + count(0) - indicator_le(1, 3)")
        assert F.batch.axes == (2, 0, 1)


class TestChecksMatchCall:
    """``values`` raises what ``__call__`` raises at the first bad state."""

    @staticmethod
    def blows_up_at_2(**kwargs):
        return Functional(
            rule=lambda c: math.inf if c[0] == 2 else float(c[0]),
            batch=lambda c: np.where(c[0] == 2, np.inf, c[0].astype(float)),
            name="blowup", **kwargs,
        )

    def test_non_finite(self):
        F = self.blows_up_at_2()
        with pytest.raises(NonFiniteValueError) as scalar:
            F((2, 5))
        with pytest.raises(NonFiniteValueError) as batched:
            F.values(columns([[0, 0], [2, 5], [2, 0]]))
        assert str(batched.value) == str(scalar.value)
        assert "(2, 5)" in str(batched.value)

    def test_non_finite_without_batch(self):
        F = dataclasses.replace(self.blows_up_at_2(), batch=None)
        with pytest.raises(NonFiniteValueError) as scalar:
            F((2, 5))
        with pytest.raises(NonFiniteValueError) as batched:
            F.values(columns([[0, 0], [2, 5]]))
        assert str(batched.value) == str(scalar.value)

    def test_bound_violation(self):
        F = dataclasses.replace(functional_from_text("count(0)", name="n"), bounded_by=1.5)
        with pytest.raises(ValueError) as scalar:
            F((2,))
        with pytest.raises(ValueError) as batched:
            F.values(columns([[1], [2], [3]]))
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
            F.values(columns([[0, 0], [1, 0], [2, 0]]))
        with pytest.raises(NonFiniteValueError):
            F.values(columns([[0, 0], [2, 0], [1, 0]]))


def unit(m, *atoms):
    e = np.zeros(m, dtype=np.int64)
    for a in atoms:
        e[a] += 1
    return e


class TestDifferenceParity:
    """D and D^2 on n states in index form equal the per-state calls and the
    scalar rule."""

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
            d = add_one_cost(F, columns(counts), i)
            assert same_bits(d, [add_one_cost(F, tuple(c), i) for c in counts])
            assert same_bits(d, [rule(c + unit(m, i)) - rule(c) for c in counts])
            for j in range(m):
                d2 = second_difference(F, columns(counts), i, j)
                assert same_bits(d2, [second_difference(F, tuple(c), i, j) for c in counts])
                assert same_bits(d2, [
                    rule(c + unit(m, i, j)) - rule(c + unit(m, i))
                    - rule(c + unit(m, j)) + rule(c)
                    for c in counts
                ])

    def test_diff_axis_is_np_diff(self):
        """grids.diff_axis is np.diff's subtraction, bit for bit, on random
        1- to 3-atom tables holding ties (0.0 and -0.0), +-inf and nan."""
        rng = np.random.default_rng(24)
        specials = np.array([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan])
        for _ in range(300):
            shape = tuple(int(s) for s in rng.integers(1, 7, size=rng.integers(1, 4)))
            table = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
            special = rng.random(shape) < rng.uniform(0.0, 0.6)
            table[special] = rng.choice(specials, size=int(special.sum()))
            for axis in range(len(shape)):
                with np.errstate(invalid="ignore"):  # inf - inf
                    assert same_bits(grids.diff_axis(table, axis), np.diff(table, axis=axis))

    def test_one_state_gives_a_float(self):
        F = functional_from_text("exp_neg(0.5, 0) + count(1)")
        assert type(add_one_cost(F, (2, 3), 0)) is float
        assert type(second_difference(F, (2, 3), 0, 1)) is float
        assert add_one_cost(F, ([2], [3]), 1).shape == (1,)


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

    def test_expectation(self, mc_engine):
        F, R = pair(EXPR)
        assert mc_engine.expect_mc(F) == mc_engine.expect_mc(R)

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
            format_report_line(check_mecke(SemigroupEngine(space, trunc, mode=mode,
                                                           replications=900, seed=5), h))
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

        report = check_mecke(SemigroupEngine(space, mode="mc", replications=400, seed=3), h)
        assert math.isfinite(report.lhs)
        assert report.verdict in ("holds", "holds-within-stat-error")


class TestMeckeOnTheEngine:
    """The engine form of ``check_mecke`` and the form that builds an exact
    engine from (space, trunc) give the same report."""

    space = GroundSpace((0.8, 1.5, 0.4))
    trunc = TruncatedStateSpace.from_tail_mass(space, tail_mass=1e-9)

    def test_engine_form_matches_space_form(self):
        F, R = pair(EXPR)
        engine = SemigroupEngine(self.space, self.trunc)
        for h in (F, R, lambda c, i: R(c)):
            old = check_mecke(self.space, h, trunc=self.trunc)
            assert format_report_line(check_mecke(engine, h)) == format_report_line(old)

    @pytest.mark.parametrize("mode, line", [
        ("exact", "name=mecke params=mode=exact lhs=12.879205540357709 "
                  "rhs=12.879205540357709 slack=0 stderr=- verdict=holds certs=-"),
        ("mc", "name=mecke params=mode=mc,replications=900 lhs=-0.16010597064228982 "
               "rhs=0 slack=0.16010597064228982 stderr=0.28715001737434581 "
               "verdict=holds-within-stat-error certs=-"),
    ], ids=["exact", "mc"])
    def test_table_backed_h_needs_only_caps_plus_two(self, mode, line):
        # the table covers the caps + 2 grid that exact Mecke sums over, not
        # the engine's padded grid; the lines are those of the code that
        # evaluated h on its own caps + 2 grid
        shape = tuple(n + 2 for n in self.trunc.caps)
        T = from_table(functional_from_text(EXPR).tabulate(shape), name="T")
        engine = SemigroupEngine(self.space, self.trunc, mode=mode,
                                 replications=900, seed=5)
        if mode == "exact":
            assert any(t < s for t, s in zip(T.table.shape, engine.shape))
        assert format_report_line(check_mecke(engine, T)) == line


def random_expression(rng, atoms) -> Expr:
    """A seeded DSL expression on the given number of atoms that calls every
    builtin at least once, at a random atom, plus up to three more terms."""
    names = sorted(BUILTINS) + list(rng.choice(sorted(BUILTINS), size=rng.integers(0, 4)))
    terms = []
    for func in names:
        atom = float(rng.integers(atoms))
        level = float(rng.integers(0, 5))
        args = {"count": (atom,), "indicator_le": (atom, level + 0.5),
                "exp_neg": (round(float(rng.uniform(0, 2)), 3), atom),
                "cumsum_g": (atom, level), "max_radius_gt": (atom,)}[func]
        terms.append(Term(round(float(rng.uniform(-5, 5)), 3) or 1.0, func, args))
    return Expr(const=round(float(rng.uniform(-3, 3)), 3), terms=tuple(terms))


class TestSampleTable:
    """``Functional.shift_table``: F on the states and on every one-point shift
    of them, equal to ``values`` row by row, checked as ``values`` checks."""

    @staticmethod
    def per_shift(F, counts):
        m = len(counts)
        return [F.values(counts)] + [F.values(grids.add_unit(counts, i)) for i in range(m)]

    @pytest.mark.parametrize("atoms", [1, 2, 3, 4])
    def test_rows_equal_values_on_every_shift(self, atoms):
        rng = np.random.default_rng(atoms)
        counts = columns(rng.poisson(1.5, size=(60, atoms)))
        for _ in range(25):
            F = to_functional(random_expression(rng, atoms))
            table = F.shift_table(counts)
            assert table.shape == (1 + atoms, 60)
            assert all(same_bits(row, want) for row, want in zip(table, self.per_shift(F, counts)))

    def test_rule_and_table_backed_functionals_fill_rows_through_values(self):
        counts = columns(np.random.default_rng(5).poisson(1.0, size=(40, 3)))
        F = functional_from_text(EXPR)
        rule = from_rule(F.rule, name="R")
        table_backed = from_table(F.tabulate((12, 12, 12)), name="T")
        for G in (rule, table_backed):
            table = G.shift_table(counts)
            assert all(same_bits(row, want) for row, want in zip(table, self.per_shift(G, counts)))
            assert same_bits(table, F.shift_table(counts))

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "rule"])
    def test_a_value_bad_only_after_a_shift_names_its_state(self, batch):
        # 1.7e308 at c_0 = 1 is a double, 3.4e308 at c_0 = 2 is not: only the
        # row shifted at atom 0 holds an inf
        big = functional_from_text("1e308 * count(0) + 0.7e308 * count(0)", name="big")
        # the bound first breaks at the first state shifted at atom 1, but
        # rows are checked in order: the fourth state shifted at atom 0 is named
        bounded = dataclasses.replace(functional_from_text("count(0) + 2 * count(1)", name="n"),
                                      bounded_by=4.0)
        cases = [(big, NonFiniteValueError, [[1, 1], [0, 2], [1, 0]],
                  "big is non-finite at (2, 1)"),
                 (bounded, ValueError, [[1, 1], [0, 1], [1, 0], [2, 1]],
                  "n exceeds its declared bound 4.0 at (3, 1)")]
        for G, error, rows, message in cases:
            if not batch:
                G = dataclasses.replace(G, batch=None)
            with pytest.raises(error) as reference:
                self.per_shift(G, columns(rows))
            with pytest.raises(error) as built:
                G.shift_table(columns(rows))
            assert str(built.value) == str(reference.value) == message

    def test_the_engine_reports_the_first_bad_shifted_sample(self):
        engine = SemigroupEngine(GroundSpace((0.8, 1.5)), mode="mc", replications=300, seed=7)
        samples = tuple(engine.samples.T)
        top = float((samples[0] + samples[1]).max())
        F = dataclasses.replace(functional_from_text("count(0) + count(1)"), bounded_by=top)
        with pytest.raises(ValueError) as reference:
            F.values(grids.add_unit(samples, 0))
        with pytest.raises(ValueError) as built:
            engine.sample_values(F)
        assert str(built.value) == str(reference.value)

    def test_build_memory_stays_within_one_table(self):
        # the table holds (1 + m) * n doubles; index arrays for every shifted
        # copy of the states would hold m times as many int64s
        m, n = 6, 20_000
        space = GroundSpace((1.0,) * m)
        trunc = TruncatedStateSpace.from_tail_mass(space, budget=10**8)
        engine = SemigroupEngine(space, trunc, mode="mc", replications=n, seed=1)
        F = to_functional(random_expression(np.random.default_rng(0), m))
        F.values(tuple(engine.samples.T))  # grow the term lines outside the trace
        tracemalloc.start()
        try:
            engine.sample_values(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (1 + m) * n * 8

    def test_engine_table_is_read_only_and_built_once(self, mc_engine):
        F = functional_from_text(EXPR)
        # a table-backed functional too: no check builds a transient one on
        # samples, so the engine holds it and builds its table once
        T = from_table(F.tabulate((20, 20, 20)), name="T")
        for G in (F, T):
            table = mc_engine.sample_values(G)
            assert mc_engine.sample_values(G) is table
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[1, 0] = 0.0
            assert same_bits(table, F.shift_table(tuple(mc_engine.samples.T)))


def scalar_line(term: Term, size: int) -> list:
    """The term's values at counts 0..size-1, one scalar ``value`` call each:
    what a term's line held when it was filled count by count."""
    builtin = BUILTINS[term.func]
    k = builtin.atom_arg
    rest = term.args[:k] + term.args[k + 1:]
    return [term.coeff * builtin.value(n, *rest) for n in range(size)]


def line_terms(rng) -> list:
    """Seeded terms of every builtin, plus the edges of each argument range."""
    terms = [
        Term(1.0, "cumsum_g", (0.0, 1e300)), Term(-2.5, "cumsum_g", (0.0, 0.0)),
        Term(1.0, "cumsum_g", (0.0, 3.7)), Term(1.0, "indicator_le", (0.0, 1e300)),
        Term(3.0, "indicator_le", (0.0, 0.0)), Term(1.0, "indicator_le", (0.0, 2.5)),
        Term(1.0, "exp_neg", (1e308, 0.0)), Term(1.0, "exp_neg", (0.0, 0.0)),
        Term(-1.0, "exp_neg", (5e-324, 0.0)), Term(1e308, "count", (0.0,)),
        Term(-0.0, "count", (0.0,)), Term(5e-324, "max_radius_gt", (0.0,)),
    ]
    for _ in range(60):
        func = str(rng.choice(sorted(BUILTINS)))
        level = float(rng.choice([rng.integers(0, 40), rng.uniform(0, 40), 10.0 ** rng.uniform(-5, 300)]))
        args = {"count": (0.0,), "indicator_le": (0.0, level), "exp_neg": (level, 0.0),
                "cumsum_g": (0.0, level), "max_radius_gt": (0.0,)}[func]
        coeff = float(rng.choice([rng.uniform(-10, 10), 10.0 ** rng.uniform(-300, 308), -1.0]))
        terms.append(Term(coeff, func, args))
    return terms


class TestLinesMatchScalarValues:
    """Each term's line is filled by one array operation per extension (the
    builtin's ``line``); every entry has the bits of the scalar ``value``."""

    @pytest.mark.parametrize("reach", [0, 1])
    def test_lines_grown_in_steps_match_value_calls(self, reach):
        rng = np.random.default_rng(26)
        for term in line_terms(rng):
            batch = to_functional(Expr(0.0, (term,))).batch
            # an overflowing product is inf in both forms; Python floats do not warn
            with np.errstate(over="ignore"):
                for top in (0, 1, 2, 5, 6, 40, int(rng.integers(41, 300))):
                    line = batch._line(0, np.array([top]), reach=reach)
                    assert line.size >= top + reach + 1
                    assert same_bits(line, scalar_line(term, line.size)), (term, top)
