"""Functional mini-language: parsing, diagnostics, round-trip, semantics."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ou import DslError, functional_from_text, parse, serialize
from poisson_ou.dsl import BUILTINS, Expr, Term, to_functional


class TestParsing:
    def test_single_call(self):
        e = parse("count(0)")
        assert e == Expr(const=0.0, terms=(Term(1.0, "count", (0.0,)),))

    def test_coefficient_and_constant(self):
        e = parse("2.5*exp_neg(0.3, 1) - 4")
        assert e.const == -4.0
        (term,) = e.terms
        assert term.coeff == 2.5 and term.func == "exp_neg"
        assert term.args == (0.3, 1.0)

    def test_leading_sign(self):
        e = parse("-count(0) + 1")
        assert e.terms[0].coeff == -1.0
        assert e.const == 1.0

    def test_constant_only(self):
        assert parse("3.5") == Expr(const=3.5, terms=())

    def test_whitespace_insensitive(self):
        assert parse(" count( 0 )+2 ") == parse("count(0) + 2")

    def test_scientific_notation(self):
        e = parse("1e-3*count(0)")
        assert e.terms[0].coeff == 1e-3


class TestDiagnostics:
    def test_unknown_builtin(self):
        with pytest.raises(DslError, match="line 1, column 1"):
            parse("foo(0)")

    def test_bad_character_position(self):
        with pytest.raises(DslError, match="column 10"):
            parse("count(0) @")

    def test_multiline_position(self):
        with pytest.raises(DslError, match="line 2"):
            parse("count(0) +\n%")

    def test_arity_error(self):
        with pytest.raises(DslError, match="argument"):
            parse("indicator_le(0)")

    def test_empty_expression(self):
        with pytest.raises(DslError, match="empty"):
            parse("   ")

    def test_missing_operand(self):
        with pytest.raises(DslError):
            parse("count(0) +")

    @pytest.mark.parametrize("text,column,message", [
        ("count(0", 8, "unexpected end of input"),
        ("count(x)", 7, "expected a number, found 'x'"),
        ("count(0, x)", 10, "expected a number, found 'x'"),
        ("count(0 1)", 9, "expected ',' or ')', found '1'"),
        ("count(0 * 1)", 9, "expected ',' or ')', found '*'"),
        ("count 0", 7, "expected '(', found '0'"),
        ("count(0) + -count(1)", 12, "expected a number or a call, found '-'"),
        ("2*", 3, "unexpected end of input"),
        ("count(0) + 2*", 14, "unexpected end of input"),
        ("2*3", 3, "expected a call, found '3'"),
        ("2*(", 3, "expected a call, found '('"),
        ("2*foo(0)", 3, "unknown builtin 'foo'"),
        ("1e400", 1, "expected a finite double, found '1e400'"),
        ("count(1e400)", 7, "expected a finite double, found '1e400'"),
        ("exp_neg(1e999, 0)", 9, "expected a finite double, found '1e999'"),
        ("1e308 + 1e308", 9, "the constant terms do not sum to a finite double"),
        ("count(0.5)", 7, "expected a whole atom index, found '0.5'"),
        ("count(1.9)", 7, "expected a whole atom index, found '1.9'"),
        ("exp_neg(0.5, 0.7)", 14, "expected a whole atom index, found '0.7'"),
        ("count(0.5, 1)", 14, "count takes 1 argument(s), got 2"),
    ])
    def test_parser_diagnostics(self, text, column, message):
        with pytest.raises(DslError) as info:
            parse(text)
        assert (info.value.line, info.value.column) == (1, column)
        assert str(info.value) == f"line 1, column {column}: {message}"

    @given(st.lists(st.sampled_from(sorted(BUILTINS) + [
        "foo", "0", "2", "0.5", "1e308", "1e400", "(", ")", ",", "*", "+", "-", " ", "\n", "@",
    ]), max_size=12).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_compiling_any_text_raises_only_dsl_errors(self, text):
        try:
            functional_from_text(text)
        except DslError:
            pass

    def test_error_carries_line_and_column(self):
        try:
            parse("count(0) $ 1")
        except DslError as err:
            assert err.line == 1 and err.column == 10
        else:
            pytest.fail("expected a DslError")


DIAGNOSTICS = json.loads(
    (Path(__file__).parent / "data" / "dsl_diagnostics.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", DIAGNOSTICS, ids=lambda case: repr(case["text"]))
def test_recorded_diagnostics(case):
    """Every recorded text parses to its recorded structure or fails with its
    recorded message, line and column."""
    text = case["text"]
    if "message" in case:
        with pytest.raises(DslError) as info:
            parse(text)
        assert (info.value.line, info.value.column) == (case["line"], case["column"])
        assert str(info.value) == "line {line}, column {column}: {message}".format(**case)
    else:
        terms = tuple(Term(coeff, func, tuple(args)) for coeff, func, args in case["terms"])
        assert parse(text) == Expr(const=case["const"], terms=terms)


class TestRoundTrip:
    CASES = [
        "count(0)",
        "2*exp_neg(0.3, 0) - indicator_le(1, 3) + 5",
        "-cumsum_g(0, 2)",
        "0.25*max_radius_gt(0) + 0.5",
        "7",
        "-1.5",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_serialize_parse(self, text):
        e = parse(text)
        assert parse(serialize(e)) == e

    @pytest.mark.parametrize("text", CASES)
    def test_serialize_is_canonical(self, text):
        e = parse(text)
        assert serialize(parse(serialize(e))) == serialize(e)

    @given(
        const=st.floats(-100, 100, allow_nan=False),
        coeffs=st.lists(st.floats(-10, 10).filter(lambda x: x != 0), max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, const, coeffs, seed):
        import random

        rng = random.Random(seed)
        terms = []
        for coeff in coeffs:
            name = rng.choice(sorted(BUILTINS))
            args = tuple(float(rng.randint(0, 5)) for _ in range(BUILTINS[name].arity))
            terms.append(Term(coeff, name, args))
        e = Expr(const=const, terms=tuple(terms))
        assert parse(serialize(e)) == e


class TestSemantics:
    def test_count(self):
        F = functional_from_text("count(1)")
        assert F((3, 7)) == 7.0

    def test_indicator(self):
        F = functional_from_text("indicator_le(0, 2)")
        assert F((2,)) == 1.0 and F((3,)) == 0.0

    def test_exp_neg(self):
        F = functional_from_text("exp_neg(0.5, 0)")
        assert F((2,)) == pytest.approx(math.exp(-1.0))

    def test_cumsum(self):
        # G(n) = sum_{j<n} 1{j <= M}: caps at M + 1
        F = functional_from_text("cumsum_g(0, 1)")
        assert [F((n,)) for n in range(4)] == [0.0, 1.0, 2.0, 2.0]

    def test_affine_combination(self):
        F = functional_from_text("2*count(0) - 3*indicator_le(0, 0) + 1")
        assert F((0,)) == -2.0
        assert F((2,)) == 5.0
