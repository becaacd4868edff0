"""Textual mini-language for functionals used by the experiment runner.

Grammar (whitespace-insensitive; a flat sum, nothing nests):

    expr   := ['+' | '-'] term (('+' | '-') term)*
    term   := [number '*'] call | number
    call   := name '(' number (',' number)* ')'
    number := digits ['.' digits] [('e' | 'E') ['+' | '-'] digits]

Every number must be a finite double (``1e400`` is refused), as must the sum
of the constant terms; an atom index must be a whole number (``count(1.0)``
reads atom 1, ``count(0.5)`` is refused), the other arguments are real.

Built-in calls:

    count(i)            the count at atom i
    indicator_le(i, k)  1 if the count at atom i is <= k
    exp_neg(a, i)       exp(-a * count at atom i)
    cumsum_g(i, M)      cumulative G(n) = sum_{j<n} 1{j <= M} at atom i
    max_radius_gt(i)    1 if atom i (the region outside the radius of
                        interest in a radially reduced space) holds a point

A parsing error (``DslError``) carries the line and column of the token at
fault, or of the end of a truncated text. ``serialize`` produces a canonical
string; parse -> serialize -> parse is the identity on the structure.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import grids
from .functionals import Functional


class DslError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Builtin:
    arity: int
    #: position of the atom index among the arguments
    atom_arg: int
    #: value(n, *rest): the value at count n of that atom, given the other
    #: arguments in order
    value: Callable[..., float]
    #: line(ns, *rest): ``value`` at every count of a non-empty int64 array
    #: ns, as one float array with the same bits, given the same arguments
    line: Callable[..., np.ndarray]


def _cumsum_g_line(ns, m):
    # M clipped to the line's top first: int(1e300) + 1 fits no int64
    return np.minimum(ns, min(int(m) + 1, int(ns[-1]))).astype(float)


BUILTINS = {
    "count": Builtin(1, 0, lambda n: float(n), lambda ns: ns.astype(float)),
    "indicator_le": Builtin(2, 0, lambda n, k: 1.0 if n <= k else 0.0,
                            lambda ns, k: (ns <= k).astype(float)),
    # math.exp per count: np.exp can differ from it by an ulp
    "exp_neg": Builtin(2, 1, lambda n, a: math.exp(-a * n),
                       lambda ns, a: np.array(list(map(math.exp, (-a * ns).tolist())))),
    "cumsum_g": Builtin(2, 0, lambda n, m: float(min(int(n), int(m) + 1)), _cumsum_g_line),
    "max_radius_gt": Builtin(1, 0, lambda n: 1.0 if n >= 1 else 0.0,
                             lambda ns: (ns >= 1).astype(float)),
}


@dataclass(frozen=True)
class Term:
    coeff: float
    func: str
    args: tuple[float, ...]


@dataclass(frozen=True)
class Expr:
    const: float
    terms: tuple[Term, ...]


_TOKEN = re.compile(
    r"(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[()*,+-])"
    r"|(?P<bad>\S)"
)


def parse(text: str) -> Expr:
    # (kind, text, offset) per token, then an end marker at the end of the text
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    tokens.append(("end", "", len(text)))
    pos = 0

    def fail(message, at=None):
        """Raise a DslError at token ``at`` (by default the next one)."""
        offset = tokens[pos if at is None else at][2]
        line = text.count("\n", 0, offset) + 1
        raise DslError(message, line, offset - text.rfind("\n", 0, offset))

    def punct(chars):
        """Whether the next token is one of the punctuation ``chars``."""
        return tokens[pos][0] == "punct" and tokens[pos][1] in chars

    def take(want, kind, value=None):
        """The next token (a number as its float) if of ``kind`` and equal to
        ``value`` where given; else an error naming ``want``, what must be there."""
        nonlocal pos
        tok_kind, tok, _ = tokens[pos]
        if tok_kind == "end":
            fail("unexpected end of input")
        if tok_kind != kind or value not in (None, tok):
            fail(f"expected {want}, found {tok!r}")
        if kind == "number" and not math.isfinite(float(tok)):
            fail(f"expected a finite double, found {tok!r}")
        pos += 1
        return float(tok) if kind == "number" else tok

    for k, (kind, tok, _) in enumerate(tokens):
        if kind == "bad":
            fail(f"unexpected character {tok!r}", k)
    if len(tokens) == 1:
        fail("empty expression")
    const, terms = 0.0, []
    while pos == 0 or tokens[pos][0] != "end":
        if pos and not punct("+-"):
            fail(f"expected '+' or '-', found {tokens[pos][1]!r}")
        coeff = -1.0 if punct("-") else 1.0
        pos += punct("+-")
        if tokens[pos][0] != "number":
            name = take("a number or a call", "name")
        else:
            coeff *= take("a number", "number")
            if not punct("*"):
                const += coeff
                if not math.isfinite(const):
                    fail("the constant terms do not sum to a finite double", pos - 1)
                continue
            pos += 1
            name = take("a call", "name")
        if name not in BUILTINS:
            fail(f"unknown builtin {name!r}", pos - 1)
        take("'('", "punct", "(")
        first = pos
        args = [take("a number", "number")]
        while punct(","):
            pos += 1
            args.append(take("a number", "number"))
        take("',' or ')'", "punct", ")")
        builtin = BUILTINS[name]
        if len(args) != builtin.arity:
            fail(f"{name} takes {builtin.arity} argument(s), got {len(args)}")
        if not args[builtin.atom_arg].is_integer():
            at = first + 2 * builtin.atom_arg
            fail(f"expected a whole atom index, found {tokens[at][1]!r}", at)
        terms.append(Term(coeff, name, tuple(args)))
    return Expr(const=const, terms=tuple(terms))


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def serialize(expr: Expr) -> str:
    pieces = []
    for k, term in enumerate(expr.terms):
        call = f"{term.func}({', '.join(_format_number(a) for a in term.args)})"
        magnitude = abs(term.coeff)
        body = call if magnitude == 1.0 else f"{_format_number(magnitude)}*{call}"
        if k == 0:
            pieces.append(body if term.coeff >= 0 else f"-{body}")
        else:
            pieces.append(("+ " if term.coeff >= 0 else "- ") + body)
    if expr.const != 0.0 or not pieces:
        body = _format_number(abs(expr.const))
        if not pieces:
            pieces.append(body if expr.const >= 0 else f"-{body}")
        else:
            pieces.append(("+ " if expr.const >= 0 else "- ") + body)
    return " ".join(pieces)


def _reader(term: Term):
    """(atom, f, fill): the atom the term reads, f(n), the term's value
    (coefficient included) at count n of that atom, and fill(ns), f at every
    count of an int64 array ns as one array with f's bits."""
    builtin = BUILTINS[term.func]
    k = builtin.atom_arg
    rest = term.args[:k] + term.args[k + 1:]
    coeff = term.coeff
    return (int(term.args[k]), lambda n: coeff * builtin.value(n, *rest),
            lambda ns: coeff * builtin.line(ns, *rest))


class BatchRule:
    """Array form of an expression: counts already in index form (as
    ``grids.index_form`` returns them, unvalidated here) -> values of their
    broadcast shape.

    Every builtin reads one atom's count, so each term is a 1-D line of its
    values at counts 0..n (coefficient included), extended on demand by one
    array operation over the new counts (the builtin's ``line``, which has
    the bits of the scalar ``value`` that the rule calls, times the
    coefficient).
    Each term gathers its line at ``counts[axis]`` alone, so on a sparse grid
    it reads one axis, and the terms are added in term order, broadcast over
    all states, as the scalar rule adds them: both give the same floats bit
    for bit. A negative count that a term reads raises ValueError.
    """

    def __init__(self, const: float, readers: list):
        """``readers``: each term's (atom, f, fill), as ``_reader`` returns them."""
        self.const = const
        #: atom index read by each term
        self.axes = tuple(axis for axis, _, _ in readers)
        self._fills = [fill for _, _, fill in readers]
        self._lines = [np.empty(0) for _ in readers]

    def _line(self, k: int, n: np.ndarray, reach: int = 0) -> np.ndarray:
        """Term k's line, long enough to be read at every count of ``n`` plus
        ``reach``, its new counts filled by one call of the term's fill; a
        negative count raises ValueError."""
        # one reduction for both bounds: read as uint64, a negative int64 is
        # at least 2**63
        top = int(n.view(np.uint64).max()) if n.size else 0
        if top >= 2**63:
            raise ValueError("counts must be non-negative")
        top += reach
        line = self._lines[k]
        if top >= line.size:
            more = self._fills[k](np.arange(line.size, max(top + 1, 2 * line.size)))
            line = self._lines[k] = np.concatenate([line, more])
        return line

    def __call__(self, counts) -> np.ndarray:
        total = np.zeros(grids.count_shape(counts))
        # an overflow is left to Functional.values, which names the state
        with np.errstate(over="ignore", invalid="ignore"):
            for k, axis in enumerate(self.axes):
                n = counts[axis]
                total += self._line(k, n)[n]
            total += self.const  # in place: addition commutes, bit for bit
        return total

    def shift_table(self, counts) -> np.ndarray:
        """Row 0 is ``self(counts)`` and row 1 + i is ``self`` on counts plus
        one point at atom i, for every one of the m atoms of counts, bit for
        bit: each row adds the same terms in the same order. Each term
        gathers its line twice, at ``counts[axis]`` and one above, and adds
        the upper gather into the row of its own atom and the lower one into
        every other row, so the work is two gathers per term, not 1 + m.
        """
        table = np.zeros((1 + len(counts),) + grids.count_shape(counts))
        # an overflow is left to Functional.shift_table, which names the state
        with np.errstate(over="ignore", invalid="ignore"):
            for k, axis in enumerate(self.axes):
                n = counts[axis]
                line = self._line(k, n, reach=1)
                at = line[n]
                table[: 1 + axis] += at
                table[2 + axis:] += at
                table[1 + axis] += line[1:][n]
            table += self.const
        return table


def to_functional(expr: Expr, name: str | None = None) -> Functional:
    """Compile an expression to a functional with a scalar rule and its array form."""
    readers = [_reader(t) for t in expr.terms]
    const = expr.const

    def rule(c):
        # an explicit loop, not sum(): from Python 3.12 sum() of floats is
        # compensated and would stop matching the array form's plain adds
        total = 0.0
        for axis, value, _ in readers:
            total += value(c[axis])
        return const + total

    return Functional(rule=rule, batch=BatchRule(const, readers), name=name or serialize(expr))


def functional_from_text(text: str, name: str | None = None) -> Functional:
    return to_functional(parse(text), name=name)
