"""Textual mini-language for functionals used by the experiment runner.

Grammar (whitespace-insensitive):

    expr  := term (('+' | '-') term)*
    term  := [number '*'] call | number
    call  := name '(' number (',' number)* ')'

Built-in calls:

    count(i)            the count at atom i
    indicator_le(i, k)  1 if the count at atom i is <= k
    exp_neg(a, i)       exp(-a * count at atom i)
    cumsum_g(i, M)      cumulative G(n) = sum_{j<n} 1{j <= M} at atom i
    max_radius_gt(i)    1 if atom i (the region outside the radius of
                        interest in a radially reduced space) holds a point

Parsing errors carry line and column. ``serialize`` produces a canonical
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


BUILTINS = {
    "count": Builtin(1, 0, lambda n: float(n)),
    "indicator_le": Builtin(2, 0, lambda n, k: 1.0 if n <= k else 0.0),
    "exp_neg": Builtin(2, 1, lambda n, a: math.exp(-a * n)),
    "cumsum_g": Builtin(2, 0, lambda n, m: float(min(int(n), int(m) + 1))),
    "max_radius_gt": Builtin(1, 0, lambda n: 1.0 if n >= 1 else 0.0),
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
    r"\s*(?:(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[()*,+-]))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        match = _TOKEN.match(text, pos)
        if match is None:
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            line, col = _position(text, bad)
            raise DslError(f"unexpected character {text[bad]!r}", line, col)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


def _position(text, offset):
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, col


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def error(self, message):
        if self.index < len(self.tokens):
            offset = self.tokens[self.index][2]
        else:
            offset = len(self.text)
        line, col = _position(self.text, offset)
        raise DslError(message, line, col)

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self, kind=None, value=None, want=None):
        """The next token, of ``kind`` and equal to ``value`` where given;
        else an error naming ``want``, what the user must write there (by
        default ``value``, quoted, or ``kind``)."""
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        if (kind and tok[0] != kind) or (value and tok[1] != value):
            self.error(f"expected {want or (repr(value) if value else kind)}, found {tok[1]!r}")
        self.index += 1
        return tok

    def parse(self) -> Expr:
        const = 0.0
        terms = []
        sign = 1.0
        first = True
        while True:
            tok = self.peek()
            if tok is None:
                if first:
                    self.error("empty expression")
                break
            if not first:
                if tok[0] == "punct" and tok[1] in "+-":
                    sign = 1.0 if tok[1] == "+" else -1.0
                    self.take()
                else:
                    self.error(f"expected '+' or '-', found {tok[1]!r}")
            elif tok[0] == "punct" and tok[1] in "+-":
                sign = 1.0 if tok[1] == "+" else -1.0
                self.take()
            piece = self.term()
            if isinstance(piece, float):
                const += sign * piece
            else:
                terms.append(Term(sign * piece.coeff, piece.func, piece.args))
            sign = 1.0
            first = False
        return Expr(const=const, terms=tuple(terms))

    def term(self):
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        if tok[0] == "number":
            value = float(self.take("number")[1])
            nxt = self.peek()
            if nxt and nxt[0] == "punct" and nxt[1] == "*":
                self.take("punct", "*")
                call = self.call()
                return Term(value * call.coeff, call.func, call.args)
            return value
        if tok[0] == "name":
            return self.call()
        self.error(f"expected a number or a call, found {tok[1]!r}")

    def call(self) -> Term:
        name = self.peek()[1]
        if name not in BUILTINS:
            self.error(f"unknown builtin {name!r}")
        self.take("name")
        self.take("punct", "(")
        args = [float(self.take("number", want="a number")[1])]
        while True:
            tok = self.peek()
            if tok and tok[0] == "punct" and tok[1] == ",":
                self.take()
                args.append(float(self.take("number", want="a number")[1]))
            else:
                break
        self.take("punct", ")", want="',' or ')'")
        arity = BUILTINS[name].arity
        if len(args) != arity:
            self.error(f"{name} takes {arity} argument(s), got {len(args)}")
        return Term(1.0, name, tuple(args))


def parse(text: str) -> Expr:
    return _Parser(text).parse()


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
    """(atom, f): the atom the term reads and f(n), the term's value
    (coefficient included) at count n of that atom."""
    builtin = BUILTINS[term.func]
    k = builtin.atom_arg
    rest = term.args[:k] + term.args[k + 1:]
    return int(term.args[k]), lambda n: term.coeff * builtin.value(n, *rest)


class BatchRule:
    """Array form of an expression: counts already in index form (as
    ``grids.index_form`` returns them, unvalidated here) -> values of their
    broadcast shape.

    Every builtin reads one atom's count, so each term is a 1-D line of its
    values at counts 0..n (coefficient included), filled by the scalar
    function that the rule calls (``_reader``) and extended on demand. Each
    term gathers its line at ``counts[axis]`` alone, so on a sparse grid it
    reads one axis, and the terms are added in term order, broadcast over
    all states, as the scalar rule adds them: both give the same floats bit
    for bit. A negative count that a term reads raises ValueError.
    """

    def __init__(self, expr: Expr):
        self.const = expr.const
        readers = [_reader(t) for t in expr.terms]
        #: atom index read by each term
        self.axes = tuple(axis for axis, _ in readers)
        self._values = [value for _, value in readers]
        self._lines = [np.empty(0) for _ in readers]

    def _line(self, k: int, n: np.ndarray, reach: int = 0) -> np.ndarray:
        """Term k's line, long enough to be read at every count of ``n`` plus
        ``reach``; a negative count raises ValueError."""
        # one reduction for both bounds: read as uint64, a negative int64 is
        # at least 2**63
        top = int(n.view(np.uint64).max()) if n.size else 0
        if top >= 2**63:
            raise ValueError("counts must be non-negative")
        top += reach
        line = self._lines[k]
        if top >= line.size:
            more = map(self._values[k], range(line.size, max(top + 1, 2 * line.size)))
            line = self._lines[k] = np.concatenate([line, list(more)])
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
        for axis, value in readers:
            total += value(c[axis])
        return const + total

    return Functional(rule=rule, batch=BatchRule(expr), name=name or serialize(expr))


def functional_from_text(text: str, name: str | None = None) -> Functional:
    return to_functional(parse(text), name=name)
