"""Functionals of configurations and the add-one-cost difference calculus."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import grids
from .errors import CapOverflowError, NonFiniteValueError
from .ground import sample_moments
# unused here, but the per-layer tracer (bench/layers.py) wraps this name on
# every module that imports it and fails with KeyError where it is missing
from .ground import sample_configurations  # noqa: F401
from .reports import MonotonicityCertificate

#: the four certifiable sign conditions
PROP_DF_LE0 = "DF<=0"
PROP_DF_GE0 = "DF>=0"
PROP_D2F_LE0 = "D2F<=0"
PROP_D2F_GE0 = "D2F>=0"


@dataclass(frozen=True)
class Functional:
    """Evaluation rule F: counts -> real, or a dense table of its values.

    A rule-backed functional is total on all configurations; a table-backed
    one is defined only on the grid of its table and raises CapOverflowError
    beyond it (the engines size tables so this never happens in normal use).
    ``batch``, when present, is the rule's array form: counts in index form
    (``grids.index_form``) -> values of their broadcast shape, equal to the
    rule bit for bit. ``values`` is the one evaluator: calls, grid tables
    and the difference operators go through it and its checks, and
    ``shift_table`` (samples and their one-point shifts) through its checks.
    """

    rule: object | None = None
    table: np.ndarray | None = None
    bounded_by: float | None = None
    name: str = "F"
    batch: object | None = None

    def __post_init__(self):
        if self.rule is None and self.table is None:
            raise ValueError("functional needs a rule or a table")

    def __call__(self, counts) -> float:
        """F at one state, given as a sequence of m counts."""
        return float(self.values(tuple(counts)))

    def values(self, counts) -> np.ndarray:
        """F on every state held by counts in index form (``grids.index_form``),
        as an array of their broadcast shape.

        Raises NonFiniteValueError for a non-finite value and ValueError for
        one beyond ``bounded_by``, naming the first bad state in C order.
        """
        c = grids.index_form(counts)
        if self.table is not None:
            if len(c) != self.table.ndim:
                raise ValueError(f"{self.name} takes {self.table.ndim} counts per "
                                 f"state, got {len(c)}")
            # one reduction for both bounds: read as uint64, a negative int64
            # is at least 2**63
            if any((int(x.view(np.uint64).max()) if x.size else 0) >= s
                   for x, s in zip(c, self.table.shape)):
                raise CapOverflowError(
                    f"{self.name} is tabulated only up to {self.table.shape}"
                )
            out = np.asarray(self.table[c], dtype=float)
        elif self.batch is not None:
            out = np.asarray(self.batch(c), dtype=float)
        else:
            out = grids.map_rows(self.rule, c)
        return self._checked(out, lambda index: _state_at(c, out.shape, index))

    def shift_table(self, counts) -> np.ndarray:
        """F on the states held by counts in index form (row 0) and on each of
        them plus one point at atom i (row 1 + i), as one array of shape
        (1 + m, *their broadcast shape).

        Each row equals ``values`` on its states bit for bit and is checked as
        ``values`` checks, rows in order: a bad value names the first bad
        state of the first bad row. A batch with a ``shift_table`` of its own
        (``dsl.BatchRule``) builds all rows in one pass; any other F fills
        them through ``values``, one row at a time.
        """
        c = grids.index_form(counts)
        build = getattr(self.batch, "shift_table", None)
        if self.table is None and build is not None:
            table = build(c)
            shape = table.shape[1:]
            return self._checked(table, lambda index: _state_at(
                c if index[0] == 0 else grids.add_unit(c, index[0] - 1), shape, index[1:]))
        table = np.empty((1 + len(c),) + grids.count_shape(c))
        table[0] = self.values(c)
        for i in range(len(c)):
            table[1 + i] = self.values(grids.add_unit(c, i))
        return table

    def _checked(self, out: np.ndarray, state_at) -> np.ndarray:
        """``out``, or NonFiniteValueError for a non-finite value and ValueError
        for one beyond ``bounded_by``, at the first such index in C order;
        ``state_at(index)`` is the state ``out[index]`` was taken at."""
        bad = ~np.isfinite(out)
        if self.bounded_by is not None:
            bad |= np.abs(out) > self.bounded_by + 1e-12
        if bad.any():
            first = np.unravel_index(int(np.flatnonzero(bad)[0]), bad.shape)
            state = state_at(first)
            if not np.isfinite(out[first]):
                raise NonFiniteValueError(f"{self.name} is non-finite at {state}")
            raise ValueError(
                f"{self.name} exceeds its declared bound {self.bounded_by} at {state}"
            )
        return out

    def tabulate(self, shape) -> np.ndarray:
        """Dense table of values over the grid of the given shape."""
        shape = tuple(int(s) for s in shape)
        if self.table is not None and all(
            ts >= s for ts, s in zip(self.table.shape, shape)
        ):
            return grids.trim_to(self.table, shape)
        return self.values(np.indices(shape, sparse=True))


def _state_at(counts, shape, index) -> tuple:
    """The state at ``index`` of the states of the given shape held by counts
    in index form, as a tuple of ints."""
    return tuple(int(np.broadcast_to(x, shape)[index]) for x in counts)


def from_rule(rule, name="F", **kwargs) -> Functional:
    return Functional(rule=rule, name=name, **kwargs)


def from_table(table, name="F", **kwargs) -> Functional:
    return Functional(table=np.asarray(table, dtype=float), name=name, **kwargs)


def add_one_cost(F: Functional, c, i: int):
    """D_i F(c) = F(c + e_i) - F(c) for counts in index form; a float for one
    state, else an array."""
    out = F.values(grids.add_unit(c, i)) - F.values(c)
    return float(out) if np.ndim(out) == 0 else out


def second_difference(F: Functional, c, i: int, j: int):
    """D2_{i,j} F(c) = F(c+e_i+e_j) - F(c+e_i) - F(c+e_j) + F(c), per state."""
    ei = grids.add_unit(c, i)
    out = (F.values(grids.add_unit(ei, j)) - F.values(ei)
           - F.values(grids.add_unit(c, j)) + F.values(c))
    return float(out) if np.ndim(out) == 0 else out


def certify_monotonicity(engine, F: Functional, prop: str) -> MonotonicityCertificate:
    """Certify one of the four sign conditions on D or D^2 on an exact engine.

    Every state with c_i <= N_i of ``engine.trunc`` is checked against every
    atom (pair of atoms i <= j for D^2), one array of the differences that
    ``engine.difference`` holds at a time; a violation yields the first
    failing state of the first failing atom as a witness, not an error. Each
    (F, prop) is scanned once per engine (see ``SemigroupEngine._memo``). A
    Monte Carlo engine is refused before any work.
    """
    engine._require_exact("a sign certificate")
    return engine._memo(F, prop, lambda: _scan_signs(engine, F, prop))


def _scan_signs(engine, F: Functional, prop: str) -> MonotonicityCertificate:
    order = 2 if prop in (PROP_D2F_LE0, PROP_D2F_GE0) else 1
    holds = np.less_equal if prop in (PROP_DF_LE0, PROP_D2F_LE0) else np.greater_equal
    checked = 0
    interior = engine.trunc.shape
    for atoms in itertools.combinations_with_replacement(range(engine.space.atom_count), order):
        # the padding (>= 3) covers caps + 1 + order and differences are
        # elementwise, so this equals the differences of the smaller grid (a
        # second difference is held on it already)
        diff = grids.trim_to(engine.difference(F, *atoms), interior)
        checked += diff.size
        ok = holds(diff, 0.0)
        if not ok.all():
            # the first False in C order is the first failing state
            idx = tuple(int(x) for x in np.unravel_index(int(ok.argmin()), ok.shape))
            where = atoms[0] if order == 1 else atoms
            return MonotonicityCertificate(prop, checked, witness=(idx, where, float(diff[idx])))
    return MonotonicityCertificate(prop, checked)


def gamma_expectation(engine, F: Functional, G: Functional = None):
    """E[Gamma(F, G)] = sum_i lam_i E[D_i F * D_i G].

    ``engine`` is a SemigroupEngine; exact mode returns a float, Monte Carlo
    mode the sample mean of sum_i lam_i D_i F * D_i G over the engine's
    samples and its standard error, both from ``ground.sample_moments``.
    """
    if G is None:
        G = F
    if engine.mode == "exact":
        if G is F:
            return engine.atom_sum(lambda i: engine.difference_moment(F, i, 2))
        return engine.atom_sum(
            lambda i: engine.expect_table(engine.difference(F, i) * engine.difference(G, i)))
    lam = engine.space.weight_array()
    vals = np.zeros(engine.replications)
    for i in range(engine.space.atom_count):
        df = engine.difference(F, i)
        dg = df if G is F else engine.difference(G, i)
        vals += lam[i] * df * dg
    moments = sample_moments(vals)
    return moments.mean, moments.stderr
