"""Functionals of configurations and the add-one-cost difference calculus."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import grids
from .errors import CapOverflowError, NonFiniteValueError
from .ground import Configuration
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
    ``batch``, when present, is the rule's array form: counts of shape
    (..., m) -> values of shape (...), equal to the rule bit for bit.
    ``values`` is the one evaluator: calls, grid tables, the difference
    operators and sampled certificates all go through it and its checks.
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
        return float(self.values(counts))

    def values(self, counts) -> np.ndarray:
        """F on every state of a (..., m) count array.

        Raises NonFiniteValueError for a non-finite value and ValueError for
        one beyond ``bounded_by``, naming the first bad state in row order.
        """
        c = np.asarray(counts, dtype=np.int64)
        if self.table is not None:
            if np.any((c < 0) | (c >= np.asarray(self.table.shape))):
                raise CapOverflowError(
                    f"{self.name} is tabulated only up to {self.table.shape}"
                )
            out = np.asarray(self.table[tuple(np.moveaxis(c, -1, 0))], dtype=float)
        elif self.batch is not None:
            out = np.asarray(self.batch(c), dtype=float)
        else:
            out = grids.map_rows(self.rule, c)
        bad = ~np.isfinite(out)
        if self.bounded_by is not None:
            bad |= np.abs(out) > self.bounded_by + 1e-12
        if np.any(bad):
            first = int(np.flatnonzero(bad)[0])
            state = tuple(int(x) for x in c.reshape(-1, c.shape[-1])[first])
            if not np.isfinite(out.flat[first]):
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
        return self.values(grids.grid_counts(shape))


def from_rule(rule, name="F", **kwargs) -> Functional:
    return Functional(rule=rule, name=name, **kwargs)


def from_table(table, name="F", **kwargs) -> Functional:
    return Functional(table=np.asarray(table, dtype=float), name=name, **kwargs)


def constant(value: float) -> Functional:
    v = float(value)
    return Functional(rule=lambda c: v, name=f"const({v})", bounded_by=abs(v))


def affine(coeffs, funcs, const=0.0, name=None) -> Functional:
    """a_1 F_1 + ... + a_k F_k + const, as a rule-backed functional whose
    batch sums the children's ``values`` in the rule's order."""
    coeffs = [float(a) for a in coeffs]
    funcs = list(funcs)

    def rule(c):
        return const + sum(a * f(c) for a, f in zip(coeffs, funcs))

    def batch(c):
        start = np.zeros(c.shape[:-1])  # adds like the rule's int 0, keeps the shape
        return const + sum((a * f.values(c) for a, f in zip(coeffs, funcs)), start)

    return Functional(rule=rule, name=name or "affine", batch=batch)


def add_one_cost(F: Functional, c, i: int):
    """D_i F(c) = F(c + e_i) - F(c); a float for one state, an array for (..., m)."""
    c = _counts(c)
    out = F.values(grids.add_unit(c, i)) - F.values(c)
    return float(out) if c.ndim == 1 else out


def second_difference(F: Functional, c, i: int, j: int):
    """D2_{i,j} F(c) = F(c+e_i+e_j) - F(c+e_i) - F(c+e_j) + F(c), per state."""
    c = _counts(c)
    ei = grids.add_unit(c, i)
    out = (F.values(grids.add_unit(ei, j)) - F.values(ei)
           - F.values(grids.add_unit(c, j)) + F.values(c))
    return float(out) if c.ndim == 1 else out


def _counts(c) -> np.ndarray:
    if isinstance(c, Configuration):
        return c.array()
    return np.asarray(c, dtype=np.int64)


def certify_monotonicity(engine, F: Functional, prop: str) -> MonotonicityCertificate:
    """Certify one of the four sign conditions on D or D^2 on the engine's states.

    An exact engine checks every state with c_i <= N_i of ``engine.trunc``
    against every atom (pair of atoms for D^2), reading the table that
    ``engine.tabulate`` already built; a Monte Carlo engine checks
    its own samples and labels the certificate as the weaker "sampled" kind.
    Both scan atom by atom (pairs i <= j for D^2), one array of differences
    at a time; a violation yields the first failing state of the first
    failing atom as a witness, not an error. Each (F, prop) is scanned once
    per engine (see ``SemigroupEngine._memo``).
    """
    return engine._memo(F, prop, lambda: _scan_signs(engine, F, prop))


def _scan_signs(engine, F: Functional, prop: str) -> MonotonicityCertificate:
    order = 2 if prop in (PROP_D2F_LE0, PROP_D2F_GE0) else 1
    kind = "exact" if engine.mode == "exact" else "sampled"
    if kind == "exact":
        # the padding (>= 3) covers caps + 1 + order, and tables are elementwise,
        # so the trimmed padded table equals a tabulation of the smaller grid
        shape = tuple(n + 1 + order for n in engine.trunc.caps)
        table = grids.trim_to(engine.tabulate(F), shape)
    else:
        operator = add_one_cost if order == 1 else second_difference
    checked = 0
    for atoms in itertools.combinations_with_replacement(range(engine.space.atom_count), order):
        if kind == "exact":
            diff = table
            for a in atoms:
                diff = grids.diff_axis(diff, a)
            diff = grids.trim_to(diff, engine.trunc.shape)
        else:
            diff = operator(F, engine.samples, *atoms)
        checked += diff.size
        ok = diff <= 0.0 if prop in (PROP_DF_LE0, PROP_D2F_LE0) else diff >= 0.0
        if not np.all(ok):
            idx = tuple(int(x) for x in np.argwhere(~ok)[0])
            state = idx if kind == "exact" else tuple(engine.samples[idx[0]].tolist())
            where = atoms[0] if order == 1 else atoms
            return MonotonicityCertificate(
                kind, prop, checked, witness=(state, where, float(diff[idx]))
            )
    return MonotonicityCertificate(kind, prop, checked)


def gamma_expectation(engine, F: Functional, G: Functional = None):
    """E[Gamma(F, G)] = sum_i lam_i E[D_i F * D_i G].

    ``engine`` is a SemigroupEngine; exact mode returns a float, Monte Carlo
    mode a (value, stderr) pair.
    """
    if G is None:
        G = F
    if engine.mode == "exact":
        tf = engine.tabulate(F)
        tg = engine.tabulate(G)

        def term(i):
            df = grids.diff_axis(tf, i)
            dg = df if G is F else grids.diff_axis(tg, i)
            return engine.expect_table(df * dg)

        return engine.atom_sum(term)
    lam = engine.space.weight_array()
    f0 = engine.sample_values(F)
    g0 = f0 if G is F else engine.sample_values(G)
    vals = np.zeros(len(f0))
    for i in range(engine.space.atom_count):
        df = engine.sample_values(F, i) - f0
        dg = df if G is F else engine.sample_values(G, i) - g0
        vals += lam[i] * df * dg
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))
