"""Functionals of configurations and the add-one-cost difference calculus."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grids
from .errors import CapOverflowError, NonFiniteValueError
from .ground import Configuration, GroundSpace, sample_configurations
from .reports import MonotonicityCertificate

#: the four certifiable sign conditions
PROP_DF_LE0 = "DF<=0"
PROP_DF_GE0 = "DF>=0"
PROP_D2F_LE0 = "D2F<=0"
PROP_D2F_GE0 = "D2F>=0"


@dataclass(frozen=True)
class Functional:
    """Evaluation rule F: counts -> real, optionally backed by a dense table.

    A rule-backed functional is total on all configurations; a table-backed
    one is defined only on the grid of its table and raises CapOverflowError
    beyond it (the engines size tables so this never happens in normal use).
    ``batch``, when present, is the rule's array form: counts of shape
    (..., m) -> values of shape (...), equal to the rule bit for bit. Grids
    and samples go through it; without it they are evaluated state by state.
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
        c = np.asarray(counts, dtype=np.int64)
        if self.table is not None:
            if np.any(c >= np.asarray(self.table.shape)):
                if self.rule is None:
                    raise CapOverflowError(
                        f"{self.name} is tabulated only up to {self.table.shape}"
                    )
                value = float(self.rule(c))
            else:
                value = float(self.table[tuple(c)])
        else:
            value = float(self.rule(c))
        self._check(value, c)
        return value

    def _check(self, value: float, c) -> None:
        """Raise if F(c) = value is non-finite or exceeds the declared bound."""
        state = tuple(int(x) for x in c)
        if not np.isfinite(value):
            raise NonFiniteValueError(f"{self.name} is non-finite at {state}")
        if self.bounded_by is not None and abs(value) > self.bounded_by + 1e-12:
            raise ValueError(
                f"{self.name} exceeds its declared bound {self.bounded_by} at {state}"
            )

    def values(self, counts) -> np.ndarray:
        """F on every state of a (..., m) count array, with the checks of ``__call__``."""
        c = np.asarray(counts, dtype=np.int64)
        if self.batch is None:
            return grids.map_rows(self, c)
        out = np.asarray(self.batch(c), dtype=float)
        bad = ~np.isfinite(out)
        if self.bounded_by is not None:
            bad |= np.abs(out) > self.bounded_by + 1e-12
        if np.any(bad):
            first = int(np.flatnonzero(bad)[0])
            self._check(float(out.flat[first]), c.reshape(-1, c.shape[-1])[first])
        return out

    def tabulate(self, shape) -> np.ndarray:
        """Dense table of values over the grid of the given shape."""
        shape = tuple(int(s) for s in shape)
        if self.table is not None and all(
            ts >= s for ts, s in zip(self.table.shape, shape)
        ):
            return grids.trim_to(self.table, shape)
        if self.rule is None:
            raise CapOverflowError(
                f"{self.name}: table of shape {self.table.shape} cannot cover {shape}"
            )
        if self.batch is not None:
            out = np.asarray(self.batch(grids.grid_counts(shape)), dtype=float)
        else:
            out = grids.tabulate_rule(self.rule, shape)
        if not np.all(np.isfinite(out)):
            raise NonFiniteValueError(f"{self.name} is non-finite on the grid")
        return out


def from_rule(rule, name="F", **kwargs) -> Functional:
    return Functional(rule=rule, name=name, **kwargs)


def from_table(table, name="F", **kwargs) -> Functional:
    return Functional(table=np.asarray(table, dtype=float), name=name, **kwargs)


def constant(value: float) -> Functional:
    v = float(value)
    return Functional(rule=lambda c: v, name=f"const({v})", bounded_by=abs(v))


def affine(coeffs, funcs, const=0.0, name=None) -> Functional:
    """a_1 F_1 + ... + a_k F_k + const, as a rule-backed functional."""
    coeffs = [float(a) for a in coeffs]
    funcs = list(funcs)

    def rule(c):
        return const + sum(a * f(c) for a, f in zip(coeffs, funcs))

    return Functional(rule=rule, name=name or "affine")


def add_one_cost(F: Functional, c, i: int) -> float:
    """D_i F(c) = F(c + e_i) - F(c)."""
    c = _counts(c)
    bumped = c.copy()
    bumped[i] += 1
    return F(bumped) - F(c)


def second_difference(F: Functional, c, i: int, j: int) -> float:
    """D2_{i,j} F(c) = F(c+e_i+e_j) - F(c+e_i) - F(c+e_j) + F(c)."""
    c = _counts(c)
    ei = c.copy()
    ei[i] += 1
    ej = c.copy()
    ej[j] += 1
    eij = ei.copy()
    eij[j] += 1
    return F(eij) - F(ei) - F(ej) + F(c)


def _counts(c) -> np.ndarray:
    if isinstance(c, Configuration):
        return c.array()
    return np.asarray(c, dtype=np.int64).copy()


def _sign_ok(value: float, prop: str) -> bool:
    if prop in (PROP_DF_LE0, PROP_D2F_LE0):
        return value <= 0.0
    return value >= 0.0


def certify_monotonicity(
    F: Functional,
    space: GroundSpace,
    prop: str,
    trunc=None,
    mode: str = "exact",
    n_samples: int = 200,
    seed=0,
) -> MonotonicityCertificate:
    """Certify one of the four sign conditions on D or D^2.

    Exact mode checks every state with c_i <= N_i against every atom (pair of
    atoms for D^2); sampled mode checks random configurations and is labeled
    as the weaker certificate. A violation yields a witness, not an error.
    """
    second = prop in (PROP_D2F_LE0, PROP_D2F_GE0)
    if mode == "exact":
        from .ground import TruncatedStateSpace

        if trunc is None:
            trunc = TruncatedStateSpace.from_tail_mass(space)
        order = 2 if second else 1
        shape = tuple(n + 1 + order for n in trunc.caps)
        table = F.tabulate(shape)
        m = space.atom_count
        checked = 0
        base = tuple(n + 1 for n in trunc.caps)
        if not second:
            for i in range(m):
                diff = grids.trim_to(grids.diff_axis(table, i), base)
                checked += diff.size
                if not np.all(_sign_mask(diff, prop)):
                    idx = _first_bad(diff, prop)
                    return MonotonicityCertificate(
                        "exact", prop, checked, witness=(idx, i, float(diff[idx]))
                    )
        else:
            for i in range(m):
                di = grids.diff_axis(table, i)
                for j in range(i, m):
                    d2 = grids.trim_to(grids.diff_axis(di, j), base)
                    checked += d2.size
                    if not np.all(_sign_mask(d2, prop)):
                        idx = _first_bad(d2, prop)
                        return MonotonicityCertificate(
                            "exact", prop, checked, witness=(idx, (i, j), float(d2[idx]))
                        )
        return MonotonicityCertificate("exact", prop, checked)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    samples = sample_configurations(space, n_samples, seed)
    checked = 0
    for counts in samples:
        for i in range(space.atom_count):
            if second:
                for j in range(i, space.atom_count):
                    value = second_difference(F, counts, i, j)
                    checked += 1
                    if not _sign_ok(value, prop):
                        return MonotonicityCertificate(
                            "sampled", prop, checked,
                            witness=(tuple(counts.tolist()), (i, j), value),
                        )
            else:
                value = add_one_cost(F, counts, i)
                checked += 1
                if not _sign_ok(value, prop):
                    return MonotonicityCertificate(
                        "sampled", prop, checked,
                        witness=(tuple(counts.tolist()), i, value),
                    )
    return MonotonicityCertificate("sampled", prop, checked)


def _sign_mask(arr, prop):
    if prop in (PROP_DF_LE0, PROP_D2F_LE0):
        return arr <= 0.0
    return arr >= 0.0


def _first_bad(arr, prop):
    bad = np.argwhere(~_sign_mask(arr, prop))
    return tuple(int(x) for x in bad[0])


def gamma_expectation(engine, F: Functional, G: Functional = None):
    """E[Gamma(F, G)] = sum_i lam_i E[D_i F * D_i G].

    ``engine`` is a SemigroupEngine; exact mode returns a float, Monte Carlo
    mode a (value, stderr) pair.
    """
    if G is None:
        G = F
    if engine.mode == "exact":
        tf = engine.tabulate(F)
        tg = tf if G is F else engine.tabulate(G)

        def term(i):
            df = grids.diff_axis(tf, i)
            dg = df if G is F else grids.diff_axis(tg, i)
            return engine.expect_table(df * dg)

        return engine.atom_sum(term)
    lam = engine.space.weight_array()
    samples = engine.samples
    f0 = F.values(samples)
    g0 = f0 if G is F else G.values(samples)
    vals = np.zeros(len(samples))
    for i in range(engine.space.atom_count):
        bumped = grids.add_unit(samples, i)
        df = F.values(bumped) - f0
        dg = df if G is F else G.values(bumped) - g0
        vals += lam[i] * df * dg
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))
