"""Finite atomic ground spaces, Poisson configurations, exact truncated laws.

The intensity measure is a finite atomic measure: ``m`` atoms with strictly
positive weights ``lam_i``. A configuration is the vector of per-atom counts,
so the Poisson random measure over the space is a vector of independent
Poisson(lam_i) counts. Collections of configurations are passed around in
numpy's index form (``grids.index_form``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from ._special import pdtrc, pdtrik

from . import grids
from .errors import BudgetExceededError, NonFiniteValueError
from .reports import make_report

DEFAULT_TAIL_MASS = 1e-12
DEFAULT_BUDGET = 10**6
DEFAULT_REPLICATIONS = 100_000
#: the largest count a double holds; a cap beyond it is refused
_MAX_COUNT = int(sys.float_info.max)


@dataclass(frozen=True)
class GroundSpace:
    """Finite atomic measure space: atoms indexed 0..m-1 with weights lam_i."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.isfinite(w).all() or not (w > 0).all():
            raise ValueError("all weights must be strictly positive and finite")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @property
    def atom_count(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(sum(self.weights))

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def _min_cap(lam: float, per_atom_tail: float) -> int:
    """Smallest N with P[Poisson(lam) > N] <= per_atom_tail.

    ``ceil(pdtrik(1 - tail, lam))``, the inverse of the cdf, is the starting
    guess; for tails where ``1 - tail`` rounds to 1, or for lam from about
    3e11, it is nan, and the search starts at ``lam`` instead.
    ``pdtrc(n, lam)`` is P[Poisson(lam) > n], non-increasing in n. The search
    steps away from the guess in doubling strides until it brackets the
    answer, then bisects, so it makes O(log lam) calls even where the guess
    is far off or a step of one count is below a double's spacing.
    """
    guess = np.ceil(pdtrik(1.0 - per_atom_tail, lam))
    n = int(guess) if math.isfinite(guess) else int(lam)
    # bracket the answer in (low, high]: pdtrc(low) > tail >= pdtrc(high),
    # with low = -1 standing for "every count from 0 up meets the tail"
    stride = 1
    if pdtrc(n, lam) > per_atom_tail:
        low = n
        while pdtrc(high := min(low + stride, _MAX_COUNT), lam) > per_atom_tail:
            if high == _MAX_COUNT:
                raise BudgetExceededError(f"the cap for lam={lam!r} exceeds the double range")
            low, stride = high, 2 * stride
    else:
        high = n
        while high - stride >= 0 and pdtrc(high - stride, lam) <= per_atom_tail:
            high, stride = high - stride, 2 * stride
        low = max(high - stride, -1)
    while high - low > 1:
        mid = (low + high) // 2
        if pdtrc(mid, lam) <= per_atom_tail:
            high = mid
        else:
            low = mid
    return high


@dataclass(frozen=True)
class TruncatedStateSpace:
    """Per-atom truncation caps N_i with a quantified bound on discarded mass,
    searched from ``tail_mass``, never passed in."""

    space: GroundSpace
    tail_mass: float = DEFAULT_TAIL_MASS
    budget: int = DEFAULT_BUDGET
    #: per atom, the least N_i with P[Poisson(lam_i) > N_i] <= tail_mass/m
    min_caps: tuple[int, ...] = field(init=False, repr=False)
    #: min_caps raised to at least 1: a grid keeps a level above 0 on every axis
    caps: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.tail_mass < 1.0:
            raise ValueError(f"tail_mass must lie in (0, 1), got {self.tail_mass}")
        per_atom = self.tail_mass / self.space.atom_count
        searched = tuple(_min_cap(lam, per_atom) for lam in self.space.weights)
        object.__setattr__(self, "min_caps", searched)
        object.__setattr__(self, "caps", tuple(max(1, n) for n in searched))
        if self.state_count() > self.budget:
            raise BudgetExceededError(
                f"{self.state_count()} states exceed budget {self.budget}"
            )

    @classmethod
    def from_tail_mass(
        cls,
        space: GroundSpace,
        tail_mass: float = DEFAULT_TAIL_MASS,
        budget: int = DEFAULT_BUDGET,
    ) -> "TruncatedStateSpace":
        return cls(space, tail_mass, budget)

    def state_count(self) -> int:
        return math.prod(n + 1 for n in self.caps)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.caps)


def sample_configurations(space: GroundSpace, n: int, seed) -> np.ndarray:
    """(n, m) array of independent configurations, deterministic given seed."""
    rng = np.random.default_rng(seed)
    return rng.poisson(space.weight_array(), size=(n, space.atom_count))


class SampleMoments(NamedTuple):
    """What ``sample_moments`` returns for a sample x of n values."""

    mean: float
    variance: float  # ddof 1
    stderr: float  # of the mean: sqrt(variance) / sqrt(n)
    squared_deviations: np.ndarray  # (x - mean) ** 2, one per value


def sample_moments(values: np.ndarray) -> SampleMoments:
    """Mean, ddof-1 variance, standard error of the mean and squared
    deviations of a 1-d float sample of n >= 2 values: the one place a
    Monte Carlo estimate is reduced.

    The arithmetic is numpy's own, done once and without the Python-level
    wrappers of its ``var`` and ``std`` methods: each result is bit for bit
    what numpy's ``mean()``, ``var(ddof=1)``, ``std(ddof=1) / np.sqrt(n)``
    and ``(values - mean()) ** 2`` give, non-finite values and the
    floating-point warnings they raise included.
    """
    n = len(values)
    mean = values.sum() / n
    sq = values - mean
    np.square(sq, out=sq)  # in place, as numpy's var squares
    var = float(sq.sum() / (n - 1))
    # math.sqrt and np.sqrt are both the correctly rounded square root
    return SampleMoments(float(mean), var, math.sqrt(var) / math.sqrt(n), sq)


def check_mecke(engine, h, trunc: TruncatedStateSpace | None = None):
    """Verify E int h(eta, x) eta(dx) = E int h(eta + delta_x, x) lambda(dx).

    ``engine`` is a SemigroupEngine, whose states the check runs on. The
    older form passes a GroundSpace instead, with ``trunc``, and runs on an
    exact engine built on them; with an engine ``trunc`` is ignored.

    ``h`` is either a Functional F, meaning h(eta, x) = F(eta), or a callable
    mapping (counts row, atom index) to a real, evaluated one state at a
    time for each atom. Exact mode sums over the truncated grid extended by
    one level (caps + 2), so the shifted side is never clipped, and reads
    F from the engine's memoized table. Monte Carlo mode averages both sides
    over the engine's samples, reading F from the rows of its sample table
    (``engine.sample_values``), and reports the mean of their difference
    with its standard error, both from ``sample_moments``.
    """
    from .functionals import Functional

    if isinstance(engine, GroundSpace):
        from .semigroup import SemigroupEngine

        engine = SemigroupEngine(engine, trunc)
    space = engine.space
    lam = space.weight_array()
    if engine.mode == "exact":
        shape = tuple(n + 2 for n in engine.trunc.caps)  # one level for eta+delta_x
        law = grids.trim_to(engine.law, shape)
        states = np.indices(shape, sparse=True)

        def checked(table, i):
            """(table, max|table|), or NonFiniteValueError naming atom i."""
            if not np.isfinite(table).all():
                raise NonFiniteValueError(f"h produced a non-finite value at atom {i}")
            return table, float(np.abs(table).max())

        if isinstance(h, Functional):
            # a table-backed h need only cover caps + 2, not the padded grid;
            # every atom reads this one table, checked once
            fixed = checked(h.values(states) if h.table is not None
                            else grids.trim_to(engine.tabulate(h), shape), 0)
            tables = (fixed for _ in range(space.atom_count))
        else:
            tables = (checked(grids.map_rows(lambda c: h(c, i), states), i)
                      for i in range(space.atom_count))
        lhs = 0.0
        rhs = 0.0
        sup_h = 1.0
        for i, (table, peak) in enumerate(tables):
            lhs += float((law * states[i] * table).sum())
            rhs += lam[i] * float((grids.drop_top(law, i) * grids.shift_up(table, i)).sum())
            sup_h = max(sup_h, peak)
        tol = engine.tolerance(sup_h * (1.0 + space.total_mass))
        return make_report(
            "mecke", lhs, rhs, tolerance=tol, equality_form=True,
            parameters={"mode": "exact"},
        )
    samples = tuple(engine.samples.T)
    replications = engine.replications
    if isinstance(h, Functional):
        table = engine.sample_values(h)

        def point_values(i):
            # where c_i = 0 the product c_i * F below adds +-0, which changes
            # no sum, since every value in the table is finite
            return table[0]

        def shifted_values(i):
            return table[1 + i]
    else:
        def point_values(i):
            # a callable h is evaluated only where c_i > 0, and is 0 elsewhere
            occupied = samples[i] > 0
            out = np.zeros(replications)
            out[occupied] = grids.map_rows(lambda c: h(c, i),
                                           tuple(x[occupied] for x in samples))
            return out

        def shifted_values(i):
            return grids.map_rows(lambda c: h(c, i), grids.add_unit(samples, i))
    left = np.zeros(replications)
    right = np.zeros(replications)
    # the check below and make_report reject what overflows here
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(space.atom_count):
            left += samples[i] * point_values(i)
        for i in range(space.atom_count):
            right += lam[i] * shifted_values(i)
        diffs = left - right
        moments = sample_moments(diffs)
    if not np.isfinite(diffs).all():
        raise NonFiniteValueError("h produced a non-finite value")
    return make_report(
        "mecke", moments.mean, 0.0, stderr=moments.stderr, equality_form=True,
        parameters={"mode": "mc", "replications": replications},
    )
