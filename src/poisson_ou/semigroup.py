"""Ornstein-Uhlenbeck semigroup on Poisson configuration spaces.

The Mehler/thinning form acts atom by atom: each count is thinned
Binomial(n, e^-t) and an independent Poisson((1 - e^-t) * lam_i) refresh is
added. In exact mode the semigroup is therefore the tensor product of
one-atom transition matrices, which turns P_t into a deterministic linear
operator on tables. Kernel rows are sub-stochastic near the truncation caps;
the lost mass is tracked, never renormalized.

The working grid is padded well beyond the caps (to roughly twice each cap)
so that differences and kernel rows at every state within the caps are exact
up to the quantified tail mass. Max-over-state quantities are always taken
over the interior c_i <= N_i.
"""

from __future__ import annotations

import math

import numpy as np
from ._special import ufuncs as _ufuncs

from . import grids
from .errors import BudgetExceededError, NonFiniteValueError, PreconditionError
from .functionals import Functional, from_table, gamma_expectation
from .ground import (
    DEFAULT_REPLICATIONS,
    GroundSpace,
    TruncatedStateSpace,
    sample_configurations,
    sample_moments,
)
from .reports import LpNorm, make_report


#: a smaller e^-t is taken as 0, so thinning keeps no point: scipy's binomial
#: pmf raises OverflowError for e^-t from about 5.6e-309 up to 1.5e-307 at
#: n = 12 and 2e-305 at n = 2000 (t from about 706.5 and 701.6), and the mass
#: moved off row n is below n * _KEEP_FLOOR
_KEEP_FLOOR = 1e-300


def ou_kernel_1d(lam: float, size: int, t: float) -> np.ndarray:
    """One-atom kernel K[n, k] = P[Binomial(n, e^-t) + Poisson((1-e^-t) lam) = k].

    Columns are truncated at ``size``; rows sum to 1 minus the truncated tail.
    The binomial pmf is evaluated once, over a table whose row n holds
    P[Binomial(n, e^-t) = n - j] at column j, and row n of K is one
    ``np.correlate`` of the refresh pmf with that row's first n + 1 entries.
    """
    if t < 0:
        raise ValueError("negative time")
    keep = math.exp(-t)
    if keep < _KEEP_FLOOR:
        keep = 0.0  # Binomial(n, keep) is then delta_0
    refresh = grids.poisson_pmf_vector((1.0 - keep) * lam, size)
    binom_pmf = getattr(_ufuncs, "_binom_pmf", None)
    if binom_pmf is None:  # a scipy without the private ufunc: its public wrapper
        from scipy import stats

        binom_pmf = stats.binom.pmf
    n = np.arange(size)
    # each row already reversed: rev[n, j] = P[Binomial(n, keep) = n - j];
    # nan (0 from scipy.stats) for j > n, which no row reads
    rev = binom_pmf(n[:, None] - n, n[:, None], keep)
    # each row is np.convolve(pmf of row, refresh)[:size], taken as the
    # correlate call np.convolve makes, with the longer input first, without
    # its wrapper: the same products summed in the same order, each row
    # reading a contiguous prefix of its reversed pmf
    kernel = np.empty((size, size))
    for row in range(size - 1):
        kernel[row] = np.correlate(refresh, rev[row, :row + 1], "full")[:size]
    kernel[-1] = np.correlate(rev[-1, ::-1], refresh[::-1], "full")[:size]
    return kernel


class SemigroupEngine:
    """Exact truncated tensor-product kernel for P_t, or seeded MC samples for
    expectations (P_t itself is exact-only)."""

    def __init__(
        self,
        space: GroundSpace,
        trunc: TruncatedStateSpace | None = None,
        mode: str = "exact",
        replications: int = DEFAULT_REPLICATIONS,
        seed=0,
    ):
        if mode not in ("exact", "mc"):
            raise ValueError(f"unknown mode {mode!r}")
        self.space = space
        self.mode = mode
        self.replications = int(replications)
        self.seed = seed
        if trunc is None:
            trunc = TruncatedStateSpace.from_tail_mass(space)
        self.trunc = trunc
        #: (id(F), what) -> (F, result); see ``_memo``
        self._results: dict[tuple[int, object], tuple[Functional, object]] = {}
        #: table shape -> the law on its sub-grid, a view (exact mode only)
        self._laws: dict[tuple, np.ndarray] = {}
        if mode == "exact":
            # pad each axis so that any kernel row started at c <= N_i + 2
            # keeps all but ~tail_mass/m of its mass on the grid, for every t
            pads = [n + 3 for n in trunc.min_caps()]
            self.shape = tuple(n + 1 + p for n, p in zip(trunc.caps, pads))
            padded = math.prod(self.shape)
            if padded > trunc.budget:
                raise BudgetExceededError(
                    f"padded grid {self.shape} has {padded} states "
                    f"({trunc.state_count()} interior), over budget {trunc.budget}"
                )
            self.law = grids.product_pmf(space.weights, self.shape)
            #: t -> [one-atom kernel per atom], read-only; see ``kernels``
            self._kernels: dict[float, list[np.ndarray]] = {}
            self._laws[self.shape] = self.law
            self.samples = None
        else:
            if self.replications < 2:  # a standard error needs two samples
                raise ValueError("Monte Carlo needs at least 2 replications, "
                                 f"got {self.replications}")
            if self.replications > trunc.budget:
                raise BudgetExceededError(
                    f"{self.replications} replications, over budget {trunc.budget}")
            self.shape = None
            self.law = None
            self.samples = sample_configurations(space, self.replications, seed)

    # ---------------------------------------------------------------- exact

    def _require_exact(self, what):
        if self.mode != "exact":
            raise PreconditionError(f"{what} requires an exact-mode engine")

    def _memo(self, F: Functional, what, build):
        """``build()`` once per (F, what) for the engine's lifetime.

        ``what`` names the result: None for F's table; "samples" for F's
        sample table, which holds F on the samples and on every one-point
        shift of them (``sample_values``); a property for F's sign
        certificate, "variance" for Var(F), ("D", *atoms) for a difference
        table (exact mode) and ("E|D|^", i, power) for its moment; "min",
        "sup" and "mean" for min F, max|F| and E F, "phi" for F log F,
        "entropy" for Ent(F), ("Lp", p) for ||F||_p and a check's name (with
        q for entropy-power) for its sum over atoms (exact mode). Arrays
        come back read-only.
        In exact mode the memo holds, per functional the checks difference,
        its padded table and one first difference per atom: about 8(1 + m)
        bytes per padded state, plus 8 for F log F where an entropy reads
        it. Second differences are interior-sized (``difference``) and add
        a few percent.
        The memo holds F beside its result, so F's id cannot be reused while
        the engine lives. On an exact engine a table-backed F is not held:
        its values come from F's own table, and holding it would only keep
        transient tables (such as P_t F) alive for the engine's lifetime. No
        check builds such tables on a Monte Carlo engine, so there every F
        is held and its sample table built once. A ``build()`` that raises
        stores nothing.
        """
        key = (id(F), what)
        hit = self._results.get(key)
        if hit is not None:
            return hit[1]
        result = build()
        if isinstance(result, np.ndarray):
            result.setflags(write=False)
        if F.table is None or self.mode == "mc":
            self._results[key] = (F, result)
        return result

    def tabulate(self, F: Functional) -> np.ndarray:
        """F on the padded grid, built once per functional and read-only."""
        hit = self._results.get((id(F), None))
        if hit is not None:  # only an exact engine stores this key
            return hit[1]
        self._require_exact("tabulation")
        return self._memo(F, None, lambda: F.tabulate(self.shape))

    def minimum(self, F: Functional) -> float:
        """min F on the padded grid, once per functional."""
        return self._memo(F, "min", lambda: float(self.tabulate(F).min()))

    def sup_abs(self, F: Functional) -> float:
        """max |F| on the padded grid, once per functional."""
        return self._memo(F, "sup", lambda: float(np.abs(self.tabulate(F)).max()))

    def mean(self, F: Functional) -> float:
        """E F under the truncated law, once per functional."""
        return self._memo(F, "mean", lambda: self.expect_table(self.tabulate(F)))

    def difference(self, F: Functional, *atoms: int) -> np.ndarray:
        """D_i F for one atom i, or D_j D_i F for a pair i <= j, read-only.

        D_i F is taken on the padded grid (one smaller along axis i) and
        built once per (F, i), like ``tabulate``. D_j D_i F is built once per
        (F, i, j) on the interior grid (``trunc.shape``) only, from D_i F
        trimmed to the interior grown by one along j: the sign certificate is
        its one reader and reads no state beyond the caps, and each value is
        the same subtraction as on the padded grid. On the samples only D_i F
        exists: it is row 1 + i less row 0 of F's sample table
        (``sample_values``), as ``add_one_cost`` takes it, built on each call
        and not stored, so the memo keeps one table per functional.
        """
        hit = self._results.get((id(F), ("D",) + atoms))
        if hit is not None:  # only an exact engine stores this key
            return hit[1]
        if self.mode == "mc":
            if len(atoms) != 1:
                raise PreconditionError("a second difference requires an exact-mode engine")
            table = self.sample_values(F)
            d = table[1 + atoms[0]] - table[0]
            d.setflags(write=False)
            return d

        def build():
            if len(atoms) == 1:
                base = self.tabulate(F)
            else:
                i, j = atoms
                grown = list(self.trunc.shape)
                grown[j] += 1
                base = grids.trim_to(self.difference(F, i), grown)
            # an overflow is inf; where it happens |F| is near the double
            # range, and the checks reject F's variance or norms as non-finite
            with np.errstate(over="ignore"):
                return grids.diff_axis(base, atoms[-1])

        return self._memo(F, ("D",) + atoms, build)

    def difference_moment(self, F: Functional, i: int, power: int) -> float:
        """E|D_i F| (power 1) or E[(D_i F)^2] (power 2), once per (F, i, power)."""
        self._require_exact("a difference moment")
        def build():
            d = self.difference(F, i)
            return self.expect_table(np.abs(d) if power == 1 else d * d)

        return self._memo(F, ("E|D|^", i, power), build)

    def energy_density(self, F: Functional) -> np.ndarray:
        """sum_i lam_i (D_i F)^2 on the padded grid one smaller along every axis."""
        reduced = tuple(s - 1 for s in self.shape)
        with np.errstate(over="ignore"):  # an overflow is inf, as in ``difference``
            return sum((lam * grids.trim_to(self.difference(F, i), reduced) ** 2
                        for i, lam in enumerate(self.space.weights)), np.zeros(reduced))

    def expect_table(self, table: np.ndarray) -> float:
        """E[table(eta)] under the truncated law; accepts reduced shapes, whose
        law view is sliced once per shape and held by the engine."""
        law = self._laws.get(table.shape)
        if law is None:
            self._require_exact("exact expectation")
            law = self._laws[table.shape] = grids.trim_to(self.law, table.shape)
        return float((law * table).sum())

    def interior(self, table: np.ndarray) -> np.ndarray:
        """Restrict a (possibly reduced) table to the declared truncation grid."""
        shape = tuple(
            min(s, n) for s, n in zip(table.shape, self.trunc.shape)
        )
        return grids.trim_to(table, shape)

    def kernels(self, t: float) -> list[np.ndarray]:
        """The one-atom kernels at time t, built once per engine and read-only."""
        self._require_exact("the exact kernel")
        t = float(t)
        if t not in self._kernels:
            mats = [
                ou_kernel_1d(lam, size, t)
                for lam, size in zip(self.space.weights, self.shape)
            ]
            for mat in mats:
                mat.setflags(write=False)
            self._kernels[t] = mats
        return self._kernels[t]

    def apply_table(self, table: np.ndarray, t: float) -> np.ndarray:
        """Exact P_t on a table; reduced tables use correspondingly sliced kernels."""
        self._require_exact("exact semigroup application")
        if t == 0:
            return table
        mats = [
            k[: s, : s] for k, s in zip(self.kernels(t), table.shape)
        ]
        return grids.tensor_apply(mats, table)

    # ------------------------------------------------------------------ mc

    def sample_values(self, F: Functional) -> np.ndarray:
        """F's sample table, of shape (1 + m, replications): row 0 is F on the
        engine's samples and row 1 + i is F on each sample plus one point at
        atom i (``Functional.shift_table``). Built once per functional and
        read-only, like ``tabulate``; every Monte Carlo reading of F, shifted
        or not, is a row of it."""
        if self.mode != "mc":
            raise PreconditionError("sample evaluation requires a Monte Carlo engine")
        return self._memo(F, "samples", lambda: F.shift_table(tuple(self.samples.T)))

    def expect_mc(self, F: Functional) -> tuple[float, float]:
        """Sample mean and stderr of F over the engine's samples."""
        moments = sample_moments(self.sample_values(F)[0])
        return moments.mean, moments.stderr

    # ----------------------------------------------------------- atom sums

    def atom_sum(self, term) -> float:
        """sum_i lam_i * term(i), accumulated in atom order."""
        lam = self.space.weight_array()
        total = 0.0
        for i in range(self.space.atom_count):
            total += lam[i] * term(i)
        return total

    # ------------------------------------------------------------ tolerance

    def tolerance(self, scale) -> float:
        """Exact-mode tolerance: 10 * tail_mass * max(1, |scale|), for the
        scale of the quantity.

        Raises NonFiniteValueError when the scale, or the tolerance, is not a
        finite double: no verdict can be stated on that quantity.
        """
        size = abs(float(scale))
        tol = 10.0 * self.trunc.tail_mass * max(1.0, size)
        if not (math.isfinite(size) and math.isfinite(tol)):
            raise NonFiniteValueError("the tolerance scale is not a finite double")
        return tol


def overflow_to_inf(form) -> float:
    """``form()``, an expression in Python floats such as a tolerance scale
    or an exponent, or inf where that arithmetic overflows (and raises)."""
    try:
        return form()
    except OverflowError:
        return math.inf


# ----------------------------------------------------------------- operations


def apply_semigroup(engine: SemigroupEngine, F: Functional, t: float) -> Functional:
    """P_t F as a table-backed functional on the padded grid (exact mode only)."""
    table = engine.apply_table(engine.tabulate(F), t)
    return from_table(table, name=f"P_{t:g}[{F.name}]")


def expectation(engine: SemigroupEngine, F: Functional):
    if engine.mode == "exact":
        return engine.mean(F)
    return engine.expect_mc(F)


def variance(engine: SemigroupEngine, F: Functional):
    """Var(F), with its stderr in Monte Carlo mode; raises if not a finite double.

    Taken once per functional per engine (see ``SemigroupEngine._memo``).
    """
    return engine._memo(F, "variance", lambda: _variance(engine, F))


def _variance(engine: SemigroupEngine, F: Functional):
    """Exact mode: E[(F - E F)^2] over the padded grid, a float. Monte Carlo
    mode: the ddof-1 sample variance of F with its standard error, the
    standard error of the mean of the squared deviations, both from
    ``sample_moments``."""
    exact = engine.mode == "exact"
    vals = engine.tabulate(F) if exact else engine.sample_values(F)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if exact:
            var = engine.expect_table((vals - engine.mean(F)) ** 2)
        else:
            moments = sample_moments(vals)
            var = moments.variance
            stderr = sample_moments(moments.squared_deviations).stderr
    if not math.isfinite(var):
        raise NonFiniteValueError(f"the variance of {F.name} is not a finite double")
    return var if exact else (var, stderr)


def lp_norm(engine: SemigroupEngine, F: Functional, p) -> LpNorm:
    """||F||_p = E[|F|^p]^(1/p); p = inf is the max over truncated states.

    Exact mode only, taken once per (F, p) per engine (see
    ``SemigroupEngine._memo``). Raises NonFiniteValueError when E|F|^p
    overflows, or underflows to 0 while F is not 0: no norm can be stated
    from it.
    """
    p = float(p)
    if not (p >= 1.0):
        raise ValueError("p must be in [1, inf]")
    return engine._memo(F, ("Lp", p), lambda: _lp_norm(engine, F, p))


def _lp_norm(engine: SemigroupEngine, F: Functional, p: float) -> LpNorm:
    vals = np.abs(engine.tabulate(F))
    if math.isinf(p):
        return LpNorm(value=float(engine.interior(vals).max()))
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        moment = engine.expect_table(vals**p)
    if not math.isfinite(moment):
        raise NonFiniteValueError(f"E|{F.name}|^{p:g} is not a finite double")
    if moment == 0.0 and vals.max() > 0.0:
        raise NonFiniteValueError(f"E|{F.name}|^{p:g} underflows to 0")
    return LpNorm(value=float(moment ** (1.0 / p)))


def generator_table(engine: SemigroupEngine, F: Functional) -> np.ndarray:
    """Birth-death form (LF)(c) = sum_i lam_i * D_i F(c) + c_i * (F(c - e_i) - F(c)).

    Returned on the grid reduced by one along every axis.
    """
    return _generator_of_table(engine, engine.tabulate(F))


def _generator_of_table(engine: SemigroupEngine, table: np.ndarray) -> np.ndarray:
    reduced = tuple(s - 1 for s in table.shape)
    out = np.zeros(reduced)
    lam = engine.space.weight_array()
    counts = np.indices(reduced, sparse=True)
    base = grids.trim_to(table, reduced)
    for i in range(engine.space.atom_count):
        out += lam[i] * grids.trim_to(grids.diff_axis(table, i), reduced)
        # F(c - e_i) - F(c) where c_i >= 1, and 0 where c_i = 0
        down = np.zeros(reduced)
        grids.shift_up(down, i)[...] = -grids.diff_axis(base, i)
        out += counts[i] * down
    return out


def mean_preservation_check(engine, F, t):
    """E[P_t F] = E[F], exact tolerance 10 * tail_mass * sup|F|."""
    lhs = engine.expect_table(engine.apply_table(engine.tabulate(F), t))
    rhs = engine.mean(F)
    tol = engine.tolerance(engine.sup_abs(F))
    return make_report(
        "mean-preservation", lhs, rhs, tolerance=tol, equality_form=True,
        parameters={"t": t},
    )


def commutation_check(engine, F, t):
    """max over interior states and atoms of |D_i(P_t F) - e^-t P_t(D_i F)|."""
    pt = apply_semigroup(engine, F, t)
    worst = 0.0
    for i in range(engine.space.atom_count):
        left = engine.difference(pt, i)
        right = math.exp(-t) * engine.apply_table(engine.difference(F, i), t)
        worst = max(worst, float(np.abs(engine.interior(left - right)).max()))
    tol = engine.tolerance(engine.sup_abs(F))
    return make_report(
        "commutation", worst, 0.0, tolerance=tol, equality_form=True,
        parameters={"t": t},
    )


def semigroup_property_check(engine, F, s, t):
    """max over interior states of |P_s P_t F - P_{s+t} F|."""
    table = engine.tabulate(F)
    two_step = engine.apply_table(engine.apply_table(table, t), s)
    one_step = engine.apply_table(table, s + t)
    worst = float(np.abs(engine.interior(two_step - one_step)).max())
    tol = engine.tolerance(engine.sup_abs(F))
    return make_report(
        "semigroup-property", worst, 0.0, tolerance=tol, equality_form=True,
        parameters={"s": s, "t": t},
    )


def generator_check(engine, F, h):
    """Compare (P_h F - F)/h with the birth-death form of L; deviation is O(h).

    rhs is the first-order error bound h * sup|L(LF)| over the interior,
    evaluated with the same birth-death form.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    table = engine.tabulate(F)
    finite = (engine.apply_table(table, h) - table) / h
    lf = generator_table(engine, F)
    resid = engine.interior(grids.trim_to(finite, lf.shape) - lf)
    lhs = float(np.abs(resid).max())
    llf = _generator_of_table(engine, lf)
    scale = float(np.abs(engine.interior(llf)).max())
    rhs = h * scale
    tol = engine.tolerance(engine.sup_abs(F)) + 1e-12 * scale
    return make_report("generator", lhs, rhs, tolerance=tol, parameters={"h": h})


def symmetry_check(engine, F, G):
    """E[F LG] = E[G LF] = -E[Gamma(F, G)], three-way within truncation slack."""
    tf = engine.tabulate(F)
    tg = engine.tabulate(G)
    lf = generator_table(engine, F)
    lg = generator_table(engine, G)
    e_flg = engine.expect_table(grids.trim_to(tf, lg.shape) * lg)
    e_glf = engine.expect_table(grids.trim_to(tg, lf.shape) * lf)
    e_gamma = gamma_expectation(engine, F, G)
    worst = max(
        abs(e_flg - e_glf), abs(e_flg + e_gamma), abs(e_glf + e_gamma)
    )
    scale = engine.sup_abs(F) * engine.sup_abs(G)
    tol = engine.tolerance(scale * (1.0 + engine.space.total_mass))
    return make_report(
        "generator-symmetry", worst, 0.0, tolerance=tol, equality_form=True,
        parameters={"E[FLG]": e_flg, "E[GLF]": e_glf, "E[Gamma]": e_gamma},
    )


def pointwise_gradient_check(engine, F, t):
    """|D_i(P_t F)| <= 2 e^-t over interior states, for ||F||_inf <= 1."""
    sup = engine.sup_abs(F)
    if sup > 1.0 + 1e-12:
        raise PreconditionError(f"||F||_inf = {sup} > 1")
    pt = apply_semigroup(engine, F, t)
    worst = 0.0
    for i in range(engine.space.atom_count):
        worst = max(worst, float(np.abs(engine.interior(engine.difference(pt, i))).max()))
    rhs = 2.0 * math.exp(-t)
    return make_report(
        "pointwise-gradient", worst, rhs, tolerance=engine.tolerance(1.0),
        parameters={"t": t},
    )


def integrated_gradient_check(engine, F, t, p):
    """|| |D P_t F|_{L2(lambda)} ||_p <= e^-t / sqrt(1 - e^-t) * ||F||_p, p >= 2."""
    p = float(p)
    if p < 2.0:
        raise ValueError("p must be in [2, inf]")
    if not t > 0:
        raise ValueError("t must be positive")
    sq = engine.energy_density(apply_semigroup(engine, F, t))
    if math.isinf(p):
        lhs = float(np.sqrt(engine.interior(sq).max()))
    else:
        lhs = engine.expect_table(sq ** (p / 2.0)) ** (1.0 / p)
    rhs_norm = lp_norm(engine, F, p).value
    rhs = math.exp(-t) / math.sqrt(1.0 - math.exp(-t)) * rhs_norm
    tol = engine.tolerance(rhs_norm)
    return make_report("integrated-gradient", lhs, rhs, tolerance=tol,
                       parameters={"t": t, "p": p})
