"""Checkers for the variance, entropy, and hypercontractivity inequalities.

Each checker returns an InequalityReport carrying both sides, the slack, the
error model (exact tolerance or Monte Carlo stderr), hypothesis certificates,
and the verdict. Hypothesis-gated checkers certify their sign conditions
exactly before comparing sides; ``bypass_hypotheses=True`` runs the
comparison anyway (used to demonstrate counterexamples) and the surrounding
tooling tags such records so they never count as genuine violations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import pdtrc

from . import grids
from .errors import NegativeValueError, NonFiniteValueError, PreconditionError
from .functionals import (
    PROP_D2F_GE0,
    PROP_D2F_LE0,
    PROP_DF_GE0,
    PROP_DF_LE0,
    Functional,
    certify_monotonicity,
    from_table,
    gamma_expectation,
)
from .reports import VIOLATED, EntropyValue, make_report
from .semigroup import SemigroupEngine, apply_semigroup, lp_norm, overflow_to_inf, variance


def _phi(values: np.ndarray) -> tuple[np.ndarray, int]:
    """u log u with 0 log 0 = 0; returns the table and the convention-hit count."""
    if np.any(values < 0):
        raise NegativeValueError("u log u needs non-negative values")
    zero = values == 0.0
    out = np.zeros_like(values)
    nz = ~zero
    out[nz] = values[nz] * np.log(values[nz])
    return out, int(np.count_nonzero(zero))


def entropy(engine: SemigroupEngine, F: Functional) -> EntropyValue:
    """Ent(F) = E[F log F] - E[F] log E[F] for F >= 0."""
    if engine.mode == "exact":
        table = engine.tabulate(F)
        phi_table, hits = _phi(table)
        mean = engine.expect_table(table)
        mean_phi = engine.expect_table(phi_table)
    else:
        vals = engine.sample_values(F)
        phi_vals, hits = _phi(vals)
        mean = float(vals.mean())
        mean_phi = float(phi_vals.mean())
    base = 0.0 if mean == 0.0 else mean * math.log(mean)
    return EntropyValue(value=mean_phi - base, convention_hits=hits)


def _variance_tolerance(engine, sup: float) -> float:
    """Exact tolerance of a variance-sized quantity: scale sup|F|^2 (1 + total mass)."""
    return engine.tolerance(overflow_to_inf(lambda: sup**2 * (1 + engine.space.total_mass)))


def check_poincare(engine, F):
    """Var(F) <= sum_i lam_i E[(D_i F)^2]; holds for every F, no gate."""
    if engine.mode == "exact":
        lhs = variance(engine, F)
        rhs = gamma_expectation(engine, F)
        sup = float(np.max(np.abs(engine.tabulate(F))))
        tol = _variance_tolerance(engine, sup)
        return make_report("poincare", lhs, rhs, tolerance=tol)
    lhs, se_l = variance(engine, F)
    rhs, se_r = gamma_expectation(engine, F)
    return make_report("poincare", lhs, rhs, stderr=math.hypot(se_l, se_r))


def check_modified_lsi(engine, F):
    """Ent(F) <= sum_i lam_i E[Phi(F(.+e_i)) - Phi(F) - (log F + 1) D_i F]."""
    table = engine.tabulate(F)
    if np.min(table) <= 0.0:
        raise PreconditionError("modified LSI needs F > 0 on the probed states")
    lhs = entropy(engine, F).value
    phi_table, _ = _phi(table)
    phi_prime = np.log(table) + 1.0

    def term(i):
        d_phi = grids.diff_axis(phi_table, i)
        df = engine.difference(F, i)
        return engine.expect_table(d_phi - grids.drop_top(phi_prime, i) * df)

    rhs = engine.atom_sum(term)
    scale = float(np.max(np.abs(phi_table))) + float(np.max(np.abs(table)))
    tol = engine.tolerance(scale * (1 + engine.space.total_mass))
    return make_report("modified-lsi", lhs, rhs, tolerance=tol)


def check_min_form_lsi(engine, F):
    """Ent(F) <= sum_i lam_i E[min((D_i F)^2 / F, D_i F * D_i log F)]."""
    table = engine.tabulate(F)
    if np.min(table) <= 0.0:
        raise PreconditionError("min-form LSI needs F > 0 on the probed states")
    lhs = entropy(engine, F).value
    log_table = np.log(table)

    def term(i):
        df = engine.difference(F, i)
        d_log = grids.diff_axis(log_table, i)
        quad = df**2 / grids.drop_top(table, i)
        return engine.expect_table(np.minimum(quad, df * d_log))

    rhs = engine.atom_sum(term)
    scale = float(np.max(np.abs(table * (1 + np.abs(log_table)))))
    tol = engine.tolerance(scale * (1 + engine.space.total_mass))
    return make_report("min-form-lsi", lhs, rhs, tolerance=tol)


#: q*log(a/b) beyond which the sides exceed the float range for small b
#: and are compared as logarithms
_LOG_REGIME = 350.0
#: relative tolerance of the pathwise comparison (absolute on the log scale)
_REL_TOL = 1e-12
#: the sweep draws a and b from [0, _SWEEP_A_MAX] and q from (1, _SWEEP_Q_MAX]
_SWEEP_A_MAX, _SWEEP_Q_MAX = 100.0, 5.0


def _pathwise_eval(a, b, q):
    """Sides of the pathwise power inequality plus a violation mask.

    Returns (lhs, rhs, log_lhs, log_rhs, violated). Every point is evaluated
    as b^q times the sides in u = a/b. Where t = q log u exceeds _LOG_REGIME,
    or that product leaves the double range, the sides are compared as
    logarithms, carried in the log columns (-inf elsewhere), and the
    absolute sides are their exponentials.
    """
    a, b, q = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, q)))
    if np.any(a < 0) or np.any(b < 0) or np.any(q <= 1):
        raise ValueError("need a, b >= 0 and q > 1")
    pos, lone = b > 0.0, (b == 0.0) & (a > 0)
    with np.errstate(all="ignore"):
        # u = a/b via log1p of the relative difference when it is
        # representable, else directly through logs (precision is moot there)
        delta = (a - b) / b
        log_u = np.where(np.isfinite(delta), np.log1p(delta), np.log(a) - np.log(b))
        t = q * log_u
        uq_m1 = np.expm1(t)  # u^q - 1
        uqm1_m1 = np.expm1((q - 1.0) * log_u)  # u^{q-1} - 1
        scale = b**q
        lhs = scale * uq_m1**2
        rhs = scale * q**2 / (q - 1.0) * delta * uqm1_m1 * np.maximum(np.exp(t), 1.0)
        violated = pos & (lhs > rhs + _REL_TOL * np.maximum(lhs, rhs))
        # b = 0 < a: lhs = a^q and rhs = +inf by convention; a = b = 0: both 0
        lhs = np.where(pos, lhs, np.where(lone, a**q, 0.0))
        rhs = np.where(pos, rhs, np.where(lone, np.inf, 0.0))
        log_lhs = np.where(lone, q * np.log(a), -np.inf)
        log_rhs = np.where(lone, np.inf, -np.inf)
        extreme = pos & (t > _LOG_REGIME)
        in_logs = extreme | (pos & ~(np.isfinite(lhs) & np.isfinite(rhs)))
        if np.any(in_logs):
            # a >> b: both sides scale like a^2q / b^q; the exp(-t) terms are
            # below 1e-150 and kept only to make the comparison one-sided
            ll = q * np.log(b) + 2.0 * t + 2.0 * np.log1p(-np.exp(-t))
            lr = (q * np.log(b) + np.log(q**2 / (q - 1.0)) + np.log(a - b) - np.log(b)
                  + (q - 1.0) * log_u + np.log1p(-np.exp(-(q - 1.0) * log_u)) + t)
            # moderate t but b^q overflows: q log b plus the log of the side in
            # u, with rhs through its ratio to lhs (1 at a = b, where both are
            # 0) so that a large q log b cannot round nearly equal sides apart
            ratio = np.where(delta == 0.0, 1.0, q**2 / (q - 1.0) * delta * uqm1_m1 / uq_m1**2)
            ll_mod = q * np.log(b) + np.log(uq_m1**2)
            lr_mod = ll_mod + (np.log(ratio) + np.maximum(t, 0.0))
            log_lhs = np.where(extreme, ll, np.where(in_logs, ll_mod, log_lhs))
            log_rhs = np.where(extreme, lr, np.where(in_logs, lr_mod, log_rhs))
            lhs = np.where(in_logs, np.exp(log_lhs), lhs)
            rhs = np.where(in_logs, np.exp(log_rhs), rhs)
            violated = np.where(in_logs, log_lhs > log_rhs + _REL_TOL, violated)
    return lhs, rhs, log_lhs, log_rhs, violated


def pathwise_lemma_sides(a, b, q):
    """Both sides of the pathwise power inequality, evaluated stably.

    lhs = (a^q - b^q)^2 / b^q,
    rhs = q^2/(q-1) * (a - b)(a^{q-1} - b^{q-1}) * max((a/b)^q, 1),
    with the convention 1/0 = +inf when b = 0 < a. Near a = b the two sides
    agree to second order, so powers are evaluated via expm1/log1p to keep
    the comparison meaningful at relative tolerance 1e-12. Sides whose true
    value exceeds the double range come back as inf.
    """
    return _pathwise_eval(a, b, q)[:2]


def check_pathwise_lemma(a, b, q):
    """Check the pathwise power inequality at every point of a grid.

    a, b and q are scalars or equal-length sequences. One masked pass of the
    evaluator covers every point, and the result is a list with one report
    per point, in order; each report's parameters hold the point's values as
    given. When the absolute sides overflow a double the report carries the
    logarithms of both sides instead (flagged in the parameters).
    """
    points = np.broadcast(*(np.asarray(x, dtype=object) for x in (a, b, q)))
    columns = (np.ravel(col) for col in _pathwise_eval(a, b, q))
    reports = []
    for (a_i, b_i, q_i), lhs, rhs, log_lhs, log_rhs, violated in zip(points, *columns):
        lhs, rhs = float(lhs), float(rhs)
        params = {"a": a_i, "b": b_i, "q": q_i}
        if math.isinf(lhs):
            lhs, rhs = float(log_lhs), float(log_rhs)
            params["log_scale"] = True
            tol = _REL_TOL
        else:
            tol = _REL_TOL * max(abs(lhs), abs(lhs) if math.isinf(rhs) else abs(rhs))
        report = make_report("pathwise-lemma", lhs, rhs, tolerance=tol, parameters=params)
        assert (report.verdict == VIOLATED) == bool(violated)
        reports.append(report)
    return reports


def pathwise_lemma_sweep(n, seed=0):
    """Randomized sweep; returns the number of violations (expected 0)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, _SWEEP_A_MAX, n)
    b = rng.uniform(0.0, _SWEEP_A_MAX, n)
    q = np.clip(rng.uniform(1.0, _SWEEP_Q_MAX, n), 1.0 + 1e-9, _SWEEP_Q_MAX)
    return int(np.count_nonzero(_pathwise_eval(a, b, q)[4]))


def check_entropy_power(engine, G, q, bypass_hypotheses=False):
    """Ent(G^q) <= q^2/(q-1) * E[Gamma(G^{q-1}, G)] for G >= 0 non-increasing."""
    if not q > 1:
        raise ValueError("q must exceed 1")
    table = engine.tabulate(G)
    if np.min(table) < 0:
        raise PreconditionError("entropy-power bound needs G >= 0")
    certs = [certify_monotonicity(engine, G, PROP_DF_LE0)]

    def term(i):
        d_qm1 = grids.diff_axis(table ** (q - 1.0), i)
        return engine.expect_table(d_qm1 * engine.difference(G, i))

    # an overflow is inf or nan, which _finite_sides and tolerance reject
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = entropy(engine, from_table(table**q, name=f"{G.name}^{q:g}")).value
        rhs = engine.atom_sum(term) * (q**2 / (q - 1.0))
        scale = float(np.max(table) ** q) * (1 + engine.space.total_mass) * q**2 / (q - 1)
    lhs, rhs = _finite_sides("entropy-power", lhs, rhs)
    return make_report(
        "entropy-power", lhs, rhs, tolerance=engine.tolerance(scale),
        certificates=certs, parameters={"q": q},
        hypothesis_met=bypass_hypotheses or all(c.valid for c in certs),
    )


def check_restricted_hypercontractivity(engine, F, t, p, bypass_hypotheses=False):
    """||P_t F||_{1 + (p-1) e^t} <= ||F||_p for F >= 0 with DF <= 0."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    table = engine.tabulate(F)
    nonneg = float(np.min(table)) >= 0.0
    certs = [certify_monotonicity(engine, F, PROP_DF_LE0)]
    q_t = 1.0 + (p - 1.0) * math.exp(t)
    lhs = lp_norm(engine, apply_semigroup(engine, F, t), q_t).value
    rhs = lp_norm(engine, F, p).value
    scale = max(1.0, float(np.max(np.abs(table))))
    return make_report(
        "restricted-hypercontractivity", lhs, rhs, tolerance=engine.tolerance(scale),
        certificates=certs, parameters={"t": t, "p": p, "q(t)": q_t},
        hypothesis_met=bypass_hypotheses or (nonneg and all(c.valid for c in certs)),
    )


def check_weak_hypercontractivity(engine, F, t):
    """||exp(P_t F)||_{e^t} <= ||exp(F)||_1 for bounded F of any sign; no gate."""
    table = engine.tabulate(F)
    # before the sides: where exp(max|F|) is beyond doubles, exp(F) overflows too
    tol = engine.tolerance(overflow_to_inf(lambda: math.exp(float(np.max(np.abs(table))))))
    pt = engine.apply_table(table, t)
    q_t = math.exp(t)
    # e^t P_t F may pass the log of the largest double where F does not
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = engine.expect_table(np.exp(q_t * pt)) ** (1.0 / q_t)
        rhs = engine.expect_table(np.exp(table))
    lhs, rhs = _finite_sides("weak-hypercontractivity", lhs, rhs)
    return make_report("weak-hypercontractivity", lhs, rhs, tolerance=tol,
                       parameters={"t": t})


def _finite_sides(name, lhs, rhs):
    """(lhs, rhs), or NonFiniteValueError when a side is not a finite double:
    no verdict can be stated on it."""
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NonFiniteValueError(f"a side of {name} is not a finite double")
    return lhs, rhs


def talagrand_bound(engine, F) -> float:
    """2 sum_i lam_i ||D_i F||_2^2 / (1 + log(||D_i F||_2 / ||D_i F||_1)).

    The constant 2 is the one that makes the bound consistent with the
    Poincare inequality in the saturating linear case (any smaller constant
    is refuted by F(c) = c_1, where the log ratio vanishes and the variance
    equals the Poincare right-hand side). Atoms with ||D_i F||_2 = 0
    contribute 0.
    """
    lam = engine.space.weight_array()
    total = 0.0
    # not engine.atom_sum: lam * (a / b) there would round differently from
    # (lam * a) / b here and move the last digit of rhs for non-unit weights
    for i in range(engine.space.atom_count):
        l1 = engine.difference_moment(F, i, 1)
        l2 = math.sqrt(engine.difference_moment(F, i, 2))
        if l2 == 0.0:
            continue
        total += lam[i] * l2**2 / (1.0 + math.log(l2 / l1))
    return 2.0 * total


def _talagrand_certs(engine, F):
    """Certificates of (DF >= 0, D2F <= 0), else of both reversed; met or not."""
    tried = []
    for props in ((PROP_DF_GE0, PROP_D2F_LE0), (PROP_DF_LE0, PROP_D2F_GE0)):
        certs = [certify_monotonicity(engine, F, prop) for prop in props]
        if all(c.valid for c in certs):
            return certs, True
        tried += certs
    return tried, False


def check_talagrand(engine, F, bypass_hypotheses=False):
    """Var(F) <= the L1-L2 bound, gated on (DF>=0, D2F<=0) or (DF<=0, D2F>=0)."""
    sup = float(np.max(np.abs(engine.tabulate(F))))
    certs, met = _talagrand_certs(engine, F)
    lhs = variance(engine, F)
    rhs = talagrand_bound(engine, F)
    return make_report(
        "talagrand", lhs, rhs, tolerance=_variance_tolerance(engine, sup),
        certificates=certs, hypothesis_met=bypass_hypotheses or met,
    )


def l1_variance_bound(engine, F, bypass_hypotheses=False):
    """Var(F) <= 11 (2||F||_inf)^alpha * sum_i lam_i B(E|D_i F|), where B is
    2/(1 + log(1/x)) for x <= 1 and x for x >= 1 (min of both at x = 1)."""
    table = engine.tabulate(F)
    sup = float(np.max(np.abs(engine.interior(table))))
    if not np.all(np.isfinite(table)):
        raise PreconditionError("F must be bounded")
    certs, met = _talagrand_certs(engine, F)
    alpha = 1.0 if 2.0 * sup > 1.0 else 2.0 / (math.e + 1.0)

    def term(i):
        mean_abs = engine.difference_moment(F, i, 1)
        if mean_abs == 0.0:
            return 0.0
        if mean_abs < 1.0:
            return 2.0 / (1.0 + math.log(1.0 / mean_abs))
        # x >= 1; at x = 1 both branches are valid bounds and x is the smaller
        return mean_abs

    lhs = variance(engine, F)
    # an overflow is inf or nan, which _finite_sides rejects
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = 11.0 * (2.0 * sup) ** alpha * engine.atom_sum(term)
    lhs, rhs = _finite_sides("l1-variance", lhs, rhs)
    return make_report(
        "l1-variance", lhs, rhs, tolerance=_variance_tolerance(engine, sup),
        certificates=certs, parameters={"alpha": alpha},
        hypothesis_met=bypass_hypotheses or met,
    )


def check_concentration(engine, F, thresholds, bypass_hypotheses=False):
    """P[F - E F > t] <= exp(-t^2 / (2 alpha^2)) with alpha^2 = sup sum_i lam_i (D_i F)^2.

    Gated on DF <= 0. The report's lhs/rhs are the worst (tail - bound) pair
    over the threshold grid; per-threshold values sit in the parameters.
    """
    table = engine.tabulate(F)
    certs = [certify_monotonicity(engine, F, PROP_DF_LE0)]
    # an overflow is inf, rejected below
    alpha_sq = float(np.max(engine.interior(engine.energy_density(F))))
    if not math.isfinite(alpha_sq):
        raise NonFiniteValueError("alpha^2 of the concentration bound is not a finite double")
    mean = engine.expect_table(table)
    # F - E F beyond the double range is +-inf, which compares with t alike
    with np.errstate(over="ignore"):
        centered = table - mean
    pairs = {}
    worst_lhs, worst_rhs = 0.0, math.inf
    for t in thresholds:
        tail = engine.expect_table((centered > t).astype(float))
        bound = math.exp(-t * t / (2.0 * alpha_sq)) if alpha_sq > 0 else float(t <= 0)
        # t:g unless two thresholds would share a label; repr round-trips
        pairs[f"t={t:g}" if float(f"{t:g}") == t else f"t={t!r}"] = (tail, bound)
        if tail - bound > worst_lhs - worst_rhs:
            worst_lhs, worst_rhs = tail, bound
    params = {"alpha^2": alpha_sq}
    params.update({k: f"{v[0]:.6g}<={v[1]:.6g}" for k, v in pairs.items()})
    return make_report(
        "concentration", worst_lhs, worst_rhs, tolerance=engine.tolerance(1.0),
        certificates=certs, parameters=params,
        hypothesis_met=bypass_hypotheses or all(c.valid for c in certs),
    )


def lsi_failure_ratios(k_max: int) -> np.ndarray:
    """For the unit-rate Poisson law pi: the ratio
    -pi([k+1, inf)) log pi([k+1, inf)) / pi(k) for k = 1..k_max.

    A log-Sobolev inequality Ent(f^2) <= C E[|Df|^2] would force this ratio
    to stay below C; the sequence grows without bound (like log k).

    Where the tail tau = pi([k+1, inf)) falls below the smallest normal float
    (k >= 170), it is carried in log space: tau = pi(k+1) S(k) with
    S(k) = 1 + 1/(k+2) + 1/((k+2)(k+3)) + ..., so the ratio is
    S(k) (-log tau) / (k+1) and stays finite for every k.
    """
    k = np.arange(1, k_max + 1)
    tail = pdtrc(k, 1.0)
    normal = tail >= np.finfo(float).tiny
    ratios = np.empty(k_max)
    ratios[normal] = (-tail[normal] * np.log(tail[normal])
                      / np.exp(grids.poisson_logpmf(k[normal], 1.0)))
    ku = k[~normal]
    series = grids.poisson_tail_series(ku, 1.0)
    log_tail = grids.poisson_logpmf(ku + 1, 1.0) + np.log(series)
    ratios[~normal] = series * -log_tail / (ku + 1)
    return ratios


def check_lsi_failure(k_max=50):
    """Report the unboundedness of the would-be log-Sobolev constant.

    Verdict "holds" means the failure is confirmed: the ratio sequence is
    eventually increasing (monotone over its last half).
    """
    ratios = lsi_failure_ratios(k_max)
    half = len(ratios) // 2
    increasing = bool(np.all(np.diff(ratios[half:]) > 0))
    mid, last = float(ratios[half]), float(ratios[-1])
    return make_report(
        # the end of the sequence must exceed its midpoint value
        "lsi-failure", mid, last,
        tolerance=0.0,
        parameters={
            "k_max": k_max,
            "increasing_tail": increasing,
            "ratio_first": float(ratios[0]),
            "ratio_last": float(ratios[-1]),
        },
        hypothesis_met=increasing,
    )
