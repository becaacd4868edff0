"""Parametrized reproductions of the worked examples, with closed forms.

Three families:
  * the one-atom cumulative functionals G(n) = sum_{j<n} g(j) for
    non-increasing g, where the L1-L2 bound beats Poincare;
  * the threshold indicators F_k = 1{X <= k-1} on a unit-rate atom, where the
    L1-L2 bound fails without its sign hypotheses;
  * the maxima indicator over a continuous sample, reduced exactly to a
    single Poisson count via the mass outside the ball.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from ._special import gammainc, pdtr, pdtrc

from . import grids
from .functionals import Functional
from .ground import GroundSpace
from .inequalities import entropy, talagrand_bound
from .semigroup import SemigroupEngine, variance
from .errors import NonFiniteValueError, PreconditionError


# ------------------------------------------------------------- maxima example


@dataclass(frozen=True)
class MaximaModel:
    """Indicator that some point of a Poisson sample lies outside a ball.

    ``m`` is the expected number of points outside the ball; the indicator
    depends on the configuration only through that outside count, so every
    closed form is a function of m alone. ``radial_tail`` (r -> P[radius > r],
    non-increasing, read by the tests' Monte Carlo cross-check) recovers
    m = n * radial_tail(t).
    """

    m: float
    radial_tail: object | None = None

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError("m must be positive")


def maxima_closed_forms(model: MaximaModel) -> dict:
    """Exact values for the maxima indicator, all in terms of m.

    variance    = e^-m (1 - e^-m)
    poincare    = m e^-m
    dx norms    : ||D F||_2 = sqrt(e^-m) = sqrt(||D F||_1) outside the ball
    talagrand   = 2 m e^-m / (1 + m/2)   (the L1-L2 bound in its worked form)
    """
    m = model.m
    em = math.exp(-m)
    return {
        "variance": em * (1.0 - em),
        "poincare_rhs": m * em,
        "dx_norm_l1": em,
        "dx_norm_l2": math.sqrt(em),
        "log_norm_ratio": m / 2.0,
        "talagrand_rhs": 2.0 * m * em / (1.0 + m / 2.0),
    }


# --------------------------------------------------- one-dimensional examples


def one_dim_cumulative(g) -> Functional:
    """G(0) = 0, G(n) = sum_{j<n} g(j) for non-increasing, non-negative g.

    DG(n) = g(n) >= 0 and D2G(n) = g(n+1) - g(n) <= 0: G is increasing and
    concave, which every gated checker certifies exactly on its grid.
    """
    probe = [float(g(j)) for j in range(200)]
    if any(v < 0 for v in probe):
        raise PreconditionError("g must be non-negative")
    if any(b > a + 1e-12 for a, b in zip(probe, probe[1:])):
        raise PreconditionError("g must be non-increasing")

    def rule(c):
        n = int(c[0])
        return float(sum(g(j) for j in range(n)))

    return Functional(rule=rule, name="cumulative-G")


def one_dim_bound_comparison(g, lam: float, engine: SemigroupEngine | None = None) -> dict:
    """Exact Poincare and L1-L2 bounds for the cumulative functional.

    The L1-L2 value uses the worked one-atom form
    2 lam E[g(X)^2] / (1 + log(||g(X)||_2 / ||g(X)||_1)).
    """
    if engine is None:
        engine = SemigroupEngine(GroundSpace((float(lam),)))
    G = one_dim_cumulative(g)
    g_vals = np.array([float(g(n)) for n in range(engine.shape[0])])
    e_g2 = engine.expect_table(g_vals**2)
    e_g1 = engine.expect_table(np.abs(g_vals))
    var = variance(engine, G)
    log_ratio = 0.5 * math.log(e_g2) - math.log(e_g1) if e_g1 > 0 else math.inf
    poincare = lam * e_g2
    talagrand = 2.0 * lam * e_g2 / (1.0 + log_ratio) if e_g1 > 0 else 0.0
    return {
        "variance": var,
        "poincare_rhs": poincare,
        "talagrand_rhs": talagrand,
        "g_norm_l1": e_g1,
        "g_norm_l2": math.sqrt(e_g2),
        "log_norm_ratio": log_ratio,
    }


def counterexample_fk(k: int) -> dict:
    """Exact values for F_k = 1{X <= k-1} on a unit-rate atom.

    This functional is decreasing but not concave in the difference sense, so
    the L1-L2 bound's hypotheses fail; the ratio Var / bound exceeds one for
    all large k and grows like log k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    lam = 1.0  # the counterexample is stated at unit rate
    low = float(pdtr(k - 1, lam))
    high = float(pdtrc(k - 1, lam))
    if high < np.finfo(float).tiny:
        # below the smallest normal float pdtrc loses digits (k = 171) and then
        # flushes to 0 (k >= 172); take P[X > k-1] = pmf(k) * S(k-1) in logs,
        # as lsi_failure_ratios does. The true tail leaves the float range at
        # k = 178, where this is 0 as well.
        series = float(grids.poisson_tail_series(k - 1, lam))
        high = float(np.exp(grids.poisson_logpmf(k, lam) + math.log(series)))
    log_p = float(grids.poisson_logpmf(k - 1, lam))
    p_km1 = float(np.exp(log_p))
    variance = low * high
    # where 1/p_km1 overflows (k >= 172) take logs, and high / p_km1 = S / k
    # with P[X > k-1] = pmf(k) * S and pmf(k) / pmf(k-1) = 1 / k
    normal = p_km1 >= np.finfo(float).tiny
    denom = 1.0 + 0.5 * math.log(1.0 / p_km1) if normal else 1.0 - 0.5 * log_p
    rhs = 0.5 * lam * p_km1 / denom
    if normal:
        ratio = variance / rhs
    else:
        ratio = 2.0 * low * denom * float(grids.poisson_tail_series(k - 1, lam)) / k
    return {
        "variance": variance,
        "e_dF": -p_km1,  # D F_k = -1{X = k-1}
        "e_dF_abs": p_km1,
        "e_dF_sq": p_km1,
        "denom": denom,
        "talagrand_rhs": rhs,
        "lhs_over_rhs": ratio,
    }


def counterexample_scan(k_hi: int = 50) -> tuple[int, np.ndarray]:
    """Smallest k0 with Var/bound > 1 and increasing on [k0, k_hi]."""
    ratios = np.array(
        [counterexample_fk(k)["lhs_over_rhs"] for k in range(2, k_hi + 1)]
    )
    k0 = None
    for start in range(len(ratios)):
        seg = ratios[start:]
        if np.all(seg > 1.0) and np.all(np.diff(seg) > 0):
            k0 = start + 2
            break
    if k0 is None:
        raise RuntimeError("no admissible k0 found")
    return k0, ratios


def indicator_family(M: int):
    """g(j) = 1{j <= M}: the cumulative family whose L1-L2 denominator diverges."""
    return one_dim_cumulative(lambda j: 1.0 if j <= M else 0.0)


# ------------------------------------------------------ near-optimality scan


def near_optimality_sides(a: float, q: float) -> tuple[float, float]:
    """Reduced two sides of the entropy-power bound at G = exp(-a * count).

    lhs = 1 - a q e^{-a q} - e^{-a q}, the regularized incomplete gamma
    P(2, a q), which keeps its relative precision where a q is small and the
    difference cancels,
    rhs = q^2/(q-1) (1 - e^{-a})(1 - e^{-(q-1) a}).
    Below x = a q = 1e-4, where ``gammainc`` is off by up to 100 ulp, lhs is
    the series x^2/2 - x^3/3 + x^4/8 - x^5/30, within an ulp there.
    """
    if not (a > 0 and q > 1):
        raise ValueError("need a > 0 and q > 1")
    x = a * q
    if x < 1e-4:
        lhs = x * x * (0.5 - x * (1.0 / 3.0 - x * (0.125 - x / 30.0)))
    else:
        lhs = float(gammainc(2.0, x))
    try:
        factor = q**2 / (q - 1.0)
    except OverflowError:  # q above about 1.3e154, where q / (q - 1) is 1
        factor = q / (q - 1.0) * q
    rhs = factor * (-math.expm1(-a)) * (-math.expm1(-(q - 1.0) * a))
    return lhs, rhs


def near_optimality_scan(a_grid, q_grid, gamma: float = 1.0) -> dict:
    """rhs/lhs ratio over the (a, q) grid, plus one engine cross-check.

    The scan asserts nothing by itself; it reports the ratio table, the grid
    minimum, and the exact-engine entropy at one grid point against the
    closed form gamma * exp(gamma (e^{-qa} - 1)) * lhs.
    """
    a_grid = [float(a) for a in a_grid]
    q_grid = [float(q) for q in q_grid]
    ratios = np.empty((len(a_grid), len(q_grid)))
    for ia, a in enumerate(a_grid):
        for iq, q in enumerate(q_grid):
            lhs, rhs = near_optimality_sides(a, q)
            # lhs ~ (aq)^2 / 2 is subnormal, or 0, for a * q below about 2e-154
            if lhs < sys.float_info.min:
                raise NonFiniteValueError(
                    f"near-optimality ratio at a={a!r}, q={q!r}: lhs is "
                    f"{'0' if lhs == 0 else 'subnormal'} in double precision")
            ratios[ia, iq] = rhs / lhs
    a0, q0 = a_grid[len(a_grid) // 2], q_grid[len(q_grid) // 2]
    engine = SemigroupEngine(GroundSpace((gamma,)))
    Gq = Functional(rule=lambda c: math.exp(-a0 * q0 * c[0]), name="exp-neg^q")
    engine_entropy = entropy(engine, Gq)
    lhs0, _ = near_optimality_sides(a0, q0)
    closed_entropy = gamma * math.exp(gamma * math.expm1(-q0 * a0)) * lhs0
    return {
        "a_grid": a_grid,
        "q_grid": q_grid,
        "ratios": ratios,
        "min_ratio": float(ratios.min()),
        "crosscheck_point": (a0, q0, gamma),
        "engine_entropy": engine_entropy,
        "closed_form_entropy": closed_entropy,
        "e_gq_closed": math.exp(gamma * math.expm1(-q0 * a0)),
    }


def exponential_functional(a: float) -> Functional:
    """G = exp(-a * eta({x_0})), the near-optimal decreasing functional."""
    return Functional(
        rule=lambda c: math.exp(-a * c[0]),
        name=f"exp_neg({a:g},0)",
        bounded_by=1.0,
    )


def talagrand_crosscheck(engine: SemigroupEngine, M: int) -> dict:
    """Engine-side Talagrand quantities for the indicator cumulative family."""
    lam = engine.space.weights[0]
    F = indicator_family(M)
    return {
        "talagrand_rhs_engine": talagrand_bound(engine, F),
        "comparison": one_dim_bound_comparison(
            lambda j: 1.0 if j <= M else 0.0, lam, engine
        ),
    }
