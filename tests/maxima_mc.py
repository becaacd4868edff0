"""Monte Carlo cross-check of the maxima example, for the tests only.

Two routes estimate the maxima indicator of ``casestudies.MaximaModel``: the
exact radial reduction and full sampling of the configuration by inverse
transform of ``radial_tail``; the tests hold both to the closed forms.
"""

import numpy as np

from poisson_ou.casestudies import MaximaModel, maxima_closed_forms
from poisson_ou.errors import PreconditionError
from poisson_ou.ground import sample_moments


def _invert_tail(radial_tail, u):
    """Smallest r with radial_tail(r) <= u (bisection; tail is non-increasing)."""
    lo, r_hi = 0.0, 1.0
    while radial_tail(r_hi) > u:
        r_hi *= 2.0
        if r_hi > 1e12:
            raise PreconditionError("radial_tail does not decay")
    hi = r_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if radial_tail(mid) > u:
            lo = mid
        else:
            hi = mid
    return hi


def maxima_monte_carlo(
    model: MaximaModel, n_points_intensity, t, replications, seed
) -> dict:
    """Estimate the maxima example twice and compare with the closed forms.

    Route one uses the exact radial reduction (the outside count is
    Poisson(m)); route two samples the full configuration: a Poisson(n)
    number of radii drawn by inverse transform of the radial tail. Estimates
    carry standard errors; both routes and the closed forms agree within
    combined 4-sigma bands.
    """
    if model.radial_tail is None:
        raise PreconditionError("monte-carlo mode needs a radial_tail")
    tail = model.radial_tail
    probe = np.linspace(0.0, 10.0, 25)
    vals = np.array([tail(r) for r in probe])
    if np.any(np.diff(vals) > 1e-12) or vals[0] > 1.0 + 1e-12:
        raise PreconditionError("radial_tail must be non-increasing with tail(0) <= 1")
    n = float(n_points_intensity)
    m = n * tail(t)
    rng = np.random.default_rng(seed)

    # route 1: radial reduction, outside count ~ Poisson(m)
    outside = rng.poisson(m, size=replications)
    f1 = (outside > 0).astype(float)

    # route 2: full sampling, kappa ~ Poisson(n) radii by inverse transform.
    # The inverse transform r(u) = inf{r : tail(r) <= u} is non-increasing
    # (tested against _invert_tail), so the radius of a sampled point
    # exceeds t exactly when its uniform draw is below tail(t), so only the
    # smallest uniform per replication decides the indicator. One draw for all
    # replications is the same stream as one draw per replication.
    kappa = rng.poisson(n, size=replications)
    u = rng.random(kappa.sum())
    hit = kappa > 0
    f2 = np.zeros(replications)
    f2[hit] = np.minimum.reduceat(u, (np.cumsum(kappa) - kappa)[hit]) < tail(t)

    def _stats(f):
        moments = sample_moments(f)
        # E int (D_z F)^2 lam(dz) = m * P[no point outside]
        return {"mean": moments.mean, "variance": moments.variance,
                "variance_stderr": sample_moments(moments.squared_deviations).stderr,
                "poincare_rhs": m * sample_moments(1.0 - f).mean,
                "poincare_rhs_stderr": m * moments.stderr}

    closed = maxima_closed_forms(MaximaModel(m=m))
    return {
        "m": m,
        "radial_reduction": _stats(f1),
        "full_sampling": _stats(f2),
        "closed_forms": closed,
    }
