"""Correctness checks on the runner's report, needing no stored reference.

The generated functionals are additive: ``expsum = sum_i exp(-a_i c_i)`` and
``cumsum = sum_i min(c_i, M_i + 1)``, so under independent Poisson(lam_i)
counts the variance, the energy ``sum_i lam_i E[(D_i F)^2]``, both sides of
the Mecke identity, ``E[F^2]`` and the semigroup action on exponentials have
closed forms. They are computed here from the generator's parameters with
``math`` only, not through the library. Exact records must match them within
the record's own error model (10 * tail_mass * the record's scale, with the
scale recomputed here from the functional's supremum); Monte Carlo records
within ``MC_Z`` standard errors. Only the onedim suite is compared against a
stored report, because that config is fixed.
"""

from __future__ import annotations

import math

#: Monte Carlo sides must lie within this many standard errors of the closed form
MC_Z = 5.0

#: checks with no hypothesis gate: their verdict must never read "violated"
GATE_FREE = {"mecke", "poincare", "modified-lsi", "min-form-lsi",
             "weak-hypercontractivity", "pathwise-lemma", "lsi-failure"}

#: checks whose verdict depends on a sign certificate
GATED = {"entropy-power", "restricted-hypercontractivity", "talagrand",
         "l1-variance", "concentration"}


def parse_report(text: str) -> list[dict]:
    """Report lines -> records with float sides and a params dict."""
    records = []
    for line in text.splitlines():
        fields = dict(part.split("=", 1) for part in line.split(" "))
        params = {}
        if fields["params"] != "-":
            for item in fields["params"].split(","):
                key, _, value = item.partition("=")
                if "=" not in value:  # skips concentration's "t=0.3=tail<=bound" pairs
                    params[key] = value
        records.append({
            "name": fields["name"],
            "params": params,
            "lhs": float(fields["lhs"]),
            "rhs": float(fields["rhs"]),
            "stderr": None if fields["stderr"] == "-" else float(fields["stderr"]),
            "verdict": fields["verdict"],
        })
    return records


def record_key(record: dict) -> str:
    params = record["params"]
    parts = [record["name"], params.get("functional", "-")]
    parts += [f"{k}={params[k]}" for k in ("t", "p", "q") if k in params]
    return " ".join(parts)


# ------------------------------------------------------------ closed forms


def _pmf(lam: float, n: int) -> float:
    return math.exp(-lam) * lam**n / math.factorial(n)


def _exp_moment(lam: float, a: float) -> float:
    """E[exp(-a N)] for N ~ Poisson(lam)."""
    return math.exp(lam * math.expm1(-a))


def _exp_term(lam: float, a: float) -> dict:
    """Moments of f(N) = exp(-a N)."""
    e1, e2 = _exp_moment(lam, a), _exp_moment(lam, 2 * a)
    return {
        "mean": e1,
        "second": e2,
        "energy": math.expm1(-a) ** 2 * e2,  # D f(n) = (e^-a - 1) f(n)
        "n_times": lam * math.exp(-a) * e1,  # E[N f(N)]
        "shifted": math.exp(-a) * e1,  # E[f(N + 1)]
        "sup": 1.0,
    }


def _cum_term(lam: float, cap: int) -> dict:
    """Moments of g(N) = min(N, M + 1) with M = cap."""
    head = [_pmf(lam, n) for n in range(cap + 1)]
    below = sum(head)  # P[N <= M]
    top = cap + 1
    mean = sum(n * p for n, p in enumerate(head)) + top * (1.0 - below)
    second = sum(n * n * p for n, p in enumerate(head)) + top * top * (1.0 - below)
    # E[N g(N)] = lam E[g(N + 1)] by the one-atom Mecke formula
    shifted = sum(min(n + 1, top) * p for n, p in enumerate(head)) + top * (1.0 - below)
    return {
        "mean": mean,
        "second": second,
        "energy": below,  # D g(n) = 1 for n <= M
        "n_times": lam * shifted,
        "shifted": shifted,
        "sup": float(top),
    }


def additive_moments(weights, terms) -> dict:
    """Var, energy, Mecke sides, E[F^2] and sup of F = sum_i f_i(c_i)."""
    means = [t["mean"] for t in terms]
    total_mean = sum(means)
    var = sum(t["second"] - t["mean"] ** 2 for t in terms)
    energy = sum(lam * t["energy"] for lam, t in zip(weights, terms))
    mecke_lhs = sum(t["n_times"] + lam * (total_mean - t["mean"])
                    for lam, t in zip(weights, terms))
    mecke_rhs = sum(lam * (t["shifted"] + total_mean - t["mean"])
                    for lam, t in zip(weights, terms))
    return {
        "variance": var,
        "energy": energy,
        "mecke_lhs": mecke_lhs,
        "mecke_rhs": mecke_rhs,
        "second": var + total_mean**2,
        "sup": sum(t["sup"] for t in terms),
    }


def functional_moments(params: dict) -> dict:
    """Closed forms for the generated ``expsum``/``expdecay`` and ``cumsum`` functionals."""
    weights = params["weights"]
    out = {"expsum": additive_moments(
        weights, [_exp_term(lam, a) for lam, a in zip(weights, params["rates"])])}
    out["expdecay"] = out["expsum"]
    if "caps" in params:
        out["cumsum"] = additive_moments(
            weights, [_cum_term(lam, m) for lam, m in zip(weights, params["caps"])])
    return out


def semigroup_exp_norm(lam: float, a: float, t: float, q: float) -> float:
    """||P_t exp(-a N)||_q: P_t maps r^N to exp((1-e^-t) lam (r-1)) (1 - e^-t (1-r))^N."""
    r = math.exp(-a)
    keep = math.exp(-t)
    scale = math.exp((1.0 - keep) * lam * (r - 1.0))
    rate = 1.0 - keep * (1.0 - r)
    return scale * math.exp(lam * (rate**q - 1.0) / q)


# ---------------------------------------------------------------- checking


def _close(value: float, expected: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol


def check_exact_record(record: dict, params: dict, tail_mass: float,
                       moments: dict) -> list[str]:
    """Problems with one exact-mode record of a generated config ([] if none)."""
    problems = []
    name, func = record["name"], record["params"].get("functional")
    lhs, rhs = record["lhs"], record["rhs"]
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return [f"{name}: non-finite side"]
    if name in GATE_FREE and record["verdict"] == "violated":
        problems.append(f"{name}/{func}: gate-free check reads violated")
    m = moments.get(func)
    if m is None:
        return problems
    mass = 1.0 + sum(params["weights"])
    sup = m["sup"]
    expected = {}
    if name == "poincare":
        tol = 10.0 * tail_mass * sup**2 * mass
        expected = {"lhs": m["variance"], "rhs": m["energy"]}
    elif name == "mecke":
        tol = 10.0 * tail_mass * max(1.0, sup) * mass
        expected = {"lhs": m["mecke_lhs"], "rhs": m["mecke_rhs"]}
    elif name == "restricted-hypercontractivity":
        tol = 10.0 * tail_mass * max(1.0, sup)
        p, t = float(record["params"]["p"]), float(record["params"]["t"])
        if len(params["weights"]) == 1:
            lam, a = params["weights"][0], params["rates"][0]
            # ||F||_p = E[exp(-a p N)]^(1/p): the E exp(-aN) closed form
            expected["rhs"] = _exp_moment(lam, a * p) ** (1.0 / p)
            q = 1.0 + (p - 1.0) * math.exp(t)
            expected["lhs"] = semigroup_exp_norm(lam, a, t, q)
        elif p == 2.0:
            expected["rhs"] = math.sqrt(m["second"])
    for side, value in expected.items():
        if not _close(record[side], value, tol):
            problems.append(
                f"{name}/{func}: {side}={record[side]!r} vs closed form {value!r} (tol {tol:.3g})")
    return problems


def check_mc_record(record: dict, moments: dict) -> list[str]:
    """Problems with one Monte Carlo record: each side within MC_Z stderr."""
    name, func = record["name"], record["params"].get("functional")
    stderr = record["stderr"]
    if stderr is None or not math.isfinite(stderr):
        return [f"{name}/{func}: missing stderr"]
    m = moments[func]
    if name == "mecke":  # lhs is the mean of (left - right) per sample
        expected = {"lhs": 0.0, "rhs": 0.0}
    elif name == "poincare":
        expected = {"lhs": m["variance"], "rhs": m["energy"]}
    else:
        return [f"{name}: unexpected Monte Carlo record"]
    return [
        f"{name}/{func}: {side}={record[side]!r} is more than {MC_Z} stderr from {value!r}"
        for side, value in expected.items()
        if not _close(record[side], value, MC_Z * stderr)
    ]
