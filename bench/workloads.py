"""Seeded input generators for the benchmark workloads.

Each workload turns ``(seed, pass index)`` into one runner config (the JSON
that ``poisson-ou run`` reads); the library only ever sees that config. The
same seed gives the same sequence of configs. The parameters the
closed-form checks in ``checks.py`` need travel beside the config, in
:attr:`Pass.params`, never inside it.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: seed whose gated verdicts are stored in ``reference/verdicts.json``
DEFAULT_SEED = 0

#: golden-ratio step for the low-discrepancy intensity sequence of kernel-sweep
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: kernel-sweep: one atom, intensity range and number of distinct times per pass
SWEEP_LAMBDA = (15.0, 40.0)
SWEEP_TIMES = 10

#: grid-3atom / mc-3atom truncation. At this tail mass each intensity range
#: below maps to one truncation cap (3, 4 and 5), so every generated config
#: has the same interior grid (4, 5, 6) and padded grid (10, 12, 14).
GRID_TAIL_MASS = 1e-6
GRID_LAMBDA = ((0.02, 0.05), (0.06, 0.13), (0.14, 0.25))
GRID_PADDED_SHAPE = (10, 12, 14)

#: mc-3atom: intensities and replications per pass
MC_LAMBDA = (0.5, 2.0)
MC_REPLICATIONS = 1000


@dataclass(frozen=True)
class Pass:
    """One generated input: the runner config plus what the checks need."""

    index: int
    config: dict
    #: generator parameters for closed forms: weights, exp rates, cumsum caps
    params: dict


def _r6(x) -> float:
    """Round to 6 decimals so the DSL text and the closed forms agree exactly."""
    return round(float(x), 6)


def _pass_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def shipped_config(root: Path) -> dict:
    with open(root / "configs" / "onedim_suite.json", encoding="utf-8") as handle:
        return json.load(handle)


def onedim_suite(root: Path):
    config = shipped_config(root)

    def make(seed: int, index: int) -> Pass:
        return Pass(index, copy.deepcopy(config), {})

    return make


def kernel_sweep(root: Path):
    lo, hi = SWEEP_LAMBDA

    def make(seed: int, index: int) -> Pass:
        rng = _pass_rng(seed, index)
        # a seeded offset plus a golden-ratio rotation spreads lambda evenly
        # over the range within every run, so the median pass time does not
        # depend on which intensities a seed happens to draw
        offset = np.random.default_rng(int(seed)).uniform()
        lam = _r6(lo + (hi - lo) * ((offset + index * _GOLDEN) % 1.0))
        a = _r6(rng.uniform(0.05, 0.5))
        p = _r6(rng.uniform(1.5, 3.0))
        times = sorted({_r6(t) for t in rng.uniform(0.05, 2.0, SWEEP_TIMES)})
        cap = int(round(lam))
        config = {
            "space": {"weights": [lam]},
            "truncation": {"tail_mass": 1e-12, "budget": 10**6},
            "engine": {"mode": "exact"},
            "seed": 0,
            "functionals": {
                "expdecay": f"exp_neg({a!r}, 0)",
                "cumulative": f"cumsum_g(0, {cap})",
            },
            "checks": [
                {"check": "restricted-hypercontractivity", "functional": "expdecay",
                 "params": {"t": times, "p": p}},
                {"check": "weak-hypercontractivity", "functional": "cumulative",
                 "params": {"t": times}},
            ],
        }
        return Pass(index, config, {"weights": [lam], "rates": [a], "p": p})

    return make


def _three_atom(rng, lambda_ranges):
    weights = [_r6(rng.uniform(lo, hi)) for lo, hi in lambda_ranges]
    rates = [_r6(x) for x in rng.uniform(0.2, 1.0, 3)]
    caps = [int(x) for x in rng.integers(0, 3, 3)]
    functionals = {
        "expsum": " + ".join(f"exp_neg({a!r}, {i})" for i, a in enumerate(rates)),
        "cumsum": " + ".join(f"cumsum_g({i}, {m})" for i, m in enumerate(caps)),
    }
    return weights, rates, caps, functionals


def grid_3atom(root: Path):
    def make(seed: int, index: int) -> Pass:
        rng = _pass_rng(seed, index)
        weights, rates, caps, functionals = _three_atom(rng, GRID_LAMBDA)
        t = _r6(rng.uniform(0.2, 1.5))
        config = {
            "space": {"weights": weights},
            "truncation": {"tail_mass": GRID_TAIL_MASS, "budget": 10**6},
            "engine": {"mode": "exact"},
            "seed": 0,
            "functionals": functionals,
            "checks": [
                {"check": "mecke", "functional": "expsum"},
                {"check": "poincare", "functional": "expsum"},
                {"check": "poincare", "functional": "cumsum"},
                {"check": "modified-lsi", "functional": "expsum"},
                {"check": "entropy-power", "functional": "expsum", "params": {"q": 2.0}},
                {"check": "restricted-hypercontractivity", "functional": "expsum",
                 "params": {"t": t, "p": 2.0}},
                {"check": "weak-hypercontractivity", "functional": "cumsum",
                 "params": {"t": t}},
                # additive exp_neg: the mixed second difference is 0 up to
                # roundoff, which the sign certificate does not tolerate
                {"check": "talagrand", "functional": "expsum"},
                {"check": "talagrand", "functional": "cumsum"},
                {"check": "l1-variance", "functional": "cumsum"},
                {"check": "concentration", "functional": "expsum",
                 "params": {"thresholds": [[0.05, 0.2]]}},
            ],
        }
        params = {"weights": weights, "rates": rates, "caps": caps, "p": 2.0}
        return Pass(index, config, params)

    return make


def mc_3atom(root: Path):
    def make(seed: int, index: int) -> Pass:
        rng = _pass_rng(seed, index)
        weights, rates, caps, functionals = _three_atom(rng, [MC_LAMBDA] * 3)
        config = {
            "space": {"weights": weights},
            "truncation": {"tail_mass": 1e-12, "budget": 10**6},
            "engine": {"mode": "mc", "replications": MC_REPLICATIONS},
            "seed": int(rng.integers(2**31)),
            "functionals": functionals,
            "checks": [
                {"check": "mecke", "functional": "expsum"},
                {"check": "mecke", "functional": "cumsum"},
                {"check": "poincare", "functional": "expsum"},
                {"check": "poincare", "functional": "cumsum"},
            ],
        }
        return Pass(index, config, {"weights": weights, "rates": rates, "caps": caps})

    return make


#: workload name -> generator factory; the factory takes the checkout root
WORKLOADS = {
    "onedim-suite": onedim_suite,
    "kernel-sweep": kernel_sweep,
    "grid-3atom": grid_3atom,
    "mc-3atom": mc_3atom,
}


def expected_records(config: dict) -> int:
    """Number of report lines a config produces (one per parameter combination)."""
    total = 0
    for item in config.get("checks", []):
        combos = 1
        for value in item.get("params", {}).values():
            if isinstance(value, list):
                combos *= len(value)
        total += combos
    return total
