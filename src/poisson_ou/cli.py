"""Experiment runner: config in, machine-readable report records out.

Usage:
    poisson-ou run <config.json> [--seed S] [--tail-mass T] [--budget B]
                   [--mode exact|mc] [--out DIR]
    poisson-ou list-checks
    poisson-ou example <name> [--out DIR] [key=value ...]

Every check is one ``CheckSpec`` in ``CHECK_CATALOG``: its parameters with
their rules, hypotheses, summary, the engine modes it runs in and its run
function, which takes a config item's whole parameter grid and returns one
report per point (``pathwise-lemma`` evaluates the grid in one masked pass;
the other checks run point by point). The catalog drives ``list-checks``,
config validation (``_check_params``, which also checks example params),
dispatch and the order of the report. A config is validated in full before
any engine work starts.

Exit codes: 0 clean, 1 a check was violated (and nothing else), 2
config/DSL error (a container or setting of the wrong JSON type, unknown
check, example or functional, a functional text that does not parse,
including a dangling '*', a number or constant sum beyond the double range
and an atom index that is not a whole number, missing params, a check that
cannot run in the engine mode, a parameter that the check or example does
not take, that is an empty list, NaN or infinite or that fails its rule,
bad weights or truncation, fewer than 2 Monte Carlo replications, a config
file that cannot be read or is not UTF-8 or nests too deeply), 3 state
budget exceeded (interior or padded grid, a k_max, or more Monte Carlo
replications than the budget), 4 any other library error (a checker
precondition that fails, a non-finite value, a norm or exponential moment
that overflows or underflows, an output directory or file that cannot be
created or written).

Report files are UTF-8, one record per line, fields in fixed order
(name, params sorted by key, lhs, rhs, slack, stderr, verdict, certs, tag),
floats with 17 significant digits, so identical configs and seeds produce
byte-identical reports. Every output file is created anew (``_write_new``).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from . import casestudies, dsl, inequalities
from .errors import BudgetExceededError, PoissonOUError
from .ground import DEFAULT_BUDGET, DEFAULT_REPLICATIONS, DEFAULT_TAIL_MASS
from .ground import GroundSpace, TruncatedStateSpace, check_mecke
from .reports import VIOLATED, InequalityReport
from .semigroup import SemigroupEngine

DEMO_TAG = "intentional-violation-demo"

MODES = ("exact", "mc")
EXACT = ("exact",)


def _is_number(value) -> bool:
    """A JSON number that is a finite double: Python's json also reads NaN,
    Infinity and integers beyond the double range, which are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a double
        return False


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number_rule(test, what):
    """The rule (test of one value, what it must be) for a number passing ``test``."""
    return lambda v: _is_number(v) and test(v), f"a finite number {what}"


def _list_rule(test, what=""):
    """A rule for a non-empty list of numbers that each pass ``test``."""
    return (lambda v: isinstance(v, list) and len(v) > 0
            and all(_is_number(x) and test(x) for x in v),
            f"a non-empty list of finite numbers {what}".rstrip())


_AT_LEAST_0 = _number_rule(lambda v: v >= 0, ">= 0")
_ABOVE_1 = _number_rule(lambda v: v > 1, "> 1")
_K_MAX = (lambda v: _is_number(v) and v >= 1 and float(v).is_integer(), "a positive integer")


@dataclass(frozen=True)
class CheckSpec:
    """One runnable check: ``run(engine, func, grid, bypass)`` gives its reports.

    ``grid`` is a config item's parameter grid, a list of dicts in
    ``_param_grid`` order, and ``run`` returns one report per point, in that
    order. It looks the checker up on its module when called, so wrappers
    installed on ``inequalities.check_*`` or ``cli.check_mecke`` see the call.
    ``rules`` maps each parameter, in ``list-checks`` order, to (test of one
    value, what it must be). ``needs_functional`` is False for the checks
    that run without one.
    """

    name: str
    rules: dict[str, tuple[Callable, str]]
    hypotheses: str
    summary: str
    modes: tuple[str, ...]
    run: Callable
    needs_functional: bool = True


def _each(check):
    """A grid runner that calls ``check(engine, func, params, bypass)`` per point."""
    return lambda e, f, grid, b: [check(e, f, p, b) for p in grid]


def _mecke(engine, func, params, bypass):
    h = func if func is not None else dsl.to_functional(dsl.Expr(1.0, ()))
    return check_mecke(engine, h)


def _pathwise(engine, func, grid, bypass):
    a, b, q = ([p[key] for p in grid] for key in ("a", "b", "q"))
    return inequalities.check_pathwise_lemma(a, b, q)


#: stable catalog of checkers, in report order
CHECK_CATALOG = {spec.name: spec for spec in (
    CheckSpec("mecke", {}, "none",
              "integration-by-parts identity for the point process", MODES, _each(_mecke),
              needs_functional=False),
    CheckSpec("poincare", {}, "none",
              "variance bounded by the expected squared differences", MODES,
              _each(lambda e, f, p, b: inequalities.check_poincare(e, f))),
    CheckSpec("modified-lsi", {}, "F > 0",
              "entropy bound with the difference chain-rule defect", EXACT,
              _each(lambda e, f, p, b: inequalities.check_modified_lsi(e, f))),
    CheckSpec("min-form-lsi", {}, "F > 0",
              "entropy bound with the pointwise minimum integrand", EXACT,
              _each(lambda e, f, p, b: inequalities.check_min_form_lsi(e, f))),
    CheckSpec("pathwise-lemma", {"a": _AT_LEAST_0, "b": _AT_LEAST_0, "q": _ABOVE_1}, "none",
              "pathwise power-difference inequality", MODES, _pathwise,
              needs_functional=False),
    CheckSpec("entropy-power", {"q": _ABOVE_1}, "F >= 0, DF <= 0",
              "entropy of F^q against the bilinear form", EXACT,
              _each(lambda e, f, p, b: inequalities.check_entropy_power(
                  e, f, p["q"], bypass_hypotheses=b))),
    CheckSpec("restricted-hypercontractivity", {"t": _AT_LEAST_0, "p": _ABOVE_1},
              "F >= 0, DF <= 0",
              "norm contraction with growing exponent", EXACT,
              _each(lambda e, f, p, b: inequalities.check_restricted_hypercontractivity(
                  e, f, p["t"], p["p"], bypass_hypotheses=b))),
    CheckSpec("weak-hypercontractivity", {"t": _AT_LEAST_0}, "none (bounded F)",
              "exponential-moment contraction", EXACT,
              _each(lambda e, f, p, b: inequalities.check_weak_hypercontractivity(
                  e, f, p["t"]))),
    CheckSpec("talagrand", {}, "DF >= 0 & D2F <= 0, or both reversed",
              "L1-L2 variance bound", EXACT,
              _each(lambda e, f, p, b: inequalities.check_talagrand(
                  e, f, bypass_hypotheses=b))),
    CheckSpec("l1-variance", {}, "bounded F, same sign hypotheses",
              "L1-only variance bound", EXACT,
              _each(lambda e, f, p, b: inequalities.l1_variance_bound(
                  e, f, bypass_hypotheses=b))),
    CheckSpec("concentration", {"thresholds": _list_rule(lambda x: True)}, "DF <= 0",
              "Gaussian upper tail for the centered functional", EXACT,
              _each(lambda e, f, p, b: inequalities.check_concentration(
                  e, f, p["thresholds"], bypass_hypotheses=b))),
    CheckSpec("lsi-failure", {"k_max": _K_MAX}, "none",
              "divergence of the would-be log-Sobolev constant", MODES,
              _each(lambda e, f, p, b: inequalities.check_lsi_failure(int(p["k_max"]))),
              needs_functional=False),
)}

def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):  # np.float64 too; writes inf, -inf and nan
        return format(x, ".17g")
    return str(x)


def format_report_line(report: InequalityReport) -> str:
    params = ",".join(
        f"{k}={_fmt(v)}" for k, v in sorted(report.parameters.items())
    )
    certs = ";".join(c.brief() for c in report.hypothesis_certificates) or "-"
    fields = [
        f"name={report.name}",
        f"params={params or '-'}",
        f"lhs={_fmt(report.lhs)}",
        f"rhs={_fmt(report.rhs)}",
        f"slack={_fmt(report.slack)}",
        f"stderr={_fmt(report.stderr)}",
        f"verdict={report.verdict}",
        f"certs={certs}",
    ]
    if report.tag:
        fields.append(f"tag={report.tag}")
    return " ".join(fields)


def load_config(path: str) -> dict:
    """The JSON config at ``path``; DslOrConfigError if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise DslOrConfigError(f"cannot read {path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise DslOrConfigError(f"{path} is not UTF-8: {err.reason} at byte {err.start}") from err
    except RecursionError as err:
        raise DslOrConfigError(f"{path} nests too deeply to parse") from err


class OutputError(PoissonOUError):
    """An output directory or file could not be created or written."""


def _write_new(path: Path, text: str):
    """Write ``text`` to ``path`` as a new file, creating its directory.

    Any file already at ``path`` is deleted first, not truncated: on ext4
    (``auto_da_alloc``) closing a file that was truncated, or renamed over
    an old one, starts writeback of its blocks, which costs several times
    the write itself. A symlink at ``path`` is replaced, not followed. A
    crash in between leaves a missing or partial file.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise OutputError(f"cannot write {path}: {err}") from err


def _param_grid(params: dict):
    """Cartesian product over any list-valued parameters, in sorted key order."""
    keys = sorted(params)
    pools = [params[k] if isinstance(params[k], list) else [params[k]] for k in keys]
    for combo in itertools.product(*pools):
        yield dict(zip(keys, combo))


def _check_params(what: str, rules: dict, params: dict, points: list, budget: int):
    """Refuse, for ``what``, a key of ``params`` not in ``rules``, a value at
    one of ``points`` failing its rule, or an empty list (no points); a k_max,
    the Poisson(1) states evaluated, over ``budget`` is BudgetExceededError."""
    unknown = [key for key in params if key not in rules]
    if unknown:
        raise DslOrConfigError(f"{what}: unknown parameter {unknown[0]!r}; "
                               f"known: {', '.join(rules) or '-'}")
    for point in points:
        for key, value in point.items():
            test, must = rules[key]
            if not test(value):
                raise DslOrConfigError(f"{what}: {key} must be {must}, got {value!r}")
            if key == "k_max" and value > budget:
                raise BudgetExceededError(
                    f"{what}: k_max = {value!r} states, over budget {budget}")
    if not points:
        empty = next(key for key, value in params.items() if value == [])
        raise DslOrConfigError(f"{what}: {empty} must not be an empty list")


def _check_shapes(config):
    """Reject containers and settings of the wrong JSON type before any work."""
    def need(ok, what):
        if not ok:
            raise DslOrConfigError(what)

    need(isinstance(config, dict), "the config must be an object")
    for key in ("space", "truncation", "engine", "functionals"):
        need(isinstance(config.get(key, {}), dict), f"{key} must be an object")
    weights = config.get("space", {}).get("weights", [])
    need(isinstance(weights, list) and all(_is_number(w) for w in weights),
         "space.weights must be a list of finite numbers")
    need(all(isinstance(text, str) for text in config.get("functionals", {}).values()),
         "each functional must be a DSL string")
    checks = config.get("checks", [])
    need(isinstance(checks, list) and all(isinstance(item, dict) for item in checks),
         "checks must be a list of objects")
    need(all(isinstance(item.get(key, ""), str) for item in checks
             for key in ("check", "functional")), "check and functional names must be strings")
    need(all(isinstance(item.get("params", {}), dict) for item in checks),
         "the params of a check must be an object")
    need(all(isinstance(item.get("bypass_hypotheses", False), bool) for item in checks),
         "bypass_hypotheses must be true or false")
    need(_is_integer(config.get("engine", {}).get("replications", DEFAULT_REPLICATIONS)),
         "engine.replications must be an integer")
    need(_is_number(config.get("truncation", {}).get("tail_mass", DEFAULT_TAIL_MASS)),
         "truncation.tail_mass must be a number")
    need(_is_integer(config.get("truncation", {}).get("budget", DEFAULT_BUDGET)),
         "truncation.budget must be an integer")
    need(_is_integer(config.get("seed", 0)), "seed must be an integer")


def _resolve(item: dict, functionals: dict, mode: str, budget: int):
    """(spec, functional or None, parameter grid) for one check item;
    DslOrConfigError if it cannot run, BudgetExceededError if it is over
    the state budget."""
    check = item["check"]
    if check not in CHECK_CATALOG:
        raise DslOrConfigError(f"unknown check {check!r}")
    spec = CHECK_CATALOG[check]
    func = None
    if "functional" in item:
        if item["functional"] not in functionals:
            raise DslOrConfigError(f"functional {item['functional']!r} is not defined")
        func = functionals[item["functional"]]
    elif spec.needs_functional:
        raise DslOrConfigError(f"check {check!r} needs a functional")
    params = item.get("params", {})
    missing = [p for p in spec.rules if p not in params]
    if missing:
        raise DslOrConfigError(f"check {check!r} is missing params {missing}")
    if mode not in spec.modes:
        raise DslOrConfigError(
            f"check {check!r} cannot run in mode {mode!r} (modes: {','.join(spec.modes)})"
        )
    grid = list(_param_grid(params))
    _check_params(f"check {check!r}", spec.rules, params, grid, budget)
    return spec, func, grid


def _check_atoms(functionals: dict, atom_count: int):
    """Reject a functional that reads an atom the space does not have."""
    for name, func in functionals.items():
        beyond = [a for a in func.batch.axes if a >= atom_count]
        if beyond:
            raise DslOrConfigError(
                f"functional {name!r} reads atom {max(beyond)}, "
                f"but the space has {atom_count} atom(s)"
            )


def _build_engine(config: dict, mode: str, functionals: dict) -> SemigroupEngine:
    trunc_cfg = config.get("truncation", {})
    engine_cfg = config.get("engine", {})
    try:
        space = GroundSpace(tuple(config["space"]["weights"]))
        _check_atoms(functionals, space.atom_count)
        trunc = TruncatedStateSpace.from_tail_mass(
            space,
            tail_mass=float(trunc_cfg.get("tail_mass", DEFAULT_TAIL_MASS)),
            budget=trunc_cfg.get("budget", DEFAULT_BUDGET),
        )
        return SemigroupEngine(
            space,
            trunc,
            mode=mode,
            replications=engine_cfg.get("replications", DEFAULT_REPLICATIONS),
            seed=config.get("seed", 0),
        )
    except ValueError as err:
        raise DslOrConfigError(str(err)) from err


def run_config(config: dict, out_dir: Path) -> int:
    """Validate every check item, then build the engine and run the checks.

    Returns the process exit code.
    """
    _check_shapes(config)
    mode = config.get("engine", {}).get("mode", "exact")
    functionals = {
        name: dsl.functional_from_text(text, name=name)
        for name, text in config.get("functionals", {}).items()
    }
    items = config.get("checks", [])
    budget = config.get("truncation", {}).get("budget", DEFAULT_BUDGET)
    resolved = [_resolve(item, functionals, mode, budget) for item in items]
    engine = _build_engine(config, mode, functionals)
    catalog_order = list(CHECK_CATALOG)
    records = []
    for item, (spec, func, grid) in zip(items, resolved):
        for report in spec.run(engine, func, grid, item.get("bypass_hypotheses", False)):
            report.parameters.setdefault("functional", item.get("functional", "-"))
            report.tag = item.get("tag")
            line = format_report_line(report)
            records.append((catalog_order.index(spec.name), line, report))
    records.sort(key=lambda record: record[:2])
    _write_new(out_dir / "report.txt", "".join(line + "\n" for _, line, _ in records))
    genuine_violation = any(
        r.verdict == VIOLATED and r.tag != DEMO_TAG for _, _, r in records
    )
    return 1 if genuine_violation else 0


class DslOrConfigError(ValueError):
    pass


def list_checks() -> str:
    return "\n".join(
        f"{spec.name} params={','.join(spec.rules) or '-'} "
        f"modes={','.join(spec.modes)} hypotheses={spec.hypotheses} :: {spec.summary}"
        for spec in CHECK_CATALOG.values()
    )


# ------------------------------------------------------------------ examples


def _write_csv(path: Path, header, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_new(path, text.getvalue())


def _maxima_rows(params):
    for m in params.get("m_grid", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]):
        forms = casestudies.maxima_closed_forms(casestudies.MaximaModel(m=float(m)))
        yield [float(m), forms["variance"], forms["poincare_rhs"],
               forms["talagrand_rhs"], forms["log_norm_ratio"]]


def _onedim_rows(params):
    M = float(params.get("M", 1))
    for lam in params.get("lambda_grid", [1.0, 5.0, 10.0, 20.0]):
        rec = casestudies.one_dim_bound_comparison(
            lambda j: 1.0 if j <= M else 0.0, float(lam)
        )
        yield [float(lam), rec["variance"], rec["poincare_rhs"], rec["talagrand_rhs"],
               rec["g_norm_l1"], rec["log_norm_ratio"]]


def _counterexample_rows(params):
    for k in range(2, int(params.get("k_max", 50)) + 1):
        rec = casestudies.counterexample_fk(k)
        yield [k, rec["variance"], rec["e_dF_sq"], rec["denom"], rec["talagrand_rhs"],
               rec["lhs_over_rhs"]]


def _near_optimality_rows(params):
    scan = casestudies.near_optimality_scan(
        params.get("a_grid", [0.05, 0.1, 0.5, 1.0, 2.0, 3.0]),
        params.get("q_grid", [1.05, 1.5, 2.0, 3.0, 4.0]),
        float(params.get("gamma", 1.0)),
    )
    for ia, a in enumerate(scan["a_grid"]):
        for iq, q in enumerate(scan["q_grid"]):
            yield [a, q, float(scan["ratios"][ia, iq])]


#: example name -> (CSV file, header, rows(params), parameter rules); cells
#: are formatted by _fmt, and each rule is (test of a value, what it must be)
EXAMPLES = {
    "maxima": ("maxima.csv", ("m", "variance", "poincare_rhs", "talagrand_rhs",
                              "log_norm_ratio"), _maxima_rows,
               {"m_grid": _list_rule(lambda x: x > 0, "> 0")}),
    "onedim": ("onedim.csv", ("lambda", "variance", "poincare_rhs", "talagrand_rhs",
                              "g_norm_l1", "log_norm_ratio"), _onedim_rows,
               {"M": (_is_number, "a finite number"),
                "lambda_grid": _list_rule(lambda x: x > 0, "> 0")}),
    "counterexample_fk": ("counterexample_fk.csv", ("k", "variance", "e_dF_sq", "denom",
                                                    "talagrand_rhs", "lhs_over_rhs"),
                          _counterexample_rows, {"k_max": _K_MAX}),
    "near_optimality": ("near_optimality.csv", ("a", "q", "rhs_over_lhs"),
                        _near_optimality_rows,
                        {"a_grid": _list_rule(lambda x: x > 0, "> 0"),
                         "q_grid": _list_rule(lambda x: x > 1, "> 1"),
                         "gamma": _number_rule(lambda v: v > 0, "> 0")}),
}


def run_example(name: str, params: dict, out_dir: Path) -> int:
    """Validate the example's parameters, then write its CSV; returns the exit code."""
    if name not in EXAMPLES:
        raise DslOrConfigError(f"unknown example {name!r}; choose from {tuple(EXAMPLES)}")
    csv_name, header, make_rows, rules = EXAMPLES[name]
    _check_params(f"example {name!r}", rules, params, [params], DEFAULT_BUDGET)
    rows = [[_fmt(x) for x in row] for row in make_rows(params)]
    _write_csv(out_dir / csv_name, header, rows)
    return 0


# ----------------------------------------------------------------- arg parse


def _parse_kv(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise DslOrConfigError(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def build_parser():
    parser = argparse.ArgumentParser(prog="poisson-ou")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the checks in a config file")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--tail-mass", type=float)
    run_p.add_argument("--budget", type=int)
    run_p.add_argument("--mode", choices=["exact", "mc"])
    run_p.add_argument("--out", default="reports")

    sub.add_parser("list-checks", help="print the checker catalog")

    ex_p = sub.add_parser("example", help="run a worked example, emit CSV")
    ex_p.add_argument("name")
    ex_p.add_argument("params", nargs="*", help="key=value overrides")
    ex_p.add_argument("--out", default="reports")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-checks":
            print(list_checks())
            return 0
        if args.command == "example":
            return run_example(args.name, _parse_kv(args.params), Path(args.out))
        try:
            config = load_config(args.config)
        except json.JSONDecodeError as err:
            print(f"config parse error: line {err.lineno}, column {err.colno}: "
                  f"{err.msg}", file=sys.stderr)
            return 2
        _check_shapes(config)  # before the overrides write into it
        if args.seed is not None:
            config["seed"] = args.seed
        if args.tail_mass is not None:
            config.setdefault("truncation", {})["tail_mass"] = args.tail_mass
        if args.budget is not None:
            config.setdefault("truncation", {})["budget"] = args.budget
        if args.mode is not None:
            config.setdefault("engine", {})["mode"] = args.mode
        return run_config(config, Path(args.out))
    except (dsl.DslError, DslOrConfigError, KeyError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 3
    except PoissonOUError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
