"""Fast self-test of the benchmark itself (not part of the library's tests).

Usage (from the root of a checkout): python3 bench/selftest.py

Checks that the generators are deterministic per seed and keep grid-3atom's
grid fixed, that the closed forms in ``checks.py`` match the engine on a
small grid, that the checks reject a wrong report, and that the per-layer
wrappers leave every workload's report unchanged and are fully removed,
that the traced run never runs a config twice, and that the timed run pairs
every pass with one of the frozen copy.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads
from run import checks, workloads
from layers import Tracer


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_generators():
    for name, factory in workloads.WORKLOADS.items():
        first, second = factory(run.ROOT), factory(run.ROOT)
        for index in range(3):
            check(first(7, index) == second(7, index), f"{name}: seed 7 is not reproducible")
        if name != "onedim-suite":
            check(first(7, 0).config != first(8, 0).config, f"{name}: seeds 7 and 8 agree")
            check(first(7, 0).config != first(7, 1).config, f"{name}: passes 0 and 1 agree")


def test_grid_shape_is_fixed():
    from poisson_ou.ground import GroundSpace, TruncatedStateSpace
    from poisson_ou.semigroup import SemigroupEngine

    make = workloads.grid_3atom(run.ROOT)
    for index in range(20):
        config = make(index, index).config
        space = GroundSpace(tuple(config["space"]["weights"]))
        trunc = TruncatedStateSpace.from_tail_mass(space, config["truncation"]["tail_mass"])
        shape = SemigroupEngine(space, trunc).shape
        check(shape == workloads.GRID_PADDED_SHAPE, f"grid-3atom pass {index}: shape {shape}")


def test_closed_forms_match_engine():
    from poisson_ou import dsl, inequalities
    from poisson_ou.ground import GroundSpace, TruncatedStateSpace, check_mecke
    from poisson_ou.semigroup import SemigroupEngine, apply_semigroup, lp_norm, variance

    params = {"weights": [0.3, 0.7], "rates": [0.4, 1.1], "caps": [0, 2]}
    moments = checks.functional_moments(params)
    space = GroundSpace(tuple(params["weights"]))
    engine = SemigroupEngine(space, TruncatedStateSpace.from_tail_mass(space))
    texts = {"expsum": "exp_neg(0.4, 0) + exp_neg(1.1, 1)",
             "cumsum": "cumsum_g(0, 0) + cumsum_g(1, 2)"}
    for name, text in texts.items():
        func = dsl.functional_from_text(text)
        m = moments[name]
        mecke = check_mecke(space, lambda c, i: func(c), trunc=engine.trunc)
        pairs = {
            "variance": (variance(engine, func), m["variance"]),
            "energy": (inequalities.gamma_expectation(engine, func), m["energy"]),
            "mecke lhs": (mecke.lhs, m["mecke_lhs"]),
            "mecke rhs": (mecke.rhs, m["mecke_rhs"]),
            "second moment": (lp_norm(engine, func, 2.0).value ** 2, m["second"]),
        }
        for what, (got, want) in pairs.items():
            check(math.isclose(got, want, rel_tol=1e-9), f"{name} {what}: {got} vs {want}")
    lam, a, t, p = 3.0, 0.3, 0.7, 2.5
    space = GroundSpace((lam,))
    engine = SemigroupEngine(space, TruncatedStateSpace.from_tail_mass(space))
    func = dsl.functional_from_text(f"exp_neg({a}, 0)")
    q = 1.0 + (p - 1.0) * math.exp(t)
    got = lp_norm(engine, apply_semigroup(engine, func, t), q).value
    want = checks.semigroup_exp_norm(lam, a, t, q)
    check(math.isclose(got, want, rel_tol=1e-9), f"||P_t F||_q: {got} vs {want}")


def _pass_report(cli, name, out):
    item = workloads.WORKLOADS[name](run.ROOT)(workloads.DEFAULT_SEED, 0)
    code = cli.run_config(item.config, out)
    return item, code, (out / "report.txt").read_text(encoding="utf-8")


def test_checks_reject_wrong_reports(cli, out):
    for name in workloads.WORKLOADS:
        item, code, text = _pass_report(cli, name, out)
        produced, failed = run.Checker(name)(item, code, text)
        check(failed == 0 and produced > 0, f"{name}: the checks reject a correct report")
        # move one side by more than its tolerance but not enough to flip the verdict
        lines = text.splitlines()
        at = next(k for k, line in enumerate(lines)
                  if line.startswith(("name=poincare", "name=restricted")))
        record = checks.parse_report(lines[at])[0]
        shift = 1e-3 if record["stderr"] is None else 10 * record["stderr"]
        fields = lines[at].split(" ")
        fields[2] = f"lhs={record['lhs'] + shift!r}"
        lines[at] = " ".join(fields)
        _, failed = run.Checker(name)(item, code, "\n".join(lines) + "\n")
        check(failed == 1, f"{name}: a wrong lhs was not caught ({failed} failed)")


def test_wrappers_are_transparent(cli, out):
    from poisson_ou import grids, inequalities
    from poisson_ou.functionals import Functional
    from poisson_ou.ground import TruncatedStateSpace
    from poisson_ou.semigroup import SemigroupEngine

    owners = [(grids, "tabulate_rule"), (inequalities, "check_talagrand"),
              (Functional, "tabulate"), (TruncatedStateSpace, "from_tail_mass"),
              (SemigroupEngine, "__init__")]
    before = [vars(owner)[attr] for owner, attr in owners]
    for name in workloads.WORKLOADS:
        _, _, plain = _pass_report(cli, name, out)
        tracer = Tracer()
        tracer.install()
        try:
            item = workloads.WORKLOADS[name](run.ROOT)(workloads.DEFAULT_SEED, 0)
            tracer.pass_id = 0
            tracer.traced(cli.run_config, "cli.run_config")(item.config, out)
        finally:
            tracer.uninstall()
        traced = (out / "report.txt").read_text(encoding="utf-8")
        check(plain == traced, f"{name}: tracing changed the report")
        calls = tracer.self_times()
        check(calls["cli.run_config"][0] == 1, f"{name}: no top-level span")
        check(tracer.counts["reports.make_report.calls"] > 0, f"{name}: no records counted")
    after = [vars(owner)[attr] for owner, attr in owners]
    check(all(a is b for a, b in zip(before, after)), "uninstall left a wrapper behind")


def test_traced_run_never_repeats_a_config(cli, out):
    plain, traced = set(), set()
    for step in range(50):
        plain_index, traced_index, _ = run.traced_schedule(step)
        plain.add(plain_index)
        traced.add(traced_index)
    check(len(plain) == len(traced) == 50 and not plain & traced,
          "the traced schedule repeats a config index")
    make = workloads.kernel_sweep(run.ROOT)
    check(make(7, 0).config != make(7, 1).config, "kernel-sweep: paired configs agree")
    checker = run.Checker("kernel-sweep")
    tracer, untraced, traced_phase = run.run_traced(cli, make, 7, 0, out, checker)
    traced_ids = {span[4] for span in tracer.spans}
    check(traced_ids == {1} and set(checker.verdicts) == {0, 1},
          f"traced run: traced passes {traced_ids}, checked {sorted(checker.verdicts)}")
    check(untraced.failed == traced_phase.failed == 0 and not checker.problems,
          f"traced run: {checker.problems}")


def test_paired_run(cli, out):
    frozen_cli = run.load_frozen()
    frozen_dir = out / "frozen"
    frozen_dir.mkdir()
    checker = run.Checker("kernel-sweep")
    phase, frozen_times, frozen_records = run.run_paired(
        cli, frozen_cli, workloads.kernel_sweep(run.ROOT), 7, 0, out, frozen_dir, checker)
    check(len(phase.times) == len(frozen_times) == 1 and phase.failed == 0,
          f"paired run: {len(phase.times)} passes, {len(frozen_times)} frozen, "
          f"{checker.problems}")
    check(frozen_records == phase.records > 0,
          f"paired run: {phase.records} records, frozen copy {frozen_records}")


def test_tail_percentile():
    check(run.tail_percentile(list(range(1, 101))) == (90, 90.0), "p90 of 100 samples")
    check(run.tail_percentile(list(range(1, 51))) == (40, 80.0), "tail of 50 samples")


def main() -> int:
    cli = run.load_library()
    test_generators()
    test_grid_shape_is_fixed()
    test_closed_forms_match_engine()
    test_tail_percentile()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        test_checks_reject_wrong_reports(cli, Path(tmp))
        test_wrappers_are_transparent(cli, Path(tmp))
        test_traced_run_never_repeats_a_config(cli, Path(tmp))
        test_paired_run(cli, Path(tmp))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
