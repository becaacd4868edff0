"""Experiment runner: exit codes, report format, determinism, examples."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from poisson_ou import (GroundSpace, SemigroupEngine, TruncatedStateSpace, cli, inequalities,
                        semigroup)
from poisson_ou.cli import (
    CHECK_CATALOG,
    DEMO_TAG,
    build_parser,
    format_report_line,
    list_checks,
    load_config,
    main,
)
from poisson_ou.dsl import BUILTINS
from poisson_ou.reports import HOLDS, HOLDS_STAT, VIOLATED, make_report

ROOT = Path(__file__).resolve().parents[1]
REPO_CONFIG = ROOT / "configs" / "onedim_suite.json"
REFERENCE_REPORT = ROOT / "bench" / "reference" / "onedim_suite.report.txt"
DATA = ROOT / "tests" / "data"


def base_config(**overrides):
    config = {
        "space": {"weights": [1.0]},
        "truncation": {"tail_mass": 1e-12, "budget": 1_000_000},
        "engine": {"mode": "exact"},
        "seed": 0,
        "functionals": {"f": "exp_neg(0.5, 0)"},
        "checks": [{"check": "poincare", "functional": "f"}],
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestCatalog:
    def test_matches_checker_set(self):
        expected = {
            "mecke", "poincare", "modified-lsi", "min-form-lsi",
            "pathwise-lemma", "entropy-power", "restricted-hypercontractivity",
            "weak-hypercontractivity", "talagrand", "l1-variance",
            "concentration", "lsi-failure",
        }
        assert set(CHECK_CATALOG) == expected

    def test_serialization_stable(self):
        assert list_checks() == list_checks()

    def test_every_entry_names_hypotheses(self):
        for line in list_checks().splitlines():
            assert "hypotheses=" in line and "params=" in line

    def test_lists_modes(self):
        lines = dict(line.split(" ", 1) for line in list_checks().splitlines())
        assert "modes=exact,mc " in lines["poincare"]
        assert "modes=exact " in lines["talagrand"]


#: one item per catalog entry, all on one decreasing, convex functional
EVERY_CHECK = [
    {"check": "mecke", "functional": "f"},
    {"check": "poincare", "functional": "f"},
    {"check": "modified-lsi", "functional": "f"},
    {"check": "min-form-lsi", "functional": "f"},
    {"check": "pathwise-lemma", "params": {"a": 2.0, "b": 1.0, "q": 2.0}},
    {"check": "entropy-power", "functional": "f", "params": {"q": 2.0}},
    {"check": "restricted-hypercontractivity", "functional": "f",
     "params": {"t": 0.5, "p": 2.0}},
    {"check": "weak-hypercontractivity", "functional": "f", "params": {"t": 0.5}},
    {"check": "talagrand", "functional": "f"},
    {"check": "l1-variance", "functional": "f"},
    {"check": "concentration", "functional": "f", "params": {"thresholds": [[0.3]]}},
    {"check": "lsi-failure", "params": {"k_max": 10}},
]

#: every checker the catalog dispatches to, by module attribute
DISPATCHED = [(inequalities, name) for name in (
    "check_poincare", "check_modified_lsi", "check_min_form_lsi",
    "check_pathwise_lemma", "check_entropy_power",
    "check_restricted_hypercontractivity", "check_weak_hypercontractivity",
    "check_talagrand", "l1_variance_bound", "check_concentration",
    "check_lsi_failure",
)] + [(cli, "check_mecke")]


def spy_on(monkeypatch, targets):
    """Wrap each module attribute so that its calls are counted."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        original = getattr(module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


class TestDispatch:
    def test_every_entry_reaches_its_checker(self, tmp_path, monkeypatch):
        assert [item["check"] for item in EVERY_CHECK] == list(CHECK_CATALOG)
        calls = spy_on(monkeypatch, DISPATCHED)
        path = write_config(tmp_path, base_config(checks=EVERY_CHECK))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls == {name: 1 for _, name in DISPATCHED}
        lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert [line.split(" ", 1)[0] for line in lines] == [
            f"name={check}" for check in CHECK_CATALOG
        ]

    def test_pathwise_grid_is_one_call(self, tmp_path, monkeypatch):
        # ints, b = 0 and the log regime, so that each report's own params
        # and sides show
        params = {"a": [2, 1e300], "b": [0.0, 1.0], "q": [1.5, 3]}
        points = list(cli._param_grid(params))
        assert len(points) == 8
        calls = spy_on(monkeypatch, [(inequalities, "check_pathwise_lemma")])
        grid = write_config(tmp_path, base_config(checks=[
            {"check": "pathwise-lemma", "params": params}]), name="grid.json")
        assert main(["run", str(grid), "--out", str(tmp_path / "grid")]) == 0
        assert calls == {"check_pathwise_lemma": 1}
        single = write_config(tmp_path, base_config(checks=[
            {"check": "pathwise-lemma", "params": p} for p in points]), name="single.json")
        assert main(["run", str(single), "--out", str(tmp_path / "single")]) == 0
        assert calls == {"check_pathwise_lemma": 9}
        report = (tmp_path / "grid" / "report.txt").read_text(encoding="utf-8")
        assert "log_scale=True" in report and "a=2," in report and "q=3 " in report
        assert report == (tmp_path / "single" / "report.txt").read_text(encoding="utf-8")


class TestBenchmarkNames:
    def test_tracer_and_space_form_mecke(self, monkeypatch):
        # bench/layers.py wraps library names in place (a missing one raises
        # KeyError there) and bench/selftest.py calls the space form of
        # check_mecke; the benchmark itself is not part of this suite
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import checks
        from layers import Tracer

        from poisson_ou import dsl, ground

        params = {"weights": [0.3, 0.7], "rates": [0.4, 1.1]}
        space = GroundSpace(tuple(params["weights"]))
        trunc = TruncatedStateSpace.from_tail_mass(space)
        F = dsl.functional_from_text("exp_neg(0.4, 0) + exp_neg(1.1, 1)")
        tracer = Tracer()
        tracer.install()
        try:
            mecke = ground.check_mecke(space, lambda c, i: F(c), trunc=trunc)
        finally:
            tracer.uninstall()
        assert cli.check_mecke is ground.check_mecke
        moments = checks.functional_moments(params)["expsum"]
        assert math.isclose(mecke.lhs, moments["mecke_lhs"], rel_tol=1e-9)
        assert math.isclose(mecke.rhs, moments["mecke_rhs"], rel_tol=1e-9)

    def test_bench_selftest_passes(self):
        # the benchmark's own self-test pins more runner names (check_mecke,
        # format_report_line, make_report, the call-time checker lookup)
        done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout == "selftest passed\n"


class TestExitCodes:
    def test_empty_check_list(self, tmp_path):
        path = write_config(tmp_path, base_config(checks=[]))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
        assert report == ""

    def test_clean_run(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_violation_flips_exit(self, tmp_path):
        config = base_config(
            functionals={"g": "count(0)"},
            checks=[{
                "check": "concentration", "functional": "g",
                "params": {"thresholds": [[5.0]]}, "bypass_hypotheses": True,
            }],
        )
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_tagged_violation_does_not_flip_exit(self, tmp_path):
        config = base_config(
            functionals={"g": "count(0)"},
            checks=[{
                "check": "concentration", "functional": "g",
                "params": {"thresholds": [[5.0]]}, "bypass_hypotheses": True,
                "tag": DEMO_TAG,
            }],
        )
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
        assert "verdict=violated" in report and f"tag={DEMO_TAG}" in report

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"space": [', encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_malformed_dsl_exits_2(self, tmp_path, capsys):
        config = base_config(functionals={"f": "count(0) **"})
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize("text,message", [
        ("2*", "line 1, column 3: unexpected end of input"),
        ("count(1e400)", "line 1, column 7: expected a finite double, found '1e400'"),
        ("count(0.5)", "line 1, column 7: expected a whole atom index, found '0.5'"),
    ])
    def test_malformed_dsl_prints_one_line(self, tmp_path, capsys, text, message):
        path = write_config(tmp_path, base_config(functionals={"f": text}))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_functional_exits_2(self, tmp_path):
        config = base_config(checks=[{"check": "poincare", "functional": "nope"}])
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_missing_params_exits_2(self, tmp_path):
        config = base_config(checks=[{"check": "pathwise-lemma"}])
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_exact_only_check_in_mc_mode_exits_2_before_compute(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = spy_on(monkeypatch, DISPATCHED)
        out = tmp_path / "out"
        assert main(["run", str(REPO_CONFIG), "--mode", "mc", "--out", str(out)]) == 2
        assert "'modified-lsi'" in capsys.readouterr().err
        assert not any(calls.values())
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("tail", ["0", "1.5", "nan"])
    def test_bad_tail_mass_exits_2(self, tmp_path, capsys, tail):
        path = write_config(tmp_path, base_config())
        argv = ["run", str(path), "--tail-mass", tail, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "tail_mass" in capsys.readouterr().err

    def test_tiny_tail_mass_runs(self, tmp_path):
        path = write_config(tmp_path, base_config())
        argv = ["run", str(path), "--tail-mass", "1e-18", "--out", str(tmp_path / "out")]
        assert main(argv) == 0

    def test_zero_weight_exits_2(self, tmp_path):
        path = write_config(tmp_path, base_config(space={"weights": [0]}))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_missing_functional_exits_2_before_compute(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = spy_on(monkeypatch, DISPATCHED)
        path = write_config(tmp_path, base_config(checks=[{"check": "poincare"}]))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "'poincare' needs a functional" in capsys.readouterr().err
        assert not any(calls.values())
        assert not (out / "report.txt").exists()

    def test_checks_without_functional_still_run(self, tmp_path):
        config = base_config(checks=[
            {"check": "mecke"},
            {"check": "pathwise-lemma", "params": {"a": 2.0, "b": 1.0, "q": 2.0}},
            {"check": "lsi-failure", "params": {"k_max": 10}},
        ])
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len((tmp_path / "out" / "report.txt").read_text().splitlines()) == 3

    @pytest.mark.parametrize("item", [
        {"check": "entropy-power", "functional": "f", "params": {"q": 0.5}},
        {"check": "entropy-power", "functional": "f", "params": {"q": [2.0, 1.0]}},
        {"check": "restricted-hypercontractivity", "functional": "f",
         "params": {"t": -1, "p": 2.0}},
        {"check": "restricted-hypercontractivity", "functional": "f",
         "params": {"t": [0.5, 1.0], "p": 1.0}},
        {"check": "weak-hypercontractivity", "functional": "f", "params": {"t": -0.5}},
        {"check": "weak-hypercontractivity", "functional": "f", "params": {"t": "soon"}},
        {"check": "pathwise-lemma", "params": {"a": -1.0, "b": 1.0, "q": 2.0}},
        {"check": "pathwise-lemma", "params": {"a": 1.0, "b": [1.0, -2.0], "q": 2.0}},
        {"check": "pathwise-lemma", "params": {"a": 1.0, "b": 1.0, "q": 0.9}},
        {"check": "lsi-failure", "params": {"k_max": 0}},
        {"check": "lsi-failure", "params": {"k_max": 2.5}},
        {"check": "lsi-failure", "params": {"k_max": True}},
        # Python's json reads NaN, Infinity and integers beyond a double
        {"check": "pathwise-lemma", "params": {"a": math.inf, "b": 1.0, "q": 2.0}},
        {"check": "pathwise-lemma", "params": {"a": 2.0, "b": 1.0, "q": math.inf}},
        {"check": "concentration", "functional": "f", "params": {"thresholds": [[math.nan]]}},
        {"check": "weak-hypercontractivity", "functional": "f", "params": {"t": math.inf}},
        {"check": "restricted-hypercontractivity", "functional": "f",
         "params": {"t": math.nan, "p": 2.0}},
        {"check": "entropy-power", "functional": "f", "params": {"q": -math.inf}},
        {"check": "lsi-failure", "params": {"k_max": 10**400}},
        # a key the check does not take, and an empty list, which leaves no point
        {"check": "poincare", "functional": "f", "params": {"x": [1, 2, 3]}},
        {"check": "pathwise-lemma", "params": {"a": 1, "b": 2, "q": 2, "c": 1}},
        {"check": "weak-hypercontractivity", "functional": "f", "params": {"t": []}},
        {"check": "restricted-hypercontractivity", "functional": "f",
         "params": {"t": 0.5, "p": []}},
        {"check": "concentration", "functional": "f", "params": {"thresholds": []}},
    ], ids=lambda item: f"{item['check']}-{item['params']}"[:80])
    def test_bad_checker_argument_exits_2_before_compute(
        self, tmp_path, monkeypatch, capsys, item
    ):
        calls = spy_on(monkeypatch, DISPATCHED)
        checks = [{"check": "poincare", "functional": "f"}, item]
        path = write_config(tmp_path, base_config(checks=checks))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: check {item['check']!r}: ")
        assert any(f": {key} " in err[0] or f"{key!r}" in err[0] for key in item["params"])
        assert not any(calls.values())
        assert not (out / "report.txt").exists()

    def test_atom_out_of_range_exits_2_before_engine(self, tmp_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "SemigroupEngine", lambda *a, **k: built.append(a))
        config = base_config(functionals={"far": "exp_neg(0.5, 3)"},
                             checks=[{"check": "poincare", "functional": "far"}])
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'far' reads atom 3" in err and "1 atom(s)" in err
        assert not built
        assert not (out / "report.txt").exists()

    def test_budget_exceeded_exits_3(self, tmp_path):
        config = base_config(space={"weights": [50.0] * 4},
                             truncation={"budget": 100})
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("budget,k_max", [(1_000_000, 1e300), (200, 201)])
    def test_lsi_failure_k_max_over_budget_exits_3_before_engine(
        self, tmp_path, monkeypatch, capsys, budget, k_max
    ):
        # k_max is the number of Poisson(1) states lsi_failure_ratios allocates
        built = []
        monkeypatch.setattr(cli, "SemigroupEngine", lambda *a, **k: built.append(a))
        calls = spy_on(monkeypatch, DISPATCHED)
        config = base_config(truncation={"tail_mass": 1e-12, "budget": budget},
                             checks=[{"check": "lsi-failure", "params": {"k_max": k_max}}])
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("budget exceeded: check 'lsi-failure': k_max = ")
        assert not built and not any(calls.values())
        assert not (out / "report.txt").exists()

    def test_lsi_failure_k_max_at_budget_runs(self, tmp_path):
        config = base_config(truncation={"tail_mass": 1e-12, "budget": 200},
                             checks=[{"check": "lsi-failure", "params": {"k_max": 200}}])
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        assert "k_max=200," in (out / "report.txt").read_text()

    def test_padded_grid_over_budget_exits_3(self, tmp_path, monkeypatch, capsys):
        weights = [1.0, 1.0, 1.0]
        space = GroundSpace(tuple(weights))
        trunc = TruncatedStateSpace.from_tail_mass(space, tail_mass=1e-12)
        interior, padded = trunc.state_count(), math.prod(SemigroupEngine(space, trunc).shape)
        budget = (interior + padded) // 2
        assert interior < budget < padded
        calls = spy_on(monkeypatch, DISPATCHED)
        config = base_config(space={"weights": weights},
                             truncation={"tail_mass": 1e-12, "budget": budget})
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{padded} states ({interior} interior)" in err
        assert not any(calls.values())
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("replications", [0, 1])
    def test_mc_replications_below_2_exit_2(
        self, tmp_path, monkeypatch, capsys, replications
    ):
        calls = spy_on(monkeypatch, DISPATCHED)
        config = base_config(engine={"mode": "mc", "replications": replications})
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
        assert "at least 2 replications" in capsys.readouterr().err
        assert not any(calls.values())
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("replications,budget,code", [
        (10**12, 1_000_000, 3), (1001, 1000, 3), (1000, 1000, 0)])
    def test_mc_replications_over_budget_exit_3_before_sampling(
        self, tmp_path, monkeypatch, capsys, replications, budget, code
    ):
        drawn = []
        draw = semigroup.sample_configurations
        monkeypatch.setattr(semigroup, "sample_configurations",
                            lambda *args: drawn.append(args) or draw(*args))
        config = base_config(engine={"mode": "mc", "replications": replications},
                             truncation={"tail_mass": 1e-12, "budget": budget})
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 3:
            assert err == [f"budget exceeded: {replications} replications, over budget {budget}"]
            assert not drawn and not (out / "report.txt").exists()
        else:
            assert err == [] and len(drawn) == 1

    @pytest.mark.parametrize("overrides", [
        {"checks": [{"check": "concentration", "functional": "f",
                     "params": {"thresholds": [["a"]]}}]},
        {"checks": [{"check": "concentration", "functional": "f",
                     "params": {"thresholds": 0.5}}]},
        {"checks": [{"check": "concentration", "functional": "f",
                     "params": {"thresholds": [[]]}}]},
        {"engine": {"mode": "mc"}, "seed": "abc"},
        {"engine": {"mode": "mc", "replications": 2.5}},
        {"truncation": {"tail_mass": 1e-12, "budget": 2.5}},
        {"truncation": {"tail_mass": [1e-12]}},
        {"truncation": {"tail_mass": None}},
        {"truncation": {"tail_mass": True}},
        {"truncation": {"tail_mass": "abc"}},
        {"truncation": {"tail_mass": 10**400}},
        {"functionals": {"f": 5}},
        {"checks": [{"check": "poincare", "functional": "f", "params": [1.0]}]},
        {"checks": {"check": "poincare", "functional": "f"}},
        {"checks": ["poincare"]},
        {"space": {"weights": 1.0}},
        {"space": {"weights": [10**400]}},
        {"engine": "mc"},
        {"checks": [{"check": ["poincare"], "functional": "f"}]},
        {"checks": [{"check": "talagrand", "functional": "f", "bypass_hypotheses": "no"}]},
        {"checks": [{"check": "nope", "functional": "f"}]},
    ], ids=lambda overrides: json.dumps(overrides))
    def test_bad_config_shape_exits_2(self, tmp_path, capsys, overrides):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(**overrides))
        assert main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("config,flag", [
        ([], ["--seed", "1"]),
        ({"truncation": 5}, ["--tail-mass", "1e-9"]),
        ({"truncation": "x"}, ["--budget", "10"]),
        ({"engine": []}, ["--mode", "mc"]),
    ], ids=lambda value: json.dumps(value))
    def test_override_on_a_bad_config_shape_exits_2(self, tmp_path, capsys, config, flag):
        # the flags write into the config, so its shape is checked first
        out = tmp_path / "out"
        path = write_config(tmp_path, config)
        assert main(["run", str(path), *flag, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_huge_concentration_threshold(self, tmp_path, capsys):
        # t * t overflows to inf, so the Gaussian bound is 0; t**2 raised
        config = base_config(checks=[{"check": "concentration", "functional": "f",
                                      "params": {"thresholds": [[1e200]]}}])
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert "t=1e+200=0<=0" in (out / "report.txt").read_text()

    def test_library_error_exits_4(self, tmp_path, capsys):
        # F = count(0) is 0 at the empty configuration: a failed precondition,
        # not a violation of the inequality
        config = base_config(functionals={"g": "count(0)"},
                             checks=[{"check": "modified-lsi", "functional": "g"}])
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: modified LSI needs F > 0")
        assert "Traceback" not in err
        assert not (out / "report.txt").exists()

    def test_overflow_names_the_state_and_nothing_else(self, tmp_path, capsys):
        config = base_config(space={"weights": [1.0, 10.0]},
                             functionals={"f": "1e308 * count(0) + 4e306 * count(1)"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(write_config(tmp_path, config)),
                         "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == "error: f is non-finite at (0, 45)\n"


def lemma_at(a, b, q):
    return base_config(checks=[{"check": "pathwise-lemma", "params": {"a": a, "b": b, "q": q}}])


#: finite everywhere, but its square (and so its variance) overflows a double
HUGE = {"f": "1e308 * indicator_le(0, 50)"}
HUGE_SCALE = {"f": "1e200 * indicator_le(0, 50)"}

#: configs whose values leave the double range, with the exit code each must give
OVERFLOW_RUNS = {
    # b^q overflows though q log(a/b) is about 6.9; the sides are beyond doubles
    "lemma-b^q": (lemma_at(1e300, 1e299, 3.0), 0),
    # b^q overflows and multiplies a zero difference
    "lemma-a=b": (lemma_at(1e200, 1e200, 2.0), 0),
    # b^q overflows, but lhs is about 4e300, a double
    "lemma-finite-lhs": (lemma_at(1e160 * (1 + 1e-10), 1e160, 2.0), 0),
    "poincare-exact": (base_config(functionals=HUGE), 4),
    "mecke-mc": (base_config(engine={"mode": "mc"}, functionals=HUGE,
                             checks=[{"check": "mecke", "functional": "f"}]), 4),
    # the constant 1e200 on the padded grid: variance 0, but the tolerance
    # scale sup|F|^2 is beyond doubles
    "poincare-scale": (base_config(functionals=HUGE_SCALE), 4),
    "talagrand-scale": (base_config(functionals=HUGE_SCALE,
                                    checks=[{"check": "talagrand", "functional": "f"}]), 4),
    # exp(max|F|) = e^800 is beyond doubles
    "weak-hypercontractivity-scale": (base_config(
        functionals={"f": "800 * indicator_le(0, 50)"},
        checks=[{"check": "weak-hypercontractivity", "functional": "f",
                 "params": {"t": 0.5}}]), 4),
    # exp(max|F|) = e^700 is a double, but exp(e^t P_t F) is not
    "weak-hypercontractivity-sides": (base_config(
        functionals={"f": "700 * indicator_le(0, 50)"},
        checks=[{"check": "weak-hypercontractivity", "functional": "f",
                 "params": {"t": 0.5}}]), 4),
    # ||P_t F||_q(t) with q(t) = 1 + e^0.5: its moment E|P_t F|^q(t) overflows
    "restricted-hypercontractivity-moment": (base_config(
        functionals={"f": "1e300 * indicator_le(0, 50)"},
        checks=[{"check": "restricted-hypercontractivity", "functional": "f",
                 "params": {"t": 0.5, "p": 2}}]), 4),
    # G^q overflows, and with it the tolerance scale max(G)^q
    "entropy-power-scale": (base_config(
        functionals={"f": "1e200 * indicator_le(0, 50)"},
        checks=[{"check": "entropy-power", "functional": "f", "params": {"q": 2}}]), 4),
    # finite differences whose squares, and so whose stderr, overflow
    "mecke-mc-stderr": (base_config(
        engine={"mode": "mc"}, functionals={"f": "1e300 * indicator_le(0, 50)"},
        checks=[{"check": "mecke", "functional": "f"}]), 4),
    # D F squared in alpha^2 overflows; the bound exp(-t^2 / 2 alpha^2) read 1
    "concentration-alpha": (base_config(
        space={"weights": [1.3138]}, functionals={"f": "-1.349e+217 * count(0)"},
        checks=[{"check": "concentration", "functional": "f",
                 "params": {"thresholds": [[0.5]]}}]), 4),
    # F - E F leaves the double range beyond the caps (F is 1e308 up to
    # c = 20 and -1e308 above); it still compares with each threshold
    "concentration-centered": (base_config(
        functionals={"f": "1e308 * indicator_le(0, 20) - 1e308 * indicator_le(0, 1000000) "
                          "+ 1e308 * indicator_le(0, 20)"},
        checks=[{"check": "concentration", "functional": "f",
                 "params": {"thresholds": [[0.5]]}}]), 0),
    # E|P_t F|^q(t) underflows to 0 for q(t) = 1 + e^8; lhs read 0
    "restricted-hypercontractivity-underflow": (base_config(
        checks=[{"check": "restricted-hypercontractivity", "functional": "f",
                 "params": {"t": 8, "p": 2}}]), 4),
    # e^-708 is a double where scipy's binomial pmf overflowed (a traceback)
    "restricted-hypercontractivity-kernel": (base_config(
        checks=[{"check": "restricted-hypercontractivity", "functional": "f",
                 "params": {"t": 708, "p": 2}}]), 4),
    # e^800 raised OverflowError; q(t) = inf is the L^inf limit
    "restricted-hypercontractivity-sup": (base_config(
        checks=[{"check": "restricted-hypercontractivity", "functional": "f",
                 "params": {"t": 800, "p": 2}}]), 0),
    # E[exp(e^t P_t F)] underflows to 0 for a negative F; lhs read 0
    "weak-hypercontractivity-underflow": (base_config(
        functionals={"f": "-1 * indicator_le(0, 1)"},
        checks=[{"check": "weak-hypercontractivity", "functional": "f",
                 "params": {"t": 7}}]), 4),
    # e^t raised OverflowError past t = 709.78
    "weak-hypercontractivity-e^t": (base_config(
        checks=[{"check": "weak-hypercontractivity", "functional": "f",
                 "params": {"t": 710}}]), 4),
    # q**2 raised OverflowError
    "entropy-power-q": (base_config(
        checks=[{"check": "entropy-power", "functional": "f", "params": {"q": 1e308}}]), 4),
    # (D F)^2 / F overflows where F is small; the minimum takes D F * D log F
    "min-form-lsi-quotient": (base_config(
        space={"weights": [0.5055, 1.6165]},
        truncation={"tail_mass": 4.94e-14, "budget": 1_000_000},
        functionals={"f": "2.243e+151 * max_radius_gt(0) + 7463000000000.0 * exp_neg(2.485, 1)"},
        checks=[{"check": "min-form-lsi", "functional": "f"}]), 0),
    # F log F overflows near the top of the double range, and with it Ent(F)
    "modified-lsi-entropy": (base_config(
        functionals={"f": "1e307 * exp_neg(0.5, 0)"},
        checks=[{"check": "modified-lsi", "functional": "f"}]), 4),
    "min-form-lsi-entropy": (base_config(
        functionals={"f": "1e307 * exp_neg(0.5, 0)"},
        checks=[{"check": "min-form-lsi", "functional": "f"}]), 4),
    # 11 (2 sup|F|)^alpha times the atom sum overflows, and so does Var(F)
    "l1-variance-rhs": (base_config(
        space={"weights": [6.5321]}, functionals={"f": "6.267e+214 * exp_neg(0.334, 0)"},
        checks=[{"check": "l1-variance", "functional": "f"}]), 4),
}


def run_quietly(tmp_path, config, name="config.json"):
    """``main`` on one config with RuntimeWarnings raised as errors."""
    path = write_config(tmp_path, config, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(["run", str(path), "--out", str(tmp_path / f"{name}.out")])


WEAK_MOMENT = ("e^t or E[exp(e^t P_t F)] of weak-hypercontractivity "
               "is not a positive finite double")


class TestOverflow:
    @pytest.mark.parametrize("name", ["lemma-b^q", "lemma-a=b", "lemma-finite-lhs"])
    def test_pathwise_lemma_beyond_the_double_range(self, tmp_path, capsys, name):
        assert run_quietly(tmp_path, OVERFLOW_RUNS[name][0]) == 0
        assert capsys.readouterr().err == ""
        line = (tmp_path / "config.json.out" / "report.txt").read_text()
        fields = dict(field.split("=", 1) for field in line.split())
        assert fields["verdict"] == "holds"
        assert ("log_scale=True" in fields["params"]) == (name == "lemma-b^q")
        if name == "lemma-a=b":
            assert fields["lhs"] == fields["rhs"] == "0"
        if name == "lemma-finite-lhs":
            assert float(fields["lhs"]) == pytest.approx(4e300, rel=1e-5)

    def test_restricted_at_a_huge_time_takes_the_sup_norm(self, tmp_path, capsys):
        assert run_quietly(tmp_path, OVERFLOW_RUNS["restricted-hypercontractivity-sup"][0]) == 0
        assert capsys.readouterr().err == ""
        line = (tmp_path / "config.json.out" / "report.txt").read_text()
        assert "q(t)=inf," in line and "verdict=holds" in line

    def test_min_form_lsi_quotient_overflow_keeps_its_record(self, tmp_path, capsys):
        assert run_quietly(tmp_path, OVERFLOW_RUNS["min-form-lsi-quotient"][0]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "config.json.out" / "report.txt").read_text() == (
            "name=min-form-lsi params=functional=f lhs=8.2266875064081526e+150 "
            "rhs=2.2082482696739267e+153 slack=2.2000215821675185e+153 stderr=- "
            "verdict=holds certs=-\n")

    def test_exact_poincare_variance_overflow_exits_4(self, tmp_path, capsys):
        assert run_quietly(tmp_path, OVERFLOW_RUNS["poincare-exact"][0]) == 4
        assert capsys.readouterr().err == "error: the variance of f is not a finite double\n"

    def test_mc_mecke_overflow_prints_one_line(self, tmp_path, capsys):
        assert run_quietly(tmp_path, OVERFLOW_RUNS["mecke-mc"][0]) == 4
        assert capsys.readouterr().err == "error: h produced a non-finite value\n"

    @pytest.mark.parametrize("name,message", [
        ("poincare-scale", "the tolerance scale is not a finite double"),
        ("talagrand-scale", "the tolerance scale is not a finite double"),
        ("weak-hypercontractivity-scale", "the tolerance scale is not a finite double"),
        ("mecke-mc-stderr", "the standard error of mecke is not a finite double"),
        ("weak-hypercontractivity-sides",
         "a side of weak-hypercontractivity is not a finite double"),
        ("restricted-hypercontractivity-moment",
         "E|P_0.5[f]|^2.64872 is not a finite double"),
        ("entropy-power-scale", "a side of entropy-power is not a finite double"),
        ("concentration-alpha", "alpha^2 of the concentration bound is not a finite double"),
        ("l1-variance-rhs", "the variance of f is not a finite double"),
        ("restricted-hypercontractivity-underflow", "E|P_8[f]|^2981.96 underflows to 0"),
        ("restricted-hypercontractivity-kernel", "E|P_708[f]|^3.02338e+307 underflows to 0"),
        ("weak-hypercontractivity-underflow", WEAK_MOMENT),
        ("weak-hypercontractivity-e^t", WEAK_MOMENT),
        ("entropy-power-q", "a side of entropy-power is not a finite double"),
        ("modified-lsi-entropy", "a side of modified-lsi is not a finite double"),
        ("min-form-lsi-entropy", "a side of min-form-lsi is not a finite double"),
    ])
    def test_no_finite_error_model_exits_4(self, tmp_path, capsys, name, message):
        assert run_quietly(tmp_path, OVERFLOW_RUNS[name][0]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "config.json.out" / "report.txt").exists()

    def test_no_runtime_warnings(self, tmp_path):
        runs = {"onedim_suite": (load_config(str(REPO_CONFIG)), 0)}
        runs.update({name: (load_config(str(DATA / f"{name}.json")), 0)
                     for name in ("mc_3atom", "grid_3atom", "mc_builtins")})
        runs.update(OVERFLOW_RUNS)
        codes = {name: run_quietly(tmp_path, config, f"{k}.json")
                 for k, (name, (config, _)) in enumerate(runs.items())}
        assert codes == {name: code for name, (_, code) in runs.items()}


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        for out in ("a", "b"):
            assert main([
                "run", str(REPO_CONFIG), "--out", str(tmp_path / out)
            ]) == 0
        a = (tmp_path / "a" / "report.txt").read_bytes()
        b = (tmp_path / "b" / "report.txt").read_bytes()
        assert a == b and len(a) > 0
        assert a == REFERENCE_REPORT.read_bytes()

    @pytest.mark.parametrize("name", ["mc_3atom", "grid_3atom"])
    def test_three_atom_reports_unchanged(self, tmp_path, name):
        # reports written by the code before Mecke and the Monte Carlo
        # checks read the engine's memoized values
        config = load_config(str(DATA / f"{name}.json"))
        assert cli.run_config(config, tmp_path) == 0
        expected = (DATA / f"{name}.report.txt").read_bytes()
        assert (tmp_path / "report.txt").read_bytes() == expected

    def test_monte_carlo_report_over_every_builtin_unchanged(self, tmp_path):
        # a report written by the code that evaluated each functional once
        # per shift, before the checks read one sample table per functional
        config = load_config(str(DATA / "mc_builtins.json"))
        texts = " ".join(config["functionals"].values())
        assert all(f"{name}(" in texts for name in BUILTINS)
        assert cli.run_config(config, tmp_path) == 0
        expected = (DATA / "mc_builtins.report.txt").read_bytes()
        assert (tmp_path / "report.txt").read_bytes() == expected

    def test_shipped_suite_exits_zero_with_tagged_demo(self, tmp_path):
        assert main(["run", str(REPO_CONFIG), "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
        assert f"tag={DEMO_TAG}" in report
        assert "verdict=violated" in report


#: a command line without --out, and the file it writes
OUTPUTS = [(["run", str(REPO_CONFIG)], "report.txt"), (["example", "maxima"], "maxima.csv")]


class TestOutputFiles:
    """Every output file is created anew: an old one is deleted, not truncated."""

    @pytest.mark.parametrize("argv,name", OUTPUTS, ids=["report", "csv"])
    def test_an_old_longer_file_is_replaced_whole(self, tmp_path, argv, name):
        assert main([*argv, "--out", str(tmp_path / "fresh")]) == 0
        fresh = (tmp_path / "fresh" / name).read_bytes()
        out = tmp_path / "out"
        out.mkdir()
        old = "x" * (len(fresh) + 1000) + "\n"
        (out / name).write_text(old)
        # holding the old file open keeps its inode number from being reused
        with open(out / name, encoding="utf-8") as held:
            assert main([*argv, "--out", str(out)]) == 0
            assert (out / name).read_bytes() == fresh
            assert (out / name).stat().st_ino != os.fstat(held.fileno()).st_ino
            assert held.read() == old

    def test_a_symlink_is_replaced_not_followed(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("keep\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.txt").symlink_to(target)
        assert main(["run", str(REPO_CONFIG), "--out", str(out)]) == 0
        assert not (out / "report.txt").is_symlink()
        assert (out / "report.txt").read_bytes() == REFERENCE_REPORT.read_bytes()
        assert target.read_text() == "keep\n"


class TestInputOutputErrors:
    @pytest.mark.parametrize("case,message", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not-utf8", "is not UTF-8: invalid continuation byte at byte 24"),
        ("too-deep", "nests too deeply to parse"),
    ])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, case, message):
        path = {"missing": tmp_path / "nope.json", "directory": tmp_path,
                "not-utf8": tmp_path / "latin1.json", "too-deep": tmp_path / "deep.json"}[case]
        if case == "not-utf8":
            path.write_bytes('{"checks": [], "seed": "\xe9"}'.encode("latin-1"))
        if case == "too-deep":
            path.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", OUTPUTS, ids=["report", "csv"])
    def test_out_is_a_file_exits_4(self, tmp_path, capsys, argv, name):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert main([*argv, "--out", str(blocker)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {blocker / name}: ")
        assert blocker.read_text() == "not a directory\n"

    def test_report_path_is_a_directory_exits_4(self, tmp_path, capsys):
        (tmp_path / "report.txt").mkdir()
        assert main(["run", str(REPO_CONFIG), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write ")
        assert (tmp_path / "report.txt").is_dir()


class TestReportFormat:
    def test_field_order_and_float_precision(self):
        report = make_report("demo", 1.0 / 3.0, 2.0, tolerance=0.0,
                             parameters={"t": 0.5, "a": 1.0})
        line = format_report_line(report)
        fields = [f.split("=", 1)[0] for f in line.split(" ")]
        assert fields == ["name", "params", "lhs", "rhs", "slack", "stderr",
                          "verdict", "certs"]
        assert "0.33333333333333331" in line
        # params sorted by key
        assert line.index("a=1") < line.index("t=0.5")

    @pytest.mark.parametrize("lhs,verdict", [(0.9, HOLDS), (1.3, HOLDS_STAT), (1.5, VIOLATED)])
    def test_monte_carlo_verdict_against_four_stderr(self, lhs, verdict):
        report = make_report("demo", lhs, 1.0, stderr=0.1)
        assert report.verdict == verdict

    def test_one_record_per_line(self, tmp_path):
        config = base_config(checks=[
            {"check": "pathwise-lemma", "params": {"a": [1.0, 2.0], "b": 1.0, "q": 2.0}},
        ])
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert len(lines) == 2  # one per parameter point
        assert all(line.startswith("name=pathwise-lemma") for line in lines)

    @pytest.mark.parametrize("value,text", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (-0.0, "-0"),
        (np.float64(0.1), "0.10000000000000001"), (np.float64(-math.inf), "-inf"),
        (3, "3"), (True, "True"), ("exact", "exact"), (None, "-"),
    ])
    def test_value_format(self, value, text):
        assert cli._fmt(value) == text


class TestFlags:
    def test_seed_override_changes_mc_run(self, tmp_path):
        config = base_config(engine={"mode": "mc", "replications": 2000})
        path = write_config(tmp_path, config)
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            assert main(["run", str(path), "--seed", seed, "--out", str(out)]) == 0
            outs.append((out / "report.txt").read_text())
        assert outs[0] != outs[1]

    def test_mode_override(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", str(path), "--mode", "mc", "--out", str(out)]) == 0
        assert "stderr=-" not in (out / "report.txt").read_text()

    def test_budget_override_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(REPO_CONFIG), "--budget", "10", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("budget exceeded: ")
        assert err[0].endswith("over budget 10")
        assert not out.exists()

    def test_parser_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "x.json", "--mode", "magic"])


#: example -> the casestudies function that computes its rows
EXAMPLE_COMPUTE = {"maxima": "maxima_closed_forms", "onedim": "one_dim_bound_comparison",
                   "counterexample_fk": "counterexample_fk",
                   "near_optimality": "near_optimality_scan"}


class TestExamples:
    @pytest.mark.parametrize("name,csv", [
        ("maxima", "maxima.csv"),
        ("onedim", "onedim.csv"),
        ("counterexample_fk", "counterexample_fk.csv"),
        ("near_optimality", "near_optimality.csv"),
    ])
    def test_examples_emit_csv(self, tmp_path, name, csv):
        assert main(["example", name, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / csv).read_text().splitlines()
        assert len(lines) > 1 and "," in lines[0]

    @pytest.mark.parametrize("k_max", [10, 200])  # 1 / pmf(k - 1) overflows from k = 172
    def test_example_params(self, tmp_path, k_max):
        assert main([
            "example", "counterexample_fk", f"k_max={k_max}", "--out", str(tmp_path)
        ]) == 0
        lines = (tmp_path / "counterexample_fk.csv").read_text().splitlines()
        assert len(lines) == k_max  # header + k in 2..k_max
        assert all(math.isfinite(float(line.split(",")[-1])) for line in lines[1:])

    def test_onedim_negative_m_is_all_zero_g(self, tmp_path):
        """M is compared as a number: no j >= 0 is <= -0.5, as none is <= -1."""
        rows = {}
        for M in ("-0.5", "-1"):
            assert main(["example", "onedim", f"M={M}", "--out", str(tmp_path / M)]) == 0
            rows[M] = (tmp_path / M / "onedim.csv").read_text()
        assert rows["-0.5"] == rows["-1"]
        assert main(["example", "onedim", "--out", str(tmp_path / "1")]) == 0
        assert rows["-1"] != (tmp_path / "1" / "onedim.csv").read_text()

    def test_unknown_example_exits_2(self, tmp_path, capsys):
        assert main(["example", "nope", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name,param", [
        ("counterexample_fk", "k_max=abc"),
        ("counterexample_fk", "k_max=2.5"),
        ("onedim", "lambda_grid=5"),
        ("onedim", "lambda_grid=[1.0,-2.0]"),
        ("onedim", "M=Infinity"),
        ("maxima", "m_grid=[0]"),
        ("near_optimality", "q_grid=[1.0]"),
        ("near_optimality", "a_grid=[]"),
        ("near_optimality", "gamma=0"),
    ])
    def test_bad_example_param_exits_2_before_compute(
        self, tmp_path, monkeypatch, capsys, name, param
    ):
        computed = []
        monkeypatch.setattr(cli.casestudies, EXAMPLE_COMPUTE[name],
                            lambda *args: computed.append(args))
        assert main(["example", name, param, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        key = param.split("=")[0]
        assert len(err) == 1 and err[0].startswith(f"config error: example {name!r}: {key} ")
        assert not computed
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("param,message", [
        ("kmax=5", "example 'counterexample_fk': unknown parameter 'kmax'; known: k_max"),
        ("k_max", "expected key=value, got 'k_max'"),
    ])
    def test_unknown_example_key_exits_2_before_compute(
        self, tmp_path, monkeypatch, capsys, param, message
    ):
        computed = []
        monkeypatch.setattr(cli.casestudies, "counterexample_fk", computed.append)
        assert main(["example", "counterexample_fk", param, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not computed
        assert not list(tmp_path.iterdir())

    def test_near_optimality_ratio_with_a_zero_lhs_exits_4(self, tmp_path, capsys):
        assert main(["example", "near_optimality", "a_grid=[1e-200]",
                     "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: near-optimality ratio at a=1e-200, q=1.05: "
                       "lhs is 0 in double precision"]
        assert not list(tmp_path.iterdir())

    def test_near_optimality_ratio_with_a_subnormal_lhs_exits_4(self, tmp_path, capsys):
        # lhs = 1.99999997e-316 here; its ratio read 2.0000000247, not 2
        assert main(["example", "near_optimality", "a_grid=[1e-158]", "q_grid=[2]",
                     "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: near-optimality ratio at a=1e-158, q=2.0: "
                       "lhs is subnormal in double precision"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("k_max", ["1e300", str(cli.DEFAULT_BUDGET + 1)])
    def test_example_k_max_over_budget_exits_3(self, tmp_path, monkeypatch, capsys, k_max):
        computed = []
        monkeypatch.setattr(cli.casestudies, "counterexample_fk", computed.append)
        # no row is computed, so the bound shows without a long loop
        assert main(["example", "counterexample_fk", f"k_max={k_max}",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("budget exceeded: example 'counterexample_fk': k_max = ")
        assert not computed
