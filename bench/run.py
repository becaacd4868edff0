"""Benchmark for the poisson-ou runner: one workload, one seed, one process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload grid-3atom --seed 3 --seconds 20 --trace 0

A pass is one ``cli.run_config`` call on one generated config: the work of
one ``poisson-ou run`` after import, engine construction included. Passes
repeat, each on the next config of the seed's sequence, until ``--seconds``
have elapsed; every report is checked (see ``checks.py``) and each record
that raised, came out non-finite or failed a check counts as failed.

``--trace 0`` prints the end-to-end metrics. Each config runs twice, once
through the checkout's library and once through the frozen copy of it in
``frozen_poisson_ou/``, alternating which goes first; pass times are
reported as ratios to the frozen copy's, which cancels the speed changes
of a shared host that both see alike. ``--trace 1`` runs the even
configs of the sequence untraced and the odd ones with the per-layer
wrappers of ``layers.py`` installed, and prints the per-layer metrics per
traced pass.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``. The library is imported from ``src/`` of the
checkout; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported (here or in a child)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

#: pairs of fresh interpreters (library, frozen copy) started per run to time set-up
SETUP_PAIRS = 4

#: the frozen copy's median set-up time, in seconds, on the 2-CPU shared host
#: the benchmark was defined on; setup_s is the library's set-up time as a
#: ratio to the frozen copy's, expressed in these seconds
FROZEN_SETUP_S = 1.1

#: samples that must lie beyond the reported tail percentile
TAIL_SAMPLES = 10

#: SHA-256 over the names and contents of ``frozen_poisson_ou/*.py``, so that
#: an edit to the yardstick cannot pass unnoticed
FROZEN_SHA256 = "351c0bc38ccdfc7b4da1ef84296a6914e91b5340c34c10817dbacf0e8414d3ed"


def die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import poisson_ou from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "poisson_ou" / "__init__.py").is_file():
        die(f"no library at {src / 'poisson_ou'}")
    if not (ROOT / "configs" / "onedim_suite.json").is_file():
        die("configs/onedim_suite.json is missing")
    sys.path.insert(0, str(src))
    import poisson_ou
    from poisson_ou import cli

    if Path(poisson_ou.__file__).resolve().parent != src / "poisson_ou":
        die(f"imported poisson_ou from {poisson_ou.__file__}, not {src}")
    return cli


def load_frozen():
    """Import the frozen copy of the library, or exit 2 if it was edited."""
    digest = hashlib.sha256()
    for path in sorted((HERE / "frozen_poisson_ou").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    if digest.hexdigest() != FROZEN_SHA256:
        die("frozen_poisson_ou/ is not the copy the benchmark was defined with")
    from frozen_poisson_ou import cli as frozen_cli

    return frozen_cli


# ----------------------------------------------------------------- checking


class Checker:
    """Checks one pass's exit code and report; collects gated verdicts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reference = None
        if workload == "onedim-suite":
            path = HERE / "reference" / "onedim_suite.report.txt"
            self.reference = path.read_text(encoding="utf-8").splitlines()
        self.verdicts: dict[int, dict] = {}
        self.problems: list[str] = []

    def __call__(self, item: workloads.Pass, code: int, text: str) -> tuple[int, int]:
        """(records produced, records failed) for one pass."""
        expected = workloads.expected_records(item.config)
        if self.reference is not None:
            lines = text.splitlines()
            if code != 0:
                self.note(f"pass {item.index}: exit code {code}")
                return len(lines), expected
            bad = sum(a != b for a, b in itertools.zip_longest(lines, self.reference))
            if bad:
                self.note(f"pass {item.index}: {bad} lines differ from the stored report")
            return len(lines), min(bad, expected)
        try:
            records = checks.parse_report(text)
        except (KeyError, ValueError) as err:
            self.note(f"pass {item.index}: unreadable report ({err!r})")
            return 0, expected
        failed = max(0, expected - len(records))
        if failed:
            self.note(f"pass {item.index}: {len(records)} of {expected} records")
        mc = item.config["engine"]["mode"] == "mc"
        # an MC verdict flips to violated at 4 stderr by chance; only the
        # closed-form check below decides whether an MC record is wrong
        if code != 0 and not (mc and code == 1):
            self.note(f"pass {item.index}: exit code {code}")
            return len(records), max(len(records), expected)
        moments = checks.functional_moments(item.params)
        tail_mass = item.config["truncation"]["tail_mass"]
        gated = {}
        for record in records:
            if mc:
                problems = checks.check_mc_record(record, moments)
            else:
                problems = checks.check_exact_record(record, item.params, tail_mass, moments)
            if record["name"] in checks.GATED:
                gated[checks.record_key(record)] = record["verdict"]
            if problems:
                failed += 1
                self.note(f"pass {item.index}: {problems[0]}")
        self.verdicts[item.index] = gated
        return len(records), failed

    def note(self, message: str):
        if len(self.problems) < 20:
            self.problems.append(message)

    def verdict_changes(self, seed: int) -> list[str] | None:
        """Gated verdicts that differ from the stored default-seed reference."""
        if seed != workloads.DEFAULT_SEED:
            return None
        stored = json.loads((HERE / "reference" / "verdicts.json").read_text())
        stored = stored.get(self.workload)
        if stored is None:
            return None
        changes = []
        for index, expected in enumerate(stored):
            seen = self.verdicts.get(index)
            if seen is None:
                continue
            for key in sorted(set(expected) | set(seen)):
                if expected.get(key) != seen.get(key):
                    changes.append(f"pass {index} {key}: {expected.get(key)} -> {seen.get(key)}")
        return changes


# ---------------------------------------------------------------- measuring


class Phase:
    """Pass times and record counts of one series of passes."""

    def __init__(self):
        self.times: list[float] = []
        self.records = 0
        self.failed = 0
        self.attempted = 0


def run_pass(phase: Phase, run_config, item: workloads.Pass, out_dir: Path,
             checker: Checker) -> str | None:
    """Time one pass and check its report; returns the report (None if it raised)."""
    start = time.perf_counter()
    try:
        code = run_config(item.config, out_dir)
    except Exception:  # a pass that raises is a failed pass, not a crash
        code = None
        checker.note(f"pass {item.index}: {traceback.format_exc(limit=3)}")
    phase.times.append(time.perf_counter() - start)
    attempted = failed = workloads.expected_records(item.config)
    text = None
    if code is not None:
        text = (out_dir / "report.txt").read_text(encoding="utf-8")
        produced, failed = checker(item, code, text)
        attempted = max(attempted, produced)
        phase.records += produced
    phase.attempted += attempted
    phase.failed += min(failed, attempted)
    return text


def for_seconds(seconds: float, step):
    """Call step(0), step(1), ... until the time is up (at least once)."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        step(index)
        index += 1


def run_paired(cli, frozen_cli, make, seed: int, seconds: float, out_dir: Path,
               frozen_dir: Path, checker: Checker) -> tuple[Phase, list[float], int]:
    """Timed passes, each config through the library and the frozen copy.

    The copy goes second on even passes and first on odd ones. Only the
    library's reports are checked; the copy's go to their own directory.
    Returns the library's phase, the copy's pass times and its record count.
    """
    phase, frozen_times = Phase(), []
    frozen_records = 0

    def run_frozen(item):
        nonlocal frozen_records
        start = time.perf_counter()
        frozen_cli.run_config(item.config, frozen_dir)
        frozen_times.append(time.perf_counter() - start)
        frozen_records += workloads.expected_records(item.config)

    def step(index):
        item = make(seed, index)
        if index % 2:
            run_frozen(item)
        run_pass(phase, cli.run_config, item, out_dir, checker)
        if not index % 2:
            run_frozen(item)

    for_seconds(seconds, step)
    return phase, frozen_times, frozen_records


def traced_schedule(step: int) -> tuple[int, int, bool]:
    """(untraced config index, traced config index, traced first) of one step.

    The two series run different configs of the same sequence, so no config
    runs twice in the process and a cache kept across engines cannot warm
    the traced pass (or the untraced one) with its own inputs.
    """
    return 2 * step, 2 * step + 1, bool(step % 2)


def run_traced(cli, make, seed: int, seconds: float, out_dir: Path, checker: Checker):
    """Untraced and traced passes in alternating order, so that both series
    see the same machine conditions. After the timed loop every traced
    config runs once more untraced, untimed; the reports must agree."""
    from layers import Tracer

    plain, traced = Phase(), Phase()
    tracer = Tracer()
    traced_run_config = tracer.traced(cli.run_config, "cli.run_config")
    traced_reports: dict[int, str | None] = {}

    def run_with_tracer(item):
        tracer.pass_id = item.index
        tracer.install()
        try:
            traced_reports[item.index] = run_pass(traced, traced_run_config, item, out_dir,
                                                  checker)
        finally:
            tracer.uninstall()

    def step(index):
        plain_index, traced_index, traced_first = traced_schedule(index)
        if traced_first:
            run_with_tracer(make(seed, traced_index))
        run_pass(plain, cli.run_config, make(seed, plain_index), out_dir, checker)
        if not traced_first:
            run_with_tracer(make(seed, traced_index))

    for_seconds(seconds, step)
    for index, with_trace in traced_reports.items():
        item = make(seed, index)
        try:
            cli.run_config(item.config, out_dir)
            without = (out_dir / "report.txt").read_text(encoding="utf-8")
        except Exception:
            without = None
        if with_trace != without:
            checker.note(f"pass {index}: traced report differs from untraced")
            traced.failed += workloads.expected_records(item.config)
    return tracer, plain, traced


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the p90, or, with fewer than 100 samples, the
    highest percentile with TAIL_SAMPLES samples beyond it (never below the median)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(math.ceil(0.5 * n), min(math.ceil(0.9 * n), n - TAIL_SAMPLES))
    return ordered[rank - 1], 100.0 * rank / n


def measure_setup(config_path: Path, out_dir: Path) -> tuple[float, float, float]:
    """(setup_s, library median s, frozen copy median s) over SETUP_PAIRS pairs.

    Each pair starts one interpreter on the library and one on the frozen
    copy, alternating which goes first; setup_s is the median ratio of the
    two times scaled by FROZEN_SETUP_S, which cancels the host's speed as
    the pass ratios do.
    """
    probe = HERE / "setup_probe.py"

    def run_probe(path_dir: Path, package: str) -> float:
        done = subprocess.run(
            [sys.executable, str(probe), str(path_dir), package, str(config_path),
             str(out_dir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            die(f"set-up probe of {package} failed:\n{done.stderr}")
        return float(done.stdout.strip().splitlines()[-1])

    library, frozen = [], []
    for pair in range(SETUP_PAIRS):
        if pair % 2:
            frozen.append(run_probe(HERE, "frozen_poisson_ou"))
        library.append(run_probe(ROOT / "src", "poisson_ou"))
        if not pair % 2:
            frozen.append(run_probe(HERE, "frozen_poisson_ou"))
    ratio = statistics.median(a / b for a, b in zip(library, frozen))
    return ratio * FROZEN_SETUP_S, statistics.median(library), statistics.median(frozen)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_library()
    frozen_cli = load_frozen()
    make = workloads.WORKLOADS[args.workload](ROOT)
    checker = Checker(args.workload)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    pass_dir = out_dir / "pass"
    pass_dir.mkdir(parents=True)
    frozen_dir = out_dir / "frozen"
    frozen_dir.mkdir()

    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
             f"trace {args.trace}",
             "environment " + json.dumps(environment(), sort_keys=True)]
    # warm-up pass, untimed: lazy imports and first-call costs settle here;
    # if it raises, the same config fails again as timed pass 0 and is counted
    first = make(args.seed, 0)
    try:
        cli.run_config(first.config, pass_dir)
    except Exception:
        pass
    frozen_cli.run_config(first.config, frozen_dir)

    if args.trace == 0:
        if args.workload == "onedim-suite":
            config_path = ROOT / "configs" / "onedim_suite.json"
        else:
            config_path = out_dir / "config0.json"
            config_path.write_text(json.dumps(first.config), encoding="utf-8")
        setup_s, setup_library, setup_frozen = measure_setup(config_path, out_dir / "setup")
        phase, frozen_times, frozen_records = run_paired(
            cli, frozen_cli, make, args.seed, args.seconds, pass_dir, frozen_dir, checker)
        records_per_s = phase.records / sum(phase.times)
        frozen_records_per_s = frozen_records / sum(frozen_times)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "pass_time_ratio.p50": metric(
                statistics.median(t / f for t, f in zip(phase.times, frozen_times)), "ratio"),
            "records_per_s_ratio": metric(records_per_s / frozen_records_per_s, "ratio"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        p90, pct = tail_percentile(phase.times)
        frozen_p90, _ = tail_percentile(frozen_times)
        lines.append(f"set-up medians: library {setup_library:.6g} s, frozen copy "
                     f"{setup_frozen:.6g} s ({SETUP_PAIRS} each)")
        lines.append(f"passes {len(phase.times)} (p90 is the {pct:.1f}th percentile)")
        for who, times, tail, rate in (
                ("library", phase.times, p90, records_per_s),
                ("frozen copy", frozen_times, frozen_p90, frozen_records_per_s)):
            lines.append(f"{who}: pass_s.p50 {statistics.median(times):.6g} s, pass_s.p90 "
                         f"{tail:.6g} s, records_per_s {rate:.6g} 1/s")
        # printed, not a metric: with fixed work per pass the tail is the
        # host's noise, and its ratio spreads too widely to bound
        lines.append("tail ratio, library pass_s.p90 over the frozen copy's: "
                     f"{p90 / frozen_p90:.6g}")
        phases = [phase]
    else:
        from layers import summarize

        tracer, untraced, traced = run_traced(cli, make, args.seed, args.seconds, pass_dir,
                                              checker)
        tracer.write(out_dir / "spans.jsonl")
        metrics = summarize(tracer, traced.times, untraced.times)
        lines.append(f"passes untraced {len(untraced.times)} traced {len(traced.times)}; "
                     f"spans in {out_dir / 'spans.jsonl'}")
        lines.append(
            f"layer self times add up to {metrics['trace.self_sum_s']['value']:.6g} s per "
            f"traced pass; untraced pass_s.p50 {statistics.median(untraced.times):.6g} s, "
            f"tracing overhead {metrics['trace.overhead_s']['value']:.6g} s")
        phases = [untraced, traced]

    attempted = sum(p.attempted for p in phases)
    failed = min(attempted, sum(p.failed for p in phases))
    lines.append(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} records)")
    changes = checker.verdict_changes(args.seed)
    if changes is None:
        lines.append("verdict_changes not compared (only the default seed "
                     f"{workloads.DEFAULT_SEED} has a stored reference)")
    else:
        lines.append(f"verdict_changes {len(changes)}")
        lines.extend(f"  {change}" for change in changes[:10])
    lines.extend(f"problem {problem}" for problem in checker.problems)
    for name, entry in metrics.items():
        lines.append(f"{name} {entry['value']:.6g} {entry['unit']}")
    shutil.rmtree(pass_dir, ignore_errors=True)
    shutil.rmtree(frozen_dir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
