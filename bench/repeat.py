"""Repeat the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 bench/repeat.py [--out baseline.json]

Runs ``bench/run.py --trace 0`` once per workload of BENCHMARK.json and seed
1 to 10, one run at a time, with the ``run_seconds`` of BENCHMARK.json. For
every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median``, flagging an end-to-end spread above a third of the metric's
bound. ``--out`` writes the same figures, each run's raw seconds (set-up
medians, pass times and records per second of the library and the frozen
copy) and the environment as JSON, which is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: runs per workload, on seeds FIRST_SEED, FIRST_SEED + 1, ...
RUNS = 10
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = [line for line in lines[:-1]
                     if line.startswith(("set-up", "passes", "library", "frozen copy", "problem"))]
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sys.path.insert(0, str(HERE))
    import run  # sets the BLAS thread variables before numpy loads

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=False).stdout.strip() or None
    report = {"commit": commit, "environment": run.environment(),
              "run_seconds": spec["run_seconds"],
              "runs": RUNS, "first_seed": FIRST_SEED, "workloads": {}}
    steady = True
    for workload in names:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(FIRST_SEED, FIRST_SEED + RUNS)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        entry = {"failed": failed, "attempted": attempted, "metrics": {},
                 "raw": [[p for p in r["log"] if not p.startswith("problem")]
                         for r in results]}
        print(f"{workload}: failed {failed} of {attempted} records")
        for name in results[0]["metrics"]:
            stats = spread([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and stats["spread"] > bound / 3:
                flag = f"  above a third of bound {bound}"
                steady = False
            print(f"  {name:45s} median {stats['median']:.6g} {stats['unit']}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                  f"  spread {stats['spread']:.4f}{flag}")
        for line in (p for r in results for p in r["log"] if p.startswith("problem")):
            print(f"  {line}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
