"""Write the stored references the benchmark compares against.

Usage (from the root of a checkout): python3 bench/make_reference.py

- ``reference/onedim_suite.report.txt``: the report of the shipped suite.
  ``onedim-suite`` passes must reproduce it byte for byte.
- ``reference/verdicts.json``: the gated verdicts (checks whose verdict
  depends on a sign certificate) of the first ``PASSES`` configs of the
  default seed, per generated exact workload. A run on the default seed
  reports differences as ``verdict_changes``; they do not count as failures.

Both were made from the code the benchmark was first measured on. Run this
again only when a change to the library's output is intended, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads

PASSES = 10


def main() -> int:
    cli = run.load_library()
    reference = run.HERE / "reference"
    reference.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out = Path(tmp)
        cli.run_config(run.workloads.shipped_config(run.ROOT), out)
        (reference / "onedim_suite.report.txt").write_bytes((out / "report.txt").read_bytes())
        verdicts = {}
        for name in ("kernel-sweep", "grid-3atom"):
            make = run.workloads.WORKLOADS[name](run.ROOT)
            checker = run.Checker(name)
            for index in range(PASSES):
                item = make(run.workloads.DEFAULT_SEED, index)
                code = cli.run_config(item.config, out)
                checker(item, code, (out / "report.txt").read_text(encoding="utf-8"))
            if checker.problems:
                raise SystemExit("\n".join(checker.problems))
            verdicts[name] = [checker.verdicts[i] for i in range(PASSES)]
    path = reference / "verdicts.json"
    path.write_text(json.dumps(verdicts, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
