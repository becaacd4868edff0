"""Set-up time in a fresh interpreter: the cost a `poisson-ou run` pays
before its first check.

Usage: python3 setup_probe.py PATH_DIR PACKAGE CONFIG_JSON OUT_DIR

Times importing PACKAGE (``poisson_ou`` from ``src/``, or the frozen copy
from ``bench/``), loading the config and running it through
``cli.run_config`` with no checks: the runner's own set-up path (truncated
state space, engine, DSL-compiled functionals, an empty report in OUT_DIR).
Prints the seconds.
"""

import importlib
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

cli = importlib.import_module(f"{sys.argv[2]}.cli")
config = cli.load_config(sys.argv[3])
cli.run_config({**config, "checks": []}, Path(sys.argv[4]))
print(time.perf_counter() - start)
