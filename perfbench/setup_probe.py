"""One set-up measurement, in a fresh interpreter.

Times ``import lattice_rearrange`` and the generation of the workload's
instances (for ``cli``, also writing the instance files) and prints them as
one JSON line.  ``run.py`` starts it with ``src`` on PYTHONPATH:

    python3 perfbench/setup_probe.py WORKLOAD SEED CLI_INPUT_DIR
"""

import sys
import time

t0 = time.perf_counter()
before = set(sys.modules)
import lattice_rearrange  # noqa: E402,F401
t1 = time.perf_counter()
modules = len(set(sys.modules) - before)

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

workload, seed, cli_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
requests = workloads.build(workload, seed)
if workload == "cli":
    workloads.write_cli_inputs(requests, cli_dir)
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, "gen_s": t2 - t1,
                  "import_modules": modules}))
