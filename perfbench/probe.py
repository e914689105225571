"""Set-up probe: a fresh interpreter that imports rankcodes and builds one
workload's inputs, then prints ``ready <import seconds> <len(sys.modules)>``.

    python3 perfbench/probe.py <workload> <seed>

run.py times it from start to the ready line; that time is setup_s.  For
cli_session the set-up is the import alone.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
t0 = time.perf_counter()
import rankcodes  # noqa: E402,F401

import_s = time.perf_counter() - t0
modules = len(sys.modules)
workload, seed = sys.argv[1], int(sys.argv[2])
if workload != "cli_session":
    import workloads  # noqa: E402

    workloads.SETUPS[workload](seed, workloads.Clock(), None)
print(f"ready {import_s!r} {modules}", flush=True)
