"""Run one rankcodes CLI command as ``python -m rankcodes.cli`` does, under
the tracer, and write the tracer's totals as JSON to $PERFBENCH_TRACE_OUT.

    PERFBENCH_TRACE_OUT=t.json python3 perfbench/clitrace.py grw exact --input x.code
"""

import json
import os
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
sys.argv = ["rankcodes", *sys.argv[1:]]
try:
    runpy.run_module("rankcodes.cli", run_name="__main__", alter_sys=True)
finally:
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump(tracer.export(), fh)
