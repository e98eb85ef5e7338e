"""Time one workload's set-up in a fresh interpreter.

Set-up is what every ``xccy`` command pays before its first Monte Carlo
call: importing xccy (and with it numpy and scipy), loading and validating
the model, parsing the trade and building the grid.

Usage: python3 perfbench/setup_probe.py <workload>
Prints one JSON line with ``setup_s`` and ``load_s`` (model load and
validation alone).
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracing import MODEL_LOAD, Tracer, busy_time  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    workloads.load_setup(workloads.WORKLOADS[sys.argv[1]], tracer)
    setup_s = time.perf_counter() - _START
    print(json.dumps({"setup_s": setup_s, "load_s": busy_time(tracer.spans, MODEL_LOAD)}))
