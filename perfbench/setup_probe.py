"""Time one workload's set-up in a fresh interpreter.

``perfbench/run.py`` starts this script several times per run, each in
a new process with empty on-disk caches, and takes the median::

    python3 perfbench/setup_probe.py WORKLOAD SEED TRACE

It prints one JSON line holding ``time.monotonic()`` at the end of each
set-up phase (imports, build, compile, first call).  The parent reads
the same system-wide clock when it starts the process, so the import
phase includes interpreter start-up.  The first result is checked
against the numpy reference after the last timestamp is taken.
"""

import time  # first: nothing before it is worth timing

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    import numpy as np

    import repro.analysis.cost.calibrate as calibrate
    from perfbench import workloads
    from perfbench.tracing import Tracer

    marks = {"import": time.monotonic()}
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.wrap(calibrate, "calibrate_tile", "cost.calibrate")
    workload = workloads.make(name, seed)
    workload.build()
    marks["build"] = time.monotonic()
    try:
        workload.compile()
        marks["compile"] = time.monotonic()
        out = workload.first_call()
        marks["first_call"] = time.monotonic()
        ok = bool(np.array_equal(out, workload.reference(0)))
    finally:
        workload.close()
    report = {"marks": marks, "ok": ok}
    if tracer is not None:
        tracer.restore()
        spans = tracer.named("cost.calibrate")
        report["calibrate_calls"] = len(spans)
        report["calibrate_s"] = sum(s.dur for s in spans)
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
