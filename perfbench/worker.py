"""One benchmark process: build a workload's inputs, call its entry once, and
write the timings and a summary of the outputs as JSON.

``run.py`` starts one of these per repeat, so every repeat pays interpreter
start, imports and input construction, which is the set-up time it measures:

    python3 perfbench/worker.py --workload point-2d --seed 0 --dir DIR --result FILE

``--probe`` stops after set-up; ``--trace`` records spans (see ``tracing.py``)
around the call and runs a sweep without a process pool, whose workers the
tracer could not see.
"""

import os
import sys

from workloads import THREAD_VARS, WORKLOADS  # imports no numpy

for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="scratch directory for outputs")
    parser.add_argument("--result", required=True, help="JSON result file to write")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--trace", action="store_true", help="record spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed, Path(args.dir), serial=args.trace)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    t_call = time.monotonic()
    if args.probe:
        Path(args.result).write_text(json.dumps({"t_call": t_call}), encoding="utf-8")
        return 0

    t0 = time.perf_counter()
    try:
        raw = workload.call(inputs)
    finally:
        if tracer is not None:
            tracer.restore()
    wall_s = time.perf_counter() - t0

    summary = workload.summarize(inputs, raw, wall_s)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if peak_kb == 0:  # no pool children: the process itself
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"t_call": t_call, "wall_s": wall_s, "peak_rss_mb": peak_kb / 1024.0, "summary": summary}
    if tracer is not None:
        layers, notes = tracing.layer_metrics(tracer, summary["steps"])
        result["trace"] = {
            "metrics": layers,
            "notes": notes,
            "absent": tracer.absent,
            "spans": len(tracer.start),
            "span_cost_s": tracing.span_cost(),
        }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
