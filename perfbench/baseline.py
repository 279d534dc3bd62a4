"""Run every workload on several seeds and summarize the end-to-end metrics.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For each workload it runs ``run.py`` untraced on seeds 0 to 9 and reports, per
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median.  Then it makes one traced run per workload for the
per-layer metrics.  ``--out`` writes it all, with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import BENCHMARK, END_TO_END
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The metrics of one run and the environment it printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return {name: m["value"] for name, m in result["metrics"].items()}, env


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartiles, and (q3 - q1) / median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="write the summary to this JSON file")
    args = parser.parse_args()

    seconds = BENCHMARK["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {"environment": None, "run_seconds": seconds, "runs": len(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            metrics, report["environment"] = run_once(workload, seed, seconds, 0)
            runs.append(metrics)
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", flush=True)
        e2e = {}
        for name, unit, _ in END_TO_END:
            values = [r[name] for r in runs]
            med, q1, q3, sp = spread(values)
            e2e[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": sp, "values": values}
            print(f"{workload} {name}: median {med:.6g} {unit}, spread {sp:.3f} (bound {bounds[name]})")
        per_layer, _ = run_once(workload, SEEDS[0], seconds, 1)
        report["workloads"][workload] = {"seeds": list(SEEDS), "end_to_end": e2e, "per_layer": per_layer}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
