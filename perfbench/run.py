"""fluxks benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload point-2d --seed 0 --seconds 35 --trace 0

Run from the repository root or anywhere else; the benchmark imports ``fluxks``
from the ``src/`` directory beside this one.  Each repeat of the workload runs
in a fresh ``worker.py`` process.  With ``--trace 0`` it repeats the workload
until ``--seconds`` have passed (at least the workload's minimum number of
repeats) and reports medians.  With ``--trace 1`` it runs one untraced repeat
and one traced repeat (serial, for the lattice) and reports the per-layer
metrics.  Besides the repeats, ``PROBES`` processes stop after set-up, so that
``setup_s`` is a median of several.

Every line but the last is for people: the environment, every end-to-end
metric with its unit, and the checks.  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the benchmark could not
run (no ``src/fluxks`` beside it, or a worker crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REPORTED_ONLY, UNITS, summarize
from workloads import THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 3
# every run must end within 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    """A worker process failed or ran out of time."""


def git_commit(root: Path) -> str:
    # the ceiling keeps git from reporting a repository that merely encloses root
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    cmd = ["git", "-C", str(root), "rev-parse", "HEAD"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(ROOT),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, work_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0

    def spawn(self, *flags: str) -> dict:
        rep_dir = self.work_dir / f"rep{self.count}"
        self.count += 1
        rep_dir.mkdir()
        result_file = rep_dir / "result.json"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--dir",
            str(rep_dir),
            "--result",
            str(result_file),
            *flags,
        ]
        t_spawn = time.monotonic()
        # its own session, so that a pool it started can be killed with it
        proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {' '.join(flags) or 'repeat'} ran out of time") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        result = json.loads(result_file.read_text(encoding="utf-8"))
        result["setup_s"] = result["t_call"] - t_spawn
        return result


def check(reps: list[dict]) -> tuple[int, int, list[str]]:
    """Count operations attempted and failed over all repeats.

    An operation fails on its own checks, or when its fingerprint differs
    from the first repeat's, or when a repeat lacks it.
    """
    first = reps[0]["summary"]["ops"]
    attempted = failed = 0
    problems = []
    for k, rep in enumerate(reps):
        ops = rep["summary"]["ops"]
        for op_id in sorted(first.keys() | ops.keys()):
            attempted += 1
            if op_id not in ops:
                reasons = ["missing from this repeat"]
            else:
                reasons = list(ops[op_id]["failures"])
                if op_id not in first or ops[op_id]["fingerprint"] != first[op_id]["fingerprint"]:
                    reasons.append("outputs differ from repeat 0")
            if reasons:
                failed += 1
                problems.append(f"repeat {k} {op_id}: {'; '.join(reasons)}")
    return attempted, failed, problems


def simulation_seconds(rep: dict) -> float:
    # summed per-point seconds, so pool scheduling shows only in wall_s
    return sum(rep["summary"]["point_s"])


def serial_seconds(rep: dict) -> float:
    # what the call would take without a pool: the matching time for a
    # traced repeat, which always runs serially
    return simulation_seconds(rep) if rep["summary"]["pool"] else rep["wall_s"]


def end_to_end(timed: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    steps = timed[0]["summary"]["steps"]
    sim_s = statistics.median(simulation_seconds(r) for r in timed)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "steps": steps,
        "us_per_step": sim_s / steps * 1e6 if steps else 0.0,
        "failed_frac": failed / attempted,
    }


def per_layer(untraced: dict, traced: dict, e2e: dict) -> tuple[dict, dict]:
    m = dict(traced["trace"]["metrics"])
    notes = dict(traced["trace"]["notes"])
    m["steps"] = e2e["steps"]
    m["us_per_step"] = e2e["us_per_step"]
    point_s = untraced["summary"]["point_s"]
    m["sweep.point_s_p50"] = summarize(point_s).p50
    m["sweep.point_s_max"] = max(point_s, default=0.0)
    pool = untraced["summary"]["pool"]
    m["sweep.pool_busy_frac"] = (
        simulation_seconds(untraced) / (pool["workers"] * pool["wall_s"]) if pool else 0.0
    )
    # tracing cost = spans x calibrated cost per span; the traced repeat's own
    # time is too noisy to difference against another repeat
    matching_s = serial_seconds(untraced)
    spans, cost = traced["trace"]["spans"], traced["trace"]["span_cost_s"]
    m["trace.overhead_frac"] = spans * cost / matching_s
    notes["trace.overhead_frac"] = (
        f"{spans} spans x {cost * 1e6:.2f} us over {matching_s:.3f} s untraced; "
        f"the traced repeat took {traced['wall_s'] / matching_s - 1.0:+.1%}"
    )
    return m, notes


def print_metrics(title: str, table, values: dict, notes: dict | None = None) -> None:
    print(title)
    for name, *_ in table:
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:32s} {values[name]!r:>24} {UNITS[name]}{note}")


def run(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "fluxks" / "__init__.py").is_file():
        print(f"error: no fluxks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    start = time.monotonic()
    work_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(workload.name, args.seed, work_dir, start + DEADLINE_S)
    try:
        probes = [runner.spawn("--probe")["setup_s"] for _ in range(PROBES)]
        if args.trace:
            timed = [runner.spawn()]
            traced = runner.spawn("--trace")
            reps = [timed[0], traced]
        else:
            # stop before a repeat of average length would overrun --seconds
            timed = []
            t0 = time.monotonic()
            while True:
                timed.append(runner.spawn())
                elapsed = time.monotonic() - t0
                if len(timed) >= workload.min_repeats and elapsed * (len(timed) + 1) / len(timed) > args.seconds:
                    break
            reps = timed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    steps = timed[0]["summary"]["steps"]
    if args.trace and "fluxks.stepper.step" not in traced["trace"]["absent"]:
        calls = traced["trace"]["metrics"]["stepper.step.calls"]
        if calls != steps:
            for op in traced["summary"]["ops"].values():
                op["failures"].append(f"traced stepper.step.calls {calls} != steps {steps}")
    attempted, failed, problems = check(reps)
    e2e = end_to_end(timed, probes + [r["setup_s"] for r in reps], attempted, failed)

    print(f"fluxks benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(
        f"{len(timed)} timed repeat(s), {len(reps) - len(timed)} other, {PROBES} set-up probes; "
        f"{time.monotonic() - start:.1f} s"
    )
    notes = {
        "wall_s": summarize(r["wall_s"] for r in timed).describe(),
        "setup_s": summarize(probes + [r["setup_s"] for r in reps]).describe(),
        "failed_frac": f"{failed}/{attempted}",
    }
    print_metrics("end-to-end (untraced)", END_TO_END + REPORTED_ONLY, e2e, notes)
    if args.trace:
        layers, layer_notes = per_layer(timed[0], traced, e2e)
        print_metrics("per-layer (traced repeat)", PER_LAYER, layers, layer_notes)
        if traced["trace"]["absent"]:
            print("absent (reported as 0): " + ", ".join(traced["trace"]["absent"]))
        chosen = {name: layers[name] for name, *_ in PER_LAYER}
    else:
        chosen = {name: e2e[name] for name, *_ in END_TO_END}
    for line in problems:
        print(f"CHECK FAILED {line}")
    print(f"checks: {attempted} operations attempted, {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    # a terminated run still stops its workers: SystemExit unwinds through
    # Runner.spawn, which kills the worker's process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
