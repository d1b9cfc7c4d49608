"""chainopt benchmark launcher.

Run from the repository root:

    python3 perfbench/run.py --workload exact-descent --seed 0 --seconds 20 --trace 0

It starts fresh worker processes (worker.py) with BLAS pinned to one
thread, so that every run starts from a cold interpreter and the program
is imported from ./src. With --trace 0 it reports the end-to-end metrics,
rescaled to a reference machine speed (calibrate.py); with --trace 1 the
per-layer ones. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The lines
before it give each metric with its sample count and the machine record.

Closed loop: one caller, one op in flight. See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

# Fresh processes timed for setup_s besides the measuring worker itself:
# half start before it and half after it. The machine's speed drifts over
# tens of seconds, so probes that straddle the measured passes vary less
# in their median than probes started back to back.
SETUP_PROBES = 4
BLAS_THREADS = 1
# A run must end within 180 s; workers still alive at the deadline are
# killed and the run fails without a result.
DEADLINE_S = 170


def _args(argv):
    ap = argparse.ArgumentParser(description="chainopt benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    # The program is single-threaded apart from BLAS; one BLAS thread keeps
    # the timings steady on a shared machine and never exceeds nproc.
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, env, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # subprocess.run kills and reaps the worker if it overruns
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise SystemExit(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, res: dict, setups: list) -> tuple:
    """Metric name -> [value, unit], and a sample-count note per metric."""
    ops = res["op_ms"]
    n_ops = len(ops)
    tail = stats.max_tail_percentile(n_ops)
    if tail is not None and tail < 90:
        print(f"note: {n_ops} ops only support p{tail}; op_ms.p90 reports p{tail}")
    tail = tail or 50
    per_pass = [s / w for s, w in zip(res["pass_steps"], res["pass_s"])]
    if workload not in workloads.SAMPLING:
        per_pass = [res["ops_per_pass"] / w for w in res["pass_s"]]
    attempted = res["attempted"]
    metrics = {
        "setup_s": [statistics.median(setups), "s"],
        "run_s": [statistics.median(res["pass_s"]), "s"],
        "op_ms.p50": [stats.quantile(ops, 0.5) if ops else 0.0, "ms"],
        "op_ms.p90": [stats.quantile(ops, tail / 100) if ops else 0.0, "ms"],
        "steps_per_s": [statistics.median(per_pass), "1/s"],
        "peak_rss_mb": [res["peak_rss_mb"], "MB"],
        "ok_frac": [(attempted - res["failed"]) / attempted, "ratio"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "run_s": f"median of {res['passes']} passes",
        "op_ms.p50": f"{n_ops} ops",
        "op_ms.p90": f"{n_ops} ops, {stats.samples_beyond(n_ops, tail) if ops else 0} beyond",
        "steps_per_s": f"median of {res['passes']} passes; "
        + ("sampled transitions" if workload in workloads.SAMPLING else "ops"),
        "peak_rss_mb": "ru_maxrss of the measuring process",
        "ok_frac": f"{attempted - res['failed']} of {attempted} ops passed",
    }
    return metrics, notes


def wall_record(res: dict, setup_walls: list) -> str:
    """The unscaled wall times and the calibration kernel's range."""
    ops = res["wall_op_ms"]
    k = res["kernel_ms"]
    return (f"wall: setup_s {statistics.median(setup_walls):.4g}, "
            f"run_s {statistics.median(res['pass_wall_s']):.4g}, "
            f"op_ms.p50 {stats.quantile(ops, 0.5):.4g}, "
            f"kernel_ms median {statistics.median(k):.4g} "
            f"(min {min(k):.4g}, max {max(k):.4g}, n {len(k)}; "
            f"REF_MS {res['ref_ms']})")


def main(argv=None) -> int:
    args = _args(argv)
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "chainopt", "__init__.py")):
        print("run from the repository root: ./src/chainopt is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = _env()
    probes = 0 if args.trace else SETUP_PROBES
    first = [_worker(args, env, True, deadline) for _ in range(probes // 2)]
    res = _worker(args, env, False, deadline)
    last = [_worker(args, env, True, deadline) for _ in range(probes - probes // 2)]
    setups = [r["setup_s"] for r in first + [res] + last]

    if args.trace:
        metrics = res["layers"]
        notes = {name: f"{res['traced_passes']} traced passes" for name in metrics}
    else:
        metrics, notes = end_to_end(args.workload, res, setups)
    print(f"workload {args.workload} seed {args.seed} (slot {workloads.slot_of(args.seed)}), "
          f"trace {args.trace}: {res['attempted']} ops attempted, {res['failed']} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:6s} ({notes[name]})")
    if not args.trace:
        print(wall_record(res, [r["setup_wall_s"] for r in first + [res] + last]))
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
