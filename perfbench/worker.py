"""One fresh benchmark process: import, set up, then run passes.

Started by run.py, never imported by the program. It times ``import
chainopt``, parses every config of the workload and builds every problem
(the set-up), then runs whole passes of the workload's call list until
the requested seconds are measured. The last line of standard output is
one JSON object with the raw measurements; run.py turns them into metrics.

Timings are taken in wall time and also rescaled to a reference machine
speed (calibrate.py): the calibration kernel runs before the first call
of a pass, after every call, and right after the set-up.

With --trace 1, untraced and traced passes alternate. Traced passes run
with the span wrappers of tracing.py installed; the untraced ones measure
the unwrapped program, and the two medians give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import tracing
import workloads

# op_ms.p90 needs ten ops beyond it (see stats.max_tail_percentile)
MIN_OPS = 100
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# calibration kernel runs right after the set-up; their median scales it
SETUP_REPEATS = 5
# relative to the checkout root, and ignored by git
SPANS_DIR = ".bench_out"


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() in the parent just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _machine(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


@dataclass
class PassResult:
    wall_s: float = 0.0  # the whole pass, calibration included
    work_s: float = 0.0  # the calls alone
    scaled_s: float = 0.0  # the calls, at the reference speed
    op_ms: list = field(default_factory=list)  # at the reference speed
    wall_op_ms: list = field(default_factory=list)
    kernel_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    steps: int = 0


def run_pass(harness, calls, configs, expected, tracer=None) -> PassResult:
    """Run the call list once. A call that raises fails all its ops; a
    report that fails its check fails all its ops too. Nothing is dropped."""
    entries = {
        "optimize": harness.run_optimize,
        "gradcheck": harness.run_gradcheck,
        "zlearn": harness.run_zlearn,
    }
    import calibrate  # imports numpy, so only once the set-up is timed

    res = PassResult()
    t_pass = time.perf_counter()
    before = calibrate.sample_ms()
    res.kernel_ms.append(before)
    for call, cfg, exp in zip(calls, configs, expected):
        res.attempted += call.n_ops
        t_call = time.perf_counter()
        report = None
        try:
            if tracer is None:
                report = entries[call.entry](cfg)
            else:
                with tracer.span("harness"):
                    report = entries[call.entry](cfg)
        except Exception:  # a failing call is counted and the pass goes on
            print(f"call {call.label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        call_s = time.perf_counter() - t_call
        after = calibrate.sample_ms()
        res.kernel_ms.append(after)
        factor = calibrate.scale(before, after)
        before = after
        if report is None:
            res.failed += call.n_ops
            continue
        if not workloads.check_output(call, report, exp):
            print(f"call {call.label} failed its output check", file=sys.stderr)
            res.failed += call.n_ops
        ops = workloads.op_latencies_ms(call, report, call_s)
        res.wall_op_ms.extend(ops)
        res.op_ms.extend(v * factor for v in ops)
        res.work_s += call_s
        res.scaled_s += call_s * factor
        res.steps += workloads.sampled_steps(call, report)
    res.wall_s = time.perf_counter() - t_pass
    return res


def _expected(workload: str, seed: int, calls) -> list:
    """Recorded outputs aligned with the calls; None where a call carries
    its own verdict."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    expected = ref[workload][str(workloads.slot_of(seed))]
    if ref["slots"] != workloads.SLOTS or len(expected) != len(calls):
        raise SystemExit("reference.json does not match the workload definitions")
    return expected


def main(argv=None) -> int:
    args = _args(argv)
    t0 = time.perf_counter()
    import chainopt
    from chainopt import harness
    import_s = time.perf_counter() - t0

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(chainopt.__file__).startswith(src + os.sep):
        print(f"chainopt was imported from {chainopt.__file__}, not from ./src", file=sys.stderr)
        return 2

    calls = workloads.calls_for(args.workload, args.seed)
    setup_trace = tracing.Tracer()
    with tracing.Instrumentation(setup_trace) if args.trace else contextlib.nullcontext():
        configs = [harness.parse_config(c.config_text()) for c in calls]
        for cfg in configs:
            harness.build_problem(cfg.problem)
    setup_s = time.time() - args.spawned_at
    import calibrate  # imports numpy, so only once the set-up is timed

    calibrate.kernel()  # the first run pays for numpy's first calls
    setup_kernel_ms = calibrate.sample_ms(SETUP_REPEATS)
    out = {
        "setup_s": setup_s * calibrate.REF_MS / setup_kernel_ms,
        "setup_wall_s": setup_s,
        "setup_kernel_ms": setup_kernel_ms,
        "ref_ms": calibrate.REF_MS,
        "import_s": import_s,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import numpy as np
    import scipy

    expected = _expected(args.workload, args.seed, calls)
    plain, traced = [], []
    pass_trace = tracing.Tracer() if args.trace else None
    while True:
        # A pass is not started when it would end past --seconds, once the
        # minimum passes (and, untraced, the ops p90 needs) are in.
        next_traced = args.trace and len(traced) < len(plain)
        if args.trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
        else:
            enough = len(plain) >= MIN_PASSES and sum(len(p.op_ms) for p in plain) >= MIN_OPS
        if enough:
            elapsed = sum(p.wall_s for p in plain + traced)
            typical = statistics.median(p.wall_s for p in (traced if next_traced else plain))
            if elapsed + typical > args.seconds:
                break
        if next_traced:
            with tracing.Instrumentation(pass_trace):
                traced.append(run_pass(harness, calls, configs, expected, pass_trace))
        else:
            plain.append(run_pass(harness, calls, configs, expected))

    runs = plain + traced
    out.update(
        machine=_machine(np, scipy),
        passes=len(plain),
        traced_passes=len(traced),
        pass_s=[p.scaled_s for p in plain],
        pass_wall_s=[p.work_s for p in plain],
        op_ms=[v for p in plain for v in p.op_ms],
        wall_op_ms=[v for p in plain for v in p.wall_op_ms],
        kernel_ms=[v for p in plain for v in p.kernel_ms],
        pass_steps=[p.steps for p in plain],
        ops_per_pass=sum(c.n_ops for c in calls),
        attempted=sum(p.attempted for p in runs),
        failed=sum(p.failed for p in runs),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        overhead = (statistics.median(p.scaled_s for p in traced)
                    / statistics.median(p.scaled_s for p in plain) - 1.0)
        out["layers"] = tracing.per_layer_metrics(
            tracing.layer_totals(pass_trace), len(traced),
            tracing.layer_totals(setup_trace), import_s, overhead,
        )
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracing.write_spans(
            os.path.join(SPANS_DIR, f"spans-{args.workload}.tsv"),
            {"setup": setup_trace, "passes": pass_trace},
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
