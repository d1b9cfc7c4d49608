"""The benchmark's four workloads: configs, output checks and op timings.

A workload is a fixed list of calls into the public harness entry points
(``run_optimize``, ``run_gradcheck``, ``run_zlearn``). One pass runs the
list once. Every problem seed is derived from the workload seed, and the
program only ever sees the generated config documents.

Op counts per config are deliberately unequal. Each workload mixes fast
and slow ops, and with equal counts the median op would sit exactly on the
gap between the two groups, where it jumps between them from run to run.
With 67-80% fast ops the median lies inside the fast group and the 90th
percentile inside the slow group.

This module imports nothing from the program or numpy, so the launcher can
use it before any worker process starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Workload seeds are reduced to this many slots. Each slot has recorded
# reference outputs in reference.json, so every seed the benchmark can be
# given maps onto problems whose outputs were checked at this commit.
SLOTS = 32

# Problem seeds per config in one pass. Op cost and rollout lengths vary
# from one random problem to the next; pooling several problems per pass
# keeps a pass's work nearly the same across workload seeds.
SEEDS_PER_CONFIG = 3

# Relative tolerance on a recorded final objective. Recording and checking
# run the same code with pinned BLAS threads, so the values agree to the
# last digit; the slack admits a later change that reorders sums.
FINAL_J_REL_TOL = 1e-6

# Optimizer methods that draw a rollout batch on every curve row, the
# closing row included.
SAMPLED_METHODS = ("alg1-sgd", "pco")


@dataclass(frozen=True)
class Call:
    """One call into the harness and the ops it is made of."""

    entry: str  # "optimize", "gradcheck" or "zlearn"
    label: str
    problem: dict
    algorithm: dict

    @property
    def n_ops(self) -> int:
        if self.entry == "gradcheck":
            return 1
        if self.entry == "zlearn":
            return self.algorithm["zlearn_steps"] // self.algorithm["record_every"]
        if self.algorithm["method"] in SAMPLED_METHODS:
            return self.algorithm["iterations"] + 1
        return self.algorithm["iterations"]

    def config_text(self) -> str:
        # output.timing turns on the curve's wall_ms column, which the op
        # latencies are read from; nothing is written to disk.
        return json.dumps(
            {"problem": self.problem, "algorithm": self.algorithm, "output": {"timing": True}},
            sort_keys=True,
        )


def slot_of(seed: int) -> int:
    return seed % SLOTS


def _softmax(setting: str, n: int, seed: int) -> dict:
    return {"kind": "softmax-tabular", "setting": setting, "n_states": n, "seed": seed}


def _exact_descent(base: int) -> list:
    calls = []
    for k in range(SEEDS_PER_CONFIG):
        seed = base + 10 * k
        calls += [
            Call("optimize", f"exact-gd/first-exit/n96/s{k}", _softmax("first-exit", 96, seed),
                 {"method": "exact-gd", "iterations": 3, "step_size": 0.3}),
            Call("optimize", f"exact-gd/average/n96/s{k}", _softmax("average", 96, seed + 1),
                 {"method": "exact-gd", "iterations": 3, "step_size": 0.3}),
            Call("optimize", f"chain-iteration/first-exit/n48/s{k}", _softmax("first-exit", 48, seed + 2),
                 {"method": "chain-iteration", "iterations": 1, "inner_iterations": 10}),
            Call("optimize", f"natural/first-exit/n32/s{k}", _softmax("first-exit", 32, seed + 3),
                 {"method": "natural", "iterations": 1, "step_size": 0.01, "damping": 0.1}),
        ]
    return calls


def _gradcheck(base: int) -> list:
    calls = []
    # small problems: eight seeds each, about 20 ms per check
    for k in range(8):
        seed = base + 10 * k
        for setting in ("first-exit", "average", "episodic"):
            calls.append(Call("gradcheck", f"softmax/{setting}/n12/s{k}",
                              _softmax(setting, 12, seed), {"method": "exact-gd"}))
        for setting in ("episodic", "average"):
            calls.append(Call("gradcheck", f"smdp/{setting}/n12/s{k}",
                              {"kind": "smdp-random", "setting": setting, "n_states": 12,
                               "n_actions": 3, "seed": seed + 1},
                              {"method": "exact-gd"}))
    # larger problems: two seeds each, 60-110 ms per check, so that 40 of
    # the 50 checks in a pass are small ones
    for k in range(2):
        seed = base + 100 + 10 * k
        for setting in ("first-exit", "average", "episodic"):
            calls.append(Call("gradcheck", f"softmax/{setting}/n24/s{k}",
                              _softmax(setting, 24, seed), {"method": "exact-gd"}))
        calls.append(Call("gradcheck", f"timevarying/n8h10/s{k}",
                          {"kind": "timevarying-tabular", "setting": "time-varying",
                           "n_states": 8, "horizon": 10, "seed": seed + 1},
                          {"method": "exact-gd"}))
        calls.append(Call("gradcheck", f"gridworld/size6/s{k}",
                          {"kind": "gridworld-lmdp", "setting": "first-exit", "size": 6,
                           "seed": seed + 2},
                          {"method": "exact-gd"}))
    return calls


def _sampled(base: int) -> list:
    sgd = {"method": "alg1-sgd", "iterations": 3, "batch_size": 256}
    calls = []
    for k in range(SEEDS_PER_CONFIG):
        seed = base + 10 * k
        calls += [
            Call("optimize", f"alg1-sgd/first-exit/n32/s{k}", _softmax("first-exit", 32, seed), sgd),
            Call("optimize", f"alg1-sgd/episodic/n32/s{k}", _softmax("episodic", 32, seed + 1), sgd),
            Call("optimize", f"pco/first-exit/n32/s{k}", _softmax("first-exit", 32, seed + 2),
                 {"method": "pco", "iterations": 1, "batch_size": 256, "inner_iterations": 10}),
            Call("optimize", f"alg1-sgd/time-varying/n16h20/s{k}",
                 {"kind": "timevarying-tabular", "setting": "time-varying", "n_states": 16,
                  "horizon": 20, "seed": seed + 3},
                 {"method": "alg1-sgd", "iterations": 2, "batch_size": 256}),
        ]
    return calls


def _zlearn(base: int) -> list:
    # Size 5, not 6: at size 6 and 200 000 steps, 10 of the 96 walks over
    # all slots end more than 5% from the exact Z (worst 0.22, still 0.17
    # at 400 000 steps). At size 5 all 96 pass, the worst at 0.029.
    def grid(seed):
        return {"kind": "gridworld-lmdp", "setting": "first-exit", "size": 5, "seed": seed}

    every = {"record_every": 4000}
    # Four 100 000-step baseline walks and two 48 000-step greedy walks
    # give 100 fast and 24 slow record intervals (a greedy step costs about
    # four baseline steps), so the median is a baseline interval and the
    # 90th percentile a greedy one. The baseline walks are split in four
    # so that the calibration kernel runs around every 100 000 steps (see
    # calibrate.py). The greedy walks run on the grids of the third and
    # fourth baseline walks. Every slot passes with this budget: the worst
    # baseline walk ends 0.046 from the exact Z. The greedy budget is
    # tight: at 24 000 steps 3 of 128 greedy walks miss the 5% check, and
    # at 48 000 steps the walk on grid seed 5004 misses it (see README.md).
    calls = [
        Call("zlearn", f"zlearn-baseline/size5/{k}", grid(base + k),
             {"method": "zlearn-baseline", "zlearn_steps": 100_000, **every})
        for k in range(4)
    ]
    calls += [
        Call("zlearn", f"zlearn-greedy/size5/{k}", grid(base + 2 + k),
             {"method": "zlearn-greedy", "zlearn_steps": 48_000, **every})
        for k in range(2)
    ]
    return calls


WORKLOADS = {
    "exact-descent": _exact_descent,
    "gradcheck": _gradcheck,
    "sampled": _sampled,
    "zlearn": _zlearn,
}

# Workloads whose ops sample transitions; the others report ops per second
# as their steps_per_s.
SAMPLING = ("sampled", "zlearn")


def calls_for(workload: str, seed: int) -> list:
    """The fixed call list of one workload at one seed."""
    return WORKLOADS[workload](1000 * slot_of(seed))


def op_latencies_ms(call: Call, report: dict, call_s: float) -> list:
    """Per-op wall times of one call that took call_s seconds.

    A gradient check is one op, timed around the call. For optimizers an
    op is one curve row, read from its wall_ms. Every row of a sampled
    method is an op: the closing row, which takes no step, still draws a
    full batch, fits the value baseline and estimates the gradient. The
    closing row of an exact method only evaluates the final parameters
    and is not an op. For Z-learning an op is one record interval, the
    difference of consecutive cumulative wall_ms values. The harness
    rounds wall_ms to whole milliseconds.
    """
    if call.entry == "gradcheck":
        return [1000.0 * call_s]
    rows = report["curve"].rows
    if call.entry == "zlearn":
        return [float(b.wall_ms - a.wall_ms) for a, b in zip(rows, rows[1:])]
    return [float(r.wall_ms) for r in rows[:call.n_ops]]


def sampled_steps(call: Call, report: dict) -> int:
    """Transitions the call sampled: rollout steps or Z-walk steps."""
    if call.entry == "zlearn":
        return call.algorithm["zlearn_steps"]
    return int(report.get("rollout_steps", 0))


def reference_entry(report: dict) -> list:
    return [report["final_J"], report["rollout_steps"]]


def check_output(call: Call, report: dict, expected) -> bool:
    """True when a returned report is correct.

    Gradient checks and Z-learning carry their own verdict (analytic
    gradient against central differences; Z within 5% of the exact
    solve). Optimizer runs must reproduce the recorded final objective to
    FINAL_J_REL_TOL and the recorded rollout step count exactly.
    """
    if call.entry in ("gradcheck", "zlearn"):
        return bool(report["pass"])
    ref_j, ref_steps = expected
    j = report["final_J"]
    return abs(j - ref_j) <= FINAL_J_REL_TOL * max(1.0, abs(ref_j)) and report["rollout_steps"] == ref_steps
