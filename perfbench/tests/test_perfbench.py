"""Tests of the benchmark's own code: span arithmetic, the percentile rule,
restoring the program after a traced pass, and the metric names.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap (union 4), [8, 12]
    # sticks out of the parent (2 inside); grandchild [1.5, 2.5] lies in a child
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_disjoint_nesting_sums_to_root_duration():
    starts = [0.0, 1.0, 2.0, 4.0, 6.0]
    ends = [10.0, 5.0, 3.0, 4.5, 9.0]
    parents = [-1, 0, 1, 1, 0]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs == pytest.approx([3.0, 2.5, 1.0, 0.5, 3.0])
    assert sum(selfs) == pytest.approx(10.0)


def test_layer_totals_count_forwarding_calls_once():
    tr = tracing.Tracer()
    tr.names = ["harness", "model.score_table", "model.score_table", "exact.solve"]
    tr.starts = [0.0, 1.0, 1.5, 6.0]
    tr.ends = [10.0, 5.0, 4.0, 7.0]
    tr.parents = [-1, 0, 1, 0]
    tr.counts = [None, {"bytes_computed": 8}, None, None]
    totals = tracing.layer_totals(tr)
    assert totals["model.score_table"].calls == 1
    assert totals["model.score_table"].self_s == pytest.approx(4.0)
    assert totals["model.score_table"].counts == {"bytes_computed": 8}
    assert totals["harness"].self_s == pytest.approx(5.0)


def test_tracer_records_parents_of_live_spans():
    tr = tracing.Tracer()
    with tr.span("a"):
        with tr.span("b"):
            pass
        with tr.span("c"):
            pass
    with tr.span("d"):
        pass
    assert tr.parents == [-1, 0, 0, -1]
    assert all(e >= s for s, e in zip(tr.starts, tr.ends))


# ---------------------------------------------------------------------------
# Percentile rule
# ---------------------------------------------------------------------------


def test_quantile_matches_statistics_inclusive():
    import statistics

    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3, 2.3]
    cuts = statistics.quantiles(xs, n=10, method="inclusive")
    assert stats.quantile(xs, 0.9) == pytest.approx(cuts[8])
    assert stats.quantile(xs, 0.5) == pytest.approx(statistics.median(xs))


@pytest.mark.parametrize("n", list(range(1, 400)))
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    pct = stats.max_tail_percentile(n)
    if pct is None:
        # not even the median has ten samples beyond it
        assert stats.samples_beyond(n, 50) < stats.TAIL_SAMPLES
        return
    beyond = sum(v > stats.quantile(values, pct / 100) for v in values)
    assert beyond >= stats.TAIL_SAMPLES
    assert beyond == stats.samples_beyond(n, pct)
    if pct < 90:
        assert stats.samples_beyond(n, pct + 1) < stats.TAIL_SAMPLES


def test_p90_needs_about_one_hundred_ops():
    assert stats.max_tail_percentile(98) == 90
    assert stats.max_tail_percentile(91) == 89
    assert stats.max_tail_percentile(10) is None
    assert worker.MIN_OPS >= 98


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_scale_is_reference_over_mean_kernel_time():
    assert calibrate.scale(calibrate.REF_MS, calibrate.REF_MS) == 1.0
    assert calibrate.scale(2 * calibrate.REF_MS, 2 * calibrate.REF_MS) == 0.5
    assert calibrate.scale(calibrate.REF_MS, 3 * calibrate.REF_MS) == 0.5


def test_sample_is_the_median_kernel_run(monkeypatch):
    # three kernel runs of 1, 5 and 2 ms
    clock = iter([0.0, 0.001, 1.0, 1.005, 2.0, 2.002])
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(calibrate, "kernel", lambda: 0.0)
    assert calibrate.sample_ms(3) == pytest.approx(2.0)


def test_pass_scales_each_call_by_the_kernel_around_it(monkeypatch):
    from chainopt import harness

    # kernel samples: before the first call, then after each call
    samples = iter([calibrate.REF_MS, 3 * calibrate.REF_MS, calibrate.REF_MS])
    monkeypatch.setattr(calibrate, "sample_ms", lambda *a: next(samples))
    calls = [c for c in workloads.calls_for("gradcheck", 0) if "n12/s0" in c.label][:2]
    configs = [harness.parse_config(c.config_text()) for c in calls]
    res = worker.run_pass(harness, calls, configs, [None] * len(calls))
    assert res.kernel_ms == [calibrate.REF_MS, 3 * calibrate.REF_MS, calibrate.REF_MS]
    # both calls sat between one sample at REF_MS and one at 3 * REF_MS
    assert res.op_ms == pytest.approx([0.5 * v for v in res.wall_op_ms])
    assert res.scaled_s == pytest.approx(0.5 * res.work_s)
    assert res.work_s <= res.wall_s


# ---------------------------------------------------------------------------
# Instrumentation is removed after a traced pass
# ---------------------------------------------------------------------------


def _snapshot():
    import chainopt

    mods = [chainopt] + [getattr(chainopt, m) for m in tracing.MODULES]
    snap = {}
    for module in mods:
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    snap[(module.__name__, name, attr)] = member
    return snap


def test_traced_pass_restores_every_rebound_attribute():
    from chainopt import exact, harness, model

    before = _snapshot()
    calls = [c for c in workloads.calls_for("gradcheck", 0) if "n12/s0" in c.label]
    configs = [harness.parse_config(c.config_text()) for c in calls]
    tracer = tracing.Tracer()
    instr = tracing.Instrumentation(tracer)
    with instr:
        assert harness.exact_gradient is not before[("chainopt.harness", "exact_gradient")]
        assert exact.objective is not before[("chainopt.exact", "objective")]
        assert vars(model.ChainModel)["score_table"] is not before[
            ("chainopt.model", "ChainModel", "score_table")]
        res = worker.run_pass(harness, calls, configs, [None] * len(calls), tracer)
    assert res.failed == 0 and res.attempted == len(calls)
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    layers = set(tracer.names)
    assert {"harness", "exact.objective", "exact.solve", "model.transition_matrix", "mdp"} <= layers
    # every span but the harness roots has a parent
    assert all(p >= 0 for n, p in zip(tracer.names, tracer.parents) if n != "harness")


def test_install_twice_is_refused():
    instr = tracing.Instrumentation(tracing.Tracer())
    with instr:
        with pytest.raises(RuntimeError):
            instr.install()


# ---------------------------------------------------------------------------
# Metric names agree with BENCHMARK.json
# ---------------------------------------------------------------------------


def test_per_layer_names_match_benchmark_json():
    names = set(tracing.per_layer_metrics({}, 1, {}, 1.0, 0.0))
    assert names == {m["name"] for m in _benchmark_json()["per_layer"]}


def test_end_to_end_names_match_benchmark_json():
    res = {
        "op_ms": [float(v) for v in range(120)], "pass_s": [1.0, 1.2, 1.1],
        "wall_op_ms": [float(v) for v in range(120)], "pass_wall_s": [1.0, 1.2, 1.1],
        "kernel_ms": [2.0, 2.5], "ref_ms": 2.5,
        "pass_steps": [10, 10, 10], "ops_per_pass": 40, "passes": 3,
        "peak_rss_mb": 100.0, "attempted": 120, "failed": 0,
    }
    spec = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    for workload in workloads.WORKLOADS:
        metrics, notes = run.end_to_end(workload, res, [1.0, 1.1, 1.2])
        assert {k: unit for k, (_, unit) in metrics.items()} == spec
        assert notes.keys() == metrics.keys()
        assert run.wall_record(res, [1.0]).startswith("wall: ")
    assert _benchmark_json()["workloads"] and {
        w["name"] for w in _benchmark_json()["workloads"]} == set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def test_same_seed_gives_same_configs_and_slots_differ():
    for workload in workloads.WORKLOADS:
        a = [c.config_text() for c in workloads.calls_for(workload, 3)]
        b = [c.config_text() for c in workloads.calls_for(workload, 3 + workloads.SLOTS)]
        c = [c.config_text() for c in workloads.calls_for(workload, 4)]
        assert a == b and a != c


def test_sampled_methods_count_the_closing_row_as_an_op():
    class Row:
        def __init__(self, wall_ms):
            self.wall_ms = wall_ms

    class Curve:
        rows = [Row(10), Row(11), Row(12)]  # two iterations and the closing row

    report = {"curve": Curve()}
    for method, n_ops in (("alg1-sgd", 3), ("pco", 3), ("exact-gd", 2), ("natural", 2)):
        call = workloads.Call("optimize", method, {}, {"method": method, "iterations": 2})
        assert call.n_ops == n_ops
        assert workloads.op_latencies_ms(call, report, 0.04) == [10.0, 11.0, 12.0][:n_ops]


def test_reference_covers_every_slot():
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    assert ref["slots"] == workloads.SLOTS
    for workload in workloads.WORKLOADS:
        for slot in range(workloads.SLOTS):
            calls = workloads.calls_for(workload, slot)
            expected = ref[workload][str(slot)]
            assert [e is not None for e in expected] == [c.entry == "optimize" for c in calls]


def test_launcher_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "zlearn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
