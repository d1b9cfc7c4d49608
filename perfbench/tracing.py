"""Span tracing of the program's layers, installed from the benchmark only.

``Instrumentation`` rebinds the public functions and methods of each
chainopt module to wrappers that record a span per call, and puts every
original back on ``uninstall``. A function is rebound under every module
attribute that holds it, because ``harness`` and other modules import
names directly. The program's own files are not changed.

A span is (name, start, end, parent). Spans stay in memory and are written
out once the run ends. A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

MODULES = ("model", "exact", "mdp", "rollout", "surrogate", "zlearn", "problems", "harness")

# Layer name -> (module, function names).
FUNCTION_LAYERS = {
    "exact.objective": ("exact", ("objective",)),
    "exact.gradient": ("exact", ("exact_gradient", "exact_gradient_bottleneck")),
    "exact.solve": ("exact", (
        "solve_value_episodic", "solve_value_average", "solve_value_timevarying",
        "discounted_occupancy", "stationary_density", "stationary_from_matrix",
    )),
    "exact.fd": ("exact", ("fd_gradient_oracle", "fd_hessian_oracle", "fd_gradient", "fd_hessian")),
    "rollout.generate": ("rollout", ("generate_rollouts",)),
    "rollout.fit_value": ("rollout", ("fit_value_approx",)),
    "rollout.estimate": ("rollout", ("estimate_gradient", "path_gradient", "path_hessian")),
    "surrogate.fisher": ("surrogate", ("fisher_matrix",)),
    "surrogate.chain_iteration": ("surrogate", ("chain_iteration_step",)),
    "zlearn.train": ("zlearn", ("zlearn_baseline", "zlearn_greedy")),
    "zlearn.record": ("zlearn", ("induced_chain", "lmdp_objective", "z_bellman_residual")),
}

# Layer name -> (base class, method names); every class in MODULES that
# derives from the base and defines one of the methods itself is wrapped.
METHOD_LAYERS = {
    "model.transition_matrix": ("ChainModel", ("transition_matrix",)),
    "model.score_table": ("ChainModel", ("score_table",)),
    "model.cost_table": ("CostModel", ("value_table", "grad_table")),
}

SURROGATE_CLASSES = ("ExactSurrogate", "SampledSurrogate", "ClippedSurrogate")

# Every public function and method defined in these modules is wrapped
# under the module's name, unless a layer above already claims it.
WHOLE_MODULE_LAYERS = {"problems": "problems.build", "mdp": "mdp"}

HARNESS = "harness"


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """Records nested spans of one thread in memory."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = []  # per span: dict of counters, or None
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.counts.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, idx: int, **counts):
        c = self.counts[idx]
        if c is None:
            c = self.counts[idx] = {}
        for key, value in counts.items():
            c[key] = c.get(key, 0) + value

    def outermost_in_layer(self, idx: int) -> bool:
        """False when the span's parent belongs to the same layer, as for a
        time-varying chain that forwards to a stage chain."""
        parent = self.parents[idx]
        return parent < 0 or self.names[parent] != self.names[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)


def self_times(starts, ends, parents) -> list:
    """Per span: its duration minus the union of its children's intervals,
    clipped to the span."""
    children = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children[i], key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def layer_totals(tracer: Tracer) -> dict:
    """Layer name -> totals. ``calls`` counts only spans whose parent is in
    another layer, so a forwarding override counts once."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    totals = {}
    for i, name in enumerate(tracer.names):
        t = totals.setdefault(name, LayerTotals())
        t.self_s += selfs[i]
        if tracer.outermost_in_layer(i):
            t.calls += 1
        for key, value in (tracer.counts[i] or {}).items():
            t.counts[key] = t.counts.get(key, 0) + value
    return totals


def write_spans(path: str, phases: dict):
    """Write spans as tab-separated rows: phase, index, parent, name,
    start and end in microseconds from the phase's first span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phase\tindex\tparent\tname\tstart_us\tend_us\n")
        for phase, tracer in phases.items():
            t0 = tracer.starts[0] if tracer.starts else 0.0
            for i, name in enumerate(tracer.names):
                fh.write(
                    f"{phase}\t{i}\t{tracer.parents[i]}\t{name}\t"
                    f"{(tracer.starts[i] - t0) * 1e6:.1f}\t{(tracer.ends[i] - t0) * 1e6:.1f}\n"
                )


# ---------------------------------------------------------------------------
# Counters read from call arguments and results
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count_score_table(tracer, idx, args, kwargs, result):
    # computed from the array shape: n * n * p float64 entries
    tracer.add(idx, bytes_computed=int(result.nbytes))


def _count_fisher(tracer, idx, args, kwargs, result):
    # the exact form contracts "x,xy,xyp,xyq->pq": n^2 p^2 multiply-adds;
    # the sampled form does T p^2 per rollout
    problem, batch = args[0], _arg(args, kwargs, 2, "batch")
    p = problem.n_params
    if batch is None:
        n = problem.chain.n_states
        flops = n * n * p * p
    else:
        flops = sum(r.n_steps for r in batch.rollouts) * p * p
    tracer.add(idx, flops_computed=flops)


def _count_rollouts(tracer, idx, args, kwargs, result):
    truncated = 0
    if result.mode == "terminal":
        truncated = sum(1 for r in result.rollouts if r.end_reason == "horizon-cap")
    tracer.add(idx, steps=result.total_steps(), rollouts=len(result.rollouts), truncated=truncated)


def _count_chain_iteration(tracer, idx, args, kwargs, result):
    tracer.add(idx, inner_iters=int(result.inner_iters), accepted=int(bool(result.accepted)))


def _count_zlearn(tracer, idx, args, kwargs, result):
    stats = result[1]
    tracer.add(idx, steps=int(stats.steps), floored=int(stats.n_floored))


COUNTERS = {
    "model.score_table": _count_score_table,
    "surrogate.fisher": _count_fisher,
    "rollout.generate": _count_rollouts,
    "surrogate.chain_iteration": _count_chain_iteration,
    "zlearn.train": _count_zlearn,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------


def _wrap(fn, layer: str, tracer: Tracer):
    counter = COUNTERS.get(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None and tracer.outermost_in_layer(idx):
            counter(tracer, idx, args, kwargs, result)
        return result

    return traced


def _public_functions(obj, module_name: str):
    """Public plain functions defined in obj (a module or a class) by the
    module module_name, as (attribute name, function)."""
    for attr, value in vars(obj).items():
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ == module_name:
            yield attr, value


def _classes(module):
    return [
        v for v in vars(module).values()
        if inspect.isclass(v) and v.__module__ == module.__name__
    ]


def plan(package="chainopt") -> list:
    """The (layer, owner class or None, attribute, original) entries to wrap.
    Class entries are rebound on the class; function entries under every
    module attribute that holds the function."""
    mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    entries = []
    claimed = set()

    def claim(layer, owner, attr, fn):
        key = (id(owner), attr) if owner is not None else id(fn)
        if key not in claimed:
            claimed.add(key)
            entries.append((layer, owner, attr, fn))

    classes = [c for m in mods.values() for c in _classes(m)]
    for layer, (base_name, methods) in METHOD_LAYERS.items():
        base = getattr(mods["model"], base_name)
        for cls in classes:
            if issubclass(cls, base):
                for attr in methods:
                    if inspect.isfunction(vars(cls).get(attr)):
                        claim(layer, cls, attr, vars(cls)[attr])
    for name in SURROGATE_CLASSES:
        cls = getattr(mods["surrogate"], name)
        for attr in ("value", "grad", "hess"):
            if inspect.isfunction(vars(cls).get(attr)):
                claim("surrogate.eval", cls, attr, vars(cls)[attr])
    for layer, (mod, names) in FUNCTION_LAYERS.items():
        for attr in names:
            claim(layer, None, attr, getattr(mods[mod], attr))
    for mod, layer in WHOLE_MODULE_LAYERS.items():
        module = mods[mod]
        for attr, fn in _public_functions(module, module.__name__):
            claim(layer, None, attr, fn)
        for cls in _classes(module):
            for attr, fn in _public_functions(cls, module.__name__):
                claim(layer, cls, attr, fn)
    return entries


class Instrumentation:
    """Rebinds the planned functions to span-recording wrappers."""

    def __init__(self, tracer: Tracer, package="chainopt"):
        self.tracer = tracer
        self.entries = plan(package)
        pkg = importlib.import_module(package)
        self.modules = [pkg] + [importlib.import_module(f"{package}.{m}") for m in MODULES]
        self._undo = []

    def install(self):
        if self._undo:
            raise RuntimeError("instrumentation is already installed")
        for layer, owner, attr, fn in self.entries:
            wrapper = _wrap(fn, layer, self.tracer)
            if owner is not None:
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in self.modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num, den) -> float:
    # an idle layer reports 0 rather than an undefined ratio
    return num / den if den else 0.0


def per_layer_metrics(totals: dict, n_passes: int, setup: dict, import_s: float,
                      overhead_frac: float) -> dict:
    """Metric name -> [value, unit]. Counts and times are per pass of the
    workload's call list, so runs of different length compare; set-up
    figures are per set-up."""
    out = {}

    def get(layer):
        return totals.get(layer, LayerTotals())

    def put(name, value, unit):
        out[name] = [value, unit]

    def calls_and_self(layer, prefix=None):
        prefix = prefix or layer
        put(f"{prefix}.calls", get(layer).calls / n_passes, "count")
        put(f"{prefix}.self_ms", 1000.0 * get(layer).self_s / n_passes, "ms")

    def count(layer, key):
        return get(layer).counts.get(key, 0)

    for layer in ("model.score_table", "model.transition_matrix", "model.cost_table",
                  "exact.gradient", "exact.solve", "exact.objective", "exact.fd",
                  "surrogate.fisher", "surrogate.eval", "rollout.generate",
                  "rollout.fit_value", "rollout.estimate", "zlearn.record"):
        calls_and_self(layer)
    calls_and_self("mdp")
    put("model.score_table.bytes_computed", count("model.score_table", "bytes_computed") / n_passes, "bytes")
    put("surrogate.fisher.flops_computed", count("surrogate.fisher", "flops_computed") / n_passes, "flop")

    gen = get("rollout.generate")
    put("rollout.generate.steps", count("rollout.generate", "steps") / n_passes, "count")
    put("rollout.generate.steps_per_s", _ratio(count("rollout.generate", "steps"), gen.self_s), "1/s")
    put("rollout.truncated_frac",
        _ratio(count("rollout.generate", "truncated"), count("rollout.generate", "rollouts")), "ratio")

    ci = get("surrogate.chain_iteration")
    put("surrogate.chain_iteration.calls", ci.calls / n_passes, "count")
    put("surrogate.chain_iteration.inner_iters", count("surrogate.chain_iteration", "inner_iters") / n_passes, "count")
    put("surrogate.chain_iteration.accept_frac", _ratio(count("surrogate.chain_iteration", "accepted"), ci.calls), "ratio")

    train = get("zlearn.train")
    put("zlearn.train.self_ms", 1000.0 * train.self_s / n_passes, "ms")
    put("zlearn.train.steps", count("zlearn.train", "steps") / n_passes, "count")
    put("zlearn.train.steps_per_s", _ratio(count("zlearn.train", "steps"), train.self_s), "1/s")
    put("zlearn.train.floored", count("zlearn.train", "floored") / n_passes, "count")

    put("setup.import_s", import_s, "s")
    put("problems.build.self_ms", 1000.0 * setup.get("problems.build", LayerTotals()).self_s, "ms")
    put("harness.self_ms", 1000.0 * get(HARNESS).self_s / n_passes, "ms")
    put("trace.overhead_frac", overhead_frac, "ratio")
    return out
