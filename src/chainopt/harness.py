"""Config-driven experiment runner.

One JSON document describes a problem, an algorithm, and output paths.
Unknown fields are rejected with their dotted path so typos surface as
config errors instead of silently running defaults. All randomness is
derived from problem.seed through numpy seed sequences: the problem
builders consume the seed directly, batch k of a sampled optimizer uses
entropy [seed, 101, k], training walks use [seed, 201], and probe draws
use [seed, 301]. Reruns of the same config are byte-identical because
wall-clock columns are zeroed unless output.timing is set.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError
from .exact import (
    exact_gradient,
    exact_gradient_bottleneck,
    fd_gradient_oracle,
    objective,
    solve,
)
from .mdp import (
    SoftmaxPolicy,
    lmdp_deterministic_pair,
    map_stochastic_mdp,
)
from .model import (
    Average,
    EpisodicDiscounted,
    FirstExit,
    Problem,
    TabularInitial,
    TimeVarying,
)
from .problems import (
    canonical_two_state,
    gaussian_linear_problem,
    gridworld_lmdp,
    random_mdp,
    random_smdp_problem,
    random_softmax_problem,
    random_timevarying_problem,
)
from .rollout import (
    _stderr,
    effective_gamma,
    estimate_gradient,
    fit_value_approx,
    generate_rollouts,
)
from .surrogate import (
    ClippedSurrogate,
    ExactSurrogate,
    SampledSurrogate,
    chain_iteration_step,
    fisher_matrix,
    natural_gradient,
)
from .zlearn import (
    TabularZ,
    induced_chain,
    lmdp_objective,
    solve_z_firstexit,
    z_bellman_residual,
    z_problem,
    z_to_text,
    zlearn_baseline,
    zlearn_greedy,
)

PROBLEM_KINDS = (
    "softmax-tabular",
    "gridworld-lmdp",
    "gaussian-linear",
    "smdp-random",
    "timevarying-tabular",
)

METHODS = (
    "exact-gd",
    "alg1-sgd",
    "chain-iteration",
    "pco",
    "natural",
    "newton-surrogate",
    "zlearn-baseline",
    "zlearn-greedy",
)

SETTING_NAMES = ("episodic", "first-exit", "average", "time-varying")

# Which settings a problem kind can be built with, and which kinds each
# method can run on. Sampled-surrogate and exact-Fisher methods need a
# finite state space and a stationary setting; Z-learning needs the
# control-cost gridworld.
KIND_SETTINGS = {
    "softmax-tabular": ("episodic", "first-exit", "average"),
    "gridworld-lmdp": ("first-exit",),
    "gaussian-linear": ("episodic",),
    "smdp-random": ("episodic", "average"),
    "timevarying-tabular": ("time-varying",),
}
METHOD_KINDS = {
    "exact-gd": ("softmax-tabular", "gridworld-lmdp", "smdp-random", "timevarying-tabular"),
    "alg1-sgd": PROBLEM_KINDS,
    "chain-iteration": ("softmax-tabular", "smdp-random", "gridworld-lmdp"),
    "pco": ("softmax-tabular", "smdp-random", "gridworld-lmdp"),
    "natural": ("softmax-tabular", "smdp-random", "gridworld-lmdp"),
    "newton-surrogate": ("softmax-tabular", "smdp-random", "gridworld-lmdp"),
    "zlearn-baseline": ("gridworld-lmdp",),
    "zlearn-greedy": ("gridworld-lmdp",),
}

GRADCHECK_THRESHOLD = 1e-5
ZLEARN_PASS_REL = 0.05
CSV_HEADER = "iter,J,grad_norm,wall_ms,steps"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# The JSON types a config field takes, by its annotation; a bool is
# neither an integer nor a number here.
_JSON_TYPES = {
    "bool": ((bool,), "a boolean"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def _field_types(cls, path: str, given) -> dict:
    """Field name -> annotation of the config dataclass cls, after refusing
    a section that is not an object and a name that is no field of cls."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path} section must be an object")
    known = {f.name: f.type for f in fields(cls)}
    for key in given:
        if key not in known:
            raise ConfigError(f"unknown config field {path}.{key}")
    return known


def _typed(path: str, value, kind: str):
    types, noun = _JSON_TYPES[kind]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
        raise ConfigError(f"{path} must be {noun}")
    return float(value) if kind == "float" else value


def _section(cls, path: str, given, **defaults):
    """The config dataclass cls built from the JSON object given, whose
    values are checked against the annotations in field order. A field
    that given lacks takes its value from defaults, else the dataclass
    default."""
    values = dict(defaults)
    for name, kind in _field_types(cls, path, given).items():
        if name in given:
            values[name] = _typed(f"{path}.{name}", given[name], kind)
    return cls(**values)


@dataclass
class ProblemConfig:
    kind: str
    setting: str
    gamma: float = 0.9
    horizon: int = 10
    n_states: int = 8
    n_actions: int = 3
    size: int = 5
    step_cost: float = 0.002
    n_dims: int = 2
    canonical: bool = False
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemConfig":
        # kind is checked ahead of the other fields: setting's default depends on it
        _field_types(cls, "problem", d)
        if "kind" not in d:
            raise ConfigError("problem.kind is required")
        kind = _typed("problem.kind", d["kind"], "str")
        if kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {kind!r}")
        cfg = _section(cls, "problem", d, setting=KIND_SETTINGS[kind][0])
        cfg.validate()
        return cfg

    def validate(self):
        if self.setting not in SETTING_NAMES:
            raise ConfigError(
                f"problem.setting must be one of {SETTING_NAMES}, got {self.setting!r}"
            )
        if self.setting not in KIND_SETTINGS[self.kind]:
            raise ConfigError(
                f"problem.setting {self.setting!r} is not available for kind {self.kind!r}"
            )
        # Discount 0 is the degenerate one-step objective; 1 belongs to the
        # exit and average settings which ignore this field.
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"problem.gamma must lie in [0, 1], got {self.gamma}")
        if self.setting == "episodic" and self.gamma >= 1.0:
            raise ConfigError("problem.gamma must be below 1 in the episodic setting")
        if self.horizon < 1:
            raise ConfigError("problem.horizon must be at least 1")
        if self.n_states < 2:
            raise ConfigError("problem.n_states must be at least 2")
        if self.n_actions < 1:
            raise ConfigError("problem.n_actions must be at least 1")
        if self.size < 2:
            raise ConfigError("problem.size must be at least 2")
        if self.step_cost < 0:
            raise ConfigError("problem.step_cost must be non-negative")
        if self.n_dims < 1:
            raise ConfigError("problem.n_dims must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"problem.seed must be non-negative, got {self.seed}")
        if self.canonical and self.kind != "softmax-tabular":
            raise ConfigError("problem.canonical only applies to softmax-tabular")
        if self.canonical and self.setting != "first-exit":
            raise ConfigError("problem.canonical requires the first-exit setting")


@dataclass
class AlgorithmConfig:
    method: str = "exact-gd"
    iterations: int = 50
    step_size: float = 0.1
    batch_size: int = 256
    horizon_cap: int = 1000
    clip_radius: float = 0.2
    damping: float = 1e-8
    baseline: bool = True
    kappa: float = 1.0
    inner_iterations: int = 30
    use_adam: bool = False
    zlearn_steps: int = 100_000
    record_every: int = 1000
    double_sample: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "AlgorithmConfig":
        cfg = _section(cls, "algorithm", d)
        cfg.validate()
        return cfg

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"algorithm.method must be one of {METHODS}, got {self.method!r}")
        if self.iterations < 0:
            raise ConfigError("algorithm.iterations must be non-negative")
        if self.step_size <= 0:
            raise ConfigError("algorithm.step_size must be positive")
        if self.batch_size < 1:
            raise ConfigError("algorithm.batch_size must be at least 1")
        if self.horizon_cap < 1:
            raise ConfigError("algorithm.horizon_cap must be at least 1")
        if not 0.0 < self.clip_radius < 1.0:
            raise ConfigError("algorithm.clip_radius must lie in (0, 1)")
        if self.damping < 0:
            raise ConfigError("algorithm.damping must be non-negative")
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError("algorithm.kappa must lie in [0, 1]")
        if self.inner_iterations < 1:
            raise ConfigError("algorithm.inner_iterations must be at least 1")
        if self.zlearn_steps < 1:
            raise ConfigError("algorithm.zlearn_steps must be at least 1")
        if self.record_every < 1:
            raise ConfigError("algorithm.record_every must be at least 1")


@dataclass
class OutputConfig:
    curve_csv: str = "curve.csv"
    report_json: str = "report.json"
    z_table: str = "z.txt"
    theta_json: str = "theta.json"
    timing: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "OutputConfig":
        return _section(cls, "output", d)


@dataclass
class ExperimentConfig:
    problem: ProblemConfig
    algorithm: AlgorithmConfig
    output: OutputConfig

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config document must be a JSON object")
        for key in d:
            if key not in ("problem", "algorithm", "output"):
                raise ConfigError(f"unknown config field {key}")
        if "problem" not in d:
            raise ConfigError("problem section is required")
        cfg = cls(
            problem=ProblemConfig.from_dict(d["problem"]),
            algorithm=AlgorithmConfig.from_dict(d.get("algorithm", {})),
            output=OutputConfig.from_dict(d.get("output", {})),
        )
        cfg.validate()
        return cfg

    def validate(self):
        method, kind = self.algorithm.method, self.problem.kind
        if kind not in METHOD_KINDS[method]:
            raise ConfigError(
                f"algorithm.method {method!r} cannot run on problem.kind {kind!r}"
            )
        if self.algorithm.baseline and kind == "gaussian-linear":
            raise ConfigError(
                "the tabular value baseline needs a finite state space; "
                "set algorithm.baseline false for gaussian-linear"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def parse_config(text: str) -> ExperimentConfig:
    """Parse one JSON document into a validated config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def serialize_config(config: ExperimentConfig) -> str:
    """Inverse of parse_config; all defaults are materialized."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------


def _setting_object(cfg: ProblemConfig):
    if cfg.setting == "episodic":
        return EpisodicDiscounted(cfg.gamma)
    if cfg.setting == "first-exit":
        return FirstExit()
    if cfg.setting == "average":
        return Average()
    return TimeVarying(cfg.horizon)


@dataclass
class BuiltProblem:
    problem: Optional[Problem]
    theta0: Optional[np.ndarray]
    spec: object = None  # LmdpSpec for the gridworld kind

    @property
    def tabular(self) -> bool:
        return bool(self.problem.chain.tabular)


def _interior_features(spec) -> np.ndarray:
    # one indicator column per non-terminal cell; terminal rows stay zero
    interior = [x for x in range(spec.n_states) if x not in spec.terminal]
    feats = np.zeros((spec.n_states, len(interior)))
    for col, x in enumerate(interior):
        feats[x, col] = 1.0
    return feats


def build_problem(cfg: ProblemConfig) -> BuiltProblem:
    """Instantiate the configured problem and its starting parameters."""
    setting = _setting_object(cfg)
    if cfg.kind == "softmax-tabular":
        if cfg.canonical:
            problem = canonical_two_state()
        else:
            problem = random_softmax_problem(setting, n_states=cfg.n_states, seed=cfg.seed)
        return BuiltProblem(problem, np.zeros(problem.chain.n_params))
    if cfg.kind == "timevarying-tabular":
        problem = random_timevarying_problem(cfg.horizon, n_states=cfg.n_states, seed=cfg.seed)
        return BuiltProblem(problem, np.zeros(problem.chain.n_params))
    if cfg.kind == "smdp-random":
        problem, theta = random_smdp_problem(cfg.n_states, cfg.n_actions, cfg.seed, setting)
        return BuiltProblem(problem, theta)
    if cfg.kind == "gaussian-linear":
        problem, theta = gaussian_linear_problem(cfg.n_dims, cfg.seed, cfg.gamma)
        return BuiltProblem(problem, theta)
    spec = gridworld_lmdp(cfg.size, cfg.seed, cfg.step_cost)
    problem = z_problem(spec, _interior_features(spec), setting)
    return BuiltProblem(problem, np.zeros(problem.chain.n_params), spec=spec)


def _batch_seed(seed: int, iteration: int) -> int:
    return int(np.random.SeedSequence([seed, 101, iteration]).generate_state(1)[0])


def _walk_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, 201]).generate_state(1)[0])


def _probe_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 301])


# ---------------------------------------------------------------------------
# Learning curves
# ---------------------------------------------------------------------------


@dataclass
class CurveRow:
    iteration: int
    j: float
    grad_norm: float
    wall_ms: int
    steps: int
    j_stderr: Optional[float] = None


@dataclass
class LearningCurve:
    rows: list = field(default_factory=list)
    with_stderr: bool = False

    def append(self, row: CurveRow):
        if self.rows and row.iteration <= self.rows[-1].iteration:
            raise AssertionError("curve iterations must be strictly increasing")
        self.rows.append(row)

    def to_csv(self) -> str:
        header = CSV_HEADER + (",J_stderr" if self.with_stderr else "")
        lines = [header]
        for r in self.rows:
            cells = [
                str(r.iteration),
                f"{r.j:.17g}",
                f"{r.grad_norm:.17g}",
                str(r.wall_ms),
                str(r.steps),
            ]
            if self.with_stderr:
                cells.append(f"{0.0 if r.j_stderr is None else r.j_stderr:.17g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _write(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------


def run_gradcheck(config: ExperimentConfig, gradient_fn=None) -> dict:
    """Compare the analytic gradient with the central-difference oracle.

    gradient_fn replaces the analytic gradient for fault-injection tests;
    it defaults to the production gradient.
    """
    if config.problem.kind == "gaussian-linear":
        raise ConfigError("problem.kind: gradient checking needs a finite state space")
    built = build_problem(config.problem)
    theta = built.theta0
    grad = np.asarray((gradient_fn or exact_gradient)(built.problem, theta), dtype=float)
    fd = fd_gradient_oracle(built.problem, theta)
    scale = max(1.0, float(np.max(np.abs(fd))))
    abs_err = np.abs(grad - fd)
    rel_err = abs_err / scale
    columns = zip(grad.tolist(), fd.tolist(), abs_err.tolist(), rel_err.tolist())
    coords = [
        {"index": i, "analytic": a, "fd": f, "abs_error": e, "rel_error": r}
        for i, (a, f, e, r) in enumerate(columns)
    ]
    # written so that a NaN coordinate fails
    failing = np.flatnonzero(~(rel_err < GRADCHECK_THRESHOLD)).tolist()
    max_rel = float(np.max(rel_err, initial=0.0))
    return {
        "kind": config.problem.kind,
        "setting": config.problem.setting,
        "n_params": int(theta.size),
        "threshold": GRADCHECK_THRESHOLD,
        "max_rel_error": max_rel,
        "failing_coordinates": failing,
        "pass": not failing,
        "coordinates": coords,
    }


# ---------------------------------------------------------------------------
# Optimization loop
# ---------------------------------------------------------------------------


class _AdamState:
    """First/second-moment stepping with the usual (0.9, 0.999, 1e-8)."""

    def __init__(self, n: int, lr: float):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self.lr = lr

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        mhat = self.m / (1.0 - 0.9**self.t)
        vhat = self.v / (1.0 - 0.999**self.t)
        return theta - self.lr * mhat / (np.sqrt(vhat) + 1e-8)


def _batch_j_estimate(problem, batch):
    steps = batch.steps(effective_gamma(problem, batch))
    vals = steps.returns[steps.first]
    return float(vals.mean()), float(_stderr(vals))


def run_optimize(config: ExperimentConfig, out_dir=None) -> dict:
    """Iterate the configured method, recording one curve row per iteration.

    Rows hold the state before each update plus one final row, so zero
    iterations still produce the initial point. Sampled methods fit the
    value baseline to the previous batch only; the current batch never
    sees its own fit. On a tabular problem each row makes one exact solve,
    which the objective, the gradient, the exact Fisher and the exact
    surrogate share.
    """
    method = config.algorithm.method
    if method.startswith("zlearn"):
        raise ConfigError("algorithm.method: Z-learning runs under the zlearn command")
    built = build_problem(config.problem)
    problem, theta = built.problem, built.theta0.copy()
    alg, out = config.algorithm, config.output
    tabular = built.tabular
    curve = LearningCurve(with_stderr=not tabular)
    steps_used = truncated = ratio_clipped = 0
    prev_batch = None
    kappa = alg.kappa
    adam = _AdamState(theta.size, alg.step_size) if alg.use_adam else None
    features = np.eye(problem.chain.n_states) if tabular and alg.baseline else None
    sampled = method in ("alg1-sgd", "pco")

    for k in range(alg.iterations + 1):
        t0 = time.perf_counter()
        last = k == alg.iterations
        batch = None
        baseline = None
        if sampled:
            batch = generate_rollouts(
                problem,
                theta,
                alg.batch_size,
                horizon_cap=alg.horizon_cap,
                seed=_batch_seed(config.problem.seed, k),
            )
            steps_used += batch.total_steps()
            truncated += batch.n_truncated
            if features is not None and prev_batch is not None:
                # staleness guard: the fit uses data up to the previous batch
                baseline = fit_value_approx(problem, prev_batch, features, ridge=1e-6)

        sol = solve(problem, theta) if tabular else None
        j_val, j_se = (sol.J, None) if tabular else _batch_j_estimate(problem, batch)

        if method == "alg1-sgd":
            grad = estimate_gradient(problem, theta, batch, baseline=baseline).mean
        else:
            grad = exact_gradient(problem, theta, solution=sol)
        if not last and method in ("pco", "chain-iteration", "newton-surrogate"):
            if method == "pco":
                surr = ClippedSurrogate(
                    SampledSurrogate(problem, theta, batch, baseline), alg.clip_radius
                )
            else:
                surr = ExactSurrogate(problem, theta, solution=sol)
            report = chain_iteration_step(
                problem, theta, surrogate=surr,
                inner="newton" if method == "newton-surrogate" else "gd",
                kappa=kappa, max_inner=alg.inner_iterations,
            )
            theta, kappa = report.theta, report.kappa_next
            ratio_clipped += surr.base.n_ratio_clipped if method == "pco" else 0
        elif not last:  # a gradient step: plain, natural or sampled
            step = grad
            if method == "natural":
                fisher = fisher_matrix(problem, theta, solution=sol)
                step = natural_gradient(grad, fisher, alg.damping)
            theta = adam.step(theta, step) if adam else theta - alg.step_size * step
        prev_batch = batch

        wall = int(round(1000 * (time.perf_counter() - t0))) if out.timing else 0
        curve.append(
            CurveRow(k, j_val, float(np.linalg.norm(grad)), wall, steps_used, j_se)
        )

    report = {
        "method": method,
        "kind": config.problem.kind,
        "iterations": alg.iterations,
        "initial_J": curve.rows[0].j,
        "final_J": curve.rows[-1].j,
        "final_grad_norm": curve.rows[-1].grad_norm,
        "rollout_steps": steps_used,
        "rollouts_truncated": truncated,
        "theta": [float(v) for v in theta],
    }
    if method == "pco":
        report["ratio_clipped"] = ratio_clipped
    if out_dir is not None:
        _write(os.path.join(out_dir, out.curve_csv), curve.to_csv())
        _write(
            os.path.join(out_dir, out.theta_json),
            json.dumps({"theta": report["theta"], "final_J": report["final_J"]}, indent=2),
        )
        _write(os.path.join(out_dir, out.report_json), json.dumps(report, indent=2))
    report["curve"] = curve
    return report


# ---------------------------------------------------------------------------
# Equivalence check
# ---------------------------------------------------------------------------

EQUIV_PAIRS = ("smdp-dmdp", "lmdp-dmdp")


def run_equivcheck(pair: str, seed: int = 0) -> dict:
    """Compare the two constructions of the same process entry by entry.

    Both pairs share one chain; transition rows and per-state costs must
    agree to machine precision, values and gradients to solver precision.
    The gradients are computed along different routes (score form vs the
    bottleneck form) so agreement is informative. In smdp-dmdp the
    stochastic mapping is its own bottleneck view, so only the routes
    differ.
    """
    if pair not in EQUIV_PAIRS:
        raise ConfigError(f"pair must be one of {EQUIV_PAIRS}, got {pair!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = _probe_rng(seed)
    if pair == "smdp-dmdp":
        mdp, policy, theta0 = random_mdp(6, 3, seed)
        prob_a = prob_b = map_stochastic_mdp(mdp, policy)
    else:
        n_s, n_a = 6, 3
        transitions = rng.dirichlet(np.ones(n_s) * 1.5, size=(n_s, n_a))
        reference = rng.dirichlet(np.ones(n_s) * 2.0, size=n_s)
        state_cost = rng.uniform(0.0, 1.0, n_s)
        policy = SoftmaxPolicy(n_s, n_a)
        init = TabularInitial(np.full(n_s, 1.0 / n_s))
        prob_b, prob_a = lmdp_deterministic_pair(
            transitions, policy, reference, state_cost, EpisodicDiscounted(0.9), init
        )
        theta0 = 0.3 * rng.normal(size=policy.n_params)

    d_p = d_l = d_j = d_g = 0.0
    for probe in range(3):
        theta = theta0 if probe == 0 else theta0 + 0.2 * rng.normal(size=theta0.size)
        d_p = max(
            d_p,
            float(
                np.max(
                    np.abs(
                        prob_a.chain.transition_matrix(theta)
                        - prob_b.chain.transition_matrix(theta)
                    )
                )
            ),
        )
        d_l = max(
            d_l,
            float(
                np.max(np.abs(prob_a.cost.value_table(theta) - prob_b.cost.value_table(theta)))
            ),
        )
        d_j = max(d_j, abs(objective(prob_a, theta) - objective(prob_b, theta)))
        g_a = exact_gradient(prob_a, theta)
        g_b = exact_gradient_bottleneck(prob_b, theta)
        d_g = max(d_g, float(np.max(np.abs(g_a - g_b))))
    ok = d_p < 1e-12 and d_l < 1e-12 and d_j < 1e-10 and d_g < 1e-10
    return {
        "pair": pair,
        "seed": seed,
        "n_probes": 3,
        "max_dP": d_p,
        "max_dL": d_l,
        "max_dJ": d_j,
        "max_dgrad": d_g,
        "thresholds": {"P": 1e-12, "L": 1e-12, "J": 1e-10, "grad": 1e-10},
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# Z-learning runner
# ---------------------------------------------------------------------------


def run_zlearn(config: ExperimentConfig, out_dir=None) -> dict:
    """Train Z on the gridworld and track its quality against the exact solve.

    Curve rows: J is the exact objective of the currently induced chain and
    grad_norm carries the Bellman residual, both sampled every record_every
    steps with a row for the untrained table first.
    """
    if config.problem.kind != "gridworld-lmdp":
        raise ConfigError("problem.kind: Z-learning needs the gridworld-lmdp problem")
    method = config.algorithm.method
    if not method.startswith("zlearn"):
        raise ConfigError("algorithm.method: use zlearn-baseline or zlearn-greedy here")
    alg, out = config.algorithm, config.output
    spec = gridworld_lmdp(config.problem.size, config.problem.seed, config.problem.step_cost)
    z_exact = solve_z_firstexit(spec)
    interior = [x for x in range(spec.n_states) if x not in spec.terminal]
    z0 = TabularZ(np.zeros(spec.n_states), gamma=1.0, terminal=spec.terminal)

    curve = LearningCurve()
    t_start = time.perf_counter()

    def _row(iteration: int, steps: int, z):
        wall = int(round(1000 * (time.perf_counter() - t_start))) if out.timing else 0
        j = lmdp_objective(spec, induced_chain(spec, z), FirstExit())
        curve.append(CurveRow(iteration, j, z_bellman_residual(spec, z), wall, steps))

    _row(0, 0, z0)
    recorder = lambda step, snap: _row(len(curve.rows), step, snap)
    train_seed = _walk_seed(config.problem.seed)
    if method == "zlearn-baseline":
        trained, stats = zlearn_baseline(
            spec, z0, alg.zlearn_steps, seed=train_seed,
            record_every=alg.record_every, on_record=recorder,
        )
    else:
        trained, stats = zlearn_greedy(
            spec, z0, alg.zlearn_steps, seed=train_seed,
            mode="double-sample" if alg.double_sample else "exact-g",
            record_every=alg.record_every, on_record=recorder,
        )
    if alg.zlearn_steps % alg.record_every != 0:
        _row(len(curve.rows), alg.zlearn_steps, trained)

    z_t, z_e = trained.z_table(), z_exact.z_table()
    rel = float(np.max(np.abs(z_t - z_e)[interior] / z_e[interior]))
    report = {
        "method": method,
        "steps": alg.zlearn_steps,
        "final_rel_error": rel,
        "final_bellman_residual": z_bellman_residual(spec, trained),
        "exact_J": lmdp_objective(spec, induced_chain(spec, z_exact), FirstExit()),
        "final_J": curve.rows[-1].j,
        "n_floored": stats.n_floored,
        "n_restarts": stats.n_restarts,
        "pass": bool(rel < ZLEARN_PASS_REL),
    }
    if out_dir is not None:
        _write(os.path.join(out_dir, out.curve_csv), curve.to_csv())
        _write(os.path.join(out_dir, out.z_table), z_to_text(trained))
        _write(os.path.join(out_dir, out.report_json), json.dumps(report, indent=2))
    report["curve"] = curve
    return report
