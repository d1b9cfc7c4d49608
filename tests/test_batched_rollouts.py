"""The batch-major sampled path checked against per-step references.

The lockstep tabular engine must reproduce the per-step engine it replaced
byte for byte (the reference below is that engine, kept here), and the
vectorized value fit, gradient estimate and sampled-surrogate gradients
must agree with per-step references to 1e-12.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import (
    dense_grad_table,
    discounted_returns,
    diverging_gaussian_problem,
    gaussian_score,
    rollout_scores,
    state_cost,
    transition_score,
)

from chainopt import (
    EpisodicDiscounted,
    FirstExit,
    InvalidStructureError,
    Problem,
    RegularizationRequiredError,
    SoftmaxChain,
    TabularInitial,
    TableCost,
    TimeVarying,
    TimeVaryingChain,
    batch_from_jsonl,
    estimate_gradient,
    fisher_matrix,
    fit_value_approx,
    generate_rollouts,
    parse_config,
    path_hessian,
    run_optimize,
)
from chainopt import rollout
from chainopt.harness import _interior_features
from chainopt.model import FixedTabularChain, TimeVaryingCost, sample_index
from chainopt.problems import (
    canonical_two_state,
    gaussian_linear_problem,
    gridworld_lmdp,
    random_smdp_problem,
    random_softmax_problem,
    random_timevarying_problem,
)
from chainopt.rollout import (
    END_GEOMETRIC,
    END_HORIZON,
    END_TERMINAL,
    Rollout,
    baseline_expected_values,
    batch_from_arrays,
    effective_gamma,
    rollout_rng,
    transition_scores,
)
from chainopt.surrogate import ClippedSurrogate, SampledSurrogate
from chainopt.zlearn import z_problem

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_close(a, b):
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# The per-step engine, as it was before the lockstep engine replaced it
# ---------------------------------------------------------------------------


def per_step_rollouts(problem, theta, n_rollouts, horizon_cap=10_000, mode=None, seed=0):
    chain = problem.chain
    tv = isinstance(problem.setting, TimeVarying)
    if tv:
        horizon_cap = problem.setting.horizon
        mode = "horizon"
    if mode is None:
        mode = rollout._default_mode(problem)
    stop_prob = 1.0 - problem.gamma
    n_stages = horizon_cap if tv else 1
    samplers = [chain.make_sampler(theta, t) for t in range(n_stages)]
    cost_tables = [
        problem.cost.value_table(theta, t) for t in range(n_stages + (1 if tv else 0))
    ]
    score_tables = [chain.score_table(theta, t) for t in range(n_stages)]
    terminal = chain.terminal if (mode != "horizon" or not tv) else frozenset()
    stop_at_terminal = not tv
    states, costs, scores, ends = [], [], [], []
    for i in range(n_rollouts):
        rng = rollout_rng(seed, i)
        x = problem.init.sample(rng)
        path = [x]
        t = 0
        while True:
            if stop_at_terminal and path[-1] in terminal:
                reason = END_TERMINAL
                break
            if t >= horizon_cap:
                reason = END_HORIZON
                break
            if mode == "geometric" and rng.random() < stop_prob:
                reason = END_GEOMETRIC
                break
            path.append(samplers[min(t, n_stages - 1)](path[-1], rng))
            t += 1
        T = len(path) - 1
        st_ = np.asarray(path, dtype=np.int64)
        states.append(st_)
        costs.append(
            np.array([cost_tables[min(k, len(cost_tables) - 1)][st_[k]] for k in range(T + 1)])
        )
        score = np.zeros((T, problem.n_params))
        for k in range(T):
            score[k] = score_tables[min(k, n_stages - 1)][st_[k], st_[k + 1]]
        scores.append(score)
        ends.append(reason)
    batch = batch_from_arrays(states, costs, ends, theta, seed, mode, horizon_cap)
    # the scores the engine stored with its rollouts, for assert_same_batch
    batch.reference = problem, np.concatenate(scores)
    return batch


def assert_same_batch(new, ref, tmp_path):
    """The same dump byte for byte, and transition_scores over the new
    batch bit for bit the scores the reference engine stored."""
    new.to_jsonl(tmp_path / "new.jsonl")
    ref.to_jsonl(tmp_path / "ref.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    assert len(new.rollouts) == len(ref.rollouts)
    for a, b in zip(new.rollouts, ref.rollouts):
        assert a.end_reason == b.end_reason
        assert a.states.dtype == b.states.dtype and a.states.shape == b.states.shape
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.costs, b.costs)
    problem, scores = ref.reference
    got = transition_scores(problem, new.theta, new.steps(effective_gamma(problem, new)))
    assert got.shape == scores.shape
    np.testing.assert_array_equal(got, scores)


def per_rollout_continuous(problem, theta, n_rollouts, horizon_cap=10_000, mode=None, seed=0):
    """Continuous generation as it was before batches became flat arrays:
    one loop per rollout, its costs and scores computed one row at a time
    (conftest's state_cost and gaussian_score) after its draws, a diverged
    rollout kept with a flag. The batch holds the rollouts that did not
    diverge, with their stored scores as ``batch.reference``."""
    chain = problem.chain
    tv = isinstance(problem.setting, TimeVarying)
    if tv:
        horizon_cap = problem.setting.horizon
        mode = "horizon"
    if mode is None:
        mode = rollout._default_mode(problem)
    samplers = [chain.make_sampler(theta, t) for t in range(horizon_cap if tv else 1)]
    stop_prob = 1.0 - problem.gamma
    kept = []
    for i in range(n_rollouts):
        rng = rollout_rng(seed, i)
        x = problem.init.sample(rng)
        states = [x]
        diverged = False
        t = 0
        reason = END_HORIZON
        while True:
            if t >= horizon_cap:
                break
            if mode == "geometric" and rng.random() < stop_prob:
                reason = END_GEOMETRIC
                break
            with np.errstate(over="ignore", invalid="ignore"):
                x_next = samplers[min(t, len(samplers) - 1)](states[-1], rng)
            if not np.all(np.isfinite(x_next)):
                diverged = True
                break
            states.append(x_next)
            t += 1
        T = len(states) - 1
        costs = np.array([state_cost(problem.cost, x) for x in states])
        scores = np.zeros((T, problem.n_params))
        for k in range(T):
            scores[k] = gaussian_score(chain, states[k], states[k + 1], theta)
        if not diverged:
            kept.append((np.asarray(states, dtype=float), costs, scores, reason))
    states, costs, scores, ends = (list(c) for c in zip(*kept))
    batch = batch_from_arrays(
        states, costs, ends, theta, seed, mode, horizon_cap, n_rollouts - len(kept)
    )
    batch.reference = problem, np.concatenate(scores)
    return batch


# ---------------------------------------------------------------------------
# Problems of every tabular chain kind
# ---------------------------------------------------------------------------


def _fixed_problem(sub_stochastic=False):
    """FixedTabularChain with two terminal states and a start law that
    puts mass on them. The sub-stochastic variant's rows sum to 0.6, and
    their last entries are zero, so many draws land on sample_index's clamp
    to the last positive entry."""
    rng = np.random.default_rng(5)
    n = 6
    P = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
    P[:, 0] += 0.1
    P[:4, 4:] = 0.0
    P[:4, 4] = 0.2
    P[:4, 3] += 0.1
    P /= P.sum(axis=1, keepdims=True)
    P[4:] = 0.0
    P[4, 4] = P[5, 5] = 1.0

    class SubStochastic(FixedTabularChain):
        def transition_matrix(self, theta, t=0):
            M = 0.6 * self._P
            M[:, 4:] = 0.0
            M[4, 4] = M[5, 5] = 1.0
            return M

    chain = (SubStochastic if sub_stochastic else FixedTabularChain)(P, terminal=(4, 5))
    cost = TableCost(np.array([1.0, 2.0, 0.5, 1.5, 0.0, 0.0]))
    init = TabularInitial(np.array([0.4, 0.2, 0.1, 0.1, 0.1, 0.1]))
    return Problem(chain, cost, FirstExit(), init)


def _timevarying_with_terminal(horizon=6):
    """Finite-horizon softmax stages that share a terminal state, with a
    start law that gives it mass: such rollouts sit there and draw nothing."""
    rng = np.random.default_rng(9)
    n = 5
    support = {x: sorted({0, (x + 1) % 4, 4}) for x in range(4)}
    probe = SoftmaxChain(n, support, terminal=[4])
    k = probe.n_params
    stages = [
        SoftmaxChain(n, support, terminal=[4], logit_offset=rng.normal(size=k))
        for _ in range(horizon)
    ]
    costs = TimeVaryingCost(
        [TableCost(rng.uniform(0.5, 2.0, n), k) for _ in range(horizon + 1)]
    )
    init = TabularInitial(np.array([0.3, 0.2, 0.2, 0.1, 0.2]))
    return Problem(TimeVaryingChain(stages), costs, TimeVarying(horizon), init)


def _gridworld():
    spec = gridworld_lmdp(4, seed=1)
    return z_problem(spec, _interior_features(spec), FirstExit())


CASES = {
    "softmax-terminal": lambda: (random_softmax_problem(FirstExit(), 7, seed=3), 0.3, {}),
    "softmax-terminal-cap": lambda: (
        random_softmax_problem(FirstExit(), 7, seed=3), 0.3, {"horizon_cap": 4}
    ),
    "softmax-geometric": lambda: (
        random_softmax_problem(EpisodicDiscounted(0.97), 6, seed=4), 0.5, {}
    ),
    "softmax-horizon": lambda: (
        random_softmax_problem(EpisodicDiscounted(0.9), 6, seed=4),
        0.5,
        {"mode": "horizon", "horizon_cap": 150},
    ),
    "timevarying": lambda: (random_timevarying_problem(horizon=7, n_states=5, seed=2), 0.4, {}),
    "smdp-geometric": lambda: (random_smdp_problem(5, 3, seed=6)[0], 0.5, {}),
    "smdp-horizon": lambda: (
        random_smdp_problem(5, 3, seed=6)[0], 0.5, {"mode": "horizon", "horizon_cap": 90}
    ),
    "gridworld-terminal": lambda: (_gridworld(), 0.2, {}),
    "fixed-terminal": lambda: (_fixed_problem(), 0.0, {}),
    "fixed-geometric-cap": lambda: (_fixed_problem(), 0.0, {"mode": "geometric", "horizon_cap": 3}),
}


def _theta(problem, scale, seed=0):
    return scale * np.random.default_rng(seed).normal(size=problem.n_params)


class TestLockstepMatchesPerStepEngine:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("block", [64, 3])
    def test_byte_identical_batches(self, case, block, tmp_path, monkeypatch):
        monkeypatch.setattr(rollout, "_BLOCK", block)
        problem, scale, kw = CASES[case]()
        theta = _theta(problem, scale)
        new = generate_rollouts(problem, theta, 40, seed=11, **kw)
        ref = per_step_rollouts(problem, theta, 40, seed=11, **kw)
        # the summaries and steps of the flat batch, read before anything
        # builds its Rollout list, against those of the reference's list
        assert new.total_steps() == ref.total_steps()
        assert new.n_truncated == ref.n_truncated
        mean_length = lambda b: estimate_gradient(problem, theta, b).diagnostics["mean_length"]
        assert mean_length(new) == mean_length(ref)
        gamma = effective_gamma(problem, new)
        got, want = new.steps(gamma), ref.steps(gamma)
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        assert_same_batch(new, ref, tmp_path)

    def test_rollouts_outlive_a_block(self, tmp_path):
        problem, scale, kw = CASES["softmax-horizon"]()
        theta = _theta(problem, scale)
        new = generate_rollouts(problem, theta, 8, seed=2, **kw)
        assert min(r.n_steps for r in new.rollouts) > 2 * rollout._BLOCK
        assert_same_batch(new, per_step_rollouts(problem, theta, 8, seed=2, **kw), tmp_path)

    def test_cap_shorter_than_longest_rollout(self, tmp_path):
        problem, scale, _ = CASES["softmax-terminal"]()
        theta = _theta(problem, scale)
        free = generate_rollouts(problem, theta, 40, seed=11)
        assert max(r.n_steps for r in free.rollouts) > 4
        capped = generate_rollouts(problem, theta, 40, horizon_cap=4, seed=11)
        reasons = {r.end_reason for r in capped.rollouts}
        assert reasons == {END_TERMINAL, END_HORIZON}
        ref = per_step_rollouts(problem, theta, 40, horizon_cap=4, seed=11)
        assert_same_batch(capped, ref, tmp_path)

    def test_terminal_starts(self, tmp_path):
        problem = _fixed_problem()
        batch = generate_rollouts(problem, np.zeros(0), 60, seed=4)
        assert any(r.n_steps == 0 and r.end_reason == END_TERMINAL for r in batch.rollouts)
        tv = _timevarying_with_terminal()
        theta = _theta(tv, 0.5)
        batch = generate_rollouts(tv, theta, 60, seed=4)
        parked = [r for r in batch.rollouts if r.states[0] == 4]
        assert parked and all(np.all(r.states == 4) and r.n_steps == 6 for r in parked)
        assert_same_batch(batch, per_step_rollouts(tv, theta, 60, seed=4), tmp_path)

    def test_clamp_to_last_positive_entry(self, tmp_path):
        problem = _fixed_problem(sub_stochastic=True)
        batch = generate_rollouts(problem, np.zeros(0), 60, horizon_cap=30, seed=8)
        # every draw at or above a row's total of 0.6 is clamped to its
        # last positive entry, state 3, so state 3 shows up often
        hits = sum(int(np.sum(r.states[1:] == 3)) for r in batch.rollouts)
        assert hits > sum(r.n_steps for r in batch.rollouts) / 3
        assert not any(np.any(r.states[1:] >= 4) for r in batch.rollouts if r.states[0] < 4)
        assert_same_batch(batch, per_step_rollouts(problem, np.zeros(0), 60, 30, seed=8), tmp_path)

    def test_inverse_cdf_matches_sample_index_at_ties(self):
        # draws at, just below and just above every cumulative entry, and at
        # the top; the last row sums to 0.6, so its upper draws are clamped
        cum = np.cumsum(
            [[0.25, 0.25, 0.0, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0, 0.0], [0.1, 0.2, 0.3, 0.0, 0.0]],
            axis=1,
        )
        tops = np.argmax(cum >= cum[:, -1:], axis=1)
        for row in range(3):
            c = cum[row]
            u = np.concatenate([c, np.nextafter(c, 0.0), np.nextafter(c, 1.0), [0.0, 1 - 2**-53]])
            rows = np.full(u.size, row)
            got = rollout._inverse_cdf(cum[rows], tops[rows], u)
            assert got.tolist() == [sample_index(c, v) for v in u]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 3, 2**130 + 1])
    def test_streams_match_rollout_rng(self, seed):
        streams = rollout._rollout_streams(seed, 70)
        for i in (0, 1, 2, 37, 69):
            np.testing.assert_array_equal(
                streams[i].random(9), rollout_rng(seed, i).random(9)
            )

    def test_reloaded_scores_use_the_same_gather(self, tmp_path):
        problem, scale, _ = CASES["timevarying"]()
        theta = _theta(problem, scale)
        batch = generate_rollouts(problem, theta, 20, seed=3)
        batch.to_jsonl(tmp_path / "b.jsonl")
        back = batch_from_jsonl(problem, tmp_path / "b.jsonl")
        for a, b, sa, sb in zip(
            back.rollouts, batch.rollouts, rollout_scores(problem, back), rollout_scores(problem, batch)
        ):
            np.testing.assert_array_equal(sa, sb)
            for t in range(a.n_steps):
                np.testing.assert_array_equal(
                    sa[t],
                    transition_score(problem.chain, a.states[t], a.states[t + 1], theta, t),
                )


class TestFlatBatches:
    """Tabular batches stay in the flat layout unless their Rollout list
    is read."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = []
        init = Rollout.__init__
        monkeypatch.setattr(
            Rollout, "__init__", lambda self, *a, **kw: count.append(1) or init(self, *a, **kw)
        )
        return count

    @pytest.mark.parametrize("setting", ["first-exit", "episodic"])
    @pytest.mark.parametrize(
        "algorithm",
        [
            {"method": "alg1-sgd", "iterations": 2, "batch_size": 64},
            {"method": "pco", "iterations": 2, "batch_size": 64, "inner_iterations": 3},
        ],
        ids=["alg1-sgd", "pco"],
    )
    def test_sampled_methods_build_no_rollout(self, built, setting, algorithm):
        doc = {
            "problem": {"kind": "softmax-tabular", "setting": setting, "n_states": 8, "seed": 4},
            "algorithm": algorithm,
        }
        report = run_optimize(parse_config(json.dumps(doc)))
        assert report["rollout_steps"] > 0
        assert built == []

    def test_reading_rollouts_builds_them_once(self, built):
        problem = random_timevarying_problem(horizon=3, n_states=4, seed=1)
        batch = generate_rollouts(problem, np.zeros(problem.n_params), 9, seed=2)
        assert len(batch) == 9 and batch.total_steps() == 27 and built == []
        assert batch.rollouts is batch.rollouts
        assert len(built) == 9


class TestTruncation:
    def test_truncated_rollouts_invalidate_the_estimate(self):
        prob = canonical_two_state()
        theta = np.array([8.0, -8.0])
        batch = generate_rollouts(prob, theta, 20, horizon_cap=5, seed=0)
        assert batch.n_truncated == sum(r.end_reason == END_HORIZON for r in batch.rollouts)
        assert batch.n_truncated > 0
        est = estimate_gradient(prob, theta, batch)
        assert not est.valid
        assert est.diagnostics["n_truncated"] == batch.n_truncated
        assert est.diagnostics["n_diverged"] == 0

    def test_complete_batches_stay_valid(self):
        prob = canonical_two_state()
        batch = generate_rollouts(prob, np.zeros(2), 200, horizon_cap=60, seed=0)
        assert batch.n_truncated == 0
        assert estimate_gradient(prob, np.zeros(2), batch).valid

    def test_other_modes_count_no_truncation(self):
        prob = random_softmax_problem(EpisodicDiscounted(0.9), 5, seed=1)
        theta = np.zeros(prob.n_params)
        batch = generate_rollouts(prob, theta, 30, mode="horizon", horizon_cap=5, seed=0)
        assert all(r.end_reason == END_HORIZON for r in batch.rollouts)
        assert batch.n_truncated == 0

    def test_optimizer_reports_truncated_rollouts(self):
        def run(cap):
            doc = {
                "problem": {"kind": "softmax-tabular", "setting": "first-exit",
                            "n_states": 6, "seed": 2},
                "algorithm": {"method": "alg1-sgd", "iterations": 1, "batch_size": 50,
                              "horizon_cap": cap},
            }
            return run_optimize(parse_config(json.dumps(doc)))["rollouts_truncated"]

        assert run(2) > 0
        assert run(10_000) == 0


# ---------------------------------------------------------------------------
# Per-step references for the vectorized fit, estimate and surrogate
# ---------------------------------------------------------------------------


def reference_fit(problem, batch, features, ridge=0.0):
    gamma = effective_gamma(problem, batch)
    k = features.shape[1]
    A = np.zeros((k, k))
    b = np.zeros(k)
    for r in batch.rollouts:
        R = discounted_returns(r.costs, gamma)
        w = gamma ** np.arange(r.costs.shape[0])
        for t in range(r.costs.shape[0]):
            phi = features[r.states[t]]
            A += w[t] * np.outer(phi, phi)
            b += w[t] * phi * R[t]
    A += ridge * np.eye(k)
    try:
        chol = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise RegularizationRequiredError("rank deficient")
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def reference_estimate(problem, theta, batch, baseline=None):
    gamma = effective_gamma(problem, batch)
    tv = isinstance(problem.setting, TimeVarying)
    n_stages = batch.horizon_cap if tv else 1
    G = [dense_grad_table(problem.cost, theta, t) for t in range(n_stages + (1 if tv else 0))]
    if baseline is not None:
        B = baseline_expected_values(problem, theta, baseline)
    out = np.zeros((len(batch.rollouts), problem.n_params))
    for i, (r, scores) in enumerate(zip(batch.rollouts, rollout_scores(problem, batch))):
        T = r.n_steps
        R = discounted_returns(r.costs, gamma)
        gpow = gamma ** np.arange(T + 1)
        gL = np.stack([G[min(t, len(G) - 1)][r.states[t]] for t in range(T + 1)])
        g = gpow @ gL
        if T > 0:
            adv = R[1:]
            if baseline is not None:
                adv = adv - np.array([B[min(t, n_stages - 1)][r.states[t]] for t in range(T)])
            g = g + (gamma * gpow[:T] * adv) @ scores
        out[i] = g
    return out


def reference_surrogate_grads(problem, theta, batch, baseline, alpha, eps):
    """Unclipped and clipped sampled-surrogate gradients, one score per
    transition."""
    chain, cost = problem.chain, problem.cost
    gamma = effective_gamma(problem, batch)
    th = theta + alpha
    b_table = None
    if baseline is not None:
        b_table = baseline_expected_values(problem, theta, baseline)[0]
    P0, P = chain.transition_matrix(theta), chain.transition_matrix(th)
    G = dense_grad_table(cost, th)
    g = np.zeros(problem.n_params)
    g_clip = np.zeros(problem.n_params)
    for r in batch.rollouts:
        T = r.n_steps
        R = discounted_returns(r.costs, gamma)
        gpow = gamma ** np.arange(T + 1)
        g += gpow @ G[r.states]
        g_clip += gpow @ G[r.states]
        for t in range(T):
            x, y = r.states[t], r.states[t + 1]
            adv = R[t + 1] - (b_table[x] if b_table is not None else 0.0)
            ratio = np.exp(min(np.log(P[x, y]) - np.log(P0[x, y]), 30.0))
            term = gamma * gpow[t] * ratio * adv * transition_score(chain, x, y, th)
            g += term
            if np.clip(ratio, 1 - eps, 1 + eps) * adv <= ratio * adv:
                g_clip += term
    m = len(batch.rollouts)
    return g / m, g_clip / m


@st.composite
def sampled_cases(draw):
    kind = draw(st.sampled_from(["first-exit", "episodic", "timevarying", "smdp", "fixed"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "first-exit":
        problem = random_softmax_problem(FirstExit(), draw(st.integers(2, 7)), seed=seed)
        mode = None
    elif kind == "episodic":
        problem = random_softmax_problem(EpisodicDiscounted(0.9), draw(st.integers(1, 6)), seed)
        mode = draw(st.sampled_from(["geometric", "horizon"]))
    elif kind == "timevarying":
        problem = random_timevarying_problem(draw(st.integers(1, 5)), draw(st.integers(2, 5)), seed)
        mode = None
    elif kind == "smdp":
        problem = random_smdp_problem(draw(st.integers(2, 5)), 2, seed=seed)[0]
        mode = draw(st.sampled_from(["geometric", "horizon"]))
    else:
        problem = _fixed_problem()
        mode = None
    rng = np.random.default_rng(seed)
    theta = draw(st.sampled_from([0.0, 0.5, 2.0])) * rng.normal(size=problem.n_params)
    batch = generate_rollouts(
        problem, theta, draw(st.integers(1, 25)), horizon_cap=draw(st.integers(1, 30)),
        mode=mode, seed=seed,
    )
    return problem, theta, batch, rng


def _custom_features(problem):
    """Smooth features of the state index."""
    x = np.arange(problem.chain.n_states)
    n = x.size
    return np.stack([np.ones(n), np.cos(2.0 * x / n), np.sin(3.0 * x / n)], axis=1)


class TestVectorizedMatchesPerStep:
    @given(sampled_cases(), st.sampled_from(["tabular", "constant", "custom"]))
    @PROPERTY
    def test_value_fit(self, case, kind):
        problem, _, batch, _ = case
        n = problem.chain.n_states
        features = {
            "tabular": np.eye(n),
            "constant": np.ones((n, 1)),
            "custom": _custom_features(problem),
        }[kind]
        # a unit ridge bounds the condition number of the normal matrix by
        # about the batch's total weight, so that 1e-12 measures how the
        # sums are assembled and not how nearly collinear the features are
        ridge = {"tabular": 1e-3, "constant": 0.0, "custom": 1.0}[kind]
        fit = fit_value_approx(problem, batch, features, ridge=ridge)
        assert fit.shape == (n,)
        assert_close(fit, features @ reference_fit(problem, batch, features, ridge))

    @given(sampled_cases(), st.booleans())
    @PROPERTY
    def test_gradient_estimate(self, case, with_baseline):
        problem, theta, batch, _ = case
        baseline = None
        if with_baseline:
            n = problem.chain.n_states
            baseline = fit_value_approx(problem, batch, np.eye(n), ridge=1e-3)
        est = estimate_gradient(problem, theta, batch, baseline=baseline)
        ref = reference_estimate(problem, theta, batch, baseline)
        assert_close(est.diagnostics["per_rollout"], ref)
        assert_close(est.mean, ref.mean(axis=0))
        if len(batch) > 1:
            assert_close(est.stderr, ref.std(axis=0, ddof=1) / np.sqrt(len(batch)))

    @given(sampled_cases(), st.booleans(), st.sampled_from([0.0, 0.3, 3.0]))
    @PROPERTY
    def test_surrogate_gradients(self, case, with_baseline, step):
        problem, theta, batch, rng = case
        if isinstance(problem.setting, TimeVarying):
            return
        n = problem.chain.n_states
        baseline = (
            fit_value_approx(problem, batch, np.eye(n), ridge=1e-3)
            if with_baseline else None
        )
        alpha = step * rng.normal(size=problem.n_params)
        sur = SampledSurrogate(problem, theta, batch, baseline)
        ref, ref_clip = reference_surrogate_grads(problem, theta, batch, baseline, alpha, 0.2)
        assert_close(sur.grad(alpha), ref)
        assert_close(ClippedSurrogate(sur, 0.2).grad(alpha), ref_clip)

    def test_returns_are_bit_identical(self):
        problem = random_softmax_problem(FirstExit(), 7, seed=3)
        batch = generate_rollouts(problem, _theta(problem, 0.3), 50, seed=1)
        steps = rollout.batch_steps(batch, 0.93)
        ref = np.concatenate([discounted_returns(r.costs, 0.93) for r in batch.rollouts])
        np.testing.assert_array_equal(steps.returns, ref)

    def test_rank_deficient_fit_needs_a_ridge(self):
        problem = random_softmax_problem(FirstExit(), 6, seed=1)
        batch = generate_rollouts(problem, np.zeros(problem.n_params), 1, horizon_cap=1, seed=0)
        # one step visits at most two of six states: tabular features are
        # rank deficient, and so is a custom map with a dead coordinate
        dead = np.tile([1.0, 0.0], (6, 1))
        for features in (np.eye(6), dead):
            with pytest.raises(RegularizationRequiredError):
                reference_fit(problem, batch, features)
            with pytest.raises(RegularizationRequiredError):
                fit_value_approx(problem, batch, features)
            fit = fit_value_approx(problem, batch, features, ridge=1e-6)
            assert_close(fit, features @ reference_fit(problem, batch, features, 1e-6))


def softmax_score(chain, x, y, theta):
    """e_k - p on the segment of x, with k the logit of x -> y; zero on a
    terminal row."""
    g = np.zeros(chain.n_params)
    if x in chain.terminal:
        return g
    succ = chain.successors(x)
    sl = chain.param_slice(x)
    g[sl] = -chain.transition_matrix(theta)[x, succ]
    g[sl.start + succ.index(y)] += 1.0
    return g


@st.composite
def return_cases(draw):
    """(per-rollout costs, gamma): one rollout, equal lengths or mixed
    lengths of 1-400 steps, with costs of either sign spanning 1e-3 to 1e3."""
    shape = draw(st.sampled_from(["single", "equal", "mixed"]))
    if shape == "single":
        lengths = [draw(st.integers(1, 400))]
    elif shape == "equal":
        lengths = [draw(st.integers(1, 400))] * draw(st.integers(2, 20))
    else:
        lengths = draw(st.lists(st.integers(1, 400), min_size=2, max_size=40))
    gamma = draw(st.sampled_from([0.0, 1.0, 0.99]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    costs = [rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3, 3, k) for k in lengths]
    return costs, gamma


def scanned_returns(costs, gamma):
    """batch_steps(...).returns of a hand-built batch with the given costs."""
    states = [np.zeros(c.size, dtype=np.int64) for c in costs]
    batch = batch_from_arrays(
        states, costs, [END_TERMINAL] * len(costs), np.zeros(1), 0, "terminal", 10_000
    )
    return rollout.batch_steps(batch, gamma).returns


class TestReturnScan:
    """The batch scan must give every rollout's discounted returns bit for
    bit: as the one-rollout loop does, and as scipy's first-order filter."""

    @given(return_cases())
    @PROPERTY
    def test_matches_the_one_rollout_loop(self, case):
        costs, gamma = case
        ref = np.concatenate([discounted_returns(c, gamma) for c in costs])
        np.testing.assert_array_equal(scanned_returns(costs, gamma), ref)

    @given(return_cases())
    @PROPERTY
    def test_matches_lfilter(self, case):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        costs, gamma = case
        ref = np.concatenate([lfilter([1.0], [1.0, -gamma], c[::-1])[::-1] for c in costs])
        np.testing.assert_array_equal(scanned_returns(costs, gamma), ref)


class TestScoreSums:
    @given(st.integers(0, 2**16), st.integers(1, 7), st.sampled_from([0.0, 1.0, 30.0]))
    @PROPERTY
    def test_softmax_override_matches_dense_reference(self, seed, n, scale):
        """score_sums against a per-transition sum of the softmax score."""
        problem = random_softmax_problem(FirstExit(), max(n, 2), seed=seed)
        chain = problem.chain
        rng = np.random.default_rng(seed)
        theta = scale * rng.normal(size=chain.n_params)
        P = chain.transition_matrix(theta)
        x = rng.integers(0, chain.n_states, size=40)
        y = np.array([rng.choice(np.flatnonzero(P[v] > 0)) for v in x])
        coef = rng.normal(size=40)
        groups = rng.integers(0, 5, size=40)
        ref = np.zeros((5, chain.n_params))
        for xk, yk, ck, gk in zip(x, y, coef, groups):
            ref[gk] += ck * softmax_score(chain, xk, yk, theta)
        assert_close(chain.score_sums(theta, x, y, coef, groups, 5), ref)

    def test_off_support_transition_raises(self):
        chain = canonical_two_state().chain
        with pytest.raises(InvalidStructureError):
            SoftmaxChain(3, {0: [1], 1: [2]}, terminal=[2]).score_sums(
                np.zeros(2), [0], [2], [1.0], [0], 1
            )
        assert chain.score_sums(np.zeros(2), [1], [1], [1.0], [0], 1).tolist() == [[0.0, 0.0]]


# ---------------------------------------------------------------------------
# Continuous batches, the path Hessian and the sampled Fisher against the
# per-rollout loops they replaced
# ---------------------------------------------------------------------------


def _gaussian_timevarying():
    problem, theta = gaussian_linear_problem(2, seed=1)
    return Problem(problem.chain, problem.cost, TimeVarying(5), problem.init), theta


CONTINUOUS = {
    "gaussian-geometric": lambda: (*gaussian_linear_problem(2, seed=0), {"mode": "geometric"}),
    "gaussian-horizon": lambda: (
        *gaussian_linear_problem(2, seed=0), {"mode": "horizon", "horizon_cap": 12}
    ),
    "gaussian-timevarying": lambda: (*_gaussian_timevarying(), {}),
    "diverging": lambda: (diverging_gaussian_problem(), np.zeros(1), {"horizon_cap": 3}),
}


class TestContinuousBatchesMatchPerRolloutLoop:
    @pytest.mark.parametrize("case", sorted(CONTINUOUS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_states_and_close_costs_and_scores(self, case, seed):
        """States, times, lengths and end reasons bit for bit; the costs,
        and transition_scores over the new batch, to 1e-12 of the per-row
        references, as batched products need not round as per-row ones."""
        problem, theta, kw = CONTINUOUS[case]()
        new = generate_rollouts(problem, theta, 40, seed=seed, **kw)
        ref = per_rollout_continuous(problem, theta, 40, seed=seed, **kw)
        assert (new.n_diverged > 0) == (case == "diverging")
        assert new.n_diverged == ref.n_diverged and len(new) == 40
        assert new.total_steps() == ref.total_steps()
        assert (new.seed, new.mode, new.horizon_cap) == (ref.seed, ref.mode, ref.horizon_cap)
        for name in ("states", "t", "lengths", "codes"):
            a, b = getattr(new.flat, name), getattr(ref.flat, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert_close(new.flat.costs, ref.flat.costs)
        scores = transition_scores(problem, theta, new.steps(effective_gamma(problem, new)))
        assert_close(scores, ref.reference[1])


def reference_path_hessian(problem, theta, batch):
    """path_hessian's per-rollout Hessians as the loop it was: per-step
    second derivatives cached by (t, x, y) and (t, x), summed along each
    rollout, with dK the rollout's score sum."""
    chain, cost = problem.chain, problem.cost
    T = problem.setting.horizon
    p, n = problem.n_params, chain.n_states
    rollouts = batch.rollouts
    states, onehot = np.array([r.states for r in rollouts]), np.eye(n)
    dLs = sum(cost.grad_sum(theta, onehot[states[:, t]], t) for t in range(T + 1))
    hess_cache = {}

    def chain_hess(t, x, y):
        key = (t, int(x), int(y))
        if key not in hess_cache:
            E = np.zeros((n, n))
            E[x, y] = 1.0 / chain.transition_matrix(theta, t)[x, y]
            s = chain.score_sums(theta, [x], [y], [1.0], [0], 1, t)[0]
            hess_cache[key] = chain.row_hess(theta, E, t) - np.outer(s, s)
        return hess_cache[key]

    def cost_hess(t, x):
        key = (t, int(x))
        if key not in hess_cache:
            hess_cache[key] = cost.hess_sum(theta, onehot[x], t)
        return hess_cache[key]

    out = np.zeros((len(rollouts), p, p))
    for i, (r, dL, scores) in enumerate(zip(rollouts, dLs, rollout_scores(problem, batch))):
        total_cost = float(r.costs.sum())
        dK = scores.sum(axis=0)
        d2K = sum(chain_hess(t, r.states[t], r.states[t + 1]) for t in range(T))
        d2L = sum(cost_hess(t, x) for t, x in enumerate(r.states))
        H = (np.outer(dK, dK) + d2K) * total_cost
        H += np.outer(dK, dL) + np.outer(dL, dK) + d2L
        out[i] = H
    return out


def reference_sampled_fisher(problem, batch):
    """The sampled Fisher as the per-rollout loop it was: (matrix, stderr)."""
    gamma = problem.gamma
    nums, dens = [], []
    for r, scores in zip(batch.rollouts, rollout_scores(problem, batch)):
        T = r.n_steps
        if batch.mode == "geometric":
            num_w = np.full(T, 1.0 / gamma)
            den = float(T + 1)
        else:
            num_w = gamma ** np.arange(T)
            den = float((gamma ** np.arange(T + 1)).sum())
        nums.append(np.einsum("t,tp,tq->pq", num_w, scores, scores))
        dens.append(den)
    nums = np.stack(nums)
    dens = np.asarray(dens)
    F = nums.sum(axis=0) / dens.sum()
    resid = nums - F[None, :, :] * dens[:, None, None]
    se = resid.std(axis=0, ddof=1) / (np.sqrt(len(dens)) * dens.mean())
    return 0.5 * (F + F.T), se


class TestBatchEstimatorsMatchPerRolloutLoops:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_timevarying_problem(horizon=2, n_states=3, seed=4),
            lambda: random_timevarying_problem(horizon=7, n_states=5, seed=2),
            lambda: random_timevarying_problem(horizon=1, n_states=6, seed=9),
            _timevarying_with_terminal,
        ],
        ids=["h2n3", "h7n5", "h1n6", "terminal"],
    )
    def test_path_hessian(self, make):
        problem = make()
        theta = _theta(problem, 0.4)
        batch = generate_rollouts(problem, theta, 300, seed=6)
        est = path_hessian(problem, theta, batch)
        ref = reference_path_hessian(problem, theta, batch)
        mean = ref.mean(axis=0)
        assert_close(est.mean, 0.5 * (mean + mean.T))
        assert_close(est.stderr, ref.std(axis=0, ddof=1) / np.sqrt(len(ref)))
        assert est.n_rollouts == len(ref)

    @pytest.mark.parametrize(
        "case",
        ["softmax-terminal", "softmax-terminal-cap", "softmax-geometric", "softmax-horizon",
         "timevarying", "smdp-geometric", "gaussian-geometric", "gaussian-horizon"],
    )
    def test_sampled_fisher(self, case):
        if case.startswith("gaussian"):
            problem, theta, kw = CONTINUOUS[case]()
        else:
            problem, scale, kw = CASES[case]()
            theta = _theta(problem, scale)
        batch = generate_rollouts(problem, theta, 200, seed=9, **kw)
        got = fisher_matrix(problem, theta, batch)
        matrix, stderr = reference_sampled_fisher(problem, batch)
        assert_close(got.matrix, matrix)
        assert_close(got.stderr, stderr)
        assert got.n_rollouts == 200
