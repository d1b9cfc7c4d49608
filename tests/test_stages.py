"""Time-varying models answer for arrays of stages.

TimeVaryingChain takes an array of times in transition_matrix and
score_sums, TimeVaryingCost in value_table and grad_sum, and the rollout
estimators and the exact stage solve make one such call where they made
one per stage. Every result is checked here against the per-stage loop it
replaced, written with one integer time per call, to 1e-12 relative: on
stages that share one softmax layout (random_timevarying_problem and
offsets of one layout with a terminal state), on stages built one by one
on supports of their own, and on a plain chain with a cost that has a
staged part.
"""

import numpy as np
import pytest
from conftest import dense_grad_table, transition_score
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainopt import (
    InvalidStructureError,
    Problem,
    QuadraticCost,
    SoftmaxChain,
    TabularInitial,
    TimeVarying,
    TimeVaryingChain,
    TimeVaryingCost,
    WeightedSumCost,
    estimate_gradient,
    exact_gradient,
    generate_rollouts,
    objective,
)
from chainopt.model import staged
from chainopt.problems import random_timevarying_problem
from chainopt.rollout import path_gradient, path_hessian

PROPERTY = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = ("shared", "shared-terminal", "unshared", "mixed")


def assert_close(a, b):
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)


def _support(rng, n, live, sizes=None):
    """Successor sets of the live states: each state's own size, or a
    random one, drawn from all n states."""
    if sizes is None:
        sizes = {x: int(rng.integers(1, n + 1)) for x in live}
    return {x: sorted(rng.choice(n, size=sizes[x], replace=False).tolist()) for x in live}


def _costs(rng, n, p, count):
    return [
        QuadraticCost(rng.uniform(0.5, 2.0, n), 0.3 * rng.normal(size=(n, p)),
                      rng.uniform(0.05, 0.2, p), rng.uniform(size=n))
        for _ in range(count)
    ]


def build(kind, horizon, n, seed):
    """A time-varying problem whose stages share one softmax layout, are
    SoftmaxChains on supports of their own (of equal sizes, so that they
    agree on n_params), or are one plain chain, with a cost that sums a
    stationary part and a staged one."""
    if kind == "shared":
        return random_timevarying_problem(horizon, n_states=n, seed=seed)
    rng = np.random.default_rng(seed)
    terminal = [n - 1] if kind != "mixed" and n > 2 else []
    live = [x for x in range(n) if x not in terminal]
    sizes = {x: int(rng.integers(1, n + 1)) for x in live}
    layout = SoftmaxChain(n, _support(rng, n, live, sizes), terminal=terminal)
    p = layout.n_params
    if kind == "shared-terminal":
        chain = TimeVaryingChain([layout._with_offset(rng.normal(size=p)) for _ in range(horizon)])
    elif kind == "unshared":
        chain = TimeVaryingChain([
            SoftmaxChain(n, _support(rng, n, live, sizes), terminal=terminal,
                         logit_offset=rng.normal(size=p))
            for _ in range(horizon)
        ])
    else:
        chain = layout._with_offset(rng.normal(size=p))
    costs = _costs(rng, n, p, horizon + 2)
    cost = TimeVaryingCost(costs[1:])
    if kind == "mixed":
        cost = WeightedSumCost([costs[0], cost], weights=[0.5, 1.0])
    return Problem(chain, cost, TimeVarying(horizon), TabularInitial(np.full(n, 1.0 / n)))


@st.composite
def stage_problems(draw):
    kind = draw(st.sampled_from(KINDS))
    horizon, n = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**16))
    problem = build(kind, horizon, n, seed)
    rng = np.random.default_rng(seed + 1)
    return problem, 0.8 * rng.normal(size=problem.n_params), rng


# ---------------------------------------------------------------------------
# The per-stage references, one integer time per model call
# ---------------------------------------------------------------------------


def per_stage_matrices(chain, theta, times):
    return np.stack([chain.transition_matrix(theta, t) for t in times.tolist()], axis=-3)


def per_stage_score_sums(chain, theta, x, y, coef, groups, n_groups, times):
    out = np.zeros((n_groups, chain.n_params))
    for t in np.unique(times).tolist():
        at = times == t
        out += chain.score_sums(theta, x[at], y[at], coef[at], groups[at], n_groups, t)
    return out


def per_stage_grad_sum(cost, theta, w, times):
    return sum(cost.grad_sum(theta, w[..., i, :], t) for i, t in enumerate(times.tolist()))


def per_stage_values(problem, theta):
    """V_t = L_t + P_t V_{t+1}, one stage at a time."""
    chain, cost, T = problem.chain, problem.cost, problem.setting.horizon
    V = [cost.value_table(theta, T)]
    for t in range(T - 1, -1, -1):
        V.insert(0, cost.value_table(theta, t) + chain.transition_matrix(theta, t) @ V[0])
    return np.array(V)


def per_stage_gradient(problem, theta):
    """Stage densities pushed forward, with each stage's cost gradient and
    row VJP at the next stage's values."""
    chain, cost, T = problem.chain, problem.cost, problem.setting.horizon
    V = per_stage_values(problem, theta)
    d, g = problem.init.weights.copy(), np.zeros(problem.n_params)
    for t in range(T):
        g += cost.grad_sum(theta, d, t) + chain.row_vjp(theta, np.outer(d, V[t + 1]), t)
        d = chain.transition_matrix(theta, t).T @ d
    return g + cost.grad_sum(theta, d, T)


def per_rollout_derivatives(problem, theta, batch, baseline):
    """Per rollout: the estimate_gradient contribution with the baseline's
    expected values, the path gradient, and the path Hessian, from
    per-transition scores and per-step second derivatives."""
    chain, cost, T = problem.chain, problem.cost, problem.setting.horizon
    n, p = chain.n_states, problem.n_params
    grads = [dense_grad_table(cost, theta, t) for t in range(T + 1)]
    expected = [chain.transition_matrix(theta, t) @ baseline for t in range(T)]
    est, path, hess = [], [], []
    for r in batch.rollouts:
        s, total = r.states, float(r.costs.sum())
        togo = np.cumsum(r.costs[::-1])[::-1]
        scores = [transition_score(chain, s[t], s[t + 1], theta, t) for t in range(T)]
        dL = sum(grads[t][s[t]] for t in range(T + 1))
        est.append(dL + sum(sc * (togo[t + 1] - expected[t][s[t]]) for t, sc in enumerate(scores)))
        dK = sum(scores, np.zeros(p))
        path.append(dK * total + dL)
        d2K = np.zeros((p, p))
        for t, sc in enumerate(scores):
            E = np.zeros((n, n))
            E[s[t], s[t + 1]] = 1.0 / chain.transition_matrix(theta, t)[s[t], s[t + 1]]
            d2K += chain.row_hess(theta, E, t) - np.outer(sc, sc)
        d2L = sum(cost.hess_sum(theta, np.eye(n)[s[t]], t) for t in range(T + 1))
        hess.append((np.outer(dK, dK) + d2K) * total + np.outer(dK, dL) + np.outer(dL, dK) + d2L)
    return np.array(est), np.array(path), np.array(hess)


def _transitions(problem, theta, rng, size):
    """Random transitions on each one's stage's support, with the times
    beyond the last stage included, unsorted and repeated."""
    T = problem.setting.horizon
    times = rng.integers(0, T + 2, size=size)
    x = rng.integers(0, problem.chain.n_states, size=size)
    P = per_stage_matrices(problem.chain, theta, times)
    y = np.array([rng.choice(np.flatnonzero(P[i, x[i]] > 0)) for i in range(size)], dtype=np.int64)
    return x, y, times


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


@given(stage_problems())
@PROPERTY
def test_stage_arrays_match_the_per_stage_tables(case):
    problem, theta, rng = case
    chain, cost = staged(problem.chain), staged(problem.cost)
    T, n = problem.setting.horizon, problem.chain.n_states
    times = rng.integers(0, T + 3, size=7)
    thetas = theta + 0.3 * rng.normal(size=(2, theta.size))
    for th in (theta, thetas):
        P = chain.transition_matrix(th, times)
        assert P.shape == th.shape[:-1] + (times.size, n, n)
        assert_close(P, per_stage_matrices(problem.chain, th, times))
        L = cost.value_table(th, times)
        assert L.shape == th.shape[:-1] + (times.size, n)
        want = [problem.cost.value_table(th, t) for t in times.tolist()]
        assert_close(L, np.stack(want, axis=-2))

    x, y, t = _transitions(problem, theta, rng, 40)
    coef = rng.normal(size=x.size)
    for groups, n_groups in ((rng.integers(0, 3, size=x.size), 3), (np.arange(x.size), x.size)):
        got = chain.score_sums(theta, x, y, coef, groups, n_groups, t)
        want = per_stage_score_sums(problem.chain, theta, x, y, coef, groups, n_groups, t)
        assert_close(got, want)

    w = rng.uniform(size=(4, times.size, n))
    assert_close(cost.grad_sum(theta, w, times), per_stage_grad_sum(problem.cost, theta, w, times))


@given(stage_problems())
@PROPERTY
def test_score_sums_per_cell_match_the_per_transition_scores(case):
    """Stage-array score sums at one group and at three groups against the
    sum of each transition's own score, terminal rows included. 300
    transitions meet at most 3 * 6 * 5 = 90 (group, stage, segment) cells,
    so the shared-layout stages sum the coef mass per cell before they
    expand it over the segments."""
    problem, theta, rng = case
    x, y, t = _transitions(problem, theta, rng, 300)
    coef = rng.normal(size=x.size)
    scores = [transition_score(problem.chain, *args, theta, u) for *args, u in zip(x, y, t)]
    for n_groups in (1, 3):
        groups = rng.integers(0, n_groups, size=x.size)
        want = np.zeros((n_groups, problem.n_params))
        np.add.at(want, groups, coef[:, None] * np.array(scores))
        got = staged(problem.chain).score_sums(theta, x, y, coef, groups, n_groups, t)
        assert_close(got, want)


@given(stage_problems())
@PROPERTY
def test_exact_stage_solve_matches_the_per_stage_recursion(case):
    problem, theta, rng = case
    V = per_stage_values(problem, theta)
    assert_close(objective(problem, theta), problem.init.weights @ V[0])
    thetas = theta + 0.3 * rng.normal(size=(3, theta.size))
    assert_close(objective(problem, thetas), [objective(problem, th) for th in thetas])
    assert_close(exact_gradient(problem, theta), per_stage_gradient(problem, theta))


@given(stage_problems())
@PROPERTY
def test_estimators_match_the_per_stage_loops(case):
    problem, theta, rng = case
    batch = generate_rollouts(problem, theta, 25, seed=int(rng.integers(0, 1000)))
    baseline = rng.normal(size=problem.chain.n_states)
    est, path, hess = per_rollout_derivatives(problem, theta, batch, baseline)
    assert_close(estimate_gradient(problem, theta, batch, baseline).diagnostics["per_rollout"], est)
    assert_close(path_gradient(problem, theta, batch).diagnostics["per_rollout"], path)
    got = path_hessian(problem, theta, batch)
    mean = hess.mean(axis=0)
    assert_close(got.mean, 0.5 * (mean + mean.T))
    assert_close(got.stderr, hess.std(axis=0, ddof=1) / np.sqrt(len(hess)))


# ---------------------------------------------------------------------------
# Refusals and call counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["shared", "shared-terminal", "unshared"])
def test_a_transition_outside_its_stage_support_is_refused(kind):
    problem = build(kind, 4, 5, seed=3)
    chain, theta = problem.chain, np.zeros(problem.n_params)
    P = per_stage_matrices(chain, theta, np.arange(4))
    # a live transition with zero probability at stage 2; with stages on
    # supports of their own, one that another stage allows if there is one
    live = [x for x in range(5) if x not in chain.terminal]
    off = [(x, y) for x in live for y in range(5) if P[2, x, y] == 0]
    assert off
    allowed = [(x, y) for x, y in off if (P[:, x, y] > 0).any()]
    x, y = (allowed or off)[0]
    if kind == "unshared":
        assert allowed
    times = np.array([0, 2, 1])
    xs, ys = np.array([live[0], x, live[0]]), np.array([chain.successors(live[0])[0], y, live[0]])
    with pytest.raises(InvalidStructureError, match="outside the support"):
        chain.score_sums(theta, xs, ys, np.ones(3), np.arange(3), 3, times)


def test_shared_stages_take_one_softmax_and_others_one_call_per_stage(monkeypatch):
    """At one theta, stages made by _with_offset share one layout and
    build no stage alone; stages built one by one, and a stack of theta,
    are asked once per time."""
    calls = []
    build_one = SoftmaxChain.transition_matrix
    monkeypatch.setattr(
        SoftmaxChain, "transition_matrix",
        lambda self, theta, t=0: calls.append(t) or build_one(self, theta, t),
    )
    times, each = np.array([3, 0, 3, 1, 7]), [0, 1, 3, 3, 7]
    for kind, want in (("shared", []), ("shared-terminal", []), ("unshared", each)):
        problem = build(kind, 4, 4, seed=5)
        stack = np.zeros((2, problem.n_params))
        for theta, want in ((np.zeros(problem.n_params), want), (stack, each)):
            calls.clear()
            problem.chain.transition_matrix(theta, times)
            assert sorted(calls) == want


def test_path_hessian_builds_every_stage_in_one_call(monkeypatch):
    """path_hessian reads P for its (t, x, y) keys from one stacked call,
    which builds no stage's P alone."""
    problem = random_timevarying_problem(5, n_states=4, seed=2)
    theta = 0.5 * np.random.default_rng(0).normal(size=problem.n_params)
    batch = generate_rollouts(problem, theta, 40, seed=3)
    builds = {TimeVaryingChain: [], SoftmaxChain: []}
    for cls in builds:
        def counted(self, theta, t=0, cls=cls, build_one=cls.transition_matrix):
            builds[cls].append(t)
            return build_one(self, theta, t)

        monkeypatch.setattr(cls, "transition_matrix", counted)
    path_hessian(problem, theta, batch)
    (times,) = builds[TimeVaryingChain]
    np.testing.assert_array_equal(times, np.arange(5))
    assert builds[SoftmaxChain] == []
