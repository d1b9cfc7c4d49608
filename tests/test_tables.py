"""Table-level derivatives checked against references.

A tabular chain is its tables. Transition matrices must agree with
test-local per-row references; row_vjp and fisher, the overrides and
ChainModel's support-based defaults alike, with the dense score-table
contractions of conftest, on random supports, terminal sets, logit
offsets and large logits. Each table is also checked against
a central difference of the table below it: score_table against log P,
row_vjp against <W, P>, row_hess against row_vjp. Every cost on a finite
state set is a table and its contractions: its value_table must match a
closed form, grad_sum(theta, w) the central difference of w @
value_table for a vector w and row by row for w with leading axes, row x
of conftest's dense grad_sum(theta, eye(n)) the central difference of
value_table(theta)[x], and hess_sum(theta, w) the central difference of
grad_sum(theta, w).
"""

import numpy as np
import pytest
from conftest import dense_fisher, dense_grad_table, dense_row_vjp, fd_vector
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import chainopt
from chainopt import (
    Average,
    ChainModel,
    CostModel,
    DivergenceUndefinedError,
    FirstExit,
    FixedTabularChain,
    GaussianLinearChain,
    KlToFixedChainCost,
    QuadraticCost,
    SoftmaxChain,
    StateQuadraticCost,
    TableCost,
    TimeVaryingChain,
    TimeVaryingCost,
    WeightedSumCost,
    exact_gradient,
    fd_gradient,
    solve,
)
from chainopt.mdp import (
    LmdpSpec,
    MixedRowKlCost,
    PolicyAveragedChain,
    PolicyExpectedCost,
    PolicyKlFromOldCost,
    SoftmaxPolicy,
)
from chainopt.model import PolicyEntropyCost
from chainopt.problems import gaussian_linear_problem, gridworld_lmdp, random_smdp_problem
from chainopt.surrogate import ExactSurrogate, fisher_matrix
from chainopt.zlearn import ZWeightedChain, z_problem

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_close(a, b):
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)


@st.composite
def softmax_chains(draw, max_states=7):
    """A SoftmaxChain with random terminal set, unsorted supports and
    offsets, and a parameter vector that may hold logits of size 1e3."""
    n = draw(st.integers(1, max_states))
    terminal = draw(st.sets(st.integers(0, n - 1)))
    support = {}
    for x in range(n):
        if x not in terminal:
            succ = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            support[x] = succ
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = sum(len(s) for s in support.values())
    offset = rng.normal(size=k) if draw(st.booleans()) else None
    chain = SoftmaxChain(n, support, terminal=terminal, logit_offset=offset)
    scale = draw(st.sampled_from([0.0, 1.0, 5.0, 1e3]))
    theta = scale * rng.normal(size=k)
    return chain, theta, rng


def softmax_rows(chain, theta):
    """Rows of a SoftmaxChain one state at a time: the softmax of the
    state's logits plus offsets, or a self loop at a terminal state."""
    rows = np.zeros((chain.n_states, chain.n_states))
    for x in range(chain.n_states):
        if x in chain.terminal:
            rows[x, x] = 1.0
            continue
        sl = chain.param_slice(x)
        z = theta[sl] + chain._offset[sl]
        e = np.exp(z - z.max())
        rows[x, chain.successors(x)] = e / e.sum()
    return rows


@given(softmax_chains())
@PROPERTY
def test_softmax_transition_matrix_matches_row_softmax(case):
    chain, theta, _ = case
    rows = softmax_rows(chain, theta)
    P = chain.transition_matrix(theta)
    assert_close(P, rows)
    assert np.all(np.isfinite(P))
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@given(softmax_chains())
@PROPERTY
def test_softmax_row_vjp_matches_dense_reference(case):
    chain, theta, rng = case
    n = chain.n_states
    W = rng.normal(size=(n, n))
    assert_close(chain.row_vjp(theta, W), dense_row_vjp(chain, theta, W))


@given(softmax_chains())
@PROPERTY
def test_softmax_fisher_matches_dense_reference(case):
    chain, theta, rng = case
    w = rng.uniform(0.0, 1.0, size=chain.n_states)
    F = chain.fisher(theta, w).dense()
    assert F.shape == (chain.n_params, chain.n_params)
    assert_close(F, dense_fisher(chain, theta, w))


def test_chain_without_parameters():
    """Every state terminal: no segments, so reduceat sees empty inputs."""
    chain = SoftmaxChain(4, {}, terminal=range(4))
    theta = np.zeros(0)
    np.testing.assert_array_equal(chain.transition_matrix(theta), np.eye(4))
    assert chain.row_vjp(theta, np.ones((4, 4))).shape == (0,)
    assert chain.fisher(theta, np.ones(4)).dense().shape == (0, 0)
    assert ChainModel.row_vjp(chain, theta, np.ones((4, 4))).shape == (0,)
    assert ChainModel.fisher(chain, theta, np.ones(4)).dense().shape == (0, 0)


@st.composite
def segment_layouts(draw):
    """A SoftmaxChain whose segments are of equal length, of varying length,
    all of length 1, or absent (every state terminal), with its parameters
    at a random scale."""
    kind = draw(st.sampled_from(["equal", "varying", "ones", "none"]))
    n_live = 0 if kind == "none" else draw(st.integers(1, 5))
    if kind == "varying":
        lens = draw(st.lists(st.integers(1, 5), min_size=n_live, max_size=n_live))
    else:
        lens = [draw(st.integers(1, 5)) if kind == "equal" else 1] * n_live
    n = max(n_live + draw(st.integers(0, 2)), max(lens, default=0), 4 if kind == "none" else 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = {x: rng.permutation(n)[:k].tolist() for x, k in enumerate(lens)}
    chain = SoftmaxChain(n, support, terminal=range(n_live, n))
    theta = draw(st.sampled_from([0.0, 1.0, 5.0])) * rng.normal(size=chain.n_params)
    return chain, theta, rng


@given(segment_layouts())
@example((SoftmaxChain(4, {}, terminal=range(4)), np.zeros(0), np.random.default_rng(0)))
@PROPERTY
def test_segment_softmax_matches_dense_references(case):
    """The kernel's probabilities, VJP and Fisher against the chain's rows
    and conftest's dense contractions, and its curvature against a central
    difference of its VJP plus the Fisher."""
    chain, theta, rng = case
    kernel, n = chain._softmax, chain.n_states
    W = rng.normal(size=(n, n))
    w = rng.uniform(0.0, 1.0, size=n)
    c, w_k = W[chain._flat_x, chain._flat_y], w[chain._flat_x]
    stack = np.stack([theta, -theta, 2.0 * theta])
    P = chain.transition_matrix(stack)
    np.testing.assert_array_equal(kernel.probs(stack), P[:, chain._flat_x, chain._flat_y])
    assert_close(kernel.vjp(theta, c), dense_row_vjp(chain, theta, W))
    fisher = dense_fisher(chain, theta, w)
    assert_close(kernel.curvature(theta, 0.0, w_k).dense(), fisher)
    H = kernel.curvature(theta, c, w_k).dense()
    assert H.shape == (chain.n_params, chain.n_params)
    np.testing.assert_allclose(H, H.T, rtol=0, atol=1e-12)
    if chain.n_params:
        fd = fd_vector(lambda th: kernel.vjp(th, c), theta)
        np.testing.assert_allclose(H, fd + fisher, rtol=1e-5, atol=1e-6)


@given(softmax_chains(max_states=5))
@PROPERTY
def test_time_varying_chain_forwards_to_its_stage(case):
    chain, theta, rng = case
    other = SoftmaxChain(
        chain.n_states,
        {x: chain.successors(x) for x in range(chain.n_states) if x not in chain.terminal},
        terminal=chain.terminal,
        logit_offset=rng.normal(size=chain.n_params),
    )
    tv = TimeVaryingChain([chain, other])
    n = chain.n_states
    W = rng.normal(size=(n, n))
    w = rng.uniform(size=n)
    for t, stage in ((0, chain), (1, other), (5, other)):
        np.testing.assert_array_equal(tv.row_vjp(theta, W, t), stage.row_vjp(theta, W))
        np.testing.assert_array_equal(
            tv.fisher(theta, w, t).dense(), stage.fisher(theta, w).dense()
        )


@st.composite
def policy_cases(draw):
    n_s = draw(st.integers(1, 5))
    n_a = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    policy = SoftmaxPolicy(n_s, n_a)
    # sparse rows: every (state, action) keeps at least one successor
    trans = rng.uniform(size=(n_s, n_a, n_s)) * (rng.uniform(size=(n_s, n_a, n_s)) < 0.5)
    trans[np.arange(n_s)[:, None], np.arange(n_a)[None, :], rng.integers(0, n_s, (n_s, n_a))] += 1
    trans /= trans.sum(axis=2, keepdims=True)
    # terminal rows are identity rows whatever the tensor says there
    terminal = draw(st.sets(st.integers(0, n_s - 1)))
    costs = rng.normal(size=(n_s, n_a))
    return policy, trans, terminal, costs, rng


@given(policy_cases(), st.sampled_from([1.0, 10.0]))
@PROPERTY
def test_policy_averaged_tables_match_per_state(case, scale):
    policy, trans, terminal, costs, rng = case
    chain = PolicyAveragedChain(trans, policy, terminal=terminal)
    theta = scale * rng.normal(size=policy.n_params)
    n = policy.n_states
    pi = np.zeros((n, policy.n_actions))
    for x in range(n):
        z = theta[policy.param_slice(x)]
        e = np.exp(z - z.max())
        pi[x] = e / e.sum()
    assert_close(policy.table(theta), pi)
    rows = np.stack([np.eye(n)[x] if x in terminal else pi[x] @ trans[x] for x in range(n)])
    assert_close(chain.transition_matrix(theta), rows)
    W = rng.normal(size=(n, n))
    assert_close(chain.row_vjp(theta, W), dense_row_vjp(chain, theta, W))


@given(policy_cases(), st.sampled_from([1.0, 10.0]), st.booleans())
@PROPERTY
def test_policy_averaged_fisher_matches_dense_reference(case, scale, keep_terminal):
    """The per-state block Fisher against the dense score-table contraction
    and ChainModel's support-based default, with and without terminals."""
    policy, trans, terminal, _, rng = case
    chain = PolicyAveragedChain(trans, policy, terminal=terminal if keep_terminal else ())
    theta = scale * rng.normal(size=policy.n_params)
    w = rng.uniform(0.0, 1.0, size=policy.n_states)
    F = chain.fisher(theta, w).dense()
    assert_close(F, dense_fisher(chain, theta, w))
    assert_close(F, ChainModel.fisher(chain, theta, w).dense())


# ---------------------------------------------------------------------------
# ChainModel's support-based row_vjp and fisher against the dense reference
# ---------------------------------------------------------------------------


def _gridworld_z_chain():
    spec = gridworld_lmdp(4, seed=2)
    features = np.random.default_rng(5).normal(size=(spec.n_states, 3))
    features[sorted(spec.terminal)] = 0.0
    return ZWeightedChain(spec, features, gamma=0.8), 0


def _smdp_chain_with_terminal():
    problem, _ = random_smdp_problem(5, 3, seed=4)
    return PolicyAveragedChain(problem.chain.p, problem.chain.policy, terminal=[2]), 0


def _fixed_chain():
    P = np.random.default_rng(6).dirichlet(np.ones(4), size=4)
    return FixedTabularChain(P, n_params=3), 0


def _time_varying_stage():
    rng = np.random.default_rng(7)
    support = {0: [0, 1, 2], 1: [2, 3], 2: [0, 3]}
    stages = [
        SoftmaxChain(4, support, terminal=[3], logit_offset=rng.normal(size=7))
        for _ in range(3)
    ]
    return TimeVaryingChain(stages), 1


GENERIC_CHAINS = {
    "z-gridworld": _gridworld_z_chain,
    "smdp-terminal": _smdp_chain_with_terminal,
    "fixed": _fixed_chain,
    "time-varying-stage": _time_varying_stage,
}


@pytest.mark.parametrize("name", sorted(GENERIC_CHAINS))
@given(
    values=st.lists(st.floats(-3.0, 3.0), min_size=32, max_size=32),
    seed=st.integers(0, 2**32 - 1),
)
@settings(PROPERTY, max_examples=20)
def test_generic_row_vjp_and_fisher_match_the_dense_reference(name, values, seed):
    chain, t = GENERIC_CHAINS[name]()
    theta = np.resize(np.asarray(values), chain.n_params)
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(chain.n_states, chain.n_states))
    w = rng.uniform(size=chain.n_states)
    assert_close(ChainModel.row_vjp(chain, theta, W, t), dense_row_vjp(chain, theta, W, t))
    F = ChainModel.fisher(chain, theta, w, t).dense()
    assert F.shape == (chain.n_params, chain.n_params)
    assert_close(F, dense_fisher(chain, theta, w, t))


@pytest.mark.parametrize("kind", ["gridworld", "smdp"])
def test_exact_derivatives_build_no_score_table(kind, monkeypatch):
    """The exact gradient, the exact Fisher and the exact surrogate Hessian
    on the Z-weighted and policy-averaged chains never go through the dense
    (n, n, p) score table."""
    if kind == "gridworld":
        spec = gridworld_lmdp(4, seed=2)
        interior = [x for x in range(spec.n_states) if x not in spec.terminal]
        problem = z_problem(spec, np.eye(spec.n_states)[:, interior], FirstExit())
    else:
        problem, _ = random_smdp_problem(5, 3, seed=4, setting=Average())
    theta = 0.3 * np.random.default_rng(8).normal(size=problem.n_params)

    def refuse(*args, **kwargs):
        raise AssertionError("score_table was called")

    monkeypatch.setattr(ChainModel, "score_table", refuse)
    sol = solve(problem, theta)
    exact_gradient(problem, theta, solution=sol)
    fisher_matrix(problem, theta, solution=sol)
    ExactSurrogate(problem, theta, solution=sol).hess(np.zeros(problem.n_params))


def assert_fd_rows(cost, theta, t=0):
    """Row x of the dense grad_sum(theta, eye(n)) equals the central
    difference of value_table[x]."""
    G = dense_grad_table(cost, theta, t)
    assert G.shape == (cost.n_states, theta.size)
    assert np.all(np.isfinite(G)) and np.all(np.isfinite(cost.value_table(theta, t)))
    fd = np.stack(
        [fd_gradient(lambda th: cost.value_table(th, t)[x], theta) for x in range(cost.n_states)]
    ).reshape(G.shape)
    np.testing.assert_allclose(G, fd, rtol=1e-5, atol=1e-5)


def random_quadratic(rng, n, p):
    root = rng.normal(size=(p, p))
    return QuadraticCost(
        rng.normal(size=n), rng.normal(size=(n, p)), root + root.T, rng.uniform(size=n)
    )


@given(
    st.integers(1, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e3]),
)
@PROPERTY
def test_state_cost_tables(n, p, seed, scale):
    """Table, quadratic, weighted-sum and time-varying costs."""
    rng = np.random.default_rng(seed)
    theta = scale * rng.normal(size=p)
    table = TableCost(rng.normal(size=n), n_params=p)
    quad = random_quadratic(rng, n, p)
    want = quad.const + quad.lin @ theta + 0.5 * quad.quad_weights * (theta @ quad.quad @ theta)
    assert_close(quad.value_table(theta), want)
    assert_close(table.value_table(theta), table.values)
    np.testing.assert_array_equal(dense_grad_table(table, theta), np.zeros((n, p)))
    both = WeightedSumCost([table, quad], weights=[2.0, -0.5])
    assert_close(both.value_table(theta), 2.0 * table.values - 0.5 * want)
    other = random_quadratic(rng, n, p)
    staged = TimeVaryingCost([quad, other])
    for t, stage in ((0, quad), (1, other), (7, other)):
        np.testing.assert_array_equal(staged.value_table(theta, t), stage.value_table(theta))
    for cost in (table, quad, both):
        assert_fd_rows(cost, theta)
    assert_fd_rows(staged, theta, t=7)


def kl_rows(P, Q):
    """Per-row KL(P || Q), one row at a time over P's positive entries."""
    out = np.zeros(P.shape[0])
    for x in range(P.shape[0]):
        m = P[x] > 0
        out[x] = np.sum(P[x, m] * np.log(P[x, m] / Q[x, m]))
    return out


@given(softmax_chains(max_states=5))
@PROPERTY
def test_kl_cost_tables_on_softmax_chain(case):
    chain, theta, rng = case
    reference = rng.dirichlet(np.ones(chain.n_states), size=chain.n_states)
    cost = KlToFixedChainCost(chain, reference)
    assert_close(cost.value_table(theta), kl_rows(chain.transition_matrix(theta), reference))
    assert_fd_rows(cost, theta)


def random_z_chain(rng, n, k, gamma=1.0):
    """A ZWeightedChain on a sparse random baseline whose last state is
    terminal, and the baseline."""
    baseline = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
    baseline[np.arange(n), rng.integers(0, n, n)] += 1.0
    baseline[n - 1] = np.eye(n)[n - 1]  # terminal
    baseline /= baseline.sum(axis=1, keepdims=True)
    cost_r = np.append(rng.uniform(size=n - 1), 0.0)
    spec = LmdpSpec(baseline, cost_r, terminal=[n - 1])
    features = rng.uniform(size=(n, k))
    features[n - 1] = 0.0
    return ZWeightedChain(spec, features, gamma), baseline


@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e3]))
@PROPERTY
def test_kl_cost_tables_on_z_weighted_chain(n, k, seed, scale):
    rng = np.random.default_rng(seed)
    chain, baseline = random_z_chain(rng, n, k)
    theta = scale * rng.normal(size=k)
    cost = KlToFixedChainCost(chain, baseline)
    assert_close(cost.value_table(theta), kl_rows(chain.transition_matrix(theta), baseline))
    assert_fd_rows(cost, theta)


@given(policy_cases(), st.sampled_from([1.0, 1e3]))
@PROPERTY
def test_policy_cost_tables(case, scale):
    """Expected action cost, entropy and the action-mixed row KL."""
    policy, trans, _, costs, rng = case
    theta = scale * rng.normal(size=policy.n_params)
    pi = policy.table(theta)
    n = policy.n_states
    expected = PolicyExpectedCost(policy, costs)
    assert_close(expected.value_table(theta), np.sum(pi * costs, axis=1))
    entropy = PolicyEntropyCost(policy)
    logs = np.log(np.where(pi > 0, pi, 1.0))
    assert_close(entropy.value_table(theta), -np.sum(pi * logs, axis=1))
    reference = rng.dirichlet(np.ones(n), size=n)
    state_cost = rng.normal(size=n)
    mixed = MixedRowKlCost(trans, policy, reference, state_cost)
    mixed_rows = np.einsum("xa,xay->xy", pi, trans)
    assert_close(mixed.value_table(theta), state_cost + kl_rows(mixed_rows, reference))
    for cost in (expected, entropy, mixed):
        assert_fd_rows(cost, theta)


@given(policy_cases(), st.sampled_from([1.0, 20.0]))
@PROPERTY
def test_policy_kl_from_old_tables(case, scale):
    """Frozen rows with a zero entry. Logit scales stay where the policy
    keeps positive mass; at 1e3 it underflows and the next test applies."""
    policy, _, _, _, rng = case
    pi_old = rng.dirichlet(np.ones(policy.n_actions), size=policy.n_states)
    pi_old[:, 0] = 0.0 if policy.n_actions > 1 else 1.0
    pi_old /= pi_old.sum(axis=1, keepdims=True)
    cost = PolicyKlFromOldCost(policy, pi_old)
    theta = scale * rng.normal(size=policy.n_params)
    assert_close(cost.value_table(theta), kl_rows(pi_old, policy.table(theta)))
    assert_fd_rows(cost, theta)


def test_policy_kl_from_old_refuses_a_starved_action():
    policy = SoftmaxPolicy(1, 2)
    cost = PolicyKlFromOldCost(policy, np.array([[0.5, 0.5]]))
    with pytest.raises(DivergenceUndefinedError):
        cost.value_table(np.array([0.0, -1e3]))


def test_z_weighted_transition_matrix_matches_per_row_reference_at_large_energies():
    """exp(-energy) overflows at these parameters; the rows stay finite."""
    baseline = np.full((3, 3), 1.0 / 3.0)
    baseline[2] = [0.0, 0.5, 0.5]
    features = np.array([[1.0], [0.0], [-1.0]])
    chain = ZWeightedChain(LmdpSpec(baseline, np.ones(3)), features)
    for theta in (np.array([1e3]), np.array([-1e3]), np.array([0.3])):
        rows = np.zeros((3, 3))
        for x in range(3):
            sup = np.flatnonzero(baseline[x] > 0.0)
            logw = -(features @ theta)[sup]
            w = baseline[x, sup] * np.exp(logw - logw.max())
            rows[x, sup] = w / w.sum()
        assert_close(chain.transition_matrix(theta), rows)


@given(st.integers(2, 6), st.integers(1, 4), st.sampled_from([0.5, 1.0, 2.0]), st.data())
@PROPERTY
def test_z_weighted_transition_matrix_at_a_stack_of_theta(n, k, gamma, data):
    """At a stack of theta whose energies g theta.phi(y) = g theta_y reach
    +-50, each row is the dense pbar exp(-energy) over its row sum, exactly
    0 off the baseline support."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    spec = random_z_chain(rng, n, 1)[0].spec
    baseline, features = spec.baseline, np.eye(n)[:, : n - 1]  # terminal row zero
    chain = ZWeightedChain(spec, features, gamma)
    theta = data.draw(arrays(float, (k, n - 1), elements=st.floats(-50.0, 50.0))) / gamma
    P = chain.transition_matrix(theta)
    dense = baseline * np.exp(-gamma * (theta @ features.T))[:, None, :]
    assert np.abs(P - dense / dense.sum(axis=-1, keepdims=True)).max() <= 1e-14
    assert np.all(P[:, baseline == 0.0] == 0.0)
    assert np.abs(P.sum(axis=-1) - 1.0).max() <= 1e-14


# ---------------------------------------------------------------------------
# Each table against a central difference of the table below it
# ---------------------------------------------------------------------------


ORACLE = settings(PROPERTY, max_examples=20)

CHAIN_KINDS = ["softmax", "staged", "fixed", "policy", "z"]


@st.composite
def tabular_chains(draw, kind):
    """(chain, theta, t, rng) for a tabular chain of the given kind, at
    parameter scales where central differences are accurate."""
    scale = draw(st.sampled_from([0.0, 1.0, 3.0]))
    if kind in ("softmax", "staged"):
        chain, _, rng = draw(softmax_chains(max_states=5))
        t = 0
        if kind == "staged":
            other = SoftmaxChain(
                chain.n_states,
                {x: chain.successors(x) for x in range(chain.n_states) if x not in chain.terminal},
                terminal=chain.terminal,
                logit_offset=rng.normal(size=chain.n_params),
            )
            chain, t = TimeVaryingChain([chain, other]), draw(st.sampled_from([0, 1, 4]))
        return chain, scale * rng.normal(size=chain.n_params), t, rng
    if kind == "policy":
        policy, trans, terminal, _, rng = draw(policy_cases())
        chain = PolicyAveragedChain(trans, policy, terminal=terminal)
        return chain, scale * rng.normal(size=chain.n_params), 0, rng
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 5))
    if kind == "fixed":
        chain = FixedTabularChain(rng.dirichlet(np.ones(n), size=n), n_params=2)
    else:
        chain = random_z_chain(rng, n, draw(st.integers(1, 3)), rng.uniform(0.5, 1.5))[0]
    return chain, scale * rng.normal(size=chain.n_params), 0, rng


def support(chain):
    xs = [x for x in range(chain.n_states) for _ in chain.successors(x)]
    ys = [y for x in range(chain.n_states) for y in chain.successors(x)]
    return np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)


@pytest.mark.parametrize("kind", CHAIN_KINDS)
@given(data=st.data())
@ORACLE
def test_score_table_is_fd_of_log_transition_matrix(kind, data):
    chain, theta, t, _ = data.draw(tabular_chains(kind))
    xs, ys = support(chain)
    S = chain.score_table(theta, t)
    fd = fd_vector(lambda th: np.log(chain.transition_matrix(th, t)[xs, ys]), theta)
    np.testing.assert_allclose(S[xs, ys], fd, rtol=1e-5, atol=1e-6)
    off = np.ones((chain.n_states, chain.n_states), dtype=bool)
    off[xs, ys] = False
    assert not np.any(S[off])


@pytest.mark.parametrize("kind", CHAIN_KINDS)
@given(data=st.data())
@ORACLE
def test_row_vjp_is_fd_of_weighted_transition_matrix(kind, data):
    chain, theta, t, rng = data.draw(tabular_chains(kind))
    W = rng.normal(size=(chain.n_states, chain.n_states))
    fd = fd_vector(lambda th: np.sum(W * chain.transition_matrix(th, t)), theta)
    np.testing.assert_allclose(chain.row_vjp(theta, W, t), fd, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("kind", CHAIN_KINDS)
@given(data=st.data())
@ORACLE
def test_row_hess_is_fd_of_row_vjp(kind, data):
    chain, theta, t, rng = data.draw(tabular_chains(kind))
    W = rng.normal(size=(chain.n_states, chain.n_states))
    H = chain.row_hess(theta, W, t)
    assert H.shape == (chain.n_params, chain.n_params)
    np.testing.assert_allclose(H, H.T, rtol=0, atol=1e-12)
    fd = fd_vector(lambda th: chain.row_vjp(th, W, t), theta)
    np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-6)


COST_KINDS = [
    "table", "quadratic", "quadratic-diag", "sum", "staged", "policy-expected", "policy-kl"
] + [
    "kl-" + kind for kind in CHAIN_KINDS
]


@st.composite
def tabular_costs(draw, kind):
    """(cost, theta, t, rng) for a cost on a finite state set of the given
    kind, twice differentiable for the kinds in COST_KINDS; "kl-<chain
    kind>" is the KL cost on that chain."""
    if kind.startswith("kl-"):
        chain, theta, t, rng = draw(tabular_chains(kind[3:]))
        reference = rng.dirichlet(np.ones(chain.n_states), size=chain.n_states)
        return KlToFixedChainCost(chain, reference), theta, t, rng
    if kind.startswith("policy-"):
        policy, trans, _, costs, rng = draw(policy_cases())
        theta = draw(st.sampled_from([0.0, 1.0, 3.0])) * rng.normal(size=policy.n_params)
        if kind == "policy-expected":
            return PolicyExpectedCost(policy, costs), theta, 0, rng
        if kind == "policy-entropy":
            return PolicyEntropyCost(policy), theta, 0, rng
        if kind == "policy-mixed-kl":
            n = policy.n_states
            reference = rng.dirichlet(np.ones(n), size=n)
            return MixedRowKlCost(trans, policy, reference, rng.normal(size=n)), theta, 0, rng
        pi_old = rng.dirichlet(np.ones(policy.n_actions), size=policy.n_states)
        return PolicyKlFromOldCost(policy, pi_old), theta, 0, rng
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    theta = rng.normal(size=p)
    table = TableCost(rng.normal(size=n), n_params=p)
    quad = random_quadratic(rng, n, p)
    cost = {
        "table": table,
        "quadratic": quad,
        "sum": WeightedSumCost([table, quad], weights=[2.0, -0.5]),
        "staged": TimeVaryingCost([table, quad]),
        "quadratic-diag": QuadraticCost(
            rng.normal(size=n), rng.normal(size=(n, p)), rng.normal(size=p), rng.uniform(size=n)
        ),
    }[kind]
    return cost, theta, 3 if kind == "staged" else 0, rng


@pytest.mark.parametrize("kind", COST_KINDS)
@given(data=st.data())
@ORACLE
def test_hess_sum_is_fd_of_weighted_grad_table(kind, data):
    cost, theta, t, rng = data.draw(tabular_costs(kind))
    w = rng.uniform(size=cost.n_states)
    H = cost.hess_sum(theta, w, t)
    assert H.shape == (theta.size, theta.size)
    fd = fd_vector(lambda th: cost.grad_sum(th, w, t), theta)
    np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("kind", COST_KINDS + ["policy-entropy", "policy-mixed-kl"])
@given(data=st.data())
@ORACLE
def test_grad_sum_is_fd_of_weighted_value_table(kind, data):
    """grad_sum(theta, w) is the central difference of w @ value_table for
    a vector w; for w with leading axes, fewer rows than states or more,
    it contracts each row alike."""
    cost, theta, t, rng = data.draw(tabular_costs(kind))
    w = rng.uniform(size=cost.n_states)
    g = cost.grad_sum(theta, w, t)
    assert g.shape == theta.shape
    fd = fd_vector(lambda th: w @ cost.value_table(th, t), theta)
    np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-6)
    for lead in [(1,), (2, 3), (4 * cost.n_states,)]:
        W = rng.uniform(size=lead + (cost.n_states,))
        G = cost.grad_sum(theta, W, t)
        assert G.shape == lead + theta.shape
        for i in np.ndindex(lead):
            assert_close(G[i], cost.grad_sum(theta, W[i], t))


@given(
    st.integers(1, 5),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e3]),
)
@PROPERTY
def test_diagonal_quadratic_cost_matches_its_dense_twin(n, p, seed, scale):
    """A 1-D quad is the diagonal of Q: value_table at a stack of theta,
    grad_sum at stacked weights and hess_sum agree with np.diag(quad)."""
    rng = np.random.default_rng(seed)
    const, lin, q = rng.normal(size=n), rng.normal(size=(n, p)), rng.normal(size=p)
    qw = rng.uniform(size=n)
    diag, dense = QuadraticCost(const, lin, q, qw), QuadraticCost(const, lin, np.diag(q), qw)
    thetas = scale * rng.normal(size=(3, p))
    w = rng.uniform(size=(3, n))
    assert_close(diag.value_table(thetas), dense.value_table(thetas))
    assert_close(diag.grad_sum(thetas[0], w), dense.grad_sum(thetas[0], w))
    assert_close(diag.hess_sum(thetas[0], w[0]), dense.hess_sum(thetas[0], w[0]))


def test_tabular_chains_and_costs_have_no_per_state_methods():
    """Tabular chains are transition_matrix, score_sums and row_hess; tabular
    costs are value_table, grad_sum and hess_sum, with no dense gradient
    table. The continuous chain is score_sums, log_density and
    density_hess over arrays of transitions, and the continuous cost
    state_values, state_grad_sums and state_hess_sum over arrays of
    states: no model has a per-state method. No model, the base classes
    included, declares capability flags: what a model supports is the
    methods it has."""
    classes = {
        obj for module in (chainopt.model, chainopt.mdp, chainopt.zlearn)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, (ChainModel, CostModel))
    }
    per_state = (
        "prob_row", "prob", "score", "log_prob", "log_prob_hess", "_row_probs", "value", "grad",
        "hess", "grad_table", "mean", "bottleneck", "bottleneck_jac", "prob_row_eta",
        "prob_row_eta_jac", "n_bottleneck", "grad_eta", "value_eta",
    )
    flags = (
        "samplable", "differentiable", "twice_differentiable", "time_varying", "has_bottleneck"
    )
    assert {ChainModel, CostModel, GaussianLinearChain, StateQuadraticCost} <= classes
    for cls in classes:
        for name in flags + per_state:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
        if issubclass(cls, ChainModel) and cls.tabular:
            for name in ("transition_matrix", "score_sums", "row_hess"):
                assert name in vars(cls), f"{cls.__name__} lacks {name}"
    assert "score_table" in vars(ChainModel)
    assert {"score_sums", "log_density", "density_hess"} <= set(vars(GaussianLinearChain))
    assert {"state_values", "state_grad_sums", "state_hess_sum"} <= set(vars(StateQuadraticCost))
    # no bottleneck view on the Gaussian chain: exact_gradient_bottleneck needs a tabular one
    chain = gaussian_linear_problem(2)[0].chain
    for name in ("bottleneck_tables", "bottleneck_vjp"):
        assert name not in vars(GaussianLinearChain) and name not in vars(chain), name
    assert not hasattr(chainopt.mdp, "_softmax_second_derivative")


# ---------------------------------------------------------------------------
# Tables at a stack of theta
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind", ["chain-" + kind for kind in CHAIN_KINDS] + COST_KINDS
    + ["policy-entropy", "policy-mixed-kl"]
)
@given(data=st.data())
@ORACLE
def test_tables_at_a_stack_of_theta_are_the_tables_at_each_row(kind, data):
    """transition_matrix and value_table at a (k, n_params) stack of theta
    give, row by row, the table at that row, at stage 0 and at the drawn
    stage of a time-varying wrapper."""
    if kind.startswith("chain-"):
        model, theta, t, rng = data.draw(tabular_chains(kind[len("chain-"):]))
        table = model.transition_matrix
    else:
        model, theta, t, rng = data.draw(tabular_costs(kind))
        table = model.value_table
    thetas = theta + rng.normal(size=(3, theta.size))
    for stage in {0, t}:
        stacked = table(thetas, stage)
        assert stacked.shape == (3,) + table(theta, stage).shape
        for row, th in zip(stacked, thetas):
            assert_close(row, table(th, stage))
