"""Table-level derivatives checked against the generic dense references.

Chains and costs with vectorized tables (transition matrix, row_vjp,
fisher, value_table, grad_table) must agree with the per-state methods and
with ChainModel's dense score-table contractions on random supports,
terminal sets, logit offsets and large logits.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainopt import ChainModel, CostModel, QuadraticCost, SoftmaxChain, TimeVaryingChain
from chainopt.mdp import PolicyAveragedChain, PolicyExpectedCost, SoftmaxPolicy

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


@given(softmax_chains())
@PROPERTY
def test_softmax_transition_matrix_stacks_prob_rows(case):
    chain, theta, _ = case
    rows = np.stack([chain.prob_row(x, theta) for x in range(chain.n_states)])
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
    assert_close(chain.row_vjp(theta, W), ChainModel.row_vjp(chain, theta, W))


@given(softmax_chains())
@PROPERTY
def test_softmax_fisher_matches_dense_reference(case):
    chain, theta, rng = case
    w = rng.uniform(0.0, 1.0, size=chain.n_states)
    F = chain.fisher(theta, w)
    assert F.shape == (chain.n_params, chain.n_params)
    assert_close(F, ChainModel.fisher(chain, theta, w))


def test_chain_without_parameters():
    """Every state terminal: no segments, so reduceat sees empty inputs."""
    chain = SoftmaxChain(4, {}, terminal=range(4))
    theta = np.zeros(0)
    np.testing.assert_array_equal(chain.transition_matrix(theta), np.eye(4))
    assert chain.row_vjp(theta, np.ones((4, 4))).shape == (0,)
    assert chain.fisher(theta, np.ones(4)).shape == (0, 0)
    assert ChainModel.row_vjp(chain, theta, np.ones((4, 4))).shape == (0,)


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
        np.testing.assert_array_equal(tv.fisher(theta, w, t), stage.fisher(theta, w))


@given(
    st.integers(1, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e3]),
)
@PROPERTY
def test_quadratic_cost_tables_match_per_state(n, p, seed, scale):
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(p, p))
    cost = QuadraticCost(
        rng.normal(size=n), rng.normal(size=(n, p)), root + root.T, rng.uniform(size=n)
    )
    theta = scale * rng.normal(size=p)
    assert_close(cost.value_table(n, theta), CostModel.value_table(cost, n, theta))
    assert_close(cost.grad_table(n, theta), CostModel.grad_table(cost, n, theta))


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
    assert_close(policy.table(theta), np.stack([policy.row(x, theta) for x in range(n)]))
    assert_close(chain.transition_matrix(theta), ChainModel.transition_matrix(chain, theta))
    W = rng.normal(size=(n, n))
    assert_close(chain.row_vjp(theta, W), ChainModel.row_vjp(chain, theta, W))


@given(policy_cases(), st.sampled_from([1.0, 1e3]))
@PROPERTY
def test_policy_expected_cost_tables_match_per_state(case, scale):
    policy, _, _, costs, rng = case
    cost = PolicyExpectedCost(policy, costs)
    theta = scale * rng.normal(size=policy.n_params)
    n = policy.n_states
    assert_close(cost.value_table(n, theta), CostModel.value_table(cost, n, theta))
    assert_close(cost.grad_table(n, theta), CostModel.grad_table(cost, n, theta))
