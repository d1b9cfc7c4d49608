"""The block-wise natural direction against the dense route.

natural_gradient solves on the Fisher's BlockDiagonal, one batched eigh
per block size; conftest's dense_natural_gradient takes one eigh of the
dense score-table Fisher, with the same range cut and ridge. The two
must agree to 1e-12 relative, undamped and damped, on softmax chains with
segments of equal and of varying length, terminal states and zero-weight
states, and on policy-averaged chains; min_eigenvalue must match eigvalsh
of the assembled matrix. The natural step at n = 512 must not allocate a
dense (p, p) array.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import dense_fisher, dense_natural_gradient
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainopt import (
    BlockDiagonal,
    EpisodicDiscounted,
    FirstExit,
    FisherMatrix,
    Average,
    PolicyAveragedChain,
    Problem,
    QuadraticCost,
    SoftmaxChain,
    SoftmaxPolicy,
    TabularInitial,
    exact_gradient,
    fisher_matrix,
    natural_gradient,
    solve,
)
from chainopt.problems import random_smdp_problem, random_softmax_problem

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
DAMPINGS = (0.0, 0.1)


def assert_direction_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def check_against_dense(F: BlockDiagonal, dense, rng):
    """natural_gradient and min_eigenvalue on the blocks F against the
    dense route on the (p, p) matrix dense."""
    dense = 0.5 * (dense + dense.T)
    fisher = FisherMatrix(F, source="exact")
    grad = rng.normal(size=F.n)
    for damping in DAMPINGS:
        want = dense_natural_gradient(grad, dense, damping)
        assert_direction_close(natural_gradient(grad, fisher, damping), want)
    if F.n:
        eig = np.linalg.eigvalsh(fisher.matrix)
        assert abs(fisher.min_eigenvalue() - eig.min()) <= 1e-12 * max(np.abs(eig).max(), 1e-300)


def state_weights(rng, n):
    """Weights in [0.1, 1], of which about one in five is zero and one in
    ten scaled by 1e-13, so that its block falls below the range cut of a
    metric with other blocks of weight above 0.1."""
    return rng.uniform(0.1, 1.0, size=n) * rng.choice([0.0, 1e-13, 1.0], size=n, p=[0.2, 0.1, 0.7])


@st.composite
def softmax_cases(draw):
    """A SoftmaxChain whose segments are of equal or of varying length,
    with 0-2 terminal states, and state weights of which some are zero."""
    equal = draw(st.booleans())
    n_live = draw(st.integers(1, 6))
    if equal:
        lens = [draw(st.integers(1, 5))] * n_live
    else:
        lens = draw(st.lists(st.integers(1, 5), min_size=n_live, max_size=n_live))
    n = max(n_live + draw(st.integers(0, 2)), max(lens))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = {x: rng.permutation(n)[:k].tolist() for x, k in enumerate(lens)}
    chain = SoftmaxChain(n, support, terminal=range(n_live, n))
    theta = draw(st.sampled_from([0.0, 1.0])) * rng.normal(size=chain.n_params)
    return chain, theta, state_weights(rng, n), rng


@given(softmax_cases())
@PROPERTY
def test_softmax_blocks_match_the_dense_route(case):
    chain, theta, w, rng = case
    F = chain.fisher(theta, w)
    sizes = sorted(idx.shape[1] for idx, _ in F.groups)
    assert sizes == sorted(set(chain._softmax.seg_len.tolist()))
    check_against_dense(F, dense_fisher(chain, theta, w), rng)


@st.composite
def policy_cases(draw):
    """A PolicyAveragedChain with 0-2 terminal states, and state weights
    of which some are zero. Action a sends 0.7 of its mass to state a and
    the rest by a Dirichlet row, so that the action rows stay apart: rows
    that nearly coincide leave a block eigenvalue so small that rounding
    the Fisher's entries moves the undamped direction by more than 1e-12."""
    n_a = draw(st.integers(2, 4))
    n_s = draw(st.integers(n_a, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trans = 0.3 * rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
    trans[:, np.arange(n_a), np.arange(n_a)] += 0.7
    terminal = rng.permutation(n_s)[: draw(st.integers(0, min(2, n_s - 1)))]
    chain = PolicyAveragedChain(trans, SoftmaxPolicy(n_s, n_a), terminal=terminal)
    theta = draw(st.sampled_from([0.0, 1.0])) * rng.normal(size=chain.n_params)
    return chain, theta, state_weights(rng, n_s), rng


@given(policy_cases())
@PROPERTY
def test_policy_averaged_blocks_match_the_dense_route(case):
    chain, theta, w, rng = case
    F = chain.fisher(theta, w)
    ((idx, blocks),) = F.groups
    assert blocks.shape == (chain.n_states, chain.policy.n_actions, chain.policy.n_actions)
    check_against_dense(F, dense_fisher(chain, theta, w), rng)


def test_min_eigenvalue_reads_every_group():
    """The smallest eigenvalue of blocks of two sizes, the negative one in
    the second group, and the assembled matrix they make."""
    F = BlockDiagonal(3, (
        (np.array([[1]]), np.array([[[2.0]]])),
        (np.array([[0, 2]]), np.array([[[1.0, 0.5], [0.5, -0.5]]])),
    ))
    np.testing.assert_array_equal(F.dense(), [[1.0, 0.0, 0.5], [0.0, 2.0, 0.0], [0.5, 0.0, -0.5]])
    fisher = FisherMatrix(F, source="exact")
    assert fisher.min_eigenvalue() == pytest.approx(np.linalg.eigvalsh(F.dense()).min(), abs=1e-15)


def _unvisited_problem():
    """First exit from state 0 of a chain whose states 4 and 5 are never
    reached: their occupancy, and so their Fisher blocks, are zero."""
    support = {0: [1, 2], 1: [0, 3], 2: [1, 3, 2], 4: [3, 4, 5], 5: [4, 3]}
    chain = SoftmaxChain(6, support, terminal=[3])
    base = np.array([1.0, 0.5, 2.0, 0.0, 1.0, 1.5])
    cost = QuadraticCost(base, np.zeros((6, chain.n_params)), np.full(chain.n_params, 0.1),
                         np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0]))
    return Problem(chain, cost, FirstExit(), TabularInitial(np.eye(6)[0]))


PROBLEMS = {
    "first-exit": lambda: random_softmax_problem(FirstExit(), 12, seed=1),
    "discounted": lambda: random_softmax_problem(EpisodicDiscounted(0.9), 12, seed=2),
    "average": lambda: random_softmax_problem(Average(), 12, seed=3),
    "unvisited": _unvisited_problem,
    "smdp": lambda: random_smdp_problem(8, 3, seed=4)[0],
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_exact_fisher_matches_the_dense_route(name):
    """fisher_matrix's natural direction against the dense route on the
    score-table Fisher at the solve's normalized weights."""
    problem = PROBLEMS[name]()
    rng = np.random.default_rng(6)
    theta = 0.5 * rng.normal(size=problem.n_params)
    sol = solve(problem, theta)
    F = fisher_matrix(problem, theta, solution=sol)
    grad = exact_gradient(problem, theta, solution=sol)
    dense = dense_fisher(problem.chain, theta, sol.weights / sol.weights.sum())
    dense = 0.5 * (dense + dense.T)
    for damping in DAMPINGS:
        want = dense_natural_gradient(grad, dense, damping)
        assert_direction_close(natural_gradient(grad, F, damping), want)
    if name == "unvisited":
        assert np.all(natural_gradient(grad, F)[problem.chain.param_slice(4)] == 0.0)


def test_natural_step_allocates_no_dense_fisher():
    """Given the solution, the Fisher and the natural direction of a
    first-exit softmax problem at n = 512 allocate under a tenth of the
    8 p^2 bytes of one dense (p, p) array."""
    problem = random_softmax_problem(FirstExit(), 512, seed=0)
    p = problem.n_params
    theta = 0.3 * np.random.default_rng(0).normal(size=p)
    sol = solve(problem, theta)
    grad = exact_gradient(problem, theta, solution=sol)  # reads the weights too
    tracemalloc.start()
    try:
        natural_gradient(grad, fisher_matrix(problem, theta, solution=sol), 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p > 2500
    assert peak < 0.1 * 8 * p * p
