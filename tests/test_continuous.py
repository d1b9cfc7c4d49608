"""The continuous chain and cost answer for arrays of states.

GaussianLinearChain's score_sums, log_density and density_hess and
StateQuadraticCost's state_values, state_grad_sums and state_hess_sum
are checked on random stable systems against central differences and
against conftest's per-row formulas, to 1e-10 relative or better. The
log density is quadratic and the score linear in theta, so a central
difference has no truncation error: its step is taken large, which keeps
the rounding error far below the tolerance. Bad shapes are refused at
construction.
"""

import numpy as np
import pytest
from conftest import gaussian_log_density, gaussian_score, state_cost
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainopt import (
    EpisodicDiscounted,
    GaussianInitial,
    GaussianLinearChain,
    InvalidStructureError,
    Problem,
    StateQuadraticCost,
)

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
STEP = 0.5


@st.composite
def cases(draw):
    """A GaussianLinearChain with a stable A (spectral radius below 0.95),
    an SPD cov and a K_fixed, a StateQuadraticCost on its states, theta,
    m transitions x -> y, their coefficients of either sign and their
    groups."""
    n_x, n_u = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    m, n_groups = draw(st.integers(1, 25)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n_x, n_x))
    A *= draw(st.floats(0.0, 0.95)) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    root = rng.normal(size=(n_x, n_x))
    cov = root @ root.T + 0.1 * np.eye(n_x)
    chain = GaussianLinearChain(A, rng.normal(size=(n_x, n_u)), cov, rng.normal(size=(n_u, n_x)))
    M = rng.normal(size=(n_x, n_x))
    cost = StateQuadraticCost(M @ M.T, n_params=n_u)
    x = rng.normal(size=(m, n_x)) * rng.uniform(0.1, 3.0)
    y = rng.normal(size=(m, n_x)) * rng.uniform(0.1, 3.0)
    coef = rng.normal(size=m)
    groups = rng.integers(0, n_groups, size=m)
    return chain, cost, rng.normal(size=n_u), x, y, coef, groups, n_groups


def central_difference(fn, theta):
    """d fn / d theta by central differences of step STEP, shape
    fn's shape + (theta.size,)."""
    cols = []
    for e in np.eye(theta.size):
        cols.append((fn(theta + STEP * e) - fn(theta - STEP * e)) / (2 * STEP))
    return np.stack(cols, axis=-1)


def assert_close(got, want, scale, rtol=1e-10):
    """got within rtol of want, relative to the largest entry of scale,
    the size of the terms that make want up."""
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * max(np.max(scale), 1e-300))


@PROPERTY
@given(cases())
def test_score_sums_are_central_differences_of_the_log_density(case):
    """Row g of score_sums is d/dtheta of sum_{k in g} coef[k] log p(y[k] |
    x[k]) from log_density; each row's log density and score are
    conftest's per-row ones."""
    chain, _, theta, x, y, coef, groups, n_groups = case
    got = chain.score_sums(theta, x, y, coef, groups, n_groups)
    member = groups == np.arange(n_groups)[:, None]  # (n_groups, m)

    def grouped(th):
        return member @ (coef * chain.log_density(th, x, y))

    rows = np.array([gaussian_score(chain, a, b, theta) for a, b in zip(x, y)])
    assert_close(got, central_difference(grouped, theta), np.abs(coef) @ np.abs(rows))
    assert_close(got, member @ (coef[:, None] * rows), np.abs(coef) @ np.abs(rows), 1e-12)
    logp = np.array([gaussian_log_density(chain, a, b, theta) for a, b in zip(x, y)])
    assert_close(chain.log_density(theta, x, y), logp, np.abs(logp).max(), 1e-12)


@PROPERTY
@given(cases())
def test_density_hess_is_the_score_outer_products_and_the_score_jacobian(case):
    """sum_k c_k d2p_k / p_k = S' diag(c) S + d/dtheta sum_k c_k s_k, with
    S the per-row scores and the derivative a central difference of
    score_sums in one group."""
    chain, _, theta, x, y, coef, _, _ = case
    one = np.zeros(len(coef), dtype=np.int64)
    S = np.array([gaussian_score(chain, a, b, theta) for a, b in zip(x, y)])
    jac = central_difference(lambda th: chain.score_sums(th, x, y, coef, one, 1)[0], theta)
    want = (S.T * coef) @ S + jac
    scale = np.abs(coef) @ (S**2).sum(axis=1) + np.abs(jac).max()
    assert_close(chain.density_hess(theta, x, y, coef), want, scale)


@PROPERTY
@given(cases())
def test_cost_values_gradients_and_hessian_match_per_row_references(case):
    """state_values row by row is conftest's x'Mx; the cost is
    parameter-free, so its grouped gradient sums are the central
    differences of its grouped values, zero, and its Hessian sum is zero."""
    _, cost, theta, x, _, coef, groups, n_groups = case
    want = np.array([state_cost(cost, row) for row in x])
    assert_close(cost.state_values(theta, x), want, np.abs(want).max(), 1e-12)
    member = groups == np.arange(n_groups)[:, None]
    fd = central_difference(lambda th: member @ (coef * cost.state_values(th, x)), theta)
    got = cost.state_grad_sums(theta, x, coef, groups, n_groups)
    assert got.shape == (n_groups, theta.size)
    np.testing.assert_array_equal(got, fd)
    np.testing.assert_array_equal(cost.state_hess_sum(theta, x, coef), np.zeros((theta.size,) * 2))


def _problem_with_cost_of_dimension(d):
    chain = GaussianLinearChain(0.5 * np.eye(2), np.eye(2), np.eye(2))
    cost = StateQuadraticCost(np.eye(d), n_params=chain.n_params)
    return Problem(chain, cost, EpisodicDiscounted(0.9), GaussianInitial(np.zeros(2), np.eye(2)))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: StateQuadraticCost(np.ones((2, 3))), r"got shape \(2, 3\)"),
        (lambda: StateQuadraticCost(np.array([[1.0, np.nan], [0.0, 1.0]])), "finite"),
        (
            lambda: GaussianLinearChain(np.eye(2), np.eye(2), np.eye(2), K_fixed=np.eye(3)),
            r"K_fixed has shape \(3, 3\), expected \(2, 2\)",
        ),
        (lambda: _problem_with_cost_of_dimension(3), r"shape \(3,\), the chain \(2,\)"),
    ],
    ids=["cost-not-square", "cost-nan", "gain-shape", "cost-dimension"],
)
def test_continuous_inputs_are_checked_at_construction(build, match):
    """Each bad shape is refused when the model or problem is built, not
    at the first rollout with a raw matmul error."""
    with pytest.raises(InvalidStructureError, match=match):
        build()
    _problem_with_cost_of_dimension(2)
