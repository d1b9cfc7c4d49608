"""A model supports what it implements: a chain or cost with just the
methods a route needs runs that route, and one that lacks a method is
refused with a CapabilityError naming its class."""

import numpy as np
import pytest

from chainopt import (
    CapabilityError,
    ChainModel,
    CostModel,
    EpisodicDiscounted,
    FirstExit,
    GaussianInitial,
    Problem,
    StateQuadraticCost,
    estimate_gradient,
    exact_gradient,
    exact_gradient_bottleneck,
    fd_gradient_oracle,
    generate_rollouts,
    path_hessian,
    surrogate_hessian,
)
from chainopt.mdp import map_entropy_mdp
from chainopt.problems import (
    gaussian_linear_problem,
    random_mdp,
    random_softmax_problem,
    random_timevarying_problem,
)


class TablesOnlyChain(ChainModel):
    """A tabular chain with its sizes and its three tables, read from the
    SoftmaxChain it wraps, and nothing else."""

    tabular = True

    def __init__(self, inner):
        self.inner = inner
        self.n_states, self.n_params = inner.n_states, inner.n_params
        self.terminal = inner.terminal

    def transition_matrix(self, theta, t=0):
        return self.inner.transition_matrix(theta, t)

    def score_sums(self, theta, x, y, coef, groups, n_groups, t=0):
        return self.inner.score_sums(theta, x, y, coef, groups, n_groups, t)

    def row_hess(self, theta, W, t=0):
        return self.inner.row_hess(theta, W, t)


@pytest.mark.parametrize("setting", [EpisodicDiscounted(0.9), FirstExit()], ids=str)
def test_a_chain_of_tables_alone_runs_end_to_end(setting):
    """The exact gradient, a rollout batch and the sampled estimate on the
    tables-only chain are those of the softmax chain it wraps."""
    ref = random_softmax_problem(setting, n_states=6, seed=3)
    prob = Problem(TablesOnlyChain(ref.chain), ref.cost, ref.setting, ref.init)
    theta = 0.5 * np.random.default_rng(4).normal(size=prob.n_params)

    g = exact_gradient(prob, theta)
    np.testing.assert_allclose(g, exact_gradient(ref, theta), rtol=1e-12, atol=1e-14)
    fd = fd_gradient_oracle(prob, theta)
    assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5  # criterion 1

    batch = generate_rollouts(prob, theta, 64, horizon_cap=200, seed=5)
    want = generate_rollouts(ref, theta, 64, horizon_cap=200, seed=5)
    for name, a in vars(batch.flat).items():
        b = getattr(want.flat, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    est = estimate_gradient(prob, theta, batch)
    np.testing.assert_array_equal(est.mean, estimate_gradient(ref, theta, want).mean)


class GradOnlyCost(CostModel):
    """A tabular cost with its value table and gradient, no Hessian."""

    def __init__(self, inner):
        self.inner = inner
        self.n_states, self.n_params = inner.n_states, inner.n_params

    def value_table(self, theta, t=0):
        return self.inner.value_table(theta, t)

    def grad_sum(self, theta, w, t=0):
        return self.inner.grad_sum(theta, w, t)


class GradOnlyStateCost(CostModel):
    """A continuous-state cost with its values and gradients, no Hessian."""

    def __init__(self, inner):
        self.inner, self.n_params = inner, inner.n_params

    def state_values(self, theta, x, t=0):
        return self.inner.state_values(theta, x, t)

    def state_grad_sums(self, theta, x, w, groups, n_groups, t=0):
        return self.inner.state_grad_sums(theta, x, w, groups, n_groups, t)


class SizesOnlyChain(ChainModel):
    """A continuous chain with a parameter count and no sampler."""

    def __init__(self, n_params):
        self.n_params = n_params


def _entropy_hessian():
    mdp, policy, theta = random_mdp(4, 2, seed=1)
    return lambda: surrogate_hessian(map_entropy_mdp(mdp, policy), theta)


def _path_hessian():
    ref = random_timevarying_problem(horizon=2, n_states=3, seed=4)
    prob = Problem(ref.chain, GradOnlyCost(ref.cost), ref.setting, ref.init)
    theta = np.zeros(prob.n_params)
    batch = generate_rollouts(prob, theta, 10, seed=0)
    return lambda: path_hessian(prob, theta, batch)


def _bottleneck_gradient():
    prob = random_softmax_problem(EpisodicDiscounted(0.9), n_states=4, seed=2)
    return lambda: exact_gradient_bottleneck(prob, np.zeros(prob.n_params))


def _continuous_rollouts():
    cost = StateQuadraticCost(np.eye(2), n_params=1)
    init = GaussianInitial(np.zeros(2), np.eye(2))
    prob = Problem(SizesOnlyChain(1), cost, EpisodicDiscounted(0.9), init)
    return lambda: generate_rollouts(prob, np.zeros(1), 4, horizon_cap=5, seed=0)


def _continuous_surrogate_hessian():
    ref, theta = gaussian_linear_problem(n_x=2, seed=0)
    prob = Problem(ref.chain, GradOnlyStateCost(ref.cost), ref.setting, ref.init)
    batch = generate_rollouts(prob, theta, 5, horizon_cap=10, seed=1)
    return lambda: surrogate_hessian(prob, theta, batch)


@pytest.mark.parametrize(
    "make, name",
    [
        (_entropy_hessian, "PolicyEntropyCost"),
        (_path_hessian, "GradOnlyCost"),
        (_bottleneck_gradient, "SoftmaxChain"),
        (_continuous_rollouts, "SizesOnlyChain has no sampler"),
        (_continuous_surrogate_hessian, "GradOnlyStateCost"),
    ],
    ids=["entropy-hessian", "path-hessian", "bottleneck", "rollouts", "continuous-hessian"],
)
def test_a_missing_method_is_refused_by_name(make, name):
    with pytest.raises(CapabilityError, match=name):
        make()()


def test_bottleneck_gradient_is_refused_before_the_solve(monkeypatch):
    """A chain without a bottleneck is refused before P is built."""
    prob = random_softmax_problem(EpisodicDiscounted(0.9), n_states=4, seed=2)
    calls = []
    inner = prob.chain.transition_matrix

    def counted(theta, t=0):
        calls.append(t)
        return inner(theta, t)

    monkeypatch.setattr(prob.chain, "transition_matrix", counted)
    with pytest.raises(CapabilityError, match="SoftmaxChain has no bottleneck"):
        exact_gradient_bottleneck(prob, np.zeros(prob.n_params))
    assert calls == []
    exact_gradient(prob, np.zeros(prob.n_params))
    assert calls, "the wrapper counts the solve's transition matrix"
