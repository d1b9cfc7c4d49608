"""Reference problem builders: shapes, structure, and reproducibility."""

import numpy as np
import pytest
from conftest import dense_grad_table, gaussian_mean

from chainopt import (
    Average,
    EpisodicDiscounted,
    FirstExit,
    TimeVarying,
    exact_gradient,
    fd_gradient_oracle,
    objective,
)
from chainopt.mdp import LmdpSpec
from chainopt.problems import (
    canonical_two_state,
    gaussian_linear_problem,
    gridworld_lmdp,
    random_mdp,
    random_smdp_problem,
    random_softmax_problem,
    random_timevarying_problem,
)


class TestCanonical:
    def test_closed_forms(self):
        prob = canonical_two_state()
        assert prob.n_params == 2
        assert abs(objective(prob, np.zeros(2)) - 2.0) < 1e-12
        np.testing.assert_allclose(exact_gradient(prob, np.zeros(2)), [1.0, -1.0],
                                   atol=1e-12)


class TestRandomSoftmax:
    def test_settings_and_reproducibility(self):
        for setting in (EpisodicDiscounted(0.9), FirstExit(), Average()):
            a = random_softmax_problem(setting, n_states=7, seed=5)
            b = random_softmax_problem(setting, n_states=7, seed=5)
            theta = np.zeros(a.n_params)
            np.testing.assert_array_equal(
                a.chain.transition_matrix(theta), b.chain.transition_matrix(theta)
            )
            assert objective(a, theta) == objective(b, theta)
            c = random_softmax_problem(setting, n_states=7, seed=6)
            assert not np.array_equal(
                a.chain.transition_matrix(np.zeros(a.n_params)),
                c.chain.transition_matrix(np.zeros(c.n_params)),
            )

    def test_ridge_stays_diagonal(self):
        """The builders pass the 0.1 ridge as the diagonal of Q."""
        softmax = random_softmax_problem(FirstExit(), n_states=5, seed=0)
        staged = random_timevarying_problem(horizon=2, n_states=4, seed=0)
        for cost in [softmax.cost] + staged.cost.stages:
            np.testing.assert_array_equal(cost.quad, np.full(cost.n_params, 0.1))

    def test_cost_has_parameter_dependence(self):
        prob = random_softmax_problem(EpisodicDiscounted(0.9), n_states=5, seed=0)
        g = dense_grad_table(prob.cost, 0.3 * np.ones(prob.n_params))[0]
        assert np.linalg.norm(g) > 0

    def test_gradients_check_out(self):
        for setting in (EpisodicDiscounted(0.9), FirstExit(), Average()):
            prob = random_softmax_problem(setting, n_states=6, seed=3)
            theta = 0.2 * np.random.default_rng(1).normal(size=prob.n_params)
            np.testing.assert_allclose(
                exact_gradient(prob, theta), fd_gradient_oracle(prob, theta), atol=1e-7
            )


class TestRandomTimeVarying:
    def test_structure(self):
        prob = random_timevarying_problem(horizon=5, n_states=4, seed=2)
        assert isinstance(prob.setting, TimeVarying)
        assert prob.setting.horizon == 5
        theta = np.zeros(prob.n_params)
        # stage laws differ while sharing one parameter vector
        P0 = prob.chain.transition_matrix(theta, 0)
        P1 = prob.chain.transition_matrix(theta, 1)
        assert not np.allclose(P0, P1)


class TestRandomMdp:
    def test_tensor_shapes_and_distributions(self):
        mdp, policy, theta = random_mdp(5, 3, seed=4)
        assert mdp.transitions.shape == (5, 3, 5)
        np.testing.assert_allclose(mdp.transitions.sum(axis=2), 1.0, atol=1e-12)
        assert policy.n_params == theta.size == 15

    def test_smdp_problem_wraps_mapping(self):
        prob, theta = random_smdp_problem(4, 2, seed=1)
        assert prob.n_params == theta.size == 8
        assert isinstance(prob.setting, EpisodicDiscounted)


class TestGridworld:
    def test_structure(self):
        spec = gridworld_lmdp(5, seed=0)
        n = spec.n_states
        assert len(spec.terminal) == 1
        goal = next(iter(spec.terminal))
        np.testing.assert_allclose(spec.baseline.sum(axis=1), 1.0, atol=1e-12)
        assert spec.baseline[goal, goal] == 1.0
        assert spec.state_cost[goal] == 0.0
        interior = [x for x in range(n) if x != goal]
        np.testing.assert_allclose(spec.state_cost[interior], 0.002)
        # interior rows are uniform over their support
        for x in interior:
            row = spec.baseline[x]
            sup = row > 0
            np.testing.assert_allclose(row[sup], 1.0 / sup.sum(), atol=1e-12)

    def test_goal_reachable_from_everywhere(self):
        """Every layout the builder returns is connected: the interior block
        of the baseline has spectral radius below one."""
        for seed in range(5):
            spec = gridworld_lmdp(5, seed=seed)
            goal = next(iter(spec.terminal))
            interior = [x for x in range(spec.n_states) if x != goal]
            sub = spec.baseline[np.ix_(interior, interior)]
            assert np.max(np.abs(np.linalg.eigvals(sub))) < 1.0

    def test_seeds_give_different_layouts(self):
        a = gridworld_lmdp(5, seed=0)
        b = gridworld_lmdp(5, seed=1)
        assert a.n_states != b.n_states or not np.array_equal(a.baseline, b.baseline)

    @pytest.mark.parametrize("size", [3, 4, 5, 6])
    def test_layouts_match_the_inline_search(self, size):
        """The builder's reachability check is the shared support-graph
        search; the layouts equal those of the set-based search it replaced,
        including on seeds where that search rejected a draw."""
        rejected = 0
        for seed in range(20):
            want, disconnected = reference_gridworld(size, seed)
            rejected += disconnected
            got = gridworld_lmdp(size, seed)
            np.testing.assert_array_equal(got.baseline, want.baseline)
            np.testing.assert_array_equal(got.state_cost, want.state_cost)
            assert got.terminal == want.terminal
        assert rejected > 0


def reference_gridworld(size, seed, step_cost=0.002):
    """gridworld_lmdp with its former inline reverse search from the goal
    over P[:, m] > 0, and the number of draws that search rejected."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    disconnected = 0
    for _attempt in range(1000):
        blocked = rng.random((size, size)) < 0.2
        blocked[0, 0] = False
        blocked[size - 1, size - 1] = False
        free = [(i, j) for i in range(size) for j in range(size) if not blocked[i, j]]
        index = {cell: k for k, cell in enumerate(free)}
        goal = index[(size - 1, size - 1)]
        n = len(free)
        P = np.zeros((n, n))
        ok = True
        for (i, j), k in index.items():
            if k == goal:
                P[k, k] = 1.0
                continue
            nbrs = [index[(i + di, j + dj)]
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                    if 0 <= i + di < size and 0 <= j + dj < size
                    and not blocked[i + di, j + dj]]
            if not nbrs:
                ok = False
                break
            for m in nbrs:
                P[k, m] = 1.0 / len(nbrs)
        if not ok:
            continue
        reach = {goal}
        frontier = [goal]
        into = [np.flatnonzero(P[:, m] > 0) for m in range(n)]
        while frontier:
            m = frontier.pop()
            for src in into[m]:
                if src not in reach:
                    reach.add(int(src))
                    frontier.append(int(src))
        if len(reach) != n:
            disconnected += 1
            continue
        r = np.full(n, float(step_cost))
        r[goal] = 0.0
        return LmdpSpec(P, r, terminal=[goal]), disconnected
    raise AssertionError("no connected layout")


class TestGaussianLinear:
    def test_stability_and_fisher_handle(self):
        prob, theta = gaussian_linear_problem(n_x=2, seed=0)
        chain = prob.chain
        assert theta.shape == (chain.n_params,)
        # the closed-loop map is a strict contraction so values exist
        rng = np.random.default_rng(0)
        x = rng.normal(size=2)
        F = chain.eta_fisher()
        np.testing.assert_allclose(F, F.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(F) > 0)
        assert np.all(np.isfinite(gaussian_mean(chain, x, theta)))

    def test_objective_is_finite_by_monte_carlo(self):
        prob, theta = gaussian_linear_problem(n_x=2, seed=1, gamma=0.9)
        rng = np.random.default_rng(3)
        n = 300
        x = prob.init.states(rng.standard_normal((n, 2)))
        total, w = 0.0, 1.0
        for _t in range(200):
            total += w * prob.cost.state_values(theta, x).sum()
            w *= 0.9
            x = prob.chain.next_states(theta, x, rng.standard_normal((n, 2)))
        assert np.isfinite(total / n)
