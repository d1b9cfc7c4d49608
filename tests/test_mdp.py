"""Decision-process adapters: mappings, product-space evaluation, recoveries.

The recurring oracle is mdp_policy_evaluation, which solves for action
values on the (state, action) product space and never touches the
policy-averaged chain; agreement with the chain-side solvers is therefore
an independent consistency check of both.
"""

import numpy as np
import pytest
from conftest import fd_vector, log_prob, transition_score
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainopt import (
    Average,
    CapabilityError,
    EpisodicDiscounted,
    FirstExit,
    InvalidStructureError,
    Problem,
    SoftmaxChain,
    TabularInitial,
    TimeVarying,
    exact_gradient,
    exact_gradient_bottleneck,
    fd_gradient_oracle,
    objective,
    solve_value_average,
    solve_value_episodic,
)
from chainopt.mdp import (
    LmdpSpec,
    MixedRowKlCost,
    PolicyAveragedChain,
    PolicyExpectedCost,
    SoftmaxPolicy,
    TabularMdp,
    chain_as_action_mdp,
    lmdp_deterministic_pair,
    lmdp_policy_gradient,
    map_entropy_mdp,
    map_lmdp,
    map_proximal_mdp,
    map_stochastic_mdp,
    mdp_policy_evaluation,
    stochastic_policy_gradient,
)
from chainopt.problems import random_mdp


def mapped_values(problem, theta):
    if isinstance(problem.setting, Average):
        return solve_value_average(problem, theta).values
    return solve_value_episodic(problem, theta).values


def product_values(mdp, action_costs, theta, policy):
    v, _ = mdp_policy_evaluation(
        mdp.transitions, action_costs, policy.table(theta), mdp.setting
    )
    return v


def make_lmdp_problem(n, seed, setting):
    """Full-support control-cost problem over a parameterized softmax chain."""
    rng = np.random.default_rng(seed)
    baseline = rng.dirichlet(np.ones(n) * 2.0, size=n)
    state_cost = rng.uniform(0.2, 1.5, n)
    spec = LmdpSpec(baseline, state_cost)
    chain = SoftmaxChain(n, {x: list(range(n)) for x in range(n)})
    init = TabularInitial(np.full(n, 1.0 / n))
    problem = map_lmdp(spec, chain, setting, init)
    theta = 0.3 * rng.normal(size=chain.n_params)
    return spec, problem, theta


class TestSoftmaxPolicy:
    def test_rows_and_jacobian(self):
        """Row k of the Jacobian of the flat table is the VJP at the k-th unit
        vector: the softmax Jacobian on k's state block, zero off it."""
        policy = SoftmaxPolicy(3, 4)
        theta = 0.4 * np.random.default_rng(0).normal(size=policy.n_params)
        table = policy.table(theta)
        np.testing.assert_allclose(table.sum(axis=1), np.ones(3), atol=1e-12)
        fd = fd_vector(lambda th: policy.table(th).ravel(), theta)
        jac = np.stack([policy.vjp(theta, e) for e in np.eye(policy.n_params)])
        np.testing.assert_allclose(jac, fd, atol=1e-8)
        for x in range(3):
            sl, pi = policy.param_slice(x), table[x]
            np.testing.assert_allclose(jac[sl, sl], np.diag(pi) - np.outer(pi, pi), atol=1e-15)


class TestPolicyAveragedChain:
    def test_rows_average_the_policy(self):
        mdp, policy, theta = random_mdp(4, 3, seed=1)
        chain = PolicyAveragedChain(mdp.transitions, policy)
        P = chain.transition_matrix(theta)
        pi = policy.table(theta)
        want = np.einsum("xa,xay->xy", pi, mdp.transitions)
        np.testing.assert_allclose(P, want, atol=1e-14)

    def test_score_matches_fd_of_log_prob(self):
        mdp, policy, theta = random_mdp(3, 2, seed=2)
        chain = PolicyAveragedChain(mdp.transitions, policy)
        for x in range(3):
            for y in range(3):
                got = transition_score(chain, x, y, theta)
                fd = fd_vector(lambda th: log_prob(chain, x, y, th), theta)
                np.testing.assert_allclose(got, fd, atol=1e-8)

    def test_rejects_terminal_out_of_range(self):
        mdp, policy, _ = random_mdp(2, 2, seed=2)
        with pytest.raises(InvalidStructureError, match="terminal state 9 out of range"):
            PolicyAveragedChain(mdp.transitions, policy, terminal=[9])

    def test_bottleneck_view(self):
        """The intermediate map is the action distribution; the rows and
        their eta-derivatives come straight from the base tensor, and the
        VJP is that of the policy table."""
        mdp, policy, theta = random_mdp(4, 3, seed=3)
        chain = PolicyAveragedChain(mdp.transitions, policy)
        eta, p = chain.bottleneck_tables(theta)
        np.testing.assert_allclose(eta, policy.table(theta))
        # derivative convention: (state, bottleneck coordinate, successor state)
        np.testing.assert_allclose(p, mdp.transitions)
        np.testing.assert_allclose(np.einsum("xa,xay->xy", eta, p), chain.transition_matrix(theta))
        C = np.random.default_rng(3).normal(size=eta.shape)
        np.testing.assert_allclose(
            chain.bottleneck_vjp(theta, C),
            fd_vector(lambda th: np.sum(C * policy.table(th)), theta),
            atol=1e-8,
        )


class TestProductSpaceEvaluation:
    def test_q_equation_residual(self):
        """The returned values satisfy the action-value fixed point."""
        for setting in (EpisodicDiscounted(0.9), Average()):
            mdp, policy, theta = random_mdp(5, 3, seed=4, setting=setting)
            pi = policy.table(theta)
            v, j = mdp_policy_evaluation(mdp.transitions, mdp.costs, pi, setting)
            gamma = setting.gamma
            jj = 0.0 if j is None else j
            want = np.einsum(
                "xa,xa->x", pi, mdp.costs + gamma * np.einsum("xay,y->xa", mdp.transitions, v)
            )
            np.testing.assert_allclose(v + jj, want, atol=1e-10)


class TestMappings:
    """Per-state mapped costs match their defining formulas, and mapped
    values agree with independent product-space policy evaluation."""

    def test_stochastic_mapping_values(self):
        for seed in (0, 1):
            for setting in (EpisodicDiscounted(0.9), Average()):
                mdp, policy, theta = random_mdp(5, 3, seed=seed, setting=setting)
                prob = map_stochastic_mdp(mdp, policy)
                np.testing.assert_allclose(
                    mapped_values(prob, theta),
                    product_values(mdp, mdp.costs, theta, policy),
                    atol=1e-10,
                )

    def test_deterministic_mapping_values(self):
        """The bottleneck view of the stochastic mapping, rows and costs
        priced through the action distribution eta = pi(.|x), has the
        product-space values."""
        for seed in (0, 1):
            mdp, policy, theta = random_mdp(5, 3, seed=seed)
            prob = map_stochastic_mdp(mdp, policy)
            eta, p = prob.chain.bottleneck_tables(theta)
            P = np.einsum("xa,xay->xy", eta, p)
            L = np.sum(eta * mdp.costs, -1)
            np.testing.assert_allclose(
                np.linalg.solve(np.eye(5) - mdp.setting.gamma * P, L),
                product_values(mdp, mdp.costs, theta, policy),
                atol=1e-10,
            )

    def test_entropy_mapping_values(self):
        """Entropy-regularized product cost is r(x, a) - log pi(a | x)."""
        for seed in (0, 1):
            mdp, policy, theta = random_mdp(5, 3, seed=seed)
            prob = map_entropy_mdp(mdp, policy)
            pi = policy.table(theta)
            np.testing.assert_allclose(
                mapped_values(prob, theta),
                product_values(mdp, mdp.costs - np.log(pi), theta, policy),
                atol=1e-10,
            )

    def test_proximal_mapping_values(self):
        """The per-state KL from the frozen policy enters as an action
        independent cost offset."""
        for seed in (0, 1):
            mdp, policy, theta = random_mdp(5, 3, seed=seed)
            rng = np.random.default_rng(100 + seed)
            pi_old = rng.dirichlet(np.ones(3), size=5)
            prob = map_proximal_mdp(mdp, policy, pi_old)
            pi = policy.table(theta)
            kl = np.sum(pi_old * np.log(pi_old / pi), axis=1)
            np.testing.assert_allclose(
                mapped_values(prob, theta),
                product_values(mdp, mdp.costs + kl[:, None], theta, policy),
                atol=1e-10,
            )

    def test_control_cost_mapping_values(self):
        """Routing the control-cost problem through successor-picking
        actions reproduces its values on the product space."""
        for seed in (0, 1):
            _, prob, theta = make_lmdp_problem(5, seed, EpisodicDiscounted(0.9))
            p, ell, pi = chain_as_action_mdp(prob, theta)
            v, _ = mdp_policy_evaluation(p, ell, pi, prob.setting)
            np.testing.assert_allclose(mapped_values(prob, theta), v, atol=1e-10)

    def test_mapped_gradients_pass_fd(self):
        """Every mapping's unified gradient agrees with finite differences,
        including the parameter-coupled cost terms."""
        mdp, policy, theta = random_mdp(4, 3, seed=6)
        rng = np.random.default_rng(42)
        pi_old = rng.dirichlet(np.ones(3), size=4)
        problems = [
            map_stochastic_mdp(mdp, policy),
            map_entropy_mdp(mdp, policy),
            map_proximal_mdp(mdp, policy, pi_old),
        ]
        _, prob_l, theta_l = make_lmdp_problem(4, 7, EpisodicDiscounted(0.9))
        for prob in problems:
            np.testing.assert_allclose(
                exact_gradient(prob, theta), fd_gradient_oracle(prob, theta), atol=1e-7
            )
        np.testing.assert_allclose(
            exact_gradient(prob_l, theta_l), fd_gradient_oracle(prob_l, theta_l), atol=1e-7
        )


class TestRecoveries:
    def test_stochastic_policy_gradient(self):
        """The likelihood-ratio policy gradient equals the unified chain
        gradient of the stochastic mapping."""
        for seed in (0, 1, 2):
            for setting in (EpisodicDiscounted(0.9), Average()):
                mdp, policy, theta = random_mdp(5, 3, seed=seed, setting=setting)
                classical = stochastic_policy_gradient(mdp, policy, theta)
                unified = exact_gradient(map_stochastic_mdp(mdp, policy), theta)
                np.testing.assert_allclose(classical, unified, atol=1e-10)

    def test_deterministic_bottleneck_gradient(self):
        """The deterministic policy gradient through the action-distribution
        bottleneck equals the classical likelihood-ratio gradient and the
        unified gradient of the same problem."""
        for seed in (0, 1, 2):
            mdp, policy, theta = random_mdp(5, 3, seed=seed)
            prob = map_stochastic_mdp(mdp, policy)
            bottleneck = exact_gradient_bottleneck(prob, theta)
            np.testing.assert_allclose(
                bottleneck, stochastic_policy_gradient(mdp, policy, theta), atol=1e-10
            )
            np.testing.assert_allclose(bottleneck, exact_gradient(prob, theta), atol=1e-10)

    @pytest.mark.parametrize(
        "setting",
        [EpisodicDiscounted(0.9), FirstExit(), Average()],
        ids=["discounted", "first-exit", "average"],
    )
    @pytest.mark.parametrize("mixed_kl", [False, True], ids=["expected", "mixed-kl"])
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**16))
    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bottleneck_route_matches_exact_gradient(self, setting, mixed_kl, n, k, seed):
        """The table route through eta equals the score-form gradient on
        random policy-averaged problems, terminal states included."""
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(n), size=(n, k))
        reference = rng.dirichlet(np.ones(n), size=n)
        costs = rng.uniform(0.0, 2.0, size=(n, k))
        state_cost = rng.uniform(0.0, 1.0, size=n)
        terminal = ()
        if isinstance(setting, FirstExit):
            # an absorbing, zero-cost last state: the chain ignores p[-1],
            # which the mixed-row cost prices, so only there is it a loop
            terminal = (n - 1,)
            costs[-1] = state_cost[-1] = 0.0
            if mixed_kl:
                p[-1], reference[-1] = 0.0, 0.0
                p[-1, :, -1] = reference[-1, -1] = 1.0
        policy = SoftmaxPolicy(n, k)
        if mixed_kl:
            cost = MixedRowKlCost(p, policy, reference, state_cost)
        else:
            cost = PolicyExpectedCost(policy, costs)
        chain = PolicyAveragedChain(p, policy, terminal)
        problem = Problem(chain, cost, setting, TabularInitial(np.full(n, 1.0 / n)))
        theta = rng.normal(size=policy.n_params)
        want = exact_gradient(problem, theta)
        got = exact_gradient_bottleneck(problem, theta)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(np.max(np.abs(want)), 1e-3)

    def test_bottleneck_route_refuses_the_time_varying_setting(self):
        """Stage densities are not per-state weights: the setting is
        refused by name."""
        mdp, policy, theta = random_mdp(4, 3, 0)
        problem = Problem(
            PolicyAveragedChain(mdp.transitions, policy),
            PolicyExpectedCost(policy, mdp.costs),
            TimeVarying(3),
            mdp.init,
        )
        with pytest.raises(CapabilityError, match="TimeVarying"):
            exact_gradient_bottleneck(problem, theta)

    def test_lmdp_policy_gradient(self):
        """The specialized average-setting control-cost gradient equals the
        unified gradient of the mapped problem."""
        for seed in (0, 1, 2):
            spec, prob, theta = make_lmdp_problem(5, seed, Average())
            classical = lmdp_policy_gradient(prob, spec, theta)
            np.testing.assert_allclose(classical, exact_gradient(prob, theta), atol=1e-10)


class TestEquivalences:
    def test_stochastic_deterministic_pair(self):
        """The stochastic mapping realizes the policy-averaged rows
        sum_a pi(a|x) p(y|x, a) and costs sum_a pi(a|x) c(x, a) formed from
        the raw MDP tensors, and the objective p0 . v of the action-space
        evaluation; its score-form gradient matches its bottleneck form."""
        for seed in (0, 1):
            mdp, policy, theta0 = random_mdp(5, 3, seed=seed)
            prob = map_stochastic_mdp(mdp, policy)
            rng = np.random.default_rng(10 + seed)
            for probe in range(3):
                theta = theta0 if probe == 0 else theta0 + 0.2 * rng.normal(size=theta0.size)
                pi = policy.table(theta)
                np.testing.assert_allclose(
                    prob.chain.transition_matrix(theta),
                    np.einsum("xa,xay->xy", pi, mdp.transitions),
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    prob.cost.value_table(theta),
                    np.einsum("xa,xa->x", pi, mdp.costs),
                    rtol=0,
                    atol=1e-12,
                )
                v, _ = mdp_policy_evaluation(mdp.transitions, mdp.costs, pi, mdp.setting)
                assert abs(objective(prob, theta) - mdp.init.weights @ v) < 1e-10
                np.testing.assert_allclose(
                    exact_gradient(prob, theta),
                    exact_gradient_bottleneck(prob, theta),
                    atol=1e-10,
                )

    def test_control_cost_deterministic_pair(self):
        for seed in (0, 1):
            rng = np.random.default_rng(20 + seed)
            n_s, n_a = 5, 3
            transitions = rng.dirichlet(np.ones(n_s) * 1.5, size=(n_s, n_a))
            reference = rng.dirichlet(np.ones(n_s) * 2.0, size=n_s)
            state_cost = rng.uniform(0.0, 1.0, n_s)
            policy = SoftmaxPolicy(n_s, n_a)
            init = TabularInitial(np.full(n_s, 1.0 / n_s))
            prob_d, prob_l = lmdp_deterministic_pair(
                transitions, policy, reference, state_cost, EpisodicDiscounted(0.9), init
            )
            theta = 0.3 * rng.normal(size=policy.n_params)
            np.testing.assert_allclose(
                prob_d.chain.transition_matrix(theta),
                prob_l.chain.transition_matrix(theta),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                prob_d.cost.value_table(theta), prob_l.cost.value_table(theta), rtol=0, atol=1e-12
            )
            assert abs(objective(prob_d, theta) - objective(prob_l, theta)) < 1e-10
            np.testing.assert_allclose(
                exact_gradient_bottleneck(prob_d, theta),
                exact_gradient(prob_l, theta),
                atol=1e-10,
            )

    def test_single_action_process_is_degenerate(self):
        """With one action the policy is constant, both constructions
        collapse to the same fixed chain, and the gradient vanishes."""
        rng = np.random.default_rng(5)
        trans = rng.dirichlet(np.ones(4), size=(4, 1))
        costs = rng.uniform(0.5, 1.0, size=(4, 1))
        mdp = TabularMdp(trans, costs, EpisodicDiscounted(0.9),
                         TabularInitial(np.full(4, 0.25)))
        policy = SoftmaxPolicy(4, 1)
        theta = rng.normal(size=policy.n_params)
        prob_s = map_stochastic_mdp(mdp, policy)
        prob_d = map_stochastic_mdp(mdp, policy)
        np.testing.assert_allclose(
            prob_s.chain.transition_matrix(theta), trans[:, 0, :], atol=1e-14
        )
        assert abs(objective(prob_s, theta) - objective(prob_d, theta)) < 1e-12
        np.testing.assert_allclose(exact_gradient(prob_s, theta), 0.0, atol=1e-14)
        np.testing.assert_allclose(
            exact_gradient_bottleneck(prob_d, theta), 0.0, atol=1e-14
        )


class TestValidation:
    def test_mdp_shape_checks(self):
        with pytest.raises(InvalidStructureError):
            TabularMdp(
                np.full((3, 2, 3), 1.0 / 3.0),
                np.zeros((3, 3)),  # wrong action count
                EpisodicDiscounted(0.9),
                TabularInitial(np.full(3, 1.0 / 3.0)),
            )

    def test_lmdp_spec_checks(self):
        with pytest.raises(InvalidStructureError):
            LmdpSpec(np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([1.0, 0.5]),
                     terminal=[1])  # terminal state with nonzero cost
