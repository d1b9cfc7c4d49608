"""Surrogate objectives, chain iteration, clipping, Fisher metric."""

import numpy as np
import pytest
from conftest import gaussian_log_density, gaussian_score, state_cost

from chainopt import (
    Average,
    ConfigError,
    EpisodicDiscounted,
    FirstExit,
    FisherMatrix,
    GaussianInitial,
    GaussianLinearChain,
    Problem,
    StateQuadraticCost,
    chain_iteration_step,
    ClippedSurrogate,
    estimate_gradient,
    exact_gradient,
    fd_hessian,
    fisher_matrix,
    fit_value_approx,
    generate_rollouts,
    natural_gradient,
    objective,
    ExactSurrogate,
    surrogate_hessian,
    SampledSurrogate,
)
from chainopt.errors import InvalidStructureError
from chainopt.exact import fd_gradient
from chainopt.harness import _interior_features
from chainopt.mdp import map_entropy_mdp, map_proximal_mdp
from chainopt.problems import (
    canonical_two_state,
    gaussian_linear_problem,
    gridworld_lmdp,
    random_mdp,
    random_smdp_problem,
    random_softmax_problem,
)
from chainopt.rollout import END_HORIZON, batch_from_arrays
from chainopt.zlearn import z_problem
from chainopt.surrogate import _damped_solve


def probe_theta(problem, seed):
    return 0.3 * np.random.default_rng(seed).normal(size=problem.n_params)


class TestExactSurrogate:
    def test_gradient_at_zero_is_objective_gradient(self):
        """Freezing weights and values costs nothing to first order: the
        surrogate's slope at zero perturbation is the exact gradient."""
        problems = [
            (canonical_two_state(), np.zeros(2)),
            (random_softmax_problem(EpisodicDiscounted(0.9), 6, seed=1), None),
            (random_softmax_problem(Average(), 6, seed=2), None),
        ]
        mdp, policy, th = random_mdp(4, 3, seed=3)
        problems.append((map_entropy_mdp(mdp, policy), th))
        for prob, theta in problems:
            if theta is None:
                theta = probe_theta(prob, 7)
            sur = ExactSurrogate(prob, theta)
            np.testing.assert_allclose(
                sur.grad(np.zeros(prob.n_params)),
                exact_gradient(prob, theta),
                atol=1e-12,
            )

    def test_average_setting_value_at_zero_is_j(self):
        """With stationary weights the frozen surrogate evaluates to the
        average cost itself at zero perturbation."""
        prob = random_softmax_problem(Average(), 5, seed=4)
        theta = probe_theta(prob, 8)
        sur = ExactSurrogate(prob, theta)
        assert abs(sur.value(np.zeros(prob.n_params)) - objective(prob, theta)) < 1e-12

    def test_hessian_matches_fd_of_surrogate(self):
        prob = random_softmax_problem(EpisodicDiscounted(0.9), 5, seed=5)
        theta = probe_theta(prob, 9)
        sur = ExactSurrogate(prob, theta)
        H = sur.hess(np.zeros(prob.n_params))
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        H_fd = fd_hessian(sur.value, np.zeros(prob.n_params), h=1e-4)
        np.testing.assert_allclose(H, H_fd, atol=1e-5)

    @pytest.mark.parametrize("kind", ["gridworld-z", "proximal"])
    def test_kl_hessians_match_fd_of_surrogate(self, kind):
        """The KL costs' Hessian sums with the Z-weighted and policy-averaged
        row Hessians, through the exact surrogate."""
        if kind == "gridworld-z":
            spec = gridworld_lmdp(4, seed=1)
            prob = z_problem(spec, _interior_features(spec), FirstExit())
        else:
            mdp, policy, theta = random_mdp(4, 3, seed=7)
            prob = map_proximal_mdp(mdp, policy, policy.table(0.5 * theta))
        sur = ExactSurrogate(prob, probe_theta(prob, 21))
        zero = np.zeros(prob.n_params)
        H_fd = fd_hessian(sur.value, zero, h=1e-4)
        np.testing.assert_allclose(sur.hess(zero), H_fd, atol=1e-5)


class TestSampledSurrogate:
    def test_gradient_at_zero_matches_estimator_on_same_batch(self):
        """The sampled surrogate reproduces the score-based estimate exactly
        on the batch it was built from, with or without a baseline."""
        prob = canonical_two_state()
        theta = np.zeros(2)
        fit_batch = generate_rollouts(prob, theta, 300, seed=50)
        baseline = fit_value_approx(prob, fit_batch, np.eye(2), ridge=1e-9)
        batch = generate_rollouts(prob, theta, 500, seed=51)
        for bl in (None, baseline):
            sur = SampledSurrogate(prob, theta, batch, bl)
            est = estimate_gradient(prob, theta, batch, baseline=bl)
            np.testing.assert_allclose(sur.grad(np.zeros(2)), est.mean, atol=1e-12)

    def test_hessian_is_symmetric(self):
        prob, theta = random_smdp_problem(4, 3, seed=6)
        batch = generate_rollouts(prob, theta, 200, seed=52)
        H = SampledSurrogate(prob, theta, batch).hess(np.zeros(prob.n_params))
        np.testing.assert_allclose(H, H.T, atol=1e-12)


class TestClippedSurrogate:
    def setup_method(self):
        self.prob = canonical_two_state()
        self.theta = np.zeros(2)
        self.batch = generate_rollouts(self.prob, self.theta, 400, seed=60)

    def test_huge_radius_disables_clipping(self):
        base = SampledSurrogate(self.prob, self.theta, self.batch)
        clip = ClippedSurrogate(SampledSurrogate(self.prob, self.theta, self.batch), 1e6)
        rng = np.random.default_rng(0)
        for _ in range(10):
            alpha = 0.5 * rng.normal(size=2)
            assert clip.value(alpha) == base.value(alpha)
            np.testing.assert_array_equal(clip.grad(alpha), base.grad(alpha))

    def test_clipped_value_upper_bounds_unclipped(self):
        """Termwise pessimism: each clipped ratio term majorizes the raw
        term, so the objective can only go up."""
        base = SampledSurrogate(self.prob, self.theta, self.batch)
        clip = ClippedSurrogate(SampledSurrogate(self.prob, self.theta, self.batch), 0.2)
        rng = np.random.default_rng(1)
        for _ in range(50):
            alpha = 0.8 * rng.normal(size=2)
            assert clip.value(alpha) >= base.value(alpha) - 1e-12

    def test_zero_perturbation_keeps_raw_branch(self):
        base = SampledSurrogate(self.prob, self.theta, self.batch)
        clip = ClippedSurrogate(SampledSurrogate(self.prob, self.theta, self.batch), 0.2)
        np.testing.assert_array_equal(clip.grad(np.zeros(2)), base.grad(np.zeros(2)))

    def test_radius_must_be_positive(self):
        with pytest.raises(ConfigError):
            ClippedSurrogate(SampledSurrogate(self.prob, self.theta, self.batch), 0.0)


class TestChainIteration:
    def test_descends_on_canonical(self):
        prob = canonical_two_state()
        theta = np.zeros(2)
        values = [objective(prob, theta)]
        for _ in range(12):
            report = chain_iteration_step(prob, theta, inner="gd", kappa=1.0)
            theta = report.theta
            values.append(objective(prob, theta))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < 1.2

    def test_newton_inner_descends(self):
        prob = random_softmax_problem(EpisodicDiscounted(0.9), 5, seed=7)
        theta = probe_theta(prob, 10)
        j0 = objective(prob, theta)
        report = chain_iteration_step(prob, theta, inner="newton", kappa=1.0)
        assert objective(prob, report.theta) <= j0 + 1e-12
        assert report.inner_iters >= 1

    def test_partial_trust_weight_interpolates(self):
        prob = canonical_two_state()
        full = chain_iteration_step(prob, np.zeros(2), kappa=1.0)
        half = chain_iteration_step(prob, np.zeros(2), kappa=0.5)
        np.testing.assert_allclose(half.theta, 0.5 * full.alpha, atol=1e-8)

    def test_invalid_trust_weight(self):
        with pytest.raises(ConfigError):
            chain_iteration_step(canonical_two_state(), np.zeros(2), kappa=1.5)

    @pytest.mark.parametrize("inner", ["gd", "newton"])
    def test_five_rising_steps_reject_and_halve_kappa(self, inner):
        """A surrogate that rises at every evaluation is rejected after five
        rising inner steps: theta stays put and kappa halves."""

        class RisingSurrogate:
            def __init__(self):
                self.calls = 0

            def value(self, alpha):
                self.calls += 1
                return float(self.calls)

            def grad(self, alpha):
                return np.ones(2)

            def hess(self, alpha):
                return np.eye(2)

        theta = np.array([0.3, -0.2])
        report = chain_iteration_step(
            canonical_two_state(), theta, surrogate=RisingSurrogate(), inner=inner, kappa=0.5
        )
        assert report.accepted is False
        np.testing.assert_array_equal(report.theta, theta)
        assert report.theta is not theta
        assert (report.kappa, report.kappa_next) == (0.5, 0.25)
        assert report.inner_iters == 5
        assert len(report.surrogate_values) == 6
        assert np.all(np.diff(report.surrogate_values) > 0.0)


class TestFisher:
    def test_exact_fisher_is_psd(self):
        for setting, seed in [(EpisodicDiscounted(0.9), 0), (Average(), 1)]:
            prob = random_softmax_problem(setting, 6, seed=seed)
            F = fisher_matrix(prob, probe_theta(prob, seed))
            assert F.source == "exact"
            np.testing.assert_allclose(F.matrix, F.matrix.T, atol=1e-12)
            assert F.min_eigenvalue() >= -1e-10

    def test_sampled_fisher_tracks_exact(self):
        prob = canonical_two_state()
        theta = np.zeros(2)
        F = fisher_matrix(prob, theta)
        batch = generate_rollouts(prob, theta, 3000, seed=70)
        F_hat = fisher_matrix(prob, theta, batch)
        assert F_hat.source == "sampled"
        assert np.all(np.abs(F_hat.matrix - F.matrix) <= 5 * F_hat.stderr + 1e-12)

    def test_identity_metric_is_a_no_op(self):
        grad = np.array([0.3, -1.2, 0.05])
        F = FisherMatrix(np.eye(3), source="exact")
        np.testing.assert_allclose(natural_gradient(grad, F), grad, atol=1e-14)

    def test_damping_escalation_handles_semidefinite_metric(self):
        grad = np.array([1.0, 2.0])
        F = FisherMatrix(np.diag([1.0, 0.0]), source="exact")
        out = natural_gradient(grad, F, damping=0.0)
        assert np.all(np.isfinite(out))
        assert abs(out[0] - 1.0) < 1e-6

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            natural_gradient(np.ones(2), FisherMatrix(np.eye(3), source="exact"))


class TestSurrogateHessianEntry:
    def test_exact_route(self):
        prob = random_softmax_problem(EpisodicDiscounted(0.9), 4, seed=8)
        theta = probe_theta(prob, 11)
        want = ExactSurrogate(prob, theta).hess(np.zeros(prob.n_params))
        np.testing.assert_allclose(surrogate_hessian(prob, theta), want, atol=0)

    def test_sampled_route_is_symmetric(self):
        prob = canonical_two_state()
        theta = np.zeros(2)
        batch = generate_rollouts(prob, theta, 300, seed=80)
        H = surrogate_hessian(prob, theta, batch)
        np.testing.assert_allclose(H, H.T, atol=1e-12)


class TestFrozenTables:
    """On tabular chains the sampled surrogates evaluate through frozen
    visit-mass and transition-weight tables."""

    def test_sampled_hessian_matches_fd(self):
        cases = [
            random_smdp_problem(4, 3, seed=6),
            (random_softmax_problem(EpisodicDiscounted(0.9), 5, seed=12), None),
        ]
        for prob, theta in cases:
            if theta is None:
                theta = probe_theta(prob, 13)
            fit = generate_rollouts(prob, theta, 200, seed=90)
            baseline = fit_value_approx(prob, fit, np.eye(prob.chain.n_states), ridge=1e-6)
            batch = generate_rollouts(prob, theta, 200, seed=91)
            sur = SampledSurrogate(prob, theta, batch, baseline)
            alpha = 0.1 * np.random.default_rng(14).normal(size=prob.n_params)
            H = sur.hess(alpha)
            H_fd = fd_hessian(sur.value, alpha, h=1e-4)
            np.testing.assert_allclose(H, H_fd, atol=1e-5)

    def test_one_transition_matrix_per_call(self, monkeypatch):
        """value and grad of the sampled and clipped surrogates build P at
        most once per call on a softmax chain."""
        prob = random_softmax_problem(EpisodicDiscounted(0.9), 6, seed=15)
        theta = probe_theta(prob, 16)
        batch = generate_rollouts(prob, theta, 100, seed=92)
        surrogates = [
            SampledSurrogate(prob, theta, batch),
            ClippedSurrogate(SampledSurrogate(prob, theta, batch), 0.2),
        ]
        chain = prob.chain
        build = chain.transition_matrix
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(chain, "transition_matrix", counted)
        alpha = 0.2 * np.random.default_rng(17).normal(size=prob.n_params)
        for sur in surrogates:
            for fn in (sur.value, sur.grad):
                calls.clear()
                fn(alpha)
                assert len(calls) <= 1

    def test_underflowed_support_entry_stays_finite(self):
        """A support entry whose probability underflows to zero is never
        sampled and never enters a ratio."""
        prob = random_softmax_problem(EpisodicDiscounted(0.9), 5, seed=18)
        theta = probe_theta(prob, 19)
        zeros = np.sum(prob.chain.transition_matrix(theta) == 0.0)
        theta[0] = -800.0
        assert np.sum(prob.chain.transition_matrix(theta) == 0.0) > zeros
        batch = generate_rollouts(prob, theta, 100, seed=93)
        base = SampledSurrogate(prob, theta, batch)
        clip = ClippedSurrogate(SampledSurrogate(prob, theta, batch), 0.2)
        alpha = 0.3 * np.random.default_rng(20).normal(size=prob.n_params)
        for sur in (base, clip):
            assert np.isfinite(sur.value(alpha))
            assert np.all(np.isfinite(sur.grad(alpha)))


class TestContinuousSampledSurrogate:
    """On a continuous chain the sampled surrogate sums over the sampled
    transitions with capped log ratios."""

    def setup_method(self):
        self.prob, self.theta = gaussian_linear_problem(n_x=2, seed=0)
        self.batch = generate_rollouts(self.prob, self.theta, 40, horizon_cap=30, seed=94)

    def test_gradient_at_zero_matches_estimator(self):
        sur = SampledSurrogate(self.prob, self.theta, self.batch)
        est = estimate_gradient(self.prob, self.theta, self.batch)
        np.testing.assert_allclose(sur.grad(np.zeros(self.prob.n_params)), est.mean, rtol=1e-12)

    def test_gradient_matches_fd_of_value(self):
        sur = SampledSurrogate(self.prob, self.theta, self.batch)
        alpha = 0.1 * np.random.default_rng(21).normal(size=self.prob.n_params)
        np.testing.assert_allclose(
            sur.grad(alpha), fd_gradient(sur.value, alpha), rtol=1e-6, atol=1e-8
        )

    def test_huge_radius_disables_clipping(self):
        base = SampledSurrogate(self.prob, self.theta, self.batch)
        clip = ClippedSurrogate(SampledSurrogate(self.prob, self.theta, self.batch), 1e6)
        rng = np.random.default_rng(22)
        for _ in range(5):
            alpha = 0.3 * rng.normal(size=self.prob.n_params)
            assert clip.value(alpha) == base.value(alpha)
            np.testing.assert_array_equal(clip.grad(alpha), base.grad(alpha))

    def test_hessian_is_symmetric(self):
        sur = SampledSurrogate(self.prob, self.theta, self.batch)
        H = sur.hess(np.zeros(self.prob.n_params))
        np.testing.assert_allclose(H, H.T, atol=1e-12)

    def test_value_grad_and_hessian_match_per_row_references(self):
        """The batched value, gradient and Hessian at a perturbed theta
        against sums over the batch's states and transitions of conftest's
        per-row cost, score and log density: with c_j the coefficient and
        r_j the ratio of transition j, w . L + sum c r, sum c r s and
        sum c r (s s' - B' cov^-1 B)."""
        prob, theta, chain = self.prob, self.theta, self.prob.chain
        sur = SampledSurrogate(prob, theta, self.batch)
        alpha = 0.1 * np.random.default_rng(23).normal(size=prob.n_params)
        th = theta + alpha
        steps = self.batch.steps(sur.gamma)
        k = steps.trans
        coef = sur.gamma * steps.weights[k] * steps.returns[k + 1] / sur.n_valid
        pairs = list(zip(steps.states[k], steps.states[k + 1]))
        logr = [gaussian_log_density(chain, x, y, th) - gaussian_log_density(chain, x, y, theta)
                for x, y in pairs]
        cr = coef * np.exp(logr)
        S = np.array([gaussian_score(chain, x, y, th) for x, y in pairs])
        L = np.array([state_cost(prob.cost, x) for x in steps.states])
        info = chain.B.T @ np.linalg.inv(chain.cov) @ chain.B
        hess = sum(c * (np.outer(s, s) - info) for c, s in zip(cr, S))
        close = lambda a, b: np.testing.assert_allclose(
            a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b))
        )
        close(sur.value(alpha), steps.weights @ L / sur.n_valid + cr.sum())
        close(sur.grad(alpha), cr @ S)
        close(sur.hess(alpha), hess)

    @pytest.mark.filterwarnings("error")
    def test_capped_ratios_are_counted_not_warned(self):
        """One transition ten standard deviations from its mean: moving the
        mean halfway towards it gives a log ratio of (10^2 - 5^2) / 2 = 37.5,
        above the cap of 30."""
        chain = GaussianLinearChain(np.array([[0.5]]), np.eye(1), np.eye(1))
        prob = Problem(
            chain,
            StateQuadraticCost(np.eye(1), n_params=1),
            EpisodicDiscounted(0.9),
            GaussianInitial(np.zeros(1), np.eye(1)),
        )
        theta = np.zeros(1)
        states = np.array([[0.0], [10.0]])
        costs = np.array([state_cost(prob.cost, x) for x in states])
        batch = batch_from_arrays([states], [costs], [END_HORIZON], theta, 0, "horizon", 1)
        sur = SampledSurrogate(prob, theta, batch)
        assert np.isfinite(sur.value(np.array([5.0])))
        assert sur.n_ratio_clipped == 1


class TestDampedSolve:
    def test_non_finite_metric_raises(self):
        F = FisherMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]), source="sampled")
        with pytest.raises(InvalidStructureError):
            natural_gradient(np.ones(2), F)

    def test_non_finite_gradient_raises(self):
        with pytest.raises(InvalidStructureError):
            natural_gradient(np.array([1.0, np.inf]), FisherMatrix(np.eye(2), source="exact"))

    def test_indefinite_hessian_gives_finite_newton_direction(self):
        d = _damped_solve(np.diag([1.0, -1.0]), np.array([1.0, 1.0]))
        assert np.all(np.isfinite(d))
