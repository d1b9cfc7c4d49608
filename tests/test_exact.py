"""Value solvers, visitation weights, and analytic gradients vs oracles.

Oracle policy: every solver is checked against an independent computation
(truncated power series, eigenvectors, backward recursion by hand, central
finite differences) before any identity between library routines is used.
"""

import json

import numpy as np
import pytest

from chainopt import (
    Average,
    CapabilityError,
    EpisodicDiscounted,
    ExactSurrogate,
    FirstExit,
    InvalidStructureError,
    Problem,
    ReachabilityError,
    FixedTabularChain,
    SoftmaxChain,
    TableCost,
    TabularInitial,
    TimeVarying,
    TimeVaryingChain,
    chain_iteration_step,
    discounted_occupancy,
    exact_gradient,
    exact_gradient_bottleneck,
    fd_gradient_oracle,
    fisher_matrix,
    objective,
    solve,
    solve_value_average,
    solve_value_episodic,
    solve_value_timevarying,
    stationary_density,
)
from chainopt import exact, harness
from chainopt.harness import parse_config, run_optimize
from chainopt.mdp import map_stochastic_mdp
from chainopt.problems import (
    canonical_two_state,
    random_mdp,
    random_softmax_problem,
    random_timevarying_problem,
)


def series_value(P, L, gamma, terms=2000):
    """Truncated power series sum_t gamma^t P^t L."""
    V = np.zeros_like(L)
    term = L.copy()
    for _ in range(terms):
        V = V + term
        term = gamma * P @ term
    return V


def theta_for(problem, seed):
    rng = np.random.default_rng(seed)
    return 0.3 * rng.normal(size=problem.n_params)


FOUR_SETTINGS = [EpisodicDiscounted(0.9), FirstExit(), Average(), TimeVarying(4)]
FOUR_IDS = ["episodic", "first-exit", "average", "time-varying"]


def problem_in(setting, n_states, seed):
    """A random softmax problem in the setting; a time-varying one has its horizon."""
    if isinstance(setting, TimeVarying):
        return random_timevarying_problem(setting.horizon, n_states=n_states, seed=seed)
    return random_softmax_problem(setting, n_states=n_states, seed=seed)


class NanRowChain(FixedTabularChain):
    """A fixed chain whose row 0 is NaN."""

    def transition_matrix(self, theta, t=0):
        P = super().transition_matrix(theta, t)
        P[..., 0, :] = np.nan
        return P


def nan_row_problem(setting=EpisodicDiscounted(0.9)):
    return Problem(NanRowChain(np.full((2, 2), 0.5)), TableCost([1.0, 2.0]),
                   setting, TabularInitial([0.5, 0.5]))


class TestCanonicalClosedForm:
    """The two-state escape problem has exact closed forms: with sigma the
    exit probability, J = 1/sigma, the start state is visited 1/sigma times
    in expectation, and the gradient is (1 - sigma, sigma - 1) / sigma."""

    def test_objective_and_gradient_at_zero(self):
        prob = canonical_two_state()
        theta = np.zeros(prob.n_params)
        assert abs(objective(prob, theta) - 2.0) < 1e-12
        np.testing.assert_allclose(exact_gradient(prob, theta), [1.0, -1.0], atol=1e-12)

    def test_objective_tracks_one_over_sigma(self):
        prob = canonical_two_state()
        for t0, t1 in [(0.5, -0.3), (-1.0, 0.7), (2.0, 0.0)]:
            theta = np.array([t0, t1])
            sigma = np.exp(t1) / (np.exp(t0) + np.exp(t1))
            assert abs(objective(prob, theta) - 1.0 / sigma) < 1e-10

    def test_occupancy_counts_expected_visits(self):
        prob = canonical_two_state()
        rho = discounted_occupancy(prob, np.zeros(2))
        # start state visited Geometric(1/2) times, terminal entered once
        np.testing.assert_allclose(rho, [2.0, 1.0], atol=1e-12)


class TestEpisodicSolver:
    def test_value_matches_power_series(self):
        prob = random_softmax_problem(EpisodicDiscounted(0.9), n_states=6, seed=4)
        theta = theta_for(prob, 0)
        V = solve_value_episodic(prob, theta).values
        P = prob.chain.transition_matrix(theta)
        L = prob.cost.value_table(theta)
        np.testing.assert_allclose(V, series_value(P, L, 0.9), atol=1e-10)

    def test_gamma_zero_degenerates_to_one_step_cost(self):
        prob = random_softmax_problem(EpisodicDiscounted(0.0), n_states=5, seed=1)
        theta = theta_for(prob, 2)
        L = prob.cost.value_table(theta)
        np.testing.assert_allclose(solve_value_episodic(prob, theta).values, L)
        assert abs(objective(prob, theta) - float(prob.init.weights @ L)) < 1e-14

    def test_first_exit_value_matches_series(self):
        prob = random_softmax_problem(FirstExit(), n_states=6, seed=7)
        theta = theta_for(prob, 3)
        V = solve_value_episodic(prob, theta).values
        P = prob.chain.transition_matrix(theta).copy()
        L = prob.cost.value_table(theta)
        for s in prob.chain.terminal:
            P[s, :] = 0.0  # stop accumulating after absorption
        np.testing.assert_allclose(V, series_value(P, L, 1.0, terms=5000), atol=1e-9)

    def test_non_finite_transition_matrix_is_refused(self):
        """A NaN row reaches no value: the solve names the cause instead of
        returning NaN."""
        with pytest.raises(InvalidStructureError, match="transition matrix contains non-finite"):
            objective(nan_row_problem(), np.zeros(0))

    @pytest.mark.parametrize("solver, setting", [
        (stationary_density, Average()), (discounted_occupancy, EpisodicDiscounted(0.9)),
    ], ids=["stationary_density", "discounted_occupancy"])
    def test_non_finite_transition_matrix_is_refused_by_density_and_occupancy(
        self, solver, setting
    ):
        """Nor a density or an occupancy: the cause is the NaN, not the
        support graph."""
        with pytest.raises(InvalidStructureError, match="transition matrix contains non-finite"):
            solver(nan_row_problem(setting), np.zeros(0))

    def test_residual_checks_refuse_nan(self):
        """Each value and occupancy solve fails on a NaN residual, which
        compares false against any tolerance."""
        chain = FixedTabularChain(np.array([[0.5, 0.5], [0.2, 0.8]]))
        prob = Problem(chain, TableCost([1.0, 2.0]), EpisodicDiscounted(0.9),
                       TabularInitial([0.5, 0.5]))
        P = chain.transition_matrix(np.zeros(0))
        L = np.array([1.0, np.nan])
        with pytest.raises(InvalidStructureError, match="value solve residual nan"):
            exact._episodic_values(prob, P, L)
        with pytest.raises(InvalidStructureError, match="average solve residual nan"):
            exact._average_values(P, L)
        with pytest.raises(InvalidStructureError, match="occupancy residual nan"):
            exact._occupancy(prob, np.where(P > 0.3, np.nan, P))

    def test_unreachable_terminal_raises(self):
        chain = SoftmaxChain(3, {0: [0, 1], 1: [0, 1]}, terminal=[2])
        cost = TableCost([1.0, 1.0, 0.0], n_params=chain.n_params)
        prob = Problem(chain, cost, FirstExit(), TabularInitial([1.0, 0.0, 0.0]))
        with pytest.raises(ReachabilityError):
            solve_value_episodic(prob, np.zeros(prob.n_params))


class TestOccupancyAndDensity:
    def test_occupancy_matches_truncated_sum(self):
        prob = random_softmax_problem(EpisodicDiscounted(0.9), n_states=6, seed=5)
        theta = theta_for(prob, 1)
        rho = discounted_occupancy(prob, theta)
        P = prob.chain.transition_matrix(theta)
        p = prob.init.weights.copy()
        want = np.zeros(6)
        for t in range(2000):
            want += (0.9 ** t) * p
            p = P.T @ p
        np.testing.assert_allclose(rho, want, atol=1e-10)

    def test_stationary_density_is_left_eigenvector(self):
        prob = random_softmax_problem(Average(), n_states=7, seed=6)
        theta = theta_for(prob, 4)
        d = stationary_density(prob, theta)
        P = prob.chain.transition_matrix(theta)
        np.testing.assert_allclose(d @ P, d, atol=1e-12)
        assert abs(d.sum() - 1.0) < 1e-12
        assert np.all(d > 0)
        # agrees with the power method, an independent route
        mu = np.full(7, 1.0 / 7.0)
        for _ in range(20000):
            mu = mu @ P
        np.testing.assert_allclose(d, mu, atol=1e-10)


class TestAverageSolver:
    def test_average_cost_and_gauge(self):
        prob = random_softmax_problem(Average(), n_states=6, seed=9)
        theta = theta_for(prob, 5)
        sol = solve_value_average(prob, theta)
        d = stationary_density(prob, theta)
        P = prob.chain.transition_matrix(theta)
        L = prob.cost.value_table(theta)
        assert abs(sol.J - float(d @ L)) < 1e-12
        # differential values satisfy V + j = L + P V and E_d[V] = 0
        np.testing.assert_allclose(sol.values + sol.J, L + P @ sol.values, atol=1e-10)
        assert abs(d @ sol.values) < 1e-10


class TestTimeVaryingSolver:
    def test_matches_manual_backward_recursion(self):
        """solve's stage values follow V_t = L_t + P_t V_{t+1} built stage by
        stage, its weights are the start law pushed through each P_t, and J
        is V_0 . p0 with no discount and no residual."""
        prob = random_timevarying_problem(horizon=4, n_states=5, seed=3)
        theta = theta_for(prob, 6)
        sol = solve(prob, theta)
        V = sol.values
        assert V.shape == sol.L.shape == sol.weights.shape == (5, 5)
        assert sol.P.shape == (4, 5, 5)
        want = prob.cost.value_table(theta, 4)
        np.testing.assert_allclose(V[4], want)
        for t in (3, 2, 1, 0):
            P = prob.chain.transition_matrix(theta, t)
            np.testing.assert_array_equal(sol.P[t], P)
            want = prob.cost.value_table(theta, t) + P @ want
            np.testing.assert_allclose(V[t], want, atol=1e-12)
        p = prob.init.weights
        for t in range(5):
            np.testing.assert_allclose(sol.weights[t], p, atol=1e-15)
            if t < 4:
                p = prob.chain.transition_matrix(theta, t).T @ p
        assert sol.J == objective(prob, theta)
        assert abs(sol.J - float(prob.init.weights @ V[0])) < 1e-14
        assert sol.gamma == 1.0 and sol.residual == 0.0

    def test_objective_matches_monte_carlo(self):
        prob = random_timevarying_problem(horizon=3, n_states=4, seed=8)
        theta = theta_for(prob, 7)
        rng = np.random.default_rng(123)
        # draws of each stage's make_sampler, from tables built once per stage
        L = [prob.cost.value_table(theta, t) for t in range(4)]
        step = [prob.chain.make_sampler(theta, t) for t in range(3)]
        total = 0.0
        n = 40_000
        for _ in range(n):
            x = prob.init.sample(rng)
            for t in range(3):
                total += L[t][x]
                x = step[t](x, rng)
            total += L[3][x]
        assert abs(total / n - objective(prob, theta)) < 0.05


class TestExactGradient:
    SETTINGS = [
        EpisodicDiscounted(0.9),
        EpisodicDiscounted(0.0),
        FirstExit(),
        Average(),
    ]

    def test_matches_fd_across_settings(self):
        """The expectation-form gradient equals central differences of the
        objective on every stationary setting."""
        for setting in self.SETTINGS:
            prob = random_softmax_problem(setting, n_states=6, seed=11)
            theta = theta_for(prob, 8)
            g = exact_gradient(prob, theta)
            fd = fd_gradient_oracle(prob, theta)
            np.testing.assert_allclose(g, fd, atol=1e-7)

    def test_matches_fd_time_varying(self):
        prob = random_timevarying_problem(horizon=6, n_states=5, seed=2)
        theta = theta_for(prob, 9)
        np.testing.assert_allclose(
            exact_gradient(prob, theta), fd_gradient_oracle(prob, theta), atol=1e-7
        )

    def test_time_varying_builds_each_stage_once(self, monkeypatch):
        """The stage densities are pushed through the matrices of the
        backward solve, and those come from one stacked call for all ten
        stages, which builds no stage's P on its own; the gradient is the
        loop that built each P again."""
        prob = random_timevarying_problem(horizon=10, n_states=8, seed=4)
        theta = theta_for(prob, 5)
        V = solve_value_timevarying(prob, theta)
        chain, cost = prob.chain, prob.cost
        want, p = np.zeros(prob.n_params), prob.init.weights.copy()
        for t in range(11):
            want += cost.grad_sum(theta, p, t)
            if t < 10:
                want += chain.row_vjp(theta, np.outer(p, V[t + 1]), t)
                p = chain.transition_matrix(theta, t).T @ p
        builds = {TimeVaryingChain: [], SoftmaxChain: []}
        for cls in builds:
            def counted(self, theta, t=0, cls=cls, build=cls.transition_matrix):
                builds[cls].append(t)
                return build(self, theta, t)

            monkeypatch.setattr(cls, "transition_matrix", counted)
        got = exact_gradient(prob, theta)
        (stages,) = builds[TimeVaryingChain]
        np.testing.assert_array_equal(stages, np.arange(10))
        assert builds[SoftmaxChain] == []
        np.testing.assert_array_equal(got, want)

    def test_bottleneck_route_agrees(self):
        """The two-factor chain rule through the action distribution gives
        the same gradient as the direct score form."""
        for setting in (EpisodicDiscounted(0.9), Average()):
            mdp, policy, theta = random_mdp(5, 3, seed=12, setting=setting)
            prob = map_stochastic_mdp(mdp, policy)
            np.testing.assert_allclose(
                exact_gradient_bottleneck(prob, theta),
                exact_gradient(prob, theta),
                atol=1e-10,
            )


class TestOneSolvePerTheta:
    SETTINGS = [EpisodicDiscounted(0.9), FirstExit(), Average()]

    def test_solution_matches_public_solvers(self):
        """solve pairs each setting with the same values and weights as the
        readers named for them, to the last bit."""
        for setting in FOUR_SETTINGS:
            prob = problem_in(setting, 7, 4)
            theta = theta_for(prob, 5)
            sol = solve(prob, theta)
            assert sol.J == objective(prob, theta)
            if isinstance(setting, TimeVarying):
                np.testing.assert_array_equal(sol.values, solve_value_timevarying(prob, theta))
                assert sol.gamma == 1.0
                continue
            np.testing.assert_array_equal(sol.P, prob.chain.transition_matrix(theta))
            if isinstance(setting, Average):
                avg = solve_value_average(prob, theta)
                np.testing.assert_array_equal(sol.values, avg.values)
                np.testing.assert_array_equal(sol.weights, stationary_density(prob, theta))
                assert sol.gamma == 1.0 and sol.J == avg.J
            else:
                np.testing.assert_array_equal(
                    sol.values, solve_value_episodic(prob, theta).values
                )
                np.testing.assert_array_equal(sol.weights, discounted_occupancy(prob, theta))
                assert sol.gamma == setting.gamma

    @pytest.mark.parametrize("consumer", [
        lambda prob, theta: ExactSurrogate(prob, theta),
        lambda prob, theta: fisher_matrix(prob, theta, solution=solve(prob, theta)),
        lambda prob, theta: chain_iteration_step(prob, theta),
    ], ids=["ExactSurrogate", "fisher_matrix", "chain_iteration_step"])
    def test_stationary_consumers_refuse_time_varying(self, consumer):
        """The exact surrogate and Fisher contract one weight per state; a
        time-varying solve's (T+1, n) stage densities are refused."""
        prob = random_timevarying_problem(horizon=3, n_states=4, seed=1)
        with pytest.raises(CapabilityError, match="stationary setting"):
            consumer(prob, theta_for(prob, 2))

    @pytest.mark.parametrize("setting", FOUR_SETTINGS, ids=FOUR_IDS)
    def test_stacked_weights_match_each_solve(self, setting):
        """The weights of a solve at a (3, p) stack of theta are the three
        single solves' weights, stacked in order."""
        prob = problem_in(setting, 7, 4)
        stack = np.stack([theta_for(prob, s) for s in (5, 6, 7)])
        weights = exact._solve_at(prob, stack).weights
        assert weights.shape == (3,) + solve(prob, stack[0]).weights.shape
        for theta, w in zip(stack, weights):
            np.testing.assert_allclose(w, solve(prob, theta).weights, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("setting", FOUR_SETTINGS, ids=FOUR_IDS)
    def test_gradient_refuses_a_solution_of_another_problem_or_theta(self, setting):
        """A passed solution is read in every setting: its own is used as
        is, and one of an equal problem or of another theta is refused."""
        prob = problem_in(setting, 6, 2)
        theta = theta_for(prob, 3)
        np.testing.assert_array_equal(
            exact_gradient(prob, theta, solution=solve(prob, theta)), exact_gradient(prob, theta)
        )
        for sol in (solve(problem_in(setting, 6, 2), theta), solve(prob, theta + 0.1)):
            with pytest.raises(InvalidStructureError, match="another problem or theta"):
                exact_gradient(prob, theta, solution=sol)

    @pytest.mark.parametrize("setting", SETTINGS, ids=["episodic", "first-exit", "average"])
    def test_each_exact_quantity_builds_and_checks_the_chain_once(self, setting, monkeypatch):
        """The gradient, the exact surrogate and the exact Fisher build P
        once and run the ergodicity or reachability check at most once;
        the objective makes one linear solve and never solves for the
        visitation weights."""
        prob = random_softmax_problem(setting, n_states=8, seed=3)
        theta = theta_for(prob, 6)
        counts = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(prob.chain, "transition_matrix")
        count(prob.cost, "value_table")
        for name in ("eig", "eigvals", "solve"):
            count(np.linalg, name)

        def calls(fn):
            counts.clear()
            fn()
            return dict(counts)

        for fn in (
            lambda: exact_gradient(prob, theta),
            lambda: ExactSurrogate(prob, theta),
            lambda: fisher_matrix(prob, theta),
        ):
            c = calls(fn)
            assert c.get("transition_matrix") == 1
            assert c.get("value_table") == 1
            assert c.get("eig", 0) + c.get("eigvals", 0) <= 1
        c = calls(lambda: objective(prob, theta))
        assert c.get("transition_matrix") == 1
        assert c.get("solve") == 1

    def test_exact_quantities_share_a_given_solution(self, monkeypatch):
        """Given a solution at theta, the gradient, the exact surrogate and
        the exact Fisher make no solve of their own and agree bit for bit
        with their self-solving forms; a solution at another theta is
        refused."""
        prob = random_softmax_problem(FirstExit(), n_states=8, seed=3)
        theta = theta_for(prob, 6)
        sol = solve(prob, theta)
        expected = (
            exact_gradient(prob, theta),
            ExactSurrogate(prob, theta).grad(np.zeros(prob.n_params)),
            fisher_matrix(prob, theta).matrix,
        )
        builds = []
        original = prob.chain.transition_matrix
        monkeypatch.setattr(
            prob.chain, "transition_matrix", lambda *a: builds.append(1) or original(*a)
        )
        got = (
            exact_gradient(prob, theta, solution=sol),
            ExactSurrogate(prob, theta, solution=sol).grad(np.zeros(prob.n_params)),
            fisher_matrix(prob, theta, solution=sol).matrix,
        )
        assert builds == []
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(InvalidStructureError):
            exact_gradient(prob, theta + 0.1, solution=sol)

    @pytest.mark.parametrize("method", ["exact-gd", "natural", "chain-iteration"])
    def test_optimizer_solves_once_per_curve_row(self, method, monkeypatch):
        """run_optimize makes one exact solve per curve row, which its
        objective, gradient, Fisher and exact surrogate share, and under
        exact-gd one P build."""
        counts = {"transition_matrix": 0, "solve": 0}
        originals = {"transition_matrix": SoftmaxChain.transition_matrix, "solve": exact.solve}

        def counted(name):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return originals[name](*args, **kwargs)

            return wrapper

        monkeypatch.setattr(SoftmaxChain, "transition_matrix", counted("transition_matrix"))
        # harness binds exact.solve under its own name
        monkeypatch.setattr(exact, "solve", counted("solve"))
        monkeypatch.setattr(harness, "solve", counted("solve"))
        config = parse_config(json.dumps({
            "problem": {"kind": "softmax-tabular", "setting": "first-exit",
                        "n_states": 16, "seed": 2},
            "algorithm": {"method": method, "iterations": 3, "step_size": 0.01,
                          "damping": 0.1, "inner_iterations": 3},
        }))
        rows = len(run_optimize(config)["curve"].rows)
        assert rows == 4
        assert counts["solve"] == rows
        if method == "exact-gd":
            assert counts["transition_matrix"] == rows

    def test_time_varying_row_builds_the_stages_once(self, monkeypatch):
        """A time-varying exact-gd row builds every stage's P in one call,
        which its objective and gradient share."""
        builds = []
        original = TimeVaryingChain.transition_matrix
        monkeypatch.setattr(
            TimeVaryingChain, "transition_matrix",
            lambda self, theta, t=0: builds.append(t) or original(self, theta, t),
        )
        config = parse_config(json.dumps({
            "problem": {"kind": "timevarying-tabular", "setting": "time-varying",
                        "n_states": 8, "horizon": 5, "seed": 0},
            "algorithm": {"method": "exact-gd", "iterations": 2, "step_size": 0.01},
        }))
        rows = len(run_optimize(config)["curve"].rows)
        assert rows == 3 and len(builds) == rows
        for stages in builds:
            np.testing.assert_array_equal(stages, np.arange(5))
