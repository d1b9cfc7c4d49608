"""Exact Z solvers, stochastic Z updates, and the compatible-feature check."""

import numpy as np
import pytest
from conftest import fd_vector, log_prob, transition_score

from chainopt import (
    Average,
    FirstExit,
    InvalidStructureError,
    exact_gradient,
    fd_gradient_oracle,
    objective,
    solve_value_episodic,
)
from chainopt.mdp import LmdpSpec
from chainopt.problems import gridworld_lmdp
from chainopt.zlearn import (
    LinearFeatureZ,
    TabularZ,
    ZWeightedChain,
    compatible_natural_gradient_check,
    induced_chain,
    lmdp_objective,
    lmdp_problem,
    solve_z_average,
    solve_z_firstexit,
    z_bellman_residual,
    z_from_text,
    z_problem,
    z_to_text,
    zlearn_baseline,
    zlearn_greedy,
)


def path_spec(n=5, charge=0.05):
    """Line of states walking to an absorbing goal at the right end."""
    base = np.zeros((n, n))
    for x in range(n - 1):
        left, right = max(x - 1, 0), x + 1
        base[x, left] += 0.5
        base[x, right] += 0.5
    base[n - 1, n - 1] = 1.0
    cost = np.full(n, charge)
    cost[n - 1] = 0.0
    return LmdpSpec(base, cost, terminal=[n - 1])


def ergodic_spec(n=4, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(n) * 2.0, size=n)
    cost = rng.uniform(0.05, 0.4, n)
    return LmdpSpec(base, cost)


class TestFirstExitSolve:
    def test_fixed_point_residual(self):
        spec = gridworld_lmdp(5, seed=0)
        z = solve_z_firstexit(spec)
        assert z_bellman_residual(spec, z) < 1e-12
        zt = z.z_table()
        goal = next(iter(spec.terminal))
        assert zt[goal] == 1.0
        assert np.all(zt > 0) and np.all(zt <= 1.0 + 1e-12)

    def test_energies_are_values_of_induced_chain(self):
        """-log Z solves the control-cost problem exactly: evaluating the
        induced chain with the full step cost r + KL reproduces E."""
        spec = path_spec()
        z = solve_z_firstexit(spec)
        prob = lmdp_problem(spec, induced_chain(spec, z), FirstExit())
        V = solve_value_episodic(prob, np.zeros(prob.n_params)).values
        np.testing.assert_allclose(V, z.energies, atol=1e-12)

    def test_unreachable_goal_raises(self):
        base = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        spec_args = (base, np.array([0.1, 0.1, 0.0]))
        from chainopt.errors import ReachabilityError

        with pytest.raises(ReachabilityError):
            solve_z_firstexit(LmdpSpec(*spec_args, terminal=[2]))


class TestAverageSolve:
    def test_eigenpair_and_objective(self):
        spec = ergodic_spec(5, seed=1)
        z, j = solve_z_average(spec)
        zt = z.z_table()
        M = np.exp(-spec.state_cost)[:, None] * spec.baseline
        lam = np.exp(-j)
        np.testing.assert_allclose(M @ zt, lam * zt, atol=1e-11)
        # the induced chain attains the eigenvalue cost
        assert abs(lmdp_objective(spec, induced_chain(spec, z), Average()) - j) < 1e-10

    def test_induced_chain_beats_random_probes(self):
        spec = ergodic_spec(4, seed=2)
        z, j = solve_z_average(spec)
        rng = np.random.default_rng(3)
        for _ in range(20):
            P = rng.dirichlet(np.ones(4) * 1.2, size=4)
            assert j <= lmdp_objective(spec, P, Average()) + 1e-12


class TestInducedChain:
    def test_tilt_formula(self):
        spec = path_spec()
        z = solve_z_firstexit(spec)
        P = induced_chain(spec, z)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        zt = z.z_table()
        raw = spec.baseline * zt[None, :]
        np.testing.assert_allclose(P, raw / raw.sum(axis=1, keepdims=True), atol=1e-14)

    def test_first_exit_optimality_over_probes(self):
        spec = path_spec()
        z = solve_z_firstexit(spec)
        j_star = lmdp_objective(spec, induced_chain(spec, z), FirstExit())
        rng = np.random.default_rng(4)
        for _ in range(20):
            P = induced_chain(spec, z).copy()
            for x in range(spec.n_states - 1):
                row = P[x] * np.exp(0.5 * rng.normal(size=spec.n_states))
                row[spec.baseline[x] == 0] = 0.0
                P[x] = row / row.sum()
            assert j_star <= lmdp_objective(spec, P, FirstExit()) + 1e-12


class TestZWeightedChain:
    def test_rows_match_induced_chain(self):
        spec = path_spec()
        z = solve_z_firstexit(spec)
        features = np.eye(spec.n_states)
        features[list(spec.terminal)] = 0.0
        chain = ZWeightedChain(spec, features)
        P = chain.transition_matrix(z.energies)
        np.testing.assert_allclose(P, induced_chain(spec, z), atol=1e-12)

    def test_score_matches_fd(self):
        spec = ergodic_spec(4, seed=5)
        features = np.eye(4)
        chain = ZWeightedChain(spec, features)
        theta = 0.3 * np.random.default_rng(6).normal(size=4)
        for x in range(4):
            for y in range(4):
                if spec.baseline[x, y] == 0.0:
                    continue
                fd = fd_vector(lambda th: log_prob(chain, x, y, th), theta)
                np.testing.assert_allclose(transition_score(chain, x, y, theta), fd, atol=1e-8)

    def test_z_problem_objective_matches_lmdp_objective(self):
        spec = ergodic_spec(4, seed=7)
        features = np.eye(4)
        prob = z_problem(spec, features, Average())
        theta = 0.2 * np.random.default_rng(8).normal(size=4)
        P = prob.chain.transition_matrix(theta)
        assert abs(objective(prob, theta) - lmdp_objective(spec, P, Average())) < 1e-12

    def test_z_problem_gradient_passes_fd(self):
        spec = ergodic_spec(4, seed=9)
        prob = z_problem(spec, np.eye(4), Average())
        theta = 0.2 * np.random.default_rng(10).normal(size=4)
        np.testing.assert_allclose(
            exact_gradient(prob, theta), fd_gradient_oracle(prob, theta), atol=1e-7
        )


class TestZLearning:
    def test_baseline_walk_converges_on_path(self):
        spec = path_spec()
        z0 = TabularZ(np.zeros(spec.n_states), terminal=spec.terminal)
        z_hat, stats = zlearn_baseline(spec, z0, 40_000, seed=0)
        z_star = solve_z_firstexit(spec)
        interior = [x for x in range(spec.n_states) if x not in spec.terminal]
        rel = np.abs(z_hat.z_table() - z_star.z_table())[interior] / z_star.z_table()[interior]
        assert rel.max() < 0.05
        assert stats.n_restarts > 0
        assert stats.visits.sum() + stats.n_restarts == 40_000

    def test_greedy_walk_converges_on_path(self):
        spec = path_spec()
        z0 = TabularZ(np.zeros(spec.n_states), terminal=spec.terminal)
        z_star = solve_z_firstexit(spec)
        interior = [x for x in range(spec.n_states) if x not in spec.terminal]
        for mode in ("exact-g", "double-sample"):
            z_hat, _ = zlearn_greedy(spec, z0, 40_000, seed=0, mode=mode)
            rel = (
                np.abs(z_hat.z_table() - z_star.z_table())[interior]
                / z_star.z_table()[interior]
            )
            assert rel.max() < 0.05

    def test_runs_are_deterministic_under_seed(self):
        spec = path_spec()
        z0 = TabularZ(np.zeros(spec.n_states), terminal=spec.terminal)
        a, _ = zlearn_baseline(spec, z0, 2000, seed=42)
        b, _ = zlearn_baseline(spec, z0, 2000, seed=42)
        np.testing.assert_array_equal(a.energies, b.energies)

    def test_recording_hook_sees_progress(self):
        spec = path_spec()
        z0 = TabularZ(np.zeros(spec.n_states), terminal=spec.terminal)
        snaps = []
        zlearn_baseline(
            spec, z0, 5000, seed=1,
            record_every=1000, on_record=lambda k, z: snaps.append((k, z)),
        )
        assert [k for k, _ in snaps] == [1000, 2000, 3000, 4000, 5000]
        # snapshots are frozen copies, not views of the live table
        assert not np.array_equal(snaps[0][1].energies, snaps[-1][1].energies)

    @pytest.mark.filterwarnings("error")
    def test_floor_hits_are_counted_not_warned(self):
        """A step cost of 30 drives exp(-r) Z below the positivity floor."""
        spec = gridworld_lmdp(3, 0, 30.0)
        z0 = TabularZ(np.zeros(spec.n_states), terminal=spec.terminal)
        _, stats = zlearn_baseline(spec, z0, 50, seed=0)
        assert stats.n_floored > 0

    def test_unknown_greedy_mode_rejected(self):
        spec = path_spec()
        z0 = TabularZ(np.zeros(spec.n_states), terminal=spec.terminal)
        with pytest.raises(InvalidStructureError):
            zlearn_greedy(spec, z0, 10, mode="bogus")


class TestCompatibleIdentity:
    def test_tabular_features_satisfy_identity(self):
        """With one-hot features the natural gradient equals the parameter
        minus the density-weighted value fit, up to the energy-offset gauge."""
        for seed in (0, 1, 2):
            spec = ergodic_spec(5, seed=seed)
            theta = 0.3 * np.random.default_rng(20 + seed).normal(size=5)
            report = compatible_natural_gradient_check(spec, np.eye(5), theta)
            assert report.aligned_difference < 1e-6


class TestTextFormat:
    def test_round_trip(self):
        z = TabularZ(np.array([0.5, 1.25, 0.0]), terminal=[2])
        back = z_from_text(z_to_text(z), terminal=[2])
        np.testing.assert_allclose(back.energies, z.energies, atol=0)
        assert back.terminal == z.terminal

    def test_linear_feature_table(self):
        phi = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.0]])
        z = LinearFeatureZ(phi, np.array([0.2, -0.3]), terminal=[2])
        np.testing.assert_allclose(z.z_table(), np.exp(-(phi @ z.theta)), atol=0)
        text = z_to_text(z)
        np.testing.assert_allclose(
            z_from_text(text, terminal=[2]).z_table(), z.z_table(), atol=1e-15
        )
