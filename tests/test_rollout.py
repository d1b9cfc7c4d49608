"""Rollout generation, serialization, value fitting, and sampled gradients."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    dense_grad_table,
    discounted_returns,
    diverging_gaussian_problem,
    rollout_scores,
)

import chainopt
from chainopt import (
    CapabilityError,
    EpisodicDiscounted,
    FirstExit,
    GaussianInitial,
    GaussianLinearChain,
    Problem,
    StateQuadraticCost,
    TimeVarying,
    InvalidStructureError,
    RegularizationRequiredError,
    SampledSurrogate,
    StalenessError,
    batch_from_jsonl,
    estimate_gradient,
    exact_gradient,
    fd_hessian_oracle,
    fisher_matrix,
    fit_value_approx,
    generate_rollouts,
    parse_config,
    path_gradient,
    path_hessian,
    run_optimize,
    solve_value_episodic,
    surrogate_hessian,
)
from chainopt.rollout import batch_from_arrays, check_batch
from chainopt.problems import (
    canonical_two_state,
    gaussian_linear_problem,
    random_softmax_problem,
    random_timevarying_problem,
)


class TestGeneration:
    def test_deterministic_under_seed(self):
        prob = canonical_two_state()
        theta = np.zeros(prob.n_params)
        a = generate_rollouts(prob, theta, 50, seed=3)
        b = generate_rollouts(prob, theta, 50, seed=3)
        for ra, rb in zip(a.rollouts, b.rollouts):
            np.testing.assert_array_equal(ra.states, rb.states)
        for sa, sb in zip(rollout_scores(prob, a), rollout_scores(prob, b)):
            np.testing.assert_array_equal(sa, sb)
        c = generate_rollouts(prob, theta, 50, seed=4)
        assert any(
            ra.states.shape != rc.states.shape or not np.array_equal(ra.states, rc.states)
            for ra, rc in zip(a.rollouts, c.rollouts)
        )

    def test_first_exit_rollouts_end_at_terminal(self):
        prob = canonical_two_state()
        batch = generate_rollouts(prob, np.zeros(2), 200, seed=0)
        assert batch.mode == "terminal"
        for r in batch.rollouts:
            assert r.states[-1] == 1
            assert np.all(r.states[:-1] == 0)
            # unit step cost at the start state, none at the goal
            assert r.costs[-1] == 0.0
            assert np.all(r.costs[:-1] == 1.0)

    def test_geometric_mode_length_distribution(self):
        """The stop coin is flipped before every transition, so lengths are
        geometric with mean gamma / (1 - gamma)."""
        prob = random_softmax_problem(EpisodicDiscounted(0.9), n_states=5, seed=2)
        theta = np.zeros(prob.n_params)
        batch = generate_rollouts(prob, theta, 4000, seed=1)
        assert batch.mode == "geometric"
        lengths = np.array([r.n_steps for r in batch.rollouts], dtype=float)
        assert abs(lengths.mean() - 9.0) < 0.5

    def test_horizon_cap_guards_terminal_mode(self):
        prob = canonical_two_state()
        batch = generate_rollouts(prob, np.array([8.0, -8.0]), 20, horizon_cap=5, seed=0)
        assert all(r.n_steps <= 5 for r in batch.rollouts)

    def test_time_varying_runs_exact_horizon(self):
        prob = random_timevarying_problem(horizon=4, n_states=4, seed=0)
        batch = generate_rollouts(prob, np.zeros(prob.n_params), 30, seed=5)
        assert all(r.n_steps == 4 for r in batch.rollouts)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        prob = canonical_two_state()
        with pytest.raises(InvalidStructureError, match="seed"):
            generate_rollouts(prob, np.zeros(2), 4, seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        prob = canonical_two_state()
        a = generate_rollouts(prob, np.zeros(2), 4, seed=np.int64(3))
        b = generate_rollouts(prob, np.zeros(2), 4, seed=3)
        for ra, rb in zip(a.rollouts, b.rollouts):
            np.testing.assert_array_equal(ra.states, rb.states)

    def test_stale_batch_is_rejected(self):
        prob = canonical_two_state()
        batch = generate_rollouts(prob, np.zeros(2), 10, seed=0)
        with pytest.raises(StalenessError):
            check_batch(np.array([0.1, 0.0]), batch)


def _softmax():
    return random_softmax_problem(FirstExit(), 5, seed=1)


def _gaussian():
    return gaussian_linear_problem(2)[0]


def _with_states(states):
    """An edit of a whole record: these states, with one cost each."""
    return lambda doc: {**doc, "states": states, "costs": [1.0] * len(states)}


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        prob = random_softmax_problem(EpisodicDiscounted(0.9), n_states=5, seed=3)
        theta = 0.2 * np.random.default_rng(0).normal(size=prob.n_params)
        batch = generate_rollouts(prob, theta, 25, seed=7)
        path = tmp_path / "batch.jsonl"
        batch.to_jsonl(path)
        back = batch_from_jsonl(prob, path)
        assert back.mode == batch.mode and back.seed == batch.seed
        np.testing.assert_array_equal(back.theta, batch.theta)
        for ra, rb in zip(batch.rollouts, back.rollouts):
            np.testing.assert_array_equal(ra.states, rb.states)
            np.testing.assert_allclose(ra.costs, rb.costs, rtol=0, atol=0)
        for sa, sb in zip(rollout_scores(prob, batch), rollout_scores(prob, back)):
            np.testing.assert_allclose(sa, sb, rtol=0, atol=0)

    def test_round_trip_keeps_divergence(self, tmp_path):
        prob = diverging_gaussian_problem()
        theta = np.zeros(1)
        batch = generate_rollouts(prob, theta, 50, horizon_cap=1, seed=0)
        batch.to_jsonl(tmp_path / "batch.jsonl")
        back = batch_from_jsonl(prob, tmp_path / "batch.jsonl")
        fresh, again = (estimate_gradient(prob, theta, b) for b in (batch, back))
        assert batch.n_diverged == back.n_diverged == fresh.n_diverged == 4
        assert not fresh.valid and fresh.n_rollouts == 46
        assert (again.valid, again.n_rollouts, again.n_diverged) == (False, 46, 4)
        np.testing.assert_array_equal(again.mean, fresh.mean)

    def test_dump_without_n_diverged_loads_none(self, tmp_path):
        prob = random_softmax_problem(FirstExit(), 5, seed=1)
        path = _corrupt_dump(prob, tmp_path, 1, "n_diverged", lambda v: _DROP)
        back = batch_from_jsonl(prob, path)
        assert back.n_diverged == 0 and len(back) == 4

    @pytest.mark.parametrize(
        "make, line, key, edit",
        [
            (_softmax, 1, "mode", lambda v: "bogus"),
            (_softmax, 1, "theta", lambda v: v[:-1]),
            (_softmax, 2, "states", lambda v: [-1] + v[1:]),
            (_softmax, 3, "states", lambda v: v[:-1] + [99]),
            (_softmax, 2, "states", lambda v: [v[0] + 0.5] + v[1:]),
            (_softmax, 2, "costs", lambda v: v[:-1]),
            (_softmax, 3, "costs", lambda v: v + [0.0]),
            (_softmax, 4, "end", lambda v: "bogus"),
            (_softmax, 2, "costs", lambda v: _DROP),
            (_softmax, 3, "states", lambda v: _DROP),
            (_softmax, 4, "end", lambda v: _DROP),
            (_softmax, 1, "theta", lambda v: _DROP),
            (_softmax, 1, "seed", lambda v: _DROP),
            (_softmax, 2, None, lambda doc: list(doc.values())),
            (_softmax, 3, "states", lambda v: [v[:2]] + v[1:]),
            (_softmax, 2, "costs", lambda v: ["x"] + v[1:]),
            (_softmax, 1, None, lambda doc: "{"),
            (_softmax, 1, "n_diverged", lambda v: -1),
            (_softmax, 1, "n_diverged", lambda v: 1.5),
            (_gaussian, 2, None, _with_states([0.0, 1.0, 2.0])),
            (_gaussian, 3, None, _with_states([[0, 1, 2], [1, 1, 1]])),
            (_gaussian, 4, None, _with_states([[0], [1]])),
        ],
        ids=[
            "mode",
            "theta-size",
            "negative-state",
            "state-out-of-range",
            "fractional-state",
            "cost-missing",
            "cost-extra",
            "end-reason",
            "no-costs",
            "no-states",
            "no-end",
            "no-theta",
            "no-seed",
            "record-is-a-list",
            "nested-states",
            "string-cost",
            "not-json",
            "negative-n-diverged",
            "fractional-n-diverged",
            "flat-continuous-states",
            "wide-continuous-states",
            "narrow-continuous-states",
        ],
    )
    def test_corrupt_file_is_rejected_naming_the_line(self, tmp_path, make, line, key, edit):
        prob = make()
        path = _corrupt_dump(prob, tmp_path, line, key, edit)
        with pytest.raises(InvalidStructureError, match=f"{path.name}, line {line}:"):
            batch_from_jsonl(prob, path)

    def test_non_finite_costs_still_load(self, tmp_path):
        prob = random_softmax_problem(FirstExit(), 5, seed=1)
        path = _corrupt_dump(prob, tmp_path, 2, "costs", lambda v: [float("nan")] + v[1:])
        assert np.isnan(batch_from_jsonl(prob, path).rollouts[0].costs[0])

    def test_time_varying_file_must_have_the_problem_horizon(self, tmp_path):
        prob = random_timevarying_problem(horizon=4, n_states=4, seed=0)
        path = _corrupt_dump(prob, tmp_path, 1, "horizon_cap", lambda v: 2)
        with pytest.raises(InvalidStructureError, match="line 1:"):
            batch_from_jsonl(prob, path)


_DROP = object()  # an edit returning this deletes the key


def _corrupt_dump(prob, tmp_path, line, key, edit):
    """Dump a 4-rollout batch with one field of one line edited; with key
    None the edit replaces the whole line's document (a string is written
    as raw text)."""
    path = tmp_path / "batch.jsonl"
    generate_rollouts(prob, np.zeros(prob.n_params), 4, seed=0).to_jsonl(path)
    docs = [json.loads(text) for text in path.read_text().splitlines()]
    doc = docs[line - 1]
    if key is None:
        docs[line - 1] = edit(doc)
    elif edit(doc[key]) is _DROP:
        del doc[key]
    else:
        doc[key] = edit(doc[key])
    lines = [doc if isinstance(doc, str) else json.dumps(doc) for doc in docs]
    path.write_text("".join(text + "\n" for text in lines))
    return path


class TestDiscountedReturns:
    def test_small_cases_by_hand(self):
        np.testing.assert_allclose(
            discounted_returns(np.array([1.0, 2.0, 4.0]), 0.5),
            [1.0 + 1.0 + 1.0, 2.0 + 2.0, 4.0],
        )
        np.testing.assert_allclose(
            discounted_returns(np.array([3.0]), 0.9), [3.0]
        )


def test_import_loads_no_scipy():
    """The library needs numpy only; importing it loads no scipy module."""
    src = str(Path(chainopt.__file__).resolve().parents[1])
    code = "import sys, chainopt; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestValueFit:
    def test_constant_feature_recovers_weighted_mean(self):
        """With a single constant feature the normal equations collapse to
        the discount-weighted average of the returns."""
        prob = canonical_two_state()
        theta = np.zeros(2)
        batch = generate_rollouts(prob, theta, 300, seed=11)
        fit = fit_value_approx(prob, batch, np.ones((2, 1)))
        num = den = 0.0
        for r in batch.rollouts:
            R = discounted_returns(r.costs, 1.0)
            for t in range(r.costs.shape[0]):
                num += R[t]
                den += 1.0
        np.testing.assert_allclose(fit, num / den, rtol=0.0, atol=1e-12)

    def test_tabular_fit_approaches_exact_values(self):
        prob = canonical_two_state()
        theta = np.zeros(2)
        batch = generate_rollouts(prob, theta, 4000, seed=13)
        fit = fit_value_approx(prob, batch, np.eye(2), ridge=1e-9)
        V = solve_value_episodic(prob, theta).values
        np.testing.assert_allclose(fit, V, atol=0.15)

    def test_rank_deficiency_requires_ridge(self):
        prob = canonical_two_state()
        batch = generate_rollouts(prob, np.zeros(2), 20, seed=0)
        dead = np.zeros((2, 2))
        with pytest.raises(RegularizationRequiredError):
            fit_value_approx(prob, batch, dead, ridge=0.0)


# The three consumers of a baseline table, called alike.
BASELINE_ROUTES = {
    "estimate": lambda prob, theta, batch, b: estimate_gradient(prob, theta, batch, baseline=b),
    "surrogate": lambda prob, theta, batch, b: SampledSurrogate(prob, theta, batch, b),
    "hessian": lambda prob, theta, batch, b: surrogate_hessian(prob, theta, batch, b),
}


class TestBaselineTables:
    """A value baseline is an (n_states,) table fitted from an
    (n_states, dim) features array; a continuous chain takes none."""

    def softmax_case(self, n):
        prob = random_softmax_problem(FirstExit(), n, seed=1)
        theta = np.zeros(prob.n_params)
        return prob, theta, generate_rollouts(prob, theta, 20, seed=0)

    @pytest.mark.parametrize("features", [np.eye(3), np.eye(9), np.ones(6)],
                             ids=["3-rows", "9-rows", "1-d"])
    def test_features_need_one_row_per_state(self, features):
        prob, _, batch = self.softmax_case(6)
        with pytest.raises(InvalidStructureError, match=r"one row per state, \(6, dim\)"):
            fit_value_approx(prob, batch, features, ridge=1e-6)

    @pytest.mark.parametrize("route", sorted(BASELINE_ROUTES))
    def test_baseline_needs_one_value_per_state(self, route):
        small, _, small_batch = self.softmax_case(6)
        table = fit_value_approx(small, small_batch, np.eye(6), ridge=1e-6)
        prob, theta, batch = self.softmax_case(8)
        with pytest.raises(InvalidStructureError, match=r"one value per state, \(8,\)"):
            BASELINE_ROUTES[route](prob, theta, batch, table)

    @pytest.mark.parametrize("route", ["fit"] + sorted(BASELINE_ROUTES))
    def test_continuous_chain_takes_no_baseline(self, route):
        prob, theta = gaussian_linear_problem(n_x=2, seed=0)
        batch = generate_rollouts(prob, theta, 5, horizon_cap=10, seed=1)
        with pytest.raises(CapabilityError, match="GaussianLinearChain is not tabular"):
            if route == "fit":
                fit_value_approx(prob, batch, np.ones((1, 1)), ridge=1e-6)
            else:
                BASELINE_ROUTES[route](prob, theta, batch, np.zeros(1))


class TestGradientEstimation:
    def test_combined_estimate_near_exact(self):
        """Batch means concentrate on the exact gradient (tight bound in the
        acceptance suite; this is a 5-sigma smoke check)."""
        prob = canonical_two_state()
        theta = np.zeros(2)
        exact = exact_gradient(prob, theta)
        means, ses = [], []
        for k in range(10):
            batch = generate_rollouts(prob, theta, 400, seed=100 + k)
            est = estimate_gradient(prob, theta, batch)
            assert est.valid and est.n_rollouts == 400
            means.append(est.mean)
            ses.append(est.stderr)
        mean = np.mean(means, axis=0)
        se = np.sqrt(np.sum(np.square(ses), axis=0)) / len(ses)
        assert np.all(np.abs(mean - exact) <= 5 * se)

    def test_baseline_changes_values_not_expectation(self):
        prob = canonical_two_state()
        theta = np.zeros(2)
        fit_batch = generate_rollouts(prob, theta, 500, seed=999)
        baseline = fit_value_approx(prob, fit_batch, np.eye(2), ridge=1e-9)
        exact = exact_gradient(prob, theta)
        means, ses = [], []
        for k in range(10):
            batch = generate_rollouts(prob, theta, 400, seed=2000 + k)
            est = estimate_gradient(prob, theta, batch, baseline=baseline)
            means.append(est.mean)
            ses.append(est.stderr)
        mean = np.mean(means, axis=0)
        se = np.sqrt(np.sum(np.square(ses), axis=0)) / len(ses)
        assert np.all(np.abs(mean - exact) <= 5 * se)

    def test_time_varying_estimate_near_exact(self):
        prob = random_timevarying_problem(horizon=3, n_states=4, seed=1)
        theta = 0.2 * np.random.default_rng(1).normal(size=prob.n_params)
        exact = exact_gradient(prob, theta)
        batch = generate_rollouts(prob, theta, 3000, seed=21)
        est = estimate_gradient(prob, theta, batch)
        assert np.all(np.abs(est.mean - exact) <= 5 * est.stderr + 1e-12)


def reference_path_gradient(problem, theta, batch):
    """path_gradient as a per-rollout loop: the score sum times the total
    cost, plus the stage cost gradients along the path."""
    T = problem.setting.horizon
    cost = problem.cost
    if problem.chain.tabular:
        tables = [dense_grad_table(cost, theta, t) for t in range(T + 1)]
        grads = lambda states: np.stack([tables[t][states[t]] for t in range(T + 1)])
    else:  # the continuous cost x'Mx is parameter-free
        grads = lambda states: np.zeros((T + 1, problem.n_params))
    out = np.zeros((len(batch.rollouts), problem.n_params))
    for i, (r, scores) in enumerate(zip(batch.rollouts, rollout_scores(problem, batch))):
        assert r.n_steps == T
        out[i] = scores.sum(axis=0) * float(r.costs.sum()) + grads(r.states).sum(axis=0)
    return out


def _assert_close(a, b):
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)


def _gaussian_timevarying():
    chain = GaussianLinearChain(0.5 * np.eye(2), np.eye(2), np.eye(2))
    cost = StateQuadraticCost(np.eye(2), n_params=chain.n_params)
    init = GaussianInitial(np.zeros(2), np.eye(2))
    return Problem(chain, cost, TimeVarying(3), init)


class TestPathDerivatives:
    def test_path_gradient_matches_estimate_route(self):
        """Whole-path likelihood-ratio gradient agrees with the exact
        gradient within sampling error."""
        prob = random_timevarying_problem(horizon=2, n_states=3, seed=4)
        theta = 0.1 * np.random.default_rng(4).normal(size=prob.n_params)
        exact = exact_gradient(prob, theta)
        batch = generate_rollouts(prob, theta, 4000, seed=31)
        est = path_gradient(prob, theta, batch)
        assert np.all(np.abs(est.mean - exact) <= 5 * est.stderr + 1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_timevarying_problem(horizon=2, n_states=3, seed=4),
            lambda: random_timevarying_problem(horizon=7, n_states=5, seed=2),
            lambda: random_timevarying_problem(horizon=1, n_states=6, seed=9),
            _gaussian_timevarying,
        ],
        ids=["h2n3", "h7n5", "h1n6", "gaussian"],
    )
    def test_path_gradient_matches_the_per_rollout_loop(self, make, tmp_path):
        prob = make()
        theta = 0.3 * np.random.default_rng(1).normal(size=prob.n_params)
        batch = generate_rollouts(prob, theta, 60, seed=5)
        est = path_gradient(prob, theta, batch)
        ref = reference_path_gradient(prob, theta, batch)
        _assert_close(est.diagnostics["per_rollout"], ref)
        _assert_close(est.mean, ref.mean(axis=0))
        _assert_close(est.stderr, ref.std(axis=0, ddof=1) / np.sqrt(len(ref)))
        if prob.chain.tabular:
            # a reloaded batch takes the same flat route
            batch.to_jsonl(tmp_path / "b.jsonl")
            back = batch_from_jsonl(prob, tmp_path / "b.jsonl")
            np.testing.assert_array_equal(
                path_gradient(prob, theta, back).diagnostics["per_rollout"],
                est.diagnostics["per_rollout"],
            )

    def test_path_gradient_refuses_a_short_rollout(self, tmp_path):
        prob = random_timevarying_problem(horizon=3, n_states=4, seed=0)
        cut = lambda doc: {**doc, "states": doc["states"][:-1], "costs": doc["costs"][:-1]}
        path = _corrupt_dump(prob, tmp_path, 3, None, cut)
        with pytest.raises(InvalidStructureError, match="full-horizon"):
            path_gradient(prob, np.zeros(prob.n_params), batch_from_jsonl(prob, path))

    def test_path_hessian_symmetric_and_consistent(self):
        prob = random_timevarying_problem(horizon=2, n_states=3, seed=4)
        theta = 0.1 * np.random.default_rng(4).normal(size=prob.n_params)
        batch = generate_rollouts(prob, theta, 6000, seed=32)
        est = path_hessian(prob, theta, batch)
        np.testing.assert_allclose(est.mean, est.mean.T, atol=1e-12)
        H = fd_hessian_oracle(prob, theta)
        assert np.all(np.abs(est.mean - H) <= 6 * est.stderr + 1e-8)

    @pytest.mark.filterwarnings("error")
    def test_one_rollout_has_infinite_stderr_and_no_warning(self):
        """One rollout has no sample spread: both path estimates return an
        infinite stderr, as estimate_gradient does, and numpy's
        degrees-of-freedom warning is never raised."""
        prob = random_timevarying_problem(horizon=3, n_states=3, seed=0)
        theta = 0.2 * np.random.default_rng(0).normal(size=prob.n_params)
        batch = generate_rollouts(prob, theta, 1, seed=0)
        for estimate in (path_gradient, path_hessian, estimate_gradient):
            est = estimate(prob, theta, batch)
            assert est.n_rollouts == 1
            assert est.stderr.shape == est.mean.shape
            assert np.all(np.isinf(est.stderr)) and np.all(np.isfinite(est.mean))

    def test_path_hessian_refuses_a_continuous_chain(self):
        prob = _gaussian_timevarying()
        theta = np.zeros(prob.n_params)
        batch = generate_rollouts(prob, theta, 5, seed=0)
        with pytest.raises(CapabilityError, match="tabular"):
            path_hessian(prob, theta, batch)


# ---------------------------------------------------------------------------
# Batches with no kept rollout or with one
# ---------------------------------------------------------------------------


BATCH_ROUTES = {
    "estimate": estimate_gradient, "fisher": fisher_matrix, "surrogate": SampledSurrogate
}


def _softmax_at_zero():
    prob = random_softmax_problem(EpisodicDiscounted(0.9), n_states=4, seed=0)
    return prob, np.zeros(prob.n_params)


@pytest.mark.parametrize(
    "make", [_softmax_at_zero, lambda: gaussian_linear_problem(2, seed=0)],
    ids=["softmax", "gaussian"],
)
@pytest.mark.parametrize("route", sorted(BATCH_ROUTES))
def test_a_batch_with_no_kept_rollout_gets_one_error(route, make):
    """Four rollouts drawn and all diverged: each estimator refuses the
    batch with the InvalidStructureError of RolloutBatch.steps."""
    prob, theta = make()
    batch = batch_from_arrays([], [], [], theta, 0, "horizon", 5, n_diverged=4)
    with pytest.raises(InvalidStructureError, match="kept no rollout: 4 diverged"):
        BATCH_ROUTES[route](prob, theta, batch)


@pytest.mark.filterwarnings("error")
def test_a_one_rollout_batch_has_infinite_uncertainty_everywhere(tmp_path):
    """The sampled Fisher's stderr and the J_stderr column of a sampled
    run's curve.csv are infinite for one rollout, as the gradient
    estimate's stderr is, and no warning is raised on the way."""
    prob, theta = gaussian_linear_problem(2, seed=0)
    batch = generate_rollouts(prob, theta, 1, horizon_cap=20, seed=3)
    fisher = fisher_matrix(prob, theta, batch)
    assert fisher.stderr.shape == (2, 2) and np.all(np.isinf(fisher.stderr))
    assert np.all(np.isinf(estimate_gradient(prob, theta, batch).stderr))
    config = {
        "problem": {"kind": "gaussian-linear"},
        "algorithm": {"method": "alg1-sgd", "iterations": 1, "batch_size": 1,
                      "baseline": False, "step_size": 0.01},
    }
    run_optimize(parse_config(json.dumps(config)), out_dir=tmp_path)
    rows = [line.split(",") for line in (tmp_path / "curve.csv").read_text().split()]
    assert rows[0][-1] == "J_stderr" and [row[-1] for row in rows[1:]] == ["inf", "inf"]
