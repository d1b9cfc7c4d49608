"""The finite-difference oracle's stacked probes against the per-probe loop.

fd_gradient_oracle solves its probes in stacked chunks; fd_gradient of the
scalar objective solves them one at a time and is the reference here. The
stacked objective must agree with the single one probe by probe, and a
failing probe must be reported with the coordinate the loop would name.
"""

import dataclasses
import json

import numpy as np
import pytest

from chainopt import (
    CostModel,
    InvalidStructureError,
    ProbeError,
    QuadraticCost,
    SoftmaxChain,
    exact,
)
from chainopt.exact import fd_gradient, fd_gradient_oracle, objective
from chainopt.harness import build_problem, parse_config


def built(**problem):
    config = parse_config(json.dumps({"problem": problem, "algorithm": {"method": "exact-gd"}}))
    return build_problem(config.problem)


def start(b, seed=0):
    """theta0 moved off its zeros, so that probe steps differ by coordinate."""
    rng = np.random.default_rng(seed)
    return b.theta0 + 0.2 * rng.normal(size=b.theta0.shape)


PROBLEMS = {
    "softmax-first-exit": dict(kind="softmax-tabular", setting="first-exit", n_states=12, seed=3),
    "softmax-discounted": dict(kind="softmax-tabular", setting="episodic", n_states=12, seed=4),
    "softmax-average": dict(kind="softmax-tabular", setting="average", n_states=12, seed=5),
    "smdp-discounted": dict(kind="smdp-random", setting="episodic", n_states=8, seed=6),
    "smdp-average": dict(kind="smdp-random", setting="average", n_states=8, seed=7),
    "timevarying": dict(kind="timevarying-tabular", setting="time-varying", n_states=6,
                        horizon=5, seed=8),
    "gridworld-lmdp": dict(kind="gridworld-lmdp", setting="first-exit", size=4, seed=9),
    # 256 KiB of P holds 20 probes at n = 40, so the probes span many chunks
    "softmax-n40": dict(kind="softmax-tabular", setting="first-exit", n_states=40, seed=10),
}


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_stacked_oracle_matches_the_per_probe_loop(name):
    b = built(**PROBLEMS[name])
    problem, theta = b.problem, start(b)
    reference = fd_gradient(lambda th: objective(problem, th), theta)
    stacked = fd_gradient_oracle(problem, theta)
    assert np.max(np.abs(stacked - reference)) <= 1e-8 * np.max(np.abs(reference))
    if name == "softmax-n40":
        n = problem.chain.n_states
        assert exact._PROBE_STACK_BYTES // (8 * n * n) < 2 * problem.n_params


@pytest.mark.parametrize("budget", ["one probe", "default", "all probes"])
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_oracle_matches_the_per_probe_loop_at_every_chunk_budget(name, budget, monkeypatch):
    """One probe per chunk, the default budget, and every probe in one chunk
    give the loop's gradient to the same bound; not bitwise, since stacked
    table products round differently."""
    b = built(**PROBLEMS[name])
    problem, theta = b.problem, start(b)
    bytes_for = {"one probe": 1, "default": exact._PROBE_STACK_BYTES, "all probes": 2**40}
    monkeypatch.setattr(exact, "_PROBE_STACK_BYTES", bytes_for[budget])
    reference = fd_gradient(lambda th: objective(problem, th), theta)
    stacked = fd_gradient_oracle(problem, theta)
    assert np.max(np.abs(stacked - reference)) <= 1e-8 * np.max(np.abs(reference))


@pytest.mark.parametrize("probes", [None, 4])
def test_time_varying_chunks_count_every_stage_against_the_budget(probes, monkeypatch):
    """No stacked P, stage axis included, exceeds the budget: the default
    one, and one that holds four probes of all stages."""
    b = built(**PROBLEMS["timevarying"])
    problem, n = b.problem, b.problem.chain.n_states
    if probes:
        budget = probes * 8 * n * n * problem.setting.horizon
        monkeypatch.setattr(exact, "_PROBE_STACK_BYTES", budget)
    cls = type(problem.chain)
    sizes = []

    def recorded(self, theta, t=0, original=cls.transition_matrix):
        P = original(self, theta, t)
        sizes.append(P.nbytes)
        return P

    monkeypatch.setattr(cls, "transition_matrix", recorded)
    fd_gradient_oracle(problem, start(b))
    assert max(sizes) <= exact._PROBE_STACK_BYTES


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_stacked_objective_is_the_single_objective_at_each_row(name):
    b = built(**PROBLEMS[name])
    rng = np.random.default_rng(1)
    thetas = start(b) + 0.1 * rng.normal(size=(4, b.theta0.size))
    J = objective(b.problem, thetas)
    assert J.shape == (4,)
    single = [objective(b.problem, th) for th in thetas]
    np.testing.assert_allclose(J, single, rtol=1e-12, atol=0.0)


class _NanAbove(CostModel):
    """The wrapped cost table, NaN in each table whose theta[i] rises above
    theta0[i]."""

    def __init__(self, base, i, theta0):
        self.base, self.i, self.theta0 = base, i, theta0
        self.n_params, self.n_states = base.n_params, base.n_states

    def value_table(self, theta, t: int = 0):
        L = self.base.value_table(theta, t)
        return np.where((theta[..., self.i] > self.theta0[self.i])[..., None], np.nan, L)


def _probe_failure(monkeypatch, b, i):
    """The ProbeError of the oracle on b's problem with a cost that fails
    above theta0[i], and the shapes of theta that objective was called at."""
    theta0 = start(b)
    problem = dataclasses.replace(b.problem, cost=_NanAbove(b.problem.cost, i, theta0))
    shapes = []
    original = exact.objective
    monkeypatch.setattr(
        exact, "objective", lambda pr, th: shapes.append(np.shape(th)) or original(pr, th)
    )
    with pytest.raises(ProbeError) as info:
        fd_gradient_oracle(problem, theta0)
    return info.value, shapes


@pytest.mark.parametrize("name, cause", [
    ("softmax-n40", "probe failed at coordinate {i}: cost table contains non-finite entries"),
    ("timevarying", "probe failed at coordinate {i}: cost table contains non-finite entries"),
])
def test_probe_error_names_the_coordinate_through_the_stacked_path(monkeypatch, name, cause):
    """A probe whose cost table is NaN is refused by the cost check of the
    first-exit solve and of each stage of the time-varying recursion, and
    is reported at its coordinate, after the stacked solves that passed."""
    b = built(**PROBLEMS[name])
    p, n = b.theta0.size, b.problem.chain.n_states
    size = exact._PROBE_STACK_BYTES // (8 * n * n * getattr(b.problem.setting, "horizon", 1))
    i = min(p - 1, size + 2)  # past the first chunk, where there are several
    error, shapes = _probe_failure(monkeypatch, b, i)
    assert error.coordinate == i
    assert str(error) == "objective " + cause.format(i=i)
    # one stacked call per chunk up to the failing one, then its probes one
    # at a time up to the failing up probe at row 2i
    chunk = 2 * i // size
    stacked = [(min(size, 2 * p - c * size), p) for c in range(chunk + 1)]
    assert shapes == stacked + [(p,)] * (2 * i - chunk * size + 1)


def test_oracle_builds_each_chunk_from_one_call_to_each_table(monkeypatch):
    """Every probe of a chunk comes from one transition_matrix call and one
    value_table call at the chunk's stack of theta."""
    b = built(**PROBLEMS["softmax-n40"])
    p, n = b.theta0.size, b.problem.chain.n_states
    shapes = {"transition_matrix": [], "value_table": []}
    for cls, name in ((SoftmaxChain, "transition_matrix"), (QuadraticCost, "value_table")):
        def counted(self, theta, t=0, original=getattr(cls, name), name=name):
            shapes[name].append(np.shape(theta))
            return original(self, theta, t)

        monkeypatch.setattr(cls, name, counted)
    fd_gradient_oracle(b.problem, start(b))
    size = exact._PROBE_STACK_BYTES // (8 * n * n)
    chunks = [(min(size, 2 * p - row), p) for row in range(0, 2 * p, size)]
    assert shapes == {"transition_matrix": chunks, "value_table": chunks}


class _ScaledTable(CostModel):
    """The wrapped cost's table at theta0, scaled by 1 + sum(theta**2) over
    the whole array: at a stack of theta it gives one table, not one per row."""

    def __init__(self, base, theta0):
        self.base, self.theta0 = base, theta0
        self.n_params, self.n_states = base.n_params, base.n_states

    def value_table(self, theta, t: int = 0):
        return (1.0 + np.sum(theta**2)) * self.base.value_table(self.theta0, t)


@pytest.mark.parametrize("name", ["softmax-discounted", "timevarying"])
def test_a_table_that_ignores_the_stack_is_refused_and_reprobed(name):
    b = built(**PROBLEMS[name])
    theta = start(b)
    problem = dataclasses.replace(b.problem, cost=_ScaledTable(b.problem.cost, b.theta0))
    n = problem.chain.n_states
    with pytest.raises(InvalidStructureError) as info:
        objective(problem, np.stack([theta, theta]))
    assert str(info.value) == (
        f"_ScaledTable.value_table returned shape ({n},), expected (2, {n})"
    )
    reference = fd_gradient(lambda th: objective(problem, th), theta)
    np.testing.assert_array_equal(fd_gradient_oracle(problem, theta), reference)
