"""Ill-posed arguments of public functions get a typed error naming them.

One table of (call, ill-posed value, message): each call must raise an
InvalidStructureError, or the error ERRORS names for it, whose message
names the argument, and must not first warn, or return a NaN or a biased
result.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainopt import (
    CapabilityError,
    EpisodicDiscounted,
    FirstExit,
    GaussianInitial,
    GaussianLinearChain,
    InvalidStructureError,
    Problem,
    SoftmaxChain,
    StateQuadraticCost,
    estimate_gradient,
    fit_value_approx,
    generate_rollouts,
    mdp_policy_evaluation,
)
from chainopt.exact import fd_gradient, fd_gradient_oracle, fd_hessian, fd_hessian_oracle
from chainopt.model import check_number
from chainopt.problems import gaussian_linear_problem, random_mdp, random_softmax_problem
from chainopt.surrogate import chain_iteration_step, fisher_matrix, natural_gradient

PROBLEM = random_softmax_problem(EpisodicDiscounted(0.9), n_states=4, seed=2)
THETA = 0.1 * np.arange(PROBLEM.n_params)
BATCH = generate_rollouts(PROBLEM, THETA, 4, 10)
MDP, POLICY, MDP_THETA = random_mdp(4, 2, 0)
# at gamma = 0 a geometric batch stops every rollout before its first step
NO_STEP_PROBLEMS = [
    random_softmax_problem(EpisodicDiscounted(0.0), 6, seed=1),
    gaussian_linear_problem(2, seed=0, gamma=0.0)[0],
]


def _objective(th):
    return float(np.sum(np.sin(th)))


def _natural(damping):
    F = fisher_matrix(PROBLEM, THETA)
    return natural_gradient(np.ones(PROBLEM.n_params), F, damping)


def _geometric_fisher(problem):
    theta = np.zeros(problem.n_params)
    return fisher_matrix(problem, theta, generate_rollouts(problem, theta, 4, 10))


def _gaussian_problem(dim):
    chain = GaussianLinearChain(0.5 * np.eye(2), np.eye(2), np.eye(2))
    cost = StateQuadraticCost(np.eye(2), n_params=chain.n_params)
    init = GaussianInitial(np.zeros(dim), np.eye(dim))
    return Problem(chain, cost, EpisodicDiscounted(0.9), init)


CALLS = {
    "fd_gradient": lambda h: fd_gradient(_objective, THETA, h),
    "fd_hessian": lambda h: fd_hessian(_objective, THETA, h),
    "fd_gradient_oracle": lambda h: fd_gradient_oracle(PROBLEM, THETA, h),
    "fd_hessian_oracle": lambda h: fd_hessian_oracle(PROBLEM, THETA, h),
    "natural_gradient": _natural,
    "Problem": _gaussian_problem,
    "n_rollouts": lambda n: generate_rollouts(PROBLEM, THETA, n, 10),
    "horizon_cap": lambda cap: generate_rollouts(PROBLEM, THETA, 10, cap),
    "baseline": lambda fill: estimate_gradient(
        PROBLEM, THETA, BATCH, np.full(PROBLEM.chain.n_states, fill)
    ),
    "mdp_policy_evaluation": lambda setting: mdp_policy_evaluation(
        MDP.transitions, MDP.costs, POLICY.table(MDP_THETA), setting
    ),
    "fisher_matrix": _geometric_fisher,
    "ridge": lambda ridge: fit_value_approx(PROBLEM, BATCH, np.eye(4), ridge),
    "features": lambda fill: fit_value_approx(PROBLEM, BATCH, np.full((4, 2), fill), 1.0),
    "tol": lambda tol: chain_iteration_step(PROBLEM, THETA, tol=tol),
    "max_inner": lambda n: chain_iteration_step(PROBLEM, THETA, max_inner=n),
    # state 0 lists successors 0, 1 and 3 of 0..3
    "score_sums": lambda y: PROBLEM.chain.score_sums(THETA, [1, 0], [2, y], [1.0, 1.0], [0, 0], 1),
    "support": lambda row: SoftmaxChain(3, {0: row, 1: [0], 2: [0, 1]}),
}
# a setting that a function does not cover is a capability it lacks
ERRORS = {"mdp_policy_evaluation": CapabilityError}

STEP = "h must be a finite positive number"
DAMPING = "damping must be a finite non-negative number"
CASES = [
    *[(call, h, STEP)
      for call in ("fd_gradient", "fd_hessian", "fd_gradient_oracle", "fd_hessian_oracle")
      for h in (0.0, -1.0, math.nan, math.inf)],
    *[("natural_gradient", damping, DAMPING) for damping in (-1.0, math.nan, math.inf)],
    ("Problem", 3, "start law has dimension 3, the chain's states 2"),
    *[(count, value, f"{count} must be an integer >= 1")
      for count in ("n_rollouts", "horizon_cap") for value in (2.5, 0, True, "10")],
    *[("baseline", fill, "baseline table contains non-finite entries")
      for fill in (math.nan, math.inf)],
    ("mdp_policy_evaluation", FirstExit(), "mdp_policy_evaluation cannot evaluate FirstExit"),
    *[("fisher_matrix", problem, "gamma is 0") for problem in NO_STEP_PROBLEMS],
    *[("ridge", ridge, "ridge must be a finite non-negative number")
      for ridge in (math.nan, -1.0, math.inf)],
    *[("features", fill, "features contain non-finite entries") for fill in (math.nan, math.inf)],
    *[("tol", tol, "tol must be a finite positive number") for tol in (math.nan, -1.0, math.inf)],
    *[("max_inner", n, "max_inner must be an integer >= 1") for n in (0, -1, 2.5)],
    *[("score_sums", y, "a transition lies outside the support") for y in (2, 4, -1)],
    *[("support", row, "state 0 lists a successor twice") for row in ([1, 1], [2, 0, 2])],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, value, message", CASES)
def test_ill_posed_argument_is_refused_by_name(call, value, message):
    with pytest.raises(ERRORS.get(call, InvalidStructureError)) as info:
        CALLS[call](value)
    assert str(info.value).startswith(message)


@given(st.one_of(st.floats(), st.integers(-3, 3), st.booleans()), st.booleans())
def test_check_number_accepts_exactly_the_finite_numbers_in_range(value, zero_ok):
    in_range = value >= 0 if zero_ok else value > 0
    if not isinstance(value, bool) and math.isfinite(value) and in_range:
        assert check_number("x", value, zero_ok=zero_ok) == float(value)
    else:
        with pytest.raises(InvalidStructureError, match="^x must be a finite"):
            check_number("x", value, zero_ok=zero_ok)
