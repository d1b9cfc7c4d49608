"""Ill-posed arguments of public functions get a typed error naming them.

One table of (call, ill-posed value, message): each call must raise an
InvalidStructureError whose message names the argument, and must not
first warn, or return a NaN or a biased result.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainopt import (
    EpisodicDiscounted,
    GaussianInitial,
    GaussianLinearChain,
    InvalidStructureError,
    Problem,
    StateQuadraticCost,
)
from chainopt.exact import fd_gradient, fd_gradient_oracle, fd_hessian, fd_hessian_oracle
from chainopt.model import check_number
from chainopt.problems import random_softmax_problem
from chainopt.surrogate import fisher_matrix, natural_gradient

PROBLEM = random_softmax_problem(EpisodicDiscounted(0.9), n_states=4, seed=2)
THETA = 0.1 * np.arange(PROBLEM.n_params)


def _objective(th):
    return float(np.sum(np.sin(th)))


def _natural(damping):
    F = fisher_matrix(PROBLEM, THETA)
    return natural_gradient(np.ones(PROBLEM.n_params), F, damping)


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
}

STEP = "h must be a finite positive number"
DAMPING = "damping must be a finite non-negative number"
CASES = [
    *[(call, h, STEP)
      for call in ("fd_gradient", "fd_hessian", "fd_gradient_oracle", "fd_hessian_oracle")
      for h in (0.0, -1.0, math.nan, math.inf)],
    *[("natural_gradient", damping, DAMPING) for damping in (-1.0, math.nan, math.inf)],
    ("Problem", 3, "start law has dimension 3, the chain's states 2"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, value, message", CASES)
def test_ill_posed_argument_is_refused_by_name(call, value, message):
    with pytest.raises(InvalidStructureError) as info:
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
