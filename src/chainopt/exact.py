"""Exact linear-algebra machinery for tabular problems.

Value functions come from direct linear solves of the fixed-point
conditions; visitation weights come from the transposed systems. Analytic
objective gradients are assembled from those tables, and centered
finite-difference probes of the objective serve as the reference that
every analytic derivative in the package is checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CapabilityError,
    ErgodicityError,
    InvalidStructureError,
    ProbeError,
    ReachabilityError,
)
from .model import (
    Average,
    EpisodicDiscounted,
    FirstExit,
    Problem,
    TabularInitial,
    TimeVarying,
    check_params,
)

_RESIDUAL_TOL = 1e-10
# Supports whose verdict is remembered; a softmax chain keeps one at every theta.
_SUPPORTS_CACHED = 64


def _require_tabular(problem: Problem):
    if not problem.chain.tabular:
        raise CapabilityError("exact solvers require a tabular chain")


def _check_terminal_costs(L: np.ndarray, chain):
    for s in chain.terminal:
        if abs(L[s]) > 1e-12:
            raise InvalidStructureError(
                f"terminal state {s} must have zero cost, found {L[s]}"
            )


def reach_levels(A: np.ndarray, start: np.ndarray) -> np.ndarray:
    """BFS level of each state from the start mask along edges A[x, y]; -1 if unreached."""
    level = np.full(A.shape[0], -1)
    frontier, k = start, 0
    while frontier.any():
        level[frontier] = k
        frontier = A[frontier].any(axis=0) & (level < 0)
        k += 1
    return level


@functools.lru_cache(maxsize=_SUPPORTS_CACHED)
def _support_fault(n: int, pattern: bytes, terminal: Optional[bytes]) -> Optional[str]:
    """Fault of the graph with edges packbits(P > 0), or None: with a terminal mask, a
    state that never reaches it; without, reducibility or a period, the gcd of
    level(x) + 1 - level(y) on edges x -> y."""
    A = np.unpackbits(np.frombuffer(pattern, np.uint8), count=n * n).reshape(n, n).view(bool)
    if terminal is not None:
        unreached = reach_levels(A.T, np.frombuffer(terminal, bool)) < 0
        return "a state does not reach the terminal set" if unreached.any() else None
    start = np.arange(n) == 0
    level = reach_levels(A, start)
    if np.any(level < 0) or np.any(reach_levels(A.T, start) < 0):
        return "chain is reducible: stationary distribution is not unique or not positive"
    x, y = np.nonzero(A)
    return "chain is periodic" if np.gcd.reduce(level[x] + 1 - level[y]) != 1 else None


def _fault(P: np.ndarray, terminal: Optional[np.ndarray] = None) -> Optional[str]:
    """Cached verdict for the nonzero pattern of this P: entries can underflow to 0."""
    key = None if terminal is None else terminal.tobytes()
    return _support_fault(P.shape[0], np.packbits(P > 0).tobytes(), key)


def _solve(A: np.ndarray, b: np.ndarray, error: Exception) -> np.ndarray:
    """np.linalg.solve, raising error where A is singular in floating point."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise error from None


def _live_block(P: np.ndarray, chain, message: str):
    """Non-terminal mask and the matching block of P, after checking on the
    support graph that the terminal set is reached from every state."""
    live = np.ones(P.shape[0], dtype=bool)
    live[list(chain.terminal)] = False
    if _fault(P, ~live):
        raise ReachabilityError(message)
    return live, P[np.ix_(live, live)]


# ---------------------------------------------------------------------------
# Build and solve steps shared by the solvers
# ---------------------------------------------------------------------------


def _setup(problem: Problem, theta, settings, message: str) -> np.ndarray:
    _require_tabular(problem)
    theta = check_params(theta, problem.n_params)
    if not isinstance(problem.setting, settings):
        raise InvalidStructureError(message)
    return theta


def _build(problem: Problem, theta: np.ndarray):
    """Transition matrix and step-cost table at theta."""
    P = problem.chain.transition_matrix(theta)
    if not np.all(np.isfinite(P)):
        raise InvalidStructureError("transition matrix contains non-finite entries")
    L = problem.cost.value_table(theta)
    if not np.all(np.isfinite(L)):
        raise InvalidStructureError("cost table contains non-finite entries")
    return P, L


def _episodic_values(problem: Problem, P: np.ndarray, L: np.ndarray):
    """V = L + gamma P V, with the first-exit reachability check."""
    chain, gamma = problem.chain, problem.gamma
    n = chain.n_states
    if isinstance(problem.setting, FirstExit):
        _check_terminal_costs(L, chain)
        message = "terminal set is not reached with probability 1 from every state"
        live, Pnn = _live_block(P, chain, message)
        V = np.zeros(n)
        V[live] = _solve(np.eye(Pnn.shape[0]) - Pnn, L[live], ReachabilityError(message))
    else:
        V = np.linalg.solve(np.eye(n) - gamma * P, L)
    residual = float(np.max(np.abs(V - (L + gamma * P @ V))))
    # written so that a NaN residual fails too
    if not residual <= _RESIDUAL_TOL * max(1.0, np.max(np.abs(V))):
        raise InvalidStructureError(f"value solve residual {residual} too large")
    return V, residual


def _average_values(P: np.ndarray, L: np.ndarray):
    """Stationary density d, average cost j and differential values V.

    With d'M = 1' and M u = L for M = I - P + 1 1', 1'u = d'L = j and
    u + j 1 = L + P u, so V = u - (d'u) 1 solves the value equations with
    E_d[V] = (d'u)(1 - 1'd), which stationary_from_matrix keeps near 0."""
    d, u = stationary_from_matrix(P, costs=L)
    j = float(d @ L)
    V = u - d @ u
    residual = float(np.max(np.abs(V + j - (L + P @ V))))
    if not residual <= _RESIDUAL_TOL * max(1.0, np.max(np.abs(V))):
        raise InvalidStructureError(f"average solve residual {residual} too large")
    return d, j, V, residual


def _occupancy(problem: Problem, P: np.ndarray) -> np.ndarray:
    """rho = p0 + gamma P~' rho, with P~ the matrix P without terminal rows."""
    chain = problem.chain
    P = P.copy()
    for s in chain.terminal:
        P[s, :] = 0.0
    p0 = problem.init.weights
    error = ReachabilityError("occupancy diverges: terminal set not always reached")
    rho = _solve(np.eye(chain.n_states) - problem.gamma * P.T, p0, error)
    resid = float(np.max(np.abs(rho - (p0 + problem.gamma * P.T @ rho))))
    if not resid <= _RESIDUAL_TOL * max(1.0, np.max(np.abs(rho))):
        raise InvalidStructureError(f"occupancy residual {resid} too large")
    return rho


# ---------------------------------------------------------------------------
# One solve per theta
# ---------------------------------------------------------------------------


@dataclass
class Solution:
    """Exact solve of the autonomous chain P(theta) with cost L(theta).

    theta is the parameter vector it was solved at, values are the values
    (differential values in the average setting), gamma the discount on
    the chain term (1 outside the discounted setting), J the objective and
    residual the max residual of the value equations. weights are the
    visitation weights the gradient, surrogate and Fisher matrix contract
    with: the stationary density in the average setting, otherwise the
    discounted occupancy, solved on first read so that the objective alone
    never pays for it.
    """

    problem: Problem
    theta: np.ndarray
    P: np.ndarray
    L: np.ndarray
    values: np.ndarray
    gamma: float
    J: float
    residual: float
    _weights: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = _occupancy(self.problem, self.P)
        return self._weights


def solve(problem: Problem, theta) -> Solution:
    """Build P and L once and solve the discounted, first-exit or average
    problem at theta. This is the one place that pairs visitation weights
    and values with a setting."""
    _require_tabular(problem)
    theta = check_params(theta, problem.n_params)
    setting = problem.setting
    if isinstance(setting, TimeVarying):
        raise CapabilityError(
            "the exact solve covers the stationary settings; finite-horizon "
            "problems use the stage recursion"
        )
    average = isinstance(setting, Average)
    if not average and not isinstance(problem.init, TabularInitial):
        raise InvalidStructureError("the exact solve needs a tabular start law")
    P, L = _build(problem, theta)
    if average:
        d, j, V, residual = _average_values(P, L)
        return Solution(problem, theta, P, L, V, problem.gamma, j, residual, d)
    V, residual = _episodic_values(problem, P, L)
    J = float(problem.init.weights @ V)
    return Solution(problem, theta, P, L, V, problem.gamma, J, residual)


def solution_at(problem: Problem, theta, solution: Optional[Solution] = None) -> Solution:
    """solve(problem, theta), or the given solution after checking that it
    was computed for this problem at this theta."""
    if solution is None:
        return solve(problem, theta)
    if solution.problem is not problem or not np.array_equal(solution.theta, theta):
        raise InvalidStructureError("the given solution belongs to another problem or theta")
    return solution


# ---------------------------------------------------------------------------
# Value solvers
# ---------------------------------------------------------------------------


@dataclass
class ValueTable:
    """Per-state values with the max residual of the defining equations."""

    values: np.ndarray
    residual: float


@dataclass
class AverageCost:
    """Long-run average cost and differential values normalized to E_d[V] = 0."""

    j: float
    values: np.ndarray
    residual: float


_EPISODIC = (EpisodicDiscounted, FirstExit)


def solve_value_episodic(problem: Problem, theta) -> ValueTable:
    """Solve V = L + gamma P V for discounted or first-exit problems."""
    theta = _setup(
        problem, theta, _EPISODIC, "episodic solver needs a discounted or first-exit setting"
    )
    V, residual = _episodic_values(problem, *_build(problem, theta))
    return ValueTable(values=V, residual=residual)


def stationary_density(problem: Problem, theta) -> np.ndarray:
    """Stationary distribution of the chain; errors if not ergodic."""
    _require_tabular(problem)
    theta = check_params(theta, problem.n_params)
    P = problem.chain.transition_matrix(theta)
    return stationary_from_matrix(P)


def stationary_from_matrix(P: np.ndarray, *, costs: Optional[np.ndarray] = None):
    """Stationary distribution d of a row-stochastic matrix: irreducibility
    and aperiodicity are decided on the support graph of P, once per support,
    and d solves d'M = 1' for M = I - P + 1 1'. Given a cost table, returns
    (d, u) with M u = costs from the same stacked solve."""
    fault = _fault(P)
    if fault:
        raise ErgodicityError(fault)
    n = P.shape[0]
    M = np.eye(n) - P + 1.0
    rhs = np.stack([np.ones(n), np.zeros(n) if costs is None else costs])[..., None]
    error = ErgodicityError("chain is reducible: its couplings vanish in floating point")
    d, u = _solve(np.stack([M.T, M]), rhs, error)[..., 0]
    if not np.min(d) > 1e-12:
        raise ErgodicityError("stationary distribution is not fully supported")
    # 1'd = 1 - d'(1 - P 1)/n, so a gap above the models' row-sum tolerance is a fault
    if not abs(1.0 - d.sum()) <= 1e-9:
        raise InvalidStructureError(f"stationary density sums to {d.sum()}, not 1")
    resid = float(np.max(np.abs(P.T @ d - d)))
    if not resid <= 1e-9:
        raise ErgodicityError(f"stationary solve residual {resid} too large")
    return d if costs is None else (d, u)


def solve_value_average(problem: Problem, theta) -> AverageCost:
    """Average cost J and differential values via the fundamental matrix."""
    theta = _setup(problem, theta, Average, "average solver needs an average setting")
    _, j, V, residual = _average_values(*_build(problem, theta))
    return AverageCost(j=j, values=V, residual=residual)


def solve_value_timevarying(problem: Problem, theta) -> np.ndarray:
    """Backward recursion V_t = L_t + P_t V_{t+1}; returns (T+1, n_states)."""
    theta = _setup(problem, theta, TimeVarying, "time-varying solver needs a time-varying setting")
    chain, cost = problem.chain, problem.cost
    T = problem.setting.horizon
    n = chain.n_states
    V = np.zeros((T + 1, n))
    V[T] = cost.value_table(theta, T)
    for t in range(T - 1, -1, -1):
        P = chain.transition_matrix(theta, t)
        V[t] = cost.value_table(theta, t) + P @ V[t + 1]
    return V


# ---------------------------------------------------------------------------
# Visitation weights
# ---------------------------------------------------------------------------


def discounted_occupancy(problem: Problem, theta) -> np.ndarray:
    """Discounted visitation weights rho = sum_t gamma^t Pr(x_t = .).

    The sum starts at t = 0 so the start law itself is counted. Terminal
    states are counted once on entry: their rows are removed from the
    propagation so absorbed mass stops circulating. Satisfies
    rho = p0 + gamma P~' rho with P~ the propagation matrix.
    """
    theta = _setup(
        problem, theta, _EPISODIC, "occupancy is defined for discounted or first-exit settings"
    )
    if not isinstance(problem.init, TabularInitial):
        raise InvalidStructureError("occupancy needs a tabular start law")
    chain = problem.chain
    P = chain.transition_matrix(theta)
    if isinstance(problem.setting, FirstExit):
        _live_block(P, chain, "occupancy diverges: terminal set not always reached")
    return _occupancy(problem, P)


# ---------------------------------------------------------------------------
# Objective and analytic gradient
# ---------------------------------------------------------------------------


def objective(problem: Problem, theta) -> float:
    """Expected accumulated cost under the setting's semantics."""
    if isinstance(problem.setting, TimeVarying):
        V = solve_value_timevarying(problem, theta)
        return float(problem.init.weights @ V[0])
    return solve(problem, theta).J


def exact_gradient(problem: Problem, theta, solution: Optional[Solution] = None) -> np.ndarray:
    """Analytic objective gradient assembled from visitation weights and values.

    Uses the expectation form: the chain term is sum_{x,y} w(x) V(y)
    dP(y|x)/dtheta, contracted by the chain's row_vjp, with w the solve's
    visitation weights, or stage densities in the time-varying setting.
    A solution computed at the same theta may be passed in to skip the
    solve.
    """
    _require_tabular(problem)
    theta = check_params(theta, problem.n_params)
    if not problem.chain.differentiable or not problem.cost.differentiable:
        raise CapabilityError("exact gradient needs differentiable chain and cost")
    chain, cost = problem.chain, problem.cost

    if not isinstance(problem.setting, TimeVarying):
        sol = solution_at(problem, theta, solution)
        g = sol.weights @ cost.grad_table(theta)
        g += sol.gamma * chain.row_vjp(theta, np.outer(sol.weights, sol.values))
        return g

    T = problem.setting.horizon
    V = solve_value_timevarying(problem, theta)
    p = problem.init.weights.copy()
    g = np.zeros(problem.n_params)
    for t in range(T + 1):
        g += p @ cost.grad_table(theta, t)
        if t < T:
            g += chain.row_vjp(theta, np.outer(p, V[t + 1]), t)
            p = chain.transition_matrix(theta, t).T @ p
    return g


def exact_gradient_bottleneck(problem: Problem, theta) -> np.ndarray:
    """Gradient routed through a low-dimensional policy output eta = mu(x, theta).

    Requires chain and cost to expose the bottleneck interface; equals
    exact_gradient whenever both apply, by the chain rule.
    """
    _require_tabular(problem)
    theta = check_params(theta, problem.n_params)
    chain, cost = problem.chain, problem.cost
    if not chain.has_bottleneck or not cost.has_bottleneck:
        raise CapabilityError("bottleneck gradient needs bottleneck chain and cost")
    sol = solve(problem, theta)
    g = np.zeros(problem.n_params)
    for x in range(chain.n_states):
        if x in chain.terminal:
            continue
        eta = chain.bottleneck(x, theta)
        jac = chain.prob_row_eta_jac(x, eta)
        inner = cost.grad_eta(x, eta) + sol.gamma * (jac.T @ sol.values)
        g += sol.weights[x] * (chain.bottleneck_jac(x, theta) @ inner)
    return g


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------


def _probe(fn, theta, coordinate):
    try:
        val = fn(theta)
    except Exception as exc:
        raise ProbeError(
            f"objective probe failed at coordinate {coordinate}: {exc}", coordinate
        ) from exc
    if not np.isfinite(val):
        raise ProbeError(
            f"objective probe is non-finite at coordinate {coordinate}", coordinate
        )
    return val


def fd_gradient(fn, theta, h=1e-6) -> np.ndarray:
    """Centered finite-difference gradient of a scalar function of theta.

    Steps scale with coordinate magnitude: h_i = h (1 + |theta_i|).
    """
    theta = np.asarray(theta, dtype=float)
    g = np.zeros(theta.shape[0])
    for i in range(theta.shape[0]):
        hi = h * (1.0 + abs(theta[i]))
        up = theta.copy()
        up[i] += hi
        dn = theta.copy()
        dn[i] -= hi
        g[i] = (_probe(fn, up, i) - _probe(fn, dn, i)) / (2.0 * hi)
    return g


def fd_hessian(fn, theta, h=1e-4) -> np.ndarray:
    """Centered finite-difference Hessian of a scalar function, symmetrized."""
    theta = np.asarray(theta, dtype=float)
    k = theta.shape[0]
    steps = h * (1.0 + np.abs(theta))
    H = np.zeros((k, k))
    f0 = _probe(fn, theta, None)
    for i in range(k):
        up = theta.copy()
        up[i] += steps[i]
        dn = theta.copy()
        dn[i] -= steps[i]
        H[i, i] = (_probe(fn, up, i) - 2.0 * f0 + _probe(fn, dn, i)) / steps[i] ** 2
    for i in range(k):
        for j in range(i + 1, k):
            pp = theta.copy()
            pp[[i, j]] += [steps[i], steps[j]]
            pm = theta.copy()
            pm[[i, j]] += [steps[i], -steps[j]]
            mp = theta.copy()
            mp[[i, j]] += [-steps[i], steps[j]]
            mm = theta.copy()
            mm[[i, j]] += [-steps[i], -steps[j]]
            val = (
                _probe(fn, pp, j) - _probe(fn, pm, j) - _probe(fn, mp, j) + _probe(fn, mm, j)
            ) / (4.0 * steps[i] * steps[j])
            H[i, j] = val
            H[j, i] = val
    return 0.5 * (H + H.T)


def fd_gradient_oracle(problem: Problem, theta, h=1e-6) -> np.ndarray:
    """Finite-difference gradient of the exact objective."""
    return fd_gradient(lambda th: objective(problem, th), theta, h)


def fd_hessian_oracle(problem: Problem, theta, h=1e-4) -> np.ndarray:
    """Finite-difference Hessian of the exact objective."""
    return fd_hessian(lambda th: objective(problem, th), theta, h)
