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
    check_number,
    check_param_stack,
    check_params,
    staged,
)

_RESIDUAL_TOL = 1e-10
# Supports whose verdict is remembered; a softmax chain keeps one at every theta.
_SUPPORTS_CACHED = 64
# Bytes of P, every stage counted, in one stacked solve of the oracle: enough
# probes to spread the per-call overhead, few enough to keep peak memory flat.
_PROBE_STACK_BYTES = 256 * 1024


def _require_tabular(problem: Problem):
    if not problem.chain.tabular:
        raise CapabilityError("exact solvers require a tabular chain")


def _apply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v, over any leading stack axes of A and v."""
    return (A @ v[..., None])[..., 0]


def _first_failing(ok, values):
    """The entry of values where the check ok first fails."""
    return np.extract(~ok, values)[0]


def _check_residual(residual, values: np.ndarray, name: str):
    """Each residual must be at most _RESIDUAL_TOL times the scale of its
    values, max(1, max |v|); written so that a NaN residual fails too."""
    ok = residual <= _RESIDUAL_TOL * np.maximum(1.0, np.abs(values).max(axis=-1))
    if not ok.all():
        raise InvalidStructureError(f"{name} residual {_first_failing(ok, residual)} too large")


def _check_terminal_costs(L: np.ndarray, chain):
    for s in chain.terminal:
        ok = np.abs(L[..., s]) <= 1e-12
        if not ok.all():
            raise InvalidStructureError(
                f"terminal state {s} must have zero cost, found {_first_failing(ok, L[..., s])}"
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
    """Cached verdict for the nonzero pattern of this P, or the first fault
    among the distinct patterns of a stack's Ps: entries can underflow to 0."""
    n = P.shape[-1]
    key = None if terminal is None else terminal.tobytes()
    patterns = np.packbits((P > 0).reshape(-1, n * n), axis=1)
    for pattern in dict.fromkeys(patterns.view(f"V{patterns.shape[1]}").ravel().tolist()):
        fault = _support_fault(n, pattern, key)
        if fault:
            return fault
    return None


def _solve(A: np.ndarray, b: np.ndarray, error: Exception) -> np.ndarray:
    """x with A x = b over any leading stack axes, raising error where an A is
    singular in floating point."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise error from None


def _live_block(P: np.ndarray, chain, message: str):
    """Non-terminal mask and the matching block of P (of each P of a stack),
    after checking on the support graph that the terminal set is reached
    from every state."""
    live = np.ones(P.shape[-1], dtype=bool)
    live[list(chain.terminal)] = False
    if _fault(P, ~live):
        raise ReachabilityError(message)
    idx = np.flatnonzero(live)
    return live, P[..., idx[:, None], idx]


# ---------------------------------------------------------------------------
# Build and solve steps shared by the solvers
# ---------------------------------------------------------------------------


def _table(model, method: str, theta: np.ndarray, t, shape: tuple, what: str):
    """model.method(theta, t), refused unless it is finite and of shape
    theta's stack axes + t's axes + shape: a model that ignores the stack
    axes of theta is never broadcast over them. t is a stage, or the array
    of stages of a time-varying model."""
    shape = theta.shape[:-1] + getattr(t, "shape", ()) + shape
    table = getattr(model, method)(theta, t)
    if np.shape(table) != shape:
        raise InvalidStructureError(
            f"{type(model).__name__}.{method} returned shape {np.shape(table)}, expected {shape}"
        )
    if not np.isfinite(table).all():
        raise InvalidStructureError(f"{what} contains non-finite entries")
    return table


def _build(problem: Problem, theta: np.ndarray):
    """Transition matrix and step-cost table at theta, or their stacks
    over the rows of a stack of theta, from one call to each model. In the
    time-varying setting, every stage's P_0 .. P_{T-1}, shape (..., T, n, n),
    and L_0 .. L_T, shape (..., T+1, n), each from one call at the array
    of stages."""
    n = problem.chain.n_states
    chain, cost, tP, tL = problem.chain, problem.cost, 0, 0
    if isinstance(problem.setting, TimeVarying):
        T = problem.setting.horizon
        chain, cost, tP, tL = staged(chain), staged(cost), np.arange(T), np.arange(T + 1)
    P = _table(chain, "transition_matrix", theta, tP, (n, n), "transition matrix")
    return P, _table(cost, "value_table", theta, tL, (n,), "cost table")


def _episodic_values(problem: Problem, P: np.ndarray, L: np.ndarray):
    """V = L + gamma P V, with the first-exit reachability check; P and L
    may carry a leading stack axis, and every check runs on each solve."""
    chain, gamma = problem.chain, problem.gamma
    if isinstance(problem.setting, FirstExit):
        _check_terminal_costs(L, chain)
        message = "terminal set is not reached with probability 1 from every state"
        live, Pnn = _live_block(P, chain, message)
        V = np.zeros(L.shape)
        V[..., live] = _solve(
            np.eye(Pnn.shape[-1]) - Pnn, L[..., live], ReachabilityError(message)
        )
    else:
        V = np.linalg.solve(np.eye(chain.n_states) - gamma * P, L[..., None])[..., 0]
    residual = np.abs(V - (L + gamma * _apply(P, V))).max(axis=-1)
    _check_residual(residual, V, "value solve")
    return V, residual


def _average_values(P: np.ndarray, L: np.ndarray):
    """Stationary density d, average cost j and differential values V, of
    one chain or of each chain of a stack.

    With d'M = 1' and M u = L for M = I - P + 1 1', 1'u = d'L = j and
    u + j 1 = L + P u, so V = u - (d'u) 1 solves the value equations with
    E_d[V] = (d'u)(1 - 1'd), which stationary_from_matrix keeps near 0."""
    d, u = stationary_from_matrix(P, costs=L)
    j = np.sum(d * L, axis=-1)
    V = u - np.sum(d * u, axis=-1)[..., None]
    residual = np.abs(V + j[..., None] - (L + _apply(P, V))).max(axis=-1)
    _check_residual(residual, V, "average solve")
    return d, j, V, residual


def stationary_from_matrix(P: np.ndarray, *, costs: Optional[np.ndarray] = None):
    """Stationary distribution d of a row-stochastic matrix: irreducibility
    and aperiodicity are decided on the support graph of P, once per support,
    and d solves d'M = 1' for M = I - P + 1 1'. Given a cost table, returns
    (d, u) with M u = costs from the same stacked solve. P may be a stack of
    matrices, with costs stacked alike; every check then runs on each."""
    fault = _fault(P)
    if fault:
        raise ErgodicityError(fault)
    M = np.eye(P.shape[-1]) - P + 1.0
    rhs = np.zeros((2,) + P.shape[:-1])
    rhs[0] = 1.0
    if costs is not None:
        rhs[1] = costs
    error = ErgodicityError("chain is reducible: its couplings vanish in floating point")
    d, u = _solve(np.stack([np.swapaxes(M, -1, -2), M]), rhs, error)
    if not d.min() > 1e-12:
        raise ErgodicityError("stationary distribution is not fully supported")
    # 1'd = 1 - d'(1 - P 1)/n, so a gap above the models' row-sum tolerance is a fault
    total = d.sum(axis=-1)
    ok = np.abs(1.0 - total) <= 1e-9
    if not ok.all():
        raise InvalidStructureError(f"stationary density sums to {_first_failing(ok, total)}, not 1")
    resid = np.abs(_apply(np.swapaxes(P, -1, -2), d) - d).max(axis=-1)
    ok = resid <= 1e-9
    if not ok.all():
        raise ErgodicityError(f"stationary solve residual {_first_failing(ok, resid)} too large")
    return d if costs is None else (d, u)


def _occupancy(problem: Problem, P: np.ndarray) -> np.ndarray:
    """rho = p0 + gamma P~' rho, with P~ the matrix P without terminal rows,
    so that absorbed mass stops circulating."""
    chain = problem.chain
    P = P.copy()
    P[..., list(chain.terminal), :] = 0.0
    PT = np.swapaxes(P, -1, -2)
    p0 = problem.init.weights
    error = ReachabilityError("occupancy diverges: terminal set not always reached")
    rho = _solve(np.eye(chain.n_states) - problem.gamma * PT, p0, error)
    residual = np.abs(rho - (p0 + problem.gamma * _apply(PT, rho))).max(axis=-1)
    _check_residual(residual, rho, "occupancy")
    return rho


def _stage_values(P: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Backward recursion V_T = L_T, V_t = L_t + P_t V_{t+1} over the stage
    axes of P (..., T, n, n) and L (..., T+1, n)."""
    V = np.empty(L.shape)
    V[..., -1, :] = L[..., -1, :]
    for t in range(P.shape[-3] - 1, -1, -1):
        V[..., t, :] = L[..., t, :] + _apply(P[..., t, :, :], V[..., t + 1, :])
    return V


def _stage_densities(P: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Law of x_t at each stage of P (T, n, n): p_0 = p0, p_{t+1} = P_t' p_t;
    of each stage stack of P (k, T, n, n), stacked alike."""
    if P.ndim > 3:
        return np.stack([_stage_densities(P_i, p0) for P_i in P])
    p = [p0]
    for P_t in P:
        p.append(P_t.T @ p[-1])
    return np.array(p)


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

    In the time-varying setting of horizon T, P is the (T, n, n) stage
    stack, L and values are (T+1, n) with V_t = L_t + P_t V_{t+1}, J is
    V_0 . p0, and residual is 0: the recursion solves no linear system.
    weights are the (T+1, n) stage densities p_{t+1} = P_t' p_t.
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
            if isinstance(self.problem.setting, TimeVarying):
                self._weights = _stage_densities(self.P, self.problem.init.weights)
            else:
                self._weights = _occupancy(self.problem, self.P)
        return self._weights


def solve(problem: Problem, theta) -> Solution:
    """Build P and L once and solve the discounted, first-exit, average or
    time-varying problem at theta. This is the one place that pairs
    visitation weights and values with a setting."""
    _require_tabular(problem)
    sol = _solve_at(problem, check_params(theta, problem.n_params))
    sol.J, sol.residual = float(sol.J), float(sol.residual)
    return sol


def _solve_at(problem: Problem, theta: np.ndarray) -> Solution:
    """solve at a checked theta; at a (k, n_params) stack of theta, the
    Solution's arrays and numbers stack the k solves, each put through
    every check of a single solve."""
    average = isinstance(problem.setting, Average)
    if not average and not isinstance(problem.init, TabularInitial):
        raise InvalidStructureError("the exact solve needs a tabular start law")
    P, L = _build(problem, theta)
    if average:
        d, j, V, residual = _average_values(P, L)
        return Solution(problem, theta, P, L, V, problem.gamma, j, residual, d)
    if isinstance(problem.setting, TimeVarying):
        V, residual = _stage_values(P, L), np.zeros(theta.shape[:-1])
        J = V[..., 0, :] @ problem.init.weights
    else:
        V, residual = _episodic_values(problem, P, L)
        J = V @ problem.init.weights
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
# Readers of solve, each naming one quantity in the settings that define it
# ---------------------------------------------------------------------------


def _solve_in(problem: Problem, theta, *settings) -> Solution:
    """solve(problem, theta), refused outside the given settings."""
    _require_tabular(problem)
    if not isinstance(problem.setting, settings):
        names = " or ".join(s.__name__ for s in settings)
        raise InvalidStructureError(f"this reader needs a {names} setting")
    return solve(problem, theta)


def solve_value_episodic(problem: Problem, theta) -> Solution:
    """solve of a discounted or first-exit problem: V = L + gamma P V."""
    return _solve_in(problem, theta, EpisodicDiscounted, FirstExit)


def solve_value_average(problem: Problem, theta) -> Solution:
    """solve of an average-cost problem: J and differential values, E_d[V] = 0."""
    return _solve_in(problem, theta, Average)


def solve_value_timevarying(problem: Problem, theta) -> np.ndarray:
    """Stage values V_t = L_t + P_t V_{t+1}, shape (T+1, n_states)."""
    return _solve_in(problem, theta, TimeVarying).values


def stationary_density(problem: Problem, theta) -> np.ndarray:
    """Stationary distribution of an average-cost problem's chain."""
    return _solve_in(problem, theta, Average).weights


def discounted_occupancy(problem: Problem, theta) -> np.ndarray:
    """Discounted visitation weights rho = sum_{t >= 0} gamma^t Pr(x_t = .),
    a terminal state counted once on entry."""
    return _solve_in(problem, theta, EpisodicDiscounted, FirstExit).weights


# ---------------------------------------------------------------------------
# Objective and analytic gradient
# ---------------------------------------------------------------------------


def objective(problem: Problem, theta):
    """Expected accumulated cost under the setting's semantics. At a
    (k, n_params) stack of theta, the k objectives from stacked solves,
    each put through every check of a single solve."""
    _require_tabular(problem)
    J = _solve_at(problem, check_param_stack(theta, problem.n_params)).J
    return J if np.ndim(J) else float(J)


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
    chain, cost = problem.chain, problem.cost
    sol = solution_at(problem, theta, solution)
    w, V = sol.weights, sol.values
    if not isinstance(problem.setting, TimeVarying):
        return cost.grad_sum(theta, w) + sol.gamma * chain.row_vjp(theta, np.outer(w, V))

    T = problem.setting.horizon
    g = np.zeros(problem.n_params)
    for t in range(T):
        g += cost.grad_sum(theta, w[t], t)
        g += chain.row_vjp(theta, np.outer(w[t], V[t + 1]), t)
    return g + cost.grad_sum(theta, w[T], T)


def exact_gradient_bottleneck(problem: Problem, theta) -> np.ndarray:
    """Gradient routed through a low-dimensional policy output eta = mu(x, theta).

    The chain's bottleneck_tables give eta and p = dP[x, :]/deta[x], and
    the cost's bottleneck_grad gives dL/deta at eta. With the solve's
    weights w and values V, the gradient is the chain's bottleneck_vjp of
    the (n, k) cotangent w_x (dL/deta[x] + gamma p[x] V), zero on terminal
    rows. It equals exact_gradient whenever both apply, by the chain rule.
    The tables are read before the solve, so a model without them is
    refused before P is built.
    """
    _require_tabular(problem)
    theta = check_params(theta, problem.n_params)
    if isinstance(problem.setting, TimeVarying):
        raise CapabilityError("the bottleneck gradient needs a stationary setting, not TimeVarying")
    chain = problem.chain
    eta, p = chain.bottleneck_tables(theta)
    dL = problem.cost.bottleneck_grad(eta)
    sol = solve(problem, theta)
    C = sol.weights[:, None] * (dL + sol.gamma * (p @ sol.values))
    C[list(chain.terminal)] = 0.0
    return chain.bottleneck_vjp(theta, C)


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
    h = check_number("h", h)
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
    h = check_number("h", h)
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
            f = []
            for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                probe = theta.copy()
                probe[[i, j]] += [si * steps[i], sj * steps[j]]
                f.append(_probe(fn, probe, j))
            H[i, j] = H[j, i] = (f[0] - f[1] - f[2] + f[3]) / (4.0 * steps[i] * steps[j])
    return 0.5 * (H + H.T)


def fd_gradient_oracle(problem: Problem, theta, h=1e-6) -> np.ndarray:
    """Finite-difference gradient of the exact objective.

    The probes and steps are fd_gradient's, up and down at each coordinate
    in turn. They are solved in stacked chunks of at most _PROBE_STACK_BYTES
    (256 KiB) of P, counting the stage axis of a time-varying P. Each
    chunk's P and L come from one stacked table call to the chain and one
    to the cost (at the array of stages, in the time-varying setting), and
    every check of a single solve runs on each probe. A chunk that raises,
    as it does when a model ignores the stack axis, or gives a non-finite
    objective is re-probed one theta at a time, so a ProbeError names the
    coordinate and cause that fd_gradient would.
    """
    h = check_number("h", h)
    theta = np.asarray(theta, dtype=float)
    p = theta.shape[0]
    steps = h * (1.0 + np.abs(theta))
    n = problem.chain.n_states or 1  # None off the tabular chains, whose probes all fail
    stages = problem.setting.horizon if isinstance(problem.setting, TimeVarying) else 1
    size = max(1, _PROBE_STACK_BYTES // (8 * n * n * stages))
    J = np.empty(2 * p)
    for start in range(0, 2 * p, size):
        rows = np.arange(start, min(start + size, 2 * p))
        coords = rows // 2
        probes = np.repeat(theta[None], rows.size, axis=0)
        probes[np.arange(rows.size), coords] += np.where(rows % 2, -steps[coords], steps[coords])
        try:
            values = objective(problem, probes)
        except Exception:  # the failing probe raises again when re-probed alone
            values = None
        if values is None or not np.all(np.isfinite(values)):
            values = [
                _probe(lambda th: objective(problem, th), th, int(i))
                for th, i in zip(probes, coords)
            ]
        J[rows] = values
    return (J[0::2] - J[1::2]) / (2.0 * steps)


def fd_hessian_oracle(problem: Problem, theta, h=1e-4) -> np.ndarray:
    """Finite-difference Hessian of the exact objective."""
    return fd_hessian(lambda th: objective(problem, th), theta, h)
