"""Seeded library of small benchmark problems.

Every builder is deterministic in its seed arguments. Random structure
(supports, obstacle layouts, tensors) comes from child streams of the
given seed so that adding a new random draw to one builder cannot shift
the instances produced by another.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStructureError
from .exact import reach_levels
from .mdp import LmdpSpec, SoftmaxPolicy, TabularMdp, map_stochastic_mdp
from .model import (
    Average,
    EpisodicDiscounted,
    FirstExit,
    GaussianInitial,
    GaussianLinearChain,
    Problem,
    QuadraticCost,
    SoftmaxChain,
    StateQuadraticCost,
    TableCost,
    TabularInitial,
    TimeVarying,
    TimeVaryingChain,
    TimeVaryingCost,
)


def _child_rngs(seed: int, n: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def canonical_two_state() -> Problem:
    """One interior state that either loops or exits to a terminal.

    With unit interior cost, J = 1/sigma where sigma is the exit
    probability: J = 2 and gradient (+1, -1) at theta = 0, infimum 1.
    """
    chain = SoftmaxChain(2, {0: [0, 1]}, terminal=[1])
    cost = TableCost(np.array([1.0, 0.0]), chain.n_params)
    return Problem(chain, cost, FirstExit(), TabularInitial(np.array([1.0, 0.0])))


def _random_support(rng, n: int, terminal=None, ring: bool = True):
    """Successor sets that keep the chain connected: a ring edge plus
    random extras (and an edge toward the terminal when one exists)."""
    support = {}
    for x in range(n):
        if terminal is not None and x == n - 1:
            continue
        succ = {x, (x + 1) % n} if ring else {x}
        extra = rng.integers(0, n, size=3)
        succ.update(int(e) for e in extra)
        if terminal is not None:
            succ.discard(n - 1)
            if rng.random() < 0.6 or x == n - 2:
                succ.add(n - 1)
            if len(succ) == 1 and x in succ:
                succ.add((x + 1) % (n - 1))
        support[x] = sorted(succ)
    return support


def random_softmax_problem(setting, n_states: int = 8, seed: int = 0) -> Problem:
    """Random softmax chain with a table-plus-quadratic cost.

    The quadratic part gives the cost a genuine parameter dependence so
    gradient checks exercise both terms of the objective.
    """
    r_structure, r_cost, r_logits = _child_rngs(seed, 3)
    n = n_states
    if isinstance(setting, FirstExit):
        support = _random_support(r_structure, n, terminal=n - 1)
        chain = SoftmaxChain(n, support, terminal=[n - 1])
        base = np.concatenate([r_cost.uniform(0.5, 2.0, n - 1), [0.0]])
        quad_w = np.concatenate([np.ones(n - 1), [0.0]])
        p0 = np.zeros(n)
        p0[0] = 1.0
    elif isinstance(setting, (EpisodicDiscounted, Average)):
        support = _random_support(r_structure, n)
        offsets = 0.5 * r_logits.normal(size=sum(len(s) for s in support.values()))
        chain = SoftmaxChain(n, support, logit_offset=offsets)
        base = r_cost.uniform(0.5, 2.0, n)
        quad_w = np.ones(n)
        p0 = np.full(n, 1.0 / n)
    else:
        raise InvalidStructureError("use random_timevarying_problem for finite horizons")
    lin = 0.05 * r_cost.normal(size=(n, chain.n_params))
    lin[list(chain.terminal)] = 0.0
    cost = QuadraticCost(base, lin, np.full(chain.n_params, 0.1), quad_w)
    return Problem(chain, cost, setting, TabularInitial(p0))


def random_timevarying_problem(horizon: int, n_states: int = 6, seed: int = 0) -> Problem:
    """Finite-horizon chain with per-stage transition structure and costs.

    All stages share one parameter vector; each stage sees it through its
    own logit offsets, so stage laws differ while the parameter is shared.
    """
    r_structure, r_cost, r_logits = _child_rngs(seed, 3)
    n = n_states
    # one support, checked once and shared by every stage
    layout = SoftmaxChain(n, _random_support(r_structure, n))
    k = layout.n_params
    chain = TimeVaryingChain(
        [layout._with_offset(0.5 * r_logits.normal(size=k)) for _ in range(horizon)]
    )
    ridge = np.full(k, 0.1)
    costs = []
    for _ in range(horizon + 1):
        base = r_cost.uniform(0.5, 2.0, n)
        lin = 0.05 * r_cost.normal(size=(n, k))
        costs.append(QuadraticCost(base, lin, ridge, np.ones(n)))
    p0 = np.full(n, 1.0 / n)
    return Problem(chain, TimeVaryingCost(costs), TimeVarying(horizon), TabularInitial(p0))


def random_mdp(
    n_states: int = 6, n_actions: int = 3, seed: int = 0, setting=None
) -> tuple:
    """Random tabular MDP plus a softmax policy, for the adapter layer.

    Returns (mdp, policy, theta). Transition rows are Dirichlet with full
    support, so every setting's solver applies.
    """
    r_trans, r_cost, r_theta = _child_rngs(seed, 3)
    if setting is None:
        setting = EpisodicDiscounted(0.9)
    trans = r_trans.dirichlet(np.ones(n_states) * 1.5, size=(n_states, n_actions))
    costs = r_cost.uniform(0.5, 2.0, size=(n_states, n_actions))
    init = TabularInitial(np.full(n_states, 1.0 / n_states))
    mdp = TabularMdp(trans, costs, setting, init)
    policy = SoftmaxPolicy(n_states, n_actions)
    theta = 0.3 * r_theta.normal(size=policy.n_params)
    return mdp, policy, theta


def random_smdp_problem(
    n_states: int = 6, n_actions: int = 3, seed: int = 0, setting=None
) -> tuple:
    """Policy-averaged problem from a random stochastic MDP.

    Returns (problem, theta) where the problem's parameters are the
    policy logits.
    """
    mdp, policy, theta = random_mdp(n_states, n_actions, seed, setting)
    return map_stochastic_mdp(mdp, policy), theta


def gridworld_lmdp(size: int = 5, seed: int = 0, step_cost: float = 0.002) -> LmdpSpec:
    """Grid with random obstacles, uniform-neighbor baseline walk, and one
    zero-cost absorbing goal; every free cell pays a constant charge.

    States are free cells in row-major order; the goal is the free cell
    nearest the bottom-right corner. Obstacle layouts that disconnect any
    cell from the goal are resampled from the same stream.

    The default charge is deliberately small: sampled Z updates average
    multiplicative targets, and their relative noise scales with the spread
    of exp(-V) across neighboring cells. Keeping that spread modest is what
    lets the visit-count step schedule settle inside a 1e5-step budget.
    Larger charges give steeper landscapes and are fine for exact solves.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for _attempt in range(1000):
        blocked = rng.random((size, size)) < 0.2
        blocked[0, 0] = False
        blocked[size - 1, size - 1] = False
        free = [(i, j) for i in range(size) for j in range(size) if not blocked[i, j]]
        index = {cell: k for k, cell in enumerate(free)}
        goal = index[(size - 1, size - 1)]
        n = len(free)

        def neighbors(cell):
            i, j = cell
            out = []
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < size and 0 <= nj < size and not blocked[ni, nj]:
                    out.append(index[(ni, nj)])
            return out

        P = np.zeros((n, n))
        ok = True
        for cell, k in index.items():
            if k == goal:
                P[k, k] = 1.0
                continue
            nbrs = neighbors(cell)
            if not nbrs:
                ok = False
                break
            for m in nbrs:
                P[k, m] = 1.0 / len(nbrs)
        if not ok:
            continue
        # goal must be reachable from every free cell
        if np.any(reach_levels(P.T > 0, np.arange(n) == goal) < 0):
            continue
        r = np.full(n, float(step_cost))
        r[goal] = 0.0
        return LmdpSpec(P, r, terminal=[goal])
    raise InvalidStructureError("could not draw a connected gridworld")


def gaussian_linear_problem(
    n_x: int = 2, seed: int = 0, gamma: float = 0.9
) -> tuple:
    """Stable linear-Gaussian chain with quadratic state cost.

    Built with an identity input matrix and offset-only parameterization,
    so the transition mean is x -> A x + K x + k with the offset k as the
    free parameter; the score covariance then has the closed form
    inverse-noise-covariance, which tests use as the Fisher oracle.
    Returns (problem, theta).
    """
    r_dyn, r_cost, r_theta = _child_rngs(seed, 3)
    A = r_dyn.normal(size=(n_x, n_x))
    A *= 0.6 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    B = np.eye(n_x)
    root = r_dyn.normal(size=(n_x, n_x)) * 0.3
    cov = root @ root.T + 0.2 * np.eye(n_x)
    K = -0.1 * np.eye(n_x)
    chain = GaussianLinearChain(A, B, cov, K_fixed=K)
    M = r_cost.normal(size=(n_x, n_x)) * 0.2
    cost = StateQuadraticCost(M @ M.T + np.eye(n_x), n_params=chain.n_params)
    init = GaussianInitial(np.zeros(n_x), np.eye(n_x))
    problem = Problem(chain, cost, EpisodicDiscounted(gamma), init)
    theta = 0.3 * r_theta.normal(size=chain.n_params)
    return problem, theta
