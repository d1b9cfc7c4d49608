"""Adapters that realize Markov decision processes as chain/cost problems.

A decision process with a parameterized policy collapses to a plain
parameterized chain: average transitions over the policy and average the
action cost the same way. Regularized variants add entropy or divergence
terms to the step cost. The module also carries classical policy-gradient
formulas and an action-space policy evaluator used as independent checks
against the chain-side machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DivergenceUndefinedError, InvalidStructureError
from .exact import _average_values, solve
from .model import (
    Average,
    ChainModel,
    CostModel,
    EpisodicDiscounted,
    FirstExit,
    KlToFixedChainCost,
    PolicyEntropyCost,
    Problem,
    SegmentSoftmax,
    Setting,
    TabularInitial,
    TableCost,
    WeightedSumCost,
    check_params,
    row_kl,
)


# ---------------------------------------------------------------------------
# Decision-process containers
# ---------------------------------------------------------------------------


@dataclass
class TabularMdp:
    """Finite decision process: transition tensor, cost table, setting, start law."""

    transitions: np.ndarray  # (n_states, n_actions, n_states)
    costs: np.ndarray  # (n_states, n_actions)
    setting: Setting
    init: TabularInitial

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        if self.transitions.ndim != 3:
            raise InvalidStructureError("transition tensor must be (states, actions, states)")
        n_s, n_a, n_s2 = self.transitions.shape
        if n_s != n_s2:
            raise InvalidStructureError("transition tensor must be square in states")
        if self.costs.shape != (n_s, n_a):
            raise InvalidStructureError("cost table must be (states, actions)")
        if np.any(self.transitions < -1e-12) or np.any(
            np.abs(self.transitions.sum(axis=2) - 1.0) > 1e-9
        ):
            raise InvalidStructureError("each (state, action) row must be a distribution")
        if not np.all(np.isfinite(self.costs)):
            raise InvalidStructureError("cost table must be finite")
        if self.init.weights.shape[0] != n_s:
            raise InvalidStructureError("start law length must match the state count")

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]


@dataclass
class LmdpSpec:
    """Linearly-solvable problem data: baseline chain, state cost, terminal set."""

    baseline: np.ndarray  # (n, n) row-stochastic
    state_cost: np.ndarray  # (n,)
    terminal: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self.baseline = np.asarray(self.baseline, dtype=float)
        self.state_cost = np.asarray(self.state_cost, dtype=float)
        self.terminal = frozenset(int(s) for s in self.terminal)
        n = self.baseline.shape[0]
        if self.baseline.shape != (n, n):
            raise InvalidStructureError("baseline must be square")
        if np.any(self.baseline < -1e-12) or np.any(
            np.abs(self.baseline.sum(axis=1) - 1.0) > 1e-9
        ):
            raise InvalidStructureError("baseline rows must be distributions")
        if self.state_cost.shape != (n,) or not np.all(np.isfinite(self.state_cost)):
            raise InvalidStructureError("state cost must be a finite vector")
        for s in self.terminal:
            if abs(self.baseline[s, s] - 1.0) > 1e-12:
                raise InvalidStructureError(f"terminal state {s} must be absorbing")
            if abs(self.state_cost[s]) > 1e-12:
                raise InvalidStructureError(f"terminal state {s} must have zero cost")

    @property
    def n_states(self) -> int:
        return self.baseline.shape[0]


# ---------------------------------------------------------------------------
# Softmax policy
# ---------------------------------------------------------------------------


class SoftmaxPolicy(SegmentSoftmax):
    """Tabular stochastic policy with one logit per (state, action): the
    segment softmax with one segment of n_actions logits per state."""

    def __init__(self, n_states: int, n_actions: int):
        if n_states < 1 or n_actions < 1:
            raise InvalidStructureError("need at least one state and one action")
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        super().__init__(np.full(self.n_states, self.n_actions))

    def param_slice(self, x: int) -> slice:
        return slice(x * self.n_actions, (x + 1) * self.n_actions)

    def table(self, theta) -> np.ndarray:
        """(n_states, n_actions) action probabilities; stacked alike,
        (..., n_states, n_actions), at theta of shape (..., n_params)."""
        pi = self.probs(theta)
        return pi.reshape(pi.shape[:-1] + (self.n_states, self.n_actions))

    def block_sum(self, w, B) -> np.ndarray:
        """sum_x w[..., x] times B[x] in the parameter block of x, shape
        (..., n_params), for B of n_params entries (a row per state)."""
        return np.asarray(w, dtype=float)[..., self.seg_of] * np.ravel(B)


# ---------------------------------------------------------------------------
# Policy-averaged chain and costs
# ---------------------------------------------------------------------------


class PolicyAveragedChain(ChainModel):
    """Chain P(x'|x, theta) = sum_a pi(a|x, theta) p(x'|x, a).

    The policy's action distribution at x is the bottleneck output, so the
    same object serves the deterministic-bottleneck view where the action
    space is the probability simplex over base actions.
    """

    tabular = True

    def __init__(self, transitions, policy: SoftmaxPolicy, terminal=()):
        self.p = np.asarray(transitions, dtype=float)
        self.policy = policy
        n_s, n_a, _ = self.p.shape
        if policy.n_states != n_s or policy.n_actions != n_a:
            raise InvalidStructureError("policy shape does not match the transition tensor")
        self.n_states = n_s
        self.n_bottleneck = n_a
        self.n_params = policy.n_params
        self.terminal = frozenset(int(s) for s in terminal)
        for s in self.terminal:
            if not (0 <= s < n_s):
                raise InvalidStructureError(f"terminal state {s} out of range")
        self._term = np.array(sorted(self.terminal), dtype=np.int64)
        self._is_term = np.zeros(n_s, dtype=bool)
        self._is_term[self._term] = True

    def transition_matrix(self, theta, t: int = 0) -> np.ndarray:
        P = np.einsum("...xa,xay->...xy", self.policy.table(theta), self.p)
        P[..., self._term, :] = 0.0
        P[..., self._term, self._term] = 1.0
        return P

    def _action_weights(self, W) -> np.ndarray:
        """Flat C[x, a] = sum_y W[x, y] dP[x, y]/dpi(a|x), zero on terminal rows."""
        C = np.einsum("xay,xy->xa", self.p, W)
        C[self._term] = 0.0
        return C.ravel()

    def row_vjp(self, theta, W, t: int = 0) -> np.ndarray:
        return self.policy.vjp(theta, self._action_weights(W))

    def row_hess(self, theta, W, t: int = 0) -> np.ndarray:
        return self.policy.curvature(theta, self._action_weights(W), 0.0)

    def fisher(self, theta, w, t: int = 0) -> np.ndarray:
        # block x is w_x pi * G_x * pi^T, with R = p[x, :, y] / P[x, y] and
        # G_x = sum_y P[x, y] R R^T - 1 1^T, one (k, k) block per state;
        # terminal rows carry no parameters
        pi = self.policy.table(theta)
        P = self.transition_matrix(theta)
        inv = np.divide(1.0, P, out=np.zeros_like(P), where=P > 0.0)
        G = (self.p * inv[:, None, :]) @ self.p.transpose(0, 2, 1) - 1.0
        w = np.where(self._is_term, 0.0, np.asarray(w, dtype=float))
        return self.policy.scatter(w[:, None, None] * pi[:, :, None] * G * pi[:, None, :])

    def score_sums(self, theta, x, y, coef, groups, n_groups: int, t: int = 0) -> np.ndarray:
        # score(x, y) is pi(.|x) * (p[x, :, y] / P[x, y] - 1) on x's block;
        # terminal rows score zero
        x, y, groups = (np.asarray(a, dtype=np.int64) for a in (x, y, groups))
        live = ~self._is_term[x]
        x, y, groups = x[live], y[live], groups[live]
        coef = np.asarray(coef, dtype=float)[live]
        pi = self.policy.table(theta)[x]
        pxy = self.p[x, :, y]
        total = np.sum(pi * pxy, axis=1)
        if np.any(total <= 0.0):
            raise InvalidStructureError("a transition has zero probability")
        out = np.zeros((n_groups, self.n_states, self.n_bottleneck))
        np.add.at(out, (groups, x), coef[:, None] * pi * (pxy / total[:, None] - 1.0))
        return out.reshape(n_groups, self.n_params)

    def successors(self, x):
        if x in self.terminal:
            return [x]
        return list(np.nonzero(self.p[x].max(axis=0) > 0)[0])

    # --- bottleneck view: eta is the action distribution at x --------------

    def bottleneck(self, x, theta, t: int = 0) -> np.ndarray:
        return self.policy.table(theta)[x]

    def bottleneck_jac(self, x, theta, t: int = 0) -> np.ndarray:
        pi = self.bottleneck(x, theta)
        jac = np.zeros((self.n_params, self.n_bottleneck))
        jac[self.policy.param_slice(x), :] = np.diag(pi) - np.outer(pi, pi)
        return jac

    def prob_row_eta(self, x, eta, t: int = 0) -> np.ndarray:
        return np.asarray(eta, dtype=float) @ self.p[x]

    def prob_row_eta_jac(self, x, eta, t: int = 0) -> np.ndarray:
        return self.p[x].T


class PolicyExpectedCost(CostModel):
    """Step cost sum_a pi(a|x, theta) c(x, a) for a fixed action-cost table.

    The action distribution at x is the bottleneck output eta, so the cost
    is also eta . c(x, .) in the deterministic-bottleneck view.
    """

    def __init__(self, policy: SoftmaxPolicy, costs):
        self.policy = policy
        self.costs = np.asarray(costs, dtype=float)
        if self.costs.shape != (policy.n_states, policy.n_actions):
            raise InvalidStructureError("cost table shape must match the policy")
        self.n_params = policy.n_params
        self.n_states = policy.n_states

    def value_eta(self, x, eta, t: int = 0) -> float:
        return float(np.asarray(eta, dtype=float) @ self.costs[x])

    def grad_eta(self, x, eta, t: int = 0) -> np.ndarray:
        return self.costs[x].copy()

    def value_table(self, theta, t: int = 0) -> np.ndarray:
        return np.sum(self.policy.table(theta) * self.costs, axis=-1)

    def grad_sum(self, theta, w, t: int = 0) -> np.ndarray:
        return self.policy.block_sum(w, self.policy.vjp(theta, self.costs.ravel()))

    def hess_sum(self, theta, w, t: int = 0) -> np.ndarray:
        return self.policy.curvature(theta, self.policy.block_sum(w, self.costs), 0.0)


class PolicyKlFromOldCost(CostModel):
    """Per-state KL(pi_old(.|x) || pi(.|x, theta)); the frozen policy comes first."""

    def __init__(self, policy: SoftmaxPolicy, pi_old):
        self.policy = policy
        self.pi_old = np.asarray(pi_old, dtype=float)
        if self.pi_old.shape != (policy.n_states, policy.n_actions):
            raise InvalidStructureError("frozen policy table shape must match the policy")
        if np.any(self.pi_old < 0) or np.any(np.abs(self.pi_old.sum(axis=1) - 1.0) > 1e-9):
            raise InvalidStructureError("frozen policy rows must be distributions")
        self.n_params = policy.n_params
        self.n_states = policy.n_states

    def value_table(self, theta, t: int = 0) -> np.ndarray:
        pi = self.policy.table(theta)
        starved = (self.pi_old > 0) & (pi <= 0)
        if np.any(starved):
            raise DivergenceUndefinedError(
                "policy gives zero mass where the frozen policy is positive at state "
                f"{int(np.nonzero(starved)[-2][0])}"
            )
        return row_kl(np.broadcast_to(self.pi_old, pi.shape), pi)[0]

    def grad_sum(self, theta, w, t: int = 0) -> np.ndarray:
        return self.policy.block_sum(w, self.policy.table(theta) - self.pi_old)

    def hess_sum(self, theta, w, t: int = 0) -> np.ndarray:
        # minus sum_a pi_old log pi has the log-normalizer's Hessian
        return self.policy.curvature(theta, 0.0, self.policy.block_sum(w, 1.0))


class MixedRowKlCost(CostModel):
    """State cost r(x) plus KL of the action-mixed row from a reference row.

    This is the deterministic-bottleneck form of the control cost: the
    action is the mixing distribution eta, the realized row is
    q_eta = sum_a eta_a p(.|x, a), and the cost reads r(x) + KL(q_eta || ref).
    """

    def __init__(self, transitions, policy: SoftmaxPolicy, reference, state_cost):
        self.p = np.asarray(transitions, dtype=float)
        self.policy = policy
        self.reference = np.asarray(reference, dtype=float)
        self.state_cost = np.asarray(state_cost, dtype=float)
        self.n_params = policy.n_params
        self.n_states = self.p.shape[0]
        lacking = np.any((self.p.max(axis=1) > 0) & (self.reference <= 0), axis=1)
        if lacking.any():
            raise DivergenceUndefinedError(
                f"reference row {np.argmax(lacking)} lacks support on reachable successors"
            )

    def value_eta(self, x, eta, t: int = 0) -> float:
        q = np.asarray(eta, dtype=float) @ self.p[x]
        mask = q > 0
        kl = float(np.sum(q[mask] * np.log(q[mask] / self.reference[x][mask])))
        return float(self.state_cost[x]) + kl

    def grad_eta(self, x, eta, t: int = 0) -> np.ndarray:
        q = np.asarray(eta, dtype=float) @ self.p[x]
        mask = q > 0
        logr = np.zeros_like(q)
        logr[mask] = np.log(q[mask] / self.reference[x][mask]) + 1.0
        return self.p[x] @ logr

    def _mixed_kl(self, theta):
        Q = np.einsum("...xa,xay->...xy", self.policy.table(theta), self.p)
        return row_kl(Q, self.reference)

    def value_table(self, theta, t: int = 0) -> np.ndarray:
        return self.state_cost + self._mixed_kl(theta)[0]

    def grad_sum(self, theta, w, t: int = 0) -> np.ndarray:
        # state x adds d pi(.|x)/d theta . grad_eta(x, pi(.|x)), for all x at once
        _, xs, ys, logr = self._mixed_kl(theta)
        D = np.zeros((self.n_states, self.n_states))
        D[xs, ys] = logr + 1.0
        C = np.einsum("xay,xy->xa", self.p, D)
        return self.policy.block_sum(w, self.policy.vjp(theta, C.ravel()))


# ---------------------------------------------------------------------------
# Mappings to chain/cost problems
# ---------------------------------------------------------------------------


def map_stochastic_mdp(mdp: TabularMdp, policy: SoftmaxPolicy) -> Problem:
    """Stochastic-policy mapping with a parameter-free action-cost table.

    The same problem is the deterministic-bottleneck view: the action is
    the policy's action distribution at x, through which both the chain
    (prob_row_eta) and the cost (value_eta) are priced.
    """
    chain = PolicyAveragedChain(mdp.transitions, policy)
    cost = PolicyExpectedCost(policy, mdp.costs)
    return Problem(chain, cost, mdp.setting, mdp.init)


def map_entropy_mdp(mdp: TabularMdp, policy: SoftmaxPolicy) -> Problem:
    """Entropy-regularized mapping: expected action cost plus policy entropy."""
    chain = PolicyAveragedChain(mdp.transitions, policy)
    cost = WeightedSumCost(
        [PolicyExpectedCost(policy, mdp.costs), PolicyEntropyCost(policy)]
    )
    return Problem(chain, cost, mdp.setting, mdp.init)


def map_proximal_mdp(mdp: TabularMdp, policy: SoftmaxPolicy, pi_old) -> Problem:
    """Divergence-regularized mapping: adds KL(pi_old || pi(theta)) per state."""
    chain = PolicyAveragedChain(mdp.transitions, policy)
    cost = WeightedSumCost(
        [PolicyExpectedCost(policy, mdp.costs), PolicyKlFromOldCost(policy, pi_old)]
    )
    return Problem(chain, cost, mdp.setting, mdp.init)


def map_lmdp(spec: LmdpSpec, chain: ChainModel, setting: Setting, init) -> Problem:
    """Control-cost mapping: state cost plus KL of the chain from the baseline."""
    if chain.n_states != spec.n_states:
        raise InvalidStructureError("chain and baseline disagree on the state count")
    cost = WeightedSumCost(
        [
            TableCost(spec.state_cost, n_params=chain.n_params),
            KlToFixedChainCost(chain, spec.baseline),
        ]
    )
    return Problem(chain, cost, setting, init)


# ---------------------------------------------------------------------------
# Equivalence constructions
# ---------------------------------------------------------------------------


def lmdp_deterministic_pair(
    transitions,
    policy: SoftmaxPolicy,
    reference,
    state_cost,
    setting: Setting,
    init,
):
    """Build matching control-cost and deterministic-bottleneck problems.

    Both share the chain sum_a mu_a(x, theta) p(.|x, a). The bottleneck
    problem prices the realized row through the action: its action cost is
    r(x) + KL(row(eta) || reference). The control-cost problem prices the
    chain row directly. The two cost surfaces agree identically.
    """
    chain_d = PolicyAveragedChain(transitions, policy)
    cost_d = MixedRowKlCost(transitions, policy, reference, state_cost)
    problem_d = Problem(chain_d, cost_d, setting, init)

    chain_l = PolicyAveragedChain(transitions, policy)
    cost_l = WeightedSumCost(
        [
            TableCost(state_cost, n_params=chain_l.n_params),
            KlToFixedChainCost(chain_l, reference),
        ]
    )
    problem_l = Problem(chain_l, cost_l, setting, init)
    return problem_d, problem_l


# ---------------------------------------------------------------------------
# Independent action-space policy evaluation
# ---------------------------------------------------------------------------


def mdp_policy_evaluation(transitions, costs, pi_table, setting: Setting, init=None):
    """Evaluate a fixed policy on the (state, action) product space.

    Solves for action values Q directly (a linear system over state-action
    pairs) and reduces to state values v(x) = sum_a pi(a|x) Q(x, a). This
    never forms the policy-averaged chain, so it is an independent check
    of the chain-side value solvers.

    Returns (v, j) where j is the average cost (None outside the average
    setting). Average-setting values are normalized so the stationary
    expectation of v vanishes.
    """
    p = np.asarray(transitions, dtype=float)
    ell = np.asarray(costs, dtype=float)
    pi = np.asarray(pi_table, dtype=float)
    n_s, n_a, _ = p.shape
    nsa = n_s * n_a
    # T[(x, a), (y, b)] = p(y | x, a) pi(b | y)
    T = (p[:, :, :, None] * pi[None, None]).reshape(nsa, nsa)
    ell_flat = ell.reshape(nsa)

    if isinstance(setting, (EpisodicDiscounted, FirstExit)):
        Q, j = np.linalg.solve(np.eye(nsa) - setting.gamma * T, ell_flat), None
    elif isinstance(setting, Average):
        _, j, Q, _ = _average_values(T, ell_flat)
    else:
        raise CapabilityError("action-space evaluation covers stationary settings only")
    return np.array([pi[x] @ Q[x * n_a : (x + 1) * n_a] for x in range(n_s)]), j


def chain_as_action_mdp(problem: Problem, theta):
    """View a tabular chain as a decision process whose actions pick successors.

    Actions index next states, transitions are deterministic, the policy
    equals the chain's rows, and the action cost is the state cost. Used to
    route control-cost problems through the action-space evaluator.
    """
    chain, cost = problem.chain, problem.cost
    n = chain.n_states
    p = np.zeros((n, n, n))
    p[:, np.arange(n), np.arange(n)] = 1.0
    pi = chain.transition_matrix(theta)
    ell = np.tile(cost.value_table(theta)[:, None], (1, n))
    return p, ell, pi


# ---------------------------------------------------------------------------
# Classical gradient formulas used as oracles
# ---------------------------------------------------------------------------


def stochastic_policy_gradient(mdp: TabularMdp, policy: SoftmaxPolicy, theta) -> np.ndarray:
    """Likelihood-ratio policy gradient: visitation-weighted d pi . Q.

    State values come from the action-space evaluator, so this route shares
    no value code with the chain-side gradient it is checked against; only
    the visitation weights come from the chain solve.
    """
    theta = check_params(theta, policy.n_params)
    pi = policy.table(theta)
    v, _ = mdp_policy_evaluation(mdp.transitions, mdp.costs, pi, mdp.setting)
    sol = solve(map_stochastic_mdp(mdp, policy), theta)
    Q = mdp.costs + sol.gamma * np.einsum("xay,y->xa", mdp.transitions, v)
    return policy.block_sum(sol.weights, policy.vjp(theta, Q.ravel()))


def lmdp_policy_gradient(problem: Problem, spec: LmdpSpec, theta) -> np.ndarray:
    """Average-setting control-cost gradient in its specialized form.

    g = sum_x d(x) sum_y dP(y|x) [log(P(y|x)/baseline(y|x)) + v(y)], using
    the differential values of the mapped problem.
    """
    theta = check_params(theta, problem.n_params)
    if not isinstance(problem.setting, Average):
        raise CapabilityError("this specialized gradient is for the average setting")
    sol = solve(problem, theta)
    P = sol.P
    mask = P > 0
    logr = np.zeros_like(P)
    logr[mask] = np.log(P[mask] / spec.baseline[mask])
    W = np.where(mask, logr + sol.values[None, :], 0.0)
    return problem.chain.row_vjp(theta, sol.weights[:, None] * W)
