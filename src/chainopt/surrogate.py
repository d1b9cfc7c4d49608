"""Frozen-density surrogate objectives and the optimizers built on them.

The surrogate S(alpha) re-evaluates cost and transition rows at a
perturbed parameter theta + alpha while keeping the visitation weights
and the value function frozen at theta. Its gradient at alpha = 0 equals
the exact objective gradient, which makes full inner minimization of S
(chain iteration), ratio clipping (proximal updates), Fisher
preconditioning, and surrogate Hessians all share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CapabilityError,
    ConfigError,
    InvalidStructureError,
    RegularizationRequiredError,
)
from .exact import Solution, solution_at
from .model import Average, BlockDiagonal, Problem, TimeVarying, check_number, check_params
from .rollout import (
    RolloutBatch,
    baseline_expected_values,
    check_batch,
    effective_gamma,
    transition_scores,
)

_LOG_RATIO_CAP = 30.0


# ---------------------------------------------------------------------------
# Frozen tables
# ---------------------------------------------------------------------------


def _table_value(problem: Problem, th, w, W, P) -> float:
    """w . L(th) + <W, P(th)>: the surrogate on a tabular chain, with state
    weights w and transition weights W frozen at theta and P = P(th)."""
    return float(w @ problem.cost.value_table(th) + np.sum(W * P))


def _table_grad(problem: Problem, th, w, W) -> np.ndarray:
    return problem.cost.grad_sum(th, w) + problem.chain.row_vjp(th, W)


def _table_hess(problem: Problem, th, w, W) -> np.ndarray:
    """sum_x w[x] d2L(x) + sum_{x,y} W[x, y] d2P[x, y] at th, symmetrized."""
    H = problem.cost.hess_sum(th, w) + problem.chain.row_hess(th, W)
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Exact surrogate
# ---------------------------------------------------------------------------


def _stationary_solution(problem: Problem, theta, solution: Optional[Solution]) -> Solution:
    """solution_at, refused in the time-varying setting: its weights are
    (T+1, n) stage densities, which no frozen-density form contracts."""
    if isinstance(problem.setting, TimeVarying):
        raise CapabilityError("the exact surrogate and Fisher need a stationary setting")
    return solution_at(problem, theta, solution)


class ExactSurrogate:
    """S(alpha) = sum_x w(x) [L(x, theta+alpha) + gamma sum_y P(y|x, theta+alpha) V(y)]

    with w and V frozen at theta, that is w . L + <W, P> with W = gamma w V^T.
    Requires a tabular chain so rows can be re-evaluated in closed form. A
    solution computed at theta may be passed in to skip the solve.
    """

    def __init__(self, problem: Problem, theta, solution: Optional[Solution] = None):
        self.problem = problem
        self.theta = check_params(theta, problem.n_params)
        sol = _stationary_solution(problem, self.theta, solution)
        self.weights, self.values, self.gamma = sol.weights, sol.values, sol.gamma
        self._W = self.gamma * np.outer(self.weights, self.values)

    def value(self, alpha) -> float:
        th = self.theta + check_params(alpha, self.problem.n_params)
        P = self.problem.chain.transition_matrix(th)
        return _table_value(self.problem, th, self.weights, self._W, P)

    def grad(self, alpha) -> np.ndarray:
        th = self.theta + check_params(alpha, self.problem.n_params)
        return _table_grad(self.problem, th, self.weights, self._W)

    def hess(self, alpha) -> np.ndarray:
        th = self.theta + check_params(alpha, self.problem.n_params)
        return _table_hess(self.problem, th, self.weights, self._W)


# ---------------------------------------------------------------------------
# Sampled surrogate
# ---------------------------------------------------------------------------


class SampledSurrogate:
    """Monte-Carlo surrogate built from a rollout batch generated at theta.

    Per rollout the contribution is
        sum_t g^t L(x_t, theta+alpha) + sum_{t<T} g^{t+1} ratio_t(alpha) Ahat_t,
    with ratio_t the transition-probability ratio between theta+alpha and
    theta, and Ahat the cost-to-go, less E[baseline(x') | x_t] when an
    (n_states,) baseline table is given (tabular chains only). Its
    alpha-gradient at zero reproduces the score-based gradient estimate on
    the same batch.

    On a tabular chain the batch reduces to frozen tables: w is the
    discounted visit mass of each state and W the summed coefficients
    g^{t+1} Ahat_t of each transition divided by P(theta), so S is
    w . L + <W, P>, the exact surrogate's form. On a continuous chain the
    sums run over the sampled states and transitions, each a call of the
    cost's and the chain's batched methods, and log ratios are capped at 30
    (counted in n_ratio_clipped) to keep far perturbations finite.
    """

    def __init__(
        self,
        problem: Problem,
        theta,
        batch: RolloutBatch,
        baseline: Optional[np.ndarray] = None,
    ):
        self.problem = problem
        self.theta = check_params(theta, problem.n_params)
        check_batch(self.theta, batch)
        if isinstance(problem.setting, (Average, TimeVarying)):
            raise CapabilityError("sampled surrogates cover the stationary episodic settings")
        self.gamma = effective_gamma(problem, batch)
        self.n_ratio_clipped = 0
        chain = problem.chain
        self.tabular = chain.tabular

        steps = batch.steps(self.gamma)
        self.n_valid = steps.lengths.size
        self.states = steps.states
        self.state_w = steps.weights
        k = steps.trans
        self.trans_x = steps.states[k]
        self.trans_y = steps.states[k + 1]
        self.trans_w = self.gamma * steps.weights[k]
        self.trans_adv = steps.returns[k + 1]
        if baseline is not None:
            b_table = baseline_expected_values(problem, self.theta, baseline)[0]
            self.trans_adv = self.trans_adv - b_table[self.trans_x]

        # Each sampled term (a transition of a tabular chain, a draw of a
        # continuous one) carries its positive and its negative coefficient
        # mass apart, for the clipped surrogate.
        coef = self.trans_w * self.trans_adv / self.n_valid
        pos, neg = np.maximum(coef, 0.0), np.minimum(coef, 0.0)
        if self.tabular:
            n = chain.n_states
            self._w = np.bincount(self.states, weights=self.state_w, minlength=n) / self.n_valid
            key = self.trans_x * n + self.trans_y
            pos, neg = (
                np.bincount(key, weights=c, minlength=n * n).reshape(n, n) for c in (pos, neg)
            )
            self._pairs = np.nonzero((pos != 0.0) | (neg != 0.0))
            pos, neg = pos[self._pairs], neg[self._pairs]
            self._p0 = chain.transition_matrix(self.theta)[self._pairs]
            self._W = np.zeros((n, n))
            self._W[self._pairs] = (pos + neg) / self._p0
        else:
            self._w = self.state_w / self.n_valid
            self._logp0 = chain.log_density(self.theta, self.trans_x, self.trans_y)
        self._pos, self._neg = pos, neg

    def _ratios(self, th):
        """(ratios P(th) / P(theta) of the sampled terms, P(th) or None)."""
        if self.tabular:
            P = self.problem.chain.transition_matrix(th)
            return P[self._pairs] / self._p0, P
        logr = self.problem.chain.log_density(th, self.trans_x, self.trans_y) - self._logp0
        over = logr > _LOG_RATIO_CAP
        if np.any(over):
            self.n_ratio_clipped += int(over.sum())
            logr = np.minimum(logr, _LOG_RATIO_CAP)
        return np.exp(logr), None

    def _value(self, th, r, P) -> float:
        if self.tabular:
            return _table_value(self.problem, th, self._w, self._W, P)
        L = self.problem.cost.state_values(th, self.states)
        return float(self._w @ L + (self._pos + self._neg) @ r)

    def _grad(self, th, r, dropped) -> np.ndarray:
        """Gradient at th with the coefficient mass `dropped` taken off the
        sampled terms."""
        if self.tabular:
            W = self._W.copy()
            W[self._pairs] -= dropped / self._p0
            return _table_grad(self.problem, th, self._w, W)
        c = (self._pos + self._neg - dropped) * r
        one = np.zeros(len(self.states), np.int64)  # group 0; transitions are fewer than states
        G = self.problem.cost.state_grad_sums(th, self.states, self._w, one, 1)
        S = self.problem.chain.score_sums(th, self.trans_x, self.trans_y, c, one[: c.size], 1)
        return (G + S)[0]

    def value(self, alpha) -> float:
        th = self.theta + check_params(alpha, self.problem.n_params)
        return self._value(th, *self._ratios(th))

    def grad(self, alpha) -> np.ndarray:
        th = self.theta + check_params(alpha, self.problem.n_params)
        if self.tabular:
            return _table_grad(self.problem, th, self._w, self._W)
        return self._grad(th, self._ratios(th)[0], 0.0)

    def hess(self, alpha) -> np.ndarray:
        th = self.theta + check_params(alpha, self.problem.n_params)
        if self.tabular:
            return _table_hess(self.problem, th, self._w, self._W)
        c = (self._pos + self._neg) * self._ratios(th)[0]
        H = self.problem.cost.state_hess_sum(th, self.states, self._w)
        H = H + self.problem.chain.density_hess(th, self.trans_x, self.trans_y, c)
        return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Clipped (proximal) surrogate
# ---------------------------------------------------------------------------


class ClippedSurrogate:
    """Ratio-clipped sampled surrogate for conservative minimization.

    Each ratio term is replaced by the pessimistic composition
    max(ratio * a, clip(ratio, 1-eps, 1+eps) * a), so the clipped objective
    upper-bounds the unclipped one and offers no incentive to push ratios
    outside the trust region. Terms that share a ratio (the draws of one
    tabular transition) clip together: positive coefficients take
    max(ratio, clip(ratio)), negative ones min(ratio, clip(ratio)), as a
    correction to the base value that is exactly zero when nothing clips.
    Gradients drop the clipped branch's coefficient mass, with ties
    resolved to the unclipped branch.
    """

    def __init__(self, base: SampledSurrogate, clip_radius: float):
        if not np.isfinite(clip_radius) or clip_radius <= 0.0:
            raise ConfigError("clip radius must be positive")
        self.base = base
        self.eps = float(clip_radius)

    def value(self, alpha) -> float:
        b = self.base
        th = b.theta + check_params(alpha, b.problem.n_params)
        r, P = b._ratios(th)
        rc = np.clip(r, 1.0 - self.eps, 1.0 + self.eps)
        correction = b._pos @ (np.maximum(r, rc) - r) + b._neg @ (np.minimum(r, rc) - r)
        return float(b._value(th, r, P) + correction)

    def grad(self, alpha) -> np.ndarray:
        b = self.base
        th = b.theta + check_params(alpha, b.problem.n_params)
        r = b._ratios(th)[0]
        rc = np.clip(r, 1.0 - self.eps, 1.0 + self.eps)
        dropped = np.where(rc > r, b._pos, 0.0) + np.where(rc < r, b._neg, 0.0)
        return b._grad(th, r, dropped)


# ---------------------------------------------------------------------------
# Chain iteration
# ---------------------------------------------------------------------------


@dataclass
class ChainIterationReport:
    """Outcome of one trust-weighted surrogate minimization step."""

    theta: np.ndarray
    alpha: np.ndarray
    accepted: bool
    kappa: float
    kappa_next: float
    inner_iters: int
    grad_inf: float
    surrogate_values: list = field(default_factory=list)


def _damped_solve(M, g) -> np.ndarray:
    """Newton step: solve (M + lam I) x = g by Cholesky. lam starts at
    zero; each failed factorization raises it, first to 1e-12 times the
    mean absolute diagonal (at least 1e-12), then tenfold, for at most 40
    tries."""
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(g))):
        raise InvalidStructureError("damped solve needs a finite matrix and right-hand side")
    p = g.shape[0]
    lam = 0.0
    scale = max(1.0, float(np.trace(np.abs(M))) / p)
    for _ in range(40):
        try:
            c = np.linalg.cholesky(M + lam * np.eye(p))
            return np.linalg.solve(c.T, np.linalg.solve(c, g))
        except np.linalg.LinAlgError:
            lam = 1e-12 * scale if lam == 0.0 else lam * 10.0
    raise RegularizationRequiredError("matrix could not be damped to positive definite")


def chain_iteration_step(
    problem: Problem,
    theta,
    surrogate=None,
    inner: str = "gd",
    kappa: float = 1.0,
    tol: float = 1e-8,
    max_inner: int = 100,
) -> ChainIterationReport:
    """Minimize the surrogate over the perturbation and step theta by kappa
    times the minimizer.

    The inner loop is gradient descent with backtracking ("gd") or damped
    Newton using the surrogate Hessian ("newton"), stopped when the
    inf-norm of the surrogate gradient falls below tol or after max_inner
    iterations. If the surrogate value rises five consecutive inner
    iterations the step is rejected and the returned report halves kappa.
    """
    theta = check_params(theta, problem.n_params)
    if not 0.0 <= kappa <= 1.0:
        raise ConfigError("trust weight kappa must lie in [0, 1]")
    if inner not in ("gd", "newton"):
        raise ConfigError(f"unknown inner optimizer {inner!r}")
    sur = surrogate if surrogate is not None else ExactSurrogate(problem, theta)

    alpha = np.zeros(problem.n_params)
    s_here = sur.value(alpha)
    s_trace = [s_here]
    step = 1.0
    rises = 0
    grad_inf = np.inf
    it = 0
    for it in range(1, max_inner + 1):
        g = sur.grad(alpha)
        grad_inf = float(np.abs(g).max())
        if grad_inf < tol:
            break
        if inner == "gd":
            direction = g * step
            trial = alpha - direction
            s_trial = sur.value(trial)
            bt = 0
            while s_trial > s_here and bt < 30:
                direction *= 0.5
                trial = alpha - direction
                s_trial = sur.value(trial)
                bt += 1
            if bt == 0:
                step *= 1.5
            else:
                step = max(step * 0.5, 1e-12)
        else:
            H = sur.hess(alpha)
            trial = alpha - _damped_solve(H, g)
            s_trial = sur.value(trial)
        rises = rises + 1 if s_trial > s_here else 0
        alpha, s_here = trial, s_trial
        s_trace.append(s_here)
        if rises >= 5:
            return ChainIterationReport(
                theta=theta.copy(),
                alpha=alpha,
                accepted=False,
                kappa=kappa,
                kappa_next=kappa / 2.0,
                inner_iters=it,
                grad_inf=grad_inf,
                surrogate_values=s_trace,
            )
    return ChainIterationReport(
        theta=theta + kappa * alpha,
        alpha=alpha,
        accepted=True,
        kappa=kappa,
        kappa_next=kappa,
        inner_iters=it,
        grad_inf=grad_inf,
        surrogate_values=s_trace,
    )


# ---------------------------------------------------------------------------
# Fisher information and natural gradient
# ---------------------------------------------------------------------------


@dataclass
class FisherMatrix:
    """Score-covariance metric with its estimation provenance, held as a
    BlockDiagonal; a (p, p) array given as blocks is one block."""

    blocks: BlockDiagonal
    source: str
    n_rollouts: int = 0
    stderr: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.blocks, BlockDiagonal):
            self.blocks = BlockDiagonal.full(self.blocks)

    @property
    def matrix(self) -> np.ndarray:
        """The assembled dense (p, p) metric."""
        return self.blocks.dense()

    def min_eigenvalue(self) -> float:
        return min(float(np.linalg.eigvalsh(B).min()) for _, B in self.blocks.groups)


def fisher_matrix(
    problem: Problem,
    theta,
    batch: Optional[RolloutBatch] = None,
    solution: Optional[Solution] = None,
) -> FisherMatrix:
    """Score outer-product metric, exact (tabular) or from a batch.

    Exact form: sum_x w(x) sum_y P(y|x) score score^T, with w the
    mass-normalized occupancy (stationary density in the average setting),
    in the blocks of the chain's fisher: one per row on softmax and
    policy-averaged chains, one dense block otherwise. A solution computed
    at theta may be passed in to skip the solve.
    Sampled form: one dense block of the discount-weighted outer products
    of the transitions' scores over the batch, normalized by the
    discount-weighted state-visit mass. Under geometric stopping the
    realized transition mass carries an extra factor of gamma, which the
    weights divide back out. Its stderr is infinite for one rollout.
    """
    theta = check_params(theta, problem.n_params)
    if batch is None:
        if not problem.chain.tabular:
            raise CapabilityError("exact Fisher needs a tabular chain")
        sol = _stationary_solution(problem, theta, solution)
        F = problem.chain.fisher(theta, sol.weights / sol.weights.sum())
        groups = tuple((idx, 0.5 * (B + np.swapaxes(B, -1, -2))) for idx, B in F.groups)
        return FisherMatrix(BlockDiagonal(F.n, groups), source="exact")

    check_batch(theta, batch)
    gamma = problem.gamma
    steps = batch.steps(effective_gamma(problem, batch))
    n = steps.lengths.size
    k = steps.trans
    S = transition_scores(problem, theta, steps)
    if batch.mode == "geometric":
        num_w = np.full(k.size, 1.0 / gamma)
        dens = steps.lengths.astype(float)
    else:
        w = gamma ** steps.t
        num_w, dens = w[k], np.bincount(steps.owner, weights=w, minlength=n)
    # per-rollout sums of the weighted outer products, grouped by owner
    nums = np.zeros((n, problem.n_params, problem.n_params))
    np.add.at(nums, steps.owner[k], num_w[:, None, None] * S[:, :, None] * S[:, None, :])
    F = nums.sum(axis=0) / dens.sum()
    # stderr of the ratio estimator via linearization around the means
    resid = nums - F[None, :, :] * dens[:, None, None]
    se = np.full(F.shape, np.inf)
    if n > 1:
        se = resid.std(axis=0, ddof=1) / (np.sqrt(n) * dens.mean())
    return FisherMatrix(0.5 * (F + F.T), source="sampled", n_rollouts=n, stderr=se)


def fisher_range(F: BlockDiagonal):
    """Eigenpairs of a symmetric block metric, group by group, and its top
    eigenvalue: ([(index, values, vectors)], top), with batched (m, k)
    values and (m, k, k) vectors. The numerical range is the eigenvalues
    above 1e-10 times the top one; the values off it read inf, so that a
    division by them drops their vectors."""
    eig = [(idx, *np.linalg.eigh(B)) for idx, B in F.groups]
    top = max([1e-300] + [float(w[:, -1].max()) for _, w, _ in eig])
    return [(idx, np.where(w > 1e-10 * top, w, np.inf), V) for idx, w, V in eig], top


def natural_gradient(grad, fisher: FisherMatrix, damping: float = 0.0) -> np.ndarray:
    """Natural direction on the range of F, (F + damping * top I)^+ grad.

    Softmax rows carry a logit-shift gauge, so the Fisher is singular; the
    direction lives in its range, with the ridge scaled to the top
    eigenvalue. Damped directions stay bounded even for flat geometry.
    A block-diagonal F has its blocks' eigenpairs, so the direction is
    solved block by block, with one batched eigh per block size.
    """
    damping = check_number("damping", damping, zero_ok=True)
    grad = np.asarray(grad, dtype=float)
    F = fisher.blocks
    if grad.shape != (F.n,):
        raise ConfigError("Fisher matrix and gradient sizes disagree")
    finite = all(np.isfinite(B).all() for _, B in F.groups)
    if not (finite and np.all(np.isfinite(grad))):
        raise InvalidStructureError("natural gradient needs a finite metric and gradient")
    eig, top = fisher_range(F)
    out = np.zeros(F.n)
    for idx, w, V in eig:
        c = np.einsum("mji,mj->mi", V, grad[idx]) / (w + damping * top)
        out[idx] = np.einsum("mij,mj->mi", V, c)
    return out


def surrogate_hessian(
    problem: Problem,
    theta,
    batch: Optional[RolloutBatch] = None,
    baseline: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Second derivative of the (exact or sampled) surrogate at alpha = 0."""
    if batch is None:
        return ExactSurrogate(problem, theta).hess(np.zeros(problem.n_params))
    return SampledSurrogate(problem, theta, batch, baseline).hess(np.zeros(problem.n_params))
