"""Frozen-density surrogate objectives and the optimizers built on them.

The surrogate S(alpha) re-evaluates cost and transition rows at a
perturbed parameter theta + alpha while keeping the visitation weights
and the value function frozen at theta. Its gradient at alpha = 0 equals
the exact objective gradient, which makes full inner minimization of S
(chain iteration), ratio clipping (proximal updates), Fisher
preconditioning, and surrogate Hessians all share one code path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CapabilityError, ConfigError, RegularizationRequiredError
from .exact import Solution, solution_at
from .model import Average, Problem, TimeVarying, check_params
from .rollout import (
    RolloutBatch,
    ValueApprox,
    batch_steps,
    baseline_expected_values,
    check_batch,
    effective_gamma,
)

_LOG_RATIO_CAP = 30.0


# ---------------------------------------------------------------------------
# Exact surrogate
# ---------------------------------------------------------------------------


class ExactSurrogate:
    """S(alpha) = sum_x w(x) [L(x, theta+alpha) + gamma sum_y P(y|x, theta+alpha) V(y)]

    with w and V frozen at theta. Requires a tabular chain so rows can be
    re-evaluated in closed form. A solution computed at theta may be passed
    in to skip the solve.
    """

    def __init__(self, problem: Problem, theta, solution: Optional[Solution] = None):
        self.problem = problem
        self.theta = check_params(theta, problem.n_params)
        sol = solution_at(problem, self.theta, solution)
        self.weights, self.values, self.gamma = sol.weights, sol.values, sol.gamma
        self._W = np.outer(self.weights, self.values)

    def value(self, alpha) -> float:
        th = self.theta + check_params(alpha, self.problem.n_params)
        n = self.problem.chain.n_states
        L = self.problem.cost.value_table(n, th)
        P = self.problem.chain.transition_matrix(th)
        return float(self.weights @ (L + self.gamma * (P @ self.values)))

    def grad(self, alpha) -> np.ndarray:
        th = self.theta + check_params(alpha, self.problem.n_params)
        n = self.problem.chain.n_states
        g = self.weights @ self.problem.cost.grad_table(n, th)
        return g + self.gamma * self.problem.chain.row_vjp(th, self._W)

    def hess(self, alpha) -> np.ndarray:
        chain, cost = self.problem.chain, self.problem.cost
        if not chain.twice_differentiable or not cost.twice_differentiable:
            raise CapabilityError("surrogate Hessian needs second derivatives")
        th = self.theta + check_params(alpha, self.problem.n_params)
        n = chain.n_states
        p = self.problem.n_params
        P = chain.transition_matrix(th)
        S = chain.score_table(th)
        H = np.zeros((p, p))
        for x in range(n):
            H += self.weights[x] * cost.hess(x, th)
        chain_term = np.einsum("x,xy,y,xyp,xyq->pq", self.weights, P, self.values, S, S)
        for x in range(n):
            if x in chain.terminal:
                continue
            wx = self.weights[x]
            if wx == 0.0:
                continue
            for y in chain.successors(x):
                pv = P[x, y] * self.values[y]
                if pv == 0.0:
                    continue
                chain_term += wx * pv * chain.log_prob_hess(x, y, th)
        H += self.gamma * chain_term
        return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Sampled surrogate
# ---------------------------------------------------------------------------


class SampledSurrogate:
    """Monte-Carlo surrogate built from a rollout batch generated at theta.

    Per rollout the contribution is
        sum_t g^t L(x_t, theta+alpha) + sum_{t<T} g^{t+1} ratio_t(alpha) Ahat_t,
    with ratio_t the transition-probability ratio between theta+alpha and
    theta, and Ahat the baseline-corrected cost-to-go. Its alpha-gradient
    at zero reproduces the score-based gradient estimate on the same batch.
    Log ratios are capped at 30 (counted in n_ratio_clipped) to keep far
    perturbations finite.
    """

    def __init__(
        self,
        problem: Problem,
        theta,
        batch: RolloutBatch,
        baseline: Optional[ValueApprox] = None,
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

        steps = batch_steps(batch, self.gamma)
        if not steps.rollouts:
            raise CapabilityError("batch has no usable rollouts")
        self.n_valid = len(steps.rollouts)
        self.states = steps.states
        self.state_w = steps.weights
        k = steps.trans
        self.trans_x = steps.states[k]
        self.trans_y = steps.states[k + 1]
        self.trans_w = self.gamma * steps.weights[k]
        self.trans_adv = steps.returns[k + 1]
        if baseline is not None and self.tabular:
            b_table = baseline_expected_values(problem, self.theta, baseline)[0]
            self.trans_adv = self.trans_adv - b_table[self.trans_x]
        elif baseline is not None:
            self.trans_adv = self.trans_adv - np.array(
                [baseline.predict(chain.mean(x, self.theta)) for x in self.trans_x]
            )
        if self.tabular:
            self._logp0 = self._log_prob_table(self.theta)[self.trans_x, self.trans_y]
        else:
            self._logp0 = np.array(
                [
                    chain.log_prob(x, y, self.theta)
                    for x, y in zip(self.trans_x, self.trans_y)
                ]
            )

    def _log_prob_table(self, th):
        P = self.problem.chain.transition_matrix(th)
        with np.errstate(divide="ignore"):
            return np.log(P)

    def _ratios(self, th):
        chain = self.problem.chain
        if self.tabular:
            logp = self._log_prob_table(th)[self.trans_x, self.trans_y]
        else:
            logp = np.array(
                [chain.log_prob(x, y, th) for x, y in zip(self.trans_x, self.trans_y)]
            )
        logr = logp - self._logp0
        over = logr > _LOG_RATIO_CAP
        if np.any(over):
            self.n_ratio_clipped += int(over.sum())
            warnings.warn("probability ratios overflowed; log ratios capped", RuntimeWarning)
            logr = np.minimum(logr, _LOG_RATIO_CAP)
        return np.exp(logr)

    def _cost_terms(self, th, order: int):
        cost = self.problem.cost
        if self.tabular:
            n = self.problem.chain.n_states
            if order == 0:
                return self.state_w @ cost.value_table(n, th)[self.states]
            if order == 1:
                return self.state_w @ cost.grad_table(n, th)[self.states]
            table = np.stack([cost.hess(x, th) for x in range(n)])
            return np.einsum("m,mpq->pq", self.state_w, table[self.states])
        if order == 0:
            vals = np.array([cost.value(x, th) for x in self.states])
            return self.state_w @ vals
        if order == 1:
            g = np.stack([cost.grad(x, th) for x in self.states])
            return self.state_w @ g
        h = np.stack([cost.hess(x, th) for x in self.states])
        return np.einsum("m,mpq->pq", self.state_w, h)

    def value(self, alpha) -> float:
        th = self.theta + check_params(alpha, self.problem.n_params)
        total = self._cost_terms(th, 0)
        if self.trans_x.size:
            total += (self.trans_w * self._ratios(th)) @ self.trans_adv
        return float(total / self.n_valid)

    def _score_term(self, th, coef) -> np.ndarray:
        """sum over transitions of coef * score(x, y) at th. Tabular chains
        scatter coef / P into a matrix and take the chain's row_vjp."""
        chain = self.problem.chain
        if not self.tabular:
            S = np.stack([chain.score(x, y, th) for x, y in zip(self.trans_x, self.trans_y)])
            return coef @ S
        n = chain.n_states
        C = np.bincount(self.trans_x * n + self.trans_y, weights=coef, minlength=n * n)
        C = C.reshape(n, n)
        W = np.divide(C, chain.transition_matrix(th), out=np.zeros_like(C), where=C != 0.0)
        return chain.row_vjp(th, W)

    def grad(self, alpha) -> np.ndarray:
        th = self.theta + check_params(alpha, self.problem.n_params)
        g = self._cost_terms(th, 1)
        if self.trans_x.size:
            g = g + self._score_term(th, self.trans_w * self._ratios(th) * self.trans_adv)
        return g / self.n_valid

    def hess(self, alpha) -> np.ndarray:
        chain, cost = self.problem.chain, self.problem.cost
        if not chain.twice_differentiable or not cost.twice_differentiable:
            raise CapabilityError("surrogate Hessian needs second derivatives")
        th = self.theta + check_params(alpha, self.problem.n_params)
        p = self.problem.n_params
        H = self._cost_terms(th, 2)
        if self.trans_x.size:
            coef = self.trans_w * self._ratios(th) * self.trans_adv
            if self.tabular:
                S = chain.score_table(th)[self.trans_x, self.trans_y]
                H = H + np.einsum("m,mp,mq->pq", coef, S, S)
                n = chain.n_states
                W = np.zeros((n, n))
                np.add.at(W, (self.trans_x, self.trans_y), coef)
                for x in range(n):
                    for y in chain.successors(x):
                        if W[x, y] != 0.0:
                            H = H + W[x, y] * chain.log_prob_hess(x, y, th)
            else:
                for x, y, c in zip(self.trans_x, self.trans_y, coef):
                    s = chain.score(x, y, th)
                    H = H + c * (np.outer(s, s) + chain.log_prob_hess(x, y, th))
        H = H / self.n_valid
        return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Clipped (proximal) surrogate
# ---------------------------------------------------------------------------


class ClippedSurrogate:
    """Ratio-clipped sampled surrogate for conservative minimization.

    Each ratio term is replaced by the pessimistic composition
    max(ratio * a, clip(ratio, 1-eps, 1+eps) * a), so the clipped objective
    upper-bounds the unclipped one and offers no incentive to push ratios
    outside the trust region. Gradients follow the active branch, with ties
    resolved to the unclipped branch.
    """

    def __init__(self, base: SampledSurrogate, clip_radius: float):
        if not np.isfinite(clip_radius) or clip_radius <= 0.0:
            raise ConfigError("clip radius must be positive")
        self.base = base
        self.eps = float(clip_radius)

    def _branches(self, th):
        r = self.base._ratios(th)
        rc = np.clip(r, 1.0 - self.eps, 1.0 + self.eps)
        a = self.base.trans_adv
        unclipped = r * a
        clipped = rc * a
        use_clip = clipped > unclipped
        return r, np.where(use_clip, clipped, unclipped), use_clip

    def value(self, alpha) -> float:
        th = self.base.theta + check_params(alpha, self.base.problem.n_params)
        total = self.base._cost_terms(th, 0)
        if self.base.trans_x.size:
            _, term, _ = self._branches(th)
            total += self.base.trans_w @ term
        return float(total / self.base.n_valid)

    def grad(self, alpha) -> np.ndarray:
        th = self.base.theta + check_params(alpha, self.base.problem.n_params)
        g = self.base._cost_terms(th, 1)
        if self.base.trans_x.size:
            r, _, use_clip = self._branches(th)
            coef = np.where(use_clip, 0.0, self.base.trans_w * r * self.base.trans_adv)
            g = g + self.base._score_term(th, coef)
        return g / self.base.n_valid


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


def _damped_newton_direction(H, g):
    p = g.shape[0]
    lam = 0.0
    scale = max(1.0, float(np.trace(np.abs(H))) / p)
    for _ in range(40):
        try:
            c = np.linalg.cholesky(H + lam * np.eye(p))
            return np.linalg.solve(c.T, np.linalg.solve(c, g))
        except np.linalg.LinAlgError:
            lam = 1e-10 * scale if lam == 0.0 else lam * 10.0
    raise RegularizationRequiredError("surrogate Hessian could not be damped to PD")


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
            trial = alpha - _damped_newton_direction(H, g)
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
    """Score-covariance metric with its estimation provenance."""

    matrix: np.ndarray
    source: str
    n_rollouts: int = 0
    stderr: Optional[np.ndarray] = None

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())


def fisher_matrix(
    problem: Problem,
    theta,
    batch: Optional[RolloutBatch] = None,
    solution: Optional[Solution] = None,
) -> FisherMatrix:
    """Score outer-product metric, exact (tabular) or from a batch.

    Exact form: sum_x w(x) sum_y P(y|x) score score^T, with w the
    mass-normalized occupancy (stationary density in the average setting),
    built by the chain's fisher from per-row blocks; a solution computed
    at theta may be passed in to skip the solve.
    Sampled form: discount-weighted outer products of stored scores over
    the batch, normalized by the discount-weighted state-visit mass. Under
    geometric stopping the realized transition mass carries an extra
    factor of gamma, which the weights divide back out.
    """
    theta = check_params(theta, problem.n_params)
    if batch is None:
        if not problem.chain.tabular:
            raise CapabilityError("exact Fisher needs a tabular chain")
        sol = solution_at(problem, theta, solution)
        F = problem.chain.fisher(theta, sol.weights / sol.weights.sum())
        return FisherMatrix(matrix=0.5 * (F + F.T), source="exact")

    check_batch(theta, batch)
    gamma = problem.gamma
    geometric = batch.mode == "geometric"
    p = problem.n_params
    nums = []
    dens = []
    for r in batch.rollouts:
        if r.diverged:
            continue
        T = r.n_steps
        if geometric:
            num_w = np.full(T, 1.0 / gamma)
            den = float(T + 1)
        else:
            num_w = gamma ** np.arange(T)
            den = float((gamma ** np.arange(T + 1)).sum())
        nums.append(np.einsum("t,tp,tq->pq", num_w, r.scores, r.scores))
        dens.append(den)
    if not nums:
        raise CapabilityError("batch has no usable rollouts")
    nums = np.stack(nums)
    dens = np.asarray(dens)
    F = nums.sum(axis=0) / dens.sum()
    # stderr of the ratio estimator via linearization around the means
    n = len(dens)
    resid = nums - F[None, :, :] * dens[:, None, None]
    se = resid.std(axis=0, ddof=1) / (np.sqrt(n) * dens.mean()) if n > 1 else None
    return FisherMatrix(matrix=0.5 * (F + F.T), source="sampled", n_rollouts=n, stderr=se)


def natural_gradient(grad, fisher: FisherMatrix, damping: float = 0.0) -> np.ndarray:
    """Solve (F + damping I) g_nat = grad by Cholesky, escalating the
    damping tenfold (at most three times) if the factorization fails."""
    grad = np.asarray(grad, dtype=float)
    F = fisher.matrix
    p = grad.shape[0]
    if F.shape != (p, p):
        raise ConfigError("Fisher matrix and gradient sizes disagree")
    lam = float(damping)
    scale = max(1.0, float(np.trace(np.abs(F))) / p)
    for attempt in range(4):
        try:
            c = np.linalg.cholesky(F + lam * np.eye(p))
            return np.linalg.solve(c.T, np.linalg.solve(c, grad))
        except np.linalg.LinAlgError:
            if attempt == 3:
                break
            lam = 1e-12 * scale if lam == 0.0 else lam * 10.0
    raise RegularizationRequiredError("Fisher solve failed after damping escalation")


def surrogate_hessian(
    problem: Problem,
    theta,
    batch: Optional[RolloutBatch] = None,
    baseline: Optional[ValueApprox] = None,
) -> np.ndarray:
    """Second derivative of the (exact or sampled) surrogate at alpha = 0."""
    if batch is None:
        return ExactSurrogate(problem, theta).hess(np.zeros(problem.n_params))
    return SampledSurrogate(problem, theta, batch, baseline).hess(np.zeros(problem.n_params))
