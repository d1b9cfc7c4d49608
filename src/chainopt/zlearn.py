"""Linearly-solvable chain optimization and Z-learning.

For problems whose cost is a state charge r(x) plus the KL divergence of
the chain from a fixed baseline, the optimal chain is available in closed
form through the exponentiated negative value Z = exp(-V): a linear solve
with terminal boundary in the first-exit setting, a principal eigenpair
in the average setting. Z-learning estimates the same fixed point from
sampled transitions, either walking the baseline or the greedily induced
chain. A linear-feature parameterization of Z turns the induced chain
back into a differentiable model usable with every gradient tool here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStructureError, ReachabilityError, SpectralError
from .exact import exact_gradient, objective, solve
from .mdp import LmdpSpec
from .model import (
    Average,
    ChainModel,
    FixedTabularChain,
    KlToFixedChainCost,
    Problem,
    TableCost,
    TabularInitial,
    WeightedSumCost,
    check_params,
    row_kl,
    sample_index,
)
from .surrogate import FisherMatrix, fisher_matrix, fisher_range, natural_gradient

_Z_FLOOR = 1e-12


def apply_G(baseline, f) -> np.ndarray:
    """Next-state expectation under the baseline chain: (G f)(x) = sum_y pbar(y|x) f(y)."""
    baseline = np.asarray(baseline, dtype=float)
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise InvalidStructureError("G needs finite function values")
    return baseline @ f


# ---------------------------------------------------------------------------
# Z representations
# ---------------------------------------------------------------------------


@dataclass
class TabularZ:
    """Exponentiated negative value stored as per-state energies E with
    Z = exp(-E). Terminal energies stay fixed at their boundary value."""

    energies: np.ndarray
    gamma: float = 1.0
    terminal: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self.energies = np.array(self.energies, dtype=float)
        self.terminal = frozenset(int(s) for s in self.terminal)
        if not np.all(np.isfinite(self.energies)):
            raise InvalidStructureError("energies must be finite")

    @property
    def n_states(self) -> int:
        return self.energies.shape[0]

    def z_table(self) -> np.ndarray:
        return np.exp(-self.energies)

    def copy(self) -> "TabularZ":
        return TabularZ(self.energies.copy(), self.gamma, self.terminal)


@dataclass
class LinearFeatureZ:
    """Z(x, theta) = exp(-theta . phi(x)) with fixed per-state features.

    Terminal feature rows must be zero so terminal Z stays pinned at 1.
    """

    features: np.ndarray  # (n_states, k)
    theta: np.ndarray
    gamma: float = 1.0
    terminal: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.theta = np.array(self.theta, dtype=float)
        self.terminal = frozenset(int(s) for s in self.terminal)
        if self.features.ndim != 2:
            raise InvalidStructureError("features must be a (states, k) matrix")
        if self.theta.shape != (self.features.shape[1],):
            raise InvalidStructureError("theta length must match feature width")
        for s in self.terminal:
            if np.any(self.features[s] != 0.0):
                raise InvalidStructureError(
                    f"terminal state {s} must have a zero feature row"
                )

    @property
    def n_states(self) -> int:
        return self.features.shape[0]

    def z_table(self) -> np.ndarray:
        return np.exp(-(self.features @ self.theta))

    def copy(self) -> "LinearFeatureZ":
        return LinearFeatureZ(self.features, self.theta.copy(), self.gamma, self.terminal)


# ---------------------------------------------------------------------------
# Exact solves
# ---------------------------------------------------------------------------


def solve_z_firstexit(spec: LmdpSpec) -> TabularZ:
    """Exact Z on the interior via the linear terminal-boundary system.

    With D = diag(exp(-r)) restricted to interior states, solves
    (I - D Pbar_II) Z_I = D Pbar_IT Z_T, where terminal Z is exp(-r) = 1.
    """
    if not spec.terminal:
        raise InvalidStructureError("first-exit Z solve needs terminal states")
    n = spec.n_states
    interior = np.array([x for x in range(n) if x not in spec.terminal], dtype=int)
    term = np.array(sorted(spec.terminal), dtype=int)
    z = np.ones(n)
    z[term] = np.exp(-spec.state_cost[term])
    if interior.size:
        D = np.exp(-spec.state_cost[interior])
        P_II = spec.baseline[np.ix_(interior, interior)]
        P_IT = spec.baseline[np.ix_(interior, term)]
        A = np.eye(interior.size) - D[:, None] * P_II
        rhs = D * (P_IT @ z[term])
        try:
            z_int = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            raise ReachabilityError("terminal states unreachable under the baseline")
        z[interior] = z_int
    if np.any(z <= 0.0):
        raise ReachabilityError("Z solution not positive; terminals unreachable")
    resid = np.abs(z - np.exp(-spec.state_cost) * apply_G(spec.baseline, z))
    if resid[interior].max(initial=0.0) > 1e-12 * max(1.0, np.abs(z).max()):
        raise ReachabilityError("Z fixed-point residual too large")
    with np.errstate(divide="ignore"):
        return TabularZ(-np.log(z), gamma=1.0, terminal=spec.terminal)


def solve_z_average(spec: LmdpSpec, max_iters: int = 100_000) -> tuple:
    """Principal eigenpair of f -> exp(-r) G[f] by power iteration.

    Returns (Z normalized to max 1, average cost J = -log eigenvalue).
    """
    if spec.terminal:
        raise InvalidStructureError("average Z solve needs an ergodic baseline")
    M = np.exp(-spec.state_cost)[:, None] * spec.baseline
    w = np.ones(spec.n_states)
    lam = 1.0
    for _ in range(max_iters):
        w_next = M @ w
        lam = w_next.max()
        if lam <= 0.0:
            raise SpectralError("power iteration collapsed to zero")
        w_next = w_next / lam
        if np.abs(M @ w_next - lam * w_next).max() < 1e-12:
            w = w_next
            break
        w = w_next
    else:
        raise SpectralError("power iteration did not converge")
    if np.any(w <= 0.0):
        raise SpectralError("principal eigenvector not positive")
    z = TabularZ(-np.log(w), gamma=1.0)
    return z, -math.log(lam)


def induced_chain(spec: LmdpSpec, z) -> np.ndarray:
    """Row-normalized tilt of the baseline: P(x'|x) = pbar(x'|x) Z(x')^g / G[Z^g](x)."""
    zg = z.z_table() ** z.gamma
    weights = spec.baseline * zg[None, :]
    norm = weights.sum(axis=1)
    if np.any(norm <= 0.0):
        raise InvalidStructureError("induced chain has an empty row")
    return weights / norm[:, None]


def lmdp_cost_table(spec: LmdpSpec, P: np.ndarray) -> np.ndarray:
    """Step cost of a candidate chain: r(x) + KL(P(.|x) || pbar(.|x))."""
    if np.any(spec.baseline[P > 0.0] <= 0.0):
        raise InvalidStructureError("candidate chain leaves the baseline support")
    return spec.state_cost + row_kl(P, spec.baseline)[0]


def lmdp_problem(spec: LmdpSpec, P: np.ndarray, setting, init_weights=None) -> Problem:
    """Wrap a candidate chain as an evaluatable fixed-chain problem."""
    n = spec.n_states
    chain = FixedTabularChain(P, terminal=spec.terminal, n_params=1)
    cost = TableCost(lmdp_cost_table(spec, P), 1)
    if init_weights is None:
        init_weights = np.array(
            [0.0 if x in spec.terminal else 1.0 for x in range(n)]
        )
        init_weights = init_weights / init_weights.sum()
    return Problem(chain, cost, setting, TabularInitial(init_weights))


def lmdp_objective(spec: LmdpSpec, P: np.ndarray, setting, init_weights=None) -> float:
    """Objective of a candidate chain; unreachable terminals give +inf."""
    try:
        prob = lmdp_problem(spec, P, setting, init_weights)
        return objective(prob, np.zeros(1))
    except (ReachabilityError, InvalidStructureError):
        return np.inf


# ---------------------------------------------------------------------------
# Parametric Z chain
# ---------------------------------------------------------------------------


class ZWeightedChain(ChainModel):
    """Baseline chain tilted by a linear-feature Z, as a differentiable model.

    P(x'|x, theta) = pbar(x'|x) exp(-g theta.phi(x')) / normalizer(x, theta).
    The score is g (mu(x) - phi(x')) with mu = P phi, and the log-row
    Hessian is -g^2 Cov_P(.|x)[phi], both on the baseline support.
    """

    tabular = True
    samplable = True
    differentiable = True
    twice_differentiable = True

    def __init__(self, spec: LmdpSpec, features, gamma: float = 1.0):
        self.spec = spec
        self.features = np.asarray(features, dtype=float)
        n = spec.n_states
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise InvalidStructureError("features must be a (states, k) matrix")
        for s in spec.terminal:
            if np.any(self.features[s] != 0.0):
                raise InvalidStructureError(
                    f"terminal state {s} must have a zero feature row"
                )
        self.n_states = n
        self.n_params = self.features.shape[1]
        self.gamma_z = float(gamma)
        self.terminal = spec.terminal
        self._support = [np.flatnonzero(spec.baseline[x] > 0.0) for x in range(n)]

    def successors(self, x):
        return self._support[int(x)]

    def transition_matrix(self, theta, t: int = 0) -> np.ndarray:
        theta = check_params(theta, self.n_params)
        # subtract each row's largest log weight on its support
        logw = np.where(self.spec.baseline > 0.0, -self.gamma_z * (self.features @ theta), -np.inf)
        weights = self.spec.baseline * np.exp(logw - logw.max(axis=1, keepdims=True))
        return weights / weights.sum(axis=1, keepdims=True)

    def score_sums(self, theta, x, y, coef, groups, n_groups: int, t: int = 0) -> np.ndarray:
        mu = self.transition_matrix(theta) @ self.features
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        out = np.zeros((n_groups, self.n_params))
        terms = np.asarray(coef, dtype=float)[:, None] * (mu[x] - self.features[y])
        np.add.at(out, np.asarray(groups, dtype=np.int64), terms)
        return self.gamma_z * out

    def row_hess(self, theta, W, t: int = 0) -> np.ndarray:
        # with C = W * P and r = C 1: g^2 [sum_{x,y} C (mu_x - phi_y)(mu_x - phi_y)^T
        # - sum_x r_x Cov_x(phi)], expanded into products of (n, k) tables
        P = self.transition_matrix(theta)
        phi = self.features
        mu = P @ phi
        C = np.asarray(W, dtype=float) * P
        r = C.sum(axis=1)
        A = mu.T @ C @ phi
        H = 2.0 * (mu.T * r) @ mu - A - A.T + (phi.T * (C.sum(axis=0) - P.T @ r)) @ phi
        return self.gamma_z**2 * H


def z_problem(spec: LmdpSpec, features, setting, init_weights=None, gamma: float = 1.0) -> Problem:
    """Differentiable problem whose chain is the feature-tilted baseline and
    whose cost is the state charge plus control KL."""
    chain = ZWeightedChain(spec, features, gamma)
    cost = WeightedSumCost(
        [TableCost(spec.state_cost, chain.n_params), KlToFixedChainCost(chain, spec.baseline)]
    )
    n = spec.n_states
    if init_weights is None:
        init_weights = np.array([0.0 if x in spec.terminal else 1.0 for x in range(n)])
        init_weights = init_weights / init_weights.sum()
    return Problem(chain, cost, setting, TabularInitial(init_weights))


# ---------------------------------------------------------------------------
# Z-learning
# ---------------------------------------------------------------------------


@dataclass
class ZLearnStats:
    """Bookkeeping from one training run."""

    steps: int
    visits: np.ndarray
    n_floored: int
    n_restarts: int


def z_bellman_residual(spec: LmdpSpec, z) -> float:
    """Max relative violation of Z = exp(-r) G[Z^gamma] on interior states."""
    zt = z.z_table()
    target = np.exp(-spec.state_cost) * apply_G(spec.baseline, zt**z.gamma)
    rel = np.abs(zt - target) / zt
    interior = [x for x in range(spec.n_states) if x not in spec.terminal]
    return float(rel[interior].max()) if interior else 0.0


def _init_distribution(spec: LmdpSpec, init_weights):
    if init_weights is not None:
        w = np.asarray(init_weights, dtype=float)
    else:
        w = np.array([0.0 if x in spec.terminal else 1.0 for x in range(spec.n_states)])
    return w / w.sum()


class _ZUpdater:
    """Shared update rule: tabular Z-space averaging with positivity floor,
    or a feature-space gradient step on the squared target error."""

    def __init__(self, z, c: float):
        self.z = z
        self.c = float(c)
        self.tabular = isinstance(z, TabularZ)
        self.visits = np.zeros(z.n_states, dtype=np.int64)
        self.n_floored = 0
        self.step_count = 0
        if self.tabular:
            self._ztab = z.z_table()

    def z_at(self, x) -> float:
        if self.tabular:
            return float(self._ztab[x])
        return float(np.exp(-(self.z.features[x] @ self.z.theta)))

    def update(self, x, target):
        beta = self.c / (self.c + self.visits[x])
        self.visits[x] += 1
        self.step_count += 1
        if self.tabular:
            new = (1.0 - beta) * self._ztab[x] + beta * target
            if new < _Z_FLOOR:
                new = _Z_FLOOR
                self.n_floored += 1
            self._ztab[x] = new
        else:
            zx = self.z_at(x)
            err = zx - target
            lr = self.c / (self.c + self.step_count)
            self.z.theta += lr * err * zx * self.z.features[x]

    def snapshot(self):
        if self.tabular:
            with np.errstate(divide="ignore"):
                return TabularZ(-np.log(self._ztab), self.z.gamma, self.z.terminal)
        return self.z.copy()

    def finish(self):
        if self.tabular:
            with np.errstate(divide="ignore"):
                self.z.energies = -np.log(self._ztab)
        return self.z


def zlearn_baseline(
    spec: LmdpSpec,
    z,
    steps: int,
    seed: int = 0,
    c: float = 100.0,
    init_weights=None,
    record_every: int = 0,
    on_record=None,
) -> tuple:
    """Train Z from transitions sampled under the baseline chain.

    At each visited interior state the target is exp(-r(x)) Z(x')^gamma for
    the sampled successor x'. Episodes restart from the start law whenever
    a terminal state is entered. With record_every > 0, on_record(step,
    snapshot) fires every record_every loop steps. Returns (trained Z, stats).
    """
    rng = np.random.default_rng(seed)
    upd = _ZUpdater(z.copy(), c)
    zz = upd.z
    p0 = _init_distribution(spec, init_weights)
    base_cums = np.cumsum(spec.baseline, axis=1)
    n_restarts = 0
    x = int(rng.choice(spec.n_states, p=p0))
    for k in range(steps):
        if x in spec.terminal:
            x = int(rng.choice(spec.n_states, p=p0))
            n_restarts += 1
        else:
            x_next = sample_index(base_cums[x], rng.random())
            target = math.exp(-spec.state_cost[x]) * upd.z_at(x_next) ** zz.gamma
            upd.update(x, target)
            x = x_next
        if record_every and (k + 1) % record_every == 0 and on_record is not None:
            on_record(k + 1, upd.snapshot())
    return upd.finish(), ZLearnStats(steps, upd.visits, upd.n_floored, n_restarts)


def zlearn_greedy(
    spec: LmdpSpec,
    z,
    steps: int,
    seed: int = 0,
    mode: str = "exact-g",
    c: float = 100.0,
    init_weights=None,
    record_every: int = 0,
    on_record=None,
) -> tuple:
    """Train Z while walking the currently induced (greedily tilted) chain.

    Targets: "exact-g" evaluates exp(-r(x)) G[Z^gamma](x) with the known
    baseline row; "double-sample" replaces G by a fresh independent draw
    from the baseline row, keeping the walk and the target uncorrelated.
    """
    if mode not in ("exact-g", "double-sample"):
        raise InvalidStructureError(f"unknown integral mode {mode!r}")
    rng = np.random.default_rng(seed)
    upd = _ZUpdater(z.copy(), c)
    zz = upd.z
    p0 = _init_distribution(spec, init_weights)
    base_cums = np.cumsum(spec.baseline, axis=1)
    supports = [np.flatnonzero(row > 0.0) for row in spec.baseline]
    base_rows = [row[sup] for row, sup in zip(spec.baseline, supports)]
    n_restarts = 0
    x = int(rng.choice(spec.n_states, p=p0))
    for k in range(steps):
        if x in spec.terminal:
            x = int(rng.choice(spec.n_states, p=p0))
            n_restarts += 1
        else:
            sup = supports[x]
            zvals = np.array([upd.z_at(y) for y in sup]) ** zz.gamma
            weights = base_rows[x] * zvals
            if mode == "exact-g":
                target = math.exp(-spec.state_cost[x]) * float(weights.sum())
            else:
                y = sample_index(base_cums[x], rng.random())
                target = math.exp(-spec.state_cost[x]) * upd.z_at(y) ** zz.gamma
            probs = weights / weights.sum()
            x_next = int(sup[sample_index(np.cumsum(probs), rng.random())])
            upd.update(x, target)
            x = x_next
        if record_every and (k + 1) % record_every == 0 and on_record is not None:
            on_record(k + 1, upd.snapshot())
    return upd.finish(), ZLearnStats(steps, upd.visits, upd.n_floored, n_restarts)


# ---------------------------------------------------------------------------
# Compatible-feature natural gradient
# ---------------------------------------------------------------------------


@dataclass
class CompatibleGradientReport:
    """Natural gradient vs the parameter-minus-fitted-value identity."""

    natural_grad: np.ndarray
    omega: np.ndarray
    theta_minus_omega: np.ndarray
    aligned_difference: float
    raw_difference: float
    damping: float
    fisher: FisherMatrix


def compatible_natural_gradient_check(
    spec: LmdpSpec, features, theta, damping: float = 1e-9
) -> CompatibleGradientReport:
    """Check F^{-1} grad J = theta - omega on the feature-tilted chain.

    Average setting. omega is the stationary-density-weighted least-squares
    fit of the differential value onto the features. Both sides are
    compared after projecting onto the row space of F, which removes the
    energy-offset gauge direction that F cannot see (tilting is invariant
    to constant energy shifts). damping is relative to the top eigenvalue
    of F, as in natural_gradient.
    """
    theta = np.asarray(theta, dtype=float)
    prob = z_problem(spec, features, Average())
    sol = solve(prob, theta)
    grad = exact_gradient(prob, theta, solution=sol)
    fisher = fisher_matrix(prob, theta, solution=sol)
    nat = natural_gradient(grad, fisher, damping)

    d, v = sol.weights, sol.values
    phi = np.asarray(features, dtype=float)
    W = phi.T * d[None, :]
    omega = np.linalg.lstsq(W @ phi, W @ v, rcond=None)[0]
    u = theta - omega

    _, V, _ = fisher_range(fisher.matrix)
    proj = V @ V.T
    diff_aligned = float(np.abs(proj @ nat - proj @ u).max())
    diff_raw = float(np.abs(nat - u).max())
    return CompatibleGradientReport(
        natural_grad=nat,
        omega=omega,
        theta_minus_omega=u,
        aligned_difference=diff_aligned,
        raw_difference=diff_raw,
        damping=damping,
        fisher=fisher,
    )


# ---------------------------------------------------------------------------
# Plain-text serialization
# ---------------------------------------------------------------------------


def z_to_text(z) -> str:
    """One "index energy" pair per line."""
    energies = (
        z.energies if isinstance(z, TabularZ) else np.asarray(z.features) @ z.theta
    )
    return "".join(f"{i} {e:.17g}\n" for i, e in enumerate(energies))


def z_from_text(text: str, gamma: float = 1.0, terminal=()) -> TabularZ:
    """Inverse of z_to_text."""
    pairs = {}
    for line in text.strip().splitlines():
        idx, val = line.split()
        pairs[int(idx)] = float(val)
    if sorted(pairs) != list(range(len(pairs))):
        raise InvalidStructureError("energy table must cover indices 0..n-1")
    energies = np.array([pairs[i] for i in range(len(pairs))])
    return TabularZ(energies, gamma=gamma, terminal=terminal)
