"""Linearly-solvable chain optimization and Z-learning.

For problems whose cost is a state charge r(x) plus the KL divergence of
the chain from a fixed baseline, the optimal chain is available in closed
form through the exponentiated negative value Z = exp(-V): a linear solve
with terminal boundary in the first-exit setting, a principal eigenpair
in the average setting. Z-learning estimates the same fixed point from
sampled transitions, either walking the baseline or the greedily induced
chain. A linear-feature parameterization of Z turns the induced chain
back into a differentiable model usable with every gradient tool here.

The walks train a TabularZ on Python floats. Their uniforms are those of
successive ``rng.random()`` calls, taken in blocks: one for the start
state, then per loop step one for a restart from the start law (drawn as
``Generator.choice(n, p=p0)`` draws it), or for a step one for the
double-sample target and then one for the successor, both inverse-CDF
lookups with ``model.sample_index``'s clamp. The greedy walk sums the
successor weights b Z^gamma left to right and powers with libm ``pow``.
numpy sums fewer than 8 terms in the same order, so at gamma = 1 and with
fewer than 8 successors per row the walks are bit-equal to a numpy loop
(tests/test_zlearn_walks.py keeps one); otherwise the greedy exact-g
target differs from it by rounding.

Three devices shorten each step without changing a bit of the walk:

- Every cumulative row, and the start law, is cut before its first entry
  reaching the row total. One ``bisect_right`` on the cut list returns
  what ``sample_index`` returns: a draw below the total finds the same
  first entry above it, and a draw at or above the total runs off the cut
  end, which is the clamp's first entry reaching the total.
- A Z^gamma list is refreshed by one ``pow`` at each update, where a read
  used to take one; it is the same ``pow`` of the same value. At gamma = 1
  the list is Z itself, since libm's ``pow(z, 1.0)`` is z exactly.
- The greedy successor is the first running sum of w / total above the
  draw. The sums are formed left to right, as ``accumulate`` forms them,
  so the scan stops where ``bisect_right`` on the whole list lands; only a
  draw at or above the last sum builds that list and takes ``_pick``.

The loop runs in chunks of record_every steps with on_record called
between chunks, so no step tests for a record.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat

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
    SegmentSoftmax,
    TableCost,
    TabularInitial,
    WeightedSumCost,
    check_number,
    check_param_stack,
    row_kl,
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
    Mw = M @ w
    for _ in range(max_iters):
        lam = Mw.max()
        if lam <= 0.0:
            raise SpectralError("power iteration collapsed to zero")
        w = Mw / lam
        Mw = M @ w  # the residual's product is the next iteration's
        if np.abs(Mw - lam * w).max() < 1e-12:
            break
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
    return _lmdp_problem(spec, P, setting, _start_law(spec, init_weights))


def _lmdp_problem(spec: LmdpSpec, P: np.ndarray, setting, start: np.ndarray) -> Problem:
    chain = FixedTabularChain(P, terminal=spec.terminal, n_params=1)
    cost = TableCost(lmdp_cost_table(spec, P), 1)
    return Problem(chain, cost, setting, TabularInitial(start))


def lmdp_objective(spec: LmdpSpec, P: np.ndarray, setting, init_weights=None) -> float:
    """Objective of a candidate chain; +inf for a chain off the baseline support
    or with unreachable terminals. Malformed start weights raise."""
    start = _start_law(spec, init_weights)
    try:
        return objective(_lmdp_problem(spec, P, setting, start), np.zeros(1))
    except (ReachabilityError, InvalidStructureError):
        return np.inf


# ---------------------------------------------------------------------------
# Parametric Z chain
# ---------------------------------------------------------------------------


class ZWeightedChain(ChainModel):
    """Baseline chain tilted by a linear-feature Z, as a differentiable model.

    P(x'|x, theta) = pbar(x'|x) exp(-g theta.phi(x')) / normalizer(x, theta),
    a segment softmax of log pbar(x'|x) - g theta.phi(x') over each row's
    baseline support. The score is g (mu(x) - phi(x')) with mu = P phi, and
    the log-row Hessian is -g^2 Cov_P(.|x)[phi], both on that support.
    """

    tabular = True

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
        self._x, self._y = np.nonzero(spec.baseline > 0.0)  # row-major: a segment per row
        self._log_base = np.log(spec.baseline[self._x, self._y])
        self._softmax = SegmentSoftmax(np.bincount(self._x, minlength=n))

    def successors(self, x):
        return self._y[self._x == x]

    def transition_matrix(self, theta, t: int = 0) -> np.ndarray:
        theta = check_param_stack(theta, self.n_params)
        energy = self.gamma_z * (theta @ self.features.T)
        probs = self._softmax.probs(self._log_base - energy[..., self._y])
        P = np.zeros(probs.shape[:-1] + (self.n_states, self.n_states))
        P[..., self._x, self._y] = probs
        return P

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
    return Problem(chain, cost, setting, TabularInitial(_start_law(spec, init_weights)))


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


def _start_law(spec: LmdpSpec, init_weights=None) -> np.ndarray:
    """init_weights normalized, by default uniform on the interior states."""
    if init_weights is None:
        init_weights = [0.0 if x in spec.terminal else 1.0 for x in range(spec.n_states)]
    w = np.asarray(init_weights, dtype=float)
    if w.shape != (spec.n_states,) or not np.all(np.isfinite(w) & (w >= 0.0)) or w.sum() <= 0.0:
        raise InvalidStructureError("init_weights must be one non-negative weight per state")
    return w / w.sum()


def _uniforms(rng: np.random.Generator):
    """The values of successive ``rng.random()`` calls, drawn in blocks."""
    return chain.from_iterable(map(np.ndarray.tolist, map(rng.random, repeat(4096))))


def _pick(cum: list, u: float) -> int:
    """``model.sample_index``, with its clamp, on a Python list."""
    i = bisect_right(cum, u)
    return i if i < len(cum) else bisect_left(cum, cum[-1])


def _cut(cum: np.ndarray) -> list:
    """A cumulative row cut before its first entry reaching the row total:
    ``bisect_right`` on it is ``_pick`` on the whole row."""
    cum = cum.tolist()
    return cum[: bisect_left(cum, cum[-1])]


def _running_pick(weights: list, total: float, u: float) -> int:
    """``_pick`` on the running sums of w / total, stopping at the first sum
    above u; only a draw at or above the last sum builds the whole list."""
    run, i = 0.0, 0
    for w in weights:
        run += w / total
        if run > u:
            return i
        i += 1
    return _pick(list(accumulate([w / total for w in weights])), u)


def _walk(spec: LmdpSpec, z, steps, seed, c, init_weights, record_every, on_record, mode):
    """The Z-learning loop shared by both walks, on Python floats; mode is
    "baseline", "exact-g" or "double-sample"."""
    if not isinstance(z, TabularZ):
        raise InvalidStructureError(f"Z-learning walks a TabularZ, not a {type(z).__name__}")
    for name, value in (("steps", steps), ("record_every", record_every)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise InvalidStructureError(f"{name} must be a non-negative integer, got {value!r}")
    c = check_number("c", c)
    draw = _uniforms(np.random.default_rng(seed)).__next__
    cdf0 = np.cumsum(_start_law(spec, init_weights))
    starts = _cut(cdf0 / cdf0[-1])  # the start law as Generator.choice normalizes it
    cuts = [_cut(row) for row in np.cumsum(spec.baseline, axis=1)]
    succ = [np.flatnonzero(row > 0.0).tolist() for row in spec.baseline]
    base_w = [row[sup].tolist() for row, sup in zip(spec.baseline, succ)]
    exp_neg_r = [math.exp(-r) for r in spec.state_cost.tolist()]
    terminal = [x in spec.terminal for x in range(spec.n_states)]
    gamma = z.gamma
    ztab = z.z_table().tolist()
    # Z^gamma, refreshed on each update; at gamma = 1 it is Z itself, as
    # libm pow(z, 1.0) returns z exactly
    zg_separate = gamma != 1.0
    zg = [v**gamma for v in ztab] if zg_separate else ztab
    visits = [0] * spec.n_states
    exact = mode == "exact-g"
    n_floored = 0

    # Both loops write the update out in full, sparing a call per step.
    def baseline_steps(x, n):
        nonlocal n_floored
        for _ in range(n):
            if terminal[x]:
                x = bisect_right(starts, draw())
            else:
                x_next = bisect_right(cuts[x], draw())
                target = exp_neg_r[x] * zg[x_next]
                beta = c / (c + visits[x])
                visits[x] += 1
                new = (1.0 - beta) * ztab[x] + beta * target
                if new < _Z_FLOOR:
                    new = _Z_FLOOR
                    n_floored += 1
                ztab[x] = new
                if zg_separate:
                    zg[x] = new**gamma
                x = x_next
        return x

    def greedy_steps(x, n):
        nonlocal n_floored
        for _ in range(n):
            if terminal[x]:
                x = bisect_right(starts, draw())
                continue
            weights = [b * zg[y] for b, y in zip(base_w[x], succ[x])]
            total = 0.0
            for w in weights:
                total += w
            if exact:
                target = exp_neg_r[x] * total
            else:
                target = exp_neg_r[x] * zg[bisect_right(cuts[x], draw())]
            i = _running_pick(weights, total, draw())
            beta = c / (c + visits[x])
            visits[x] += 1
            new = (1.0 - beta) * ztab[x] + beta * target
            if new < _Z_FLOOR:
                new = _Z_FLOOR
                n_floored += 1
            ztab[x] = new
            if zg_separate:
                zg[x] = new**gamma
            x = succ[x][i]
        return x

    walk = baseline_steps if mode == "baseline" else greedy_steps
    x = bisect_right(starts, draw())
    done = 0
    if record_every and on_record is not None:
        for done in range(record_every, steps + 1, record_every):
            x = walk(x, record_every)
            with np.errstate(divide="ignore"):
                snapshot = TabularZ(-np.log(ztab), gamma, z.terminal)
            on_record(done, snapshot)
    walk(x, steps - done)
    trained = z.copy()
    with np.errstate(divide="ignore"):
        trained.energies = -np.log(ztab)
    n_restarts = steps - sum(visits)  # every step either restarts or updates
    return trained, ZLearnStats(steps, np.array(visits, dtype=np.int64), n_floored, n_restarts)


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
    """Train a TabularZ from transitions sampled under the baseline chain.

    At each visited interior state the target is exp(-r(x)) Z(x')^gamma for
    the sampled successor x'. Episodes restart from the start law whenever
    a terminal state is entered. With record_every > 0, on_record(step,
    snapshot) fires every record_every loop steps. Returns (trained Z, stats).
    """
    return _walk(spec, z, steps, seed, c, init_weights, record_every, on_record, "baseline")


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
    """Train a TabularZ while walking the currently induced (greedily tilted) chain.

    Targets: "exact-g" evaluates exp(-r(x)) G[Z^gamma](x) with the known
    baseline row; "double-sample" replaces G by a fresh independent draw
    from the baseline row, keeping the walk and the target uncorrelated.
    """
    if mode not in ("exact-g", "double-sample"):
        raise InvalidStructureError(f"unknown integral mode {mode!r}")
    return _walk(spec, z, steps, seed, c, init_weights, record_every, on_record, mode)


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

    # nat - u projected onto the range of F, block by block
    diff = nat - u
    aligned = np.zeros_like(diff)
    for idx, w, V in fisher_range(fisher.blocks)[0]:
        V = V * np.isfinite(w)[:, None, :]
        aligned[idx] = np.einsum("mij,mkj,mk->mi", V, V, diff[idx])
    diff_aligned = float(np.abs(aligned).max())
    diff_raw = float(np.abs(diff).max())
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
