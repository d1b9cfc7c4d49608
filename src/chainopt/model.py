"""Core problem primitives.

A problem couples a parameterized Markov chain with a parameterized step
cost. Both read the same flat parameter vector, so a single gradient step
can reshape the dynamics and the cost landscape at once. Settings select
how step costs accumulate: discounted, first-exit, long-run average, or
finite horizon with time-varying stages.
"""

from __future__ import annotations

import abc
import copy
import itertools
import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    CapabilityError,
    DivergenceUndefinedError,
    InvalidStructureError,
)

Array = np.ndarray


def check_params(theta, n_params: int) -> Array:
    """Validate theta and return it as a float64 vector of length ``n_params``."""
    th = np.asarray(theta, dtype=float)
    if th.shape != (n_params,):
        raise InvalidStructureError(
            f"parameter vector has shape {th.shape}, expected ({n_params},)"
        )
    if not np.all(np.isfinite(th)):
        raise InvalidStructureError("parameter vector contains non-finite entries")
    return th


def check_number(name: str, value, *, zero_ok: bool = False) -> float:
    """value as a float, refused by name unless it is a finite real number
    above 0, or at least 0 with zero_ok."""
    ok = not isinstance(value, bool) and isinstance(value, Real)
    if not (ok and (0.0 <= value if zero_ok else 0.0 < value) and value < math.inf):
        sign = "non-negative" if zero_ok else "positive"
        raise InvalidStructureError(f"{name} must be a finite {sign} number, got {value!r}")
    return float(value)


def check_count(name: str, value, least: int = 1) -> int:
    """value as an int, refused by name unless it is an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise InvalidStructureError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_param_stack(theta, n_params: int) -> Array:
    """check_params for a vector, or for every row of a stack of shape
    (..., n_params)."""
    th = np.asarray(theta, dtype=float)
    if th.ndim < 2 or th.shape[-1] != n_params:
        return check_params(th, n_params)
    if not np.all(np.isfinite(th)):
        raise InvalidStructureError("parameter vector contains non-finite entries")
    return th


def sample_index(cum: Array, u: float) -> int:
    """Inverse-CDF draw: the first index whose cumulative weight exceeds u.

    A draw at or above the row's total, which rounding in the cumulative
    sum makes possible, is clamped to the last index with positive weight,
    so a zero-weight index is never returned.
    """
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx < cum.shape[0]:
        return idx
    return int(np.searchsorted(cum, cum[-1], side="left"))


def _rows_times(X: Array, M: Array) -> Array:
    """M @ x per row x of X, a broadcast product and a last-axis sum: unlike
    a BLAS product's, a row's result does not depend on the row count."""
    return (X[:, None, :] * M).sum(axis=2)


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpisodicDiscounted:
    """Infinite-horizon accumulation with discount factor below 1.

    gamma = 0 is allowed as the degenerate one-step objective.
    """

    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidStructureError(f"discount must lie in [0, 1), got {self.gamma}")


@dataclass(frozen=True)
class FirstExit:
    """Undiscounted accumulation until an absorbing zero-cost terminal state."""

    @property
    def gamma(self) -> float:
        return 1.0


@dataclass(frozen=True)
class Average:
    """Long-run average cost per step of an ergodic chain."""

    @property
    def gamma(self) -> float:
        return 1.0


@dataclass(frozen=True)
class TimeVarying:
    """Finite horizon: costs at stages 0..horizon, transitions at 0..horizon-1."""

    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidStructureError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def gamma(self) -> float:
        return 1.0


Setting = Union[EpisodicDiscounted, FirstExit, Average, TimeVarying]


# ---------------------------------------------------------------------------
# Initial distributions
# ---------------------------------------------------------------------------


class TabularInitial:
    """Initial distribution over a finite state set."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidStructureError("initial weights must be a non-empty vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidStructureError("initial weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise InvalidStructureError(f"initial weights sum to {w.sum()}, expected 1")
        self.weights = w / w.sum()
        self._cum = np.cumsum(self.weights)

    def sample(self, rng: np.random.Generator) -> int:
        return sample_index(self._cum, rng.random())


class GaussianInitial:
    """Gaussian initial distribution for continuous-state chains."""

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        n = self.mean.shape[0]
        if self.cov.shape != (n, n):
            raise InvalidStructureError("covariance shape does not match mean")
        if not np.allclose(self.cov, self.cov.T):
            raise InvalidStructureError("covariance must be symmetric")
        try:
            self._chol = np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:
            raise InvalidStructureError("covariance must be positive definite") from exc

    def states(self, noise) -> Array:
        """The start states of the (m, n_x) standard normal draws noise."""
        return self.mean + _rows_times(noise, self._chol)


InitialDistribution = Union[TabularInitial, GaussianInitial]


# ---------------------------------------------------------------------------
# Chain interface
# ---------------------------------------------------------------------------


class ChainModel(abc.ABC):
    """Parameterized transition model P(x'|x, theta).

    A chain supports what it implements: a method it lacks raises
    CapabilityError naming the chain's class. Tabular chains index states
    by integers 0..n_states-1 and may carry a set of absorbing terminal
    states whose rows are parameter-free self loops. A tabular chain is
    its tables: transition_matrix, score_sums and row_hess; the
    row_vjp and fisher defaults sum score_sums over the support of P.
    transition_matrix also takes theta with leading stack axes, shape
    (..., n_params), and returns the matrices stacked alike, (..., n, n).
    The exact solvers refuse a table of any other shape; the
    finite-difference oracle then re-probes one theta at a time.
    A continuous chain has n_x-dimensional states and answers for (m, n_x)
    arrays of transitions x[k] -> y[k] at once: score_sums as above,
    log_density and density_hess, and next_states draws successors.
    """

    n_params: int = 0
    n_states: Optional[int] = None
    n_x: Optional[int] = None
    terminal: frozenset = frozenset()

    tabular: bool = False

    # --- tables -----------------------------------------------------------

    def successors(self, x: int) -> Sequence[int]:
        raise CapabilityError(f"{type(self).__name__} has no successor lists")

    def transition_matrix(self, theta: Array, t: int = 0) -> Array:
        """Dense (n_states, n_states) transition matrix; (..., n_states,
        n_states) at theta of shape (..., n_params)."""
        raise CapabilityError(f"{type(self).__name__} is not tabular")

    def score_sums(self, theta: Array, x, y, coef, groups, n_groups: int, t: int = 0) -> Array:
        """Row g of the result is the sum of coef[k] * score(x[k], y[k]) over
        the transitions k with groups[k] = g, where score is the gradient of
        log P(y | x, theta); shape (n_groups, n_params)."""
        raise CapabilityError(f"{type(self).__name__} has no score sums")

    def row_hess(self, theta: Array, W: Array, t: int = 0) -> Array:
        """sum_{x,y} W[x, y] d2P[x, y]/dtheta2, shape (n_params, n_params):
        the second-order twin of row_vjp."""
        raise CapabilityError(f"{type(self).__name__} has no second derivatives")

    def log_density(self, theta: Array, x, y, t: int = 0) -> Array:
        """log p(y[k] | x[k], theta) of each continuous transition, shape (m,)."""
        raise CapabilityError(f"{type(self).__name__} has no log density")

    def density_hess(self, theta: Array, x, y, coef, t: int = 0) -> Array:
        """sum_k coef[k] d2p(y[k] | x[k])/dtheta2 / p(y[k] | x[k]): the continuous row_hess."""
        raise CapabilityError(f"{type(self).__name__} has no second derivatives")

    def score_table(self, theta: Array, t: int = 0) -> Array:
        """Dense (n, n, n_params) table of score vectors, zero off support,
        summed by score_sums with one group per support transition. No
        library path builds it; the tests' dense references do."""
        if not self.tabular:
            raise CapabilityError(f"{type(self).__name__} is not tabular")
        n = self.n_states
        succ = [np.asarray(self.successors(x), dtype=np.int64) for x in range(n)]
        xs = np.repeat(np.arange(n), [s.size for s in succ])
        ys = np.concatenate(succ)
        k = xs.size
        out = np.zeros((n, n, self.n_params))
        out[xs, ys] = self.score_sums(theta, xs, ys, np.ones(k), np.arange(k), k, t)
        return out

    def row_vjp(self, theta: Array, W: Array, t: int = 0) -> Array:
        """sum_{x,y} W[x, y] dP[x, y]/dtheta, with dP = P * score: one
        score_sums group over the support of P."""
        P = self.transition_matrix(theta, t)
        xs, ys = np.nonzero(P)
        coef = np.asarray(W, dtype=float)[xs, ys] * P[xs, ys]
        return self.score_sums(theta, xs, ys, coef, np.zeros(xs.size, np.int64), 1, t)[0]

    def fisher(self, theta: Array, w: Array, t: int = 0) -> BlockDiagonal:
        """sum_x w[x] sum_y P[x, y] score score^T as a BlockDiagonal: here
        one (n_params, n_params) block, from one score_sums group per
        transition on the support of P. Row-local chains return one block
        per row."""
        P = self.transition_matrix(theta, t)
        xs, ys = np.nonzero(P)
        k = xs.size
        S = self.score_sums(theta, xs, ys, np.ones(k), np.arange(k), k, t)
        return BlockDiagonal.full((S.T * (np.asarray(w, dtype=float)[xs] * P[xs, ys])) @ S)

    # --- sampling ---------------------------------------------------------

    def make_sampler(self, theta: Array, t: int = 0):
        """Return a callable (x, rng) -> x_next of a tabular chain, with
        tables precomputed; terminal states draw nothing."""
        cums = np.cumsum(self.transition_matrix(theta, t), axis=1)
        terminal = self.terminal

        def step(x, rng):
            if x in terminal:
                return x
            return sample_index(cums[x], rng.random())

        return step

    def next_states(self, theta: Array, x, noise, t: int = 0) -> Array:
        """The successors of (m, n_x) continuous states x under (m, n_x)
        standard normal draws noise, each row from its own state and draws."""
        raise CapabilityError(f"{type(self).__name__} has no sampler")

    # --- bottleneck: a low-dimensional policy output eta per state ---------

    def bottleneck_tables(self, theta: Array) -> tuple:
        """The (n_states, k) table eta of each state's output at theta and
        the (n_states, k, n_states) tensor p of dP[x, :]/deta[x]: off the
        terminal rows, P[x] = eta[x] @ p[x]."""
        raise CapabilityError(f"{type(self).__name__} has no bottleneck tables")

    def bottleneck_vjp(self, theta: Array, C: Array) -> Array:
        """sum_{x,a} C[x, a] deta[x, a]/dtheta, shape (n_params,)."""
        raise CapabilityError(f"{type(self).__name__} has no bottleneck tables")


# ---------------------------------------------------------------------------
# Cost interface
# ---------------------------------------------------------------------------


class CostModel(abc.ABC):
    """Parameterized step cost L(x, theta).

    A cost on a finite state set is a table and its contractions:
    value_table(theta, t) holds L(x, theta) for every state x,
    grad_sum(theta, w, t) = sum_x w[..., x] dL(x, theta), shape (...,
    n_params), hess_sum(theta, w, t) = sum_x w[x] d2L(x, theta), and
    n_states is the number of states it covers. value_table also takes
    theta of shape (..., n_params) and returns the tables stacked alike,
    (..., n_states); the exact solvers refuse a table of any other shape,
    as for ChainModel.transition_matrix. A cost on n_x-dimensional
    continuous states answers for an (m, n_x) array x of them at once:
    state_values(theta, x, t) holds L(x[k], theta), shape (m,);
    state_grad_sums(theta, x, w, groups, n_groups, t) sums w[k] dL(x[k],
    theta) per group, as ChainModel.score_sums sums scores; and
    state_hess_sum(theta, x, w, t) = sum_k w[k] d2L(x[k], theta). As for
    ChainModel, a cost supports what it implements: a method it lacks
    raises CapabilityError naming the cost's class.
    """

    n_params: int = 0
    n_states: Optional[int] = None
    n_x: Optional[int] = None

    def value_table(self, theta: Array, t: int = 0) -> Array:
        raise CapabilityError(f"{type(self).__name__} has no cost table")

    def grad_sum(self, theta: Array, w: Array, t: int = 0) -> Array:
        raise CapabilityError(f"{type(self).__name__} has no cost table")

    def hess_sum(self, theta: Array, w: Array, t: int = 0) -> Array:
        raise CapabilityError(f"{type(self).__name__} has no second derivatives")

    def state_values(self, theta: Array, x, t: int = 0) -> Array:
        raise CapabilityError(f"{type(self).__name__} has no state values")

    def state_grad_sums(self, theta: Array, x, w, groups, n_groups: int, t: int = 0) -> Array:
        raise CapabilityError(f"{type(self).__name__} has no state gradients")

    def state_hess_sum(self, theta: Array, x, w, t: int = 0) -> Array:
        raise CapabilityError(f"{type(self).__name__} has no second derivatives")

    def bottleneck_grad(self, eta: Array) -> Array:
        """dL(x)/deta[x] at the (n_states, k) bottleneck table eta of
        ChainModel.bottleneck_tables, shape (n_states, k)."""
        raise CapabilityError(f"{type(self).__name__} has no bottleneck gradient")


def row_kl(P: Array, Q: Array):
    """Per-row KL(P[..., x, :] || Q[..., x, :]) over the entries where P > 0,
    for a P of shape (..., n, m) and a Q of P's shape or of shape (n, m).

    Returns the (..., n) divergences, those entries (xs, ys) with xs
    counting the rows of all leading axes (x itself for an (n, m) P), and
    their log ratios log(P / Q). Callers make sure Q is positive wherever
    P is.
    """
    m = P.shape[-1]
    at = np.flatnonzero(P > 0.0)
    xs, ys = np.divmod(at, m)
    p = P.ravel()[at]
    logr = np.log(p / Q.ravel()[at % Q.size])
    kl = np.bincount(xs, weights=p * logr, minlength=math.prod(P.shape[:-1]))
    return kl.reshape(P.shape[:-1]), xs, ys, logr


# ---------------------------------------------------------------------------
# Concrete chains
# ---------------------------------------------------------------------------


def _first_row_fault(live, rows, n: int) -> str:
    """The fault of the first successor row that fails a check, taken in
    order: no successors, a successor twice, one outside 0..n-1."""
    for x, row in zip(live, rows):
        succ = [int(y) for y in row]
        if not succ:
            return f"non-terminal state {x} has no successors"
        if len(set(succ)) != len(succ):
            return f"state {x} lists a successor twice"
        for y in succ:
            if not (0 <= y < n):
                return f"successor {y} of state {x} out of range"


@dataclass(frozen=True)
class BlockDiagonal:
    """An (n, n) matrix held as its diagonal blocks, grouped by block size.

    Each group is a pair of an (m, k) array of indices and the (m, k, k)
    stack of the blocks on them. The blocks partition 0..n-1, and the
    matrix is zero off them. A matrix with no block structure is one
    block over every index."""

    n: int
    groups: tuple

    @classmethod
    def full(cls, A) -> "BlockDiagonal":
        """The (n, n) array A as one block."""
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        return cls(n, ((np.arange(n)[None], A[None]),) if n else ())

    def dense(self) -> Array:
        """The assembled (n, n) matrix."""
        H = np.zeros((self.n, self.n))
        for idx, B in self.groups:
            H[idx[:, :, None], idx[:, None, :]] = B
        return H


class SegmentSoftmax:
    """Softmax over consecutive non-empty segments of a flat logit vector,
    with its VJP and curvature. seg_of maps each parameter to its segment;
    block_index holds, per segment length k, the (m, k) parameter indices
    of the m segments of that length."""

    def __init__(self, lens):
        lens = np.asarray(lens, dtype=np.int64)
        self.n_params = int(lens.sum())
        self.seg_len = lens
        self.seg_of = np.repeat(np.arange(lens.size), lens)
        self.seg_start = np.cumsum(lens) - lens
        # not np.unique, whose first call imports numpy.ma
        self.block_index = tuple(
            self.seg_start[lens == k][:, None] + np.arange(k) for k in sorted(set(lens.tolist()))
        )

    def probs(self, z) -> Array:
        """Each segment's softmax of z, shape (..., n_params)."""
        # transposed, so that the segments run along the first axis
        z = np.asarray(z, dtype=float).T
        if z.size == 0:
            return z.T
        z = z - np.maximum.reduceat(z, self.seg_start)[self.seg_of]
        e = np.exp(z)
        return (e / self.segment_sums(e)).T

    def segment_sums(self, v: Array) -> Array:
        """Per-parameter sum of v over its segment, along the first axis."""
        if v.size == 0:
            return v
        return np.add.reduceat(v, self.seg_start)[self.seg_of]

    def vjp(self, z, c) -> Array:
        """sum_k c_k dp_k/dz at the probabilities p of z: p * (c - p.c) per
        segment."""
        p = self.probs(z)
        u = p * c
        return u - p * self.segment_sums(u)

    def curvature(self, z, c, w) -> BlockDiagonal:
        """sum_k c_k d2p_k/dz2 + w (diag p - p p^T) per segment at the
        probabilities p of z, one block per segment, for c and w per
        parameter (w equal within a segment). With u = p * c, m its segment
        sums and v = m - w, block entry (i, j) is ((m + v)_i p_i - u_i) p_j
        - p_i u_j, plus u_i - v_i p_i on the diagonal: w = 0 gives the
        Hessian of sum_k c_k p_k, c = 0 the Fisher.
        """
        p = self.probs(z)
        u = p * c
        m = self.segment_sums(u)
        v = m - w
        a, diag = (m + v) * p - u, u - v * p
        groups = []
        for idx in self.block_index:
            pb, ub = p[idx], u[idx]
            B = a[idx][:, :, None] * pb[:, None, :] - pb[:, :, None] * ub[:, None, :]
            r = np.arange(idx.shape[1])
            B[:, r, r] += diag[idx]
            groups.append((idx, B))
        return BlockDiagonal(self.n_params, tuple(groups))


class SoftmaxChain(ChainModel):
    """Tabular chain with one softmax logit per allowed transition.

    Each non-terminal state owns a contiguous block of parameters, one per
    successor; its row is the softmax of that block, a segment of varying
    length of one SegmentSoftmax. Terminal states are absorbing self loops
    that consume no parameters. An optional fixed logit offset lets several
    instances share parameters while realizing different stage dynamics.
    """

    tabular = True

    def __init__(self, n_states, support, terminal=(), logit_offset=None):
        n = self.n_states = int(n_states)
        self.terminal = frozenset(int(s) for s in terminal)
        for s in self.terminal:
            if not (0 <= s < n):
                raise InvalidStructureError(f"terminal state {s} out of range")
        live = [x for x in range(n) if x not in self.terminal]
        rows = [support.get(x, ()) for x in live]
        lens = np.fromiter(map(len, rows), np.int64, len(live))
        # Flat layout of the parameters: parameter k is the logit of the
        # transition _flat_x[k] -> _flat_y[k]; each non-terminal state's
        # logits form one segment of the softmax.
        self._flat_y = np.fromiter(itertools.chain.from_iterable(rows), np.int64)
        self._flat_x = np.repeat(np.array(live, dtype=np.int64), lens)
        fault = (lens == 0).any() or ((self._flat_y < 0) | (self._flat_y >= n)).any()
        if not fault:
            # _key_param[x * n_states + y] is the logit of x -> y, -1 off the support;
            # a repeated successor leaves its key naming only one of its logits
            keys = self._flat_x * n + self._flat_y
            self._key_param = np.full(n * n, -1, dtype=np.int32)
            self._key_param[keys] = np.arange(keys.size)
            fault = np.any(self._key_param[keys] != np.arange(keys.size))
        if fault:
            raise InvalidStructureError(_first_row_fault(live, rows, n))
        extra = set(support) - set(live)
        if extra & self.terminal:
            raise InvalidStructureError("terminal states must not list successors")
        if extra:
            raise InvalidStructureError(f"support lists state {min(extra)} outside 0..{n_states - 1}")
        self._softmax = SegmentSoftmax(lens)
        ends = np.cumsum(lens).tolist()
        self._slices = dict(zip(live, map(slice, self._softmax.seg_start.tolist(), ends)))
        self.n_params = self._flat_y.size
        self._offset = self._checked_offset(logit_offset)
        self._term = np.array(sorted(self.terminal), dtype=np.int64)
        self._is_term = np.zeros(n, dtype=bool)
        self._is_term[self._term] = True

    def _checked_offset(self, logit_offset) -> Array:
        if logit_offset is None:
            return np.zeros(self.n_params)
        offset = np.asarray(logit_offset, dtype=float)
        if offset.shape != (self.n_params,):
            raise InvalidStructureError("logit offset length must match n_params")
        if not np.all(np.isfinite(offset)):
            raise InvalidStructureError("logit offset contains non-finite entries")
        return offset

    def _with_offset(self, logit_offset) -> "SoftmaxChain":
        """This chain with another logit offset, sharing its support layout."""
        chain = copy.copy(self)
        chain._offset = chain._checked_offset(logit_offset)
        return chain

    def param_slice(self, x: int) -> slice:
        return self._slices[x]

    def successors(self, x: int):
        if x in self.terminal:
            return [x]
        return list(self._flat_y[self._slices[x]])

    def transition_matrix(self, theta, t: int = 0) -> Array:
        return self._matrix(theta + self._offset)

    def _matrix(self, z) -> Array:
        """The transition matrices of logits z of shape (..., n_params)."""
        probs = self._softmax.probs(z)
        P = np.zeros(probs.shape[:-1] + (self.n_states, self.n_states))
        P[..., self._flat_x, self._flat_y] = probs
        P[..., self._term, self._term] = 1.0
        return P

    def row_vjp(self, theta, W, t: int = 0) -> Array:
        W = np.asarray(W, dtype=float)[self._flat_x, self._flat_y]
        return self._softmax.vjp(theta + self._offset, W)

    def fisher(self, theta, w, t: int = 0) -> BlockDiagonal:
        # block x is w_x (diag p - p p^T); terminal rows carry no parameters
        w = np.asarray(w, dtype=float)[self._flat_x]
        return self._softmax.curvature(theta + self._offset, 0.0, w)

    def row_hess(self, theta, W, t: int = 0) -> Array:
        W = np.asarray(W, dtype=float)[self._flat_x, self._flat_y]
        return self._softmax.curvature(theta + self._offset, W, 0.0).dense()

    def score_sums(self, theta, x, y, coef, groups, n_groups: int, t: int = 0) -> Array:
        return self._score_sums(theta + self._offset, None, x, y, coef, groups, n_groups)

    def _score_sums(self, z, stage, x, y, coef, groups, n_groups: int) -> Array:
        """score_sums at logits z; with stage, z is an (S, n_params) stack
        and transition k is scored at the logits z[stage[k]]."""
        # score(x, y) is e_k - p on x's segment, with k the logit of x -> y:
        # a bincount of coef over (group, k), minus each transition's coef
        # times its segment's probabilities. Terminal rows score zero.
        x, y, groups = (np.asarray(a, dtype=np.int64) for a in (x, y, groups))
        coef = np.asarray(coef, dtype=float)
        p, n, kernel = self.n_params, self.n_states, self._softmax
        if x.size and not (0 <= min(x.min(), y.min()) and max(x.max(), y.max()) < n):
            raise InvalidStructureError("a transition lies outside the support")
        k = self._key_param[x * n + y]
        on = k >= 0
        if not on.all():  # off the support: rows of terminal states only
            if not self._is_term[x[~on]].all():
                raise InvalidStructureError("a transition lies outside the support")
            x, k, coef, groups = x[on], k[on], coef[on], groups[on]
            stage = None if stage is None else np.asarray(stage)[on]
        probs = kernel.probs(z)
        hits = np.bincount(groups * p + k, weights=coef, minlength=n_groups * p)
        if stage is None:
            # one segment per group and state: sum the coef mass first
            mass = np.bincount(groups * n + x, weights=coef, minlength=n_groups * n)
            return hits.reshape(n_groups, p) - mass.reshape(n_groups, n)[:, self._flat_x] * probs
        # coef times the stage's probabilities over the entries of each
        # transition's segment, in one bincount. When the (group, stage,
        # segment) cells are fewer than those entries, the coef mass is
        # summed per cell first and only the occupied cells are expanded.
        seg = kernel.seg_of[k]
        size = kernel.seg_len[seg]
        n_stages, n_seg = probs.shape[0], kernel.seg_len.size
        n_cells = n_groups * n_stages * n_seg
        if n_cells <= size.sum():
            mass = np.bincount((groups * n_stages + stage) * n_seg + seg, weights=coef,
                               minlength=n_cells)
            cell = np.flatnonzero(mass)
            coef = mass[cell]
            groups, cell = np.divmod(cell, n_stages * n_seg)
            stage, seg = np.divmod(cell, n_seg)
            size = kernel.seg_len[seg]
        entry = np.arange(size.sum())
        entry += np.repeat(kernel.seg_start[seg] - (np.cumsum(size) - size), size)
        mass = probs[np.repeat(stage, size), entry]
        mass *= np.repeat(coef, size)
        entry += np.repeat(groups * p, size)
        hits -= np.bincount(entry, weights=mass, minlength=n_groups * p)
        return hits.reshape(n_groups, p)


class FixedTabularChain(ChainModel):
    """Parameter-free tabular chain wrapping a fixed row-stochastic matrix."""

    tabular = True

    def __init__(self, matrix, terminal=(), n_params=0):
        P = np.asarray(matrix, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InvalidStructureError("transition matrix must be square")
        if np.any(P < -1e-12) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):
            raise InvalidStructureError("transition matrix rows must be distributions")
        self._P = np.clip(P, 0.0, None)
        self._P /= self._P.sum(axis=1, keepdims=True)
        self.n_states = P.shape[0]
        self.terminal = frozenset(int(s) for s in terminal)
        for s in self.terminal:
            if not (0 <= s < self.n_states):
                raise InvalidStructureError(f"terminal state {s} out of range")
            if abs(self._P[s, s] - 1.0) > 1e-12:
                raise InvalidStructureError(f"terminal state {s} must be absorbing")
        self.n_params = int(n_params)

    def transition_matrix(self, theta, t: int = 0) -> Array:
        return np.broadcast_to(self._P, np.shape(theta)[:-1] + self._P.shape).copy()

    def successors(self, x):
        return list(np.nonzero(self._P[x] > 0)[0])

    def score_sums(self, theta, x, y, coef, groups, n_groups: int, t: int = 0) -> Array:
        return np.zeros((n_groups, self.n_params))

    def row_hess(self, theta, W, t: int = 0) -> Array:
        return np.zeros((self.n_params, self.n_params))


class GaussianLinearChain(ChainModel):
    """Continuous-state chain x' ~ Normal(A x + B (K x + theta), cov).

    theta is the policy's offset, one entry per input, and the gain
    K = K_fixed (zero by default) stays fixed. The score of a transition
    x -> y is B' cov^-1 (y - (A + B K) x - B theta). The chain is
    time-invariant: its methods accept any t and ignore it.
    """

    def __init__(self, A, B, cov, K_fixed=None):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        self.n_x = self.A.shape[0]
        self.n_u = self.B.shape[1]
        if self.A.shape != (self.n_x, self.n_x) or self.B.shape[0] != self.n_x:
            raise InvalidStructureError("A must be square and B conformable")
        if self.cov.shape != (self.n_x, self.n_x) or not np.allclose(self.cov, self.cov.T):
            raise InvalidStructureError("noise covariance must be square symmetric")
        try:
            self._chol = np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:
            raise InvalidStructureError("noise covariance must be positive definite") from exc
        self._prec = np.linalg.inv(self.cov)
        if K_fixed is None:
            K_fixed = np.zeros((self.n_u, self.n_x))
        self.K_fixed = np.asarray(K_fixed, dtype=float)
        if self.K_fixed.shape != (self.n_u, self.n_x):
            raise InvalidStructureError(
                f"K_fixed has shape {self.K_fixed.shape}, expected ({self.n_u}, {self.n_x})"
            )
        self.n_params = self.n_u
        self._closed = self.A + self.B @ self.K_fixed
        self._gain = self._prec @ self.B
        self._log_norm = np.linalg.slogdet(self.cov)[1] + self.n_x * math.log(2.0 * math.pi)

    def _resid(self, theta, x, y) -> Array:
        """y[k] less its mean given x[k], for each transition; shape (m, n_x)."""
        off = self.B @ np.asarray(theta, dtype=float)
        return np.asarray(y, dtype=float) - (np.asarray(x, dtype=float) @ self._closed.T + off)

    def score_sums(self, theta, x, y, coef, groups, n_groups: int, t=0) -> Array:
        S = np.asarray(coef, dtype=float)[:, None] * (self._resid(theta, x, y) @ self._gain)
        out = np.zeros((n_groups, self.n_params))
        np.add.at(out, groups, S)
        return out

    def log_density(self, theta, x, y, t=0) -> Array:
        resid = self._resid(theta, x, y)
        return -0.5 * (np.sum((resid @ self._prec) * resid, axis=1) + self._log_norm)

    def density_hess(self, theta, x, y, coef, t=0) -> Array:
        # d2p / p = s s' + d2 log p, and d2 log p = -B' cov^-1 B at every transition
        S, coef = self._resid(theta, x, y) @ self._gain, np.asarray(coef, dtype=float)
        return (S.T * coef) @ S - coef.sum() * self.eta_fisher()

    def eta_fisher(self) -> Array:
        """Per-transition information of the policy output, B' cov^-1 B."""
        return self.B.T @ self._prec @ self.B

    def next_states(self, theta, x, noise, t: int = 0) -> Array:
        off = self.B @ np.asarray(theta, dtype=float)
        return _rows_times(x, self._closed) + off + _rows_times(noise, self._chol)


def _stage_stack(model, method: str, theta, t, k: int) -> Array:
    """method of a time-varying model's stage at each entry of the 1-D
    array t, asked at that t, stacked after theta's stack axes. A stage's
    table whose k table axes do not follow theta's stack axes is refused,
    naming the stage's class."""
    lead = np.shape(theta)[:-1]
    tables = []
    for u in np.asarray(t, dtype=np.int64).tolist():
        stage = model._at(u)
        table = getattr(stage, method)(theta, u)
        shape = np.shape(table)
        if shape != lead + shape[len(shape) - k:]:
            raise InvalidStructureError(
                f"{type(stage).__name__}.{method} returned shape {shape}, "
                f"expected {lead + shape[len(shape) - k:]}"
            )
        tables.append(table)
    # stage-major in memory, so that each stage's tables stay contiguous
    return np.moveaxis(np.stack(tables), 0, len(lead))


class TimeVaryingChain(ChainModel):
    """Stage-indexed tabular chain dispatching to one tabular sub-chain per
    stage.

    All stages read the same parameter vector; queries beyond the last
    stage reuse the final sub-chain, and the stage of time t is asked at t.
    transition_matrix and score_sums also answer for an integer array of
    times: transition_matrix(theta, t) for a 1-D t of S times has shape
    (..., S, n, n), and score_sums takes t aligned with the transitions.
    Stages that share one SoftmaxChain layout and differ only in their
    logit offsets, as SoftmaxChain._with_offset makes them, answer at one
    theta with one softmax of theta plus the (S, n_params) stack of
    offsets. Other stages, and a stack of theta in transition_matrix, are
    asked once per entry of t in transition_matrix and once per distinct
    time present in score_sums.
    """

    tabular = True

    def __init__(self, stages: Sequence[ChainModel]):
        if len(stages) == 0:
            raise InvalidStructureError("need at least one stage chain")
        n_params = stages[0].n_params
        n_states = stages[0].n_states
        terminal = stages[0].terminal
        for c in stages:
            if not c.tabular:
                raise InvalidStructureError(f"stage chain {type(c).__name__} is not tabular")
            if c.n_params != n_params or c.n_states != n_states:
                raise InvalidStructureError("stage chains must agree on sizes")
            if c.terminal != terminal:
                raise InvalidStructureError("stage chains must agree on terminal states")
        self.stages = list(stages)
        self.n_params = n_params
        self.n_states = n_states
        self.terminal = terminal
        layout = getattr(stages[0], "_softmax", None)
        shared = all(type(c) is SoftmaxChain and c._softmax is layout for c in stages)
        self._offsets = np.stack([c._offset for c in stages]) if shared else None

    def _at(self, t: int) -> ChainModel:
        return self.stages[min(t, len(self.stages) - 1)]

    def _shared_stage(self, t) -> Array:
        """The stage of each time in t, for the shared-layout stages."""
        return np.minimum(np.asarray(t, dtype=np.int64), len(self.stages) - 1)

    def successors(self, x):
        return list(dict.fromkeys(y for c in self.stages for y in c.successors(x)))

    def score_table(self, theta, t: int = 0):
        return self._at(t).score_table(theta, t)

    def row_vjp(self, theta, W, t: int = 0):
        return self._at(t).row_vjp(theta, W, t)

    def fisher(self, theta, w, t: int = 0):
        return self._at(t).fisher(theta, w, t)

    def score_sums(self, theta, x, y, coef, groups, n_groups: int, t=0):
        if np.ndim(t) == 0:
            return self._at(t).score_sums(theta, x, y, coef, groups, n_groups, t)
        if self._offsets is not None:
            z = np.asarray(theta, dtype=float) + self._offsets
            stage = self._shared_stage(t)
            return self.stages[0]._score_sums(z, stage, x, y, coef, groups, n_groups)
        x, y, coef, groups, t = (np.asarray(a) for a in (x, y, coef, groups, t))
        out = np.zeros((n_groups, self.n_params))
        for u in np.unique(t).tolist():
            at = t == u
            out += self._at(u).score_sums(theta, x[at], y[at], coef[at], groups[at], n_groups, u)
        return out

    def row_hess(self, theta, W, t: int = 0):
        return self._at(t).row_hess(theta, W, t)

    def transition_matrix(self, theta, t=0):
        if np.ndim(t) == 0:
            return self._at(t).transition_matrix(theta, t)
        # a stack of theta is built a stage at a time: one softmax of the
        # whole stack makes temporaries the size of every stage's tables,
        # which cost more than the calls they save
        if self._offsets is not None and np.ndim(theta) == 1:
            z = np.asarray(theta, dtype=float) + self._offsets[self._shared_stage(t)]
            return self.stages[0]._matrix(z)
        return _stage_stack(self, "transition_matrix", theta, t, 2)


def staged(model):
    """The model as a time-varying one, which answers for arrays of times:
    a TimeVaryingChain or TimeVaryingCost as it is, and any other tabular
    model as the single stage of one, asked at each time."""
    if isinstance(model, (TimeVaryingChain, TimeVaryingCost)):
        return model
    return (TimeVaryingChain if isinstance(model, ChainModel) else TimeVaryingCost)([model])


# ---------------------------------------------------------------------------
# Concrete costs
# ---------------------------------------------------------------------------


class TableCost(CostModel):
    """Parameter-free per-state cost table."""

    def __init__(self, values, n_params=0):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1:
            raise InvalidStructureError("cost table must be a vector")
        if not np.all(np.isfinite(self.values)):
            raise InvalidStructureError("cost table must be finite")
        self.n_params = int(n_params)
        self.n_states = self.values.shape[0]

    def value_table(self, theta, t: int = 0) -> Array:
        return np.broadcast_to(self.values, np.shape(theta)[:-1] + self.values.shape).copy()

    def grad_sum(self, theta, w, t: int = 0) -> Array:
        return np.zeros(np.shape(w)[:-1] + (self.n_params,))

    def hess_sum(self, theta, w, t: int = 0) -> Array:
        return np.zeros((self.n_params, self.n_params))


class QuadraticCost(CostModel):
    """Per-state quadratic cost c[x] + b[x].theta + 0.5 w[x] theta'Q theta,
    with Q symmetric, or given as the vector of its diagonal."""

    def __init__(self, const, lin, quad, quad_weights=None):
        self.const = np.asarray(const, dtype=float)
        self.lin = np.asarray(lin, dtype=float)
        self.quad = np.asarray(quad, dtype=float)
        n = self.const.shape[0]
        self.n_states = n
        self.n_params = self.lin.shape[1]
        if self.lin.shape != (n, self.n_params):
            raise InvalidStructureError("linear term shape mismatch")
        if self.quad.shape not in ((self.n_params,), (self.n_params, self.n_params)):
            raise InvalidStructureError("quadratic term shape mismatch")
        # exact symmetry needs one bool temporary, allclose several float ones
        Q = self.quad
        if Q.ndim == 2 and not (np.array_equal(Q, Q.T) or np.allclose(Q, Q.T)):
            raise InvalidStructureError("quadratic term must be symmetric")
        if quad_weights is None:
            quad_weights = np.ones(n)
        self.quad_weights = np.asarray(quad_weights, dtype=float)
        if self.quad_weights.shape != (n,):
            raise InvalidStructureError(
                f"quadratic weights have shape {self.quad_weights.shape}, expected ({n},)"
            )

    def _q_times(self, th: Array) -> Array:
        return self.quad * th if self.quad.ndim == 1 else th @ self.quad

    def value_table(self, theta, t: int = 0) -> Array:
        th = np.asarray(theta, dtype=float)
        quad = (self._q_times(th)[..., None, :] @ th[..., None])[..., 0]  # (..., 1)
        return self.const + th @ self.lin.T + 0.5 * self.quad_weights * quad

    def grad_sum(self, theta, w, t: int = 0) -> Array:
        w, th = np.asarray(w, dtype=float), np.asarray(theta, dtype=float)
        if w.size > self.n_states**2:  # more rows than states: the (n, p) table is smaller
            return w @ (self.lin + np.outer(self.quad_weights, self._q_times(th)))
        return w @ self.lin + (w @ self.quad_weights)[..., None] * self._q_times(th)

    def hess_sum(self, theta, w, t: int = 0) -> Array:
        Q = float(np.asarray(w, dtype=float) @ self.quad_weights) * self.quad
        return np.diag(Q) if Q.ndim == 1 else Q


class StateQuadraticCost(CostModel):
    """Parameter-free cost x'Mx on continuous states, at any t."""

    def __init__(self, M, n_params=0):
        self.M = np.asarray(M, dtype=float)
        if self.M.ndim != 2 or self.M.shape[0] != self.M.shape[1] or not np.isfinite(self.M).all():
            raise InvalidStructureError(f"M must be finite and square, got shape {self.M.shape}")
        self.n_x = self.M.shape[0]
        self.n_params = int(n_params)

    def state_values(self, theta, x, t=0) -> Array:
        x = np.asarray(x, dtype=float)
        return np.sum((x @ self.M) * x, axis=1)

    def state_grad_sums(self, theta, x, w, groups, n_groups: int, t=0) -> Array:
        return np.zeros((n_groups, self.n_params))

    def state_hess_sum(self, theta, x, w, t=0) -> Array:
        return np.zeros((self.n_params, self.n_params))


def _common_size(costs, what: str) -> Optional[int]:
    sizes = {c.n_states for c in costs}
    if len(sizes) > 1:
        raise InvalidStructureError(f"{what} disagree on the state count")
    return sizes.pop()


class WeightedSumCost(CostModel):
    """Weighted sum of component costs sharing one parameter vector."""

    def __init__(self, parts: Sequence[CostModel], weights=None):
        if len(parts) == 0:
            raise InvalidStructureError("need at least one cost component")
        self.parts = list(parts)
        if weights is None:
            weights = np.ones(len(parts))
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (len(parts),):
            raise InvalidStructureError("one weight per cost component required")
        self.n_params = parts[0].n_params
        for p in parts:
            if p.n_params != self.n_params:
                raise InvalidStructureError("cost components disagree on n_params")
        self.n_states = _common_size(parts, "cost components")

    def value_table(self, theta, t: int = 0) -> Array:
        return sum(w * p.value_table(theta, t) for w, p in zip(self.weights, self.parts))

    def grad_sum(self, theta, w, t: int = 0) -> Array:
        return sum(c * p.grad_sum(theta, w, t) for c, p in zip(self.weights, self.parts))

    def hess_sum(self, theta, w, t: int = 0) -> Array:
        return sum(c * p.hess_sum(theta, w, t) for c, p in zip(self.weights, self.parts))


class KlToFixedChainCost(CostModel):
    """Per-state KL divergence of the chain's row from a fixed reference row.

    The gradient uses the score identity: the sum of dP times the constant
    +1 inside d(P log(P/q)) vanishes because probabilities stay normalized,
    leaving sum_y P(y|x) score(x,y) log(P(y|x)/q(y|x)).
    """

    def __init__(self, chain: ChainModel, reference):
        if not chain.tabular:
            raise CapabilityError(f"KL cost needs a tabular chain, not {type(chain).__name__}")
        self.chain = chain
        self.reference = np.asarray(reference, dtype=float)
        n = chain.n_states
        if self.reference.shape != (n, n):
            raise InvalidStructureError("reference matrix shape mismatch")
        if np.any(np.abs(self.reference.sum(axis=1) - 1.0) > 1e-9) or np.any(self.reference < 0):
            raise InvalidStructureError("reference rows must be distributions")
        self.n_params = chain.n_params
        self.n_states = n
        for x in range(n):
            for y in chain.successors(x):
                if self.reference[x, y] <= 0.0:
                    raise DivergenceUndefinedError(
                        f"chain allows {x}->{y} but the reference gives it zero mass"
                    )

    def value_table(self, theta, t: int = 0) -> Array:
        return row_kl(self.chain.transition_matrix(theta, t), self.reference)[0]

    def grad_sum(self, theta, w, t: int = 0) -> Array:
        # one score_sums group per row of w, over the support transitions
        P = self.chain.transition_matrix(theta, t)
        _, xs, ys, logr = row_kl(P, self.reference)
        w = np.asarray(w, dtype=float)
        k = w.size // self.n_states
        coef = (w.reshape(k, -1)[:, xs] * (P[xs, ys] * logr)).ravel()
        groups = np.repeat(np.arange(k), xs.size)
        S = self.chain.score_sums(theta, np.tile(xs, k), np.tile(ys, k), coef, groups, k, t)
        return S.reshape(w.shape[:-1] + (self.n_params,))

    def hess_sum(self, theta, w, t: int = 0) -> Array:
        # sum_y d2P[x, y] is zero, so row x's Hessian is sum_y d2P log(P/q)
        # plus the row's Fisher sum_y P s s^T
        P = self.chain.transition_matrix(theta, t)
        w = np.asarray(w, dtype=float)
        _, xs, ys, logr = row_kl(P, self.reference)
        C = np.zeros_like(P)
        C[xs, ys] = w[xs] * logr
        return self.chain.row_hess(theta, C, t) + self.chain.fisher(theta, w, t).dense()


class PolicyEntropyCost(CostModel):
    """Entropy of a tabular softmax policy (mdp.SoftmaxPolicy), one value
    per state."""

    def __init__(self, policy):
        self.policy = policy
        self.n_params = policy.n_params
        self.n_states = policy.n_states

    def _entropy(self, theta):
        pi = self.policy.table(theta)
        logs = np.log(np.where(pi > 0, pi, 1.0))
        return pi, logs, -np.sum(pi * logs, axis=-1)

    def value_table(self, theta, t: int = 0) -> Array:
        return self._entropy(theta)[2]

    def grad_sum(self, theta, w, t: int = 0) -> Array:
        pi, logs, h = self._entropy(theta)
        return self.policy.block_sum(w, -pi * (logs + h[:, None]))


class TimeVaryingCost(CostModel):
    """Stage-indexed cost dispatching to one sub-cost per stage; the stage
    of time t is asked at t.

    value_table and grad_sum also answer for a 1-D integer array t of S
    times: value_table(theta, t) has shape (..., S, n_states), and
    grad_sum(theta, w, t) takes w of shape (..., S, n_states) and returns
    sum_s grad_sum(theta, w[..., s, :], t[s]), shape (..., n_params).
    Both ask a stage once per entry of t.
    """

    def __init__(self, stages: Sequence[CostModel]):
        if len(stages) == 0:
            raise InvalidStructureError("need at least one stage cost")
        self.stages = list(stages)
        self.n_params = stages[0].n_params
        for c in stages:
            if c.n_params != self.n_params:
                raise InvalidStructureError("stage costs must agree on n_params")
        self.n_states = _common_size(stages, "stage costs")

    def _at(self, t: int) -> CostModel:
        return self.stages[min(t, len(self.stages) - 1)]

    def hess_sum(self, theta, w, t: int = 0) -> Array:
        return self._at(t).hess_sum(theta, w, t)

    def value_table(self, theta, t=0) -> Array:
        if np.ndim(t) == 0:
            return self._at(t).value_table(theta, t)
        return _stage_stack(self, "value_table", theta, t, 1)

    def grad_sum(self, theta, w, t=0) -> Array:
        if np.ndim(t) == 0:
            return self._at(t).grad_sum(theta, w, t)
        w = np.asarray(w, dtype=float)
        out = np.zeros(w.shape[:-2] + (self.n_params,))
        for i, u in enumerate(np.asarray(t, dtype=np.int64).tolist()):
            out += self._at(u).grad_sum(theta, w[..., i, :], u)
        return out


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------


@dataclass
class Problem:
    """A parameterized chain, a parameterized cost, a setting, and a start law."""

    chain: ChainModel
    cost: CostModel
    setting: Setting
    init: InitialDistribution

    def __post_init__(self):
        if self.chain.n_params != self.cost.n_params:
            raise InvalidStructureError(
                f"chain has {self.chain.n_params} parameters but cost has {self.cost.n_params}"
            )
        n_x = self.chain.n_x
        if isinstance(self.init, GaussianInitial) and n_x not in (None, len(self.init.mean)):
            raise InvalidStructureError(
                f"start law has dimension {len(self.init.mean)}, the chain's states {n_x}"
            )
        if isinstance(self.init, TabularInitial):
            if not self.chain.tabular:
                raise InvalidStructureError("tabular start law requires a tabular chain")
            if self.init.weights.shape[0] != self.chain.n_states:
                raise InvalidStructureError("start law length must match n_states")
        if self.cost.n_states is not None and self.cost.n_states != self.chain.n_states:
            raise InvalidStructureError(
                f"cost covers {self.cost.n_states} states but the chain has {self.chain.n_states}"
            )
        if None not in (self.cost.n_x, self.chain.n_x) and self.cost.n_x != self.chain.n_x:
            raise InvalidStructureError(
                f"cost takes states of shape ({self.cost.n_x},), the chain ({self.chain.n_x},)"
            )
        if isinstance(self.setting, FirstExit):
            if not self.chain.tabular:
                raise InvalidStructureError("first-exit problems must be tabular")
            if len(self.chain.terminal) == 0:
                raise InvalidStructureError("first-exit problems need terminal states")
        if isinstance(self.setting, Average) and self.chain.tabular:
            if len(self.chain.terminal) > 0:
                raise InvalidStructureError("average-cost problems must have no terminal states")
        if isinstance(self.setting, TimeVarying):
            T = self.setting.horizon
            if isinstance(self.chain, TimeVaryingChain) and len(self.chain.stages) < T:
                raise InvalidStructureError(f"need {T} stage chains, got {len(self.chain.stages)}")
            if isinstance(self.cost, TimeVaryingCost) and len(self.cost.stages) < T + 1:
                raise InvalidStructureError(
                    f"need {T + 1} stage costs, got {len(self.cost.stages)}"
                )
        else:
            # any other setting would read stage 0 alone
            for m in (self.chain, self.cost, *getattr(self.cost, "parts", ())):
                if isinstance(m, (TimeVaryingChain, TimeVaryingCost)):
                    raise InvalidStructureError(
                        f"{type(m).__name__} needs the time-varying setting"
                    )

    @property
    def n_params(self) -> int:
        return self.chain.n_params

    @property
    def gamma(self) -> float:
        return self.setting.gamma
