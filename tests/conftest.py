"""Shared pytest plumbing and numerical helpers for the chainopt test suite.

Acceptance tests register one pass/fail line each; the lines are printed
inline and repeated in a terminal summary section so they survive output
capture under plain ``pytest -v``. Test modules import the helpers below
with ``from conftest import ...``.
"""

import numpy as np

from chainopt import (
    EpisodicDiscounted,
    GaussianInitial,
    GaussianLinearChain,
    InvalidStructureError,
    Problem,
    StateQuadraticCost,
)
from chainopt.rollout import effective_gamma, transition_scores

ACCEPTANCE_RESULTS = []


def fd_vector(fn, theta, h=1e-6):
    """Central finite difference of fn at theta. For fn returning an array
    of shape s the result has shape s + (theta.size,)."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.shape(fn(theta)) + (theta.size,))
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = h
        out[..., i] = (np.asarray(fn(theta + e)) - np.asarray(fn(theta - e))) / (2 * h)
    return out


def transition_score(chain, x, y, theta, t=0):
    """Score of one tabular transition x -> y, read through score_sums."""
    return chain.score_sums(theta, [x], [y], [1.0], [0], 1, t)[0]


def rollout_scores(problem, batch):
    """Each kept rollout's (T, n_params) scores, read through
    transition_scores over the batch's steps."""
    steps = batch.steps(effective_gamma(problem, batch))
    scores = transition_scores(problem, batch.theta, steps)
    return np.split(scores, np.cumsum(steps.lengths - 1)[:-1])


def log_prob(chain, x, y, theta, t=0):
    """log P[x, y] of a tabular chain, read from its transition matrix."""
    return np.log(chain.transition_matrix(theta, t)[x, y])


def dense_row_vjp(chain, theta, W, t=0):
    """sum_{x,y} W[x, y] dP[x, y]/dtheta contracted from the dense score
    table: the reference for every chain's row_vjp."""
    P = chain.transition_matrix(theta, t)
    return np.einsum("xy,xy,xyp->p", W, P, chain.score_table(theta, t))


def dense_fisher(chain, theta, w, t=0):
    """sum_x w[x] sum_y P[x, y] score score^T contracted from the dense
    score table: the reference for every chain's fisher."""
    P = chain.transition_matrix(theta, t)
    S = chain.score_table(theta, t)
    return np.einsum("x,xy,xyp,xyq->pq", w, P, S, S)


def dense_natural_gradient(grad, F, damping=0.0):
    """(F + damping * top I)^+ grad on the numerical range of a dense
    (p, p) metric, by one eigh of the whole matrix: eigenvalues above 1e-10
    times the top one, a ridge of damping times the top one. The reference
    for the block-wise natural_gradient."""
    w, V = np.linalg.eigh(F)
    top = max(float(w.max()), 1e-300)
    keep = w > 1e-10 * top
    w, V = w[keep], V[:, keep]
    return V @ ((V.T @ grad) / (w + damping * top))


def dense_grad_table(cost, theta, t=0):
    """The (n_states, n_params) table whose row x is dL(x, theta), read
    through grad_sum at the identity weights: the per-state reference."""
    return cost.grad_sum(theta, np.eye(cost.n_states), t)


class ReferenceSoftmaxLayout:
    """SoftmaxChain's support checks and flat parameter layout, built one
    state and one successor at a time: the reference for the constructor,
    which builds them with numpy."""

    def __init__(self, n_states, support, terminal=(), logit_offset=None):
        self.n_states = int(n_states)
        self.terminal = frozenset(int(s) for s in terminal)
        for s in self.terminal:
            if not (0 <= s < self.n_states):
                raise InvalidStructureError(f"terminal state {s} out of range")
        self._succ = {}
        slices = {}
        start = 0
        for x in range(self.n_states):
            if x in self.terminal:
                continue
            if x not in support:
                raise InvalidStructureError(f"non-terminal state {x} has no successors")
            succ = [int(y) for y in support[x]]
            if len(succ) == 0:
                raise InvalidStructureError(f"non-terminal state {x} has no successors")
            if len(set(succ)) != len(succ):
                raise InvalidStructureError(f"state {x} lists a successor twice")
            for y in succ:
                if not (0 <= y < self.n_states):
                    raise InvalidStructureError(f"successor {y} of state {x} out of range")
            self._succ[x] = np.array(succ, dtype=np.int64)
            slices[x] = slice(start, start + len(succ))
            start += len(succ)
        extra = set(support) - set(self._succ)
        if extra & self.terminal:
            raise InvalidStructureError("terminal states must not list successors")
        if extra:
            raise InvalidStructureError(f"support lists state {min(extra)} outside 0..{n_states - 1}")
        self._slices = slices
        self.n_params = start
        if logit_offset is None:
            self._offset = np.zeros(self.n_params)
        else:
            self._offset = np.asarray(logit_offset, dtype=float)
            if self._offset.shape != (self.n_params,):
                raise InvalidStructureError("logit offset length must match n_params")
            if not np.all(np.isfinite(self._offset)):
                raise InvalidStructureError("logit offset contains non-finite entries")
        live = sorted(self._succ)
        self.seg_start = np.array([slices[x].start for x in live], dtype=np.int64)
        seg_len = [len(self._succ[x]) for x in live]
        self._flat_x = np.repeat(np.array(live, dtype=np.int64), seg_len)
        self._flat_y = np.array([y for x in live for y in self._succ[x]], dtype=np.int64)
        self.seg_of = np.repeat(np.arange(len(live)), seg_len)
        keys = self._flat_x * self.n_states + self._flat_y
        self._key_param = np.argsort(keys)
        self._sorted_keys = keys[self._key_param]

    def param_slice(self, x: int) -> slice:
        return self._slices[x]

    def successors(self, x: int):
        if x in self.terminal:
            return [x]
        return list(self._succ[x])


def diverging_gaussian_problem():
    """A 1-D Gaussian chain whose step multiplies the state by 1e308, so a
    start state beyond about 1.8 in size overflows on its first step; the
    cost 1e-318 x^2 stays finite on every state that does not."""
    chain = GaussianLinearChain(np.array([[1e308]]), np.eye(1), np.eye(1))
    cost = StateQuadraticCost(1e-318 * np.eye(1), n_params=1)
    return Problem(chain, cost, EpisodicDiscounted(0.9), GaussianInitial(np.zeros(1), np.eye(1)))


def discounted_returns(costs, gamma):
    """Cost-to-go R_t = L_t + gamma R_{t+1} of one rollout, by a plain loop
    from the last step back."""
    out = np.empty(len(costs))
    R = 0.0
    for t in range(len(costs) - 1, -1, -1):
        R = costs[t] + gamma * R
        out[t] = R
    return out


def record_acceptance(index: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {index:2d} [{name}] {status}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_RESULTS.append((index, line))
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)
