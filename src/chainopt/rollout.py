"""Rollout generation and score-based gradient estimation.

Streams. Rollout i of a batch draws from its own generator,
``rollout_rng(seed, i)``, and from nothing else, so a batch is
bit-identical no matter how the work is scheduled. A tabular rollout's
draws are uniforms in a fixed order: one for the start state, then per
step, after the terminal check (a rollout on a terminal state stops,
except in a time-varying problem) and the cap check, one stop draw in
geometric mode (stop when it is below 1 - gamma) and one step draw. A
time-varying rollout sitting on a terminal state stays there and draws
nothing. So the draw index is a function of (rollout, step).

Tabular batches advance all live rollouts in lockstep, and every rollout
that draws at a given point of the loop draws the same index of its own
stream: index 0 for the start, then one per step, or two in geometric
mode, while a parked time-varying rollout never draws again. So draw k of
the batch is column k % _BLOCK of a block of uniforms, row i holding
_BLOCK successive values of stream i (``rng.random(out=row)`` fills the row
with the values of that many successive ``rng.random()`` calls). The
drawing rollouts refill their rows whenever k reaches a multiple of
_BLOCK, at a stop draw or at a step draw; a finished rollout's unused
draws are discarded, which no other rollout can see. A step draw is an
inverse-CDF lookup in the cumulative rows of the transition matrix, the
rows ``ChainModel.make_sampler`` draws from, with ``sample_index``'s clamp
to the row's last positive entry. Continuous chains mix uniform and
normal draws on one stream and keep a per-step loop per rollout; a step
that leaves the finite numbers diverges its rollout. One state_values
call then costs all kept states.

Every batch is one layout (``_Flat``): the states of the rollouts that
did not diverge, rollout after rollout, each step's time, costs, and the
length and end reason of each rollout, plus the count of diverged
rollouts. Generation, ``batch_from_arrays`` and ``batch_from_jsonl`` build
it; the estimators and the batch's summaries read it. A score
d log P(y | x, theta) belongs to the chain, theta and the sampled
transition, not to the batch: ``transition_scores`` computes the scores of
a batch's transitions when an estimator needs them, from one score_sums
call on a tabular and a continuous chain alike. ``batch.rollouts`` is
a read-only list of per-rollout views, for the jsonl dump and for readers
outside the library.

Estimators consume whole batches as flat per-step arrays and refuse
parameters that differ from the ones the batch was generated under; a
batch keeps a read-only copy of its theta. ``estimate_gradient`` and
``path_gradient`` sum every kept rollout into one group for their mean, a
score_sums call and a cost call with no (rollouts, n_params) array; the
per-rollout rows, their stderr and the diagnostics are computed when first
read. The estimators' cost-to-go R_t = L_t + gamma R_{t+1} is one
backward scan over the batch, bit-identical to
``scipy.signal.lfilter([1], [1, -gamma])`` over each rollout's reversed
costs: the same operations in the same order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    CapabilityError,
    InvalidStructureError,
    RegularizationRequiredError,
    StalenessError,
)
from .model import (
    Average,
    EpisodicDiscounted,
    FirstExit,
    Problem,
    TimeVarying,
    check_count,
    check_params,
    staged,
)

END_TERMINAL = "terminal"
END_HORIZON = "horizon-cap"
END_GEOMETRIC = "geometric-stop"

_MODES = ("terminal", "horizon", "geometric")
_REASONS = (END_HORIZON, END_TERMINAL, END_GEOMETRIC)

# Uniforms a tabular rollout takes from its stream at a time.
_BLOCK = 64


def rollout_rng(seed: int, index: int) -> np.random.Generator:
    """The private random stream of one rollout."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


class _PresetSeed(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 a seed state computed beforehand."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state  # PCG64 asks for 4 uint64 words


def _rollout_streams(seed: int, n: int) -> list:
    """[rollout_rng(seed, i) for i in range(n)], built faster.

    Building a SeedSequence costs most of a stream's construction, so the
    seed states of all n streams are hashed together, with numpy's
    SeedSequence algorithm: the mix of the entropy words into a pool of
    four, then generate_state. The words of the seed, which every stream
    shares, are mixed once on Python ints; the spawn key, the last word,
    and generate_state run on (n,) uint32 arrays. The seed is a
    non-negative integer, as generate_rollouts checks.
    """
    mask = 0xFFFFFFFF
    words, rest = [], int(seed)
    while rest > 0 or not words:
        words.append(rest & mask)
        rest >>= 32
    words += [0] * (4 - len(words))  # padded to the pool size ahead of a spawn key
    hash_const = 0x43B0D7E5

    # the same operations on a Python int below 2**32 and on a uint32 array
    def hashmix(v):
        nonlocal hash_const
        v = v ^ hash_const
        hash_const = (hash_const * 0x931E8875) & mask
        v = (v * hash_const) & mask
        return v ^ (v >> 16)

    def mix(x, y):
        r = (((0xCA01F9DD * x) & mask) - ((0x4973F715 * y) & mask)) & mask
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    key = np.arange(n, dtype=np.uint32)
    pool = [mix(pool[dst], hashmix(key)) for dst in range(4)]
    # generate_state(4, np.uint64): eight uint32 words, paired little-endian
    hash_const = 0x8B51F9DD
    state = []
    for k in range(8):
        v = pool[k % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & mask
        v = v * hash_const
        state.append(v ^ (v >> 16))
    state = np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_PresetSeed(row))) for row in state]


class Rollout:
    """One kept rollout of a batch, as read-only views of the batch's
    arrays: ``states`` (T+1,) ints or (T+1, n_x) floats, ``costs`` (T+1,),
    and its ``end_reason``."""

    def __init__(self, states, costs, end_reason: str):
        self.states = states
        self.costs = costs
        self.end_reason = end_reason

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1


@dataclass
class _Flat:
    """Rollouts as flat per-step arrays, rollout after rollout."""

    states: np.ndarray  # (N,) ints or (N, n_x) floats
    t: np.ndarray  # the step's time within its rollout
    costs: np.ndarray  # (N,)
    lengths: np.ndarray  # states per rollout
    codes: np.ndarray  # each rollout's end reason, an index into _REASONS

    def transitions(self) -> np.ndarray:
        """The steps that start a transition: all but each rollout's last."""
        return np.delete(np.arange(self.t.size), np.cumsum(self.lengths) - 1)


class RolloutBatch:
    """The rollouts of a batch that did not diverge, in the flat layout,
    with the count of those that diverged and the exact generation context
    they were produced under. The layout's arrays are made read-only: the
    batch, its ``steps`` and its ``rollouts`` share them. theta is a
    read-only copy, so a caller that steps its own parameters in place
    cannot make a stale batch look current."""

    def __init__(self, flat: _Flat, theta, seed, mode, horizon_cap, n_diverged=0):
        for a in vars(flat).values():
            a.flags.writeable = False
        self.flat = flat
        self.theta = np.array(theta, dtype=float)
        self.theta.flags.writeable = False
        self.seed = seed
        self.mode = mode
        self.horizon_cap = horizon_cap
        self.n_diverged = n_diverged
        self._steps = {}

    @cached_property
    def rollouts(self) -> list:
        """The kept rollouts as Rollout views of the arrays, built on first read."""
        f = self.flat
        ends = np.cumsum(f.lengths).tolist()
        return [
            Rollout(f.states[e - k : e], f.costs[e - k : e], _REASONS[code])
            for e, k, code in zip(ends, f.lengths.tolist(), f.codes.tolist())
        ]

    def __len__(self):
        """Rollouts drawn: the kept ones and the diverged ones."""
        return self.flat.lengths.size + self.n_diverged

    def steps(self, gamma: float) -> "BatchSteps":
        """batch_steps(self, gamma), built once per gamma and shared: the
        estimators and the value fit read the same batch, often at
        different iterations. A batch with no kept rollout has no steps
        and raises InvalidStructureError."""
        if not self.flat.lengths.size:
            raise InvalidStructureError(f"the batch kept no rollout: {self.n_diverged} diverged")
        if gamma not in self._steps:
            self._steps[gamma] = batch_steps(self, gamma)
        return self._steps[gamma]

    @property
    def n_truncated(self) -> int:
        """Terminal-mode rollouts cut off by the horizon cap before reaching
        a terminal state."""
        if self.mode != "terminal":
            return 0
        return int(np.count_nonzero(self.flat.codes == _REASONS.index(END_HORIZON)))

    def total_steps(self) -> int:
        """Transitions of the kept rollouts."""
        return self.flat.t.size - self.flat.lengths.size

    def to_jsonl(self, path):
        """Line-delimited dump: a metadata line, then one kept rollout per
        line; the metadata's n_diverged counts the rollouts left out, and a
        record's seed pair holds the batch seed and the rollout's place
        among the kept ones."""
        with open(path, "w") as fh:
            meta = {
                "theta": self.theta.tolist(),
                "seed": self.seed,
                "mode": self.mode,
                "horizon_cap": self.horizon_cap,
                "n_diverged": int(self.n_diverged),
            }
            fh.write(json.dumps(meta) + "\n")
            for i, r in enumerate(self.rollouts):
                rec = {
                    "seed": [self.seed, i],
                    "states": r.states.tolist(),
                    "costs": r.costs.tolist(),
                    "end": r.end_reason,
                }
                fh.write(json.dumps(rec) + "\n")


def batch_from_arrays(
    states: list, costs: list, ends: list, theta, seed, mode, horizon_cap, n_diverged=0
) -> RolloutBatch:
    """A batch of the given rollouts that did not diverge: per rollout its
    states, (T+1,) ints or (T+1, n_x) floats, its (T+1,) costs and its end
    reason (END_HORIZON, END_TERMINAL or END_GEOMETRIC)."""
    lengths = np.array([c.shape[0] for c in costs], dtype=np.int64)
    first = np.cumsum(lengths) - lengths
    flat = _Flat(
        states=np.concatenate(states) if states else np.zeros(0, dtype=np.int64),
        t=np.arange(lengths.sum()) - np.repeat(first, lengths),
        costs=np.concatenate(costs) if costs else np.zeros(0),
        lengths=lengths,
        codes=np.array([_REASONS.index(e) for e in ends], dtype=np.int64),
    )
    return RolloutBatch(flat, theta, seed, mode, horizon_cap, n_diverged)


def _numbers(value):
    """value as a numeric array, or None unless it nests numbers evenly."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    return arr if arr.dtype.kind in "if" else None


def batch_from_jsonl(problem: Problem, path) -> RolloutBatch:
    """Reload a dumped batch. A malformed line raises InvalidStructureError
    naming the file and the line."""
    chain = problem.chain
    tv = isinstance(problem.setting, TimeVarying)

    def bad(line, why):
        return InvalidStructureError(f"{path}, line {line}: {why}")

    def parse(line, text, keys):
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if not (isinstance(doc, dict) and all(k in doc for k in keys)):
            raise bad(line, f"expected a JSON object with keys {', '.join(keys)}")
        return doc

    with open(path) as fh:
        meta = parse(1, fh.readline(), ("theta", "seed", "mode", "horizon_cap"))
        records = [parse(i, text, ("states", "costs", "end")) for i, text in enumerate(fh, start=2)]

    if meta["mode"] not in _MODES:
        raise bad(1, f"unknown termination mode {meta['mode']!r}")
    if tv and meta["horizon_cap"] != problem.setting.horizon:
        raise bad(1, f"horizon cap {meta['horizon_cap']} is not the problem's horizon")
    theta = _numbers(meta["theta"])
    if theta is None or theta.shape != (problem.n_params,):
        raise bad(1, f"theta must be {problem.n_params} numbers")
    n_diverged = meta.get("n_diverged", 0)
    if isinstance(n_diverged, bool) or not isinstance(n_diverged, int) or n_diverged < 0:
        raise bad(1, f"n_diverged must be a non-negative integer, got {n_diverged!r}")
    states, costs = [], []
    for line, rec in enumerate(records, start=2):
        if rec["end"] not in _REASONS:
            raise bad(line, f"unknown end reason {rec['end']!r}")
        st, cost = _numbers(rec["states"]), _numbers(rec["costs"])
        if st is None or st.ndim == 0 or len(st) == 0:
            raise bad(line, "states must be a non-empty array of numbers")
        if cost is None or cost.shape != (len(st),):
            raise bad(line, f"{len(st)} states need as many numeric costs")
        if chain.tabular and not (
            st.dtype.kind == "i" and st.ndim == 1 and 0 <= st.min() and st.max() < chain.n_states
        ):
            raise bad(line, f"states must be integers in 0..{chain.n_states - 1}")
        if not chain.tabular and not (st.ndim == 2 and st.shape[1] == chain.n_x):
            raise bad(line, f"states must be rows of {chain.n_x} numbers")
        states.append(st.astype(np.int64) if chain.tabular else st.astype(float))
        costs.append(cost.astype(float))
    ends = [rec["end"] for rec in records]
    return batch_from_arrays(
        states, costs, ends, theta.astype(float), meta["seed"], meta["mode"],
        meta["horizon_cap"], n_diverged,
    )


def _default_mode(problem: Problem) -> str:
    if isinstance(problem.setting, FirstExit):
        return "terminal"
    if isinstance(problem.setting, EpisodicDiscounted):
        return "geometric"
    return "horizon"


def generate_rollouts(
    problem: Problem,
    theta,
    n_rollouts: int,
    horizon_cap: int = 10_000,
    mode: Optional[str] = None,
    seed: int = 0,
) -> RolloutBatch:
    """Sample independent rollouts of the problem's chain.

    Modes: "terminal" runs until an absorbing terminal state (the cap is a
    guard), "horizon" runs to the cap, and "geometric" additionally stops
    each step with probability 1 - gamma, realizing the discounted
    visitation weights through trajectory lengths. Time-varying problems
    always run exactly their horizon. The module docstring states which
    draws each rollout makes.
    """
    theta = check_params(theta, problem.n_params)
    chain = problem.chain
    if isinstance(problem.setting, Average):
        raise CapabilityError("rollout estimation covers episodic and finite-horizon settings")
    seed = check_count("seed", seed, least=0)
    n_rollouts = check_count("n_rollouts", n_rollouts)
    horizon_cap = check_count("horizon_cap", horizon_cap)
    tv = isinstance(problem.setting, TimeVarying)
    if tv:
        horizon_cap = problem.setting.horizon
        mode = "horizon"
    if mode is None:
        mode = _default_mode(problem)
    if mode not in _MODES:
        raise InvalidStructureError(f"unknown termination mode {mode!r}")
    if mode == "terminal" and len(chain.terminal) == 0:
        raise InvalidStructureError("terminal mode needs a chain with terminal states")
    if chain.tabular:
        flat = _tabular_rollouts(problem, theta, n_rollouts, horizon_cap, mode, seed, tv)
        return RolloutBatch(flat, theta, seed, mode, horizon_cap)
    return _continuous_rollouts(problem, theta, n_rollouts, horizon_cap, mode, seed, tv)


class _Uniforms:
    """The uniform draws of a batch's rollouts, each from its own stream.
    Draw k of a rollout is column k % _BLOCK of its row of a block, which
    the rollouts drawing at k refill from their streams when k is a
    multiple of _BLOCK."""

    def __init__(self, seed: int, n_rollouts: int):
        self.streams = _rollout_streams(seed, n_rollouts)
        self.block = np.empty((n_rollouts, _BLOCK))
        self.k = 0

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Draw k of each of the given rollouts, all of which made draws
        0..k-1 (the module docstring says why every drawing rollout does)."""
        col = self.k % _BLOCK
        if col == 0:
            for i in rows.tolist():
                self.streams[i].random(out=self.block[i])
        self.k += 1
        return self.block[rows, col]


def _inverse_cdf(cum: np.ndarray, top, u: np.ndarray) -> np.ndarray:
    """sample_index per draw: the first entry of the (nondecreasing)
    cumulative row above u, or the row's clamp index top when u reaches
    the total."""
    idx = np.argmax(cum > u[:, None], axis=1)
    return np.where(cum[:, -1] > u, idx, top)


def _tabular_rollouts(problem, theta, n_rollouts, horizon_cap, mode, seed, tv) -> _Flat:
    chain = problem.chain
    n = chain.n_states
    if tv:  # every stage's matrix and cost table, from one call each
        P = staged(chain).transition_matrix(theta, np.arange(horizon_cap))
        L = staged(problem.cost).value_table(theta, np.arange(horizon_cap + 1))
    else:
        P, L = chain.transition_matrix(theta)[None], problem.cost.value_table(theta)[None]
    cums = np.cumsum(P, axis=2)
    # first index reaching the row total: the last entry with positive weight
    tops = np.argmax(cums >= cums[:, :, -1:], axis=2)
    terminal = np.zeros(n, dtype=bool)
    terminal[list(chain.terminal)] = True
    stop_prob = 1.0 - problem.gamma

    draws = _Uniforms(seed, n_rollouts)
    live = np.arange(n_rollouts)
    init_cum = np.cumsum(problem.init.weights)[None, :]
    x = _inverse_cdf(init_cum, np.argmax(init_cum[0] >= init_cum[0, -1]), draws.take(live))
    reason = np.zeros(n_rollouts, dtype=np.int64)  # index into _REASONS
    visits, visited = [live], [x]  # rollouts alive at each step, and their states
    t = 0
    while live.size:
        if not tv:
            done = terminal[x]
            reason[live[done]] = 1
            live, x = live[~done], x[~done]
        if t >= horizon_cap:
            break
        if mode == "geometric":
            done = draws.take(live) < stop_prob
            reason[live[done]] = 2
            live, x = live[~done], x[~done]
        stage = min(t, cums.shape[0] - 1)
        cum, top = cums[stage], tops[stage]
        if tv:
            # a rollout parked on a terminal state stays there and draws nothing
            x = x.copy()
            move = ~terminal[x]
            rows = x[move]
            x[move] = _inverse_cdf(cum[rows], top[rows], draws.take(live[move]))
        else:
            x = _inverse_cdf(cum[x], top[x], draws.take(live))
        visits.append(live)
        visited.append(x)
        t += 1

    # the loop's output is step-major; step k of rollout i goes to first[i] + k
    owner = np.concatenate(visits)
    step = np.repeat(np.arange(len(visits)), [v.size for v in visits])
    lengths = np.bincount(owner, minlength=n_rollouts)
    at = (np.cumsum(lengths) - lengths)[owner] + step
    states, steps = np.empty_like(owner), np.empty_like(step)
    states[at] = np.concatenate(visited)
    steps[at] = step
    costs = L[np.minimum(steps, L.shape[0] - 1), states]
    return _Flat(states, steps, costs, lengths, reason)


def _continuous_rollouts(problem, theta, n_rollouts, horizon_cap, mode, seed, tv) -> RolloutBatch:
    """One draw loop per rollout. A rollout whose next state is not finite
    has diverged: the batch drops it and counts it in n_diverged. That
    check is the handling of an overflowing step, so the draws run with
    numpy's overflow and invalid-value warnings off. The costs of the
    kept states are one state_values call after the draws."""
    samplers = [problem.chain.make_sampler(theta, t) for t in range(horizon_cap if tv else 1)]
    stop_prob = 1.0 - problem.gamma
    kept, lengths, codes = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for rng in _rollout_streams(seed, n_rollouts):
            states = [problem.init.sample(rng)]
            end = END_HORIZON
            while len(states) <= horizon_cap:
                if mode == "geometric" and rng.random() < stop_prob:
                    end = END_GEOMETRIC
                    break
                x_next = samplers[min(len(states) - 1, len(samplers) - 1)](states[-1], rng)
                if not np.isfinite(x_next).all():
                    end = None
                    break
                states.append(x_next)
            if end is not None:
                kept += states
                lengths.append(len(states))
                codes.append(_REASONS.index(end))
    states = np.array(kept, dtype=float).reshape(-1, problem.init.mean.size)
    lengths = np.array(lengths, dtype=np.int64)
    t = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    costs = problem.cost.state_values(theta, states, t if tv else 0)
    flat = _Flat(states, t, costs, lengths, np.array(codes, dtype=np.int64))
    return RolloutBatch(flat, theta, seed, mode, horizon_cap, n_rollouts - lengths.size)


def effective_gamma(problem: Problem, batch: RolloutBatch) -> float:
    """Discount applied inside estimators: 1 when stopping realizes it."""
    if batch.mode == "geometric":
        return 1.0
    return problem.gamma


def check_batch(theta, batch: RolloutBatch):
    theta = np.asarray(theta, dtype=float)
    if theta.shape != batch.theta.shape or not np.array_equal(theta, batch.theta):
        raise StalenessError("batch was generated under different parameters")


@dataclass
class BatchSteps:
    """The rollouts of a batch that did not diverge, as flat per-step
    arrays, rollout after rollout."""

    lengths: np.ndarray  # states per rollout
    states: np.ndarray  # (N,) ints or (N, n_x) floats
    costs: np.ndarray  # L_t
    owner: np.ndarray  # the step's rollout, an index into lengths
    t: np.ndarray  # the step's time within its rollout
    returns: np.ndarray  # discounted cost-to-go R_t
    weights: np.ndarray  # gamma^t
    trans: np.ndarray  # steps that start a transition: all but each rollout's last
    first: np.ndarray  # each rollout's first step


def batch_steps(batch: RolloutBatch, gamma: float) -> BatchSteps:
    f = batch.flat
    lengths = f.lengths
    first = np.cumsum(lengths) - lengths
    return BatchSteps(
        lengths=lengths,
        states=f.states,
        costs=f.costs,
        owner=np.repeat(np.arange(lengths.size), lengths),
        t=f.t,
        returns=_batch_returns(f.costs, lengths, first, gamma),
        weights=(gamma ** np.arange(lengths.max(initial=0)))[f.t],
        trans=f.transitions(),
        first=first,
    )


def _batch_returns(costs, lengths, first, gamma) -> np.ndarray:
    """R_t = L_t + gamma R_{t+1} of every rollout, concatenated. Ordered
    longest first, the rollouts still alive k steps from their ends are a
    prefix, so each step back is one gather and one update of that prefix."""
    out = np.empty_like(costs)
    rows = (first + lengths - 1)[np.argsort(-lengths, kind="stable")]  # each rollout's end
    alive = np.cumsum(np.bincount(lengths)[::-1])[::-1]  # rollouts with at least k costs
    R = np.zeros(lengths.size)
    for m in alive[1:].tolist():
        rows = rows[:m]
        R = costs[rows] + gamma * R[:m]
        out[rows] = R
        rows -= 1
    return out


def transition_scores(problem: Problem, theta, steps: BatchSteps) -> np.ndarray:
    """The score d log P(y | x, theta) of each transition steps.trans,
    shape (transitions, n_params): one score sum per transition."""
    k = steps.trans.size
    return _score_sums(problem, theta, steps, np.ones(k), np.arange(k), k)


def _score_sums(problem: Problem, theta, steps: BatchSteps, coef, groups, n_groups: int):
    """The chain's score_sums over the transitions steps.trans, in one call
    at the transitions' times in a time-varying problem."""
    chain, k, t = problem.chain, steps.trans, 0
    if isinstance(problem.setting, TimeVarying):
        chain, t = staged(chain) if chain.tabular else chain, steps.t[k]
    return chain.score_sums(theta, steps.states[k], steps.states[k + 1], coef, groups, n_groups, t)


# ---------------------------------------------------------------------------
# Value-function fitting
# ---------------------------------------------------------------------------


def fit_value_approx(
    problem: Problem, batch: RolloutBatch, features: np.ndarray, ridge: float = 0.0
) -> np.ndarray:
    """Fitted value baseline: the (n_states,) table features @ omega.

    features is an (n_states, dim) array whose row x holds the features
    phi(x) of state x; np.eye(n_states) fits one free value per state.
    omega minimizes the sum over rollouts and steps of
    gamma^t (omega.phi(x_t) - R_t)^2 plus ridge ||omega||^2, by the normal
    equations, with the weights summed per visited state first. Rank
    deficiency with no ridge raises rather than silently pseudo-inverting.
    A continuous chain takes no baseline.
    """
    n = _baseline_chain(problem).n_states
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] != n:
        raise InvalidStructureError(
            f"features have shape {features.shape}; need one row per state, ({n}, dim)"
        )
    steps = batch.steps(effective_gamma(problem, batch))
    w, wR = steps.weights, steps.weights * steps.returns
    visited = np.flatnonzero(np.bincount(steps.states, minlength=n))
    phi = features[visited]
    mass = np.bincount(steps.states, weights=w, minlength=n)[visited]
    A = phi.T @ (mass[:, None] * phi) + ridge * np.eye(features.shape[1])
    b = phi.T @ np.bincount(steps.states, weights=wR, minlength=n)[visited]
    try:
        chol = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if ridge <= 0.0:
            raise RegularizationRequiredError(
                "normal matrix is rank deficient; supply a positive ridge"
            )
        raise
    return features @ np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def _baseline_chain(problem: Problem):
    """The problem's chain, refused unless a per-state table can hold its
    values."""
    chain = problem.chain
    if not chain.tabular:
        raise CapabilityError(
            f"{type(chain).__name__} is not tabular; a value baseline is a per-state table"
        )
    return chain


# ---------------------------------------------------------------------------
# Gradient estimation
# ---------------------------------------------------------------------------


class GradientEstimate:
    """Batch-mean gradient with per-coordinate standard errors.

    mean, n_rollouts, n_diverged and valid are set when the estimate is
    made, from sums over one group. per_rollout, the (rollouts, n_params)
    contributions whose mean is mean, stderr and diagnostics (whose
    "per_rollout" entry it is) are computed on first read and cached, so a
    caller that reads only the mean builds no per-rollout array. They are
    computed from the batch's own read-only theta and arrays.
    """

    def __init__(self, mean, n_rollouts: int, n_diverged: int, valid: bool, rows, info=None):
        self.mean = mean
        self.n_rollouts = n_rollouts
        self.n_diverged = n_diverged
        self.valid = valid
        self._rows = rows  # () -> the per-rollout contributions
        self._info = info or {}

    @cached_property
    def per_rollout(self) -> np.ndarray:
        return self._rows()

    @cached_property
    def stderr(self) -> np.ndarray:
        return _stderr(self.per_rollout)

    @cached_property
    def diagnostics(self) -> dict:
        return {**self._info, "per_rollout": self.per_rollout}


def baseline_expected_values(problem: Problem, theta, baseline) -> np.ndarray:
    """The (stages, n_states) tables b(x) = E[V^(x') | x] = (P_t @
    baseline)(x), from a baseline table of one value per state: one stage
    per transition time of a time-varying problem, one stage otherwise."""
    chain = _baseline_chain(problem)
    vhat = np.asarray(baseline, dtype=float)
    if vhat.shape != (chain.n_states,):
        raise InvalidStructureError(
            f"baseline table has shape {vhat.shape}; need one value per state, "
            f"({chain.n_states},)"
        )
    if not np.all(np.isfinite(vhat)):
        raise InvalidStructureError("baseline table contains non-finite entries")
    if isinstance(problem.setting, TimeVarying):
        return staged(chain).transition_matrix(theta, np.arange(problem.setting.horizon)) @ vhat
    return (chain.transition_matrix(theta) @ vhat)[None]


def estimate_gradient(
    problem: Problem,
    theta,
    batch: RolloutBatch,
    baseline: Optional[np.ndarray] = None,
) -> GradientEstimate:
    """Score-times-cost-to-go gradient estimate from one batch.

    Per rollout the contribution is
        sum_t gamma^t dL(x_t) + sum_{t<T} gamma^{t+1} score_t (R_{t+1} - b(x_t)),
    where b(x) = E[baseline(x') | x] when a baseline is supplied: an
    (n_states,) value table such as fit_value_approx returns, which a
    continuous chain does not take. The estimate is unbiased for the exact
    gradient; the baseline only reduces variance. Diverged rollouts are
    left out. The estimate is marked invalid when more than 1% of the
    batch diverged or, in terminal mode, was cut off by the horizon cap.
    """
    theta = check_params(theta, problem.n_params)
    check_batch(theta, batch)
    gamma = effective_gamma(problem, batch)
    steps = batch.steps(gamma)
    n_valid = steps.lengths.size
    k = steps.trans
    adv = steps.returns[k + 1]
    if baseline is not None:
        tables = baseline_expected_values(problem, theta, baseline)
        adv = adv - tables[np.minimum(steps.t[k], len(tables) - 1), steps.states[k]]
    coef = gamma * steps.weights[k] * adv
    n_truncated = batch.n_truncated
    frac_bad = (batch.n_diverged + n_truncated) / len(batch)
    return GradientEstimate(
        mean=_contributions(problem, batch, steps, steps.weights, coef)[0] / n_valid,
        n_rollouts=n_valid,
        n_diverged=batch.n_diverged,
        valid=frac_bad <= 0.01,
        rows=lambda: _contributions(
            problem, batch, steps, steps.weights, coef, steps.owner, n_valid
        ),
        info={
            "mean_return": float(np.mean(steps.returns[steps.first])),
            "mean_length": float(np.mean(steps.lengths - 1)),
            "n_diverged": batch.n_diverged,
            "n_truncated": n_truncated,
        },
    )


def _stderr(per_rollout: np.ndarray) -> np.ndarray:
    """Standard error of the mean over axis 0; infinite for one rollout."""
    m = per_rollout.shape[0]
    if m > 1:
        return per_rollout.std(axis=0, ddof=1) / math.sqrt(m)
    return np.full(per_rollout.shape[1:], np.inf)


def _contributions(
    problem, batch, steps: BatchSteps, step_w, coef, groups=None, n_groups: int = 1
) -> np.ndarray:
    """Per-group sums of step_w * dL(x_t) over the steps plus coef * score_t
    over the transitions steps.trans, at the batch's theta, shape
    (n_groups, n_params): one cost call and one score_sums call, with no
    per-step or per-stage Python. groups holds each step's group; by
    default every step is in group 0, and steps.owner gives one group per
    rollout."""
    if groups is None:
        groups = np.zeros(steps.t.size, dtype=np.int64)
    out = _cost_grad_sums(problem, batch, steps, step_w, groups, n_groups)
    out += _score_sums(problem, batch.theta, steps, coef, groups[steps.trans], n_groups)
    return out


def _cost_grad_sums(problem, batch, steps: BatchSteps, step_w, groups, n_groups: int):
    """Per-group sums of step_w * dL(x_t): on a tabular chain one bincount
    of the step weights over (group, time, state) contracted by one cost
    grad_sum, on a continuous one the cost's state_grad_sums."""
    cost, theta = problem.cost, batch.theta
    tv = isinstance(problem.setting, TimeVarying)
    if not problem.chain.tabular:
        t = steps.t if tv else 0
        return cost.state_grad_sums(theta, steps.states, step_w, groups, n_groups, t)
    n = problem.chain.n_states
    if tv:
        n_times = batch.horizon_cap + 1
        cell = (groups * n_times + np.minimum(steps.t, n_times - 1)) * n + steps.states
        mass = np.bincount(cell, weights=step_w, minlength=n_groups * n_times * n)
        return staged(cost).grad_sum(theta, mass.reshape(n_groups, n_times, n), np.arange(n_times))
    mass = np.bincount(groups * n + steps.states, weights=step_w, minlength=n_groups * n)
    return cost.grad_sum(theta, mass.reshape(n_groups, n))


# ---------------------------------------------------------------------------
# Whole-path derivatives for finite-horizon problems
# ---------------------------------------------------------------------------


@dataclass
class HessianEstimate:
    """Batch-mean Hessian with per-entry standard errors."""

    mean: np.ndarray
    stderr: np.ndarray
    n_rollouts: int


def _require_timevarying(problem: Problem):
    if not isinstance(problem.setting, TimeVarying):
        raise CapabilityError("path derivatives are defined for finite-horizon problems")


def path_gradient(problem: Problem, theta, batch: RolloutBatch) -> GradientEstimate:
    """Whole-path gradient estimate: (sum of scores) L_path + grad L_path,
    that is, each score weighted by its rollout's total cost and each cost
    gradient by one."""
    theta = check_params(theta, problem.n_params)
    check_batch(theta, batch)
    _require_timevarying(problem)
    steps = batch.steps(effective_gamma(problem, batch))
    if batch.n_diverged or np.any(steps.lengths != problem.setting.horizon + 1):
        raise InvalidStructureError("path derivatives need full-horizon rollouts")
    m = steps.lengths.size
    total_cost = np.bincount(steps.owner, weights=steps.costs, minlength=m)
    coef = total_cost[steps.owner[steps.trans]]
    ones = np.ones(steps.t.size)
    return GradientEstimate(
        mean=_contributions(problem, batch, steps, ones, coef)[0] / m,
        n_rollouts=m,
        n_diverged=batch.n_diverged,
        valid=True,
        rows=lambda: _contributions(problem, batch, steps, ones, coef, steps.owner, m),
    )


def path_hessian(problem: Problem, theta, batch: RolloutBatch) -> HessianEstimate:
    """Whole-path Hessian estimate for finite-horizon problems.

    Per path, with K the log-likelihood and L the accumulated cost:
        (dK dK' + d2K) L + dK dL' + dL dK' + d2L.
    Requires a tabular chain and second derivatives of both the chain and
    the cost. dK is the score sum per rollout and dL the cost gradient sum,
    one score_sums and one grad_sum call over all stages. A transition's
    d2 log P is row_hess at the indicator of (x, y) divided by P[x, y],
    minus s s^T, and a state's d2L is hess_sum at the state's indicator:
    each is computed once per distinct (t, x, y) or (t, x) and summed per
    rollout as counts times those matrices. P comes from one call for all
    stages and the key scores s from one score_sums call. The batch mean
    is symmetrized before it is returned.
    """
    theta = check_params(theta, problem.n_params)
    check_batch(theta, batch)
    _require_timevarying(problem)
    if not problem.chain.tabular:
        raise CapabilityError("path Hessian needs a tabular chain")
    chain, cost = staged(problem.chain), staged(problem.cost)
    T = problem.setting.horizon
    p, n = problem.n_params, chain.n_states
    steps = batch.steps(effective_gamma(problem, batch))
    if batch.n_diverged or np.any(steps.lengths != T + 1):
        raise InvalidStructureError("path derivatives need full-horizon rollouts")
    m = steps.lengths.size
    states = steps.states.reshape(m, T + 1)
    total_cost = steps.costs.reshape(m, T + 1).sum(axis=1)
    owner, onehot, times = np.arange(m), np.eye(n), np.arange(T + 1)
    x, y = states[:, :-1].ravel(), states[:, 1:].ravel()
    groups, stage = np.repeat(owner, T), np.tile(times[:-1], m)
    dK = chain.score_sums(theta, x, y, np.ones(x.size), groups, m, stage)
    dL = cost.grad_sum(theta, onehot[states], times)

    def per_rollout(keys, hess):
        """Sum over each rollout's row of keys of hess at the distinct keys,
        (keys, p, p), from the counts of those keys: shape (m, p, p)."""
        uniq, inv = np.unique(keys, return_inverse=True)
        cell = owner[:, None] * uniq.size + inv.reshape(keys.shape)
        counts = np.bincount(cell.ravel(), minlength=m * uniq.size).reshape(m, uniq.size)
        return (counts @ hess(uniq).reshape(uniq.size, p * p)).reshape(m, p, p)

    def chain_hess(keys):
        tx, y = np.divmod(keys, n)
        t, x = np.divmod(tx, n)
        P = chain.transition_matrix(theta, times[:-1])[t, x, y]
        S = chain.score_sums(theta, x, y, np.ones(keys.size), np.arange(keys.size), keys.size, t)
        H = np.empty((keys.size, p, p))
        for i, (a, b, c) in enumerate(zip(t.tolist(), x.tolist(), y.tolist())):
            E = np.zeros((n, n))
            E[b, c] = 1.0 / P[i]
            H[i] = chain.row_hess(theta, E, a) - np.outer(S[i], S[i])
        return H

    def cost_hess(keys):
        t, x = np.divmod(keys, n)
        return np.stack([cost.hess_sum(theta, onehot[b], a) for a, b in zip(t.tolist(), x)])

    # d2 log P keyed by (t, x, y), d2L by (t, x)
    tx = times * n + states
    d2K = per_rollout(tx[:, :-1] * n + states[:, 1:], chain_hess)
    d2L = per_rollout(tx, cost_hess)
    outer = lambda a, b: a[:, :, None] * b[:, None, :]
    out = (outer(dK, dK) + d2K) * total_cost[:, None, None]
    out += outer(dK, dL) + outer(dL, dK) + d2L
    mean = out.mean(axis=0)
    mean = 0.5 * (mean + mean.T)
    return HessianEstimate(mean=mean, stderr=_stderr(out), n_rollouts=m)
