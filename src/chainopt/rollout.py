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
normal draws on one stream and keep a per-step loop.

A tabular batch keeps the flat per-step layout of the lockstep loop
(``_Flat``): states in rollout order, each step's time, costs, and the
length and end reason of each rollout. The estimators and the batch's
summaries read these arrays. ``Rollout`` objects, and their score vectors
(one ``score_sums`` call per stage for the whole batch), are built only
when something reads ``batch.rollouts``.

Estimators consume whole batches as flat per-step arrays and refuse
parameters that differ from the ones the batch was generated under. Their
cost-to-go R_t = L_t + gamma R_{t+1} is one backward scan over the batch,
bit-identical to ``scipy.signal.lfilter([1], [1, -gamma])`` over each
rollout's reversed costs: the same operations in the same order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    check_params,
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
    SeedSequence algorithm (the mix of the entropy words into a pool of
    four, then generate_state) in uint32 arithmetic over the n spawn keys.
    The seed is a non-negative integer, as generate_rollouts checks.
    """
    u32 = np.uint32
    words, rest = [], int(seed)
    while rest > 0 or not words:
        words.append(rest & 0xFFFFFFFF)
        rest >>= 32
    words += [0] * (4 - len(words))  # padded to the pool size ahead of a spawn key
    entropy = [np.full(n, w, dtype=u32) for w in words] + [np.arange(n, dtype=u32)]
    hash_const = 0x43B0D7E5

    def hashmix(v):
        nonlocal hash_const
        v = v ^ u32(hash_const)
        hash_const = (hash_const * 0x931E8875) & 0xFFFFFFFF
        v = v * u32(hash_const)
        return v ^ (v >> u32(16))

    def mix(x, y):
        r = u32(0xCA01F9DD) * x - u32(0x4973F715) * y
        return r ^ (r >> u32(16))

    pool = [hashmix(entropy[i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    # generate_state(4, np.uint64): eight uint32 words, paired little-endian
    hash_const = 0x8B51F9DD
    state = []
    for k in range(8):
        v = pool[k % 4] ^ u32(hash_const)
        hash_const = (hash_const * 0x58F38DED) & 0xFFFFFFFF
        v = v * u32(hash_const)
        state.append(v ^ (v >> u32(16)))
    state = np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_PresetSeed(row))) for row in state]


class Rollout:
    """One sampled trajectory with per-step costs and score vectors.

    ``states`` is (T+1,) ints or (T+1, n_x) floats, ``costs`` (T+1,) and
    ``scores`` (T, n_params). ``scores`` may be given as a callable that
    returns them; it is called on first read.
    """

    def __init__(self, states, costs, scores, end_reason: str, diverged: bool = False):
        self.states = states
        self.costs = costs
        self._scores = scores
        self.end_reason = end_reason
        self.diverged = diverged

    @property
    def scores(self) -> np.ndarray:
        if callable(self._scores):
            self._scores = self._scores()
        return self._scores

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1


def _split(a: np.ndarray, lengths) -> list:
    """Consecutive pieces of a with the given lengths (views)."""
    ends = np.cumsum(lengths).tolist()
    return [a[e - k : e] for e, k in zip(ends, np.asarray(lengths).tolist())]


@dataclass
class _Flat:
    """Rollouts as flat per-step arrays, rollout after rollout."""

    states: np.ndarray  # (N,) ints or (N, n_x) floats
    t: np.ndarray  # the step's time within its rollout
    costs: np.ndarray  # (N,)
    lengths: np.ndarray  # states per rollout
    codes: np.ndarray  # each rollout's end reason, an index into _REASONS

    @staticmethod
    def join(states: list, costs: list, codes) -> "_Flat":
        """The layout of rollouts given as per-rollout arrays."""
        lengths = np.array([c.shape[0] for c in costs], dtype=np.int64)
        first = np.cumsum(lengths) - lengths
        return _Flat(
            states=np.concatenate(states) if states else np.zeros(0, dtype=np.int64),
            t=np.arange(lengths.sum()) - np.repeat(first, lengths),
            costs=np.concatenate(costs) if costs else np.zeros(0),
            lengths=lengths,
            codes=np.asarray(codes, dtype=np.int64),
        )

    def transitions(self) -> np.ndarray:
        """The steps that start a transition: all but each rollout's last."""
        return np.delete(np.arange(self.t.size), np.cumsum(self.lengths) - 1)


def _stage_order(stage: np.ndarray):
    """(order, [(s, slice)]): the positions sorted by stage, stably, and
    the slice of that order holding each stage s present."""
    order = np.argsort(stage, kind="stable")
    ends = np.cumsum(np.bincount(stage)).tolist()
    starts = [0] + ends[:-1]
    return order, [(s, slice(a, b)) for s, (a, b) in enumerate(zip(starts, ends)) if b > a]


class _TabularScores:
    """The per-step score vectors of a flat tabular batch, computed for
    every rollout on the first request with one ``score_sums`` call per
    stage, one group per transition. ``lazy(i)`` is what rollout i reads
    them through."""

    def __init__(self, chain, theta, n_stages: int, flat: _Flat):
        self.chain, self.theta, self.n_stages, self.flat = chain, theta, n_stages, flat
        self.pieces = None

    def lazy(self, i: int):
        return lambda: self._get(i)

    def _get(self, i: int) -> np.ndarray:
        if self.pieces is None:
            f = self.flat
            k = f.transitions()
            order, stages = _stage_order(np.minimum(f.t[k], self.n_stages - 1))
            k = k[order]
            x, y = f.states[k], f.states[k + 1]
            scores = np.empty((k.size, self.chain.n_params))
            for s, sl in stages:
                c = sl.stop - sl.start
                scores[order[sl]] = self.chain.score_sums(
                    self.theta, x[sl], y[sl], np.ones(c), np.arange(c), c, s
                )
            self.pieces = _split(scores, f.lengths - 1)
        return self.pieces[i]


class RolloutBatch:
    """Rollouts plus the exact generation context they were produced under.

    ``rollouts`` is a list of Rollout, or a callable that returns the list
    on its first read; a batch given a callable must also be given
    ``flat`` and holds no diverged rollouts. ``flat`` is the rollouts that
    did not diverge in the flat layout; when not given, it is joined from
    the list on first need.
    """

    def __init__(self, rollouts, theta, seed, mode, horizon_cap, n_diverged=0, flat=None):
        self._rollouts = rollouts
        self.theta = theta
        self.seed = seed
        self.mode = mode
        self.horizon_cap = horizon_cap
        self.n_diverged = n_diverged
        self._flat = flat
        self._steps = {}

    @property
    def rollouts(self) -> list:
        if callable(self._rollouts):
            self._rollouts = self._rollouts()
        return self._rollouts

    @property
    def flat(self) -> _Flat:
        if self._flat is None:
            kept = [r for r in self.rollouts if not r.diverged]
            self._flat = _Flat.join(
                [r.states for r in kept],
                [r.costs for r in kept],
                [_REASONS.index(r.end_reason) for r in kept],
            )
        return self._flat

    def __len__(self):
        if callable(self._rollouts):
            return self._flat.lengths.size
        return len(self._rollouts)

    def steps(self, gamma: float) -> "BatchSteps":
        """batch_steps(self, gamma), built once per gamma and shared, so not to
        be modified: the estimators and the value fit read the same batch,
        often at different iterations."""
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
        if callable(self._rollouts):
            return self._flat.t.size - self._flat.lengths.size
        return int(sum(r.n_steps for r in self._rollouts))

    def to_jsonl(self, path):
        """Line-delimited dump: a metadata line, then one rollout per line."""
        with open(path, "w") as fh:
            meta = {
                "theta": self.theta.tolist(),
                "seed": self.seed,
                "mode": self.mode,
                "horizon_cap": self.horizon_cap,
            }
            fh.write(json.dumps(meta) + "\n")
            for i, r in enumerate(self.rollouts):
                rec = {
                    "seed": [self.seed, i],
                    "states": np.asarray(r.states).tolist(),
                    "costs": r.costs.tolist(),
                    "end": r.end_reason,
                }
                fh.write(json.dumps(rec) + "\n")


def _numbers(value):
    """value as a numeric array, or None unless it nests numbers evenly."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    return arr if arr.dtype.kind in "if" else None


def batch_from_jsonl(problem: Problem, path) -> RolloutBatch:
    """Reload a dumped batch, recomputing score vectors from the chain. A
    malformed line raises InvalidStructureError naming the file and the line."""
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
    theta = theta.astype(float)
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
        states.append(st.astype(np.int64) if chain.tabular else st)
        costs.append(cost.astype(float))
    seed, mode, cap = meta["seed"], meta["mode"], meta["horizon_cap"]
    if chain.tabular:
        codes = [_REASONS.index(rec["end"]) for rec in records]
        flat = _Flat.join(states, costs, codes)
        return _flat_batch(chain, theta, flat, cap if tv else 1, seed, mode, cap)
    rollouts = []
    for rec, st, cost in zip(records, states, costs):
        scores = np.zeros((st.shape[0] - 1, problem.n_params))
        for t in range(scores.shape[0]):
            scores[t] = chain.score(st[t], st[t + 1], theta, t if tv else 0)
        rollouts.append(Rollout(st, cost, scores, rec["end"]))
    return RolloutBatch(rollouts, theta, seed, mode, cap)


def _flat_batch(chain, theta, flat: _Flat, n_stages: int, seed, mode, horizon_cap) -> RolloutBatch:
    """A tabular batch in the flat layout. Its Rollout list shares the
    layout's arrays and is built on first read; the first read of any
    rollout's scores computes those of all."""

    def rollouts():
        table = _TabularScores(chain, theta, n_stages, flat)
        pieces = zip(_split(flat.states, flat.lengths), _split(flat.costs, flat.lengths))
        return [
            Rollout(s, c, table.lazy(i), _REASONS[code])
            for i, ((s, c), code) in enumerate(zip(pieces, flat.codes.tolist()))
        ]

    return RolloutBatch(rollouts, theta, seed, mode, horizon_cap, flat=flat)


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
    if not chain.samplable:
        raise CapabilityError("rollout generation needs a samplable chain")
    if isinstance(problem.setting, Average):
        raise CapabilityError("rollout estimation covers episodic and finite-horizon settings")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidStructureError(f"seed must be a non-negative integer, got {seed!r}")
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
    if n_rollouts < 1 or horizon_cap < 1:
        raise InvalidStructureError("need at least one rollout and one step")
    if chain.tabular:
        flat = _tabular_rollouts(problem, theta, n_rollouts, horizon_cap, mode, seed, tv)
        return _flat_batch(chain, theta, flat, horizon_cap if tv else 1, seed, mode, horizon_cap)
    samplers = [chain.make_sampler(theta, t) for t in range(horizon_cap if tv else 1)]
    rollouts = [
        _continuous_rollout(problem, theta, samplers, rng, horizon_cap, mode)
        for rng in _rollout_streams(seed, n_rollouts)
    ]
    n_diverged = sum(1 for r in rollouts if r.diverged)
    return RolloutBatch(rollouts, theta, seed, mode, horizon_cap, n_diverged)


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
    n_stages = horizon_cap if tv else 1
    cums = np.stack(
        [np.cumsum(chain.transition_matrix(theta, t), axis=1) for t in range(n_stages)]
    )
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
        stage = min(t, n_stages - 1)
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
    n_tables = n_stages + (1 if tv else 0)
    L = np.stack([problem.cost.value_table(theta, k) for k in range(n_tables)])
    costs = L[np.minimum(steps, n_tables - 1), states]
    return _Flat(states, steps, costs, lengths, reason)


def _continuous_rollout(problem, theta, samplers, rng, horizon_cap, mode) -> Rollout:
    chain = problem.chain
    tv = isinstance(problem.setting, TimeVarying)
    stop_prob = 1.0 - problem.gamma
    x = problem.init.sample(rng)
    states = [x]
    diverged = False
    t = 0
    reason = END_HORIZON
    while True:
        if t >= horizon_cap:
            break
        if mode == "geometric" and rng.random() < stop_prob:
            reason = END_GEOMETRIC
            break
        x_next = samplers[min(t, len(samplers) - 1)](states[-1], rng)
        if not np.all(np.isfinite(x_next)):
            diverged = True
            break
        states.append(x_next)
        t += 1
    T = len(states) - 1
    costs = np.array([problem.cost.value(states[k], theta, k if tv else 0) for k in range(T + 1)])
    scores = np.zeros((T, problem.n_params))
    for k in range(T):
        scores[k] = chain.score(states[k], states[k + 1], theta, k if tv else 0)
    return Rollout(np.asarray(states, dtype=float), costs, scores, reason, diverged)


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


# ---------------------------------------------------------------------------
# Value-function fitting
# ---------------------------------------------------------------------------


class FeatureMap:
    """State features phi(x) used by fitted value baselines.

    ``rows`` optionally maps an array of states to their stacked features
    at once; without it the features are stacked one state at a time.
    """

    def __init__(self, dim: int, fn, rows=None):
        self.dim = int(dim)
        self._fn = fn
        self._rows = rows

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self._fn(x), dtype=float)

    def rows(self, states) -> np.ndarray:
        """Features of each state, shape (len(states), dim)."""
        if self._rows is not None:
            return np.asarray(self._rows(states), dtype=float)
        if len(states) == 0:
            return np.zeros((0, self.dim))
        return np.stack([self(x) for x in states])

    @staticmethod
    def tabular(n_states: int) -> "FeatureMap":
        eye = np.eye(n_states)
        return FeatureMap(
            n_states, lambda x: eye[int(x)], lambda xs: eye[np.asarray(xs, dtype=np.int64)]
        )

    @staticmethod
    def constant() -> "FeatureMap":
        return FeatureMap(1, lambda x: np.ones(1), lambda xs: np.ones((len(xs), 1)))


@dataclass
class ValueApprox:
    """Linear value model omega . phi(x)."""

    features: FeatureMap
    weights: np.ndarray

    def predict(self, x) -> float:
        return float(self.features(x) @ self.weights)

    def table(self, n_states: int) -> np.ndarray:
        return self.features.rows(np.arange(n_states)) @ self.weights


def fit_value_approx(
    problem: Problem, batch: RolloutBatch, features: FeatureMap, ridge: float = 0.0
) -> ValueApprox:
    """Discount-weighted ridge regression of per-step cost-to-go onto features.

    Minimizes sum over rollouts and steps of gamma^t (omega.phi(x_t) - R_t)^2
    plus ridge ||omega||^2, by the normal equations. Rank deficiency with no
    ridge raises rather than silently pseudo-inverting. On a tabular chain
    the weights are first summed per visited state, so the features are
    read once per visited state.
    """
    steps = batch.steps(effective_gamma(problem, batch))
    w, wR = steps.weights, steps.weights * steps.returns
    if problem.chain.tabular:
        n = problem.chain.n_states
        visited = np.flatnonzero(np.bincount(steps.states, minlength=n))
        phi = features.rows(visited)
        mass = np.bincount(steps.states, weights=w, minlength=n)[visited]
        A = phi.T @ (mass[:, None] * phi)
        b = phi.T @ np.bincount(steps.states, weights=wR, minlength=n)[visited]
    else:
        phi = features.rows(steps.states)
        A = phi.T @ (w[:, None] * phi)
        b = phi.T @ wR
    A = A + ridge * np.eye(features.dim)
    try:
        chol = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if ridge <= 0.0:
            raise RegularizationRequiredError(
                "normal matrix is rank deficient; supply a positive ridge"
            )
        raise
    omega = np.linalg.solve(chol.T, np.linalg.solve(chol, b))
    return ValueApprox(features, omega)


# ---------------------------------------------------------------------------
# Gradient estimation
# ---------------------------------------------------------------------------


@dataclass
class GradientEstimate:
    """Batch-mean gradient with per-coordinate standard errors."""

    mean: np.ndarray
    stderr: np.ndarray
    n_rollouts: int
    n_diverged: int
    valid: bool
    diagnostics: dict = field(default_factory=dict)


def baseline_expected_values(problem: Problem, theta, approx: ValueApprox):
    """Per-stage tables b(x) = E[V^(x') | x] for tabular chains."""
    chain = problem.chain
    tv = isinstance(problem.setting, TimeVarying)
    n_stages = problem.setting.horizon if tv else 1
    tables = []
    vhat = approx.table(chain.n_states)
    for t in range(n_stages):
        P = chain.transition_matrix(theta, t)
        tables.append(P @ vhat)
    return tables


def estimate_gradient(
    problem: Problem,
    theta,
    batch: RolloutBatch,
    baseline: Optional[ValueApprox] = None,
) -> GradientEstimate:
    """Score-times-cost-to-go gradient estimate from one batch.

    Per rollout the contribution is
        sum_t gamma^t dL(x_t) + sum_{t<T} gamma^{t+1} score_t (R_{t+1} - b(x_t)),
    where b subtracts the predicted one-step-ahead value when a baseline is
    supplied. The estimate is unbiased for the exact gradient; the baseline
    only reduces variance. Diverged rollouts are left out. The estimate is
    marked invalid when more than 1% of the batch diverged or, in terminal
    mode, was cut off by the horizon cap.
    """
    theta = check_params(theta, problem.n_params)
    check_batch(theta, batch)
    gamma = effective_gamma(problem, batch)
    steps = batch.steps(gamma)
    n_valid = steps.lengths.size
    if not n_valid:
        raise InvalidStructureError("no valid rollouts in the batch")
    k = steps.trans
    adv = steps.returns[k + 1]
    if baseline is not None:
        adv = adv - _baseline_values(problem, theta, baseline, steps)
    coef = gamma * steps.weights[k] * adv
    kept = _contributions(problem, theta, batch, steps, steps.weights, coef)
    mean = kept.mean(axis=0)
    if n_valid > 1:
        stderr = kept.std(axis=0, ddof=1) / math.sqrt(n_valid)
    else:
        stderr = np.full(problem.n_params, np.inf)
    n_truncated = batch.n_truncated
    frac_bad = (batch.n_diverged + n_truncated) / len(batch)
    return GradientEstimate(
        mean=mean,
        stderr=stderr,
        n_rollouts=n_valid,
        n_diverged=batch.n_diverged,
        valid=frac_bad <= 0.01,
        diagnostics={
            "mean_return": float(np.mean(steps.returns[steps.first])),
            "mean_length": float(np.mean(steps.lengths - 1)),
            "n_diverged": batch.n_diverged,
            "n_truncated": n_truncated,
            "per_rollout": kept,
        },
    )


def _baseline_values(problem, theta, baseline: ValueApprox, steps: BatchSteps) -> np.ndarray:
    """b(x_t) at the transitions: the baseline's predicted value one step
    ahead, from the stage tables on a tabular chain and per step otherwise."""
    k = steps.trans
    if problem.chain.tabular:
        tables = np.stack(baseline_expected_values(problem, theta, baseline))
        return tables[np.minimum(steps.t[k], len(tables) - 1), steps.states[k]]
    chain = problem.chain
    stage = steps.t if isinstance(problem.setting, TimeVarying) else np.zeros_like(steps.t)
    return np.array(
        [baseline.predict(chain.mean(steps.states[j], theta, int(stage[j]))) for j in k]
    )


def _contributions(problem, theta, batch, steps: BatchSteps, step_w, coef) -> np.ndarray:
    """Per-rollout sums of step_w * dL(x_t) over the steps plus coef *
    score_t over the transitions steps.trans, shape (rollouts, n_params)."""
    if problem.chain.tabular:
        return _tabular_contributions(problem, theta, batch, steps, step_w, coef)
    return _continuous_contributions(problem, theta, batch, steps, step_w, coef)


def _tabular_contributions(problem, theta, batch, steps: BatchSteps, step_w, coef):
    """One bincount of the step weights over (rollout, stage, state),
    contracted by each stage's cost grad_sum, plus the chain's score sums
    over the transitions sorted by stage; no per-step Python."""
    chain, cost = problem.chain, problem.cost
    tv = isinstance(problem.setting, TimeVarying)
    n_stages = batch.horizon_cap if tv else 1
    n_tables = n_stages + (1 if tv else 0)
    n, m = chain.n_states, steps.lengths.size
    cell = (steps.owner * n_tables + np.minimum(steps.t, n_tables - 1)) * n + steps.states
    mass = np.bincount(cell, weights=step_w, minlength=m * n_tables * n).reshape(m, n_tables, n)
    out = cost.grad_sum(theta, mass[:, 0], 0)
    for s in range(1, n_tables):
        out += cost.grad_sum(theta, mass[:, s], s)

    order, stages = _stage_order(np.minimum(steps.t[steps.trans], n_stages - 1))
    k = steps.trans[order]
    x, y, group, c = steps.states[k], steps.states[k + 1], steps.owner[k], coef[order]
    for s, sl in stages:
        out += chain.score_sums(theta, x[sl], y[sl], c[sl], group[sl], m, s)
    return out


def _continuous_contributions(problem, theta, batch, steps: BatchSteps, step_w, coef):
    """Per-step cost gradients and the stored scores, summed per rollout."""
    cost = problem.cost
    tv = isinstance(problem.setting, TimeVarying)
    stage = steps.t if tv else np.zeros_like(steps.t)
    out = np.zeros((steps.lengths.size, problem.n_params))
    gL = np.stack([cost.grad(x, theta, int(s)) for x, s in zip(steps.states, stage)])
    np.add.at(out, steps.owner, step_w[:, None] * gL)
    k = steps.trans
    if k.size:
        scores = np.concatenate([r.scores for r in batch.rollouts if not r.diverged])
        np.add.at(out, steps.owner[k], coef[:, None] * scores)
    return out


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
    out = _contributions(problem, theta, batch, steps, np.ones(steps.t.size), coef)
    mean = out.mean(axis=0)
    stderr = out.std(axis=0, ddof=1) / math.sqrt(m)
    return GradientEstimate(
        mean=mean,
        stderr=stderr,
        n_rollouts=m,
        n_diverged=batch.n_diverged,
        valid=True,
        diagnostics={"per_rollout": out},
    )


def path_hessian(problem: Problem, theta, batch: RolloutBatch) -> HessianEstimate:
    """Whole-path Hessian estimate for finite-horizon problems.

    Per path, with K the log-likelihood and L the accumulated cost:
        (dK dK' + d2K) L + dK dL' + dL dK' + d2L.
    Requires a tabular chain and second derivatives of both the chain and
    the cost. A transition's d2 log P is row_hess at the indicator of
    (x, y) divided by P[x, y], minus s s^T; a state's d2L is hess_sum at the
    state's indicator; both are cached per stage. The batch mean is
    symmetrized before it is returned.
    """
    theta = check_params(theta, problem.n_params)
    check_batch(theta, batch)
    _require_timevarying(problem)
    chain, cost = problem.chain, problem.cost
    if not chain.tabular:
        raise CapabilityError("path Hessian needs a tabular chain")
    if not chain.twice_differentiable or not cost.twice_differentiable:
        raise CapabilityError("path Hessian needs twice-differentiable chain and cost")
    T = problem.setting.horizon
    p, n = problem.n_params, chain.n_states
    rollouts = batch.rollouts
    if any(r.n_steps != T for r in rollouts):
        raise InvalidStructureError("path derivatives need full-horizon rollouts")
    # each rollout's cost gradient sum: per stage, grad_sum at its one-hot visits
    states, onehot = np.array([r.states for r in rollouts]), np.eye(n)
    dLs = sum(cost.grad_sum(theta, onehot[states[:, t]], t) for t in range(T + 1))
    hess_cache = {}

    def chain_hess(t, x, y):
        key = (t, int(x), int(y))
        if key not in hess_cache:
            E = np.zeros((n, n))
            E[x, y] = 1.0 / chain.transition_matrix(theta, t)[x, y]
            s = chain.score_sums(theta, [x], [y], [1.0], [0], 1, t)[0]
            hess_cache[key] = chain.row_hess(theta, E, t) - np.outer(s, s)
        return hess_cache[key]

    def cost_hess(t, x):
        key = (t, int(x))
        if key not in hess_cache:
            hess_cache[key] = cost.hess_sum(theta, onehot[x], t)
        return hess_cache[key]

    out = np.zeros((len(rollouts), p, p))
    for i, (r, dL) in enumerate(zip(rollouts, dLs)):
        total_cost = float(r.costs.sum())
        dK = r.scores.sum(axis=0)
        d2K = sum(chain_hess(t, r.states[t], r.states[t + 1]) for t in range(T))
        d2L = sum(cost_hess(t, x) for t, x in enumerate(r.states))
        H = (np.outer(dK, dK) + d2K) * total_cost
        H += np.outer(dK, dL) + np.outer(dL, dK) + d2L
        out[i] = H
    mean = out.mean(axis=0)
    mean = 0.5 * (mean + mean.T)
    stderr = out.std(axis=0, ddof=1) / math.sqrt(len(rollouts))
    return HessianEstimate(mean=mean, stderr=stderr, n_rollouts=len(rollouts))
