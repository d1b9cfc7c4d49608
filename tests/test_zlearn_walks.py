"""The Python-scalar Z-learning walks checked against the numpy loop they
replaced.

The reference below is that loop, kept here with its tabular update only:
numpy draws (``Generator.choice``, ``sample_index``), a numpy Z table and
numpy sums. On rows of fewer than 8 successors and at gamma = 1 the two
must agree bit for bit in Z, visits, floor hits, restarts and every
recorded snapshot. On denser rows numpy sums pairwise, and at gamma != 1
numpy's array power rounds differently from libm ``pow``; there the
greedy energies agree to 1e-12 and the walks take the same steps.
"""

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainopt import InvalidStructureError
from chainopt.mdp import LmdpSpec
from chainopt.model import sample_index
from chainopt.problems import gridworld_lmdp
from chainopt.zlearn import (
    LinearFeatureZ,
    TabularZ,
    ZLearnStats,
    _cut,
    _pick,
    _running_pick,
    zlearn_baseline,
    zlearn_greedy,
)

_Z_FLOOR = 1e-12


def _init_distribution(spec, init_weights):
    if init_weights is not None:
        w = np.asarray(init_weights, dtype=float)
    else:
        w = np.array([0.0 if x in spec.terminal else 1.0 for x in range(spec.n_states)])
    return w / w.sum()


class _ZUpdater:
    """Tabular Z-space averaging with positivity floor."""

    def __init__(self, z, c):
        self.z = z
        self.c = float(c)
        self.visits = np.zeros(z.n_states, dtype=np.int64)
        self.n_floored = 0
        self._ztab = z.z_table()

    def z_at(self, x):
        return float(self._ztab[x])

    def update(self, x, target):
        beta = self.c / (self.c + self.visits[x])
        self.visits[x] += 1
        new = (1.0 - beta) * self._ztab[x] + beta * target
        if new < _Z_FLOOR:
            new = _Z_FLOOR
            self.n_floored += 1
        self._ztab[x] = new

    def snapshot(self):
        with np.errstate(divide="ignore"):
            return TabularZ(-np.log(self._ztab), self.z.gamma, self.z.terminal)

    def finish(self):
        with np.errstate(divide="ignore"):
            self.z.energies = -np.log(self._ztab)
        return self.z


def reference_baseline(spec, z, steps, seed=0, c=100.0, init_weights=None,
                       record_every=0, on_record=None):
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


def reference_greedy(spec, z, steps, seed=0, mode="exact-g", c=100.0,
                     init_weights=None, record_every=0, on_record=None):
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


def path_spec(n=5, charge=0.05):
    """Line of states walking to an absorbing goal at the right end."""
    base = np.zeros((n, n))
    for x in range(n - 1):
        base[x, max(x - 1, 0)] += 0.5
        base[x, x + 1] += 0.5
    base[n - 1, n - 1] = 1.0
    cost = np.full(n, charge)
    cost[n - 1] = 0.0
    return LmdpSpec(base, cost, terminal=[n - 1])


def dense_spec(n=12, seed=0):
    """Every interior row reaches all n states; the last state is the goal."""
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(n), size=n)
    base[-1] = 0.0
    base[-1, -1] = 1.0
    cost = rng.uniform(0.05, 0.4, n)
    cost[-1] = 0.0
    return LmdpSpec(base, cost, terminal=[n - 1])


WALKS = ["baseline", "exact-g", "double-sample"]


def _run(walk, learn_baseline, learn_greedy, spec, z, record_every=250, hook=True, **kw):
    """One walk, by default recording every 250 steps; returns (Z, stats, records)."""
    records = []
    on_record = (lambda k, snap: records.append((k, snap.energies))) if hook else None
    kw = dict(kw, record_every=record_every, on_record=on_record)
    if walk == "baseline":
        out = learn_baseline(spec, z, **kw)
    else:
        out = learn_greedy(spec, z, mode=walk, **kw)
    return out + (records,)


def _both(walk, spec, z, **kw):
    new = _run(walk, zlearn_baseline, zlearn_greedy, spec, z, **kw)
    ref = _run(walk, reference_baseline, reference_greedy, spec, z, **kw)
    return new, ref


def _assert_same_walk(new, ref, atol=0.0):
    (z_new, s_new, rec_new), (z_ref, s_ref, rec_ref) = new, ref
    np.testing.assert_array_equal(s_new.visits, s_ref.visits)
    assert s_new.visits.dtype == s_ref.visits.dtype
    assert (s_new.steps, s_new.n_restarts) == (s_ref.steps, s_ref.n_restarts)
    assert [k for k, _ in rec_new] == [k for k, _ in rec_ref]
    assert z_new.gamma == z_ref.gamma and z_new.terminal == z_ref.terminal
    if atol == 0.0:
        assert s_new.n_floored == s_ref.n_floored
        np.testing.assert_array_equal(z_new.energies, z_ref.energies)
        for (_, e_new), (_, e_ref) in zip(rec_new, rec_ref):
            np.testing.assert_array_equal(e_new, e_ref)
    else:
        np.testing.assert_allclose(z_new.energies, z_ref.energies, rtol=0, atol=atol)
        for (_, e_new), (_, e_ref) in zip(rec_new, rec_ref):
            np.testing.assert_allclose(e_new, e_ref, rtol=0, atol=atol)


def _zero_z(spec, gamma=1.0):
    return TabularZ(np.zeros(spec.n_states), gamma=gamma, terminal=spec.terminal)


@pytest.mark.parametrize("walk", WALKS)
class TestBitEqualToNumpyLoop:
    def test_path(self, walk):
        spec = path_spec()
        _assert_same_walk(*_both(walk, spec, _zero_z(spec), steps=3000, seed=3))

    @pytest.mark.parametrize("size, seed", [(3, 0), (4, 1), (5, 2), (6, 3)])
    def test_gridworld(self, walk, size, seed):
        spec = gridworld_lmdp(size, seed=seed)
        _assert_same_walk(*_both(walk, spec, _zero_z(spec), steps=3000, seed=seed + 10))

    def test_floor_hits(self, walk):
        spec = gridworld_lmdp(3, 0, 30.0)
        new, ref = _both(walk, spec, _zero_z(spec), steps=600, seed=0)
        assert new[1].n_floored > 0
        _assert_same_walk(new, ref)

    def test_random_start_energies_and_init_weights(self, walk):
        spec = gridworld_lmdp(5, seed=1)
        rng = np.random.default_rng(7)
        energies = rng.uniform(0.0, 2.0, spec.n_states)
        energies[list(spec.terminal)] = 0.0
        z = TabularZ(energies, terminal=spec.terminal)
        weights = rng.uniform(0.0, 1.0, spec.n_states)
        _assert_same_walk(
            *_both(walk, spec, z, steps=3000, seed=5, c=20.0, init_weights=weights)
        )

    def test_dense_rows_agree_to_rounding(self, walk):
        spec = dense_spec()
        assert min(np.count_nonzero(row) for row in spec.baseline[:-1]) >= 8
        _assert_same_walk(*_both(walk, spec, _zero_z(spec), steps=3000, seed=1), atol=1e-12)

    def test_gamma_below_one_agrees_to_rounding(self, walk):
        spec = gridworld_lmdp(5, seed=0)
        _assert_same_walk(
            *_both(walk, spec, _zero_z(spec, gamma=0.7), steps=3000, seed=2), atol=1e-12
        )


@pytest.mark.parametrize("walk", WALKS)
class TestRecordBoundaries:
    """The walks run in chunks of record_every steps; these are the chunk
    layouts the 3000/250 walks above never take."""

    def _check(self, walk, steps, record_every, hook, want_records):
        spec = gridworld_lmdp(4, seed=1)
        new, ref = _both(walk, spec, _zero_z(spec), steps=steps, seed=4,
                         record_every=record_every, hook=hook)
        _assert_same_walk(new, ref)
        assert new[1].steps == steps
        assert [k for k, _ in new[2]] == want_records

    def test_steps_not_a_multiple_of_record_every(self, walk):
        self._check(walk, 3100, 250, True, list(range(250, 3001, 250)))

    def test_record_every_above_steps(self, walk):
        self._check(walk, 700, 1000, True, [])

    def test_record_every_zero_with_a_hook(self, walk):
        self._check(walk, 900, 0, True, [])

    def test_no_hook_with_record_every(self, walk):
        self._check(walk, 900, 250, False, [])


def test_step_draw_matches_sample_index_and_its_clamp():
    """Draws at or above a row's total, which the walks almost never meet,
    land on the last positive entry in both."""
    rows = [[0.2, 0.2, 0.5, 0.5, 0.5], [0.0, 0.3, 0.3, 0.9999999999999999], [1.0]]
    for cum in rows:
        for u in (0.0, 0.2, 0.3, 0.49, 0.5, 0.7, 0.9999999999999999, cum[-1]):
            assert _pick(cum, u) == sample_index(np.array(cum), u)
    assert _pick(rows[0], 0.7) == 2


# A non-negative row with a positive entry, zero heads, zero runs inside it
# and zero tails, down to a single entry.
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-300, 1e3), st.floats(0.0, 1.0))
_ROWS = st.builds(
    lambda head, body, tail: [0.0] * head + body + [0.0] * tail,
    st.integers(0, 3),
    st.lists(_ENTRY, min_size=1, max_size=10).filter(lambda body: max(body) > 0.0),
    st.integers(0, 3),
)


def _draws(cum):
    """0, every cumulative entry, the total and the largest uniform below 1."""
    return [0.0, *cum, cum[-1], 1.0 - 2.0**-53]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ROWS)
def test_lookups_match_sample_index(row):
    """The walks' two lookups against ``sample_index``: ``bisect_right`` on a
    cut cumulative row, raw or normalized as the start law is, and the
    early-exit pick on the running sums of w / total."""
    cum = np.cumsum(row)
    for cdf in (cum, cum / cum[-1]):
        cut = _cut(cdf)
        for u in _draws(cdf.tolist()):
            assert bisect_right(cut, u) == sample_index(cdf, u)
    total = 0.0
    for w in row:
        total += w
    running = list(accumulate([w / total for w in row]))
    for u in _draws(running):
        assert _running_pick(row, total, u) == sample_index(np.array(running), u)


class TestWalkInputs:
    @pytest.mark.parametrize("walk", WALKS)
    def test_feature_z_is_rejected_naming_its_type(self, walk):
        spec = path_spec()
        z = LinearFeatureZ(np.eye(spec.n_states)[:, :-1], np.zeros(spec.n_states - 1),
                           terminal=spec.terminal)
        with pytest.raises(InvalidStructureError, match="LinearFeatureZ"):
            _run(walk, zlearn_baseline, zlearn_greedy, spec, z, steps=10)

    @pytest.mark.parametrize(
        "weights", [[1.0, -1.0, 1.0, 1.0, 0.0], [1.0, 1.0], [0.0] * 5, [np.nan, 1, 1, 1, 0]],
        ids=["negative", "short", "all-zero", "nan"],
    )
    def test_bad_init_weights_are_rejected(self, weights):
        spec = path_spec()
        with pytest.raises(InvalidStructureError, match="init_weights"):
            zlearn_baseline(spec, _zero_z(spec), 10, init_weights=weights)

    @pytest.mark.parametrize("walk", WALKS)
    @pytest.mark.parametrize(
        "arg, value",
        [("c", 0), ("c", -5), ("c", math.nan), ("c", math.inf),
         ("steps", -3), ("steps", 2.5), ("record_every", -2), ("record_every", True)],
        ids=["c-zero", "c-negative", "c-nan", "c-inf", "steps-negative", "steps-float",
             "record_every-negative", "record_every-bool"],
    )
    def test_bad_argument_is_refused_by_name(self, walk, arg, value):
        spec = path_spec()
        kw = {"steps": 10, arg: value}
        with pytest.raises(InvalidStructureError, match=f"^{arg} must be"):
            if walk == "baseline":
                zlearn_baseline(spec, _zero_z(spec), **kw)
            else:
                zlearn_greedy(spec, _zero_z(spec), mode=walk, **kw)

    def test_zero_steps_return_the_start_table(self):
        spec = path_spec()
        z, stats = zlearn_baseline(spec, _zero_z(spec), 0, record_every=5,
                                   on_record=lambda k, snap: pytest.fail("recorded"))
        np.testing.assert_array_equal(z.energies, 0.0)
        assert (stats.steps, stats.n_restarts, stats.visits.sum()) == (0, 0, 0)
