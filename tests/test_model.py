"""Chain models, cost models, settings, and problem validation."""

import tracemalloc

import numpy as np
import pytest
from conftest import (
    ReferenceSoftmaxLayout,
    dense_grad_table,
    fd_vector,
    gaussian_mean,
    log_prob,
    state_cost,
    transition_score,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from chainopt import (
    Average,
    EpisodicDiscounted,
    FirstExit,
    FixedTabularChain,
    GaussianInitial,
    GaussianLinearChain,
    InvalidStructureError,
    KlToFixedChainCost,
    Problem,
    QuadraticCost,
    SoftmaxChain,
    StateQuadraticCost,
    TableCost,
    TabularInitial,
    TimeVarying,
    TimeVaryingChain,
    TimeVaryingCost,
    WeightedSumCost,
)
from chainopt.mdp import LmdpSpec, PolicyAveragedChain, SoftmaxPolicy
from chainopt.model import PolicyEntropyCost, sample_index
from chainopt.problems import random_mdp, random_softmax_problem
from chainopt.zlearn import ZWeightedChain


class TestSettings:
    def test_discount_ranges(self):
        """Discount factors outside [0, 1) are rejected; the boundary 0 is allowed."""
        EpisodicDiscounted(0.0)
        EpisodicDiscounted(0.999)
        with pytest.raises(InvalidStructureError):
            EpisodicDiscounted(1.0)
        with pytest.raises(InvalidStructureError):
            EpisodicDiscounted(-0.1)

    def test_first_exit_and_average_are_undiscounted(self):
        assert FirstExit().gamma == 1.0
        assert Average().gamma == 1.0

    def test_time_varying_needs_positive_horizon(self):
        assert TimeVarying(3).horizon == 3
        with pytest.raises(InvalidStructureError):
            TimeVarying(0)


class TestTabularInitial:
    def test_rejects_non_distribution(self):
        with pytest.raises(InvalidStructureError):
            TabularInitial([0.5, 0.6])
        with pytest.raises(InvalidStructureError):
            TabularInitial([-0.1, 1.1])

    def test_sampling_respects_support(self):
        init = TabularInitial([0.0, 1.0, 0.0])
        rng = np.random.default_rng(0)
        assert all(init.sample(rng) == 1 for _ in range(20))


class TestSoftmaxChain:
    def make(self):
        chain = SoftmaxChain(3, {0: [0, 1], 1: [0, 2]}, terminal=[2])
        theta = 0.4 * np.random.default_rng(3).normal(size=chain.n_params)
        return chain, theta

    def test_rows_are_distributions(self):
        chain, theta = self.make()
        P = chain.transition_matrix(theta)
        np.testing.assert_allclose(P.sum(axis=1), np.ones(3), atol=1e-12)
        assert np.all(P >= 0)
        # terminal rows are absorbing and carry no parameters
        assert P[2, 2] == 1.0

    def test_score_matches_fd_of_log_prob(self):
        """The score is the parameter gradient of log P(y | x)."""
        chain, theta = self.make()
        for x in (0, 1):
            for y in chain.successors(x):
                got = transition_score(chain, x, y, theta)
                want = fd_vector(lambda th: log_prob(chain, x, y, th), theta)
                np.testing.assert_allclose(got, want, atol=1e-8)

    def test_log_prob_hess_matches_fd_of_score(self):
        """d2 log P(y | x) = row_hess at the indicator of (x, y) over P[x, y],
        minus s s^T, is the derivative of the score."""
        chain, theta = self.make()
        P = chain.transition_matrix(theta)
        for x in (0, 1):
            for y in chain.successors(x):
                E = np.zeros((3, 3))
                E[x, y] = 1.0 / P[x, y]
                s = transition_score(chain, x, y, theta)
                H = chain.row_hess(theta, E) - np.outer(s, s)
                np.testing.assert_allclose(H, H.T, atol=1e-12)
                col = fd_vector(lambda th: transition_score(chain, x, y, th), theta, h=1e-5)
                np.testing.assert_allclose(H, col, atol=1e-7)

    def test_score_is_zero_outside_own_row(self):
        chain, theta = self.make()
        s = transition_score(chain, 0, 1, theta)
        sl = chain.param_slice(1)
        np.testing.assert_array_equal(s[sl], 0.0)

    def test_sampler_matches_row_frequencies(self):
        chain, theta = self.make()
        rng = np.random.default_rng(11)
        draw = chain.make_sampler(theta)
        n = 40_000
        hits = np.bincount([draw(0, rng) for _ in range(n)], minlength=3)
        np.testing.assert_allclose(hits / n, chain.transition_matrix(theta)[0], atol=0.01)

    def test_rejects_terminal_with_parameters(self):
        with pytest.raises(InvalidStructureError):
            SoftmaxChain(2, {0: [0, 1], 1: [0]}, terminal=[1])

    def test_rejects_support_key_out_of_range(self):
        with pytest.raises(InvalidStructureError, match="state 7 outside"):
            SoftmaxChain(3, {0: [1], 1: [2], 2: [0], 7: [1]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_offset(self, bad):
        with pytest.raises(InvalidStructureError, match="non-finite"):
            SoftmaxChain(2, {0: [0, 1], 1: [0, 1]}, logit_offset=[bad, 0.0, 0.0, 0.0])


# The constructor's support faults: each corrupts a valid support once.
SUPPORT_FAULTS = ("twice", "range", "empty", "missing", "terminal-row", "key", "terminal-range")


@st.composite
def softmax_layouts(draw):
    """Arguments of SoftmaxChain: a valid support with a random terminal
    set, rows given as lists, tuples or arrays, then up to three support
    faults at random states, and an offset that is absent, fitting, one
    entry short or non-finite."""
    n = draw(st.integers(1, 6))
    states = st.integers(0, n - 1)
    terminal = draw(st.sets(states, max_size=n))
    support = {
        x: draw(st.lists(states, min_size=1, max_size=n, unique=True))
        for x in range(n)
        if x not in terminal
    }
    for _ in range(draw(st.integers(0, 3))):
        fault, x = draw(st.sampled_from(SUPPORT_FAULTS)), draw(states)
        row = support.get(x)
        if fault in ("twice", "range") and row:
            y = draw(st.sampled_from(row)) if fault == "twice" else draw(st.sampled_from([-1, n, n + 3]))
            row.insert(draw(st.integers(0, len(row))), y)
        elif fault == "empty" and row is not None:
            support[x] = []
        elif fault == "missing":
            support.pop(x, None)
        elif fault == "terminal-row" and terminal:
            support[draw(st.sampled_from(sorted(terminal)))] = [0]
        elif fault == "key":
            support[draw(st.sampled_from([-1, n, n + 2]))] = [0]
        elif fault == "terminal-range":
            terminal = terminal | {draw(st.sampled_from([-1, n]))}
    kind = draw(st.sampled_from([list, tuple, np.array]))
    support = {x: kind(row) for x, row in support.items()}
    k = sum(len(row) for row in support.values())
    mode = draw(st.sampled_from([None, "fit", "short", "nan"]))
    offset = None
    if mode is not None:
        offset = np.random.default_rng(k).normal(size=max(0, k - (mode == "short")))
        offset[:1] *= np.nan if mode == "nan" else 1.0
    return n, support, terminal, offset


LAYOUT_ARRAYS = ("_flat_x", "_flat_y", "_key_param", "_sorted_keys")


class TestSoftmaxLayout:
    """The constructor's numpy layout against the per-state reference."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(softmax_layouts())
    def test_matches_per_state_reference(self, args):
        try:
            ref = ReferenceSoftmaxLayout(*args)
        except InvalidStructureError as exc:
            with pytest.raises(InvalidStructureError) as got:
                SoftmaxChain(*args)
            assert str(got.value) == str(exc)
            return
        chain = SoftmaxChain(*args)
        assert chain.n_params == ref.n_params
        np.testing.assert_array_equal(chain._offset, ref._offset)
        arrays = [(chain, name) for name in LAYOUT_ARRAYS]
        arrays += [(chain._softmax, name) for name in ("seg_start", "seg_of")]
        for owner, name in arrays:
            got, want = getattr(owner, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        for x in range(chain.n_states):
            assert chain.successors(x) == ref.successors(x)
            if x not in chain.terminal:
                assert chain.param_slice(x) == ref.param_slice(x)

    @pytest.mark.parametrize(
        "n, support, terminal, message",
        [
            (3, {0: [1, 2, 1], 1: [0], 2: [0]}, (), "state 0 lists a successor twice"),
            (3, {0: [1], 1: [4, 0], 2: [0]}, (), "successor 4 of state 1 out of range"),
            (3, {0: [1], 1: [0, -1, 0], 2: [0]}, (), "state 1 lists a successor twice"),
            (3, {0: [1], 1: [], 2: [0]}, (), "non-terminal state 1 has no successors"),
            (3, {0: [1], 2: [0]}, (), "non-terminal state 1 has no successors"),
            (3, {0: [1], 1: [9], 2: [5, 5]}, (), "successor 9 of state 1 out of range"),
            (3, {0: [1, 2], 1: [0], 2: [0]}, [2], "terminal states must not list successors"),
            (3, {0: [1], 1: [0], 2: [0], 3: [0]}, (), "support lists state 3 outside 0..2"),
            (3, {0: [1], 1: [0]}, [3], "terminal state 3 out of range"),
        ],
    )
    def test_each_support_fault_names_its_first_state(self, n, support, terminal, message):
        with pytest.raises(InvalidStructureError) as ref:
            ReferenceSoftmaxLayout(n, support, terminal)
        assert str(ref.value) == message
        with pytest.raises(InvalidStructureError) as got:
            SoftmaxChain(n, support, terminal)
        assert str(got.value) == message

    def test_offset_copy_shares_the_layout(self):
        chain = SoftmaxChain(3, {0: [1, 2], 1: [0, 2]}, terminal=[2])
        staged = chain._with_offset([0.5, -1.0, 0.0, 2.0])
        np.testing.assert_array_equal(
            staged.transition_matrix(np.zeros(4)),
            SoftmaxChain(3, {0: [1, 2], 1: [0, 2]}, [2], [0.5, -1.0, 0.0, 2.0]).transition_matrix(
                np.zeros(4)
            ),
        )
        assert staged._flat_y is chain._flat_y
        np.testing.assert_array_equal(chain._offset, np.zeros(4))
        with pytest.raises(InvalidStructureError, match="logit offset length"):
            chain._with_offset(np.zeros(3))


class TestFixedTabularChain:
    def test_rows_and_zero_score(self):
        P = np.array([[0.7, 0.3], [0.2, 0.8]])
        chain = FixedTabularChain(P, n_params=2)
        theta = np.zeros(2)
        np.testing.assert_allclose(chain.transition_matrix(theta), P)
        np.testing.assert_array_equal(transition_score(chain, 0, 1, theta), np.zeros(2))
        np.testing.assert_array_equal(chain.row_hess(theta, np.ones((2, 2))), np.zeros((2, 2)))

    def test_rejects_bad_matrix(self):
        with pytest.raises(InvalidStructureError):
            FixedTabularChain(np.array([[0.7, 0.4], [0.2, 0.8]]))

    def test_rejects_terminal_out_of_range(self):
        with pytest.raises(InvalidStructureError, match="terminal state 5 out of range"):
            FixedTabularChain(np.full((3, 3), 1.0 / 3.0), terminal=[5])

    def test_rejects_terminal_row_that_is_not_a_self_loop(self):
        """The sampler treats a terminal state as absorbing, so its row must be."""
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(InvalidStructureError, match="terminal state 1 must be absorbing"):
            FixedTabularChain(P, terminal=[1])


class TestGaussianLinearChain:
    def make(self):
        rng = np.random.default_rng(5)
        A = 0.5 * rng.normal(size=(2, 2))
        cov = np.array([[0.5, 0.1], [0.1, 0.4]])
        chain = GaussianLinearChain(A, np.eye(2), cov)
        theta = rng.normal(size=chain.n_params)
        return chain, theta, rng

    def test_score_matches_fd_of_log_density(self):
        chain, theta, rng = self.make()
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        got = chain.score_sums(theta, x[None], y[None], [1.0], [0], 1)[0]
        want = fd_vector(lambda th: chain.log_density(th, x[None], y[None])[0], theta)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_eta_fisher_is_inverse_noise_covariance(self):
        """With an identity input matrix the mean is theta-linear with unit
        jacobian, so the score covariance collapses to the noise precision."""
        chain, _, _ = self.make()
        cov = np.array([[0.5, 0.1], [0.1, 0.4]])
        np.testing.assert_allclose(chain.eta_fisher(), np.linalg.inv(cov), atol=1e-12)

    def test_sample_mean_tracks_affine_map(self):
        chain, theta, rng = self.make()
        x = np.array([0.3, -0.2])
        draw = chain.make_sampler(theta)
        draws = np.stack([draw(x, rng) for _ in range(20_000)])
        np.testing.assert_allclose(draws.mean(axis=0), gaussian_mean(chain, x, theta), atol=0.02)


class TestCosts:
    def test_table_cost_is_parameter_free(self):
        cost = TableCost([1.0, 0.0], n_params=3)
        theta = np.ones(3)
        assert cost.value_table(theta)[0] == 1.0
        np.testing.assert_array_equal(dense_grad_table(cost, theta)[0], np.zeros(3))
        np.testing.assert_array_equal(cost.value_table(theta), [1.0, 0.0])

    def test_quadratic_cost_derivatives(self):
        rng = np.random.default_rng(9)
        n, p = 3, 4
        lin = rng.normal(size=(n, p))
        quad = rng.normal(size=(p, p))
        quad = quad @ quad.T
        cost = QuadraticCost(rng.normal(size=n), lin, quad, quad_weights=[0.5, 1.0, 2.0])
        theta = rng.normal(size=p)
        for x in range(n):
            np.testing.assert_allclose(
                dense_grad_table(cost, theta)[x],
                fd_vector(lambda th: cost.value_table(th)[x], theta),
                atol=1e-6,
            )
        w = rng.uniform(size=n)
        np.testing.assert_allclose(cost.hess_sum(theta, w), (w @ [0.5, 1.0, 2.0]) * quad)

    @pytest.mark.parametrize("skew", [0.0, 1e-12])
    def test_quadratic_cost_accepts_symmetric_quad(self, skew):
        """Exact symmetry, and an asymmetry within allclose's tolerance."""
        quad = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
        quad[0, 1] *= 1.0 + skew
        assert np.array_equal(quad, quad.T) == (skew == 0.0)
        cost = QuadraticCost(np.zeros(2), np.zeros((2, 3)), quad)
        assert cost.quad is quad

    @pytest.mark.parametrize("entry", [(0, 1, 0.5 * (1.0 + 1e-3)), (1, 1, np.nan), (0, 2, np.nan)])
    def test_quadratic_cost_rejects_asymmetric_quad(self, entry):
        quad = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
        quad[entry[:2]] = entry[2]
        with pytest.raises(InvalidStructureError, match="quadratic term must be symmetric"):
            QuadraticCost(np.zeros(2), np.zeros((2, 3)), quad)

    def test_quadratic_cost_symmetry_check_allocates_little(self):
        """An exactly symmetric Q is checked without a float temporary of
        its size: the peak stays below a quarter of Q."""
        p = 2000
        quad = np.eye(p)
        const, lin = np.zeros(2), np.zeros((2, p))
        tracemalloc.start()
        try:
            QuadraticCost(const, lin, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < quad.nbytes / 4

    @pytest.mark.parametrize("size", [2, 4])
    def test_quadratic_cost_rejects_a_diagonal_of_the_wrong_length(self, size):
        with pytest.raises(InvalidStructureError, match="quadratic term shape mismatch"):
            QuadraticCost(np.zeros(2), np.zeros((2, 3)), np.ones(size))

    @pytest.mark.parametrize("size", [1, 2])
    def test_quadratic_cost_rejects_short_weights(self, size):
        with pytest.raises(InvalidStructureError, match="quadratic weights"):
            QuadraticCost(np.zeros(3), np.zeros((3, 2)), np.eye(2), quad_weights=np.ones(size))

    def test_weighted_sum_combines_parts(self):
        rng = np.random.default_rng(2)
        a = TableCost(rng.normal(size=3), n_params=2)
        b = QuadraticCost(np.zeros(3), rng.normal(size=(3, 2)), np.eye(2))
        cost = WeightedSumCost([a, b], weights=[2.0, 0.5])
        theta = rng.normal(size=2)
        want = 2.0 * a.value_table(theta)[1] + 0.5 * b.value_table(theta)[1]
        assert abs(cost.value_table(theta)[1] - want) < 1e-14
        np.testing.assert_allclose(
            dense_grad_table(cost, theta)[1],
            2.0 * dense_grad_table(a, theta)[1] + 0.5 * dense_grad_table(b, theta)[1],
        )

    def test_kl_to_fixed_chain_matches_manual_kl(self):
        chain = SoftmaxChain(3, {0: [0, 1, 2], 1: [0, 1, 2], 2: [0, 1, 2]})
        ref = np.full((3, 3), 1.0 / 3.0)
        cost = KlToFixedChainCost(chain, ref)
        theta = 0.3 * np.random.default_rng(7).normal(size=chain.n_params)
        P = chain.transition_matrix(theta)
        for x in range(3):
            manual = float(np.sum(P[x] * np.log(P[x] / ref[x])))
            assert abs(cost.value_table(theta)[x] - manual) < 1e-12
            np.testing.assert_allclose(
                dense_grad_table(cost, theta)[x],
                fd_vector(lambda th: cost.value_table(th)[x], theta),
                atol=1e-7,
            )

    def test_policy_entropy_cost(self):
        """The entropy term adds the positive entropy -sum_a pi log pi."""
        policy = SoftmaxPolicy(2, 3)
        cost = PolicyEntropyCost(policy)
        theta = 0.5 * np.random.default_rng(1).normal(size=policy.n_params)
        for x in range(2):
            pi = policy.table(theta)[x]
            assert abs(cost.value_table(theta)[x] + float(np.sum(pi * np.log(pi)))) < 1e-12
            np.testing.assert_allclose(
                dense_grad_table(cost, theta)[x],
                fd_vector(lambda th: cost.value_table(th)[x], theta),
                atol=1e-7,
            )

    def test_state_quadratic_cost(self):
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        cost = StateQuadraticCost(M, n_params=3)
        x = np.array([1.0, -2.0])
        assert abs(cost.state_values(np.zeros(3), x[None])[0] - state_cost(cost, x)) < 1e-14


class TestTimeVarying:
    def test_stage_dispatch(self):
        """Stage chains and costs are consulted at their own time index;
        the last stage persists past the horizon."""
        c0 = FixedTabularChain(np.array([[0.0, 1.0], [0.0, 1.0]]), n_params=0)
        c1 = FixedTabularChain(np.array([[1.0, 0.0], [1.0, 0.0]]), n_params=0)
        chain = TimeVaryingChain([c0, c1])
        theta = np.zeros(0)
        np.testing.assert_allclose(chain.transition_matrix(theta, t=0)[0], [0.0, 1.0])
        np.testing.assert_allclose(chain.transition_matrix(theta, t=1)[0], [1.0, 0.0])
        np.testing.assert_allclose(chain.transition_matrix(theta, t=5)[0], [1.0, 0.0])

        cost = TimeVaryingCost([TableCost([1.0, 2.0]), TableCost([3.0, 4.0])])
        assert cost.value_table(theta, t=0)[1] == 2.0
        assert cost.value_table(theta, t=1)[1] == 4.0
        assert cost.value_table(theta, t=9)[1] == 4.0

    def test_stages_must_be_tabular(self):
        gaussian = GaussianLinearChain(0.5 * np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(InvalidStructureError, match="not tabular"):
            TimeVaryingChain([gaussian, gaussian])


class TestProblemValidation:
    def test_parameter_count_must_agree(self):
        chain = SoftmaxChain(2, {0: [0, 1], 1: [0, 1]})
        with pytest.raises(InvalidStructureError):
            Problem(chain, TableCost([1.0, 0.0], n_params=1),
                    EpisodicDiscounted(0.9), TabularInitial([1.0, 0.0]))

    def test_first_exit_needs_terminal_states(self):
        chain = SoftmaxChain(2, {0: [0, 1], 1: [0, 1]})
        cost = TableCost([1.0, 0.0], n_params=chain.n_params)
        with pytest.raises(InvalidStructureError):
            Problem(chain, cost, FirstExit(), TabularInitial([1.0, 0.0]))

    def test_average_rejects_terminal_states(self):
        chain = SoftmaxChain(2, {0: [0, 1]}, terminal=[1])
        cost = TableCost([1.0, 0.0], n_params=chain.n_params)
        with pytest.raises(InvalidStructureError):
            Problem(chain, cost, Average(), TabularInitial([1.0, 0.0]))

    def test_cost_must_cover_the_chain_states(self):
        """A cost table shorter or longer than the state set is refused
        before any solve or rollout reads it."""
        chain = SoftmaxChain(4, {x: [0, 1, 2, 3] for x in range(4)})
        init = TabularInitial(np.full(4, 0.25))
        for size in (3, 5):
            cost = TableCost(np.ones(size), n_params=chain.n_params)
            with pytest.raises(InvalidStructureError, match=f"{size} states but the chain has 4"):
                Problem(chain, cost, EpisodicDiscounted(0.9), init)
        with pytest.raises(InvalidStructureError):
            WeightedSumCost([TableCost(np.ones(4)), TableCost(np.ones(5))])
        with pytest.raises(InvalidStructureError):
            TimeVaryingCost([TableCost(np.ones(4)), TableCost(np.ones(3))])

    def test_staged_models_need_the_time_varying_setting(self):
        """Any other setting would read stage 0 alone, so a staged chain or
        cost, also as a part of a weighted sum, is refused outside it."""
        c0 = FixedTabularChain(np.array([[0.5, 0.5], [0.0, 1.0]]), terminal=[1])
        c1 = FixedTabularChain(np.array([[0.0, 1.0], [0.0, 1.0]]), terminal=[1])
        table = TableCost([1.0, 0.0])
        staged = TimeVaryingCost([table, TableCost([2.0, 0.0])])
        init = TabularInitial([1.0, 0.0])
        cases = [
            (TimeVaryingChain([c0, c1]), table, "TimeVaryingChain"),
            (c0, staged, "TimeVaryingCost"),
            (c0, WeightedSumCost([table, staged]), "TimeVaryingCost"),
        ]
        for chain, cost, name in cases:
            for setting in (FirstExit(), EpisodicDiscounted(0.9)):
                with pytest.raises(InvalidStructureError, match=name):
                    Problem(chain, cost, setting, init)
            Problem(chain, cost, TimeVarying(1), init)

    def test_gaussian_start_law_for_continuous_chain(self):
        rng = np.random.default_rng(0)
        chain = GaussianLinearChain(0.5 * np.eye(2), np.eye(2), np.eye(2))
        cost = StateQuadraticCost(np.eye(2), n_params=chain.n_params)
        prob = Problem(chain, cost, EpisodicDiscounted(0.9),
                       GaussianInitial(np.zeros(2), np.eye(2)))
        assert prob.n_params == chain.n_params
        assert prob.init.sample(rng).shape == (2,)


# Copies of the per-class samplers that the shared tabular sampler
# replaced, kept to show that every draw is unchanged.


def old_softmax_sampler(chain, theta):
    succ = {x: np.array(chain.successors(x)) for x in range(chain.n_states)}
    P = chain.transition_matrix(theta)
    cums = {x: np.cumsum(P[x][succ[x]]) for x in succ}

    def step(x, rng):
        if x in chain.terminal:
            return x
        c = cums[x]
        idx = np.searchsorted(c, rng.random(), side="right")
        return int(succ[x][min(idx, len(c) - 1)])

    return step


def old_policy_averaged_sampler(chain, theta):
    P = chain.transition_matrix(theta)
    cums = {x: np.cumsum(P[x]) for x in range(chain.n_states)}

    def step(x, rng):
        if x in chain.terminal:
            return x
        idx = np.searchsorted(cums[x], rng.random(), side="right")
        return int(min(idx, chain.n_states - 1))

    return step


def old_dense_sampler(chain, theta):
    cums = np.cumsum(chain.transition_matrix(theta), axis=1)

    def step(x, rng):
        idx = np.searchsorted(cums[int(x)], rng.random(), side="right")
        return int(min(idx, chain.n_states - 1))

    return step


def z_weighted_chain():
    base = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.2, 0.3, 0.5, 0.0],
        [0.0, 0.4, 0.1, 0.5],
        [0.0, 0.0, 0.0, 1.0],
    ])
    spec = LmdpSpec(base, np.array([0.3, 0.2, 0.1, 0.0]), terminal=[3])
    features = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.5], [0.0, 0.0]])
    return ZWeightedChain(spec, features), np.array([0.4, -0.9])


class FixedDraw:
    """Stand-in generator whose uniform draw is fixed."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestTabularSampler:
    def walk(self, chain, sampler, seed, steps=4000):
        """States of a walk that restarts at state 0 after a terminal."""
        rng = np.random.default_rng(seed)
        x, out = 0, []
        for _ in range(steps):
            x = sampler(x, rng)
            out.append(x)
            if x in chain.terminal:
                x = 0
        return out

    def chains(self):
        for setting in (FirstExit(), Average()):
            prob = random_softmax_problem(setting, n_states=9, seed=5)
            theta = 0.7 * np.random.default_rng(1).normal(size=prob.n_params)
            yield prob.chain, theta, old_softmax_sampler
        mdp, policy, theta = random_mdp(6, 3, seed=2)
        chain = PolicyAveragedChain(mdp.transitions, policy, terminal=[5])
        yield chain, theta, old_policy_averaged_sampler
        yield (*z_weighted_chain(), old_dense_sampler)

    def test_draws_match_replaced_samplers(self):
        """make_sampler reproduces the replaced samplers draw for draw on
        the same streams."""
        for chain, theta, old in self.chains():
            for seed in (0, 1):
                want = self.walk(chain, old(chain, theta), seed)
                assert self.walk(chain, chain.make_sampler(theta), seed) == want

    def test_top_draw_stays_on_positive_weight(self):
        """A draw at the top of [0, 1) lands on the last positive entry even
        when rounding leaves the cumulative sum just below 1."""
        init = TabularInitial(np.full(10, 0.1))
        assert init.sample(FixedDraw(1.0 - 2.0**-53)) == 9
        cum = np.cumsum([0.25, 0.5, 0.25 - 1e-12, 0.0, 0.0])
        assert sample_index(cum, 1.0 - 2.0**-53) == 2
        assert sample_index(cum, 0.0) == 0

    def test_terminal_state_draws_nothing(self):
        chain = FixedTabularChain(np.array([[0.5, 0.5], [0.0, 1.0]]), terminal=[1])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert chain.make_sampler(np.zeros(0))(1, rng) == 1
        assert rng.bit_generator.state == state

    def test_z_weighted_chain_samples(self):
        """The feature-tilted chain draws from its transition rows."""
        chain, theta = z_weighted_chain()
        draw = chain.make_sampler(theta)
        rng = np.random.default_rng(3)
        n = 20_000
        hits = np.bincount([draw(1, rng) for _ in range(n)], minlength=4)
        np.testing.assert_allclose(hits / n, chain.transition_matrix(theta)[1], atol=0.015)
