"""Chain structure decided on the support graph, and exact solves without
an eigendecomposition.

Reachability, irreducibility and aperiodicity depend only on which entries
of P are nonzero. The oracles here are brute force on the same graph:
boolean matrix powers for reachability and the return times of state 0
for the period. Stationary laws are checked against exact rational
arithmetic.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainopt import (
    Average,
    EpisodicDiscounted,
    ErgodicityError,
    ExactSurrogate,
    FirstExit,
    FixedTabularChain,
    InvalidStructureError,
    Problem,
    ReachabilityError,
    TableCost,
    discounted_occupancy,
    exact_gradient,
    fisher_matrix,
    mdp_policy_evaluation,
    objective,
    solve,
    stationary_density,
)
from chainopt import exact
from chainopt.exact import stationary_from_matrix
from chainopt.harness import parse_config, run_gradcheck
from chainopt.problems import canonical_two_state, random_mdp, random_softmax_problem

SETTINGS = [EpisodicDiscounted(0.9), FirstExit(), Average()]
SETTING_IDS = ["episodic", "first-exit", "average"]

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("setting", SETTINGS, ids=SETTING_IDS)
def test_exact_quantities_make_no_eigendecomposition(setting, monkeypatch):
    calls = []

    def count(name):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, **k: calls.append(name) or original(*a, **k)
        )

    count("eig")
    count("eigvals")
    prob = random_softmax_problem(setting, n_states=8, seed=3)
    theta = 0.5 * np.random.default_rng(6).normal(size=prob.n_params)
    objective(prob, theta)
    solve(prob, theta).weights
    exact_gradient(prob, theta)
    ExactSurrogate(prob, theta)
    fisher_matrix(prob, theta)
    if isinstance(setting, Average):
        stationary_density(prob, theta)
        mdp, policy, mdp_theta = random_mdp(4, 3, seed=1, setting=setting)
        mdp_policy_evaluation(mdp.transitions, mdp.costs, policy.table(mdp_theta), setting)
    else:
        discounted_occupancy(prob, theta)
    assert calls == []


# ---------------------------------------------------------------------------
# A near-decoupled chain
# ---------------------------------------------------------------------------


def rational_law(P):
    """Exact stationary law of a rational stochastic matrix: Gauss-Jordan
    elimination on d'(I - P) = 0 with the last equation replaced by sum d = 1."""
    n = len(P)
    rows = [[int(i == j) - P[j][i] for j in range(n)] + [0] for i in range(n - 1)]
    rows.append([1] * n + [1])
    rows = [[Fraction(v) for v in row] for row in rows]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def decoupled_chain(eps):
    """Halves {0, 1} and {2, 3}, joined by 1 -> 2 and 3 -> 0 with probability
    eps; irreducible and aperiodic for every eps > 0."""
    F = Fraction
    return [
        [F(7, 10), F(3, 10), 0, 0],
        [F(3, 5), F(2, 5) - eps, eps, 0],
        [0, 0, F(1, 2), F(1, 2)],
        [eps, 0, F(1, 4), F(3, 4) - eps],
    ]


@pytest.mark.parametrize("k", [8, 9])
def test_near_decoupled_chain_is_solved(k):
    """An eigenvalue 1 - O(eps) sits next to the stationary one. Rounding P
    to floats moves the exact law by about 1e-17, since the law depends
    only on the off-diagonal entries of P. The LU solve of I - P + 1 1',
    whose condition number grows as 1/eps, is what loses accuracy: d is off
    by 2.2e-9 at eps = 1e-8 and 8.5e-9 at eps = 1e-9, j by 7.8e-9 and
    6.2e-8. The bounds are about three times those errors."""
    d_tol, j_tol = {8: (1e-8, 3e-8), 9: (3e-8, 2e-7)}[k]
    eps = Fraction(1, 10**k)
    Pq = decoupled_chain(eps)
    law = rational_law(Pq)
    P = np.array(Pq, dtype=float)
    np.testing.assert_allclose(stationary_from_matrix(P), np.array(law, dtype=float),
                               rtol=0, atol=d_tol)
    L = np.array([1.0, 2.0, 3.0, 4.0])
    prob = Problem(FixedTabularChain(P), TableCost(L), Average(), None)
    j = sum(w * Fraction(c) for w, c in zip(law, L))
    assert abs(objective(prob, np.zeros(0)) - float(j)) <= j_tol


def test_stacked_solve_gives_d_and_the_cost_solution():
    """With a cost table, stationary_from_matrix returns the same d and the
    solution u of (I - P + 1 1') u = L, whose entries sum to j = d'L."""
    P = np.array(decoupled_chain(Fraction(1, 10)), dtype=float)
    L = np.array([1.0, 2.0, 3.0, 4.0])
    d, u = stationary_from_matrix(P, costs=L)
    np.testing.assert_array_equal(d, stationary_from_matrix(P))
    np.testing.assert_allclose((np.eye(4) - P + 1.0) @ u, L, rtol=0, atol=1e-13)
    assert u.sum() == pytest.approx(d @ L, abs=1e-13)


def test_density_that_does_not_sum_to_one_is_refused():
    """For the solved d, 1'd = 1 - d'(1 - P 1)/n: rows that do not sum to
    one show up as a density off the simplex."""
    P = np.array(decoupled_chain(Fraction(1, 10)), dtype=float)
    P[0] *= 1.001
    with pytest.raises(InvalidStructureError, match="stationary density sums to"):
        stationary_from_matrix(P)


# ---------------------------------------------------------------------------
# Verdicts against brute force
# ---------------------------------------------------------------------------


def reachable(A):
    """R[x, y]: y is reached from x in zero or more steps, from the boolean
    powers of I + A."""
    n = len(A)
    step = (np.eye(n, dtype=int) + A) > 0
    R = np.eye(n, dtype=bool)
    for _ in range(n):
        R = (R.astype(int) @ step.astype(int)) > 0
    return R


def period_of_state_0(A):
    """gcd of the k <= 3n with (A^k)[0, 0] > 0. A closed walk from 0 through
    any simple cycle and back has length at most 3n - 2, so with the same
    walk minus the cycle this gcd divides every cycle length."""
    n = len(A)
    walk = np.eye(n, dtype=int)
    g = 0
    for k in range(1, 3 * n + 1):
        walk = ((walk @ A.astype(int)) > 0).astype(int)
        if walk[0, 0]:
            g = math.gcd(g, k)
    return g


@st.composite
def random_chains(draw):
    """A random support (a self loop where a row has no edge), random
    positive weights on it, and a random terminal mask.

    States sit on a ring in random order, in classes of ring position mod k.
    Random edges of density 1/2 to 1/5 lead from class c to class c + 1 mod
    k only, and the ring edges may be added; so reducible, periodic and
    ergodic chains are all common.
    """
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    sparsity = draw(st.integers(1, 4))
    flags = draw(st.lists(st.integers(0, sparsity), min_size=n * n, max_size=n * n))
    order = np.array(draw(st.permutations(range(n))), dtype=int)
    c = np.empty(n, dtype=int)
    c[order] = np.arange(n) % k
    A = (np.array(flags) == 0).reshape(n, n) & (c[None, :] == (c[:, None] + 1) % k)
    if draw(st.booleans()):
        A[order, np.roll(order, -1)] = True
    A[np.arange(n), np.arange(n)] |= ~A.any(axis=1)
    w = draw(st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n))
    P = np.where(A, np.reshape(w, (n, n)), 0.0)
    P /= P.sum(axis=1, keepdims=True)
    terminal = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return P, terminal


@PROPERTY
@given(random_chains())
def test_verdicts_agree_with_brute_force(case):
    P, terminal = case
    A = P > 0
    R = reachable(A)
    assert (exact._fault(P, terminal) is None) == bool(R[:, terminal].any(axis=1).all())
    if not R.all():
        with pytest.raises(ErgodicityError, match="chain is reducible"):
            stationary_from_matrix(P)
    elif period_of_state_0(A) != 1:
        with pytest.raises(ErgodicityError, match="chain is periodic"):
            stationary_from_matrix(P)
    else:
        d = stationary_from_matrix(P)
        assert np.all(d > 0)
        np.testing.assert_allclose(d @ P, d, atol=1e-12)


@pytest.mark.parametrize(
    "P, message",
    [
        ([[0.0, 1.0], [1.0, 0.0]], "chain is periodic"),
        ([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7],
          [0.0, 0.0, 0.6, 0.4]], "chain is reducible: stationary distribution is not unique"),
    ],
    ids=["two-cycle", "block-diagonal"],
)
def test_periodic_and_reducible_chains_are_refused(P, message):
    P = np.array(P)
    with pytest.raises(ErgodicityError, match=message):
        stationary_from_matrix(P)
    prob = Problem(FixedTabularChain(P), TableCost(np.ones(len(P))), Average(), None)
    with pytest.raises(ErgodicityError, match=message):
        objective(prob, np.zeros(0))


# ---------------------------------------------------------------------------
# One verdict per support, keyed on the P being solved
# ---------------------------------------------------------------------------


def test_verdict_follows_the_pattern_of_p_not_the_chain():
    """The softmax support is the same at every theta, but an exit entry
    that underflows to exactly 0 removes the edge from the graph."""
    prob = canonical_two_state()
    assert objective(prob, np.zeros(2)) == pytest.approx(2.0)
    theta = np.array([400.0, -400.0])
    assert prob.chain.transition_matrix(theta)[0, 1] == 0.0
    with pytest.raises(ReachabilityError):
        objective(prob, theta)


def test_exits_lost_to_rounding_are_unreachable():
    """An exit of probability 4e-18 keeps its edge, but I - P_nn is singular
    in floating point; the solves raise the structural error, as they do
    when the edge is gone."""
    prob = canonical_two_state()
    theta = np.array([20.0, -20.0])
    assert 0.0 < prob.chain.transition_matrix(theta)[0, 1] < 1e-17
    with pytest.raises(ReachabilityError):
        objective(prob, theta)
    with pytest.raises(ReachabilityError):
        discounted_occupancy(prob, theta)
    eps = 1e-20
    P = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    with pytest.raises(ErgodicityError, match="chain is reducible"):
        stationary_from_matrix(P)


@pytest.mark.parametrize("setting", ["first-exit", "average"])
def test_gradient_check_searches_each_support_once(setting, monkeypatch):
    """A gradient check makes 2p + 1 solves on one support; the graph is
    searched for the first, and the verdict looked up once for each stacked
    chunk of the oracle, whose probes all share that support."""
    exact._support_fault.cache_clear()
    searches = []
    original = exact.reach_levels
    monkeypatch.setattr(exact, "reach_levels", lambda *a: searches.append(1) or original(*a))
    config = parse_config(json.dumps({
        "problem": {"kind": "softmax-tabular", "setting": setting, "n_states": 12, "seed": 0},
        "algorithm": {"method": "exact-gd"},
    }))
    report = run_gradcheck(config)
    assert report["pass"]
    info = exact._support_fault.cache_info()
    assert info.misses == 1
    n, p = config.problem.n_states, report["n_params"]
    assert info.hits == math.ceil(2 * p / (exact._PROBE_STACK_BYTES // (8 * n * n)))
    # the first-exit verdict is one reverse search; ergodicity is a forward
    # and a reverse search from state 0
    assert len(searches) == (1 if setting == "first-exit" else 2)
