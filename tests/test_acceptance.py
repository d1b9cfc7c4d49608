"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance, prints a
single pass/fail line through the shared recorder, and then asserts. The
oracles are independent of the code under test: central differences,
product-space policy evaluation, brute-force enumeration, and Monte-Carlo
confidence intervals.
"""

import time

import numpy as np

from conftest import record_acceptance

from chainopt import (
    Average,
    EpisodicDiscounted,
    FirstExit,
    FixedTabularChain,
    Problem,
    QuadraticCost,
    SoftmaxChain,
    TabularInitial,
    exact_gradient,
    exact_gradient_bottleneck,
    fd_gradient_oracle,
    fd_hessian_oracle,
    objective,
)
from chainopt.harness import parse_config, run_equivcheck, run_optimize
from chainopt.mdp import (
    LmdpSpec,
    chain_as_action_mdp,
    lmdp_policy_gradient,
    map_entropy_mdp,
    map_lmdp,
    map_proximal_mdp,
    map_stochastic_mdp,
    mdp_policy_evaluation,
    stochastic_policy_gradient,
)
from chainopt.problems import (
    canonical_two_state,
    gaussian_linear_problem,
    gridworld_lmdp,
    random_mdp,
    random_softmax_problem,
    random_timevarying_problem,
)
from chainopt.rollout import (
    estimate_gradient,
    fit_value_approx,
    generate_rollouts,
    path_hessian,
)
from chainopt.surrogate import (
    FisherMatrix,
    ClippedSurrogate,
    fisher_matrix,
    natural_gradient,
    ExactSurrogate,
    surrogate_hessian,
    SampledSurrogate,
)
from chainopt.zlearn import (
    TabularZ,
    compatible_natural_gradient_check,
    induced_chain,
    lmdp_objective,
    solve_z_firstexit,
    z_bellman_residual,
    zlearn_baseline,
    zlearn_greedy,
)


def seed_int(*path) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def theta_for(problem, seed, scale=0.2):
    rng = np.random.default_rng([seed, 77])
    return scale * rng.normal(size=problem.n_params)


def rel_gap(got, want):
    """Max coordinate error normalized by the oracle's overall scale."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


def test_criterion_01_exact_gradient_matches_fd():
    """Analytic gradients agree with central differences on random tabular
    problems in every setting, inside a wall-clock budget."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    stationary = [EpisodicDiscounted(0.9), FirstExit(), Average()]
    for setting in stationary:
        for seed in range(10):
            n = int(rng.integers(3, 21))
            prob = random_softmax_problem(setting, n_states=n, seed=seed)
            theta = theta_for(prob, seed)
            worst = max(
                worst, rel_gap(exact_gradient(prob, theta), fd_gradient_oracle(prob, theta))
            )
    for seed in range(10):
        n = int(rng.integers(3, 9))
        prob = random_timevarying_problem(10, n_states=n, seed=seed)
        theta = theta_for(prob, seed)
        worst = max(
            worst, rel_gap(exact_gradient(prob, theta), fd_gradient_oracle(prob, theta))
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    record_acceptance(
        1, "exact-gradient-vs-fd", ok,
        f"max rel err {worst:.2e}, {elapsed:.1f}s for 40 problems",
    )
    assert ok


def product_eval(mdp, action_costs, theta, policy):
    v, _ = mdp_policy_evaluation(mdp.transitions, action_costs, policy.table(theta), mdp.setting)
    return v


def mapped_values(problem, theta):
    from chainopt import solve_value_average, solve_value_episodic

    if isinstance(problem.setting, Average):
        return solve_value_average(problem, theta).values
    return solve_value_episodic(problem, theta).values


def full_support_lmdp(n, seed, setting):
    rng = np.random.default_rng(seed)
    baseline = rng.dirichlet(np.ones(n) * 2.0, size=n)
    spec = LmdpSpec(baseline, rng.uniform(0.2, 1.5, n))
    chain = SoftmaxChain(n, {x: list(range(n)) for x in range(n)})
    init = TabularInitial(np.full(n, 1.0 / n))
    problem = map_lmdp(spec, chain, setting, init)
    return spec, problem, 0.3 * rng.normal(size=chain.n_params)


def test_criterion_02_mapped_values_match_mdp_eval():
    """Every decision-process adapter yields chain values identical to an
    independent product-space policy evaluation."""
    worst = 0.0
    for seed in range(5):
        mdp, policy, theta = random_mdp(5, 3, seed=seed)
        pi = policy.table(theta)
        rng = np.random.default_rng([seed, 9])
        pi_old = rng.dirichlet(np.ones(3), size=5)
        kl = np.sum(pi_old * np.log(pi_old / pi), axis=1)
        cases = [
            (map_stochastic_mdp(mdp, policy), mdp.costs),
            (map_entropy_mdp(mdp, policy), mdp.costs - np.log(pi)),
            (map_proximal_mdp(mdp, policy, pi_old), mdp.costs + kl[:, None]),
        ]
        for prob, action_costs in cases:
            diff = np.max(
                np.abs(mapped_values(prob, theta) - product_eval(mdp, action_costs, theta, policy))
            )
            worst = max(worst, float(diff))
        _, prob, th = full_support_lmdp(5, seed, EpisodicDiscounted(0.9))
        p, ell, pi_l = chain_as_action_mdp(prob, th)
        v, _ = mdp_policy_evaluation(p, ell, pi_l, prob.setting)
        worst = max(worst, float(np.max(np.abs(mapped_values(prob, th) - v))))
    ok = worst < 1e-10
    record_acceptance(
        2, "mapped-values-match-mdp-eval", ok,
        f"max value diff {worst:.2e} over 4 adapters x 5 seeds",
    )
    assert ok


def test_criterion_03_classical_gradients_match_unified():
    """The likelihood-ratio, bottleneck, and control-cost gradient routes
    all reproduce the unified chain gradient. The bottleneck route
    contracts through the action distribution of the same mapped
    problem."""
    worst = 0.0
    for seed in range(10):
        setting = Average() if seed % 2 else EpisodicDiscounted(0.9)
        mdp, policy, theta = random_mdp(5, 3, seed=seed, setting=setting)
        prob = map_stochastic_mdp(mdp, policy)
        unified = exact_gradient(prob, theta)
        worst = max(
            worst,
            float(np.max(np.abs(stochastic_policy_gradient(mdp, policy, theta) - unified))),
        )
        worst = max(
            worst,
            float(np.max(np.abs(exact_gradient_bottleneck(prob, theta) - unified))),
        )
    for seed in range(10):
        spec, prob, theta = full_support_lmdp(5, seed, Average())
        worst = max(
            worst,
            float(
                np.max(np.abs(lmdp_policy_gradient(prob, spec, theta) - exact_gradient(prob, theta)))
            ),
        )
    ok = worst < 1e-10
    record_acceptance(
        3, "classical-gradients-match-unified", ok,
        f"max gradient diff {worst:.2e} over 3 routes x 10 seeds",
    )
    assert ok


def test_criterion_04_equivalence_constructions_agree():
    """Both cross-construction pairs produce entrywise identical chains and
    costs, and matching objectives and gradients, on random probes."""
    worst_pl = 0.0
    worst_jg = 0.0
    all_pass = True
    for pair in ("smdp-dmdp", "lmdp-dmdp"):
        for seed in range(5):
            report = run_equivcheck(pair, seed=seed)
            all_pass = all_pass and report["pass"]
            worst_pl = max(worst_pl, report["max_dP"], report["max_dL"])
            worst_jg = max(worst_jg, report["max_dJ"], report["max_dgrad"])
    ok = all_pass and worst_pl < 1e-12 and worst_jg < 1e-10
    record_acceptance(
        4, "equivalence-constructions-agree", ok,
        f"max P/L diff {worst_pl:.2e}, max J/grad diff {worst_jg:.2e}",
    )
    assert ok


def test_criterion_05_sampled_gradient_unbiased():
    """Batch means of the sampled gradient bracket the exact gradient
    within four combined standard errors, inside a wall-clock budget."""
    t0 = time.perf_counter()
    problem = canonical_two_state()
    theta = np.zeros(2)
    want = exact_gradient(problem, theta)
    n_batches, batch_n = 30, 2000
    means = np.zeros((n_batches, 2))
    ses = np.zeros((n_batches, 2))
    for b in range(n_batches):
        batch = generate_rollouts(problem, theta, batch_n, seed=seed_int(50, b))
        est = estimate_gradient(problem, theta, batch)
        means[b] = est.mean
        ses[b] = est.stderr
    overall = means.mean(axis=0)
    combined_se = np.sqrt(np.sum(ses**2, axis=0)) / n_batches
    z = np.abs(overall - want) / combined_se
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(z <= 4.0)) and elapsed < 60.0
    record_acceptance(
        5, "sampled-gradient-unbiased", ok,
        f"max |z| {float(z.max()):.2f} over 30 batches of 2000, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_06_baseline_cuts_variance():
    """The fitted tabular baseline lowers the trace of the per-rollout
    gradient covariance, significant at the 95% bootstrap level."""
    problem = canonical_two_state()
    theta = np.zeros(2)
    fit_batch = generate_rollouts(problem, theta, 2000, seed=seed_int(60, 0))
    approx = fit_value_approx(problem, fit_batch, np.eye(2), ridge=1e-6)
    eval_batch = generate_rollouts(problem, theta, 2000, seed=seed_int(60, 1))
    raw = estimate_gradient(problem, theta, eval_batch).diagnostics["per_rollout"]
    based = estimate_gradient(problem, theta, eval_batch, baseline=approx).diagnostics[
        "per_rollout"
    ]
    rng = np.random.default_rng(603)
    n = raw.shape[0]
    idx = rng.integers(0, n, size=(2000, n))
    tr_raw = raw[idx].var(axis=1, ddof=1).sum(axis=1)
    tr_based = based[idx].var(axis=1, ddof=1).sum(axis=1)
    lo = float(np.quantile(tr_raw - tr_based, 0.025))
    point = float(raw.var(axis=0, ddof=1).sum() - based.var(axis=0, ddof=1).sum())
    ok = lo > 0.0
    record_acceptance(
        6, "baseline-cuts-variance", ok,
        f"trace drop {point:.3f}, bootstrap 2.5% quantile {lo:.3f}",
    )
    assert ok


def test_criterion_07_surrogate_slope_identities():
    """At zero displacement the exact surrogate's gradient is the exact
    objective gradient, and the sampled surrogate's gradient is the batch
    gradient estimate computed from the same rollouts."""
    worst_exact = 0.0
    probs = [
        (canonical_two_state(), np.zeros(2)),
    ]
    for setting in (EpisodicDiscounted(0.9), FirstExit(), Average()):
        p = random_softmax_problem(setting, n_states=6, seed=3)
        probs.append((p, theta_for(p, 3)))
    for problem, theta in probs:
        zero = np.zeros(problem.n_params)
        diff = np.abs(ExactSurrogate(problem, theta).grad(zero) - exact_gradient(problem, theta))
        worst_exact = max(worst_exact, float(diff.max()))

    problem = canonical_two_state()
    theta = np.zeros(2)
    fit_batch = generate_rollouts(problem, theta, 400, seed=seed_int(70, 0))
    approx = fit_value_approx(problem, fit_batch, np.eye(2), ridge=1e-6)
    batch = generate_rollouts(problem, theta, 400, seed=seed_int(70, 1))
    worst_sampled = 0.0
    for baseline in (None, approx):
        sur = SampledSurrogate(problem, theta, batch, baseline)
        est = estimate_gradient(problem, theta, batch, baseline=baseline)
        worst_sampled = max(worst_sampled, float(np.max(np.abs(sur.grad(np.zeros(2)) - est.mean))))
    ok = worst_exact < 1e-12 and worst_sampled < 1e-12
    record_acceptance(
        7, "surrogate-slope-identities", ok,
        f"exact diff {worst_exact:.2e}, sampled diff {worst_sampled:.2e}",
    )
    assert ok


def test_criterion_08_clipped_surrogate_bounds():
    """A huge trust radius reproduces the unclipped surrogate bit for bit,
    and any radius keeps the clipped objective at or above the unclipped
    one on random displacement probes."""
    problem = canonical_two_state()
    theta = np.zeros(2)
    batch = generate_rollouts(problem, theta, 400, seed=seed_int(80, 0))
    base = SampledSurrogate(problem, theta, batch)
    huge = ClippedSurrogate(SampledSurrogate(problem, theta, batch), 1e6)
    tight = ClippedSurrogate(SampledSurrogate(problem, theta, batch), 0.2)
    rng = np.random.default_rng(81)
    exact_at_huge = True
    for _ in range(10):
        alpha = 0.3 * rng.normal(size=2)
        exact_at_huge = exact_at_huge and huge.value(alpha) == base.value(alpha)
        exact_at_huge = exact_at_huge and bool(
            np.array_equal(huge.grad(alpha), base.grad(alpha))
        )
    floor_gap = 0.0
    for _ in range(100):
        alpha = 0.3 * rng.normal(size=2)
        floor_gap = min(floor_gap, tight.value(alpha) - base.value(alpha))
    ok = exact_at_huge and floor_gap >= -1e-12
    record_acceptance(
        8, "clipped-surrogate-bounds", ok,
        f"bitwise match at radius 1e6: {exact_at_huge}, min clip gap {floor_gap:.2e}",
    )
    assert ok


def test_criterion_09_fisher_properties():
    """Exact Fishers are positive semidefinite; the sampled Gaussian Fisher
    reproduces its closed form; and an identity metric leaves the gradient
    untouched."""
    min_eig = np.inf
    cases = [(canonical_two_state(), np.zeros(2))]
    for setting in (EpisodicDiscounted(0.9), Average()):
        p = random_softmax_problem(setting, n_states=6, seed=4)
        cases.append((p, theta_for(p, 4)))
    for problem, theta in cases:
        min_eig = min(min_eig, fisher_matrix(problem, theta).min_eigenvalue())

    problem, theta = gaussian_linear_problem(2, seed=0)
    closed = np.linalg.inv(problem.chain.cov)  # identity mean jacobian
    batch = generate_rollouts(problem, theta, 11_600, seed=seed_int(90, 0))
    sampled = fisher_matrix(problem, theta, batch)
    n_trans = sum(r.n_steps for r in batch.rollouts)
    z = np.abs(sampled.matrix - closed) / sampled.stderr
    z_max = float(z.max())

    grad = np.array([0.7, -1.3, 0.25])
    nat = natural_gradient(grad, FisherMatrix(np.eye(3), source="exact"))
    identity_diff = float(np.max(np.abs(nat - grad)))

    ok = min_eig >= -1e-10 and z_max <= 4.0 and n_trans >= 100_000 and identity_diff < 1e-14
    record_acceptance(
        9, "fisher-properties", ok,
        f"min eig {min_eig:.1e}, gaussian max |z| {z_max:.2f} at {n_trans} samples, "
        f"identity diff {identity_diff:.1e}",
    )
    assert ok


def test_criterion_10_hessian_routes_agree():
    """The sampled path Hessian brackets the finite-difference Hessian of
    the exact finite-horizon objective, and with a parameter-free chain the
    exact surrogate Hessian is the objective Hessian."""
    problem = random_timevarying_problem(2, n_states=2, seed=0)
    theta = theta_for(problem, 10)
    batch = generate_rollouts(problem, theta, 100_000, seed=seed_int(100, 0))
    est = path_hessian(problem, theta, batch)
    fd = fd_hessian_oracle(problem, theta)
    z_max = float(np.max(np.abs(est.mean - fd) / np.maximum(est.stderr, 1e-30)))

    rng = np.random.default_rng(101)
    n, p = 4, 3
    P = rng.dirichlet(np.ones(n) * 1.5, size=n)
    root = rng.normal(size=(p, p))
    cost = QuadraticCost(
        const=rng.uniform(0.5, 1.0, n),
        lin=rng.normal(size=(n, p)),
        quad=root @ root.T + np.eye(p),
        quad_weights=rng.uniform(0.5, 2.0, n),
    )
    worst_fixed = 0.0
    for setting in (EpisodicDiscounted(0.9), Average()):
        prob = Problem(
            FixedTabularChain(P, n_params=p), cost, setting, TabularInitial(np.full(n, 0.25))
        )
        th = theta_for(prob, 11)
        diff = np.abs(surrogate_hessian(prob, th) - fd_hessian_oracle(prob, th, h=1e-2))
        worst_fixed = max(worst_fixed, float(diff.max()))
    ok = z_max <= 4.0 and worst_fixed < 1e-8
    record_acceptance(
        10, "hessian-routes-agree", ok,
        f"path max |z| {z_max:.2f} at 100000 rollouts, fixed-chain diff {worst_fixed:.2e}",
    )
    assert ok


def three_state_spec(seed):
    """Two interior states with full-support rows and one absorbing goal."""
    rng = np.random.default_rng([seed, 110])
    baseline = np.zeros((3, 3))
    baseline[:2] = rng.dirichlet(np.ones(3) * 2.0, size=2)
    baseline[2, 2] = 1.0
    cost = np.append(rng.uniform(0.3, 1.0, 2), 0.0)
    return LmdpSpec(baseline, cost, terminal=[2])


def simplex_grid(points_per_edge=21):
    """All compositions of the row mass at 1/20 resolution."""
    m = points_per_edge - 1
    rows = [
        (i, j, m - i - j)
        for i in range(points_per_edge)
        for j in range(points_per_edge - i)
    ]
    return np.asarray(rows, dtype=float) / m


def grid_best_objective(spec):
    """Brute-force minimum of the control-cost objective over all chains
    whose interior rows lie on the simplex grid. Rows that never reach the
    goal are infeasible and skipped, as the solver treats them."""
    grid = simplex_grid()

    def row_kl(baseline_row):
        ratio = np.where(grid > 0, grid / baseline_row[None, :], 1.0)
        return (grid * np.log(ratio)).sum(axis=1)

    kl = row_kl(spec.baseline[0])
    kl2 = row_kl(spec.baseline[1])
    a = grid[:, 0][:, None]
    b = grid[:, 1][:, None]
    c = grid[:, 0][None, :]
    d = grid[:, 1][None, :]
    rhs0 = spec.state_cost[0] + kl[:, None]
    rhs1 = spec.state_cost[1] + kl2[None, :]
    det = (1.0 - a) * (1.0 - d) - b * c
    # spectral radius of the interior block, via the 2x2 eigenvalue formula
    tr = a + d
    disc = np.sqrt((tr * tr - 4.0 * (a * d - b * c)).astype(complex))
    rho = np.maximum(np.abs((tr + disc) / 2.0), np.abs((tr - disc) / 2.0))
    valid = rho < 1.0 - 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        v0 = ((1.0 - d) * rhs0 + b * rhs1) / det
        v1 = (c * rhs0 + (1.0 - a) * rhs1) / det
        j = 0.5 * (v0 + v1)
    j = np.where(valid, j, np.inf)
    return float(j.min())


def test_criterion_11_zlearn_family():
    """Exact Z solves are fixed points and optimal against a brute-force
    grid; tabular training reaches them from samples; and the natural
    gradient of the feature-tilted chain obeys the compatible identity."""
    worst_resid = 0.0
    worst_overshoot = -np.inf
    for seed in range(3):
        spec = three_state_spec(seed)
        z = solve_z_firstexit(spec)
        worst_resid = max(worst_resid, z_bellman_residual(spec, z))
        j_star = lmdp_objective(spec, induced_chain(spec, z), FirstExit())
        worst_overshoot = max(worst_overshoot, j_star - grid_best_objective(spec))
    grid_spec = gridworld_lmdp(5, seed=0)
    worst_resid = max(worst_resid, z_bellman_residual(grid_spec, solve_z_firstexit(grid_spec)))

    z_star = solve_z_firstexit(grid_spec).z_table()
    interior = [x for x in range(grid_spec.n_states) if x not in grid_spec.terminal]
    worst_train = 0.0
    for learn in (zlearn_baseline, zlearn_greedy):
        z0 = TabularZ(np.zeros(grid_spec.n_states), terminal=grid_spec.terminal)
        trained, _ = learn(grid_spec, z0, 100_000, seed=seed_int(110, 0))
        rel = float(
            np.max(np.abs(trained.z_table() - z_star)[interior] / z_star[interior])
        )
        worst_train = max(worst_train, rel)

    worst_compat = 0.0
    for seed in range(3):
        rng = np.random.default_rng([seed, 111])
        n = 4
        spec = LmdpSpec(rng.dirichlet(np.ones(n) * 2.0, size=n), rng.uniform(0.2, 1.0, n))
        theta = 0.3 * rng.normal(size=n)
        report = compatible_natural_gradient_check(spec, np.eye(n), theta)
        worst_compat = max(worst_compat, report.aligned_difference)

    ok = (
        worst_resid < 1e-12
        and worst_overshoot <= 1e-9
        and worst_train < 0.05
        and worst_compat < 1e-6
    )
    record_acceptance(
        11, "zlearn-family", ok,
        f"residual {worst_resid:.1e}, grid overshoot {worst_overshoot:.1e}, "
        f"train rel err {worst_train:.3f}, compat diff {worst_compat:.1e}",
    )
    assert ok


def test_criterion_12_harness_end_to_end(tmp_path):
    """The configured exact optimizer solves the canonical problem and
    reruns of the same config are byte-identical."""
    import json

    cfg = parse_config(json.dumps({
        "problem": {"kind": "softmax-tabular", "setting": "first-exit",
                    "canonical": True},
        "algorithm": {"method": "exact-gd", "iterations": 40, "step_size": 0.3},
    }))
    dirs = [tmp_path / n for n in ("a", "b")]
    finals = []
    for d in dirs:
        d.mkdir()
        finals.append(run_optimize(cfg, out_dir=d)["final_J"])
    same_exact = (dirs[0] / "curve.csv").read_bytes() == (dirs[1] / "curve.csv").read_bytes()

    sgd_cfg = parse_config(json.dumps({
        "problem": {"kind": "softmax-tabular", "setting": "first-exit",
                    "canonical": True, "seed": 3},
        "algorithm": {"method": "alg1-sgd", "iterations": 3, "batch_size": 64,
                      "step_size": 0.3},
    }))
    sgd_dirs = [tmp_path / n for n in ("c", "d")]
    for d in sgd_dirs:
        d.mkdir()
        run_optimize(sgd_cfg, out_dir=d)
    same_sgd = (sgd_dirs[0] / "curve.csv").read_bytes() == (sgd_dirs[1] / "curve.csv").read_bytes()

    ok = finals[0] < 1.1 and same_exact and same_sgd
    record_acceptance(
        12, "harness-end-to-end", ok,
        f"final J {finals[0]:.4f}, byte-identical reruns: {same_exact and same_sgd}",
    )
    assert ok
