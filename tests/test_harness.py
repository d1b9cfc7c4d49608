"""Experiment harness: config contract, runners, and the CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from chainopt import ConfigError, objective
from chainopt.cli import main as cli_main
from chainopt.harness import (
    CSV_HEADER,
    ExperimentConfig,
    build_problem,
    parse_config,
    run_equivcheck,
    run_gradcheck,
    run_optimize,
    run_zlearn,
    serialize_config,
)


def config_for(problem=None, algorithm=None, output=None):
    doc = {"problem": {"kind": "softmax-tabular", **(problem or {})}}
    if algorithm:
        doc["algorithm"] = algorithm
    if output:
        doc["output"] = output
    return parse_config(json.dumps(doc))


def canonical_config(**algorithm):
    return config_for(
        problem={"setting": "first-exit", "canonical": True},
        algorithm={"method": "exact-gd", "iterations": 40, "step_size": 0.3, **algorithm},
    )


class TestConfigContract:
    def test_defaults_materialize(self):
        cfg = config_for()
        assert cfg.problem.setting == "episodic"
        assert cfg.problem.gamma == 0.9
        assert cfg.algorithm.method == "exact-gd"
        assert cfg.output.curve_csv == "curve.csv"

    def test_round_trip_is_identity(self):
        """parse -> serialize -> parse reproduces the config, with every
        default materialized in the serialized form."""
        cfg = config_for(
            problem={"setting": "average", "n_states": 6, "seed": 3},
            algorithm={"method": "natural", "damping": 0.1},
        )
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again.to_dict() == cfg.to_dict()
        assert serialize_config(again) == text
        doc = json.loads(text)
        assert set(doc) == {"problem", "algorithm", "output"}
        assert "step_cost" in doc["problem"]

    def test_unknown_fields_are_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"problem\.bogus"):
            config_for(problem={"bogus": 1})
        with pytest.raises(ConfigError, match=r"algorithm\.stepsize"):
            config_for(algorithm={"stepsize": 0.1})
        with pytest.raises(ConfigError, match="outputs"):
            parse_config(json.dumps({"problem": {"kind": "softmax-tabular"}, "outputs": {}}))

    def test_section_errors_come_in_contract_order(self):
        """An unknown field is named before a missing kind, the kind's type
        before anything else in the section, and a section that is not an
        object before anything in it."""
        with pytest.raises(ConfigError, match=r"unknown config field problem\.bogus"):
            parse_config(json.dumps({"problem": {"bogus": 1, "gamma": "x"}}))
        with pytest.raises(ConfigError, match=r"problem\.kind is required"):
            parse_config(json.dumps({"problem": {"gamma": "x"}}))
        with pytest.raises(ConfigError, match=r"problem\.kind must be a string"):
            parse_config(json.dumps({"problem": {"kind": 3}}))
        with pytest.raises(ConfigError, match=r"problem\.kind must be one of"):
            parse_config(json.dumps({"problem": {"kind": "mystery", "gamma": "x"}}))
        for section in ("problem", "algorithm", "output"):
            doc = {"problem": {"kind": "softmax-tabular"}, section: [1]}
            with pytest.raises(ConfigError, match=rf"^{section} section must be an object$"):
                parse_config(json.dumps(doc))

    def test_value_features_is_an_unknown_field(self):
        """baseline alone switches the value baseline."""
        with pytest.raises(
            ConfigError, match=r"^unknown config field algorithm\.value_features$"
        ):
            config_for(algorithm={"value_features": "none"})

    def test_readme_example_config_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(block)
        assert (cfg.problem.kind, cfg.algorithm.method) == ("softmax-tabular", "exact-gd")

    def test_type_errors_are_rejected(self):
        with pytest.raises(ConfigError):
            config_for(algorithm={"iterations": "ten"})
        with pytest.raises(ConfigError):
            config_for(algorithm={"iterations": True})  # bool is not an int here
        with pytest.raises(ConfigError):
            config_for(problem={"canonical": 1})

    def test_value_validation(self):
        with pytest.raises(ConfigError, match="gamma"):
            config_for(problem={"gamma": 1.5})
        with pytest.raises(ConfigError, match="gamma"):
            config_for(problem={"setting": "episodic", "gamma": 1.0})
        # gamma 1 is fine outside the episodic setting, 0 is fine inside it
        config_for(problem={"setting": "first-exit", "gamma": 1.0})
        config_for(problem={"gamma": 0.0})
        with pytest.raises(ConfigError, match="clip_radius"):
            config_for(algorithm={"clip_radius": 1.5})
        with pytest.raises(ConfigError, match="kind"):
            parse_config(json.dumps({"problem": {"kind": "mystery"}}))

    def test_negative_seed_is_refused(self):
        doc = {"kind": "softmax-tabular", "setting": "first-exit", "n_states": 6, "seed": -2}
        with pytest.raises(ConfigError, match=r"problem\.seed"):
            parse_config(json.dumps({"problem": doc, "algorithm": {"method": "alg1-sgd"}}))

    def test_kind_setting_matrix(self):
        with pytest.raises(ConfigError, match="setting"):
            config_for(problem={"kind": "gridworld-lmdp", "setting": "episodic"})
        with pytest.raises(ConfigError, match="setting"):
            config_for(problem={"kind": "gaussian-linear", "setting": "average"})
        config_for(problem={"kind": "smdp-random", "setting": "average"})

    def test_method_kind_matrix(self):
        with pytest.raises(ConfigError, match="method"):
            config_for(
                problem={"kind": "gaussian-linear"},
                algorithm={"method": "natural", "baseline": False},
            )
        with pytest.raises(ConfigError, match="method"):
            config_for(algorithm={"method": "zlearn-baseline"})
        # the value baseline is tabular, so gaussian needs it disabled
        with pytest.raises(ConfigError, match="baseline"):
            config_for(problem={"kind": "gaussian-linear"},
                       algorithm={"method": "alg1-sgd"})
        config_for(problem={"kind": "gaussian-linear"},
                   algorithm={"method": "alg1-sgd", "baseline": False})

    def test_canonical_flag_rules(self):
        with pytest.raises(ConfigError, match="canonical"):
            config_for(problem={"canonical": True})  # episodic setting
        with pytest.raises(ConfigError, match="canonical"):
            config_for(problem={"kind": "smdp-random", "canonical": True})

    def test_invalid_json_is_a_config_error(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")


def any_method_config(problem):
    """Config for the given problem spec with some method that can run on it."""
    algorithm = None
    if problem["kind"] == "gaussian-linear":
        algorithm = {"method": "alg1-sgd", "baseline": False}
    return config_for(problem=problem, algorithm=algorithm)


class TestBuildProblem:
    KINDS = [
        {"kind": "softmax-tabular", "setting": "episodic"},
        {"kind": "softmax-tabular", "setting": "first-exit"},
        {"kind": "softmax-tabular", "setting": "average"},
        {"kind": "gridworld-lmdp", "setting": "first-exit", "size": 4},
        {"kind": "smdp-random", "setting": "episodic", "n_states": 4},
        {"kind": "gaussian-linear", "setting": "episodic"},
        {"kind": "timevarying-tabular", "setting": "time-varying", "horizon": 3},
    ]

    def test_every_kind_builds(self):
        for spec in self.KINDS:
            cfg = any_method_config(spec)
            built = build_problem(cfg.problem)
            assert built.theta0.shape == (built.problem.n_params,)

    def test_canonical_flag_selects_two_state_problem(self):
        cfg = canonical_config()
        built = build_problem(cfg.problem)
        assert built.problem.chain.n_states == 2
        np.testing.assert_array_equal(built.theta0, np.zeros(2))

    def test_same_seed_same_problem(self):
        a = build_problem(config_for(problem={"seed": 5}).problem)
        b = build_problem(config_for(problem={"seed": 5}).problem)
        theta = np.zeros(a.problem.n_params)
        np.testing.assert_array_equal(
            a.problem.chain.transition_matrix(theta),
            b.problem.chain.transition_matrix(theta),
        )


class TestGradcheckRunner:
    def test_canonical_passes(self):
        report = run_gradcheck(canonical_config())
        assert report["pass"] and report["max_rel_error"] < 1e-8
        assert report["failing_coordinates"] == []

    def test_fault_injection_blames_coordinate(self):
        from chainopt import exact_gradient

        def corrupted(problem, theta):
            g = exact_gradient(problem, theta)
            g[1] += 1e-3
            return g

        report = run_gradcheck(canonical_config(), gradient_fn=corrupted)
        assert not report["pass"]
        assert report["failing_coordinates"] == [1]

    def test_all_kinds_and_settings_pass(self):
        for spec in TestBuildProblem.KINDS:
            if spec["kind"] == "gaussian-linear":
                continue
            cfg = config_for(problem=spec)
            assert run_gradcheck(cfg)["pass"], spec

    def test_continuous_state_space_is_rejected(self):
        cfg = config_for(problem={"kind": "gaussian-linear"},
                         algorithm={"method": "alg1-sgd", "baseline": False})
        with pytest.raises(ConfigError):
            run_gradcheck(cfg)


class TestOptimizeRunner:
    def test_exact_gd_reaches_near_optimum(self):
        report = run_optimize(canonical_config())
        assert report["initial_J"] == pytest.approx(2.0)
        assert report["final_J"] < 1.1
        curve = report["curve"]
        assert len(curve.rows) == 41
        assert [r.iteration for r in curve.rows] == list(range(41))

    def test_csv_contract(self, tmp_path):
        cfg = canonical_config(iterations=3)
        run_optimize(cfg, out_dir=tmp_path)
        text = (tmp_path / "curve.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 2.0
        # exact methods do not spend rollout steps and wall time is off
        assert first[3] == "0" and first[4] == "0"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["final_J"] < 2.0
        theta = json.loads((tmp_path / "theta.json").read_text())
        assert len(theta["theta"]) == 2

    @pytest.mark.parametrize("method", ["alg1-sgd", "pco"])
    def test_each_batch_is_flattened_once(self, method, monkeypatch):
        """The gradient estimate (or sampled surrogate) reads a batch at its
        iteration and the value fit reads it again at the next one; both
        share one batch_steps per batch."""
        from chainopt import harness, rollout

        batches, flattened = [], []
        generate, flatten = rollout.generate_rollouts, rollout.batch_steps
        monkeypatch.setattr(
            harness, "generate_rollouts", lambda *a, **k: batches.append(generate(*a, **k))
            or batches[-1]
        )
        monkeypatch.setattr(
            rollout, "batch_steps", lambda b, gamma: flattened.append(b) or flatten(b, gamma)
        )
        cfg = config_for(
            problem={"setting": "first-exit", "n_states": 8, "seed": 2},
            algorithm={"method": method, "iterations": 3, "batch_size": 64,
                       "step_size": 0.05, "inner_iterations": 2},
        )
        run_optimize(cfg)
        assert len(batches) == 4
        # pco builds no surrogate at the last iteration, so nothing reads its last batch
        read = batches if method == "alg1-sgd" else batches[:-1]
        assert [id(b) for b in flattened] == [id(b) for b in read]

    def test_pco_report_sums_clipped_ratios(self, tmp_path, monkeypatch):
        """report.json's ratio_clipped is the sum of n_ratio_clipped over the
        iterations' sampled surrogates, and reruns write it byte for byte.
        A tabular chain caps no log ratio, so a subclass that also counts
        the ratios above 1 stands in for the clipping."""
        from chainopt import harness

        made = []

        class Counting(harness.SampledSurrogate):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def _ratios(self, th):
                r, P = super()._ratios(th)
                self.n_ratio_clipped += int(np.sum(r > 1.0))
                return r, P

        cfg = config_for(
            problem={"setting": "first-exit", "n_states": 6, "seed": 3},
            algorithm={"method": "pco", "iterations": 3, "batch_size": 64,
                       "inner_iterations": 4},
        )
        assert run_optimize(cfg)["ratio_clipped"] == 0
        assert "ratio_clipped" not in run_optimize(canonical_config(iterations=1))
        monkeypatch.setattr(harness, "SampledSurrogate", Counting)
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            run_optimize(cfg, out_dir=tmp_path / run)
        assert len(made) == 6
        counts = [s.n_ratio_clipped for s in made]
        assert counts[:3] == counts[3:]
        report = json.loads((tmp_path / "a/report.json").read_text())
        assert report["ratio_clipped"] == sum(counts[:3]) > 0
        a, b = ((tmp_path / run / "report.json").read_bytes() for run in ("a", "b"))
        assert a == b

    def test_zero_iterations_single_row(self, tmp_path):
        cfg = canonical_config(iterations=0)
        report = run_optimize(cfg, out_dir=tmp_path)
        lines = (tmp_path / "curve.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert report["initial_J"] == report["final_J"]

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        cfg = config_for(
            problem={"setting": "first-exit", "canonical": True, "seed": 7},
            algorithm={"method": "alg1-sgd", "iterations": 4, "batch_size": 64,
                       "step_size": 0.3},
        )
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        run_optimize(cfg, out_dir=tmp_path / "a")
        run_optimize(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/curve.csv").read_bytes() == (tmp_path / "b/curve.csv").read_bytes()

    def test_timevarying_sgd_rows_hold_the_objective_at_their_theta(self, tmp_path):
        """Row k of a time-varying alg1-sgd run, baseline on, holds the exact
        objective at the parameters after k steps. A run of k iterations
        ends there, since every iteration's batch has its own seed."""
        def config(iterations):
            return config_for(
                problem={"kind": "timevarying-tabular", "setting": "time-varying",
                         "n_states": 6, "horizon": 5, "seed": 3},
                algorithm={"method": "alg1-sgd", "iterations": iterations,
                           "batch_size": 64, "step_size": 0.3},
            )

        problem = build_problem(config(3).problem).problem
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            report = run_optimize(config(3), out_dir=tmp_path / run)
        rows = report["curve"].rows
        assert len(rows) == 4 and rows[0].j != rows[-1].j
        for k, row in enumerate(rows):
            theta = np.array(run_optimize(config(k))["theta"])
            assert row.j == objective(problem, theta)
        for name in ("curve.csv", "report.json", "theta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sampled_objective_column_for_continuous_chain(self, tmp_path):
        cfg = config_for(
            problem={"kind": "gaussian-linear"},
            algorithm={"method": "alg1-sgd", "iterations": 1, "batch_size": 32,
                       "baseline": False, "step_size": 0.01},
        )
        run_optimize(cfg, out_dir=tmp_path)
        lines = (tmp_path / "curve.csv").read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER + ",J_stderr"
        assert len(lines[1].split(",")) == 6

    def test_every_method_descends_or_holds(self):
        """Two iterations of each tabular method leave the exact objective
        no worse than the start within a small slack."""
        methods = {
            "exact-gd": {"step_size": 0.2},
            "natural": {"step_size": 0.05, "damping": 0.1},
            "alg1-sgd": {"step_size": 0.1, "batch_size": 128},
            "pco": {"inner_iterations": 15},
            "chain-iteration": {"inner_iterations": 15},
            "newton-surrogate": {"inner_iterations": 10},
        }
        for method, extra in methods.items():
            cfg = config_for(
                problem={"setting": "episodic", "n_states": 5, "seed": 2},
                algorithm={"method": method, "iterations": 2, **extra},
            )
            report = run_optimize(cfg)
            assert report["final_J"] <= report["initial_J"] + 0.05, method

    def test_adam_variant_runs(self):
        report = run_optimize(canonical_config(iterations=30, use_adam=True,
                                               step_size=0.2))
        assert report["final_J"] < report["initial_J"]

    def test_sgd_median_of_seeds_reaches_target(self):
        """Sampled gradient descent with modest batches solves the canonical
        problem reliably: the median final J over five seeds is below 1.1."""
        finals = []
        for seed in range(5):
            cfg = config_for(
                problem={"setting": "first-exit", "canonical": True, "seed": seed},
                algorithm={"method": "alg1-sgd", "iterations": 40, "batch_size": 256,
                           "step_size": 0.3},
            )
            finals.append(run_optimize(cfg)["final_J"])
        assert float(np.median(finals)) < 1.1

    def test_zlearn_methods_do_not_run_here(self):
        cfg = config_for(
            problem={"kind": "gridworld-lmdp", "setting": "first-exit"},
            algorithm={"method": "zlearn-baseline"},
        )
        with pytest.raises(ConfigError):
            run_optimize(cfg)


class TestEquivRunner:
    def test_both_pairs_pass(self):
        for pair in ("smdp-dmdp", "lmdp-dmdp"):
            for seed in (0, 1):
                report = run_equivcheck(pair, seed=seed)
                assert report["pass"], (pair, seed)
                assert report["max_dP"] < 1e-12 and report["max_dL"] < 1e-12
                assert report["max_dJ"] < 1e-10 and report["max_dgrad"] < 1e-10

    def test_unknown_pair_rejected(self):
        with pytest.raises(ConfigError):
            run_equivcheck("bogus")


class TestZlearnRunner:
    def quick_config(self, **overrides):
        algorithm = {"method": "zlearn-baseline", "zlearn_steps": 3000,
                     "record_every": 1000}
        algorithm.update(overrides)
        return config_for(
            problem={"kind": "gridworld-lmdp", "setting": "first-exit", "size": 4},
            algorithm=algorithm,
        )

    def test_curve_and_report(self, tmp_path):
        report = run_zlearn(self.quick_config(), out_dir=tmp_path)
        rows = report["curve"].rows
        assert rows[0].steps == 0 and rows[-1].steps == 3000
        assert len(rows) == 4
        # J of the induced chain never beats the exact optimum
        assert all(r.j >= report["exact_J"] - 1e-12 for r in rows)
        # one "index energy" line per grid state
        from chainopt.problems import gridworld_lmdp

        z_text = (tmp_path / "z.txt").read_text()
        assert len(z_text.strip().split("\n")) == gridworld_lmdp(4, seed=0).n_states
        lines = (tmp_path / "curve.csv").read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER

    def test_zero_charge_is_exact_from_the_start(self, tmp_path):
        """With no state charge the flat table already solves the fixed
        point, so the residual column is identically zero."""
        cfg = config_for(
            problem={"kind": "gridworld-lmdp", "setting": "first-exit",
                     "size": 4, "step_cost": 0.0},
            algorithm={"method": "zlearn-greedy", "zlearn_steps": 500,
                       "record_every": 250},
        )
        report = run_zlearn(cfg, out_dir=tmp_path)
        assert report["final_rel_error"] < 1e-12
        assert all(r.grad_norm < 1e-12 for r in report["curve"].rows)

    def test_closing_row_when_steps_are_not_a_multiple(self):
        """2500 steps recorded every 1000 close with a row at 2500, the row
        a run recording every 500 makes there: the walk does not depend on
        the record interval."""
        report = run_zlearn(self.quick_config(zlearn_steps=2500))
        rows = report["curve"].rows
        assert [(r.iteration, r.steps) for r in rows] == [(0, 0), (1, 1000), (2, 2000), (3, 2500)]
        fine = run_zlearn(self.quick_config(zlearn_steps=2500, record_every=500))["curve"].rows
        assert fine[-1].steps == 2500
        assert (rows[-1].j, rows[-1].grad_norm) == (fine[-1].j, fine[-1].grad_norm)
        assert report["final_J"] == rows[-1].j

    def test_deterministic(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        run_zlearn(self.quick_config(), out_dir=tmp_path / "a")
        run_zlearn(self.quick_config(), out_dir=tmp_path / "b")
        for name in ("curve.csv", "z.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_greedy_beats_baseline_step_for_step(self):
        """At matched step budgets the greedy walk's error is no worse than
        the baseline walk's at every snapshot, in the median over seeds."""
        from chainopt.problems import gridworld_lmdp
        from chainopt.zlearn import TabularZ, solve_z_firstexit, zlearn_baseline, zlearn_greedy

        spec = gridworld_lmdp(5, seed=0)
        z_star = solve_z_firstexit(spec).z_table()
        interior = [x for x in range(spec.n_states) if x not in spec.terminal]

        def curve(learn, seed):
            errs = []
            z0 = TabularZ(np.zeros(spec.n_states), terminal=spec.terminal)
            learn(
                spec, z0, 20_000, seed=seed, record_every=5000,
                on_record=lambda k, z: errs.append(
                    float(np.max(np.abs(z.z_table() - z_star)[interior] / z_star[interior]))
                ),
            )
            return errs

        base = np.array([curve(zlearn_baseline, s) for s in range(20)])
        greedy = np.array([curve(zlearn_greedy, s) for s in range(20)])
        med_base = np.median(base, axis=0)
        med_greedy = np.median(greedy, axis=0)
        assert np.all(med_greedy <= med_base)

    def test_wrong_kind_rejected(self):
        cfg = config_for(algorithm={"method": "exact-gd"})
        with pytest.raises(ConfigError):
            run_zlearn(cfg)


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def canonical_doc(self, **algorithm):
        return {
            "problem": {"kind": "softmax-tabular", "setting": "first-exit",
                        "canonical": True},
            "algorithm": {"method": "exact-gd", "iterations": 5,
                          "step_size": 0.3, **algorithm},
        }

    def test_optimize_writes_outputs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, self.canonical_doc())
        out = tmp_path / "results"
        assert cli_main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "curve.csv").exists()
        assert (out / "report.json").exists()
        assert "optimize exact-gd" in capsys.readouterr().out

    def test_grad_check_passes(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, self.canonical_doc())
        assert cli_main(["grad-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_equiv_writes_report(self, tmp_path):
        out = tmp_path / "eq"
        assert cli_main(["equiv", "--pair", "smdp-dmdp", "--out", str(out)]) == 0
        report = json.loads((out / "equiv-smdp-dmdp.json").read_text())
        assert report["pass"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"problem": {"kind": "softmax-tabular",
                                                       "gamma": 2.0}})
        assert cli_main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_zlearn_failure_exit_code(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "gridworld-lmdp", "setting": "first-exit",
                        "size": 4, "step_cost": 0.25},
            "algorithm": {"method": "zlearn-baseline", "zlearn_steps": 200,
                          "record_every": 100},
        }
        cfg = self.write_config(tmp_path, doc)
        # far too few steps for this heavily charged grid: check fails
        assert cli_main(["zlearn", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        doc = self.canonical_doc(method="alg1-sgd", batch_size=8, iterations=1)
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["optimize", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"]) == 2
        assert "problem.seed" in capsys.readouterr().err
        args = ["equiv", "--pair", "smdp-dmdp", "--out", str(tmp_path), "--seed", "-1"]
        assert cli_main(args) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_seed_override_changes_sampled_run(self, tmp_path):
        doc = self.canonical_doc(method="alg1-sgd", batch_size=32, iterations=2)
        cfg = self.write_config(tmp_path, doc)
        out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
        assert cli_main(["optimize", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
        assert cli_main(["optimize", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
        assert cli_main(["optimize", "--config", cfg, "--out", str(out3), "--seed", "1"]) == 0
        a = (out1 / "curve.csv").read_bytes()
        assert a != (out2 / "curve.csv").read_bytes()
        assert a == (out3 / "curve.csv").read_bytes()
