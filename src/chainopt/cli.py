"""Command line entry point.

Subcommands: grad-check, optimize, equiv, zlearn. Exit codes: 0 the run
passed (or finished, for optimize), 1 a numeric check failed, 2 the
config was invalid, 3 anything else went wrong at runtime.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ChainOptError, ConfigError
from .harness import (
    EQUIV_PAIRS,
    load_config,
    run_equivcheck,
    run_gradcheck,
    run_optimize,
    run_zlearn,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainopt",
        description="Desk-scale chain optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_config=True):
        if need_config:
            p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=".", help="directory for result files")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("grad-check", help="analytic vs finite-difference gradient")
    common(p)
    p = sub.add_parser("optimize", help="run the configured optimizer")
    common(p)
    p = sub.add_parser("equiv", help="cross-construction equivalence report")
    p.add_argument("--pair", required=True, choices=EQUIV_PAIRS)
    common(p, need_config=False)
    p = sub.add_parser("zlearn", help="train Z on the gridworld")
    common(p)
    return parser


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        config.problem.seed = int(args.seed)
        config.problem.validate()
    return config


def _emit_report(report: dict, out_dir: str, name: str):
    os.makedirs(out_dir, exist_ok=True)
    payload = {k: v for k, v in report.items() if k != "curve"}
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "grad-check":
            config = _load(args)
            report = run_gradcheck(config)
            _emit_report(report, args.out, config.output.report_json)
            print(
                f"grad-check {report['kind']}/{report['setting']}: "
                f"max rel err {report['max_rel_error']:.3e} "
                f"({'pass' if report['pass'] else 'FAIL'})"
            )
            return EXIT_PASS if report["pass"] else EXIT_CHECK_FAILED

        if args.command == "optimize":
            config = _load(args)
            os.makedirs(args.out, exist_ok=True)
            report = run_optimize(config, out_dir=args.out)
            print(
                f"optimize {report['method']} on {report['kind']}: "
                f"J {report['initial_J']:.6g} -> {report['final_J']:.6g} "
                f"in {report['iterations']} iterations"
            )
            return EXIT_PASS

        if args.command == "equiv":
            report = run_equivcheck(args.pair, seed=args.seed or 0)
            _emit_report(report, args.out, f"equiv-{args.pair}.json")
            print(
                f"equiv {args.pair}: dP {report['max_dP']:.2e} dL {report['max_dL']:.2e} "
                f"dJ {report['max_dJ']:.2e} dgrad {report['max_dgrad']:.2e} "
                f"({'pass' if report['pass'] else 'FAIL'})"
            )
            return EXIT_PASS if report["pass"] else EXIT_CHECK_FAILED

        config = _load(args)
        os.makedirs(args.out, exist_ok=True)
        report = run_zlearn(config, out_dir=args.out)
        print(
            f"zlearn {report['method']}: final rel error {report['final_rel_error']:.4f} "
            f"residual {report['final_bellman_residual']:.4f} "
            f"({'pass' if report['pass'] else 'FAIL'})"
        )
        return EXIT_PASS if report["pass"] else EXIT_CHECK_FAILED
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChainOptError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
