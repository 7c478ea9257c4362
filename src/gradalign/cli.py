"""Command-line interface.

Subcommands: ``run <config>``, ``sweep <config>``, ``verify [config]``,
``gen-data <config>``. Flags ``--seed/--out/--threads/--quiet`` are accepted
by every subcommand; ``--threads`` is kept for old command lines and ignored.
Exit codes: 0 success, 2 config error, 3 divergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .datagen import gen_blobs, save_csv
from .errors import ConfigError, DivergenceError, UsageError
from .harness import make_out_dir, parse_config, run_experiment, run_sweep, verify_suite
from .params import SeededStream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY_FAILED = 4


def _common_flags(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="override run.master_seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted, ignored (runs are single-threaded)")
    parser.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradalign",
        description="Deterministic federated-optimization simulator and "
                    "theorem verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config")
    _common_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per sweep value")
    p_sweep.add_argument("config")
    _common_flags(p_sweep)

    p_verify = sub.add_parser("verify", help="run the theorem verification suite")
    p_verify.add_argument("config", nargs="?", default=None)
    _common_flags(p_verify)

    p_gen = sub.add_parser("gen-data", help="generate a blobs dataset as CSV")
    p_gen.add_argument("config")
    _common_flags(p_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = parse_config(args.config, purpose="run")
            _print_warnings(cfg, args.quiet)
            path = run_experiment(cfg, args.out, seed=args.seed, quiet=True)
            if not args.quiet:
                print(path)
            return EXIT_OK
        if args.command == "sweep":
            cfg = parse_config(args.config, purpose="sweep")
            _print_warnings(cfg, args.quiet)
            run_sweep(cfg, args.out, seed=args.seed, quiet=args.quiet)
            return EXIT_OK
        if args.command == "verify":
            cfg = None
            if args.config is not None:
                cfg = parse_config(args.config, purpose="verify")
            _, all_passed = verify_suite(cfg, args.out, seed=args.seed, quiet=args.quiet)
            return EXIT_OK if all_passed else EXIT_VERIFY_FAILED
        if args.command == "gen-data":
            cfg = parse_config(args.config, purpose="gen-data")
            seed = args.seed if args.seed is not None else (
                cfg.run.master_seed if cfg.run is not None else 0)
            spec = cfg.problem
            try:
                ds = gen_blobs(spec.classes, spec.per_class, spec.dim, spec.sep,
                               SeededStream(seed).derive("data", 0).derive("blobs", 0))
            except UsageError as exc:
                raise ConfigError(str(exc)) from None
            path = make_out_dir(args.out) / f"{Path(args.config).stem}.csv"
            save_csv(ds, path)
            if not args.quiet:
                print(path)
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    raise AssertionError("unreachable")


def _print_warnings(cfg, quiet):
    if not quiet:
        for w in cfg.warnings:
            print(f"warning: {w}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
