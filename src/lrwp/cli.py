"""Command-line entry point.

    lrwp <analytic|validate|momentum|sweep> --config <path> --out <dir> [--jobs N]

Exit codes: 0 success, 2 configuration error (including a config file that
cannot be read and an output directory that cannot be written), 3 numeric
failure, 4 acceptance violation in validate mode.
"""

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .errors import AcceptanceViolation, ConfigError, LrwpError
from .runner import run_analytic, run_momentum, run_sweep, run_validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ACCEPTANCE = 4


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrwp", description=__doc__)
    parser.add_argument("mode", choices=["analytic", "validate", "momentum", "sweep"])
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", required=True, help="output directory for CSV files")
    parser.add_argument("--jobs", type=_jobs, default=None, help="processes to run at once (>= 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"lrwp: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text, mode_override=args.mode)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.mode == "analytic":
            run_analytic(cfg, out)
        elif args.mode == "validate":
            summary = run_validate(cfg, out, jobs=args.jobs)
            print(
                f"validate: max L2 split-step {summary.max_l2_ss:.3e}, "
                f"crank-nicolson {summary.max_l2_cn:.3e}, "
                f"invariant drift {summary.inv_drift:.3e}"
            )
        elif args.mode == "momentum":
            worst = run_momentum(cfg, out)
            print(f"momentum: max pointwise discrepancy {worst:.3e}")
        else:
            run_sweep(cfg, out, jobs=args.jobs)
    except ConfigError as exc:
        print(f"lrwp: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # --out names a file, or a directory that cannot be written
        print(f"lrwp: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AcceptanceViolation as exc:
        print(f"lrwp: acceptance violation: {exc}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    except LrwpError as exc:
        print(f"lrwp: numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
