"""Command-line entry point: one experiment per invocation.

    rflaf <mode> --config CONFIG.json --out OUT_DIR [--seed N]

Modes: kernel-verify, taylor-verify, rate-study, train-compare,
export-activation, bounds.  Exit code 0 means every check the mode runs
passed; 1 means a verification check failed; 2 means the config was
invalid (checked in full, types and ranges included, before any sampling),
it names a degenerate target or an unreadable checkpoint, or an I/O problem
occurred.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import MODES, ConfigError, load_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rflaf", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} experiment")
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", required=True, help="directory for output artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the config seed; modes that draw nothing ignore it")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        code = run(args.mode, config, args.out, seed_override=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
