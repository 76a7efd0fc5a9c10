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
import ctypes
import sys

from .configs import ConfigError
from .experiments import MODES, load_config, run


def keep_heap() -> None:
    """Make glibc's malloc keep freed memory, in this process and in every process it forks later.

    By default glibc gives a call's freed temporaries back to the system and
    page-faults them in again on the next call: about 930 faults in this
    process and 530 in the kernel worker per 256-row training step at the
    shipped geometry, against under 10 with the thresholds set here.  Where
    libc has no mallopt (macOS, musl) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt, or no symbols of this process to open (Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD at glibc's largest, 32 MiB: the chunk temporaries (2 MiB at basis.CHUNK_CELLS) and the
    # baselines' feature matrices (19 MB at n = 6000) come from the heap, which a 4 MiB threshold left them
    # beside, at 1 MB more peak RSS.  M_TRIM_THRESHOLD: trim only past 256 MiB free, 4 times a shipped run's peak.
    mallopt(-3, 32 << 20)
    mallopt(-1, 256 << 20)


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
    keep_heap()  # process-wide, so only the CLI sets it: importing rflaf leaves the host's allocator alone
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
