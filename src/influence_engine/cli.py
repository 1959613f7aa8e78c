"""Command-line entry point for the scoring pipeline."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import lineio
from .hierarchy import load_snapshot
from .pipeline import STAGES, RunConfig, StageError, rank_cohort, run_pipeline

STAGE_EXIT_CODES = {
    "ingest": 2,
    "features": 3,
    "train": 4,
    "score": 5,
    "evaluate": 6,
    "simulate": 7,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="influence-score",
        description="Batch influence scoring over multi-network interaction logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for mode in (*STAGES, "all"):
        sp = sub.add_parser(mode, help=f"run the {mode!r} stage(s)")
        sp.add_argument("--config", required=True, type=Path, help="run config JSON")
        sp.add_argument("--out", required=True, type=Path, help="output directory")

    rank = sub.add_parser("rank", help="rank a user-list file by snapshot score")
    rank.add_argument("--snapshot", required=True, type=Path)
    rank.add_argument("--users", required=True, type=Path, help="one profile id per line")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "rank":
        try:
            snapshot = load_snapshot(args.snapshot)
        except (OSError, ValueError) as exc:
            print(f"bad snapshot: {exc}", file=sys.stderr)
            return 1
        try:
            users = [
                lineio.decode_value(line.strip())
                for line in args.users.read_text().splitlines()
                if line.strip()
            ]
        except (OSError, ValueError) as exc:
            print(f"bad users file: {exc}", file=sys.stderr)
            return 1
        for user, score in rank_cohort(snapshot, users):
            print(f"{lineio.encode_value(user)}\t{'unscored' if score is None else repr(score)}")
        return 0

    try:
        cfg = RunConfig.from_file(args.config)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 1

    try:
        manifest = run_pipeline(cfg, args.out, mode=args.command)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return STAGE_EXIT_CODES.get(exc.stage, 1)
    print(f"manifest: {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
