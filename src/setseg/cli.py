"""Command-line driver: synth, ingest, train, eval, verify, profile, model info.

Exit codes: 0 on success, 1 on a failed check, an aborted run or a reader
that closed stdout early (``setseg ingest ... | head -2``), 2 on usage
errors, a bad config key or value (file or ``--set``) or an unreadable
``--config`` file among them.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import synth as synth_mod
from .config import ConfigFileError, load_config
from .model import MaskClassificationModel
from .pipeline import PipelineError
from .records import RecordParseError
from .tensor import ConfigError
from .trainer import TrainError, evaluate, ingest, profile, train
from .verify import run_verify

# these commands report a failed run or a missing, corrupt or mismatched input
# file as one "<what> aborted: ..." line on stderr, with exit code 1
_ABORTED = {"ingest": "ingest", "train": "training", "eval": "eval", "profile": "profiling"}


def _int_at_least(low):
    """An argparse ``type=`` that accepts an integer of at least ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _class_ids(text):
    try:
        ids = [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        ids = []
    if not ids:
        raise argparse.ArgumentTypeError(f"not a list of integer class IDs: {text!r}")
    if min(ids) <= 0 or len(set(ids)) != len(ids):
        raise argparse.ArgumentTypeError(f"class IDs must be positive and distinct: {text!r}")
    return ids


def _add_config_args(p):
    p.add_argument("--config", help="plain-text config file (section.key = value)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key (repeatable)")


def build_parser():
    parser = argparse.ArgumentParser(prog="setseg",
                                     description="desk-scale set-prediction segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shape dataset")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="number of images")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    # the circle painter's smallest radius is 3, so an image side needs 6 pixels
    p.add_argument("--min-size", type=_int_at_least(6), default=48)
    p.add_argument("--max-size", type=int, default=96)

    p = sub.add_parser("ingest", help="serialize annotations into balanced shards")
    p.add_argument("--annotations", required=True)
    p.add_argument("--shards", type=_int_at_least(1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=_class_ids,
                   help="comma-separated original class IDs (default: derive)")

    p = sub.add_parser("train", help="run the training loop")
    _add_config_args(p)
    p.add_argument("--data", required=True, help="shard directory (with manifest)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="panoptic-quality evaluation of a checkpoint")
    _add_config_args(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_config_args(p)

    p = sub.add_parser("profile", help="per-stage timing of the training loop; writes nothing")
    _add_config_args(p)
    p.add_argument("--data", required=True)
    p.add_argument("--steps", type=_int_at_least(0), default=10)

    p = sub.add_parser("model", help="model utilities")
    model_sub = p.add_subparsers(dest="model_command", required=True)
    pi = model_sub.add_parser("info", help="parameter inventory and count")
    _add_config_args(pi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and args.min_size > args.max_size:
        parser.error(f"argument --min-size: {args.min_size} exceeds --max-size {args.max_size}")
    try:
        code = _run(args)
        sys.stdout.flush()
    except ConfigFileError as err:
        print(f"setseg: error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at devnull so the flush at
        # interpreter exit cannot raise again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TrainError, OSError, RecordParseError, ConfigError, PipelineError) as err:
        if args.command not in _ABORTED:
            raise
        print(f"{_ABORTED[args.command]} aborted: {err}", file=sys.stderr)
        return 1
    return code


def _run(args) -> int:
    cfg = load_config(args.config, args.overrides) if "config" in args else None
    if args.command == "synth":
        ann = synth_mod.synth(args.n, args.out, seed=args.seed,
                              min_size=args.min_size, max_size=args.max_size)
        print(f"wrote {args.n} images and {ann}")
        return 0

    if args.command == "ingest":
        shard_set, mapping = ingest(args.annotations, args.shards, args.out,
                                   known_class_ids=args.classes)
        print(f"{shard_set.record_count} records over {len(shard_set.shards)} shards "
              f"(byte balance {shard_set.byte_balance():.4f})")
        for s in shard_set.shards:
            print(f"  {s.name} records={s.record_count} bytes={s.byte_size}")
        print(f"class mapping: {mapping}")
        return 0

    if args.command == "train":
        result = train(cfg, args.data, args.out)
        print(f"loss curve: {result.csv_path}")
        print(f"checkpoint: {result.checkpoint_path}")
        print(f"total loss {result.initial_total:.4f} -> {result.final_total:.4f}")
        return 0

    if args.command == "eval":
        result = evaluate(cfg, args.data, args.checkpoint, args.out)
        print(f"PQ {result.pq:.6f}  SQ {result.sq:.6f}  RQ {result.rq:.6f}")
        return 0

    if args.command == "verify":
        results = run_verify(cfg)
        return 0 if all(r.passed for r in results) else 1

    if args.command == "profile":
        print(profile(cfg, args.data, args.steps), end="")
        return 0

    if args.command == "model" and args.model_command == "info":
        print(MaskClassificationModel(cfg.model).info())
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
