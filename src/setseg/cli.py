"""Command-line driver: synth, ingest, train, eval, verify, profile, model info.

Exit codes: 0 on success, 1 on a failed check, an aborted run or a reader
that closed stdout early (``setseg ingest ... | head -2``), 2 on usage
errors, a bad config key or value (file or ``--set``) among them.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import synth as synth_mod
from .config import ConfigFileError, load_config
from .model import MaskClassificationModel
from .records import RecordParseError
from .tensor import ConfigError
from .trainer import TrainError, evaluate, ingest, profile, train
from .verify import run_verify


def _add_config_args(p):
    p.add_argument("--config", help="plain-text config file (section.key = value)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key (repeatable)")


def build_parser():
    parser = argparse.ArgumentParser(prog="setseg",
                                     description="desk-scale set-prediction segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shape dataset")
    p.add_argument("--n", type=int, required=True, help="number of images")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-size", type=int, default=48)
    p.add_argument("--max-size", type=int, default=96)

    p = sub.add_parser("ingest", help="serialize annotations into balanced shards")
    p.add_argument("--annotations", required=True)
    p.add_argument("--shards", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", help="comma-separated original class IDs (default: derive)")

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
    p.add_argument("--steps", type=int, default=10)

    p = sub.add_parser("model", help="model utilities")
    model_sub = p.add_subparsers(dest="model_command", required=True)
    pi = model_sub.add_parser("info", help="parameter inventory and count")
    _add_config_args(pi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    return code


def _run(args) -> int:
    cfg = load_config(args.config, args.overrides) if "config" in args else None
    if args.command == "synth":
        ann = synth_mod.synth(args.n, args.out, seed=args.seed,
                              min_size=args.min_size, max_size=args.max_size)
        print(f"wrote {args.n} images and {ann}")
        return 0

    if args.command == "ingest":
        known = None
        if args.classes:
            known = [int(x) for x in args.classes.replace(",", " ").split()]
        shard_set, mapper = ingest(args.annotations, args.shards, args.out,
                                   known_class_ids=known)
        print(f"{shard_set.record_count} records over {len(shard_set.shards)} shards "
              f"(byte balance {shard_set.byte_balance():.4f})")
        for s in shard_set.shards:
            print(f"  {s.name} records={s.record_count} bytes={s.byte_size}")
        print(f"class mapping: {mapper.original_to_contiguous}")
        return 0

    if args.command == "train":
        try:
            result = train(cfg, args.data, args.out)
        except TrainError as err:
            print(f"training aborted: {err}", file=sys.stderr)
            return 1
        print(f"loss curve: {result.csv_path}")
        print(f"checkpoint: {result.checkpoint_path}")
        print(f"total loss {result.initial_total:.4f} -> {result.final_total:.4f}")
        return 0

    if args.command == "eval":
        try:
            result = evaluate(cfg, args.data, args.checkpoint, args.out)
        except (OSError, RecordParseError, ConfigError) as err:
            print(f"eval aborted: {err}", file=sys.stderr)
            return 1
        print(f"PQ {result.pq:.6f}  SQ {result.sq:.6f}  RQ {result.rq:.6f}")
        return 0

    if args.command == "verify":
        results = run_verify(cfg)
        return 0 if all(r.passed for r in results) else 1

    if args.command == "profile":
        try:
            report = profile(cfg, args.data, args.steps)
        except TrainError as err:
            print(f"profiling aborted: {err}", file=sys.stderr)
            return 1
        print(report, end="")
        return 0

    if args.command == "model" and args.model_command == "info":
        print(MaskClassificationModel(cfg.model).info())
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
