"""Command-line interface: synth, train, infer, eval, and gradcheck.

Every subcommand is deterministic given its flags; all randomness flows
from the single seed and no output embeds a timestamp. Exit codes:
0 success, 1 usage error (two file flags naming one file, or an output
inside a directory the command reads, included), 2 any
InputError or OSError (a non-finite probability map included: no mask or
report is written), 3 failed check (gradient suite above tolerance, or eval
below --min-jaccard), 4 training diverged or died (non-finite loss, gradient
or parameter, or an epoch of exactly-zero gradients): nothing is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    generate_synthetic,
    load_dataset,
    naming_pnm_errors,
    read_mask_file,
    read_pnm,
    read_pnm_header,
    save_dataset,
    write_pnm,
)
from .errors import (ConfigError, DataError, InputError, NonFiniteOutputError,
                     TrainingDivergedError)
from .gradcheck import format_results, run_suite
from .metrics import evaluate_dataset, format_per_image, format_report, format_report_kv
from .model import (ModelConfig, check_image_dims, forward, load_model, predict_mask,
                    save_model, train)
from .tensor import Rng, overwrite

CONFIG_KEYS = tuple(f.name for f in fields(ModelConfig))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def load_config(path) -> ModelConfig:
    """Parse a JSON config with a closed key set; missing keys default."""
    try:
        doc = json.loads(Path(path).read_text(encoding="ascii"))
    except ValueError as e:  # bad JSON, non-ASCII bytes, or an over-long integer
        raise ConfigError(f"config {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {', '.join(unknown)}")
    return ModelConfig(**doc)


# the flags that name a directory a command reads, and those of a file it writes
_INPUT_DIRS = frozenset(("--data", "--pred", "--gt"))
_OUTPUTS = frozenset(("--out", "--trace", "--report", "--per-image"))


def _distinct_files(*flags: tuple[str, str | None]) -> None:
    """Refuse, of (flag, path) pairs, two file flags that realpath (which
    survives a symlink loop) maps to one file, and an output whose real
    path lies inside, or is, an input directory's. The path of a flag not
    given is None; two input directories may name one directory."""
    given = [(flag, path, os.path.realpath(path)) for flag, path in flags if path is not None]
    dirs = [entry for entry in given if entry[0] in _INPUT_DIRS]
    seen = {}
    for flag, path, real in given:
        if flag not in _INPUT_DIRS:
            other = seen.setdefault(real, flag)
            if other != flag:
                raise _UsageError(f"{other} and {flag} both name {path}")
    for flag, path, real in given:
        if flag in _OUTPUTS:
            for dir_flag, dir_path, dir_real in dirs:
                if Path(real).is_relative_to(dir_real):
                    raise _UsageError(f"{flag} {path} lies inside {dir_flag} {dir_path}, "
                                      f"which the command reads")


def _write_text(path, text: str) -> None:
    with overwrite(path) as fh:
        fh.write(text.encode("utf-8"))


def _predict(image: np.ndarray, params, threshold: float) -> np.ndarray:
    """The mask of one image, refused if a probability is a NaN or an
    infinity, which would threshold to background. An overflowing forward
    ends in NaN, so numpy's overflow warnings are not printed."""
    with np.errstate(over="ignore", invalid="ignore"):
        prob = forward(image, params)
    if not np.isfinite(prob).all():
        raise NonFiniteOutputError("the probability map holds a non-finite value: "
                                   "the network's forward overflowed float32")
    return predict_mask(prob, threshold)


def _cmd_synth(args) -> int:
    records = generate_synthetic(args.seed, args.count, args.size)
    save_dataset(records, args.out)
    print(f"wrote {len(records)} image/mask pairs under {args.out}")
    return 0


def _cmd_train(args) -> int:
    _distinct_files(("--data", args.data), ("--out", args.out), ("--trace", args.trace),
                    ("--config", args.config))
    config = load_config(args.config)
    records = load_dataset(args.data, config.image_size)
    params, trace = train(config, records, Rng(config.seed))
    save_model(params, config, args.out)
    if args.trace:
        _write_text(args.trace, trace.serialize())
    if trace.entries:
        epoch, loss, dice = trace.entries[-1]
        print(f"epoch {epoch}: loss {loss:.6f} dice {dice:.6f}")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_infer(args) -> int:
    _distinct_files(("--out", args.out), ("--model", args.model), ("--image", args.image))
    params, config = load_model(args.model)
    data = Path(args.image).read_bytes()
    with naming_pnm_errors(args.image):
        # refuse an image the network would reject before decoding it to floats
        check_image_dims(*read_pnm_header(data)[:2])
        image = read_pnm(data)
    if image.shape[2] == 1:
        image = np.repeat(image, 3, axis=2)
    write_pnm(_predict(image, params, config.threshold), args.out)
    return 0


def _mask_pairs(pred_dir, gt_dir) -> tuple[list[str], list[tuple[np.ndarray, np.ndarray]]]:
    """The mask names, in order, and their (prediction, ground truth) pairs."""
    pred_root, gt_root = Path(pred_dir), Path(gt_dir)
    pred_names = {p.name for p in pred_root.glob("*.pgm")}
    gt_names = {p.name for p in gt_root.glob("*.pgm")}
    if pred_names != gt_names:
        odd = sorted(pred_names ^ gt_names)
        raise DataError(f"prediction/ground-truth mismatch for: {', '.join(odd)}")
    if not pred_names:
        raise DataError(f"no .pgm masks under {pred_dir}")
    names = sorted(pred_names)
    pairs = []
    for name in names:
        pred, gt = read_mask_file(pred_root / name), read_mask_file(gt_root / name)
        if pred.shape != gt.shape:
            raise DataError(f"{name}: the prediction is {pred.shape[1]}x{pred.shape[0]}, "
                            f"the ground truth {gt.shape[1]}x{gt.shape[0]}")
        pairs.append((pred, gt))
    return names, pairs


def _cmd_eval(args) -> int:
    _distinct_files(("--data", args.data), ("--pred", args.pred), ("--gt", args.gt),
                    ("--report", args.report), ("--per-image", args.per_image),
                    ("--model", args.model))
    model_mode = args.model is not None or args.data is not None
    dir_mode = args.pred is not None or args.gt is not None
    if model_mode == dir_mode or (model_mode and not (args.model and args.data)) \
            or (dir_mode and not (args.pred and args.gt)):
        raise _UsageError("eval needs either --model with --data, "
                          "or --pred with --gt")
    if args.min_jaccard is not None and not math.isfinite(args.min_jaccard):
        raise _UsageError(f"--min-jaccard must be a finite number, got {args.min_jaccard}")
    if model_mode:
        params, config = load_model(args.model)
        records = load_dataset(args.data, config.image_size)
        if not records:
            raise DataError(f"no images under {args.data}")
        ids, pairs = [], []
        for rec in records:
            if rec.mask is None:
                raise DataError(f"{rec.id}: no ground-truth mask to evaluate against")
            ids.append(rec.id)
            pairs.append((_predict(rec.image, params, config.threshold), rec.mask))
    else:
        ids, pairs = _mask_pairs(args.pred, args.gt)

    macro, micro, per_image = evaluate_dataset(pairs)
    rows = [("macro", macro), ("micro", micro)]
    _write_text(args.report, format_report_kv(rows))
    if args.per_image:
        _write_text(args.per_image, format_per_image(ids, per_image))
    print(format_report(rows), end="")
    if args.min_jaccard is not None and macro.ja < args.min_jaccard:
        print(f"macro jaccard {macro.ja:.6f} is below the required "
              f"{args.min_jaccard}", file=sys.stderr)
        return 3
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_suite(args.seed)
    print(format_results(results), end="")
    if all(r.passed for r in results):
        return 0
    print("gradient check failed", file=sys.stderr)
    return 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser for every run_cli call in a process, built on first use."""
    parser = _Parser(prog="sweepseg",
                     description="train and run the recurrent-sweep "
                                 "segmentation network")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("synth", help="generate a synthetic lesion dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, required=True, help="number of pairs")
    p.add_argument("--seed", type=int, required=True, help="rng seed")
    p.add_argument("--size", type=int, default=64, help="square image size")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train from scratch on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--trace", help="optional epoch,loss,dice trace file")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("infer", help="predict a binary mask for one image")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--image", required=True, help="input image (PPM or PGM)")
    p.add_argument("--out", required=True, help="output mask (PGM)")
    p.set_defaults(handler=_cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--model", help="checkpoint file (with --data)")
    p.add_argument("--data", help="dataset directory (with --model)")
    p.add_argument("--pred", help="directory of predicted masks (with --gt)")
    p.add_argument("--gt", help="directory of ground-truth masks (with --pred)")
    p.add_argument("--report", required=True, help="key/value report file to write")
    p.add_argument("--per-image", help="optional id,ac,se,sp,di,ja file, one row per image")
    p.add_argument("--min-jaccard", type=float,
                   help="exit 3 if macro Jaccard falls below this bound")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p.add_argument("--seed", type=int, default=42, help="rng seed")
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        return 0 if e.code in (None, 0) else 1
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingDivergedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_cli())
