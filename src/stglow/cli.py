"""Command-line interface: train / eval / sample / check."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .checkpoint import load_checkpoint
from .checks import check
from .config import check_bound, load_config
from .errors import ConfigError, StglowError
from .pipeline import evaluate, load_eval_windows, load_training_windows, restore_model, sample_and_plot, train


def _seed_override(seed: int) -> int:
    env = os.environ.get("STGLOW_SEED")
    if not env:
        return seed
    try:
        value = int(env)
    except ValueError:
        raise ConfigError(f"STGLOW_SEED must be an integer, got {env!r}") from None
    check_bound("seed", value, "STGLOW_SEED")
    return value


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    cfg.seed = _seed_override(cfg.seed)
    result = train(cfg, resume=args.resume)
    if result.aborted:
        print(f"training aborted on non-finite loss; last-good checkpoint: {result.last_path}")
        return 1
    print(f"trained {cfg.train.epochs} epochs; last checkpoint: {result.last_path}")
    if result.best_path is not None:
        print(f"best validation checkpoint: {result.best_path}")
    if result.skipped_steps:
        print(f"skipped {result.skipped_steps} singular-matrix steps")
    if result.selection_fallbacks:
        print(f"selected winners in float64 in {result.selection_fallbacks} steps (the float32 pass went non-finite)")
    return 0


def _forecast_args(args, ckpt) -> tuple[int, float]:
    """--k and --sigma, each defaulting to the checkpoint's `eval` section and bounded as its field is."""
    ev = ckpt.config.eval
    k, sigma = (ev.k if args.k is None else args.k), (ev.sigma if args.sigma is None else args.sigma)
    check_bound("eval.k", k, "--k")
    check_bound("eval.sigma", sigma, "--sigma")
    return k, sigma


def _write_out(path: str, text: str | None = None) -> None:
    """Write `text` to `path`, or with None only check that it can be written, leaving the path as it was."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a" if text is None else "w") as f:
            f.write(text or "")
    except OSError as exc:
        raise ConfigError(f"--out {path}: cannot write the metrics CSV ({exc.strerror})") from None
    if text is None and not existed:
        os.remove(path)


def _cmd_eval(args) -> int:
    if args.out:  # before the work, so that an unusable path fails fast
        _write_out(args.out)
    ckpt = load_checkpoint(args.ckpt)
    model = restore_model(ckpt)
    seed = _seed_override(ckpt.config.seed)
    windows = load_eval_windows(args.data, ckpt.config.model.t_obs, ckpt.config.model.t_pred)
    k, sigma = _forecast_args(args, ckpt)
    report = evaluate(model, windows, k=k, sigma=sigma, seed=seed)
    csv = report.to_csv()
    if args.out:
        _write_out(args.out, csv)
        print(f"wrote {args.out}")
    else:
        print(csv, end="")
    return 0


def _cmd_sample(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    model = restore_model(ckpt)
    seed = _seed_override(ckpt.config.seed)
    if args.data:
        groups = load_eval_windows(args.data, ckpt.config.model.t_obs, ckpt.config.model.t_pred)
        windows = [w for name in sorted(groups) for w in groups[name]]
    else:
        windows = load_training_windows(ckpt.config)
    k, sigma = _forecast_args(args, ckpt)
    csv_path, svg_path = sample_and_plot(model, windows, args.scene, k, sigma, args.out, seed=seed)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def _cmd_check(args) -> int:
    report, ok = check(args.ckpt)
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="stglow", description="flow-based trajectory forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True, help="dotted-key config file")
    p_train.add_argument("--resume", default=None, help="checkpoint to resume from")
    p_train.set_defaults(fn=_cmd_train)

    p_eval = sub.add_parser("eval", help="best-of-K evaluation of a checkpoint")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True, help="dataset file/dir or synth:<spec>")
    p_eval.add_argument("--k", type=int, default=None, help="samples per window; defaults to the checkpoint's eval.k")
    p_eval.add_argument("--sigma", type=float, default=None, help="defaults to the checkpoint's eval.sigma")
    p_eval.add_argument("--out", default=None, help="write the metrics CSV here instead of stdout")
    p_eval.set_defaults(fn=_cmd_eval)

    p_sample = sub.add_parser("sample", help="sample futures for one scene and plot them")
    p_sample.add_argument("--ckpt", required=True)
    p_sample.add_argument("--scene", type=int, required=True, help="scene index in the data")
    p_sample.add_argument("--k", type=int, default=None, help="defaults to the checkpoint's eval.k")
    p_sample.add_argument("--sigma", type=float, default=None, help="defaults to the checkpoint's eval.sigma")
    p_sample.add_argument("--out", required=True, help="output directory")
    p_sample.add_argument("--data", default=None, help="dataset file/dir or synth:<spec>; defaults to the checkpoint's data")
    p_sample.set_defaults(fn=_cmd_sample)

    p_check = sub.add_parser("check", help="run the consistency suites")
    p_check.add_argument("--ckpt", default=None)
    p_check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        return args.fn(args)
    except StglowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
