"""Training and evaluation: seed streams, model I/O, data loading, `train`,
`evaluate` and `sample_and_plot`.

Randomness is organized as seed-derived streams keyed by purpose (model
init, validation split, per-epoch shuffling, per-epoch sampling, per-scene
evaluation) so every run, resumed run, and evaluation is bit-reproducible
from (seed, config, data) alone. The `stglow check` suites live in
`checks`, the CSV and SVG format in `plot`.
"""

from __future__ import annotations

import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import numcore as nc
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import Config, ModelConfig, validate
from .data import SceneWindow, SynthSpec, leave_one_out_split, load_windows, parse_synth_spec, synth_scenes
from .decoder import LossWeights
from .errors import CheckpointError, ConfigError, DataError, SceneNotFoundError, SingularMatrixError
from .metrics import EvalReport, best_of_k
from .model import TrajectoryModel
from .numcore import Adam
from .plot import parse_sample_csv, render_svg, sample_to_csv

log = logging.getLogger("stglow")

# spawn-key tags for seed-derived generator streams
STREAM_INIT = 0
STREAM_SPLIT = 1
STREAM_SHUFFLE = 2
STREAM_SAMPLE = 3
STREAM_EVAL = 4


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def build_model(cfg: Config) -> TrajectoryModel:
    """A fresh model, its initial weights drawn from the seed's init stream."""
    return TrajectoryModel(cfg.model, rng_stream(cfg.seed, STREAM_INIT))


class _NoDraws:
    """The generator of a model whose parameters a checkpoint fills: every
    layer, `random_rotation` and `pos_table` draw only through `normal`, and
    here it hands back zeros, so no initial weight is drawn."""

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return np.zeros(size)


def snapshot(model: TrajectoryModel, cfg: Config, opt: Adam | None, epoch: int) -> Checkpoint:
    """A checkpoint of the live parameter and Adam arrays, uncopied: save it
    before the next optimizer step moves them. Before the first step
    (`opt.t == 0`) the moments are all zeros and are left out, so the file
    holds the model only; resuming from it starts the same fresh Adam."""
    return Checkpoint(
        config=cfg,
        params={k: p.data for k, p in model.params().items()},
        opt_state=opt.state_arrays() if opt and opt.t else {},
        opt_step=opt.t if opt else 0,
        epoch=epoch,
    )


def load_params(model: TrajectoryModel, ckpt: Checkpoint) -> None:
    """Copy a checkpoint's parameters into `model`."""
    params = model.params()
    missing = set(params) ^ set(ckpt.params)
    if missing:
        raise ConfigError(f"checkpoint/model parameter mismatch: {sorted(missing)[:4]}...")
    for name, arr in ckpt.params.items():
        if params[name].data.shape != arr.shape:
            raise ConfigError(f"shape mismatch for {name}: {params[name].data.shape} vs {arr.shape}")
        params[name].data[:] = arr


def restore_model(ckpt: Checkpoint) -> TrajectoryModel:
    """The model a checkpoint holds, built from its config without drawing
    initial weights: `load_params` fills every parameter."""
    return _filled_model(ckpt.config.model, ckpt)


def _filled_model(cfg: ModelConfig, ckpt: Checkpoint) -> TrajectoryModel:
    """A model of `cfg` holding `ckpt`'s parameters, its weights undrawn."""
    model = TrajectoryModel(cfg, _NoDraws())
    load_params(model, ckpt)
    return model


def load_training_windows(cfg: Config) -> list[SceneWindow]:
    d = cfg.data
    if d.format == "synth":
        spec = SynthSpec(
            kinds=tuple(d.synth_kinds),
            count=d.synth_count,
            seed=d.synth_seed,
            noise_std=d.synth_noise,
            t_obs=cfg.model.t_obs,
            t_pred=cfg.model.t_pred,
        )
        return synth_scenes(spec)
    scenes = {
        Path(p).stem: load_windows(p, cfg.model.t_obs, cfg.model.t_pred, d.window_stride)
        for p in d.paths
    }
    if d.holdout:
        train, _ = leave_one_out_split(d.holdout, scenes)
        return train
    return [w for ws in scenes.values() for w in ws]


def load_eval_windows(data: str, t_obs: int, t_pred: int) -> dict[str, list[SceneWindow]]:
    """Resolve a CLI --data argument: synth spec, dataset file, or directory."""
    if data.startswith("synth:"):
        spec = parse_synth_spec(data)
        spec.t_obs, spec.t_pred = t_obs, t_pred
        return {spec.name: synth_scenes(spec)}
    path = Path(data)
    files = sorted(path.glob("*.txt")) if path.is_dir() else [path]
    if not files:
        raise ConfigError(f"no .txt dataset files in {path}")
    groups = {f.stem: load_windows(f, t_obs, t_pred) for f in files}
    if not any(groups.values()):
        raise DataError(f"{path}: no pedestrian is tracked for the {t_obs + t_pred} frames of a window")
    return groups


@contextmanager
def _out_dir(path: str | Path) -> Iterator[Path]:
    """`path` as a directory for the block, made with its parents if missing;
    a ConfigError naming it if it cannot be, say because it or a parent is a
    file. If the block raises, the directories made here are removed again,
    deepest first, while they are still empty."""
    path = Path(path)
    made = [d for d in (path, *path.parents) if not os.path.lexists(d)]  # deepest first
    try:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot make output directory ({exc.strerror})") from None
        yield path
    except BaseException:
        for d in made:
            try:
                d.rmdir()
            except FileNotFoundError:  # mkdir failed below its parents
                continue
            except OSError:  # not empty: keep it and what holds it
                break
        raise


@dataclass
class TrainResult:
    """What `train` leaves besides its files: their paths, the per-epoch
    history, the abort flag and the step counts. The file at `last_path` is
    the last-good state, also after an abort; load it to use the trained
    model. `selection_fallbacks` counts the steps whose float32 winner
    selection met a non-finite value and was redone in float64."""

    last_path: Path
    best_path: Path | None = None
    history: list[dict] = field(default_factory=list)
    aborted: bool = False
    skipped_steps: int = 0
    selection_fallbacks: int = 0


def train(cfg: Config, resume: str | Path | None = None) -> TrainResult:
    """Optimize the full model; checkpoints land in cfg.train.out_dir.

    A run from scratch draws its initial weights and sets the flow's
    PatternNorms from its first windows. `resume` instead restores params,
    Adam state and the epoch from a checkpoint into a model built without
    drawing, never re-initialises, and continues the lr schedule of the
    *passed* config from that epoch. Under "cosine" the annealing horizon is
    `cfg.train.epochs`, so a run with a smaller `epochs` follows a different
    lr curve: it is a different run, not a prefix of a longer one. To resume
    an interrupted run bit for bit, pass the config it was started with. A
    checkpoint already past `cfg.train.epochs` raises `ConfigError`, and one
    past optimizer step 0 without Adam state `CheckpointError`, before
    anything is written.

    Files are written straight from the live arrays, the only copy of the
    model; the first, saved before any step, holds no Adam state. The result
    carries paths, history and flags; `last_path` holds the last-good state,
    also after an abort on a non-finite loss. A call that raises leaves no
    directory it made and left empty.
    """
    validate(cfg)
    with _out_dir(cfg.train.out_dir) as out_dir:
        return _train(cfg, resume, out_dir)


def _train(cfg: Config, resume: str | Path | None, out_dir: Path) -> TrainResult:
    ckpt = None if resume is None else load_checkpoint(resume)
    model = build_model(cfg) if ckpt is None else _filled_model(cfg.model, ckpt)
    opt = Adam(
        model.params(),
        lr=cfg.train.lr,
        betas=cfg.train.betas,
        weight_decay=cfg.train.weight_decay,
    )
    start_epoch = 0 if ckpt is None else _resume(opt, ckpt, resume, cfg.train.epochs)

    windows = load_training_windows(cfg)
    if not windows:
        raise ConfigError("no training windows available")
    n_val = int(round(cfg.train.val_fraction * len(windows)))
    perm = rng_stream(cfg.seed, STREAM_SPLIT).permutation(len(windows))
    val_windows = [windows[i] for i in perm[:n_val]]
    train_pool = [windows[i] for i in perm[n_val:]]
    if not train_pool:
        raise ConfigError("validation split left no training windows")

    weights = LossWeights(*cfg.train.loss_weights)
    if resume is None:
        # data-dependent normalization init on the first training batch
        # (widened to a stable sample size; tiny batches give useless scales)
        init_count = min(len(train_pool), max(cfg.train.batch, 128))
        init_order = rng_stream(cfg.seed, STREAM_SHUFFLE, 0).permutation(len(train_pool))
        init_windows = [train_pool[i] for i in init_order[:init_count]]
        with nc.no_grad():
            mb, st = model.encode_windows(init_windows, training=True)
        model.flow.initialize(mb.data, st.data)
    result = TrainResult(last_path=out_dir / "last.ckpt")
    save_checkpoint(snapshot(model, cfg, opt, start_epoch), result.last_path)
    best_val = math.inf

    for epoch in range(start_epoch, cfg.train.epochs):
        if cfg.train.lr_schedule == "cosine" and cfg.train.epochs > 1:
            frac = epoch / (cfg.train.epochs - 1)
            floor = cfg.train.lr_min_factor
            opt.lr = cfg.train.lr * (floor + (1 - floor) * 0.5 * (1 + math.cos(math.pi * frac)))
        order = rng_stream(cfg.seed, STREAM_SHUFFLE, epoch).permutation(len(train_pool))
        sample_rng = rng_stream(cfg.seed, STREAM_SAMPLE, epoch)
        sums = {"l_p": 0.0, "l_traj": 0.0, "l_total": 0.0}
        n_batches = 0
        for lo in range(0, len(order), cfg.train.batch):
            batch = [train_pool[i] for i in order[lo : lo + cfg.train.batch]]
            if len(batch) < 2:
                continue  # the likelihood loss needs at least two samples
            opt.zero_grad()
            try:
                loss, stats = _loss_and_grads(model, batch, cfg.train.k_train, sample_rng, weights)
            except SingularMatrixError:
                result.skipped_steps += 1
                log.warning("epoch %d: skipped a step (singular mixing matrix)", epoch)
                continue
            result.selection_fallbacks += stats["selection_fallback"]
            if not np.isfinite(loss):
                log.error("epoch %d: non-finite loss, aborting with last-good checkpoint", epoch)
                result.aborted = True
                return result
            if cfg.train.grad_clip > 0.0:
                sq = 0.0
                for p in opt.params.values():
                    if p.grad is not None:
                        sq += float((p.grad * p.grad).sum())
                norm = math.sqrt(sq)
                if norm > cfg.train.grad_clip:
                    scale = cfg.train.grad_clip / norm
                    for p in opt.params.values():
                        if p.grad is not None:
                            p.grad *= scale
            opt.step()
            for k in sums:
                sums[k] += stats[k]
            n_batches += 1
        averages = {k: (v / n_batches if n_batches else float("nan")) for k, v in sums.items()}
        entry = {"epoch": epoch, **averages}
        if val_windows:
            try:
                report = evaluate(model, {"val": val_windows}, k=cfg.eval.k, sigma=cfg.eval.sigma, seed=cfg.seed)
                entry["val_ade"] = report.rows[0].ade
            except SingularMatrixError:
                log.warning("epoch %d: skipped validation (singular mixing matrix)", epoch)
        result.history.append(entry)
        log.info(
            "epoch %d: l_p=%.4f l_traj=%.4f l_total=%.4f%s",
            epoch,
            averages["l_p"],
            averages["l_traj"],
            averages["l_total"],
            f" val_ade={entry['val_ade']:.4f}" if "val_ade" in entry else "",
        )
        completed = epoch + 1
        if completed % cfg.train.checkpoint_every == 0 or completed == cfg.train.epochs:
            ckpt = snapshot(model, cfg, opt, completed)
            save_checkpoint(ckpt, result.last_path)
            if cfg.train.keep_epoch_checkpoints:
                save_checkpoint(ckpt, out_dir / f"epoch_{completed:03d}.ckpt")
        if entry.get("val_ade", math.inf) < best_val:
            best_val = entry["val_ade"]
            result.best_path = out_dir / "best.ckpt"
            save_checkpoint(snapshot(model, cfg, opt, completed), result.best_path)
    return result


def _resume(opt: Adam, ckpt: Checkpoint, path: str | Path, epochs: int) -> int:
    """Load the Adam state of the checkpoint read from `path` into `opt` and
    return its epoch. The loaded moments become `opt`'s own arrays. A file
    without moments is one written before the first step, and `opt` stays
    the fresh Adam it was; after that step, a file without them is refused."""
    if ckpt.opt_state:
        opt.load_state_arrays(ckpt.opt_state, ckpt.opt_step)
    elif ckpt.opt_step:
        raise CheckpointError(f"{path}: no Adam state at optimizer step {ckpt.opt_step}")
    if ckpt.epoch > epochs:
        raise ConfigError(f"checkpoint is at epoch {ckpt.epoch}, past train.epochs = {epochs}")
    return ckpt.epoch


def _loss_and_grads(model: TrajectoryModel, batch, k: int, rng, weights: LossWeights) -> tuple[float, dict]:
    """One step's forward pass and, if its loss is finite, its backward pass.

    Returns the loss and its stats. The step's tape lives only in this
    frame, so its activations are freed before the caller steps the
    optimizer or saves a checkpoint.
    """
    with nc.record() as tape:
        loss, stats = model.batch_loss(batch, k, rng, weights)
    value = float(loss.data)
    if np.isfinite(value):
        nc.backward(loss, tape)
    return value, stats


def evaluate(
    model: TrajectoryModel,
    windows_by_dataset: dict[str, list[SceneWindow]],
    k: int,
    sigma: float = 1.0,
    seed: int = 0,
) -> EvalReport:
    """Best-of-K displacement metrics per dataset, from one `forecast` and
    one `best_of_k` call per dataset.

    `forecast` bounds its own passes by `model.FORECAST_ROWS`, so the
    temporaries do not grow with the dataset. Window w_idx of the d_idx-th
    dataset by name draws from its own `rng_stream(seed, STREAM_EVAL,
    d_idx, w_idx)`, so its futures are those of predicting it alone (BLAS
    may round a product of a few rows differently from one of more). An
    empty dataset adds no row.
    """
    report = EvalReport()
    for d_idx, name in enumerate(sorted(windows_by_dataset)):
        windows = windows_by_dataset[name]
        if not windows:
            continue
        rngs = [rng_stream(seed, STREAM_EVAL, d_idx, w_idx) for w_idx in range(len(windows))]
        preds = model.forecast(windows, k, sigma, rngs)
        ades, fdes = best_of_k(preds, np.stack([w.world_fut()[w.target_index] for w in windows]))
        report.add(name, k, ades, fdes)
    return report


def sample_and_plot(
    model: TrajectoryModel,
    windows: list[SceneWindow],
    scene_id: int,
    k: int,
    sigma: float,
    out_dir: str | Path,
    seed: int = 0,
) -> tuple[Path, Path]:
    """Sample futures for one scene; write trajectory CSV and SVG overlay.
    A call that raises leaves no directory it made and left empty."""
    if not 0 <= scene_id < len(windows):
        raise SceneNotFoundError(f"scene {scene_id} out of range (have {len(windows)} scenes)")
    window = windows[scene_id]
    rng = rng_stream(seed, STREAM_EVAL, scene_id)
    with _out_dir(out_dir) as out:
        preds = model.predict_all_pedestrians(window, k, sigma, rng)
        csv_path = out / f"scene{scene_id}_trajectories.csv"
        svg_path = out / f"scene{scene_id}.svg"
        csv_text = sample_to_csv(window, preds)
        csv_path.write_text(csv_text)
        # render from the parsed CSV so a re-render from disk is bit-identical
        svg_path.write_text(render_svg(window, parse_sample_csv(csv_text)))
    return csv_path, svg_path
