"""Training, evaluation, diagnostics, and plotting glue.

Randomness is organized as seed-derived streams keyed by purpose (model
init, validation split, per-epoch shuffling, per-epoch sampling, per-scene
evaluation) so every run, resumed run, and evaluation is bit-reproducible
from (seed, config, data) alone.
"""

from __future__ import annotations

import logging
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import numcore as nc
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import Config, validate
from .data import (
    SYNTH_KINDS,
    SceneWindow,
    SynthSpec,
    leave_one_out_split,
    load_windows,
    parse_synth_spec,
    synth_scenes,
)
from .decoder import LossWeights
from .errors import CheckpointError, ConfigError, ContractError, DataError, SceneNotFoundError, SingularMatrixError
from .flow import AffineCoupling, FlowStack, InvertibleLinear, PatternNorm
from .graphormer import build_spatial_adjacency, build_temporal_adjacency
from .layers import MultiHeadSelfAttention
from .metrics import EvalReport, best_of_k
from .model import TrajectoryModel
from .numcore import Adam, Tensor

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
    return TrajectoryModel(cfg.model, rng_stream(cfg.seed, STREAM_INIT))


def snapshot(model: TrajectoryModel, cfg: Config, opt: Adam | None, epoch: int) -> Checkpoint:
    """A checkpoint of the live parameter and Adam arrays, uncopied: save it
    before the next optimizer step moves them."""
    return Checkpoint(
        config=cfg,
        params={k: p.data for k, p in model.params().items()},
        opt_state=opt.state_arrays() if opt else {},
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
    model = build_model(ckpt.config)
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
    history and the abort and skip flags. The file at `last_path` is the
    last-good state, also after an abort; load it to use the trained model."""

    last_path: Path
    best_path: Path | None = None
    history: list[dict] = field(default_factory=list)
    aborted: bool = False
    skipped_steps: int = 0


def train(cfg: Config, resume: str | Path | None = None) -> TrainResult:
    """Optimize the full model; checkpoints land in cfg.train.out_dir.

    A run from scratch sets the flow's PatternNorms from its first windows.
    `resume` instead restores params, Adam state and the epoch from a
    checkpoint, never re-initialises, and continues the lr schedule of the
    *passed* config from that epoch. Under "cosine" the annealing horizon is
    `cfg.train.epochs`, so a run with a smaller `epochs` follows a different
    lr curve: it is a different run, not a prefix of a longer one. To resume
    an interrupted run bit for bit, pass the config it was started with. A
    checkpoint already past `cfg.train.epochs` raises `ConfigError` before
    anything is written.

    Files are written straight from the live arrays, the only copy of the
    model. The result carries paths, history and flags; `last_path` holds
    the last-good state, also after an abort on a non-finite loss. A call
    that raises leaves no directory it made and left empty.
    """
    validate(cfg)
    with _out_dir(cfg.train.out_dir) as out_dir:
        return _train(cfg, resume, out_dir)


def _train(cfg: Config, resume: str | Path | None, out_dir: Path) -> TrainResult:
    model = build_model(cfg)
    opt = Adam(
        model.params(),
        lr=cfg.train.lr,
        betas=cfg.train.betas,
        weight_decay=cfg.train.weight_decay,
    )
    start_epoch = 0 if resume is None else _resume(model, opt, resume, cfg.train.epochs)

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


def _resume(model: TrajectoryModel, opt: Adam, path: str | Path, epochs: int) -> int:
    """Load a checkpoint's params and Adam state into `model` and `opt`, and
    return its epoch. The loaded moments become `opt`'s own arrays."""
    ckpt = load_checkpoint(path)
    load_params(model, ckpt)
    if ckpt.opt_state:
        opt.load_state_arrays(ckpt.opt_state, ckpt.opt_step)
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


# ---------------------------------------------------------------------------
# consistency checks
# ---------------------------------------------------------------------------


# share of the winners whose float32 pick may differ from float64's. Over 20
# batches of 32 pedestrians (1280 winners), 0 differed on a briefly trained
# toy model and on the paper-scale flow with couplings perturbed by
# N(0, 1e-2); 4 did at N(0, 1e-1).
WINNER_FLIPS_MAX = 0.01


def winner_flips(
    model: TrajectoryModel, windows: list[SceneWindow], k: int, seed: int, weights: LossWeights = LossWeights()
) -> tuple[int, int]:
    """(flips, winners): how many of the 2B goal and trajectory winners of
    `windows`, each among K samples at sigma 1 as in training, the float32
    selection of `batch_loss` picks differently from a float64 selection
    of the same base draws, drawn from `np.random.default_rng(seed)`."""
    gt = np.stack([w.fut[w.target_index] for w in windows])
    with nc.no_grad():
        _, st = model.encode_windows(windows, training=False)
    picks = [
        model.select_winners(st, gt, k, 1.0, np.random.default_rng(seed), weights, dtype)[0]
        for dtype in (np.float32, np.float64)
    ]
    return sum(int(np.count_nonzero(a != b)) for a, b in zip(*picks)), 2 * len(windows)


def _random_flow(channels: int, cond: int, steps: int, rng: np.random.Generator) -> FlowStack:
    stack = FlowStack(rng, channels, cond, n_steps=steps)
    for op in stack.ops:
        if isinstance(op, PatternNorm):
            op.s.data[:] = rng.uniform(0.5, 1.5, op.channels)
            op.b.data[:] = rng.normal(0.0, 0.5, op.channels)
        elif isinstance(op, InvertibleLinear):
            op.w.data += 0.3 * rng.normal(size=op.w.data.shape) / np.sqrt(op.channels)
        elif isinstance(op, AffineCoupling):
            hidden = op.fc1.w.data.shape[0]
            op.fc1.w.data[:] = rng.normal(0.0, 0.3 / np.sqrt(hidden), op.fc1.w.data.shape)
            op.fc1.b.data[:] = rng.normal(0.0, 0.15, op.fc1.b.data.shape)
    return stack


def _fd_jacobian(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    y0 = f(x0)
    jac = np.zeros((y0.size, x0.size))
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (f(xp) - f(xm)) / (2 * h)
    return jac


def _round_trip_error(stack: FlowStack, x: np.ndarray, st: np.ndarray) -> float:
    """Largest |reverse(forward(x)) - x| of one flow under conditioning `st`."""
    cond = Tensor(st)
    with nc.no_grad():
        z, _ = stack.forward(Tensor(x), cond)
        back = stack.reverse(z, cond)
    return float(np.max(np.abs(back.data - x)))


def _check_invertibility(detail: dict) -> bool:
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(4):
        stack = _random_flow(32, 32, 4, rng)
        x = rng.normal(size=(25, 32))
        worst = max(worst, _round_trip_error(stack, x, rng.normal(size=(25, 32))))
    detail["max_round_trip_error"] = worst
    return worst < 1e-9


def _check_logdet_oracle(detail: dict) -> bool:
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(5):
        stack = _random_flow(4, 2, 2, rng)
        st = rng.normal(size=2)
        x0 = rng.normal(size=4)

        def f(x):
            with nc.no_grad():
                z, _ = stack.forward(Tensor(x[None]), Tensor(st[None]))
            return z.data[0].copy()

        _, expect = np.linalg.slogdet(_fd_jacobian(f, x0))
        with nc.no_grad():
            _, total = stack.forward(Tensor(x0[None]), Tensor(st[None]))
        worst = max(worst, abs(float(total.data[0]) - expect))
    detail["max_logdet_error"] = worst
    return worst < 1e-4


def _check_gradients(detail: dict) -> bool:
    """Finite-difference a chain through `nc.attention`, the op the encoder runs."""
    rng = np.random.default_rng(303)
    w = Tensor(rng.normal(size=(4, 12)))
    x0 = rng.normal(size=(3, 4))
    mask = build_temporal_adjacency(3)

    def loss(x: Tensor) -> Tensor:
        return nc.sum_all(nc.tanh(nc.attention(nc.reshape(nc.matmul(x, w), (1, 3, 3, 2, 2)), mask)))

    def value(x: np.ndarray) -> np.ndarray:
        with nc.no_grad():
            return loss(Tensor(x.reshape(x0.shape))).data.reshape(1)

    xt = Tensor(x0, requires_grad=True)
    with nc.record() as tape:
        out = loss(xt)
    nc.backward(out, tape)
    fd = _fd_jacobian(value, x0.ravel(), 1e-5).reshape(x0.shape)
    err = float(np.max(np.abs(xt.grad - fd) / np.maximum(np.abs(fd), 1e-8)))
    detail["max_rel_gradient_error"] = err
    return err < 1e-3


def _attention(attn: MultiHeadSelfAttention, run) -> list[np.ndarray]:
    """Per-head post-softmax weights that `attn` computes during `run()`."""
    weights: list[np.ndarray] = []
    attn.capture = weights
    try:
        with nc.no_grad():
            run()
    finally:
        attn.capture = None
    if len(weights) != attn.n_heads:  # an empty capture would pass the mask checks vacuously
        raise ContractError(f"captured {len(weights)} attention maps, expected {attn.n_heads}")
    return weights


def _check_masks(model: TrajectoryModel, detail: dict) -> bool:
    rng = np.random.default_rng(404)
    t_o = model.cfg.t_obs
    tg, sg = model.encoder.tg_hist, model.encoder.sg
    for _ in range(10):
        traj = rng.normal(size=(t_o, 2)).cumsum(axis=0)
        for head in _attention(tg.block.attn, lambda: tg(traj[None])):
            if np.any(head[np.triu_indices(t_o, k=1)] != 0.0):
                detail["failure"] = "temporal mask leak"
                return False
        if sg is not None:
            n = 4
            prev = rng.normal(size=(n, 2))
            now = prev + rng.normal(size=(n, 2)) * 0.5
            mask = build_spatial_adjacency(prev, now)
            th = Tensor(rng.normal(size=(1, n, model.cfg.d)))
            for head in _attention(sg.block.attn, lambda: sg(prev[None], now[None], th, [0])):
                if np.any(head[mask == nc.NEG_INF] != 0.0):
                    detail["failure"] = "spatial mask leak"
                    return False
    return True


def _check_winner_selection(model: TrajectoryModel, cfg: Config, detail: dict) -> bool:
    """Float32 against float64 winners on 64 seed-fixed synthetic windows,
    at the configured K and loss weights."""
    spec = SynthSpec(kinds=SYNTH_KINDS, count=40, seed=606, t_obs=cfg.model.t_obs, t_pred=cfg.model.t_pred)
    weights = LossWeights(*cfg.train.loss_weights)
    flips, winners = winner_flips(model, synth_scenes(spec)[:64], cfg.train.k_train, 606, weights)
    detail.update(flips=flips, winners=winners, bound=WINNER_FLIPS_MAX)
    return flips <= WINNER_FLIPS_MAX * winners


def _check_checkpoint_roundtrip(model: TrajectoryModel, cfg: Config, tmp: Path, detail: dict) -> bool:
    ckpt = snapshot(model, cfg, None, epoch=0)
    path = tmp / "roundtrip.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    for name, arr in ckpt.params.items():
        if back.params[name].tobytes() != arr.tobytes():
            detail["failure"] = f"parameter {name} not bit-exact"
            return False
    return True


def check(ckpt_path: str | Path | None = None, work_dir: str | Path | None = None) -> tuple[dict, bool]:
    """Run the consistency suites; returns (machine-readable report, ok).

    Without a `work_dir` the suites write to a temporary directory that is
    removed on return.
    """
    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="stglow-check-") as tmp:
            return check(ckpt_path, tmp)

    from .config import toy_config

    if ckpt_path is not None:
        try:
            ckpt = load_checkpoint(ckpt_path)
        except CheckpointError as exc:
            report = {
                "checks": [{"name": "checkpoint_roundtrip", "passed": False, "exception": str(exc)}],
                "ok": False,
            }
            return report, False
        cfg = ckpt.config
        model = restore_model(ckpt)
    else:
        cfg = toy_config()
        model = build_model(cfg)
        rng = np.random.default_rng(1)
        model.flow.initialize(rng.normal(size=(64, cfg.model.d)), rng.normal(size=(64, cfg.model.d)))

    checks = []
    tmp = Path(work_dir)
    tmp.mkdir(parents=True, exist_ok=True)
    suite = [
        ("flow_invertibility", lambda d: _check_invertibility(d)),
        ("logdet_oracle", lambda d: _check_logdet_oracle(d)),
        ("gradient_check", lambda d: _check_gradients(d)),
        ("mask_causality", lambda d: _check_masks(model, d)),
        ("checkpoint_roundtrip", lambda d: _check_checkpoint_roundtrip(model, cfg, tmp, d)),
        ("model_flow_roundtrip", lambda d: _check_model_flow(model, d)),
        ("winner_selection", lambda d: _check_winner_selection(model, cfg, d)),
    ]
    ok = True
    for name, fn in suite:
        detail: dict = {}
        try:
            passed = bool(fn(detail))
        except Exception as exc:  # a crashed check is a failed check
            passed = False
            detail["exception"] = f"{type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": passed, **detail})
        ok = ok and passed
    return {"checks": checks, "ok": ok}, ok


def _check_model_flow(model: TrajectoryModel, detail: dict) -> bool:
    rng = np.random.default_rng(505)
    x = rng.normal(size=(16, model.cfg.d))
    err = _round_trip_error(model.flow, x, rng.normal(size=(16, model.cfg.d)))
    detail["max_round_trip_error"] = err
    return err < 1e-9


# ---------------------------------------------------------------------------
# sampling output: trajectory CSV + SVG overlay
# ---------------------------------------------------------------------------


def sample_to_csv(window: SceneWindow, preds: np.ndarray) -> str:
    """CSV rows `ped_id,k,t,x,y` for (N, K, t_p, 2) world-frame predictions."""
    lines = ["ped_id,k,t,x,y"]
    n, k_count, t_p, _ = preds.shape
    for i in range(n):
        for k in range(k_count):
            for t in range(t_p):
                x, y = preds[i, k, t]
                lines.append(f"{window.ped_ids[i]},{k},{t + 1},{x:.9f},{y:.9f}")
    return "\n".join(lines) + "\n"


def parse_sample_csv(text: str) -> dict[tuple[int, int], list[tuple[float, float]]]:
    """CSV -> {(ped_id, k): [(x, y), ...]} ordered by t."""
    rows: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    for line in text.strip().splitlines()[1:]:
        ped, k, t, x, y = line.split(",")
        rows.setdefault((int(ped), int(k)), []).append((int(t), float(x), float(y)))
    return {key: [(x, y) for _, x, y in sorted(vals)] for key, vals in sorted(rows.items())}


def _polyline(points, stroke: str, width: float, dash: str | None = None, opacity: float = 1.0) -> str:
    pts = " ".join(f"{x:.3f},{-y:.3f}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width:.3f}" stroke-opacity="{opacity:.2f}"{dash_attr}/>'
    )


def render_svg(window: SceneWindow, pred_paths: dict[tuple[int, int], list[tuple[float, float]]]) -> str:
    """Static overlay: observed (solid blue), true future (dashed green),
    sampled futures (thin orange)."""
    obs = window.world_obs()
    fut = window.world_fut()
    all_pts = [obs.reshape(-1, 2), fut.reshape(-1, 2)]
    for path in pred_paths.values():
        all_pts.append(np.array(path))
    concat = np.concatenate(all_pts)
    x0, y0 = concat.min(axis=0) - 1.0
    x1, y1 = concat.max(axis=0) + 1.0
    width = x1 - x0
    height = y1 - y0
    stroke_w = max(width, height) / 300.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.3f} {-y1:.3f} {width:.3f} {height:.3f}" '
        f'width="600" height="{600 * height / width:.0f}">',
        f'<rect x="{x0:.3f}" y="{-y1:.3f}" width="{width:.3f}" height="{height:.3f}" fill="white"/>',
    ]
    for key in sorted(pred_paths):
        parts.append(_polyline(pred_paths[key], "#ff7f0e", stroke_w, opacity=0.45))
    for i in range(window.n_pedestrians):
        parts.append(_polyline(obs[i], "#1f77b4", 2 * stroke_w))
        parts.append(_polyline(fut[i], "#2ca02c", 2 * stroke_w, dash=f"{3 * stroke_w:.3f},{2 * stroke_w:.3f}"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
