"""The consistency suites of `stglow check` and the oracles they share with
the test suite: `fd_jacobian`, `flow_map`, `random_flow` and `winner_flips`.
This module imports the pipeline; the pipeline never imports it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import numcore as nc
from .checkpoint import load_checkpoint, save_checkpoint
from .config import Config, toy_config
from .data import SYNTH_KINDS, SceneWindow, SynthSpec, synth_scenes
from .decoder import LossWeights
from .errors import CheckpointError, ContractError
from .flow import AffineCoupling, FlowStack, InvertibleLinear, PatternNorm
from .graphormer import build_spatial_adjacency, build_temporal_adjacency
from .layers import MultiHeadSelfAttention
from .model import TrajectoryModel
from .numcore import Tensor
from .pipeline import build_model, restore_model, snapshot

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


def fd_jacobian(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function, column by column."""
    y0 = f(x0)
    jac = np.zeros((y0.size, x0.size))
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        jac[:, i] = (f(xp) - f(xm)) / (2 * h)
    return jac


def flow_map(stack: FlowStack, st_row: np.ndarray):
    """The flow as a plain vector function of one input row."""

    def f(x: np.ndarray) -> np.ndarray:
        with nc.no_grad():
            z, _ = stack.forward(Tensor(x[None, :]), Tensor(st_row[None, :]))
        return z.data[0].copy()

    return f


def random_flow(channels: int, cond_dim: int, n_steps: int, rng: np.random.Generator, scale: float = 0.3, **kw) -> FlowStack:
    """A flow with randomised, trained-looking parameters, still invertible:
    PatternNorm scales of either sign, perturbed mixing matrices and
    couplings that are not the identity. `kw` goes to `FlowStack`."""
    stack = FlowStack(rng, channels, cond_dim, n_steps=n_steps, **kw)
    for op in stack.ops:
        if isinstance(op, PatternNorm):
            op.s.data[:] = rng.uniform(0.5, 1.5, op.channels) * rng.choice([-1.0, 1.0], op.channels)
            op.b.data[:] = rng.normal(0.0, 0.5, op.channels)
        elif isinstance(op, InvertibleLinear):
            op.w.data += scale * rng.normal(size=op.w.data.shape) / np.sqrt(op.channels)
        elif isinstance(op, AffineCoupling):
            hidden = op.fc1.w.data.shape[0]
            op.fc1.w.data[:] = rng.normal(0.0, scale / np.sqrt(hidden), op.fc1.w.data.shape)
            op.fc1.b.data[:] = rng.normal(0.0, 0.5 * scale, op.fc1.b.data.shape)
    return stack


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
        stack = random_flow(32, 32, 4, rng)
        x = rng.normal(size=(25, 32))
        worst = max(worst, _round_trip_error(stack, x, rng.normal(size=(25, 32))))
    detail["max_round_trip_error"] = worst
    return worst < 1e-9


def _check_logdet_oracle(detail: dict) -> bool:
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(5):
        stack = random_flow(4, 2, 2, rng)
        st = rng.normal(size=2)
        x0 = rng.normal(size=4)
        _, expect = np.linalg.slogdet(fd_jacobian(flow_map(stack, st), x0))
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
    fd = fd_jacobian(value, x0.ravel(), 1e-5).reshape(x0.shape)
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


def _check_model_flow(model: TrajectoryModel, detail: dict) -> bool:
    rng = np.random.default_rng(505)
    x = rng.normal(size=(16, model.cfg.d))
    err = _round_trip_error(model.flow, x, rng.normal(size=(16, model.cfg.d)))
    detail["max_round_trip_error"] = err
    return err < 1e-9


def check(ckpt_path: str | Path | None = None, work_dir: str | Path | None = None) -> tuple[dict, bool]:
    """Run the consistency suites; returns (machine-readable report, ok).

    Without a `work_dir` the suites write to a temporary directory that is
    removed on return.
    """
    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="stglow-check-") as tmp:
            return check(ckpt_path, tmp)

    if ckpt_path is not None:
        try:
            ckpt = load_checkpoint(ckpt_path)
        except CheckpointError as exc:
            failed = {"name": "checkpoint_roundtrip", "passed": False, "exception": str(exc)}
            return {"checks": [failed], "ok": False}, False
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
        ("flow_invertibility", _check_invertibility),
        ("logdet_oracle", _check_logdet_oracle),
        ("gradient_check", _check_gradients),
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
