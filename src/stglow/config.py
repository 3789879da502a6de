"""Run configuration: dataclasses, presets, and the dotted-key file format.

Config files are plain text, one `section.field = value` per line, values
in Python literal syntax, `#` comments allowed. `toy_config()` is the
desk-scale preset used by the acceptance suite; the defaults mirror the
full-scale training recipe.
"""

from __future__ import annotations

import ast
import copy
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass
class ModelConfig:
    d: int = 256  # embedding width; also the flow channel count
    n_heads: int = 4
    n_flow_steps: int = 16
    factor_out: bool = True
    factor_out_every: int = 4
    factor_out_channels: int = 64
    d_h: int = 256  # decoder hidden width
    t_obs: int = 8
    t_pred: int = 12
    # ablation switches, each removing a whole component. The encoder's parts
    # (centrality and positional encodings, relative-position and steering
    # features, causal and FOV masks) have none: they are always on.
    use_spatial: bool = True  # False drops the spatial graphormer
    use_pattern_norm: bool = True  # False drops each flow step's PatternNorm
    bidirectional: bool = True  # False drops the backward and fused decoder


@dataclass
class TrainConfig:
    batch: int = 128
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 1e-6
    epochs: int = 400
    k_train: int = 20
    loss_weights: tuple[float, float, float, float] = (1.0, 0.25, 0.25, 0.5)
    val_fraction: float = 0.1
    out_dir: str = "runs/default"
    checkpoint_every: int = 1  # epochs between periodic checkpoints
    grad_clip: float = 0.0  # global-norm clip; 0 disables
    lr_schedule: str = "constant"  # "constant" or "cosine"
    lr_min_factor: float = 0.05  # cosine floor as a fraction of lr
    keep_epoch_checkpoints: bool = False  # also write epoch_NNN.ckpt files


@dataclass
class EvalConfig:
    k: int = 20
    sigma: float = 1.0


@dataclass
class DataConfig:
    format: str = "synth"  # "synth" or "eth_ucy"
    paths: tuple[str, ...] = ()
    holdout: str = ""  # leave-one-out scene name; empty trains on everything
    window_stride: int = 1
    synth_kinds: tuple[str, ...] = ("straight", "turn")
    synth_count: int = 64
    synth_seed: int = 0
    synth_noise: float = 0.01


@dataclass
class Config:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    data: DataConfig = field(default_factory=DataConfig)
    seed: int = 0


def toy_config(seed: int = 0) -> Config:
    """Desk-scale preset: small widths, short training, synthetic data."""
    cfg = Config(seed=seed)
    cfg.model.d = 32
    cfg.model.n_flow_steps = 4
    cfg.model.factor_out = False
    cfg.model.d_h = 32
    cfg.train.batch = 2
    cfg.train.epochs = 50
    cfg.train.lr = 4e-3
    cfg.train.grad_clip = 5.0
    cfg.train.lr_schedule = "cosine"
    cfg.train.val_fraction = 0.0
    cfg.train.out_dir = "runs/toy"
    return cfg


# lower bound of every int field; `validate` checks them before any arithmetic
INT_MINIMA = {
    "model.d": 2,
    "model.n_heads": 1,
    "model.n_flow_steps": 1,  # without a flow the model is not STGlow
    "model.factor_out_every": 1,
    "model.factor_out_channels": 1,
    "model.d_h": 1,
    "model.t_obs": 1,
    "model.t_pred": 1,
    "train.batch": 2,  # the likelihood loss and the normalization init need two windows
    "train.epochs": 0,
    "train.k_train": 1,
    "train.checkpoint_every": 1,
    "eval.k": 1,
    "data.window_stride": 1,
    "data.synth_count": 1,
    "data.synth_seed": 0,
    "seed": 0,
}


# range of every float field, each entry of a tuple alike: "(" and ")" exclude the bound
FLOAT_RANGES = {
    "train.lr": "(0, inf)",
    "train.betas": "[0, 1)",
    "train.weight_decay": "[0, inf)",
    "train.loss_weights": "[0, inf)",
    "train.val_fraction": "[0, 1)",
    "train.grad_clip": "[0, inf)",
    "train.lr_min_factor": "[0, 1]",
    "eval.sigma": "[0, inf)",
    "data.synth_noise": "[0, inf)",
}


def check_bound(key: str, val, name: str | None = None) -> None:
    """Raise ConfigError naming `name` (default `key`) unless `val` is within
    field `key`'s bound in `INT_MINIMA` or, finite, its `FLOAT_RANGES` range."""
    name = name or key
    if key in INT_MINIMA:
        if val < INT_MINIMA[key]:
            raise ConfigError(f"{name} must be >= {INT_MINIMA[key]}, got {val}")
        return
    if not math.isfinite(val):
        raise ConfigError(f"{name} must be finite, got {val!r}")
    rule = FLOAT_RANGES[key]
    low, high = (float(b) for b in rule[1:-1].split(","))
    above = low < val if rule[0] == "(" else low <= val
    below = val < high if rule[-1] == ")" else val <= high
    if not (above and below):
        raise ConfigError(f"{name} must be in {rule}, got {val!r}")


def validate(cfg: Config) -> Config:
    flat = flatten(cfg)
    for key in (*INT_MINIMA, *FLOAT_RANGES):  # ints first: before any arithmetic
        for val in flat[key] if isinstance(flat[key], tuple) else (flat[key],):
            check_bound(key, val)
    m = cfg.model
    if m.d % m.n_heads != 0:
        raise ConfigError(f"n_heads {m.n_heads} must divide d {m.d}")
    if m.d % 2 != 0:
        raise ConfigError(f"flow channel count d={m.d} must be even")
    # the flow factors out after every factor_out_every-th step but the last
    n_out = (m.n_flow_steps - 1) // m.factor_out_every if m.factor_out else 0
    if n_out and (m.factor_out_channels % 2 or m.d - n_out * m.factor_out_channels < 2):
        raise ConfigError("factor-out schedule leaves an invalid channel count")
    if len(cfg.train.loss_weights) != 4:
        raise ConfigError("loss_weights needs 4 entries (goal, fwd, bwd, both)")
    if cfg.train.lr_schedule not in ("constant", "cosine"):
        raise ConfigError(f"unknown lr schedule {cfg.train.lr_schedule!r}")
    d = cfg.data
    if d.format not in ("synth", "eth_ucy"):
        raise ConfigError(f"unknown data format {d.format!r}")
    if d.format == "synth" and (d.paths or d.holdout):
        raise ConfigError(f"data.{'paths' if d.paths else 'holdout'} is set, but data.format 'synth' reads no files")
    if d.format == "eth_ucy" and not d.paths:
        raise ConfigError("data.paths must name the track files of data.format 'eth_ucy'")
    return cfg


def flatten(cfg: Config) -> dict[str, object]:
    """Dataclass tree -> {'model.d': 256, ...} with sorted keys."""
    out: dict[str, object] = {}

    def walk(obj, prefix):
        for f in fields(obj):
            val = getattr(obj, f.name)
            key = f"{prefix}{f.name}"
            if is_dataclass(val):
                walk(val, key + ".")
            else:
                out[key] = val

    walk(cfg, "")
    return dict(sorted(out.items()))


def from_flat(flat: dict[str, object], base: Config | None = None) -> Config:
    """Apply dotted-key values onto a (copy of a) base config, each checked
    against its field's type; a mistyped value raises ConfigError."""
    cfg = copy.deepcopy(base) if base is not None else Config()
    for key, val in flat.items():
        parts = key.split(".")
        obj = cfg
        for part in parts[:-1]:
            if not is_dataclass(obj) or part not in {f.name for f in fields(obj)}:
                raise ConfigError(f"unknown config section {key!r}")
            obj = getattr(obj, part)
        leaf = parts[-1]
        if not is_dataclass(obj) or leaf not in {f.name for f in fields(obj)}:
            raise ConfigError(f"unknown config field {key!r}")
        setattr(obj, leaf, _typed(key, typing.get_type_hints(type(obj))[leaf], val))
    return cfg


def _typed(key: str, hint, val):
    """`val` checked against a field's type: ints widen to float, lists
    become tuples of the declared arity, bools count as neither int nor float."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(val, (tuple, list)):
            raise ConfigError(f"{key}: expected a tuple, got {val!r}")
        args = typing.get_args(hint)
        elems = args[:1] * len(val) if args[-1] is Ellipsis else args
        if len(elems) != len(val):
            raise ConfigError(f"{key}: expected {len(elems)} values, got {len(val)}")
        return tuple(_typed(key, h, v) for h, v in zip(elems, val))
    if hint is float and type(val) is int:
        return float(val)
    if isinstance(val, bool) != (hint is bool) or not isinstance(val, hint):
        raise ConfigError(f"{key}: expected {hint.__name__}, got {val!r}")
    return val


def save_config(cfg: Config, path: str | Path) -> None:
    lines = [f"{k} = {v!r}" for k, v in flatten(cfg).items()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_config(path: str | Path) -> Config:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from None
    cfg = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, val = line.split("=", 1)
        try:
            parsed = ast.literal_eval(val.strip())
        except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
            parsed = val.strip()  # not a literal: a bare string
        try:
            cfg = from_flat({key.strip(): parsed}, cfg)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return validate(cfg)
