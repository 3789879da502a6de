"""Trajectory data handling.

Covers the plain-text dataset format (one observation per line:
`frame ped_id x y`, whitespace-separated, meters), sliding-window scene
extraction with per-target normalization, leave-one-out dataset splits,
and a deterministic synthetic scene generator for desk-scale training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError


@dataclass
class RawTrack:
    """One pedestrian's observations at a uniform frame stride."""

    ped_id: int
    frames: np.ndarray  # strictly ascending ints
    positions: np.ndarray  # (T, 2) world meters


@dataclass
class SceneWindow:
    """One training/eval instance, normalized to its target pedestrian.

    Positions are translated so the target's last observed position is the
    origin; `origin` holds the subtracted world coordinates.
    """

    ped_ids: list[int]
    obs: np.ndarray  # (N, t_o, 2)
    fut: np.ndarray  # (N, t_p, 2)
    target_index: int
    origin: np.ndarray  # (2,)
    dataset: str = ""

    @property
    def n_pedestrians(self) -> int:
        return self.obs.shape[0]

    @property
    def t_obs(self) -> int:
        return self.obs.shape[1]

    @property
    def t_pred(self) -> int:
        return self.fut.shape[1]

    def world_obs(self) -> np.ndarray:
        return self.obs + self.origin

    def world_fut(self) -> np.ndarray:
        return self.fut + self.origin

    def retarget(self, new_target: int) -> "SceneWindow":
        """The same scene re-normalized so `new_target` sits at the origin."""
        shift = self.obs[new_target, -1].copy()
        return replace(
            self,
            obs=self.obs - shift,
            fut=self.fut - shift,
            target_index=new_target,
            origin=self.origin + shift,
        )


MAX_ID = 2**53  # float64 holds every integer up to here exactly
MAX_COORD = 1e6  # meters; farther is a unit or format error, and keeps all later arithmetic finite


def load_tracks(path: str | Path) -> list[RawTrack]:
    """Parse a dataset file into per-pedestrian tracks sorted by frame.

    Every field must be finite, the frame and pedestrian ids integral (`12`
    or `12.0`) and the positions within `MAX_COORD`. A line with the wrong
    field count or a non-number raises a `ParseError` naming it; after
    that, so does the first line whose values are out of range.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot open dataset file ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a UTF-8 text file ({exc.reason} at byte {exc.start})") from None
    lines = text.split("\n")
    rows, linenos = [], []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line=lineno)
        try:
            rows.append((float(fields[0]), float(fields[1]), float(fields[2]), float(fields[3])))
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", line=lineno) from None
        linenos.append(lineno)
    if not rows:
        return []
    table = np.array(rows)
    ids = table[:, :2]
    finite = np.isfinite(table).all(axis=1)
    integral = ((ids == np.round(ids)) & (np.abs(ids) <= MAX_ID)).all(axis=1)
    near = (np.abs(table[:, 2:]) <= MAX_COORD).all(axis=1)
    bad = np.flatnonzero(~(finite & integral & near))
    if bad.size:
        i = bad[0]
        why = (
            "non-finite field" if not finite[i]
            else "frame and pedestrian ids must be integers within ±2**53" if not integral[i]
            else f"position beyond ±{MAX_COORD:g} m"
        )
        raise ParseError(f"{why} in {lines[linenos[i] - 1].strip()!r}", line=linenos[i])
    frames, peds = ids.astype(np.int64).T
    order = np.lexsort((frames, peds))  # by pedestrian, then frame
    tracks = []
    for idx in np.split(order, np.flatnonzero(np.diff(peds[order])) + 1):
        ped = int(peds[idx[0]])
        diffs = np.diff(frames[idx])
        if np.any(diffs <= 0):
            raise DataError(f"pedestrian {ped} has duplicate or non-ascending frames")
        if np.any(diffs != diffs[:1]):
            raise DataError(f"pedestrian {ped} has a non-uniform frame stride")
        tracks.append(RawTrack(ped_id=ped, frames=frames[idx], positions=table[idx, 2:]))
    return tracks


def scene_windows(block: np.ndarray, ped_ids: list[int], t_obs: int, dataset: str) -> list[SceneWindow]:
    """One window per target pedestrian of an (N, t_o + t_p, 2) world-frame
    block, each normalized to its target's last observed position."""
    windows = []
    for target in range(len(block)):
        origin = block[target, t_obs - 1].copy()
        shifted = block - origin
        windows.append(
            SceneWindow(
                ped_ids=list(ped_ids),
                obs=shifted[:, :t_obs].copy(),
                fut=shifted[:, t_obs:].copy(),
                target_index=target,
                origin=origin,
                dataset=dataset,
            )
        )
    return windows


def window_scenes(
    tracks: list[RawTrack],
    t_obs: int = 8,
    t_pred: int = 12,
    stride: int = 1,
    dataset: str = "",
) -> list[SceneWindow]:
    """Per-target sliding windows over pedestrians fully present in them."""
    if t_obs < 1 or t_pred < 1 or stride < 1:
        raise ConfigError("window needs t_obs, t_pred and stride >= 1")
    if not tracks:
        return []
    t_total = t_obs + t_pred
    strides = [int(np.diff(tr.frames)[0]) for tr in tracks if len(tr.frames) > 1]
    frame_stride = min(strides) if strides else 1
    by_frame = [{int(f): k for k, f in enumerate(tr.frames)} for tr in tracks]
    all_frames = sorted({int(f) for tr in tracks for f in tr.frames})
    windows: list[SceneWindow] = []
    for start in all_frames[::stride]:
        required = [start + k * frame_stride for k in range(t_total)]
        present = [
            i for i, lookup in enumerate(by_frame) if all(f in lookup for f in required)
        ]
        if not present:
            continue
        block = np.stack(
            [
                np.stack([tracks[i].positions[by_frame[i][f]] for f in required])
                for i in present
            ]
        )
        windows += scene_windows(block, [tracks[i].ped_id for i in present], t_obs, dataset)
    return windows


def load_windows(path: str | Path, t_obs: int = 8, t_pred: int = 12, stride: int = 1) -> list[SceneWindow]:
    name = Path(path).stem
    return window_scenes(load_tracks(path), t_obs, t_pred, stride, dataset=name)


def leave_one_out_split(
    scene_name: str, all_scenes: dict[str, list[SceneWindow]]
) -> tuple[list[SceneWindow], list[SceneWindow]]:
    """Test on the named scene's windows, train on every other scene's."""
    if scene_name not in all_scenes:
        raise ConfigError(f"unknown scene {scene_name!r}; have {sorted(all_scenes)}")
    test = list(all_scenes[scene_name])
    train = [w for name, ws in all_scenes.items() if name != scene_name for w in ws]
    return train, test


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

SYNTH_KINDS = ("straight", "turn", "crossing_pair", "group_parallel", "stop_and_go")


@dataclass
class SynthSpec:
    """Recipe for generated scenes; deterministic under `seed`."""

    kinds: tuple[str, ...] = ("straight",)
    count: int = 16
    seed: int = 0
    noise_std: float = 0.02
    t_obs: int = 8
    t_pred: int = 12

    @property
    def name(self) -> str:
        return "synth:" + "+".join(self.kinds)


# spec key -> (SynthSpec field, type, range check, the range in words)
_SYNTH_FIELDS = {
    "n": ("count", int, lambda v: v >= 1, ">= 1"),
    "seed": ("seed", int, lambda v: v >= 0, ">= 0"),
    "noise": ("noise_std", float, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
}


def parse_synth_spec(text: str) -> SynthSpec:
    """Parse CLI-style specs like `synth:straight+turn:n=64:seed=5:noise=0.01`."""
    parts = text.split(":")
    if parts[0] != "synth" or len(parts) < 2:
        raise ConfigError(f"not a synthetic-data spec: {text!r}")
    kinds = tuple(parts[1].split("+"))
    spec = SynthSpec(kinds=kinds)
    for part in parts[2:]:
        if "=" not in part:
            raise ConfigError(f"bad synth-spec field {part!r}")
        key, val = part.split("=", 1)
        if key not in _SYNTH_FIELDS:
            raise ConfigError(f"unknown synth-spec field {key!r}")
        attr, cast, in_range, rule = _SYNTH_FIELDS[key]
        try:
            value = cast(val)
        except ValueError:
            raise ConfigError(f"synth-spec field {key!r}: expected {cast.__name__}, got {val!r}") from None
        if not in_range(value):
            raise ConfigError(f"synth-spec field {key!r}: must be {rule}, got {val!r}")
        setattr(spec, attr, value)
    for kind in spec.kinds:
        if kind not in SYNTH_KINDS:
            raise ConfigError(f"unknown scenario kind {kind!r}; have {SYNTH_KINDS}")
    return spec


def _scene_positions(kind: str, t_total: int, rng: np.random.Generator) -> np.ndarray:
    """Noise-free analytic trajectories for one scene; (N, t_total, 2)."""
    steps = np.arange(t_total, dtype=np.float64)
    if kind == "straight":
        theta = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0.25, 0.6)
        start = rng.uniform(-4, 4, size=2)
        line = start + np.outer(steps, speed * np.array([np.cos(theta), np.sin(theta)]))
        return line[None]
    if kind == "turn":
        theta0 = rng.uniform(0, 2 * np.pi)
        omega = rng.choice([-1.0, 1.0]) * rng.uniform(0.03, 0.09)
        speed = rng.uniform(0.25, 0.6)
        headings = theta0 + omega * steps
        deltas = speed * np.stack([np.cos(headings), np.sin(headings)], axis=1)
        path = rng.uniform(-4, 4, size=2) + np.concatenate([np.zeros((1, 2)), np.cumsum(deltas[:-1], axis=0)])
        return path[None]
    if kind == "crossing_pair":
        speed = rng.uniform(0.4, 0.8)
        t_cross = t_total // 2 + rng.integers(-2, 3)
        phi = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        offset = rng.uniform(-3, 3, size=2)
        a = np.outer(steps - t_cross, speed * np.array([1.0, 0.0]))
        b = np.outer(steps - t_cross, speed * np.array([0.0, 1.0])) + np.array([0.1, 0.0])
        return np.stack([a @ rot.T + offset, b @ rot.T + offset])
    if kind == "group_parallel":
        theta = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0.4, 1.0)
        heading = np.array([np.cos(theta), np.sin(theta)])
        lateral = np.array([-heading[1], heading[0]])
        start = rng.uniform(-3, 3, size=2)
        line = start + np.outer(steps, speed * heading)
        return np.stack([line + off * lateral for off in (-0.8, 0.0, 0.8)])
    if kind == "stop_and_go":
        theta = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0.4, 1.0)
        walk1 = int(rng.integers(4, 8))
        pause = int(rng.integers(3, 6))
        moving = np.ones(t_total)
        moving[walk1 : walk1 + pause] = 0.0
        deltas = np.outer(moving * speed, np.array([np.cos(theta), np.sin(theta)]))
        path = rng.uniform(-4, 4, size=2) + np.concatenate([np.zeros((1, 2)), np.cumsum(deltas[:-1], axis=0)])
        return path[None]
    raise ConfigError(f"unknown scenario kind {kind!r}; have {SYNTH_KINDS}")


def synth_scenes(spec: SynthSpec) -> list[SceneWindow]:
    """Generate `count` scenes, one window per (scene, target pedestrian)."""
    rng = np.random.default_rng(spec.seed)
    t_total = spec.t_obs + spec.t_pred
    windows: list[SceneWindow] = []
    for i in range(spec.count):
        kind = spec.kinds[i % len(spec.kinds)]
        clean = _scene_positions(kind, t_total, rng)
        noisy = clean + rng.normal(0.0, spec.noise_std, size=clean.shape)
        windows += scene_windows(noisy, list(range(len(noisy))), spec.t_obs, spec.name)
    return windows
