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


def load_tracks(path: str | Path) -> list[RawTrack]:
    """Parse a dataset file into per-pedestrian tracks sorted by frame."""
    rows: dict[int, list[tuple[int, float, float]]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot open dataset file ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a UTF-8 text file ({exc.reason} at byte {exc.start})") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line=lineno)
        try:
            frame = int(float(fields[0]))
            ped = int(float(fields[1]))
            x = float(fields[2])
            y = float(fields[3])
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", line=lineno) from None
        rows.setdefault(ped, []).append((frame, x, y))
    tracks = []
    for ped in sorted(rows):
        entries = sorted(rows[ped])
        frames = np.array([e[0] for e in entries], dtype=np.int64)
        if len(frames) > 1:
            diffs = np.diff(frames)
            if np.any(diffs <= 0):
                raise DataError(f"pedestrian {ped} has duplicate or non-ascending frames")
            if np.any(diffs != diffs[0]):
                raise DataError(f"pedestrian {ped} has a non-uniform frame stride")
        positions = np.array([[e[1], e[2]] for e in entries], dtype=np.float64)
        tracks.append(RawTrack(ped_id=ped, frames=frames, positions=positions))
    return tracks


def save_tracks(tracks: list[RawTrack], path: str | Path) -> None:
    """Write tracks back to the dataset text format (frame-major order)."""
    rows = []
    for tr in tracks:
        for frame, (x, y) in zip(tr.frames, tr.positions):
            rows.append((int(frame), tr.ped_id, x, y))
    rows.sort()
    with open(path, "w") as fh:
        for frame, ped, x, y in rows:
            fh.write(f"{frame} {ped} {x:.9f} {y:.9f}\n")


def save_windows(windows: list[SceneWindow], path: str | Path) -> None:
    """Serialize windows as disjoint track blocks in the dataset format.

    Window i occupies frames [i*1000, i*1000 + t_o + t_p) with per-window
    pedestrian ids, so re-windowing the file recovers each block separately.
    """
    tracks = []
    for i, w in enumerate(windows):
        world = np.concatenate([w.world_obs(), w.world_fut()], axis=1)
        t_total = world.shape[1]
        frames = np.arange(t_total, dtype=np.int64) + i * 1000
        for j in range(w.n_pedestrians):
            tracks.append(
                RawTrack(ped_id=i * 1000 + j, frames=frames, positions=world[j])
            )
    save_tracks(tracks, path)


def window_scenes(
    tracks: list[RawTrack],
    t_obs: int = 8,
    t_pred: int = 12,
    stride: int = 1,
    dataset: str = "",
) -> list[SceneWindow]:
    """Per-target sliding windows over pedestrians fully present in them."""
    if t_obs < 1 or t_pred < 1:
        raise ConfigError("window needs t_obs >= 1 and t_pred >= 1")
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
        ped_ids = [tracks[i].ped_id for i in present]
        for target in range(len(present)):
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
    "to": ("t_obs", int, lambda v: v >= 1, ">= 1"),
    "tp": ("t_pred", int, lambda v: v >= 1, ">= 1"),
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
        n = noisy.shape[0]
        for target in range(n):
            origin = noisy[target, spec.t_obs - 1].copy()
            shifted = noisy - origin
            windows.append(
                SceneWindow(
                    ped_ids=list(range(n)),
                    obs=shifted[:, : spec.t_obs].copy(),
                    fut=shifted[:, spec.t_obs :].copy(),
                    target_index=target,
                    origin=origin,
                    dataset=spec.name,
                )
            )
    return windows
