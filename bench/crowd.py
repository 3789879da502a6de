"""Dense-crowd track files in the `frame ped_id x y` dataset format.

`stglow.data.synth_scenes` puts at most three pedestrians in a scene, so
crowd forecasting needs inputs of its own. Each scene written here holds N
pedestrians that are all present in the same `frames` frames, so
`stglow.data.load_windows` turns every scene into exactly N windows (one
per target) that all share the same N-pedestrian crowd.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

FRAME_STRIDE = 10  # frame numbering step, as in the ETH/UCY files
SCENE_GAP = 100_000  # frame offset between scenes, so no window spans two
AREA_M = 12.0  # side of the square the crowd starts in, metres


def crowd_positions(n_peds: int, frames: int, rng: np.random.Generator) -> np.ndarray:
    """(n_peds, frames, 2) world positions of one crowd scene.

    Pedestrians start spread over the square, walk at 0.25-0.6 m per frame
    with a slow random turn, and carry 1 cm position noise.
    """
    start = rng.uniform(0.0, AREA_M, size=(n_peds, 1, 2))
    heading0 = rng.uniform(0.0, 2.0 * np.pi, size=(n_peds, 1))
    turn = rng.uniform(-0.05, 0.05, size=(n_peds, 1))
    speed = rng.uniform(0.25, 0.6, size=(n_peds, 1))
    headings = heading0 + turn * np.arange(frames)[None, :]
    steps = speed[..., None] * np.stack([np.cos(headings), np.sin(headings)], axis=-1)
    walked = np.concatenate([np.zeros((n_peds, 1, 2)), np.cumsum(steps[:, :-1], axis=1)], axis=1)
    return start + walked + rng.normal(0.0, 0.01, size=(n_peds, frames, 2))


def write_crowd_file(path: str | Path, n_peds: int, n_scenes: int, frames: int, seed: int) -> None:
    """Write `n_scenes` crowd scenes of `n_peds` pedestrians to one track file."""
    if n_peds < 1 or n_scenes < 1 or frames < 2:
        raise ValueError("a crowd file needs n_peds >= 1, n_scenes >= 1 and frames >= 2")
    rng = np.random.default_rng(seed)
    lines = []
    for scene in range(n_scenes):
        pos = crowd_positions(n_peds, frames, rng)
        for t in range(frames):
            frame = scene * SCENE_GAP + t * FRAME_STRIDE
            for j in range(n_peds):
                x, y = pos[j, t]
                lines.append(f"{frame} {scene * 1000 + j} {x:.6f} {y:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
