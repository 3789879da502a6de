"""Test helpers: a finite-difference gradient, a relative error, an identity
flow and a track-file writer. The Jacobian, flow-map and random-flow oracles
are `stglow.checks`'s, the ones `stglow check` runs."""

import numpy as np

from stglow import flow as fl
from stglow.data import SceneWindow


def fd_gradient(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    g = np.zeros_like(x0, dtype=np.float64)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def identity_stack(channels: int, cond_dim: int, n_steps: int = 1) -> fl.FlowStack:
    """A flow whose every step is the identity map (PatternNorms start as one)."""
    stack = fl.FlowStack(np.random.default_rng(0), channels, cond_dim, n_steps=n_steps)
    for op in stack.ops:
        if isinstance(op, fl.InvertibleLinear):
            op.w.data[:] = np.eye(channels)
    return stack


def write_windows(windows: list[SceneWindow], path) -> None:
    """Write windows as disjoint track blocks in the dataset text format.

    Window i occupies frames [i*1000, i*1000 + t_o + t_p) with per-window
    pedestrian ids, so re-windowing the file recovers each block separately.
    """
    rows = []
    for i, w in enumerate(windows):
        world = np.concatenate([w.world_obs(), w.world_fut()], axis=1)
        for j in range(w.n_pedestrians):
            for t, (x, y) in enumerate(world[j]):
                rows.append((i * 1000 + t, i * 1000 + j, x, y))
    rows.sort()
    with open(path, "w") as fh:
        for frame, ped, x, y in rows:
            fh.write(f"{frame} {ped} {x:.9f} {y:.9f}\n")
