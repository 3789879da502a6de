"""Shared numerical oracles kept independent of the package internals."""

import numpy as np

from stglow import flow as fl
from stglow import numcore as nc
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


def numerical_jacobian(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function, column by column."""
    y0 = f(x0)
    jac = np.zeros((y0.size, x0.size))
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        jac[:, i] = (f(xp) - f(xm)) / (2 * h)
    return jac


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def random_stack(
    channels: int,
    cond_dim: int,
    n_steps: int,
    rng: np.random.Generator,
    scale: float = 0.3,
    **kw,
) -> fl.FlowStack:
    """A flow with randomized, trained-looking parameters (still invertible)."""
    stack = fl.FlowStack(rng, channels, cond_dim, n_steps=n_steps, **kw)
    for op in stack.ops:
        if isinstance(op, fl.PatternNorm):
            op.s.data[:] = rng.uniform(0.5, 1.5, op.channels) * rng.choice([-1.0, 1.0], op.channels)
            op.b.data[:] = rng.normal(0.0, 0.5, op.channels)
            op.initialized = True
        elif isinstance(op, fl.InvertibleLinear):
            op.w.data += scale * rng.normal(size=op.w.data.shape) / np.sqrt(op.channels)
        elif isinstance(op, fl.AffineCoupling):
            hidden = op.fc1.w.data.shape[0]
            op.fc1.w.data[:] = rng.normal(0.0, scale / np.sqrt(hidden), op.fc1.w.data.shape)
            op.fc1.b.data[:] = rng.normal(0.0, 0.5 * scale, op.fc1.b.data.shape)
    return stack


def identity_stack(channels: int, cond_dim: int, n_steps: int = 1) -> fl.FlowStack:
    """A flow whose every step is the identity map."""
    stack = fl.FlowStack(np.random.default_rng(0), channels, cond_dim, n_steps=n_steps)
    for op in stack.ops:
        if isinstance(op, fl.PatternNorm):
            op.initialized = True  # s=1, b=0 already
        elif isinstance(op, fl.InvertibleLinear):
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


def flow_map(stack: fl.FlowStack, st_row: np.ndarray):
    """The flow as a plain vector function of one input row."""

    def f(x: np.ndarray) -> np.ndarray:
        with nc.no_grad():
            z, _ = stack.forward(nc.Tensor(x[None, :]), nc.Tensor(st_row[None, :]))
        return z.data[0].copy()

    return f
