"""Dual graph-attention scene encoder, run on stacks of scenes.

A temporal encoder turns trajectories into per-step embeddings under a
causal step-graph mask, with a degree-based centrality embedding and a
learned positional table; it takes a (P, T, 2) stack of P trajectories at
once. A spatial encoder mixes the per-pedestrian embeddings at the last
observed step under a field-of-view mask built from walking directions; it
takes a (Q, N, d) stack of Q scenes of N pedestrians, each with its own
mask and target. `SceneEncoder.encode` runs both over Q scenes normalised
to their targets, one call per encoder, and returns per scene a
motion-behavior vector (from the full trajectory, training only) and a
social-context vector (from observed history).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError, DataError, ShapeError
from .layers import GruCell, Linear, Mlp, ReluLinear, TransformerBlock, _prefix
from .numcore import NEG_INF, Tensor


@dataclass
class SpatialGraph:
    """Pairwise field-of-view graphs over pedestrians at one time step;
    any leading axes stack independent scenes."""

    mask: np.ndarray  # (..., N, N), entries in {1, NEG_INF}
    walk_dirs: np.ndarray  # (..., N, 2) displacement per step


def build_temporal_adjacency(t: int) -> np.ndarray:
    """Causal step graph as a (T, T) mask with entries in {1, NEG_INF}:
    node t may attend to nodes 1..t (1-indexed)."""
    if t < 1:
        raise DataError("empty window: temporal graph needs at least one step")
    mask = np.full((t, t), NEG_INF)
    mask[np.tril_indices(t)] = 1.0
    return mask


def temporal_degrees(mask: np.ndarray) -> np.ndarray:
    """Influence duration of each step of a temporal mask: how many steps attend to it."""
    return (mask == 1.0).sum(axis=0).astype(np.float64)


def build_spatial_adjacency(positions_prev: np.ndarray, positions_now: np.ndarray) -> SpatialGraph:
    """FOV graph of (..., N, 2) positions: i sees j if j lies ahead of i on both axes."""
    positions_prev = np.asarray(positions_prev, dtype=np.float64)
    positions_now = np.asarray(positions_now, dtype=np.float64)
    dirs = positions_now - positions_prev
    rel = positions_now[..., None, :, :] - positions_now[..., :, None, :]  # rel[i, j] = x_j - x_i
    visible = (rel[..., 0] * dirs[..., :, None, 0] >= 0.0) & (rel[..., 1] * dirs[..., :, None, 1] >= 0.0)
    mask = np.where(visible, 1.0, NEG_INF)
    return SpatialGraph(mask=mask, walk_dirs=dirs)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each as numpy's 1-D `a @ b` computes it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def steering_cosine(dir_i, dir_j) -> np.ndarray:
    """Cosine between (..., 2) walking directions, broadcast over leading
    axes; 0 where either pedestrian is still."""
    a = np.asarray(dir_i, dtype=np.float64)
    b = np.asarray(dir_j, dtype=np.float64)
    na = np.sqrt(_dot(a, a))
    nb = np.sqrt(_dot(b, b))
    moving = (na > 1e-12) & (nb > 1e-12)
    cos = _dot(a, b) / np.where(moving, na * nb, 1.0)
    return np.where(moving, np.clip(cos, -1.0, 1.0), 0.0)


def _checked_trajectories(traj) -> np.ndarray:
    traj = np.asarray(traj, dtype=np.float64)
    if traj.ndim != 3 or traj.shape[-1] != 2:
        raise ShapeError(f"expected (P, T, 2) trajectories, got shape {traj.shape}")
    if not np.all(np.isfinite(traj)):
        raise DataError("trajectory contains non-finite positions")
    return traj


class TemporalGraphormer:
    """Trajectory encoder with causal masked attention, over (P, T, 2) stacks.

    The causal mask is always applied. `SceneEncoder` reads only the last
    step, whose mask row is all ones, so its encodings do not depend on the
    mask; the earlier steps' embeddings do.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        d: int,
        n_heads: int,
        t_max: int,
        use_centrality: bool = True,
        use_positional: bool = True,
    ):
        self.d = d
        self.t_max = t_max
        self.use_centrality = use_centrality
        self.use_positional = use_positional
        self.node_mlp = Mlp(rng, 2, d, d)
        self.centrality = Linear(rng, 1, d)
        self.centrality.w.data *= 0.1  # raw degrees reach t_max; keep embeddings O(1)
        self.pos_table = Tensor(rng.normal(0.0, 0.1, size=(t_max, d)), requires_grad=True)
        self.block = TransformerBlock(rng, d, n_heads)

    def centrality_embedding(self, mask: np.ndarray) -> Tensor:
        deg = temporal_degrees(mask)[:, None]
        return self.centrality(Tensor(deg))

    def __call__(self, traj: np.ndarray) -> Tensor:
        """(P, T, 2) trajectories -> (P, T, d) per-step embeddings."""
        traj = _checked_trajectories(traj)
        t = traj.shape[1]
        if t > self.t_max:
            raise ConfigError(f"trajectory length {t} exceeds positional table size {self.t_max}")
        mask = build_temporal_adjacency(t)
        h = self.node_mlp(Tensor(traj))
        if self.use_centrality:
            h = nc.add(h, self.centrality_embedding(mask))
        if self.use_positional:
            h = nc.add(h, nc.index(self.pos_table, slice(0, t)))
        return self.block(h, mask)

    def params(self) -> dict[str, Tensor]:
        out = _prefix({"node_mlp": self.node_mlp, "centrality": self.centrality, "block": self.block})
        out["pos_table"] = self.pos_table
        return out


class GruTrajEncoder:
    """Recurrent fallback for the temporal encoder (ablation switch)."""

    def __init__(self, rng: np.random.Generator, d: int):
        self.d = d
        self.in_proj = Linear(rng, 2, d)
        self.cell = GruCell(rng, d, d)

    def __call__(self, traj: np.ndarray) -> Tensor:
        """(P, T, 2) trajectories -> (P, T, d) hidden states."""
        traj = _checked_trajectories(traj)
        p, t = traj.shape[:2]
        if t < 1:
            raise DataError("empty window")
        h = Tensor(np.zeros((p, self.d)))
        steps = []
        for s in range(t):
            h = self.cell(h, self.in_proj(Tensor(traj[:, s])))
            steps.append(h)
        return nc.reshape(nc.concat(steps, -1), (p, t, self.d))

    def params(self) -> dict[str, Tensor]:
        return _prefix({"in_proj": self.in_proj, "cell": self.cell})


class SpatialGraphormer:
    """Cross-pedestrian encoder at one time step under the FOV mask, over
    (Q, N, d) stacks of scenes.

    Node features add target-relative position and steering embeddings to
    the incoming temporal embeddings. No positional encoding: pedestrians
    have no natural order.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        d: int,
        n_heads: int,
        use_rel_pos: bool = True,
        use_steering: bool = True,
        use_mask: bool = True,
    ):
        self.use_rel_pos = use_rel_pos
        self.use_steering = use_steering
        self.use_mask = use_mask
        self.rel_mlp = ReluLinear(rng, 2, d)
        self.steer_mlp = ReluLinear(rng, 1, d)
        self.block = TransformerBlock(rng, d, n_heads)

    def __call__(
        self,
        positions_prev: np.ndarray,
        positions_now: np.ndarray,
        th_rows: Tensor,
        targets,
    ) -> Tensor:
        """(Q, N, 2) positions at the last two observed steps and (Q, N, d)
        temporal embeddings of Q scenes -> (Q, N, d); scene q's node features
        are relative to its pedestrian `targets[q]`."""
        positions_now = np.asarray(positions_now, dtype=np.float64)
        graph = build_spatial_adjacency(positions_prev, positions_now)
        scenes = np.arange(positions_now.shape[0])
        targets = np.asarray(targets)
        v = th_rows
        if self.use_rel_pos:
            rel_to_target = positions_now - positions_now[scenes, targets][:, None]
            v = nc.add(v, self.rel_mlp(Tensor(rel_to_target)))
        if self.use_steering:
            steer = steering_cosine(graph.walk_dirs[scenes, targets][:, None], graph.walk_dirs)
            v = nc.add(v, self.steer_mlp(Tensor(steer[..., None])))
        return self.block(v, graph.mask if self.use_mask else None)

    def params(self) -> dict[str, Tensor]:
        return _prefix({"rel_mlp": self.rel_mlp, "steer_mlp": self.steer_mlp, "block": self.block})


class SceneEncoder:
    """Assembles the temporal/spatial encoders into per-target encodings.

    Three separate temporal encoders are kept: one for the full trajectory
    (motion behavior), one shared over all pedestrians' histories (feeds the
    spatial encoder), and one for the target's own history. Each is read at
    its last step only.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        d: int,
        n_heads: int,
        t_obs: int,
        t_pred: int,
        use_temporal_graphormer: bool = True,
        use_spatial: bool = True,
        use_centrality: bool = True,
        use_positional: bool = True,
        use_rel_pos: bool = True,
        use_steering: bool = True,
        use_spatial_mask: bool = True,
    ):
        self.use_spatial = use_spatial
        t_max = t_obs + t_pred

        def make_tg():
            if use_temporal_graphormer:
                return TemporalGraphormer(
                    rng,
                    d,
                    n_heads,
                    t_max,
                    use_centrality=use_centrality,
                    use_positional=use_positional,
                )
            return GruTrajEncoder(rng, d)

        self.tg_full = make_tg()
        self.tg_hist = make_tg()
        self.tg_target = make_tg()
        self.sg = (
            SpatialGraphormer(rng, d, n_heads, use_rel_pos=use_rel_pos, use_steering=use_steering, use_mask=use_spatial_mask)
            if use_spatial
            else None
        )

    def encode(
        self,
        obs: np.ndarray,
        targets,
        full: np.ndarray | None = None,
    ) -> tuple[Tensor | None, Tensor]:
        """(motion_behavior, social_context), each (Q, D), for Q scenes.

        `obs` is (Q, N, t_o, 2) and `full` (Q, N, t_o + t_p, 2), scene q
        normalised to its target pedestrian `targets[q]`. Each encoder runs
        once over the whole stack: `tg_hist` over all Q·N histories. Without
        `full`, as in a forecast, the motion behavior is None.
        """
        obs = np.asarray(obs, dtype=np.float64)
        q, n, t_o = obs.shape[:3]
        scenes = np.arange(q)
        targets = np.asarray(targets)
        last = (slice(None), -1)  # each trajectory's last step
        st = nc.index(self.tg_target(obs[scenes, targets]), last)
        if self.use_spatial:
            th = nc.index(self.tg_hist(obs.reshape(q * n, t_o, 2)), last)
            prev = obs[:, :, t_o - 2] if t_o >= 2 else obs[:, :, t_o - 1]
            sh = self.sg(prev, obs[:, :, t_o - 1], nc.reshape(th, (q, n, -1)), targets)
            st = nc.add(st, nc.index(sh, (scenes, targets)))
        mb = None
        if full is not None:
            full = np.asarray(full, dtype=np.float64)
            mb = nc.index(self.tg_full(full[scenes, targets]), last)
        return mb, st

    def params(self) -> dict[str, Tensor]:
        children = {"tg_full": self.tg_full, "tg_hist": self.tg_hist, "tg_target": self.tg_target}
        if self.sg is not None:
            children["sg"] = self.sg
        return _prefix(children)
