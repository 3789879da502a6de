"""Dual graph-attention scene encoder.

A temporal encoder turns one pedestrian's trajectory into per-step
embeddings under a causal step-graph mask, with a degree-based centrality
embedding and a learned positional table. A spatial encoder mixes the
per-pedestrian embeddings at the last observed step under a field-of-view
mask built from walking directions. Together they produce, per target
pedestrian, a motion-behavior vector (from the full trajectory, training
only) and a social-context vector (from observed history).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError, ContractError, DataError
from .layers import GruCell, Linear, Mlp, ReluLinear, TransformerBlock, _prefix
from .numcore import NEG_INF, Tensor


@dataclass
class TemporalGraph:
    """Causal step graph: node t may attend to nodes 1..t (1-indexed)."""

    t: int
    mask: np.ndarray  # (T, T), entries in {1, NEG_INF}


@dataclass
class SpatialGraph:
    """Pairwise field-of-view graph over pedestrians at one time step."""

    n: int
    mask: np.ndarray  # (N, N), entries in {1, NEG_INF}
    walk_dirs: np.ndarray  # (N, 2) displacement per step
    rel_pos: np.ndarray  # (N, N, 2); rel_pos[i, j] = position_j - position_i


def build_temporal_adjacency(t: int) -> TemporalGraph:
    if t < 1:
        raise DataError("empty window: temporal graph needs at least one step")
    mask = np.full((t, t), NEG_INF)
    mask[np.tril_indices(t)] = 1.0
    return TemporalGraph(t=t, mask=mask)


def temporal_degrees(graph: TemporalGraph) -> np.ndarray:
    """Influence duration of each step: how many steps attend to it."""
    return (graph.mask == 1.0).sum(axis=0).astype(np.float64)


def build_spatial_adjacency(positions_prev: np.ndarray, positions_now: np.ndarray) -> SpatialGraph:
    positions_prev = np.asarray(positions_prev, dtype=np.float64)
    positions_now = np.asarray(positions_now, dtype=np.float64)
    n = positions_now.shape[0]
    dirs = positions_now - positions_prev
    rel = positions_now[None, :, :] - positions_now[:, None, :]  # rel[i, j] = x_j - x_i
    visible = (rel[:, :, 0] * dirs[:, None, 0] >= 0.0) & (rel[:, :, 1] * dirs[:, None, 1] >= 0.0)
    mask = np.where(visible, 1.0, NEG_INF)
    return SpatialGraph(n=n, mask=mask, walk_dirs=dirs, rel_pos=rel)


def steering_cosine(dir_i, dir_j, eps: float = 1e-12) -> float:
    """Cosine between walking directions; 0 if either pedestrian is still."""
    a = np.asarray(dir_i, dtype=np.float64)
    b = np.asarray(dir_j, dtype=np.float64)
    na = np.sqrt(a @ a)
    nb = np.sqrt(b @ b)
    if na <= eps or nb <= eps:
        return 0.0
    return float(np.clip((a @ b) / (na * nb), -1.0, 1.0))


class TemporalGraphormer:
    """Per-pedestrian trajectory encoder with causal masked attention."""

    def __init__(
        self,
        rng: np.random.Generator,
        d: int,
        n_heads: int,
        t_max: int,
        use_centrality: bool = True,
        use_positional: bool = True,
        use_mask: bool = True,
    ):
        self.d = d
        self.t_max = t_max
        self.use_centrality = use_centrality
        self.use_positional = use_positional
        self.use_mask = use_mask
        self.node_mlp = Mlp(rng, 2, d, d)
        self.centrality = Linear(rng, 1, d)
        self.centrality.w.data *= 0.1  # raw degrees reach t_max; keep embeddings O(1)
        self.pos_table = Tensor(rng.normal(0.0, 0.1, size=(t_max, d)), requires_grad=True)
        self.block = TransformerBlock(rng, d, n_heads)

    def centrality_embedding(self, graph: TemporalGraph) -> Tensor:
        deg = temporal_degrees(graph)[:, None]
        return self.centrality(Tensor(deg))

    def __call__(self, traj: np.ndarray) -> Tensor:
        traj = np.asarray(traj, dtype=np.float64)
        if not np.all(np.isfinite(traj)):
            raise DataError("trajectory contains non-finite positions")
        t = traj.shape[0]
        if t > self.t_max:
            raise ConfigError(f"trajectory length {t} exceeds positional table size {self.t_max}")
        graph = build_temporal_adjacency(t)
        h = self.node_mlp(Tensor(traj))
        if self.use_centrality:
            h = nc.add(h, self.centrality_embedding(graph))
        if self.use_positional:
            h = nc.add(h, nc.slice_rows(self.pos_table, 0, t))
        return self.block(h, graph.mask if self.use_mask else None)

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
        traj = np.asarray(traj, dtype=np.float64)
        if not np.all(np.isfinite(traj)):
            raise DataError("trajectory contains non-finite positions")
        if traj.shape[0] < 1:
            raise DataError("empty window")
        h = Tensor(np.zeros((1, self.d)))
        rows = []
        for t in range(traj.shape[0]):
            x = self.in_proj(Tensor(traj[t : t + 1]))
            h = self.cell(h, x)
            rows.append(h)
        return nc.concat_rows(rows)

    def params(self) -> dict[str, Tensor]:
        return _prefix({"in_proj": self.in_proj, "cell": self.cell})


class SpatialGraphormer:
    """Cross-pedestrian encoder at one time step under the FOV mask.

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
        target: int = 0,
    ) -> Tensor:
        positions_now = np.asarray(positions_now, dtype=np.float64)
        graph = build_spatial_adjacency(positions_prev, positions_now)
        v = th_rows
        if self.use_rel_pos:
            rel_to_target = positions_now - positions_now[target]
            v = nc.add(v, self.rel_mlp(Tensor(rel_to_target)))
        if self.use_steering:
            steer = np.array(
                [[steering_cosine(graph.walk_dirs[target], graph.walk_dirs[j])] for j in range(graph.n)]
            )
            v = nc.add(v, self.steer_mlp(Tensor(steer)))
        return self.block(v, graph.mask if self.use_mask else None)

    def params(self) -> dict[str, Tensor]:
        return _prefix({"rel_mlp": self.rel_mlp, "steer_mlp": self.steer_mlp, "block": self.block})


class SceneEncoder:
    """Assembles the temporal/spatial encoders into target-wise encodings.

    Three separate temporal encoders are kept: one for the full trajectory
    (motion behavior), one shared over all pedestrians' histories (feeds the
    spatial encoder), and one for the target's own history.
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
        use_temporal_mask: bool = True,
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
                    use_mask=use_temporal_mask,
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

    def _social_rows(self, obs: np.ndarray, target: int) -> Tensor:
        """SG output rows for the given target's frame; (N, D)."""
        n, t_o = obs.shape[0], obs.shape[1]
        last_rows = [nc.slice_rows(self.tg_hist(obs[i]), t_o - 1, t_o) for i in range(n)]
        th0 = nc.concat_rows(last_rows)
        prev = obs[:, t_o - 2, :] if t_o >= 2 else obs[:, t_o - 1, :]
        return self.sg(prev, obs[:, t_o - 1, :], th0, target)

    def encode_target(
        self,
        obs: np.ndarray,
        target: int,
        full: np.ndarray | None = None,
        training: bool = False,
    ) -> tuple[Tensor | None, Tensor]:
        """(motion_behavior, social_context) for one target; each (1, D)."""
        obs = np.asarray(obs, dtype=np.float64)
        if training and full is None:
            raise ContractError("training-mode encoding needs the full trajectory")
        t_o = obs.shape[1]
        th_y = self.tg_target(obs[target])
        th_target = nc.slice_rows(th_y, t_o - 1, t_o)
        if self.use_spatial:
            sh = self._social_rows(obs, target)
            sh_target = nc.slice_rows(sh, target, target + 1)
            st = nc.add(th_target, sh_target)
        else:
            st = th_target
        mb = None
        if full is not None:
            full = np.asarray(full, dtype=np.float64)
            th_f = self.tg_full(full[target])
            mb = nc.slice_rows(th_f, full.shape[1] - 1, full.shape[1])
        return mb, st

    def params(self) -> dict[str, Tensor]:
        children = {"tg_full": self.tg_full, "tg_hist": self.tg_hist, "tg_target": self.tg_target}
        if self.sg is not None:
            children["sg"] = self.sg
        return _prefix(children)
