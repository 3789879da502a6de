"""Goal-conditioned bidirectional trajectory decoder and its losses.

A behavior vector is decoded three ways: a forward GRU rolls out the
future step by step; a backward GRU starts from a predicted goal and walks
back to the present; a combined head fuses both passes. All three outputs
plus the goal are supervised with a best-of-K minimum so only the closest
sample receives gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ContractError
from .layers import GruCell, Linear, Mlp, _prefix
from .numcore import Tensor


@dataclass
class LossWeights:
    """Coefficients for goal / forward / backward / bidirectional terms."""

    alpha: float = 1.0
    fwd: float = 0.25
    bwd: float = 0.25
    both: float = 0.5


@dataclass
class BatchDecoded:
    """Row-parallel decoder outputs; row m is one (pedestrian, sample)."""

    goal: Tensor  # (M, 2)
    y_f: list[Tensor]  # t_p entries of (M, 2)
    y_b: list[Tensor] | None  # t_p - 1 entries (steps 1..t_p-1)
    y_both: list[Tensor] | None  # t_p entries


class BidirectionalDecoder:
    def __init__(
        self,
        rng: np.random.Generator,
        channels: int,
        d_h: int,
        t_pred: int,
        bidirectional: bool = True,
    ):
        self.channels = channels
        self.d_h = d_h
        self.t_pred = t_pred
        self.bidirectional = bidirectional
        self.goal_mlp = Mlp(rng, channels, d_h, 2)
        self.fwd_init = Mlp(rng, channels, d_h, d_h)
        self.fwd_in = Mlp(rng, d_h, d_h, d_h)
        self.fwd_gru = GruCell(rng, d_h, d_h)
        self.fwd_out = Linear(rng, d_h + channels, 2)
        if bidirectional:
            self.bwd_init = Mlp(rng, channels, d_h, d_h)
            self.bwd_in = Mlp(rng, 2, d_h, d_h)
            self.bwd_gru = GruCell(rng, d_h, d_h)
            self.bwd_out = Linear(rng, d_h + channels, 2)
            self.both_out = Linear(rng, 2 * d_h, 2)

    def decode_batch(self, mb: Tensor) -> BatchDecoded:
        """Decode every row of (M, C) behavior vectors in parallel."""
        t_p = self.t_pred
        goal = self.goal_mlp(mb)
        f_h = self.fwd_init(mb)
        f_i: list[Tensor] = [self.fwd_in(f_h)]  # f_i[t] is the input feature at step t
        y_f: list[Tensor] = []
        for t in range(1, t_p + 1):
            f_h = self.fwd_gru(f_h, f_i[t - 1])
            f_i.append(self.fwd_in(f_h))
            y_f.append(self.fwd_out(nc.concat_lastdim([f_i[t], mb])))
        if not self.bidirectional:
            return BatchDecoded(goal=goal, y_f=y_f, y_b=None, y_both=None)
        b_h = self.bwd_init(mb)
        b_i = self.bwd_in(goal)
        y_both_desc: list[Tensor] = [goal]  # step t_p output is the goal itself
        y_b_desc: list[Tensor] = []
        for _t_b in range(t_p - 1, 0, -1):
            b_h = self.bwd_gru(b_h, b_i)
            y_b_t = self.bwd_out(nc.concat_lastdim([b_h, mb]))
            y_both_t = self.both_out(nc.concat_lastdim([b_h, f_i[_t_b]]))
            b_i = self.bwd_in(y_both_t)
            y_b_desc.append(y_b_t)
            y_both_desc.append(y_both_t)
        return BatchDecoded(
            goal=goal,
            y_f=y_f,
            y_b=y_b_desc[::-1],
            y_both=y_both_desc[::-1],
        )

    def params(self) -> dict[str, Tensor]:
        children = {
            "goal_mlp": self.goal_mlp,
            "fwd_init": self.fwd_init,
            "fwd_in": self.fwd_in,
            "fwd_gru": self.fwd_gru,
            "fwd_out": self.fwd_out,
        }
        if self.bidirectional:
            children.update(
                {
                    "bwd_init": self.bwd_init,
                    "bwd_in": self.bwd_in,
                    "bwd_gru": self.bwd_gru,
                    "bwd_out": self.bwd_out,
                    "both_out": self.both_out,
                }
            )
        return _prefix(children)


def trajectory_loss_batched(
    batch: BatchDecoded,
    gt_future: np.ndarray,
    gt_goal: np.ndarray,
    weights: LossWeights = LossWeights(),
) -> Tensor:
    """Best-of-K supervised loss over K decoded samples stacked as rows.

    The goal minimum and the trajectory-sum minimum are taken independently
    over samples; ties resolve to the lowest sample index and gradients flow
    only through the winning samples' terms. Backward-trajectory terms cover
    steps 1..t_p-1.
    """
    k = batch.goal.shape[0]
    if k == 0:
        raise ContractError("trajectory loss needs at least one sample")
    gt_future = np.asarray(gt_future, dtype=np.float64)
    gt_goal = np.asarray(gt_goal, dtype=np.float64)
    goal_norms = nc.euclid_rows(nc.sub(batch.goal, gt_goal[None, :]))
    traj = None
    for t, y in enumerate(batch.y_f):
        term = nc.mul(nc.euclid_rows(nc.sub(y, gt_future[t][None, :])), weights.fwd)
        traj = term if traj is None else nc.add(traj, term)
    if batch.y_b is not None:
        for t, y in enumerate(batch.y_b):
            traj = nc.add(traj, nc.mul(nc.euclid_rows(nc.sub(y, gt_future[t][None, :])), weights.bwd))
    if batch.y_both is not None:
        for t, y in enumerate(batch.y_both):
            traj = nc.add(traj, nc.mul(nc.euclid_rows(nc.sub(y, gt_future[t][None, :])), weights.both))
    k_goal = int(np.argmin(goal_norms.data))
    k_traj = int(np.argmin(traj.data))
    picked_goal = nc.sum_all(nc.slice_rows(goal_norms, k_goal, k_goal + 1))
    picked_traj = nc.sum_all(nc.slice_rows(traj, k_traj, k_traj + 1))
    return nc.add(nc.mul(picked_goal, weights.alpha), picked_traj)


def total_loss(l_p: Tensor, per_pedestrian: list[Tensor]) -> Tensor:
    """Flow likelihood loss plus the sum of per-pedestrian trajectory losses."""
    out = l_p
    for term in per_pedestrian:
        out = nc.add(out, term)
    return out
