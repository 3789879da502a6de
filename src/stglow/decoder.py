"""Goal-conditioned bidirectional trajectory decoder and its losses.

A behavior vector is decoded three ways: a forward GRU rolls out the
future step by step; a backward GRU starts from a predicted goal and walks
back to the present; a combined head fuses both passes. All three outputs
plus the goal are supervised with a best-of-K minimum, so only the closest
samples receive gradient: per pedestrian, the goal winner (least goal
distance) and the trajectory winner (least weighted trajectory sum).

Training therefore decodes in two passes. An untaped pass decodes all B*K
samples in float32, from a `cast` copy of the decoder, and `best_of_k_rows`
picks the winners. A taped float64 pass then reads only what the loss
reads: the goal head (`goal_mlp`) of the B goal winners, and the full
decode of the B trajectory winners, one row per pedestrian, which
`trajectory_loss_batched` scores as it stands. Both passes score rows with
the same cost code; the loss, its gradients and every forecast are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ContractError
from .layers import GruCell, Layer, Linear, Mlp
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
    """Decoder outputs, one tensor per head; row b*K + j is sample j of pedestrian b.

    A head the caller did not ask for (`decode_batch(prediction_only=True)`)
    is None.
    """

    goal: Tensor  # (M, 2)
    y_f: Tensor | None  # (M, t_p, 2), steps 1..t_p
    y_b: Tensor | None  # (M, t_p - 1, 2), steps 1..t_p-1
    y_both: Tensor | None  # (M, t_p, 2), step t_p is the goal

    @property
    def prediction(self) -> Tensor:
        """The head a forecast reports: the fused one, or the forward one
        when the decoder runs forward-only."""
        return self.y_both if self.y_both is not None else self.y_f

    def rows(self, idx: np.ndarray) -> "BatchDecoded":
        """The decoded rows `idx`, in that order, of every head."""
        heads = (self.goal, self.y_f, self.y_b, self.y_both)
        return BatchDecoded(*(None if h is None else nc.index(h, idx) for h in heads))


class BidirectionalDecoder(Layer):
    def __init__(
        self,
        rng: np.random.Generator,
        channels: int,
        d_h: int,
        t_pred: int,
        bidirectional: bool = True,
    ):
        self.t_pred, self.d_h = t_pred, d_h
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

    def decode_batch(self, mb: Tensor, prediction_only: bool = False) -> BatchDecoded:
        """Decode every row of (M, C) behavior vectors in parallel.

        With `prediction_only` the heads that only training reads are not
        built (left None), nor the bidirectional decoder's last forward
        step, which only `y_f` reads; the `prediction` head is computed
        exactly as for training.

        Each output head reads a concatenated input, [state, mb] or
        [backward state, forward feature], as products with its weight's two
        row blocks, so no concat is built; `mb`'s block is projected once per
        decode.
        """
        t_p, m, d_h = self.t_pred, mb.shape[0], self.d_h
        want_f = not (prediction_only and self.bidirectional)  # y_f is a forward-only decoder's forecast
        goal = self.goal_mlp(mb)
        f_h = self.fwd_init(mb)
        f_i: list[Tensor] = [self.fwd_in(f_h)]  # f_i[t] is the input feature at step t
        y_f: list[Tensor] = []
        if want_f:
            f_w, f_mb = _split_head(self.fwd_out, d_h, mb)
        # without y_f, step t_p's features feed nothing: the fused head reads f_i[1..t_p-1]
        for t in range(1, (t_p if want_f else t_p - 1) + 1):
            f_h = self.fwd_gru(f_h, f_i[t - 1])
            f_i.append(self.fwd_in(f_h))
            if want_f:
                y_f.append(nc.add(nc.linear(f_i[t], f_w), f_mb))
        y_f_head = _stack_steps(y_f, m) if want_f else None
        if not self.bidirectional:
            return BatchDecoded(goal=goal, y_f=y_f_head, y_b=None, y_both=None)
        if not prediction_only:
            b_w, b_mb = _split_head(self.bwd_out, d_h, mb)
        both_b, both_f = nc.index(self.both_out.w, np.s_[:d_h]), nc.index(self.both_out.w, np.s_[d_h:])
        b_h = self.bwd_init(mb)
        b_i = self.bwd_in(goal)
        y_both_desc: list[Tensor] = [goal]  # step t_p output is the goal itself
        y_b_desc: list[Tensor] = []
        for _t_b in range(t_p - 1, 0, -1):
            b_h = self.bwd_gru(b_h, b_i)
            if not prediction_only:
                y_b_desc.append(nc.add(nc.linear(b_h, b_w), b_mb))
            y_both_t = nc.add(nc.linear(b_h, both_b, self.both_out.b), nc.linear(f_i[_t_b], both_f))
            b_i = self.bwd_in(y_both_t)
            y_both_desc.append(y_both_t)
        return BatchDecoded(
            goal=goal,
            y_f=y_f_head,
            y_b=None if prediction_only else _stack_steps(y_b_desc[::-1], m),
            y_both=_stack_steps(y_both_desc[::-1], m),
        )


def _split_head(head: Linear, d_h: int, mb: Tensor) -> tuple[Tensor, Tensor]:
    """A head over [state (d_h), mb] as the state's weight rows and the
    projection of `mb`, bias included, made once for every step."""
    return nc.index(head.w, np.s_[:d_h]), nc.linear(mb, nc.index(head.w, np.s_[d_h:]), head.b)


def _stack_steps(steps: list[Tensor], m: int) -> Tensor:
    """t entries of (m, 2) -> one (m, t, 2) tensor (t may be 0)."""
    return nc.reshape(nc.concat(steps, -1), (m, len(steps), 2)) if steps else Tensor(np.zeros((m, 0, 2)))


def _truth(batch: BatchDecoded, gt_future: np.ndarray) -> np.ndarray:
    gt = np.asarray(gt_future, dtype=np.float64)
    t_p = batch.y_f.shape[1]
    if gt.ndim != 3 or gt.shape[1:] != (t_p, 2) or len(gt) == 0:
        raise ContractError(f"need (B, {t_p}, 2) ground truth, B >= 1; got {gt.shape}")
    return gt


def _goal_cost(goal: Tensor, truth: np.ndarray) -> Tensor:
    """(M, 2) goals vs (M, t_p, 2) truth rows -> (M,) distances to the last step."""
    return nc.euclid_rows(nc.sub(goal, truth[:, -1]))


def _traj_cost(batch: BatchDecoded, truth: np.ndarray, weights: LossWeights) -> Tensor:
    """Weighted sum of per-step distances of each row's heads to its own
    (t_p, 2) truth row: (M,). Backward-trajectory terms cover steps 1..t_p-1."""

    def dist(y: Tensor, t: np.ndarray) -> Tensor:
        return nc.sum_lastdim(nc.euclid_rows(nc.sub(y, t)))

    traj = nc.mul(dist(batch.y_f, truth), weights.fwd)
    if batch.y_b is not None:
        traj = nc.add(traj, nc.mul(dist(batch.y_b, truth[:, :-1]), weights.bwd))
    if batch.y_both is not None:
        traj = nc.add(traj, nc.mul(dist(batch.y_both, truth), weights.both))
    return traj


def best_of_k_rows(
    batch: BatchDecoded, gt_future: np.ndarray, weights: LossWeights = LossWeights()
) -> tuple[np.ndarray, np.ndarray]:
    """Each pedestrian's goal winner and trajectory winner, as (B,) row indices.

    `gt_future` is (B, t_p, 2); rows b*K .. b*K+K-1 are pedestrian b's
    samples. The two minima are taken independently, and ties (and NaN
    costs, as `np.argmin` treats them) go to the lowest sample index.
    """
    gt = _truth(batch, gt_future)
    m, b = batch.goal.shape[0], len(gt)
    if m == 0 or m % b:
        raise ContractError(f"need B*K rows, K >= 1, for {b} pedestrians; got {m} rows")
    k = m // b
    truth = np.repeat(gt, k, axis=0)
    with nc.no_grad():
        goal, traj = _goal_cost(batch.goal, truth), _traj_cost(batch, truth, weights)
    first = np.arange(b) * k
    return first + np.argmin(goal.data.reshape(b, k), axis=1), first + np.argmin(traj.data.reshape(b, k), axis=1)


def trajectory_loss_batched(
    batch: BatchDecoded, gt_future: np.ndarray, weights: LossWeights = LossWeights()
) -> Tensor:
    """Best-of-K supervised loss per pedestrian: (B,), with `gt_future` (B, t_p, 2).

    The loss of pedestrian b is alpha times its goal winner's goal distance
    plus its trajectory winner's weighted trajectory sum, and gradients flow
    only through those rows' terms. A batch of M = B*K pedestrian-major
    rows is reduced to its winners by `best_of_k_rows`; a batch of B rows
    (K = 1) is its own winners and is scored as it stands.
    """
    gt = _truth(batch, gt_future)
    goal, traj = batch.goal, batch
    if goal.shape[0] != len(gt):
        goal_rows, traj_rows = best_of_k_rows(batch, gt, weights)
        goal, traj = nc.index(goal, goal_rows), batch.rows(traj_rows)
    return nc.add(nc.mul(_goal_cost(goal, gt), weights.alpha), _traj_cost(traj, gt, weights))
