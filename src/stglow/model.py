"""End-to-end model: scene encoder, behavior flow, trajectory decoder."""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .config import ModelConfig
from .data import SceneWindow
from .decoder import BidirectionalDecoder, LossWeights, best_of_k_rows, trajectory_loss_batched
from .errors import ConfigError, ContractError
from .flow import FlowStack, nll_loss, sample_behaviors
from .graphormer import SceneEncoder
from .numcore import Tensor


class TrajectoryModel:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.encoder = SceneEncoder(
            rng,
            d=cfg.d,
            n_heads=cfg.n_heads,
            t_obs=cfg.t_obs,
            t_pred=cfg.t_pred,
            use_temporal_graphormer=cfg.use_temporal_graphormer,
            use_spatial=cfg.use_spatial,
            use_centrality=cfg.use_centrality,
            use_positional=cfg.use_positional,
            use_rel_pos=cfg.use_rel_pos,
            use_steering=cfg.use_steering,
            use_spatial_mask=cfg.use_spatial_mask,
        )
        self.flow = FlowStack(
            rng,
            channels=cfg.d,
            cond_dim=cfg.d,
            n_steps=cfg.n_flow_steps,
            use_pattern_norm=cfg.use_pattern_norm,
            factor_out=cfg.factor_out,
            factor_out_every=cfg.factor_out_every,
            factor_out_channels=cfg.factor_out_channels,
        )
        self.decoder = BidirectionalDecoder(
            rng, channels=cfg.d, d_h=cfg.d_h, t_pred=cfg.t_pred, bidirectional=cfg.bidirectional
        )

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for prefix, owner in (("encoder", self.encoder), ("flow", self.flow), ("decoder", self.decoder)):
            for k, v in owner.params().items():
                out[f"{prefix}.{k}"] = v
        return out

    def encode_windows(self, windows: list[SceneWindow], training: bool) -> tuple[Tensor | None, Tensor]:
        """Per-window target encodings as (B, C) batches, in window order.

        Windows with the same pedestrian count share one encoder call.
        """
        if not windows:
            raise ContractError("need at least one window to encode")
        groups: dict[int, list[int]] = {}
        for i, w in enumerate(windows):
            if w.t_obs != self.cfg.t_obs or w.t_pred != self.cfg.t_pred:
                raise ConfigError(
                    f"window steps ({w.t_obs}, {w.t_pred}) do not match model "
                    f"configuration ({self.cfg.t_obs}, {self.cfg.t_pred})"
                )
            groups.setdefault(w.n_pedestrians, []).append(i)
        mb_parts, st_parts = [], []
        for members in groups.values():
            obs = np.stack([windows[i].obs for i in members])
            full = np.concatenate([obs, np.stack([windows[i].fut for i in members])], axis=2) if training else None
            mb, st = self.encoder.encode(obs, [windows[i].target_index for i in members], full)
            st_parts.append(st)
            if mb is not None:
                mb_parts.append(mb)
        order = np.argsort(np.concatenate(list(groups.values())))

        def in_order(parts: list[Tensor]) -> Tensor:
            return parts[0] if len(parts) == 1 else nc.index(nc.concat(parts, 0), order)

        return (in_order(mb_parts) if mb_parts else None), in_order(st_parts)

    def batch_loss(
        self,
        windows: list[SceneWindow],
        k_train: int,
        rng: np.random.Generator,
        weights: LossWeights = LossWeights(),
        sigma: float = 1.0,
    ) -> tuple[Tensor, dict[str, float]]:
        """Likelihood loss on the batch plus best-of-K trajectory losses.

        The best-of-K minimum sends gradient to at most two of a
        pedestrian's K samples, its goal winner and its trajectory winner,
        so the samples are drawn and decoded in two passes. The first,
        untaped, evolves and decodes all B*K base draws and picks the
        winners; it gives the reported `l_traj` and `l_total`. The second
        re-runs the flow reverse and the decoder taped on the winning rows
        only (at most 2B), conditioned on their pedestrians' rows of `st`,
        and gives the loss that is differentiated. Both score rows with the
        same cost code, so the loss and its gradients are those of one taped
        pass over all rows, up to rounding.
        """
        mb, st = self.encode_windows(windows, training=True)
        l_p = nll_loss(mb, st, self.flow)
        gt_future = np.stack([w.fut[w.target_index] for w in windows])
        with nc.no_grad():
            behaviors, z = sample_behaviors(st, self.flow, k_train, sigma, [rng] * len(windows))
            decoded = self.decoder.decode_batch(behaviors)
            winners = best_of_k_rows(decoded, gt_future, weights)
            full = trajectory_loss_batched(decoded, gt_future, weights, winners)
        b = len(windows)
        rows, pos = np.unique(np.concatenate(winners), return_inverse=True)
        winning = self.decoder.decode_batch(self.flow.reverse(Tensor(z[rows]), nc.index(st, rows // k_train)))
        per_window = trajectory_loss_batched(winning, gt_future, weights, (pos[:b], pos[b:]))
        loss = nc.add(l_p, nc.sum_all(per_window))
        stats = {
            "l_p": float(l_p.data),
            "l_traj": float(full.data.mean()),
            "l_total": float(l_p.data + full.data.sum()),
        }
        return loss, stats

    def predict(self, window: SceneWindow, k: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
        """(K, t_p, 2) sampled futures for the window's target, in world coordinates."""
        return self.forecast([window], k, sigma, [rng])[0]

    def predict_all_pedestrians(
        self, window: SceneWindow, k: int, sigma: float, rng: np.random.Generator
    ) -> np.ndarray:
        """(N, K, t_p, 2) world-frame futures, re-targeting each pedestrian.

        One `forecast` whose N windows all draw from `rng`, in pedestrian
        order, as predicting each re-targeted window in turn would, and with
        the same futures (bit for bit at K = 20; BLAS may round a product of
        a few rows differently from one of more).
        """
        scenes = [window if i == window.target_index else window.retarget(i) for i in range(window.n_pedestrians)]
        return self.forecast(scenes, k, sigma, [rng] * len(scenes))

    def forecast(self, windows: list[SceneWindow], k: int, sigma: float, rngs: list[np.random.Generator]) -> np.ndarray:
        """(W, K, t_p, 2) world-frame futures of windows of any scene sizes.

        One encoder, flow and decoder pass. Window i's K base draws come
        from `rngs[i]`, taken in window order, so the futures are those of
        forecasting the windows one at a time (bit for bit at K = 20; BLAS
        may round a product of a few rows differently from one of more).
        """
        with nc.no_grad():
            _, st = self.encode_windows(windows, training=False)
            behaviors, _ = sample_behaviors(st, self.flow, k, sigma, rngs)
            pred = self.decoder.decode_batch(behaviors, prediction_only=True).prediction
        origins = np.stack([w.origin for w in windows])
        return pred.data.reshape((len(windows), k) + pred.shape[1:]) + origins[:, None, None, :]
