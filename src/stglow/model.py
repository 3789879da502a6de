"""End-to-end model: scene encoder, behavior flow, trajectory decoder."""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .config import ModelConfig
from .data import MAX_COORD, SceneWindow
from .decoder import BidirectionalDecoder, LossWeights, best_of_k_rows, trajectory_loss_batched
from .errors import ConfigError, ContractError
from .flow import FlowStack, nll_loss, sample_behaviors
from .graphormer import SceneEncoder
from .layers import Layer
from .numcore import Tensor

FORECAST_ROWS = 1024  # sample rows (windows x K) per flow and decoder pass of `forecast`


class TrajectoryModel(Layer):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.encoder = SceneEncoder(
            rng, d=cfg.d, n_heads=cfg.n_heads, t_obs=cfg.t_obs, t_pred=cfg.t_pred, use_spatial=cfg.use_spatial
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
        `select_winners`, evolves and decodes all B*K base draws untaped and
        in float32, and only picks the winners. The second re-runs the flow
        reverse and the decoder taped and in float64 on the winning rows
        only (at most 2B), from the same float64 base draws and conditioned
        on their pedestrians' rows of `st`, and gives the loss that is
        differentiated and reported: `l_total` is its value and `l_traj`
        the mean of its per-window terms. Both passes score rows with the
        same cost code, so while the float32 winners are the float64 ones
        (`pipeline.winner_flips` counts where they are not), the loss and
        its gradients are those of one taped float64 pass over all rows, up
        to rounding.
        """
        mb, st = self.encode_windows(windows, training=True)
        l_p = nll_loss(mb, st, self.flow)
        gt_future = np.stack([w.fut[w.target_index] for w in windows])
        winners, z = self.select_winners(st, gt_future, k_train, sigma, rng, weights, np.float32)
        b = len(windows)
        rows, pos = np.unique(np.concatenate(winners), return_inverse=True)
        winning = self.decoder.decode_batch(self.flow.reverse(Tensor(z[rows]), st, rows // k_train))
        per_window = trajectory_loss_batched(winning, gt_future, weights, (pos[:b], pos[b:]))
        loss = nc.add(l_p, nc.sum_all(per_window))
        stats = {"l_p": float(l_p.data), "l_traj": float(per_window.data.mean()), "l_total": float(loss.data)}
        return loss, stats

    def select_winners(
        self,
        st: Tensor,
        gt_future: np.ndarray,
        k: int,
        sigma: float,
        rng: np.random.Generator,
        weights: LossWeights,
        dtype,
    ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """Each pedestrian's goal and trajectory winners among its K samples,
        as (B,) row indices (see `best_of_k_rows`), and the base draws z,
        (B*K, C), float64 and drawn from `rng` as `sample_behaviors` draws.

        Untaped `dtype` copies of the flow and the decoder, made for this
        call, evolve and decode all B*K rows; each copied mixing matrix's
        W^-T is the float64 one, cast.
        """
        with nc.no_grad():
            st_cast = nc.cast(st, dtype)
            behaviors, z = sample_behaviors(st_cast, self.flow.cast(dtype), k, sigma, [rng] * st.shape[0])
            decoded = self.decoder.cast(dtype).decode_batch(behaviors)
        return best_of_k_rows(decoded, gt_future, weights), z

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

        The windows are forecast in passes of consecutive windows, each at
        most `FORECAST_ROWS` sample rows (windows x K) but at least one
        window, so temporaries stay bounded however many windows or samples
        are asked for. A pass is one encoder, flow and decoder pass. Window
        i's K base draws come from `rngs[i]`, taken in window order, so the
        futures are those of forecasting the windows one at a time (bit for
        bit at K = 20; BLAS may round a product of a few rows differently
        from one of more).
        """
        if not windows or k < 1:
            raise ContractError(f"need at least one window and one sample, got {len(windows)} windows and k = {k}")
        per_pass = max(1, FORECAST_ROWS // k)
        out = np.empty((len(windows), k, self.cfg.t_pred, 2))
        with nc.no_grad():
            for lo in range(0, len(windows), per_pass):
                part = windows[lo : lo + per_pass]
                _, st = self.encode_windows(part, training=False)
                behaviors, _ = sample_behaviors(st, self.flow, k, sigma, rngs[lo : lo + per_pass])
                pred = self.decoder.decode_batch(behaviors, prediction_only=True).prediction
                out[lo : lo + per_pass] = pred.data.reshape(len(part), k, -1, 2)
        out += np.stack([w.origin for w in windows])[:, None, None, :]
        if not np.all(np.abs(out) <= MAX_COORD):  # as far as a track file may reach; also catches NaN
            raise ContractError(f"a forecast lies beyond ±{MAX_COORD:g} m at sigma {sigma:g}")
        return out
