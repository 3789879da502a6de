"""End-to-end model: scene encoder, behavior flow, trajectory decoder."""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .config import ModelConfig
from .data import MAX_COORD, SceneWindow
from .decoder import BatchDecoded, BidirectionalDecoder, LossWeights, best_of_k_rows, trajectory_loss_batched
from .errors import ConfigError, ContractError, FlowNumericsError
from .flow import FlowStack, base_draws, nll_loss, sample_behaviors
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

        The best-of-K minimum sends gradient to two of a pedestrian's K
        samples: to its goal winner's goal and to its trajectory winner's
        trajectory heads. So the samples are drawn and decoded in two
        passes. The first, `select_winners`, evolves and decodes all B*K
        base draws untaped and in float32 (float64 where float32 meets a
        non-finite value), and only picks the winners. The second is taped
        and in float64, from the same float64 base draws: the flow reverse
        runs on the B goal-winner rows, then the B trajectory-winner rows,
        each conditioned on its pedestrian's row of `st`; `goal_mlp` alone
        runs on the goal winners, and the full decoder on the trajectory
        winners. Its loss is the one differentiated and reported: `l_total`
        is its value and `l_traj` the mean of its per-window terms. Both
        passes score rows with the same cost code, so while the selected
        winners are the float64 ones (`checks.winner_flips` counts where
        they are not), the loss and its gradients are those of one taped
        float64 pass over all rows, up to rounding. `selection_fallback`
        says whether the selection was redone in float64.
        """
        mb, st = self.encode_windows(windows, training=True)
        l_p = nll_loss(mb, st, self.flow)
        gt_future = np.stack([w.fut[w.target_index] for w in windows])
        winners, z, fell_back = self.select_winners(st, gt_future, k_train, sigma, rng, weights, np.float32)
        b, rows = len(windows), np.concatenate(winners)
        behaviors = self.flow.reverse(Tensor(z[rows]), st, rows // k_train)
        traj = self.decoder.decode_batch(nc.index(behaviors, np.s_[b:]))
        # one row per pedestrian: the goal head at its goal winner, the trajectory heads at its trajectory winner
        winning = BatchDecoded(self.decoder.goal_mlp(nc.index(behaviors, np.s_[:b])), traj.y_f, traj.y_b, traj.y_both)
        per_window = trajectory_loss_batched(winning, gt_future, weights)
        loss = nc.add(l_p, nc.sum_all(per_window))
        stats = {"l_p": float(l_p.data), "l_traj": float(per_window.data.mean()), "l_total": float(loss.data)}
        return loss, {**stats, "selection_fallback": fell_back}

    def select_winners(
        self,
        st: Tensor,
        gt_future: np.ndarray,
        k: int,
        sigma: float,
        rng: np.random.Generator,
        weights: LossWeights,
        dtype,
    ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, bool]:
        """Each pedestrian's goal and trajectory winners among its K samples,
        as (B,) row indices (see `best_of_k_rows`); the base draws z,
        (B*K, C), float64 and drawn from `rng` as `sample_behaviors` draws;
        and whether the selection fell back to float64.

        Untaped `dtype` copies of the flow and the decoder, made for this
        call, evolve and decode all B*K rows; each copied mixing matrix's
        W^-T is the float64 one, cast. If a pass in another dtype than
        float64 meets a non-finite value, in the flow's finite check or in
        a decoded head, the selection is redone in float64 over the same z,
        as a float64 call would make it. That pass's floating-point
        warnings are silenced: the finite checks are the signal.
        """
        decoded = None
        with nc.no_grad():
            z = base_draws(self.flow.channels, k, sigma, [rng] * st.shape[0])
            rows = np.arange(len(z)) // k
            if dtype != np.float64:
                with np.errstate(all="ignore"):
                    try:
                        decoded = self.decoder.cast(dtype).decode_batch(
                            self.flow.cast(dtype).reverse(nc.cast(z, dtype), nc.cast(st, dtype), rows)
                        )
                    except FlowNumericsError:
                        pass
                heads = () if decoded is None else (decoded.goal, decoded.y_f, decoded.y_b, decoded.y_both)
                if not all(np.isfinite(h.data).all() for h in heads if h is not None):
                    decoded = None
            fell_back = dtype != np.float64 and decoded is None
            if decoded is None:
                decoded = self.decoder.decode_batch(self.flow.reverse(Tensor(z), st, rows))
        return best_of_k_rows(decoded, gt_future, weights), z, fell_back

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
