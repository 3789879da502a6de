"""The batched encoder path of `TrajectoryModel`, under every ablation switch.

Windows are encoded in stacks of equal scene size, and a crowd forecast
re-targets all N pedestrians in one pass. These tests hold that path to
what encoding and forecasting one window at a time gives.
"""

import dataclasses
import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from stglow import checks
from stglow import metrics as mt
from stglow import numcore as nc
from stglow import pipeline as pl
from stglow.checkpoint import load_checkpoint, save_checkpoint
from stglow.config import Config, toy_config
from stglow.data import SYNTH_KINDS, SceneWindow, SynthSpec, synth_scenes
from stglow.decoder import BidirectionalDecoder, LossWeights
from stglow.errors import ContractError, FlowNumericsError
from stglow.flow import AffineCoupling, InvertibleLinear, base_draws
from stglow.model import FORECAST_ROWS, TrajectoryModel

SWITCHES = [None, "use_spatial", "use_pattern_norm", "bidirectional"]


def make_model(switch):
    off = {switch: False} if switch is not None else {}
    cfg = dataclasses.replace(toy_config(seed=4).model, d=16, d_h=16, n_heads=2, **off)
    model = TrajectoryModel(cfg, np.random.default_rng(41))
    windows = mixed_windows()
    with nc.no_grad():
        mb, st = model.encode_windows(windows, training=True)
    model.flow.initialize(mb.data, st.data)
    return model


def mixed_windows():
    """Synthetic windows of one, two and three pedestrians, interleaved."""
    windows = synth_scenes(SynthSpec(kinds=SYNTH_KINDS, count=3, seed=42, noise_std=0.05))
    assert len({w.n_pedestrians for w in windows}) >= 2
    return windows


def crowd_window(n=5, seed=43):
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.3, 0.2, size=(n, 20, 2))
    world = rng.uniform(0.0, 6.0, size=(n, 1, 2)) + steps.cumsum(axis=1)
    origin = world[2, 7].copy()
    return SceneWindow(list(range(n)), world[:, :8] - origin, world[:, 8:] - origin, 2, origin)


@pytest.mark.parametrize("switch", SWITCHES, ids=[s or "default" for s in SWITCHES])
def test_stacked_encoding_matches_one_window_at_a_time(switch):
    model = make_model(switch)
    windows = mixed_windows()
    with nc.no_grad():
        mb, st = model.encode_windows(windows, training=True)
        for i, w in enumerate(windows):
            mb_i, st_i = model.encode_windows([w], training=True)
            assert np.array_equal(mb.data[i], mb_i.data[0]), i
            assert np.array_equal(st.data[i], st_i.data[0]), i


@pytest.mark.parametrize("switch", SWITCHES, ids=[s or "default" for s in SWITCHES])
def test_crowd_forecast_equals_retargeted_predicts(switch):
    model = make_model(switch)
    window = crowd_window()
    for k in (20, 3):
        together = model.predict_all_pedestrians(window, k, 1.0, np.random.default_rng(44))
        rng = np.random.default_rng(44)
        one_by_one = np.stack(
            [model.predict(window if i == 2 else window.retarget(i), k, 1.0, rng) for i in range(window.n_pedestrians)]
        )
        assert together.shape == (5, k, 12, 2)
        if k == 20:  # the best-of-20 protocol
            assert np.array_equal(together, one_by_one)
        else:  # BLAS may multiply a 3-row block with another kernel than a 15-row one
            assert np.allclose(together, one_by_one, rtol=0, atol=1e-12)


def shuffled_windows(seed):
    """Windows of one, two and three pedestrians in an order that is not group order."""
    windows = synth_scenes(SynthSpec(kinds=SYNTH_KINDS, count=8, seed=42, noise_std=0.05))
    windows = [windows[i] for i in np.random.default_rng(seed).permutation(len(windows))]
    assert {w.n_pedestrians for w in windows} == {1, 2, 3}
    return windows


def test_forecast_does_not_depend_on_grouping():
    """Each window draws from its own stream, in window order."""
    model = make_model(None)
    windows = shuffled_windows(46)
    n = len(windows)
    for k in (20, 3):
        together = model.forecast(windows, k, 1.0, [np.random.default_rng([47, i]) for i in range(n)])
        one_by_one = np.stack([model.predict(w, k, 1.0, np.random.default_rng([47, i])) for i, w in enumerate(windows)])
        assert together.shape == (n, k, 12, 2)
        if k == 20:
            assert np.array_equal(together, one_by_one)
        else:
            assert np.allclose(together, one_by_one, rtol=0, atol=1e-12)
        backwards = model.forecast(windows[::-1], k, 1.0, [np.random.default_rng([47, i]) for i in reversed(range(n))])
        assert np.array_equal(backwards, together[::-1])


def test_evaluate_equals_a_per_window_loop(monkeypatch):
    """One forecast per dataset, decoded in passes of at most FORECAST_ROWS rows."""
    model = make_model(None)
    forecasts, passes = [], []
    forecast, decode = model.forecast, model.decoder.decode_batch
    for k in (20, 50):
        per_pass = FORECAST_ROWS // k
        data = {"empty": [], "s": (shuffled_windows(48) * (2 * per_pass // 12 + 2))[: 2 * per_pass + 7]}
        n = len(data["s"])
        ref = mt.EvalReport()
        for d_idx, name in enumerate(sorted(data)):
            scores = []
            for w_idx, w in enumerate(data[name]):
                preds = model.predict(w, k, 1.0, pl.rng_stream(5, pl.STREAM_EVAL, d_idx, w_idx))
                scores.append(mt.best_of_k(preds, w.world_fut()[w.target_index]))
            if scores:
                ref.add(name, k, [a for a, _ in scores], [f for _, f in scores])
        forecasts.clear()
        passes.clear()
        with monkeypatch.context() as m:
            m.setattr(model, "forecast", lambda ws, *args: forecasts.append(len(ws)) or forecast(ws, *args))
            m.setattr(model.decoder, "decode_batch", lambda mb, **kw: passes.append(mb.shape[0]) or decode(mb, **kw))
            report = pl.evaluate(model, data, k=k, sigma=1.0, seed=5)
        assert forecasts == [n]
        assert passes == [per_pass * k, per_pass * k, 7 * k]  # full passes, the last one short
        assert max(passes) <= FORECAST_ROWS
        assert len(report.rows) == 1
        if k == 20:  # the best-of-20 protocol
            assert report.to_csv() == ref.to_csv()
            assert (report.rows[0].ade, report.rows[0].fde) == (ref.rows[0].ade, ref.rows[0].fde)
        else:  # BLAS may multiply a 50-row block with another kernel than a 1000-row one
            assert report.rows[0].ade == pytest.approx(ref.rows[0].ade, rel=1e-12, abs=0)
            assert report.rows[0].fde == pytest.approx(ref.rows[0].fde, rel=1e-12, abs=0)


def test_a_crowd_of_32_is_one_pass_and_a_large_k_one_window_a_pass(monkeypatch):
    model = make_model(None)
    passes = []
    decode = model.decoder.decode_batch
    monkeypatch.setattr(model.decoder, "decode_batch", lambda mb, **kw: passes.append(mb.shape[0]) or decode(mb, **kw))
    model.predict_all_pedestrians(crowd_window(n=32), 20, 1.0, np.random.default_rng(49))
    assert passes == [640]
    passes.clear()
    k = FORECAST_ROWS // 2 + 1
    preds = model.predict_all_pedestrians(crowd_window(n=3), k, 1.0, np.random.default_rng(49))
    assert passes == [k, k, k] and preds.shape == (3, k, 12, 2)


def test_evaluate_peak_memory_does_not_grow_past_one_budget():
    """Temporaries are bounded by the row budget, not the dataset: the
    tracemalloc peak of 4x the budget's windows is within 15% of 2x's."""
    cfg = toy_config(seed=4)
    model = pl.build_model(cfg)
    windows = shuffled_windows(50)
    with nc.no_grad():
        mb, st = model.encode_windows(windows, training=True)
    model.flow.initialize(mb.data, st.data)
    pl.evaluate(model, {"s": windows}, k=20)  # fills the W^-T cache
    per_pass = FORECAST_ROWS // 20
    peaks = []
    for n in (2 * per_pass, 4 * per_pass):
        data = {"s": (windows * (n // len(windows) + 1))[:n]}
        tracemalloc.start()
        try:
            pl.evaluate(model, data, k=20)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.15 * peaks[0], peaks


def test_toy_crowd_of_32_forecast_peaks_under_12_mb():
    """Attention reads its fused (P, T, 3d) projection in place: a toy-scale
    forecast of a 32-pedestrian crowd at K=20 peaks near 10 MB under
    tracemalloc. A reordered copy of the projection took it to 15 MB."""
    model = pl.build_model(toy_config(seed=4))
    window = crowd_window(n=32)
    model.predict_all_pedestrians(window, 20, 1.0, np.random.default_rng(51))  # fills the W^-T cache
    tracemalloc.start()
    try:
        model.predict_all_pedestrians(window, 20, 1.0, np.random.default_rng(51))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, peak


@pytest.mark.parametrize("switches_on", [True, False], ids=["use_all", "use_none"])
def test_every_parameter_is_trainable_when_built(switches_on):
    cfg = toy_config(seed=4)
    for name in vars(cfg.model):
        if name.startswith("use_"):
            setattr(cfg.model, name, switches_on)
    params = pl.build_model(cfg).params()
    assert params
    assert [k for k, p in params.items() if not p.requires_grad] == []


# sha256 of [(name, shape), ...] of `build_model(cfg).params()`, in order, as
# version-5 checkpoints record them: toy config under (use_spatial,
# use_pattern_norm, bidirectional), and the paper-scale `Config()`
PARAM_SURFACE = {
    (True, True, True): (109, "aff0a167dfe973d2"),
    (True, True, False): (94, "3617d653a1ec0dcb"),
    (True, False, True): (101, "87003b7b1977d2b2"),
    (True, False, False): (86, "622ac66cd385cecb"),
    (False, True, True): (99, "8fd6da8d81af8909"),
    (False, True, False): (84, "3d4e4d2cabb903a8"),
    (False, False, True): (91, "b902110e231623a0"),
    (False, False, False): (76, "2ba004afce66b3aa"),
    "paper": (193, "95bd45025c9ea125"),
}


def param_surface(params) -> tuple[int, str]:
    shapes = repr([(k, p.data.shape) for k, p in params.items()])
    return len(params), hashlib.sha256(shapes.encode()).hexdigest()[:16]


@pytest.mark.parametrize("switches", list(PARAM_SURFACE), ids=str)
def test_parameter_names_order_and_shapes_are_pinned(switches):
    cfg = Config()
    if switches != "paper":
        cfg = toy_config()
        cfg.model.use_spatial, cfg.model.use_pattern_norm, cfg.model.bidirectional = switches
    assert param_surface(pl.build_model(cfg).params()) == PARAM_SURFACE[switches]


def test_forecast_caches_add_no_parameters():
    model = make_model(None)
    names = list(model.params())
    model.forecast(mixed_windows()[:2], 3, 1.0, [np.random.default_rng(i) for i in range(2)])
    assert all(op._inv_t is not None for op in model.flow.ops if isinstance(op, InvertibleLinear))
    assert list(model.params()) == names


def test_one_inversion_per_mixing_matrix_per_state(monkeypatch):
    nc_calls, lapack_calls = [], []
    inverse, inv = nc.inverse, np.linalg.inv
    monkeypatch.setattr(nc, "inverse", lambda w: nc_calls.append(w) or inverse(w))
    monkeypatch.setattr(np.linalg, "inv", lambda w: lapack_calls.append(w) or inv(w))
    counts = []
    model = make_model(None)  # the flow's initialisation runs it forward
    counts.append(len(nc_calls))
    opt = nc.Adam(model.params(), lr=1e-3)
    for _ in range(3):  # optimizer steps, as `pipeline.train` takes them
        opt.zero_grad()
        pl._loss_and_grads(model, mixed_windows(), 3, np.random.default_rng(5), LossWeights())
        opt.step()
        counts.append(len(nc_calls) - sum(counts))
    for _ in range(2):
        model.forecast(mixed_windows()[:2], 3, 1.0, [np.random.default_rng(i) for i in range(2)])
        counts.append(len(nc_calls) - sum(counts))
    n = sum(isinstance(op, InvertibleLinear) for op in model.flow.ops)
    # the first step reuses the initialisation's inversions; each later W is inverted once
    assert counts == [n, 0, n, n, n, 0]
    assert len(lapack_calls) == len(nc_calls)  # the backward pass inverts nothing


def test_untaped_inversion_serves_the_next_taped_step(monkeypatch):
    grads = []
    for validate in (False, True):
        model = make_model(None)
        rng = np.random.default_rng(6)
        for op in model.flow.ops:
            if isinstance(op, InvertibleLinear):  # as Adam would, so initialisation's inverses are stale
                op.w.data += 1e-3 * rng.normal(size=op.w.data.shape)
        if validate:
            model.forecast(mixed_windows()[:2], 3, 1.0, [np.random.default_rng(i) for i in range(2)])
        calls = []
        inverse = nc.inverse
        monkeypatch.setattr(nc, "inverse", lambda w: calls.append(w) or inverse(w))
        pl._loss_and_grads(model, mixed_windows(), 3, np.random.default_rng(5), LossWeights())
        monkeypatch.setattr(nc, "inverse", inverse)
        assert bool(calls) != validate
        grads.append([op.w.grad for op in model.flow.ops if isinstance(op, InvertibleLinear)])
    assert all(g0.tobytes() == g1.tobytes() for g0, g1 in zip(*grads))


def test_empty_input_is_a_contract_error():
    model = make_model(None)
    with pytest.raises(ContractError):
        model.encode_windows([], training=False)
    with pytest.raises(ContractError):
        model.forecast([], 20, 1.0, [])
    for k in (0, -1):
        with pytest.raises(ContractError):
            model.forecast(mixed_windows()[:1], k, 1.0, [np.random.default_rng(0)])


def test_stacked_training_gradients_match_one_window_at_a_time():
    model = make_model(None)
    windows = mixed_windows()
    params = model.params()

    def grads(batches):
        for p in params.values():
            p.grad = None
        with nc.record() as tape:
            parts = [model.encode_windows(b, training=True) for b in batches]
            mb = nc.concat([m for m, _ in parts], 0)
            st = nc.concat([s for _, s in parts], 0)
            loss = nc.sum_all(nc.tanh(nc.add(mb, nc.mul(st, st))))
        nc.backward(loss, tape)
        return {k: p.grad.copy() for k, p in params.items() if p.grad is not None}

    stacked = grads([windows])
    single = grads([[w] for w in windows])
    assert stacked.keys() == single.keys()
    for k, g in single.items():
        assert np.max(np.abs(stacked[k] - g)) <= 1e-12 * max(np.max(np.abs(g)), 1e-300), k


@pytest.mark.parametrize("bidirectional", [True, False])
def test_forecast_builds_only_the_prediction_head(bidirectional):
    model = make_model(None if bidirectional else "bidirectional")
    with nc.no_grad():
        rows = nc.Tensor(np.random.default_rng(45).normal(size=(4, 16)))
        full = model.decoder.decode_batch(rows)
        lean = model.decoder.decode_batch(rows, prediction_only=True)
    assert lean.y_b is None
    if bidirectional:
        assert lean.y_f is None
        assert np.array_equal(lean.prediction.data, full.y_both.data)
    else:
        assert np.array_equal(lean.prediction.data, full.y_f.data)
    assert np.array_equal(lean.goal.data, full.goal.data)


def bits(model):
    return {k: p.data.tobytes() for k, p in model.params().items()}


@pytest.mark.parametrize("selection_raises", [False, True], ids=["step", "selection raises"])
def test_parameters_stay_float64(monkeypatch, tmp_path, selection_raises):
    """The float32 selection pass reads float32 copies of the parameters,
    never the parameters: after a step, or a step whose selection pass
    raises and is redone in float64, each parameter and gradient is float64
    and each value keeps its bits, also through a checkpoint (whose writer
    would widen a float32 array without a word)."""
    model = make_model(None)
    params = model.params()
    before = bits(model)
    if selection_raises:
        decode = BidirectionalDecoder.decode_batch

        def failing(decoder, mb, **kw):
            if mb.data.dtype == np.float32:
                raise FlowNumericsError("forced failure of the selection pass")
            return decode(decoder, mb, **kw)

        monkeypatch.setattr(BidirectionalDecoder, "decode_batch", failing)
    _, stats = pl._loss_and_grads(model, mixed_windows(), 3, np.random.default_rng(5), LossWeights())
    assert stats["selection_fallback"] == selection_raises
    assert sum(p.grad is not None for p in params.values()) > len(params) // 2
    assert model.params() == params  # the same Tensor objects
    assert all(p.data.dtype == np.float64 and (p.grad is None or p.grad.dtype == np.float64) for p in params.values())
    assert bits(model) == before
    assert all(op._inv_t.dtype == np.float64 for op in model.flow.ops if isinstance(op, InvertibleLinear))
    cfg = toy_config(seed=4)
    cfg.model = model.cfg
    save_checkpoint(pl.snapshot(model, cfg, None, 0), tmp_path / "after.ckpt")
    loaded = load_checkpoint(tmp_path / "after.ckpt").params
    assert {k: a.tobytes() for k, a in loaded.items()} == before


def synth_batches(cfg, n_batches):
    """`n_batches` batches of 32 synthetic windows of all five kinds at the
    config's steps, each from its own seed."""
    return [
        synth_scenes(SynthSpec(kinds=SYNTH_KINDS, count=40, seed=100 + b, t_obs=cfg.model.t_obs, t_pred=cfg.model.t_pred))[:32]
        for b in range(n_batches)
    ]


def flips_over(model, batches, k):
    counts = [checks.winner_flips(model, windows, k, seed) for seed, windows in enumerate(batches)]
    return sum(f for f, _ in counts), sum(n for _, n in counts)


class TestFloat32Winners:
    """`batch_loss` picks its best-of-K winners in float32. A near-tie may
    flip a winner to a sample whose float64 cost is within ~1e-6 relative of
    the best; the bound is `checks.WINNER_FLIPS_MAX` = 1% of the goal and
    trajectory winners.

    Measured over 20 batches x 32 pedestrians x the two winners (1280): 0
    flips on a briefly trained toy model and on the paper-scale flow with
    every coupling's `fc1.w` perturbed by N(0, 1e-3) or N(0, 1e-2), and 4
    at N(0, 1e-1). There the sampled behaviours reach 6e28 and one decoded
    row differed from float64 by 320% relative: the sample tails of
    ROADMAP item 10, where float32 and float64 both have lost the row."""

    def test_briefly_trained_toy_model(self, tmp_path):
        cfg = toy_config(seed=4)
        cfg.train.epochs, cfg.data.synth_count, cfg.train.out_dir = 3, 40, str(tmp_path)
        model = pl.restore_model(load_checkpoint(pl.train(cfg).last_path))
        flips, winners = flips_over(model, synth_batches(cfg, 20), cfg.train.k_train)
        assert winners == 1280
        assert flips <= checks.WINNER_FLIPS_MAX * winners

    def test_perturbed_paper_scale_flow(self):
        cfg = Config(seed=7)
        model = pl.build_model(cfg)
        batches = synth_batches(cfg, 4)
        with nc.no_grad():
            mb, st = model.encode_windows(batches[0], training=True)
        model.flow.initialize(mb.data, st.data)
        rng = np.random.default_rng(0)
        for op in model.flow.ops:
            if isinstance(op, AffineCoupling):
                op.fc1.w.data += rng.normal(0.0, 1e-2, op.fc1.w.data.shape)
        flips, winners = flips_over(model, batches, cfg.train.k_train)
        assert winners == 256
        assert flips <= checks.WINNER_FLIPS_MAX * winners


class TestFloat32Overflow:
    """Where the float32 selection pass goes non-finite on rows that float64
    carries, the batch's selection is redone in float64 over the same base
    draws, and no floating-point warning escapes."""

    def overflowing_model(self, where):
        """The reverse pass ends by dividing channel 0 by the first
        PatternNorm's scale. At 1e-39 the behaviours reach ~1e39, past
        float32's 3.4e38, so the float32 flow's finite check fails. At 1e-36
        the flow stays finite, and a goal head scaled by 1e6 overflows."""
        model = make_model(None)
        model.flow.ops[0].s.data[0] = 1e-39 if where == "flow" else 1e-36
        if where == "decoder":
            model.decoder.goal_mlp.fc1.w.data *= 1e6
        return model

    def run_batch_loss(self, monkeypatch, model, selection_dtype):
        """batch_loss with its selection pass in `selection_dtype`: the loss,
        the stats and what `select_winners` returned."""
        select, seen = TrajectoryModel.select_winners, []

        def recording(self_, st, gt, k, sigma, rng, weights, dtype):
            seen.append(select(self_, st, gt, k, sigma, rng, weights, selection_dtype))
            return seen[-1]

        with monkeypatch.context() as m:
            m.setattr(TrajectoryModel, "select_winners", recording)
            with nc.record():
                loss, stats = model.batch_loss(mixed_windows(), 4, np.random.default_rng(8))
        (picked,) = seen
        return float(loss.data), stats, picked

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("where", ["flow", "decoder"])
    def test_batch_loss_gives_the_float64_selection(self, monkeypatch, where):
        model = self.overflowing_model(where)
        windows = mixed_windows()
        with nc.no_grad():
            _, st = model.encode_windows(windows, training=True)
        z = base_draws(model.flow.channels, 4, 1.0, [np.random.default_rng(8)] * len(windows))
        reverse32 = functools.partial(
            model.flow.cast(np.float32).reverse, nc.cast(z, np.float32), nc.cast(st, np.float32), np.arange(len(z)) // 4
        )
        with nc.no_grad(), np.errstate(all="ignore"):
            if where == "flow":
                with pytest.raises(FlowNumericsError):
                    reverse32()
            else:
                assert np.all(np.isfinite(reverse32().data))
        loss, stats, (winners, _, fell_back) = self.run_batch_loss(monkeypatch, model, np.float32)
        ref_loss, ref_stats, (ref_winners, _, ref_fell_back) = self.run_batch_loss(monkeypatch, model, np.float64)
        assert fell_back and stats["selection_fallback"]
        assert not ref_fell_back and not ref_stats["selection_fallback"]
        assert all(np.array_equal(a, b) for a, b in zip(winners, ref_winners))
        assert np.isfinite(ref_loss) and loss == ref_loss
        assert {k: stats[k] for k in ("l_p", "l_traj", "l_total")} == {
            k: ref_stats[k] for k in ("l_p", "l_traj", "l_total")
        }
