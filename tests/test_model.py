"""The batched encoder path of `TrajectoryModel`, under every ablation switch.

Windows are encoded in stacks of equal scene size, and a crowd forecast
re-targets all N pedestrians in one pass. These tests hold that path to
what encoding and forecasting one window at a time gives.
"""

import dataclasses

import numpy as np
import pytest

from stglow import metrics as mt
from stglow import numcore as nc
from stglow import pipeline as pl
from stglow.config import toy_config
from stglow.data import SYNTH_KINDS, SceneWindow, SynthSpec, synth_scenes
from stglow.errors import ContractError
from stglow.model import TrajectoryModel

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


def test_evaluate_equals_a_per_window_loop():
    """Also past one chunk: no forecast holds more than EVAL_CHUNK windows."""
    model = make_model(None)
    data = {"empty": [], "s": (shuffled_windows(48) * (pl.EVAL_CHUNK // 12 + 2))[:-1]}
    n, step = len(data["s"]), pl.EVAL_CHUNK
    assert n > step and n % step  # several chunks, the last one short
    ref = mt.EvalReport()
    for d_idx, name in enumerate(sorted(data)):
        scores = []
        for w_idx, w in enumerate(data[name]):
            preds = model.predict(w, 20, 1.0, pl.rng_stream(5, pl.STREAM_EVAL, d_idx, w_idx))
            scores.append(mt.best_of_k(preds, w.world_fut()[w.target_index]))
        if scores:
            ref.add(name, 20, [a for a, _ in scores], [f for _, f in scores])
    sizes = []
    forecast = model.forecast
    model.forecast = lambda ws, *args: sizes.append(len(ws)) or forecast(ws, *args)
    report = pl.evaluate(model, data, k=20, sigma=1.0, seed=5)
    assert sizes == [min(step, n - i) for i in range(0, n, step)]
    assert len(report.rows) == 1
    assert report.to_csv() == ref.to_csv()
    assert (report.rows[0].ade, report.rows[0].fde) == (ref.rows[0].ade, ref.rows[0].fde)


@pytest.mark.parametrize("switches_on", [True, False], ids=["use_all", "use_none"])
def test_every_parameter_is_trainable_when_built(switches_on):
    cfg = toy_config(seed=4)
    for name in vars(cfg.model):
        if name.startswith("use_"):
            setattr(cfg.model, name, switches_on)
    params = pl.build_model(cfg).params()
    assert params
    assert [k for k, p in params.items() if not p.requires_grad] == []


def test_empty_input_is_a_contract_error():
    model = make_model(None)
    with pytest.raises(ContractError):
        model.encode_windows([], training=False)
    with pytest.raises(ContractError):
        model.forecast([], 20, 1.0, [])


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
