"""The benchmark's per-layer rows still see the program's layers.

`bench/spans.Tracer` wraps callables where their callers look them up. A
refactor that moves a call past a wrapped name leaves that layer's row at
zero calls without failing anything, so these toy runs of `evaluate` and
`train` require every layer on their path to record a call.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402
from stglow import numcore as nc  # noqa: E402
from stglow import pipeline as pl  # noqa: E402
from stglow.config import toy_config  # noqa: E402
from stglow.data import SYNTH_KINDS, SynthSpec, synth_scenes  # noqa: E402

SHARED = ("model.encode_windows", "flow.reverse", "decoder.decode_batch")


def tiny(out_dir):
    cfg = toy_config(seed=3)
    cfg.model.d, cfg.model.d_h, cfg.model.n_heads = 16, 16, 2
    cfg.train.epochs, cfg.train.batch, cfg.train.k_train = 1, 8, 4
    cfg.data.synth_count = 6
    cfg.train.out_dir = str(out_dir)
    return cfg


def run_evaluate(tmp_path):
    cfg = tiny(tmp_path)
    model = pl.build_model(cfg)
    windows = synth_scenes(SynthSpec(kinds=SYNTH_KINDS, count=3, seed=42))
    with nc.no_grad():
        mb, st = model.encode_windows(windows, training=True)
    model.flow.initialize(mb.data, st.data)
    pl.evaluate(model, {"a": windows, "b": windows[:2]}, k=3, sigma=1.0, seed=0)


def run_train(tmp_path):
    pl.train(tiny(tmp_path))


@pytest.mark.parametrize(
    "job,layers",
    [
        (run_evaluate, ("pipeline.evaluate", "metrics.best_of_k") + SHARED),
        (run_train, ("pipeline.train", "model.batch_loss") + SHARED),
    ],
    ids=["evaluate", "train"],
)
def test_every_layer_on_the_path_records_calls(tmp_path, job, layers):
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        job(tmp_path)
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in spans.layer_table(rec.spans, range(len(rec.spans))).items()}
    for layer in layers:
        assert calls[layer] >= 1, layer
