"""Self-tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import crowd  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stglow import data, numcore, pipeline  # noqa: E402


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n_peds,n_scenes", [(1, 1), (5, 3), (32, 2)])
def test_crowd_file_loads_as_requested(tmp_path, n_peds, n_scenes):
    path = tmp_path / "crowd.txt"
    crowd.write_crowd_file(path, n_peds, n_scenes, frames=20, seed=3)
    windows = data.load_windows(path, t_obs=8, t_pred=12)
    assert len(windows) == n_peds * n_scenes
    assert all(w.n_pedestrians == n_peds for w in windows)
    assert sorted(w.target_index for w in windows) == sorted(list(range(n_peds)) * n_scenes)


def test_crowd_file_is_seed_determined(tmp_path):
    a, b, c = (tmp_path / f"{k}.txt" for k in "abc")
    crowd.write_crowd_file(a, 4, 2, 20, seed=1)
    crowd.write_crowd_file(b, 4, 2, 20, seed=1)
    crowd.write_crowd_file(c, 4, 2, 20, seed=2)
    assert a.read_text() == b.read_text() != c.read_text()


def test_benchmark_json_matches_the_code():
    doc = benchmark_json()
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.per_layer_metrics()
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_emitted_end_to_end_names_match():
    t = workloads.Tally(
        train_s=[8.0], train_loss=[1.0], eval_s=[6.0], eval_scores=[(3.0, 4.0)],
        predict_s=[0.3] * 30, crowd_s=[0.4], attempted=10,
    )
    state = workloads.State(workloads.WORKLOADS["eval_paper"], 1, None, {}, [None] * 16, [])
    out = workloads.end_to_end(state, [1.0, 2.0, 3.0], t)
    assert list(out) == [m["name"] for m in benchmark_json()["end_to_end"]]
    assert all(value > 0 for value, _ in out.values())


def test_emitted_per_layer_names_match():
    rec = fake_recorder([("bench.timed", 0.0, 10.0, -1), ("pipeline.train", 0.0, 10.0, 0)])
    out = spans.traced_metrics(rec, 0, overhead=1.0)
    assert list(out) == [m["name"] for m in benchmark_json()["per_layer"]]


def fake_recorder(rows) -> spans.Recorder:
    rec = spans.Recorder()
    rec.spans = [spans.Span(name, start, end, parent) for name, start, end, parent in rows]
    return rec


def test_self_time_subtracts_children():
    rows = [
        ("bench.timed", 0, 10, -1),
        ("pipeline.train", 1, 9, 0),
        ("flow.forward", 2, 4, 1),
        ("numcore.inverse", 2.5, 3, 2),
    ]
    own = spans.self_times(fake_recorder(rows).spans)
    assert own == pytest.approx([2.0, 6.0, 1.5, 0.5])


def test_coverage_gate_trips_on_a_gap():
    covered = fake_recorder([("bench.timed", 0, 10, -1), ("pipeline.train", 0, 9.5, 0)])
    gap = fake_recorder([("bench.timed", 0, 10, -1), ("pipeline.train", 0, 4, 0), ("model.predict", 6, 10, 0)])
    assert spans.coverage(covered.spans, 0) == pytest.approx(0.95)
    assert spans.coverage_problem(spans.coverage(covered.spans, 0)) is None
    assert spans.coverage(gap.spans, 0) == pytest.approx(0.8)
    assert "coverage" in spans.coverage_problem(spans.coverage(gap.spans, 0))
    # the benchmark's own spans are taken out of the wall time, not counted as covered
    own = fake_recorder([("bench.timed", 0, 10, -1), ("pipeline.train", 0, 8, 0), ("bench.reference", 8, 10, 0)])
    assert spans.coverage(own.spans, 0) == pytest.approx(1.0)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    pct = workloads.tail_percentile(40)
    value = workloads.percentile(list(range(40)), pct)
    assert (value, pct) == (29, 75)
    assert sum(1 for x in range(40) if x > value) == 10
    assert workloads.tail_percentile(48) == 79
    # more samples of the same mix: the same percentile, so the same statistic
    assert workloads.percentile(list(range(80)), pct) == 59
    with pytest.raises(ValueError):
        workloads.tail_percentile(10)


def test_fill_job_runs_whole_passes():
    state = workloads.State(workloads.WORKLOADS["eval_paper"], 1, None, {}, [None] * 3, [None] * 2)
    seen = []
    real = workloads.RUN
    workloads.RUN = {job: (lambda s, t, i, job=job: seen.append((job, i))) for job in workloads.JOBS}
    try:
        tally = workloads.timed_pass(state, seconds=0.0)
    finally:
        workloads.RUN = real
    predicts = [i for job, i in seen if job == "predict"]
    assert predicts == list(range(2 * 3))  # the workload's two passes over three windows, no partial pass
    assert tally.jobs.count("crowd") == workloads.PROBES["crowd"] * 2
    assert tally.jobs.count("train") == workloads.PROBES["train"]


def test_tracer_records_layers_and_restores_originals():
    from stglow.config import toy_config

    before = (pipeline.build_model, numcore.inverse, pipeline.save_checkpoint)
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        model = pipeline.build_model(toy_config())
        window = data.synth_scenes(data.SynthSpec(kinds=("crossing_pair",), count=1))[0]
        model.flow.initialize(*(np.random.default_rng(0).normal(size=(8, 32)) for _ in range(2)))
        model.predict(window, 2, 1.0, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert (pipeline.build_model, numcore.inverse, pipeline.save_checkpoint) == before
    assert all(s.end >= s.start for s in rec.spans)
    calls = {name: row["calls"] for name, row in spans.layer_table(rec.spans, range(len(rec.spans))).items()}
    assert calls["pipeline.build_model"] == 1
    assert calls["model.predict"] == 1
    # how often the inner layers run is the program's business; that they are seen is the tracer's
    for layer in ("graphormer.tg_hist", "graphormer.tg_target", "graphormer.sg", "flow.reverse", "numcore.inverse"):
        assert calls[layer] >= 1, layer


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crowd_toy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rescale_leaves_out_kernel_runs_and_follows_the_speed():
    from refclock import REF_SECONDS, rescale

    ref = REF_SECONDS
    assert rescale(0.0, 10.0, ref, [(4.0, 5.0, ref)], ref) == pytest.approx(9.0)
    # a host running at half speed from the middle on: the second half counts half
    scaled = rescale(0.0, 10.0, ref, [(5.0, 5.0, 2 * ref)], 2 * ref)
    assert scaled == pytest.approx(5.0 * 1.0 / 1.5 + 5.0 * 0.5)


@pytest.mark.parametrize("ticking", [True, False])
def test_refclock_measures_the_kernel_around_and_inside_a_sample(ticking):
    import time

    from refclock import TICK_SECONDS, RefClock

    clock = RefClock(ticking)
    with clock.timed() as sample:
        end = time.perf_counter() + 3 * TICK_SECONDS
        while time.perf_counter() < end:
            pass
    if ticking:
        assert len(clock.refs) >= 4  # before, after and at least two ticks
    else:
        assert len(clock.refs) == 2
    assert sample.seconds > 0
