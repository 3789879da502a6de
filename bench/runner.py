"""Untraced and traced runs of one workload, and what they print.

The last line printed is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import spans
import workloads as wl
from refclock import REF_SECONDS, RefClock


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line), flush=True)


def set_up(workload: wl.Workload, seed: int, work: Path, clock: RefClock) -> tuple[wl.State, list[float]]:
    times = []
    for _ in range(wl.SETUP_REPEATS):
        with clock.timed() as clk:
            state = wl.setup(workload, seed, work, clock)
        times.append(clk.seconds)
    return state, times


def finish(tally: wl.Tally, extra_problems: list[str]) -> bool:
    problems = tally.problems + wl.determinism_problems(tally) + extra_problems
    for p in problems:
        print(f"problem: {p}", flush=True)
    return tally.failed == 0 and not problems


def untraced_run(workload: wl.Workload, seed: int, seconds: float, work: Path) -> int:
    """Set-up three times, then the timed jobs; every end-to-end metric."""
    clock = RefClock(ticking=True)
    state, setup_s = set_up(workload, seed, work, clock)
    tally = wl.timed_pass(state, seconds)
    wl.round_trip_check(state, tally)
    metrics = wl.end_to_end(state, setup_s, tally)
    units = {name: unit for name, unit, _, _ in wl.END_TO_END}
    for name, (value, note) in metrics.items():
        print(f"metric {name:<20} {value:>14.6g} {units[name]:<6} ({note})", flush=True)
    for name in wl.GUARDS:  # all digits, so that runs of two commits on one seed can be compared
        print(f"guard {name} {metrics[name][0]!r}", flush=True)
    print(f"reference kernel: median {1000 * statistics.median(clock.refs):.4f} ms over {len(clock.refs)} "
          f"runs; the times above are rescaled to {1000 * REF_SECONDS:g} ms", flush=True)
    correct = finish(tally, [])
    emit(correct, tally.attempted, tally.failed, {n: (v, units[n]) for n, (v, _) in metrics.items()})
    return 0 if correct else 1


def traced_run(workload: wl.Workload, seed: int, seconds: float, work: Path) -> int:
    """Set-up and one pass traced; the same jobs untraced first, for the overhead."""
    clock = RefClock(ticking=False)
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        state, _ = set_up(workload, seed, work, clock)
    finally:
        tracer.uninstall()
    base = wl.timed_pass(state, seconds)
    plain_kernel = clock.kernel

    def kernel():  # the reference runs are the benchmark's own time, not a layer's
        with rec.span("bench.reference"):
            plain_kernel()

    clock.kernel = kernel
    tracer.install()
    try:
        with rec.span("bench.timed"):
            tally = wl.timed_pass(state, replay=base.jobs)
    finally:
        tracer.uninstall()
        clock.kernel = plain_kernel
    root = max(i for i, s in enumerate(rec.spans) if s.name == "bench.timed")
    wl.round_trip_check(state, tally)
    metrics = spans.traced_metrics(rec, root, overhead=tally.busy / base.busy)

    table = spans.layer_table(rec.spans, range(len(rec.spans)))
    total_self = sum(row["self_s"] for row in table.values())
    print(f"layer {'name':<34} {'calls':>8} {'self_s':>10} {'share':>7}", flush=True)
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / total_self if total_self else 0.0
        print(f"layer {layer:<34} {row['calls']:>8d} {row['self_s']:>10.4f} {share:>7.1%}", flush=True)
    for note in sanity_notes(rec, root, state):
        print(f"note: {note}", flush=True)
    coverage = metrics["trace.coverage"][0]
    print(f"trace: coverage {coverage:.4f}; overhead {metrics['trace.overhead'][0]:.4f} "
          f"({tally.busy:.3f} s traced vs {base.busy:.3f} s untraced, at the reference speed)", flush=True)
    gap = spans.coverage_problem(coverage)
    correct = finish(tally, [gap] if gap else [])
    emit(correct, tally.attempted, tally.failed, metrics)
    return 0 if correct else 1


def sanity_notes(rec: spans.Recorder, root: int, state: wl.State) -> list[str]:
    """Baseline expectations, printed rather than enforced: the perf work the
    benchmark exists to judge is expected to change them."""
    timed = spans.descendants(rec.spans, root)
    table = spans.layer_table(rec.spans, timed)
    scenes = table["model.predict_all_pedestrians"]["calls"]
    notes = []
    if scenes:
        n = wl.CROWD_N
        hist = sum(
            1
            for i in timed
            if rec.spans[i].name == "graphormer.tg_hist" and in_crowd_call(rec.spans, i)
        )
        notes.append(f"graphormer.tg_hist calls per crowd scene: {hist / scenes:g} (N^2 = {n * n})")
    top = max(table.items(), key=lambda kv: kv[1]["self_s"])[0]
    notes.append(f"largest self time in the timed pass: {top}")
    return notes


def in_crowd_call(all_spans: list[spans.Span], i: int) -> bool:
    p = all_spans[i].parent
    while p >= 0:
        if all_spans[p].name == "model.predict_all_pedestrians":
            return True
        p = all_spans[p].parent
    return False
