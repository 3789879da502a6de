"""Span tracing of stglow's layers, installed from outside the program.

Each wrapper replaces a callable where its caller looks it up (a module
attribute or a class attribute), records a span (name, start, end, parent)
and calls through. Spans are kept in memory. A span's self time is its
duration minus the time its child spans cover; calls are single-threaded,
so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# Every layer span the tracer records, in report order. The benchmark's own
# spans are named "bench.*" and are not layers.
LAYERS = (
    "pipeline.train",
    "pipeline.evaluate",
    "pipeline.build_model",
    "pipeline.restore_model",
    "model.encode_windows",
    "model.batch_loss",
    "model.predict",
    "model.predict_all_pedestrians",
    "graphormer.tg_full",
    "graphormer.tg_hist",
    "graphormer.tg_target",
    "graphormer.sg",
    "flow.initialize",
    "flow.forward",
    "flow.reverse",
    "numcore.logabsdet",
    "numcore.inverse",
    "numcore.backward",
    "numcore.adam_step",
    "decoder.decode_batch",
    "decoder.trajectory_loss_batched",
    "metrics.best_of_k",
    "checkpoint.save",
    "checkpoint.load",
    "data.synth_scenes",
    "data.load_windows",
)

# Counts recorded at layer boundaries, reported as their mean per event:
# tape nodes per numcore.backward call (one per optimizer step) and file
# size per checkpoint.save call.
COUNTS = {"numcore.tape_nodes": "count", "checkpoint.save.bytes": "bytes"}

COVERAGE_MIN = 0.9  # layer self times must account for this share of the traced wall


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    out += list(COUNTS.items())
    return out + [("trace.coverage", "ratio"), ("trace.overhead", "ratio")]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


class Recorder:
    """In-memory span and count store with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=self._open[-1] if self._open else -1))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of the spans nested anywhere under `root` (parents precede children)."""
    inside = [False] * len(spans)
    inside[root] = True
    out = []
    for i in range(root + 1, len(spans)):
        p = spans[i].parent
        if p >= 0 and inside[p]:
            inside[i] = True
            out.append(i)
    return out


def layer_table(spans: list[Span], indices: list[int]) -> dict[str, dict[str, float]]:
    """{layer: {"self_s", "calls"}} over the given spans, zero rows included."""
    own = self_times(spans)
    table = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for i in indices:
        row = table.get(spans[i].name)
        if row is not None:
            row["self_s"] += own[i]
            row["calls"] += 1
    return table


def coverage(spans: list[Span], root: int) -> float:
    """Share of the root span's duration, less the benchmark's own "bench.*"
    spans inside it, that layer self times account for."""
    inside = descendants(spans, root)
    table = layer_table(spans, inside)
    own = sum(spans[i].end - spans[i].start for i in inside if spans[i].name.startswith("bench."))
    wall = spans[root].end - spans[root].start - own
    return sum(row["self_s"] for row in table.values()) / wall if wall > 0 else 0.0


def coverage_problem(value: float) -> str | None:
    """Why a traced run fails its coverage gate, or None if it passes."""
    if value >= COVERAGE_MIN:
        return None
    return f"trace.coverage {value:.3f} < {COVERAGE_MIN}: the layer rows do not add up to the traced wall time"


def traced_metrics(rec: Recorder, root: int, overhead: float) -> dict[str, tuple[float, str]]:
    """{name: (value, unit)} for every per-layer metric, in report order.

    Layer rows cover every recorded span (set-up included); coverage refers
    to the `root` span, a traced pass; `overhead` is its time over that of
    an untraced pass over the same jobs.
    """
    out: dict[str, tuple[float, str]] = {}
    for layer, row in layer_table(rec.spans, range(len(rec.spans))).items():
        out[f"{layer}.self_s"] = (row["self_s"], "s")
        out[f"{layer}.calls"] = (row["calls"], "count")
    for name, unit in COUNTS.items():
        values = rec.counts.get(name, [])
        out[name] = (sum(values) / len(values) if values else 0.0, unit)
    out["trace.coverage"] = (coverage(rec.spans, root), "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out


class Tracer:
    """Installs and removes the layer wrappers around one Recorder."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []
        # the three temporal graphormers share a class; name them per instance
        self._tg_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _wrap(self, name_of, fn, after=None):
        rec = self.rec

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with rec.span(name_of(args)):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args)
            return out

        return traced

    def _patch(self, owner, attr: str, name: str | None = None, name_of=None, after=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name_of or (lambda _a: name), original, after))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from stglow import checkpoint, data, decoder, flow, graphormer, model, numcore, pipeline

        rec = self.rec
        names = self._tg_names
        p = self._patch
        p(pipeline, "train", "pipeline.train")
        p(pipeline, "evaluate", "pipeline.evaluate")
        p(pipeline, "build_model", "pipeline.build_model")
        p(pipeline, "restore_model", "pipeline.restore_model")
        p(model.TrajectoryModel, "encode_windows", "model.encode_windows")
        p(model.TrajectoryModel, "batch_loss", "model.batch_loss")
        p(model.TrajectoryModel, "predict", "model.predict")
        p(model.TrajectoryModel, "predict_all_pedestrians", "model.predict_all_pedestrians")
        p(graphormer.TemporalGraphormer, "__call__", name_of=lambda a: names.get(a[0], "graphormer.temporal"))
        p(graphormer.SpatialGraphormer, "__call__", "graphormer.sg")
        p(flow.FlowStack, "initialize", "flow.initialize")
        p(flow.FlowStack, "forward", "flow.forward")
        p(flow.FlowStack, "reverse", "flow.reverse")
        # flow.py calls these through the numcore module; Adam.step looks up
        # adam_step in numcore's globals; pipeline calls nc.backward
        p(numcore, "logabsdet", "numcore.logabsdet")
        p(numcore, "inverse", "numcore.inverse")
        p(numcore, "backward", "numcore.backward", after=lambda a: rec.count("numcore.tape_nodes", len(a[1].nodes)))
        p(numcore, "adam_step", "numcore.adam_step")
        p(decoder.BidirectionalDecoder, "decode_batch", "decoder.decode_batch")
        # names imported into a caller's namespace are wrapped there
        p(model, "trajectory_loss_batched", "decoder.trajectory_loss_batched")
        p(pipeline, "best_of_k", "metrics.best_of_k")
        save_bytes = lambda a: rec.count("checkpoint.save.bytes", Path(a[1]).stat().st_size)  # noqa: E731
        p(pipeline, "save_checkpoint", "checkpoint.save", after=save_bytes)
        p(checkpoint, "save_checkpoint", "checkpoint.save", after=save_bytes)
        p(checkpoint, "load_checkpoint", "checkpoint.load")
        p(pipeline, "synth_scenes", "data.synth_scenes")
        p(data, "synth_scenes", "data.synth_scenes")
        p(data, "load_windows", "data.load_windows")

        encoder_init = graphormer.SceneEncoder.__init__

        @functools.wraps(encoder_init)
        def named_init(enc, *args, **kwargs):
            encoder_init(enc, *args, **kwargs)
            for attr in ("tg_full", "tg_hist", "tg_target"):
                names[getattr(enc, attr)] = f"graphormer.{attr}"

        self._saved.append((graphormer.SceneEncoder, "__init__", encoder_init))
        graphormer.SceneEncoder.__init__ = named_init

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
