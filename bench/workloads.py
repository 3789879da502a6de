"""The benchmark's workloads: inputs from a seed, set-up, timed jobs, checks.

There are four jobs, those of a user session:

- train:    one `pipeline.train(cfg)` call, two optimizer steps of B=32 with
            K=20, checkpoints on, timed whole;
- evaluate: one `pipeline.evaluate(..., k=20)` call over sparse synthetic
            windows (at most 3 pedestrians);
- predict:  one `model.predict` call, K=20, on one of those windows;
- crowd:    one `model.predict_all_pedestrians(..., k=20)` call on a crowd
            scene read with `data.load_windows`.

Jobs run in whole passes over their inputs: a pass of train or evaluate is
one call, a pass of predict one call per eval window, a pass of crowd one
call per crowd scene. So every pass weighs each input the same, however
fast the program is. A workload runs the jobs it is about at its model
scale, one of them (the fill job) in further whole passes while the next
pass should end within the measured seconds. Every run must report every
end-to-end metric, so the other jobs run as short probes on the toy-scale
model.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stglow import checkpoint, data, numcore, pipeline
from stglow.config import Config, toy_config
from stglow.data import SYNTH_KINDS, SceneWindow, SynthSpec
from stglow.errors import StglowError

import crowd
from refclock import RefClock

K = 20  # futures per forecast, the paper's best-of-20 protocol
BATCH = 32
TRAIN_SCENES = 40  # 40 scenes of the five kinds give 64 windows: two steps of 32
TRAIN_WINDOWS = 64
# The model's initial weights are part of the workload, like a fixed
# checkpoint; the seed draws the data and the sampling noise. Drawing the
# weights from the seed too doubles the seed-to-seed spread of min_fde_k20.
MODEL_SEED = 0
# 1e-4, not the default 1e-3: at 1e-3 the untrained paper-scale model's
# second-step loss swings between ~5k and ~20k from seed to seed, so the
# loss could not serve as a drift guard across seeds.
TRAIN_LR = 1e-4
EVAL_POOL_SCENES = 40  # synthetic scenes per kind the eval windows are drawn from
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SETUP_REPEATS = 3
ROUND_TRIP_ROWS = 4
ROUND_TRIP_TOL = 1e-9
JOBS = ("train", "evaluate", "predict", "crowd")
PROBES = {"train": 3, "evaluate": 5, "predict": 2, "crowd": 1}  # toy-scale passes of the other jobs
TAIL_ABOVE = 10  # samples above the percentile reported as predict_ms_tail
CROWD_N = 32  # pedestrians per crowd scene


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str  # "paper": ModelConfig defaults; "toy": toy_config()
    focus: dict  # {job: at least this many passes}, run at `scale`
    fill: str  # the focus job repeated in whole passes until the measured seconds are used up
    eval_windows: int  # sparse windows evaluated and forecast
    crowd_scenes: int  # scenes in the crowd track file


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_paper", "paper", focus={"train": 2}, fill="train", eval_windows=24, crowd_scenes=2),
        Workload(
            "eval_paper", "paper", focus={"evaluate": 1, "predict": 2}, fill="predict", eval_windows=24, crowd_scenes=2
        ),
        Workload("crowd_toy", "toy", focus={"crowd": 1}, fill="crowd", eval_windows=64, crowd_scenes=8),
    )
}

# (name, unit, better, bound), in report order. On a 2-vCPU VM whose speed
# drifts (see refclock.py), the quartile spreads over ten seeds, in two sets,
# were at most 0.175 for a timing (bound 0.24) and 0.182 for setup_s (bound
# 0.25, the largest). The guards' bounds follow their seed-to-seed spread: above the
# 99th percentile of it over random ten-seed sets (see bench/README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_windows_per_s", "1/s", "higher", 0.24),
    ("train_loss_end", "loss", "lower", 0.15),
    ("eval_windows_per_s", "1/s", "higher", 0.24),
    ("min_ade_k20", "m", "lower", 0.12),
    ("min_fde_k20", "m", "lower", 0.22),
    ("predict_ms_p50", "ms", "lower", 0.24),
    ("predict_ms_tail", "ms", "lower", 0.24),
    ("crowd_peds_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "ratio", "higher", 0.05),
)


def sub_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def make_config(scale: str, seed: int, out_dir: Path) -> Config:
    cfg = Config(seed=MODEL_SEED) if scale == "paper" else toy_config(MODEL_SEED)
    t = cfg.train
    t.batch, t.k_train, t.epochs, t.val_fraction = BATCH, K, 1, 0.0
    t.lr, t.lr_schedule, t.grad_clip = TRAIN_LR, "constant", 0.0
    t.checkpoint_every, t.out_dir = 1, str(out_dir)
    d = cfg.data
    d.format, d.synth_kinds, d.synth_count, d.synth_seed = "synth", SYNTH_KINDS, TRAIN_SCENES, sub_seed(seed, 1)
    return cfg


def rotated(w: SceneWindow, angle: float) -> SceneWindow:
    """The whole scene turned by `angle` about the world origin."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return dataclasses.replace(w, obs=w.obs @ rot.T, fut=w.fut @ rot.T, origin=w.origin @ rot.T)


def stratified_eval_windows(seed: int, count: int, t_obs: int, t_pred: int) -> list[SceneWindow]:
    """`count` sparse windows: the five scene kinds in turn, and per kind
    true final displacements spread evenly in length and in direction.

    Per kind, the windows sit at evenly spaced quantiles of the displacement
    lengths in a seed-drawn pool, and each is turned so that the directions
    of all `count` follow a golden-ratio sequence from a seed-drawn start.
    An untrained model's min-ADE/FDE depends mostly on how far and which way
    the target walks, and a forecast's cost on how many pedestrians the
    scene holds, so this keeps both from swinging with what one seed drew.
    """
    start = np.random.default_rng([seed, 8]).uniform(0.0, 2.0 * math.pi)
    out: list[SceneWindow] = [None] * count
    for k, kind in enumerate(SYNTH_KINDS):
        slots = range(k, count, len(SYNTH_KINDS))
        spec = SynthSpec(kinds=(kind,), count=EVAL_POOL_SCENES, seed=sub_seed(seed, 20 + k), t_obs=t_obs, t_pred=t_pred)
        pool = data.synth_scenes(spec)
        ends = np.array([w.fut[w.target_index, -1] for w in pool])
        order = np.argsort(np.linalg.norm(ends, axis=1), kind="stable")
        for rank, i in enumerate(slots):
            j = order[int((rank + 0.5) * len(pool) / len(slots))]
            want = start + 2.0 * math.pi * ((i * GOLDEN) % 1.0)
            out[i] = rotated(pool[j], want - math.atan2(ends[j, 1], ends[j, 0]))
    return out


@dataclass
class State:
    """Everything set-up produces for the timed jobs."""

    workload: Workload
    seed: int
    clock: RefClock
    models: dict  # {scale: (config, restored model)}
    eval_windows: list[SceneWindow]
    crowd: list[SceneWindow]

    def scale_of(self, job: str) -> str:
        return self.workload.scale if job in self.workload.focus else "toy"

    def at(self, job: str) -> tuple[Config, object]:
        """The config and model `job` runs with in this workload."""
        return self.models[self.scale_of(job)]

    def per_pass(self, job: str) -> int:
        return {"predict": len(self.eval_windows), "crowd": len(self.crowd)}.get(job, 1)

    def passes(self, job: str) -> int:
        """The passes of `job` that every run makes."""
        return self.workload.focus.get(job, PROBES[job])


def setup(w: Workload, seed: int, work: Path, clock: RefClock) -> State:
    """Inputs from the seed; per model scale in use, the model built,
    PatternNorm-initialised, written to a checkpoint and restored from it,
    and one warm-up forecast."""
    models = {}
    for scale in dict.fromkeys((w.scale, "toy")):
        cfg = make_config(scale, seed, work / f"train-{scale}")
        m = cfg.model
        d = cfg.data
        train_windows = data.synth_scenes(
            SynthSpec(SYNTH_KINDS, d.synth_count, d.synth_seed, d.synth_noise, m.t_obs, m.t_pred)
        )
        if len(train_windows) != TRAIN_WINDOWS:
            raise RuntimeError(f"expected {TRAIN_WINDOWS} training windows, got {len(train_windows)}")
        model = pipeline.build_model(cfg)
        with numcore.no_grad():
            mb, st = model.encode_windows(train_windows, training=True)
        model.flow.initialize(mb.data, st.data)
        ckpt_path = work / f"setup-{scale}.ckpt"
        checkpoint.save_checkpoint(pipeline.snapshot(model, cfg, None, 0), ckpt_path)
        models[scale] = (cfg, pipeline.restore_model(checkpoint.load_checkpoint(ckpt_path)))

    t_obs, t_pred = m.t_obs, m.t_pred  # the same at both scales
    eval_windows = stratified_eval_windows(seed, w.eval_windows, t_obs, t_pred)
    crowd_path = work / "crowd.txt"
    crowd.write_crowd_file(crowd_path, CROWD_N, w.crowd_scenes, t_obs + t_pred, sub_seed(seed, 3))
    crowd_windows = [cw for cw in data.load_windows(crowd_path, t_obs, t_pred) if cw.target_index == 0]
    if len(crowd_windows) != w.crowd_scenes or any(cw.n_pedestrians != CROWD_N for cw in crowd_windows):
        raise RuntimeError("crowd file did not load as the requested scenes")
    for _, model in models.values():
        model.predict(eval_windows[0], K, 1.0, np.random.default_rng([seed, 4]))
    return State(w, seed, clock, models, eval_windows, crowd_windows)


@dataclass
class Tally:
    """Timed samples and operation outcomes of one pass over the jobs."""

    train_s: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    eval_scores: list[tuple[float, float]] = field(default_factory=list)
    predict_s: list[float] = field(default_factory=list)
    crowd_s: list[float] = field(default_factory=list)  # seconds per pedestrian
    busy: float = 0.0  # all timed samples, at the reference speed
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    jobs: list[str] = field(default_factory=list)  # the job sequence, to replay it

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def good_array(a, shape: tuple[int, ...]) -> bool:
    return isinstance(a, np.ndarray) and a.shape == shape and bool(np.all(np.isfinite(a)))


def train_job(s: State, t: Tally, _i: int) -> None:
    steps = TRAIN_WINDOWS // BATCH
    cfg, _ = s.at("train")
    t.attempted += steps
    try:
        with s.clock.timed() as clk:
            result = pipeline.train(cfg)
    except StglowError as exc:
        t.fail(steps, f"train raised {type(exc).__name__}: {exc}")
        return
    t.busy += clk.seconds
    if result.aborted:
        t.fail(steps, "train aborted on a non-finite loss")
        return
    if result.skipped_steps:
        t.fail(result.skipped_steps, f"train skipped {result.skipped_steps} steps")
    loss = result.history[-1]["l_total"]
    if not math.isfinite(loss):
        t.fail(steps, "non-finite training loss")
        return
    t.train_s.append(clk.seconds)
    t.train_loss.append(loss)


def evaluate_job(s: State, t: Tally, _i: int) -> None:
    n = len(s.eval_windows)
    _, model = s.at("evaluate")
    t.attempted += n
    try:
        with s.clock.timed() as clk:
            report = pipeline.evaluate(model, {"synth": s.eval_windows}, k=K, sigma=1.0, seed=s.seed)
    except StglowError as exc:
        t.fail(n, f"evaluate raised {type(exc).__name__}: {exc}")
        return
    t.busy += clk.seconds
    row = report.rows[0]
    if row.n_instances != n or not (math.isfinite(row.ade) and math.isfinite(row.fde)):
        t.fail(n, f"evaluate reported {row}")
        return
    t.eval_s.append(clk.seconds)
    t.eval_scores.append((row.ade, row.fde))


def predict_job(s: State, t: Tally, i: int) -> None:
    w = s.eval_windows[i % len(s.eval_windows)]
    cfg, model = s.at("predict")
    t.attempted += 1
    try:
        with s.clock.timed() as clk:
            preds = model.predict(w, K, 1.0, np.random.default_rng([s.seed, 5, i]))
    except StglowError as exc:
        t.fail(1, f"predict raised {type(exc).__name__}: {exc}")
        return
    t.busy += clk.seconds
    if good_array(preds, (K, cfg.model.t_pred, 2)):
        t.predict_s.append(clk.seconds)
    else:
        t.fail(1, f"predict returned a bad array for call {i}")


def crowd_job(s: State, t: Tally, i: int) -> None:
    w = s.crowd[i % len(s.crowd)]
    n = w.n_pedestrians
    cfg, model = s.at("crowd")
    t.attempted += n
    try:
        with s.clock.timed() as clk:
            preds = model.predict_all_pedestrians(w, K, 1.0, np.random.default_rng([s.seed, 6, i]))
    except StglowError as exc:
        t.fail(n, f"predict_all_pedestrians raised {type(exc).__name__}: {exc}")
        return
    t.busy += clk.seconds
    if good_array(preds, (n, K, cfg.model.t_pred, 2)):
        t.crowd_s.append(clk.seconds / n)
    else:
        t.fail(n, f"predict_all_pedestrians returned a bad array for call {i}")


RUN = {"train": train_job, "evaluate": evaluate_job, "predict": predict_job, "crowd": crowd_job}


def timed_pass(s: State, seconds: float | None = None, replay: list[str] | None = None) -> Tally:
    """The toy-scale probes and the focus jobs, then further whole passes of
    the fill job for as long as the next should end within `seconds`; or,
    with `replay`, exactly the jobs of an earlier pass."""
    t = Tally()
    calls = dict.fromkeys(JOBS, 0)

    def run(job: str) -> None:
        RUN[job](s, t, calls[job])
        calls[job] += 1
        t.jobs.append(job)

    if replay is not None:
        for job in replay:
            run(job)
        return t
    w = s.workload
    deadline = time.perf_counter() + seconds
    for job in JOBS:
        for _ in range(s.passes(job) * s.per_pass(job) if job != w.fill else 0):
            run(job)
    done, last = 0, 0.0
    while done < s.passes(w.fill) or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        for _ in range(s.per_pass(w.fill)):
            run(w.fill)
        last = time.perf_counter() - t0
        done += 1
    return t


def round_trip_check(s: State, t: Tally) -> None:
    """flow.forward(flow.reverse(z, st), st) == z on a subset of the eval rows."""
    t.attempted += 1
    rows = s.eval_windows[:ROUND_TRIP_ROWS]
    rng = np.random.default_rng([s.seed, 7])
    cfg, model = s.models[s.workload.scale]
    try:
        with numcore.no_grad():
            _, st = model.encode_windows(rows, training=False)
            z = numcore.Tensor(rng.standard_normal((len(rows), cfg.model.d)))
            back, _ = model.flow.forward(model.flow.reverse(z, st), st)
    except StglowError as exc:
        t.fail(1, f"flow round trip raised {type(exc).__name__}: {exc}")
        return
    err = float(np.max(np.abs(back.data - z.data)))
    if not err <= ROUND_TRIP_TOL:
        t.fail(1, f"flow round trip error {err:.3g} > {ROUND_TRIP_TOL:g}")


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_ABOVE of n samples above it."""
    if n <= TAIL_ABOVE:
        raise ValueError(f"a tail needs more than {TAIL_ABOVE} samples, got {n}")
    return 100 * (n - TAIL_ABOVE) // n


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of them at or below it."""
    ordered = sorted(samples)
    return ordered[-(-pct * len(ordered) // 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(s: State, setup_s: list[float], t: Tally) -> dict[str, tuple[float, str]]:
    """{metric: (value, note)}; the note gives the sample count and scale."""
    med = statistics.median
    ms = [1000.0 * d for d in t.predict_s]
    n_eval = len(s.eval_windows)
    # The percentile is fixed by the calls every run makes, so a faster
    # program, which makes more, still reports the same statistic.
    pct = tail_percentile(s.passes("predict") * n_eval)
    train, ev, pr, cr = (s.scale_of(job) for job in JOBS)
    return {
        "setup_s": (med(setup_s), f"median of {len(setup_s)} set-ups"),
        "train_windows_per_s": (
            med([TRAIN_WINDOWS / d for d in t.train_s]),
            f"{train}, median of {len(t.train_s)} train() calls",
        ),
        "train_loss_end": (t.train_loss[-1], f"{train}, {len(t.train_loss)} identical train() calls"),
        "eval_windows_per_s": (
            med([n_eval / d for d in t.eval_s]),
            f"{ev}, median of {len(t.eval_s)} evaluate() calls",
        ),
        "min_ade_k20": (t.eval_scores[-1][0], f"{ev}, mean over {n_eval} windows"),
        "min_fde_k20": (t.eval_scores[-1][1], f"{ev}, mean over {n_eval} windows"),
        "predict_ms_p50": (med(ms), f"{pr}, median of {len(ms)} predict() calls"),
        "predict_ms_tail": (percentile(ms, pct), f"{pr}, p{pct} of {len(ms)} predict() calls"),
        "crowd_peds_per_s": (
            med([1.0 / d for d in t.crowd_s]),
            f"{cr}, N={CROWD_N}, median of {len(t.crowd_s)} scenes",
        ),
        "peak_rss_mb": (peak_rss_mb(), "this process"),
        "success_rate": ((t.attempted - t.failed) / t.attempted, f"{t.failed} of {t.attempted} operations failed"),
    }


GUARDS = ("train_loss_end", "min_ade_k20", "min_fde_k20")  # seed-fixed; they repeat exactly for a seed


def determinism_problems(t: Tally) -> list[str]:
    """Seed-fixed outputs must repeat exactly within a run."""
    out = []
    if len(set(t.train_loss)) > 1:
        out.append(f"train_loss_end differs between identical train() calls: {sorted(set(t.train_loss))}")
    if len(set(t.eval_scores)) > 1:
        out.append(f"evaluate() scores differ between identical calls: {sorted(set(t.eval_scores))}")
    return out
