import contextlib
import functools
import itertools
import json
import logging
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from stglow import numcore as nc
from stglow import pipeline as pl
from stglow.checkpoint import MAGIC, VERSION, Checkpoint, load_checkpoint, save_checkpoint
from stglow.config import Config, flatten, from_flat, load_config, save_config, toy_config, validate
from stglow.data import SynthSpec, synth_scenes
from stglow.errors import CheckpointError, ConfigError, SceneNotFoundError
from stglow.metrics import EvalReport
from stglow.model import TrajectoryModel

logging.disable(logging.INFO)


def tiny_config(out_dir, seed=3, epochs=2, **kw):
    cfg = toy_config(seed=seed)
    cfg.model.d = 16
    cfg.model.d_h = 16
    cfg.model.n_heads = 2
    cfg.train.epochs = epochs
    cfg.train.batch = 8
    cfg.train.k_train = 4
    cfg.data.synth_count = 12
    cfg.train.out_dir = str(out_dir)
    for k, v in kw.items():
        setattr(cfg.model, k, v)
    return validate(cfg)


def write_with_header(path, header: bytes, records: bytes = b"") -> None:
    """A checkpoint file with the given header and records and a valid checksum."""
    payload = struct.pack("<I", VERSION) + struct.pack("<I", len(header)) + header + records
    path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))


def record_bytes(name: bytes, shape: tuple[int, ...], values: bytes) -> bytes:
    """One record as the file layout defines it, built independently of the writer."""
    dims = b"".join(struct.pack("<I", d) for d in shape)
    return struct.pack("<H", len(name)) + name + struct.pack("<B", len(shape)) + dims + values


def valid_header() -> dict:
    return {
        "config": flatten(toy_config()),
        "epoch": 0,
        "opt_step": 0,
        "pn_initialized": False,
        "rng_state": {},
        "param_names": [],
        "opt_names": [],
    }


@functools.cache
def fuzz_base() -> bytes:
    """A small valid checkpoint with 0-d, empty and non-ASCII-named records."""
    rng = np.random.default_rng(5)
    params = {"a": rng.normal(size=(2, 3)), "b.c": np.array(0.5), "d": np.zeros((0, 2)), "é": rng.normal(size=2)}
    ckpt = Checkpoint(toy_config(), params, {"m.a": rng.normal(size=(2, 3))}, opt_step=1)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(ckpt, Path(tmp) / "base.ckpt")
        return (Path(tmp) / "base.ckpt").read_bytes()


def nan_on_call(n: int):
    """A TrajectoryModel.batch_loss whose n-th call returns a NaN loss."""
    real = TrajectoryModel.batch_loss
    calls = itertools.count(1)

    def batch_loss(self, *args, **kw):
        loss, stats = real(self, *args, **kw)
        return (nc.mul(loss, float("nan")) if next(calls) == n else loss), stats

    return batch_loss


class TestConfig:
    def test_flat_round_trip(self, tmp_path):
        cfg = toy_config(seed=11)
        cfg.train.loss_weights = (0.5, 0.1, 0.2, 0.7)
        cfg.data.paths = ("a.txt", "b.txt")
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        back = load_config(path)
        assert flatten(back) == flatten(cfg)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("model.banana = 1\n")
        with pytest.raises(ConfigError, match="unknown config field"):
            load_config(p)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("model.d = 3x", "model.d: expected int, got '3x'"),
            ("model.d = True", "model.d: expected int"),
            ('train.lr = "fast"', "train.lr: expected float, got 'fast'"),
            ("train.lr = False", "train.lr: expected float"),
            ("train.epochs = 2.5", "train.epochs: expected int, got 2.5"),
            ("model.use_spatial = 1", "model.use_spatial: expected bool, got 1"),
            ("data.paths = 'a.txt'", "data.paths: expected a tuple, got 'a.txt'"),
            ("train.betas = (0.9,)", "train.betas: expected 2 values, got 1"),
            ("train.loss_weights = (1.0, 0.25, 0.25, 'x')", "train.loss_weights: expected float, got 'x'"),
            ("data.synth_kinds = ('straight', 3)", "data.synth_kinds: expected str, got 3"),
            ("model = 3", "model: expected ModelConfig, got 3"),
        ],
    )
    def test_mistyped_value_rejected_at_its_line(self, tmp_path, line, message):
        p = tmp_path / "bad.cfg"
        p.write_text(f"# typed values\nseed = 1\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{p}:3: {message}")):
            load_config(p)

    def test_ints_widen_to_float_and_lists_become_tuples(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("train.lr = 1\ntrain.betas = [0, 0.5]\ndata.paths = ['a.txt']\n")
        cfg = load_config(p)
        assert type(cfg.train.lr) is float and cfg.train.lr == 1.0
        assert cfg.train.betas == (0.0, 0.5) and type(cfg.train.betas[0]) is float
        assert cfg.data.paths == ("a.txt",)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "missing.cfg")

    def test_heads_must_divide_width(self):
        cfg = toy_config()
        cfg.model.n_heads = 5
        with pytest.raises(ConfigError):
            validate(cfg)

    def test_defaults_match_training_recipe(self):
        cfg = Config()
        assert cfg.model.d == 256
        assert cfg.model.n_flow_steps == 16
        assert cfg.train.lr == 1e-3
        assert cfg.train.betas == (0.9, 0.999)
        assert cfg.train.weight_decay == 1e-6
        assert cfg.train.epochs == 400
        assert cfg.train.batch == 128
        assert cfg.train.k_train == 20
        assert cfg.train.loss_weights == (1.0, 0.25, 0.25, 0.5)
        assert cfg.eval.k == 20
        assert cfg.model.t_obs == 8 and cfg.model.t_pred == 12


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path)
        model = pl.build_model(cfg)
        ckpt = pl.snapshot(model, cfg, None, epoch=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert set(back.params) == set(ckpt.params)
        for name, arr in ckpt.params.items():
            assert back.params[name].tobytes() == arr.tobytes()
        assert flatten(back.config) == flatten(cfg)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        model = pl.build_model(cfg)
        path = tmp_path / "last.ckpt"
        save_checkpoint(pl.snapshot(model, cfg, None, epoch=1), path)
        before = path.read_bytes()
        for p in model.params().values():
            p.data += 1.0

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(pl.snapshot(model, cfg, None, epoch=2), path)
        assert path.read_bytes() == before
        assert load_checkpoint(path).epoch == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["last.ckpt"]

    def test_streamed_file_matches_reference_layout(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"b": rng.normal(size=(3, 2)).T, "a.w": np.array(1.5), "c": rng.normal(size=4).astype(">f8")}
        opt_state = {"m.b": np.zeros((0, 3))}
        ckpt = Checkpoint(toy_config(), params, opt_state, opt_step=4, epoch=2, pn_initialized=True, rng_state={"s": 1})
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        header = {
            "config": flatten(ckpt.config),
            "epoch": 2,
            "opt_step": 4,
            "pn_initialized": True,
            "rng_state": {"s": 1},
            "param_names": ["a.w", "b", "c"],
            "opt_names": ["m.b"],
        }
        header_b = json.dumps(header, sort_keys=True).encode()
        payload = struct.pack("<II", VERSION, len(header_b)) + header_b
        for name, arr in [("a.w", params["a.w"]), ("b", params["b"]), ("c", params["c"]), ("m.b", opt_state["m.b"])]:
            payload += record_bytes(name.encode(), arr.shape, arr.astype("<f8").tobytes(order="C"))
        assert path.read_bytes() == MAGIC + payload + struct.pack("<I", zlib.crc32(payload))

    def test_save_allocates_a_fraction_of_the_file(self, tmp_path):
        ckpt = Checkpoint(toy_config(), {f"p{i}": np.full((256, 512), float(i)) for i in range(8)})
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(ckpt, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 8 * 2**20
        assert peak <= 0.1 * size

    def test_load_holds_about_one_copy_of_the_file(self, tmp_path):
        ckpt = Checkpoint(toy_config(), {f"p{i}": np.full((256, 512), float(i)) for i in range(8)})
        path = tmp_path / "big.ckpt"
        save_checkpoint(ckpt, path)
        tracemalloc.start()
        try:
            back = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 8 * 2**20
        assert peak <= 1.25 * size
        for name, arr in ckpt.params.items():
            assert back.params[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize(
        "version, name",
        # version 1 held per-head attention projections, version 2 per-gate
        # GRU projections; their names are gone
        [(1, "attn.h0.wq.w"), (2, "decoder.fwd_gru.wxz.w")],
        ids=["v1", "v2"],
    )
    def test_old_version_file_rejected(self, tmp_path, version, name):
        path = tmp_path / f"v{version}.ckpt"
        header = json.dumps({**valid_header(), "param_names": [name]}).encode()
        payload = struct.pack("<II", version, len(header)) + header + record_bytes(name.encode(), (1,), bytes(8))
        path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        assert VERSION == 3
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            (record_bytes(b"\xffa", (1,), bytes(8)), "record name is not UTF-8"),
            (record_bytes(b"a", (1,) * 200, bytes(8)), "has 200 dims"),
            (record_bytes(b"a", (3, 4), bytes(8)), "checkpoint truncated"),
            (record_bytes(b"a", (2**32 - 1, 2**32 - 1, 0), b""), "impossible shape"),
        ],
        ids=["non_utf8_name", "ndim_200", "dims_overrun", "empty_but_too_big"],
    )
    def test_malformed_record_rejected(self, tmp_path, record, message):
        path = tmp_path / "m.ckpt"
        write_with_header(path, json.dumps({**valid_header(), "param_names": ["a"]}).encode(), record)
        with pytest.raises(CheckpointError, match=message) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    @given(data=hst.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_damaged_file_raises_only_checkpoint_error(self, tmp_path, data):
        raw = fuzz_base()
        payload = bytearray(raw[4:-4])
        header_len = struct.unpack("<I", payload[4:8])[0]
        anywhere = hst.integers(0, len(payload) - 1)
        in_records = hst.integers(8 + header_len, len(payload) - 1)
        pos = data.draw(hst.one_of(in_records, anywhere), label="pos")
        damage = data.draw(hst.sampled_from(["truncate", "flip", "overwrite"]), label="damage")
        if damage == "truncate":
            del payload[pos:]
        elif damage == "flip":
            payload[pos] ^= 1 << data.draw(hst.integers(0, 7), label="bit")
        else:
            payload[pos] = data.draw(hst.integers(0, 255), label="byte")
        crc = zlib.crc32(payload) if data.draw(hst.booleans(), label="fix_crc") else struct.unpack("<I", raw[-4:])[0]
        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(MAGIC + payload + struct.pack("<I", crc))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

    def test_magic_bytes(self, tmp_path):
        cfg = tiny_config(tmp_path)
        model = pl.build_model(cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(pl.snapshot(model, cfg, None, 0), path)
        assert path.read_bytes()[:4] == b"STGF"

    def test_corrupted_payload_detected(self, tmp_path):
        cfg = tiny_config(tmp_path)
        model = pl.build_model(cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(pl.snapshot(model, cfg, None, 0), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_valid_header_without_records_loads(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_with_header(path, json.dumps(valid_header()).encode())
        assert flatten(load_checkpoint(path).config) == flatten(toy_config())

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"\xff\xfe{}", "undecodable header"),
            (b'{"config": ', "undecodable header"),
            (b"[]", "incomplete header"),
            (json.dumps({k: v for k, v in valid_header().items() if k != "epoch"}).encode(), "incomplete header"),
            (json.dumps({**valid_header(), "opt_step": "3"}).encode(), "incomplete header"),
            (json.dumps({**valid_header(), "param_names": 7}).encode(), "incomplete header"),
            (
                json.dumps({**valid_header(), "config": {**flatten(toy_config()), "model.d": "x"}}).encode(),
                "header config: model.d: expected int",
            ),
        ],
        ids=["non_utf8", "cut_json", "not_an_object", "no_epoch", "str_opt_step", "int_names", "mistyped_config"],
    )
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "m.ckpt"
        write_with_header(path, header)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)


class TestTraining:
    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path):
        cfg = tiny_config(tmp_path, epochs=0)
        result = pl.train(cfg)
        fresh = pl.build_model(cfg)
        fresh_params = {k: p.data for k, p in fresh.params().items()}
        assert result.checkpoint.epoch == 0
        for name, arr in result.checkpoint.params.items():
            assert arr.tobytes() == fresh_params[name].tobytes()

    def test_loss_trends_down_on_synthetic_data(self, tmp_path):
        cfg = tiny_config(tmp_path, epochs=8, seed=1)
        result = pl.train(cfg)
        first = result.history[0]["l_total"]
        last = result.history[-1]["l_total"]
        assert np.isfinite(last)
        assert last < first

    def test_run_vs_resume_bit_exact(self, tmp_path):
        # interrupt one run, not a shorter one: the cosine horizon is
        # train.epochs, so an epochs=2 run anneals on a different lr curve
        cfg = tiny_config(tmp_path / "full", epochs=4)
        cfg.train.keep_epoch_checkpoints = True
        assert cfg.train.lr_schedule == "cosine"
        full = pl.train(cfg)
        resumed = pl.train(
            tiny_config(tmp_path / "resumed", epochs=4),
            resume=tmp_path / "full" / "epoch_002.ckpt",
        )
        assert resumed.checkpoint.epoch == 4
        assert resumed.checkpoint.opt_step == full.checkpoint.opt_step
        assert set(resumed.checkpoint.params) == set(full.checkpoint.params)
        for name, arr in full.checkpoint.params.items():
            assert arr.tobytes() == resumed.checkpoint.params[name].tobytes(), name
        assert set(resumed.checkpoint.opt_state) == set(full.checkpoint.opt_state)
        for name, arr in full.checkpoint.opt_state.items():
            assert arr.tobytes() == resumed.checkpoint.opt_state[name].tobytes(), name

    def test_non_finite_loss_aborts_with_last_good_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "run", epochs=3)
        # one step per epoch, so the second step runs after epoch 0's checkpoint
        cfg.train.batch = len(pl.load_training_windows(cfg))
        monkeypatch.setattr(TrajectoryModel, "batch_loss", nan_on_call(2))
        result = pl.train(cfg)
        assert result.aborted
        assert result.checkpoint.epoch == 1
        restored = pl.restore_model(load_checkpoint(result.last_path))
        assert restored.flow.initialized
        params = restored.params()
        assert set(params) == set(result.checkpoint.params)
        for name, arr in result.checkpoint.params.items():
            assert params[name].data.tobytes() == arr.tobytes(), name
        fresh = pl.build_model(cfg).params()
        assert any(fresh[n].data.tobytes() != a.tobytes() for n, a in result.checkpoint.params.items())

        from stglow.cli import main

        cfg.train.out_dir = str(tmp_path / "cli")
        save_config(cfg, tmp_path / "run.cfg")
        monkeypatch.setattr(TrajectoryModel, "batch_loss", nan_on_call(2))
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 1
        assert load_checkpoint(tmp_path / "cli" / "last.ckpt").epoch == 1

    def test_step_tape_freed_before_epoch_checkpoint(self, tmp_path, monkeypatch):
        tapes: list[weakref.ref] = []
        live_at_save: list[int] = []
        real_record, real_save = nc.record, pl.save_checkpoint

        @contextlib.contextmanager
        def tracked_record():
            with real_record() as tape:
                tapes.append(weakref.ref(tape))
                yield tape

        def counting_save(ckpt, path):
            live_at_save.append(sum(ref() is not None for ref in tapes))
            real_save(ckpt, path)

        monkeypatch.setattr(nc, "record", tracked_record)
        monkeypatch.setattr(pl, "save_checkpoint", counting_save)
        pl.train(tiny_config(tmp_path, epochs=2))
        assert len(tapes) >= 2 and len(live_at_save) >= 3
        assert live_at_save == [0] * len(live_at_save)

    def test_resume_past_epochs_rejected_before_writing(self, tmp_path):
        pl.train(tiny_config(tmp_path, epochs=3))
        last = tmp_path / "last.ckpt"
        before = last.read_bytes()
        with pytest.raises(ConfigError, match="past train.epochs"):
            pl.train(tiny_config(tmp_path, epochs=1), resume=last)
        assert last.read_bytes() == before
        assert load_checkpoint(last).epoch == 3

    def test_resume_rejects_mismatched_architecture(self, tmp_path):
        pl.train(tiny_config(tmp_path / "a", epochs=1))
        other = tiny_config(tmp_path / "b", d=24, d_h=24)
        with pytest.raises(ConfigError):
            pl.train(other, resume=tmp_path / "a" / "last.ckpt")


class TestEvaluate:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trained")
        cfg = tiny_config(out, epochs=2)
        result = pl.train(cfg)
        return pl.restore_model(result.checkpoint), cfg

    def windows(self, n=6, seed=42):
        return synth_scenes(SynthSpec(kinds=("straight",), count=n, seed=seed, noise_std=0.01))

    def test_more_samples_never_hurt(self, trained):
        model, cfg = trained
        ws = {"s": self.windows()}
        r1 = pl.evaluate(model, ws, k=1, sigma=1.0, seed=9)
        r20 = pl.evaluate(model, ws, k=20, sigma=1.0, seed=9)
        assert r20.rows[0].ade <= r1.rows[0].ade + 1e-12

    def test_fixed_seed_reproducible(self, trained):
        model, cfg = trained
        ws = {"s": self.windows()}
        a = pl.evaluate(model, ws, k=5, sigma=1.0, seed=3).to_csv()
        b = pl.evaluate(model, ws, k=5, sigma=1.0, seed=3).to_csv()
        assert a == b

    def test_step_count_mismatch_rejected(self, trained):
        model, cfg = trained
        bad = synth_scenes(SynthSpec(kinds=("straight",), count=2, seed=0, t_obs=6, t_pred=9))
        with pytest.raises(ConfigError):
            pl.evaluate(model, {"bad": bad}, k=2)

    def test_perfect_predictor_scores_zero(self, trained):
        model, cfg = trained
        ws = self.windows(3)

        class Oracle:
            cfg = model.cfg

            def forecast(self, windows, k, sigma, rngs):
                return np.stack([np.repeat(w.world_fut()[w.target_index][None], k, axis=0) for w in windows])

        report = pl.evaluate(Oracle(), {"s": ws}, k=4, sigma=1.0, seed=0)
        assert report.rows[0].ade == 0.0
        assert report.rows[0].fde == 0.0


class TestCheckCommand:
    def test_fresh_model_passes(self, tmp_path):
        report, ok = pl.check(None, work_dir=tmp_path)
        assert ok
        names = {c["name"] for c in report["checks"]}
        assert {"flow_invertibility", "logdet_oracle", "gradient_check", "mask_causality", "checkpoint_roundtrip"} <= names

    def test_no_temp_dir_left_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report, ok = pl.check()
        assert ok, report
        assert not list(tmp_path.glob("stglow-check-*"))

    def test_corrupt_checkpoint_fails(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        result = pl.train(cfg)
        path = tmp_path / "last.ckpt"
        raw = bytearray(path.read_bytes())
        raw[-20] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        report, ok = pl.check(bad, work_dir=tmp_path)
        assert not ok and not report["ok"]
        [only] = report["checks"]
        assert only["name"] == "checkpoint_roundtrip"
        assert only["passed"] is False
        assert "checksum" in only["exception"]
        # the CLI prints the failing report and exits 1, not a traceback
        from stglow.cli import main

        assert main(["check", "--ckpt", str(bad)]) == 1
        assert json.loads(capsys.readouterr().out) == report


    @pytest.mark.parametrize(
        "flags, failure",
        [({}, "temporal mask leak"), ({"use_temporal_graphormer": False}, "spatial mask leak")],
    )
    def test_mask_leak_in_forward_pass_fails(self, tmp_path, monkeypatch, flags, failure):
        cfg = tiny_config(tmp_path, **flags)
        path = tmp_path / "m.ckpt"
        save_checkpoint(pl.snapshot(pl.build_model(cfg), cfg, None, 0), path)
        monkeypatch.setattr(nc, "apply_mask", lambda scores, mask: scores)
        report, ok = pl.check(path, work_dir=tmp_path)
        assert not ok
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["mask_causality"]["passed"] is False
        assert by_name["mask_causality"]["failure"] == failure
        assert all(c["passed"] for name, c in by_name.items() if name != "mask_causality")

    def test_missing_checkpoint_fails(self, tmp_path, capsys):
        from stglow.cli import main

        assert main(["check", "--ckpt", str(tmp_path / "missing.ckpt")]) == 1
        [only] = json.loads(capsys.readouterr().out)["checks"]
        assert only["name"] == "checkpoint_roundtrip"
        assert only["passed"] is False
        assert "cannot read checkpoint" in only["exception"]


class TestSamplePlot:
    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sample")
        cfg = tiny_config(out, epochs=1)
        result = pl.train(cfg)
        model = pl.restore_model(result.checkpoint)
        windows = synth_scenes(
            SynthSpec(kinds=("crossing_pair",), count=2, seed=5, noise_std=0.01)
        )
        return model, windows, out

    def test_csv_row_count(self, setup):
        model, windows, out = setup
        csv_path, _ = pl.sample_and_plot(model, windows, 0, k=3, sigma=1.0, out_dir=out / "p1")
        rows = csv_path.read_text().strip().splitlines()
        n = windows[0].n_pedestrians
        assert rows[0] == "ped_id,k,t,x,y"
        assert len(rows) - 1 == n * 3 * windows[0].t_pred

    def test_deterministic_single_path_at_sigma_zero(self, setup):
        model, windows, out = setup
        csv_path, _ = pl.sample_and_plot(model, windows, 0, k=1, sigma=0.0, out_dir=out / "p2")
        assert len(csv_path.read_text().strip().splitlines()) - 1 == windows[0].n_pedestrians * windows[0].t_pred

    def test_svg_rerender_is_identical(self, setup):
        model, windows, out = setup
        csv_path, svg_path = pl.sample_and_plot(model, windows, 1, k=2, sigma=1.0, out_dir=out / "p3")
        again = pl.render_svg(windows[1], pl.parse_sample_csv(csv_path.read_text()))
        assert again == svg_path.read_text()

    def test_unknown_scene_rejected(self, setup):
        model, windows, out = setup
        with pytest.raises(SceneNotFoundError):
            pl.sample_and_plot(model, windows, 99, k=1, sigma=1.0, out_dir=out / "p4")


class TestAblationConfigs:
    @pytest.mark.parametrize(
        "flag",
        ["use_spatial", "use_temporal_graphormer", "use_pattern_norm", "bidirectional"],
    )
    def test_each_switch_trains_and_evaluates(self, tmp_path, flag):
        cfg = tiny_config(tmp_path / flag, epochs=1, **{flag: False})
        result = pl.train(cfg)
        assert not result.aborted
        model = pl.restore_model(result.checkpoint)
        ws = synth_scenes(SynthSpec(kinds=("straight",), count=2, seed=1, noise_std=0.01))
        report = pl.evaluate(model, {"s": ws}, k=2, sigma=1.0, seed=0)
        assert np.isfinite(report.rows[0].ade)

    @pytest.mark.parametrize(
        "flag",
        ["use_centrality", "use_positional", "use_rel_pos", "use_steering", "use_spatial_mask"],
    )
    def test_encoder_component_switches_run(self, tmp_path, flag):
        cfg = tiny_config(tmp_path / flag, epochs=1, **{flag: False})
        result = pl.train(cfg)
        assert not result.aborted


class TestCli:
    def run_cli(self, *args):
        from stglow.cli import main

        return main(list(args))

    def test_full_cli_cycle(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "run", epochs=1)
        cfg_path = tmp_path / "toy.cfg"
        save_config(cfg, cfg_path)
        assert self.run_cli("train", "--config", str(cfg_path)) == 0
        ckpt = tmp_path / "run" / "last.ckpt"
        assert ckpt.exists()

        out_csv = tmp_path / "metrics.csv"
        code = self.run_cli(
            "eval",
            "--ckpt",
            str(ckpt),
            "--data",
            "synth:straight:n=4:seed=9:noise=0.01",
            "--k",
            "3",
            "--out",
            str(out_csv),
        )
        assert code == 0
        assert out_csv.read_text().startswith("dataset,K,ade,fde,n_instances")

        code = self.run_cli(
            "sample",
            "--ckpt",
            str(ckpt),
            "--scene",
            "0",
            "--k",
            "2",
            "--sigma",
            "1.0",
            "--out",
            str(tmp_path / "plots"),
            "--data",
            "synth:straight:n=2:seed=9:noise=0.01",
        )
        assert code == 0
        assert (tmp_path / "plots" / "scene0.svg").exists()

        assert self.run_cli("check") == 0
        out = capsys.readouterr().out
        assert '"ok": true' in out

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "runa", epochs=0, seed=1)
        cfg_path = tmp_path / "a.cfg"
        save_config(cfg, cfg_path)
        monkeypatch.setenv("STGLOW_SEED", "777")
        assert self.run_cli("train", "--config", str(cfg_path)) == 0
        ckpt = load_checkpoint(tmp_path / "runa" / "last.ckpt")
        assert ckpt.config.seed == 777

    @pytest.mark.parametrize(
        "case",
        [
            "train_missing_config",
            "train_mistyped_config",
            "train_non_integer_seed",
            "eval_missing_checkpoint",
            "eval_malformed_header",
            "eval_missing_data",
            "eval_non_utf8_data",
            "eval_non_numeric_synth_field",
            "eval_synth_out_of_range",
            "eval_synth_window_steps",
            "train_resume_past_epochs",
            "eval_version_1_checkpoint",
            "eval_version_2_checkpoint",
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, capsys, case):
        cfg = tiny_config(tmp_path / "run", epochs=0)
        good_cfg = tmp_path / "good.cfg"
        save_config(cfg, good_cfg)
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("model.d = 3x\n")
        good_ckpt = tmp_path / "good.ckpt"
        save_checkpoint(pl.snapshot(pl.build_model(cfg), cfg, None, 0), good_ckpt)
        later_ckpt = tmp_path / "later.ckpt"  # past the good config's 0 epochs
        save_checkpoint(pl.snapshot(pl.build_model(cfg), cfg, None, 3), later_ckpt)
        bad_ckpt = tmp_path / "bad.ckpt"
        write_with_header(bad_ckpt, b"{}")
        missing = str(tmp_path / "missing")
        non_utf8 = tmp_path / "utf16.txt"
        non_utf8.write_bytes(b"\xff\xfe1\x000\x00 \x001\x00")
        synth = "synth:straight:n=2:seed=9:noise=0.01"
        for version in (1, 2):
            payload = bytearray(good_ckpt.read_bytes()[4:-4])
            payload[:4] = struct.pack("<I", version)
            (tmp_path / f"v{version}.ckpt").write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        argv = {
            "train_missing_config": ["train", "--config", missing],
            "train_mistyped_config": ["train", "--config", str(bad_cfg)],
            "train_non_integer_seed": ["train", "--config", str(good_cfg)],
            "eval_missing_checkpoint": ["eval", "--ckpt", missing, "--data", synth],
            "eval_malformed_header": ["eval", "--ckpt", str(bad_ckpt), "--data", synth],
            "eval_missing_data": ["eval", "--ckpt", str(good_ckpt), "--data", missing + ".txt"],
            "eval_non_utf8_data": ["eval", "--ckpt", str(good_ckpt), "--data", str(non_utf8)],
            "eval_non_numeric_synth_field": ["eval", "--ckpt", str(good_ckpt), "--data", "synth:straight:n=abc"],
            "eval_synth_out_of_range": ["eval", "--ckpt", str(good_ckpt), "--data", "synth:straight:noise=-1"],
            "eval_synth_window_steps": ["eval", "--ckpt", str(good_ckpt), "--data", "synth:straight:to=6"],
            "train_resume_past_epochs": ["train", "--config", str(good_cfg), "--resume", str(later_ckpt)],
            "eval_version_1_checkpoint": ["eval", "--ckpt", str(tmp_path / "v1.ckpt"), "--data", synth],
            "eval_version_2_checkpoint": ["eval", "--ckpt", str(tmp_path / "v2.ckpt"), "--data", synth],
        }[case]
        if case == "train_non_integer_seed":
            monkeypatch.setenv("STGLOW_SEED", "12a")
        assert self.run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # the model here is uninitialised, so a forecast would fail too: check the cause
        cause = {
            "eval_synth_window_steps": "unknown synth-spec field 'to'",
            "train_resume_past_epochs": "past train.epochs",
        }
        assert cause.get(case, "") in err

    def test_entry_point_runs(self, monkeypatch):
        # the child imports the same stglow as this process, installed or not
        src = str(Path(pl.__file__).parents[1])
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "stglow.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "train" in out.stdout
