import contextlib
import dataclasses
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
import warnings
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from helpers import write_windows
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

from stglow import cli
from stglow import numcore as nc
from stglow import pipeline as pl
from stglow.checkpoint import MAGIC, VERSION, Checkpoint, load_checkpoint, save_checkpoint
from stglow.config import FLOAT_RANGES, INT_MINIMA, Config, flatten, from_flat, load_config, save_config, toy_config, validate
from stglow.data import SynthSpec, synth_scenes
from stglow.errors import CheckpointError, ConfigError, SceneNotFoundError, ShapeError
from stglow.flow import FlowStack, PatternNorm
from stglow.metrics import EvalReport
from stglow.model import TrajectoryModel

logging.disable(logging.INFO)


TOY_CFG_TEXT = "".join(f"{k} = {v!r}\n" for k, v in flatten(toy_config()).items())


@hst.composite
def mutated_config_text(draw) -> str:
    """The toy preset's config file with one to three lines mutated: mostly a
    value replaced (by a number, a literal, or arbitrary text) or an int
    field set to -1, 0 or 1, where most lower bounds lie, else a line
    replaced by arbitrary text or cut short."""
    lines = TOY_CFG_TEXT.splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    values = hst.one_of(
        hst.integers(-2, 3).map(str),
        hst.integers().map(str),
        hst.floats().map(repr),
        hst.sampled_from(["1e999", "-1e999", "()", "[]", "{}", "None", "b'x'", "1j", "'x'", "(1, 'a')"]),
        hst.text(max_size=16),
    )
    for _ in range(draw(hst.integers(1, 3))):
        kind = draw(hst.sampled_from(["small int", "small int", "small int", "value", "value", "line", "cut"]))
        if kind == "small int":
            key = draw(hst.sampled_from(sorted(INT_MINIMA)))
            lines[keys.index(key)] = f"{key} = {draw(hst.sampled_from([0, -1, 1]))}"
            continue
        i = draw(hst.integers(0, len(lines) - 1))
        if kind == "value":
            lines[i] = f"{keys[i]} = {draw(values)}"
        elif kind == "line":
            lines[i] = draw(hst.text(max_size=40))
        else:
            lines[i] = lines[i][: draw(hst.integers(0, len(lines[i])))]
    return "\n".join(lines) + "\n"


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
    cfg.model = dataclasses.replace(cfg.model, **kw)  # an unknown field raises
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
        cfg.data.format, cfg.data.paths = "eth_ucy", ("a.txt", "b.txt")
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
        p.write_text("train.lr = 1\ntrain.betas = [0, 0.5]\ndata.format = 'eth_ucy'\ndata.paths = ['a.txt']\n")
        cfg = load_config(p)
        assert type(cfg.train.lr) is float and cfg.train.lr == 1.0
        assert cfg.train.betas == (0.0, 0.5) and type(cfg.train.betas[0]) is float
        assert cfg.data.paths == ("a.txt",)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"data.paths": ("/nonexistent/eth.txt",), "data.holdout": "zara1"}, "data.paths is set, but data.format 'synth'"),
            ({"data.holdout": "zara1"}, "data.holdout is set, but data.format 'synth' reads no files"),
            ({"data.format": "eth_ucy"}, "data.paths must name the track files of data.format 'eth_ucy'"),
            ({"data.format": "eth_ucy", "data.holdout": "zara1"}, "data.paths must name"),
        ],
    )
    def test_data_sources_agree_with_the_format(self, values, message):
        # before, a synth config ignored its paths and trained on synthetic windows
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate(from_flat(values, toy_config()))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "missing.cfg")

    def test_every_int_field_has_a_lower_bound(self):
        assert sorted(INT_MINIMA) == sorted(k for k, v in flatten(Config()).items() if type(v) is int)

    @pytest.mark.parametrize("key", sorted(INT_MINIMA))
    def test_int_below_its_bound_rejected_before_arithmetic(self, tmp_path, key):
        p = tmp_path / "low.cfg"
        p.write_text(f"{key} = {INT_MINIMA[key] - 1}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be >= {INT_MINIMA[key]}, got {INT_MINIMA[key] - 1}")):
            load_config(p)

    @pytest.mark.parametrize("line", ["train.lr = 1e999", "train.betas = (0.9, -1e999)", "eval.sigma = 1e999"])
    def test_non_finite_float_rejected(self, tmp_path, line):
        p = tmp_path / "inf.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"{line.split()[0]} must be finite"):
            load_config(p)

    def test_every_float_field_has_a_range(self):
        floats = [k for k, v in flatten(Config()).items() if type(v) is float or (v and type(v) is tuple and type(v[0]) is float)]
        assert sorted(FLOAT_RANGES) == sorted(floats)

    @pytest.mark.parametrize(
        "line, rule",
        [
            ("train.lr = 0.0", "(0, inf)"),
            ("train.betas = (0.9, 1.0)", "[0, 1)"),
            ("train.betas = (-0.1, 0.999)", "[0, 1)"),
            ("train.weight_decay = -1e-9", "[0, inf)"),
            ("train.loss_weights = (1.0, 0.25, -0.25, 0.5)", "[0, inf)"),
            ("train.val_fraction = 1.0", "[0, 1)"),
            ("train.grad_clip = -5.0", "[0, inf)"),
            ("train.lr_min_factor = 1.5", "[0, 1]"),
            ("train.lr_min_factor = -0.5", "[0, 1]"),
            ("eval.sigma = -2.0", "[0, inf)"),
            ("data.synth_noise = -0.01", "[0, inf)"),
        ],
    )
    def test_float_outside_its_range_rejected(self, tmp_path, line, rule):
        p = tmp_path / "range.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{line.split()[0]} must be in {rule}, got ")):
            load_config(p)

    def test_range_bounds_that_are_allowed(self):
        cfg = toy_config()
        cfg.train.betas, cfg.train.weight_decay, cfg.train.grad_clip = (0.0, 0.0), 0.0, 0.0
        cfg.train.lr_min_factor, cfg.train.loss_weights, cfg.eval.sigma = 1.0, (0.0, 0.0, 0.0, 0.0), 0.0
        cfg.train.lr, cfg.data.synth_noise = 1e-4, 0.0  # the benchmark trains at lr 1e-4 without a clip
        assert validate(cfg) is cfg

    def test_huge_flow_is_validated_without_a_loop(self):
        cfg = Config()
        cfg.model.n_flow_steps = 10**15
        with pytest.raises(ConfigError, match="factor-out schedule"):
            validate(cfg)
        cfg.model.factor_out = False
        assert validate(cfg) is cfg

    def test_attribute_path_is_not_a_section(self):
        for key in ("__class__.seed", "model.__class__.d", "seed.real"):
            with pytest.raises(ConfigError, match="unknown config"):
                from_flat({key: 1})
        assert Config().seed == 0

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(text=mutated_config_text())
    @example(text=TOY_CFG_TEXT + "model.n_heads = 0\n")
    @example(text=TOY_CFG_TEXT + "model.factor_out_every = 0\n")
    @example(text=TOY_CFG_TEXT + "train.checkpoint_every = 0\n")
    @example(text=TOY_CFG_TEXT + "data.window_stride = 0\n")
    @example(text=TOY_CFG_TEXT + "model.n_flow_steps = 0\n")
    @example(text=TOY_CFG_TEXT + "model.d = 0\n")
    @example(text=TOY_CFG_TEXT + "model.t_obs = 0\n")
    @example(text=TOY_CFG_TEXT + "seed = -1\n")
    @example(text=TOY_CFG_TEXT + f"model.n_flow_steps = {10**30}\n")
    @example(text=TOY_CFG_TEXT + "data.paths = {[1]: 2}\n")
    @example(text=TOY_CFG_TEXT + "out_dir = " + "-" * 10000 + "1\n")
    @example(text=TOY_CFG_TEXT + "__class__.seed = 5\n")
    def test_fuzzed_config_file_parses_or_raises_config_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(path)
        except ConfigError:
            return
        assert validate(cfg) is cfg

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

    def test_config_surface(self):
        """Every setting, pinned: adding or removing one is a diff here."""
        assert sorted(flatten(Config())) == [
            "data.format",
            "data.holdout",
            "data.paths",
            "data.synth_count",
            "data.synth_kinds",
            "data.synth_noise",
            "data.synth_seed",
            "data.window_stride",
            "eval.k",
            "eval.sigma",
            "model.bidirectional",
            "model.d",
            "model.d_h",
            "model.factor_out",
            "model.factor_out_channels",
            "model.factor_out_every",
            "model.n_flow_steps",
            "model.n_heads",
            "model.t_obs",
            "model.t_pred",
            "model.use_pattern_norm",
            "model.use_spatial",
            "seed",
            "train.batch",
            "train.betas",
            "train.checkpoint_every",
            "train.epochs",
            "train.grad_clip",
            "train.k_train",
            "train.keep_epoch_checkpoints",
            "train.loss_weights",
            "train.lr",
            "train.lr_min_factor",
            "train.lr_schedule",
            "train.out_dir",
            "train.val_fraction",
            "train.weight_decay",
        ]


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
        ckpt = Checkpoint(toy_config(), params, opt_state, opt_step=4, epoch=2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        header = {
            "config": flatten(ckpt.config),
            "epoch": 2,
            "opt_step": 4,
            "param_names": ["a.w", "b", "c"],
            "opt_names": ["m.b"],
        }
        header_b = json.dumps(header, sort_keys=True).encode()
        payload = struct.pack("<II", VERSION, len(header_b)) + header_b
        for name, arr in [("a.w", params["a.w"]), ("b", params["b"]), ("c", params["c"]), ("m.b", opt_state["m.b"])]:
            payload += record_bytes(name.encode(), arr.shape, arr.astype("<f8").tobytes(order="C"))
        assert path.read_bytes() == MAGIC + payload + struct.pack("<I", zlib.crc32(payload))

    def test_header_surface(self, tmp_path):
        """Every header key, pinned: adding or removing one is a diff here."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(toy_config(), {}), path)
        raw = path.read_bytes()
        (length,) = struct.unpack("<I", raw[8:12])
        assert sorted(json.loads(raw[12 : 12 + length])) == ["config", "epoch", "opt_names", "opt_step", "param_names"]

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
        # GRU projections; their names are gone. Version 3 header configs held
        # six encoder switches that are no longer config fields. Version 4
        # headers held a PatternNorm-initialised flag and an RNG note.
        [(1, "attn.h0.wq.w"), (2, "decoder.fwd_gru.wxz.w"), (3, "encoder.tg_full.pos_table"), (4, "flow.op00.pn.s")],
        ids=["v1", "v2", "v3", "v4"],
    )
    def test_old_version_file_rejected(self, tmp_path, version, name):
        path = tmp_path / f"v{version}.ckpt"
        header = json.dumps({**valid_header(), "param_names": [name]}).encode()
        payload = struct.pack("<II", version, len(header)) + header + record_bytes(name.encode(), (1,), bytes(8))
        path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        assert VERSION == 5
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
        """A 0-epoch run writes the fresh build with its PatternNorms set
        from data."""
        cfg = tiny_config(tmp_path, epochs=0)
        result = pl.train(cfg)
        fresh = pl.build_model(cfg)
        fresh_params = {k: p.data for k, p in fresh.params().items()}
        ckpt = load_checkpoint(result.last_path)
        assert ckpt.epoch == 0 and ckpt.opt_step == 0
        pn = [name for name in ckpt.params if ".pn." in name]
        assert pn and any(ckpt.params[n].tobytes() != fresh_params[n].tobytes() for n in pn)
        for name, arr in ckpt.params.items():
            if name not in pn:
                assert arr.tobytes() == fresh_params[name].tobytes(), name
        ws = synth_scenes(SynthSpec(kinds=("straight",), count=2, seed=1, noise_std=0.01))
        report = pl.evaluate(pl.restore_model(ckpt), {"s": ws}, k=2, sigma=1.0, seed=0)
        assert np.isfinite(report.rows[0].ade)

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
        # what a restart reads: the two runs' last.ckpt files
        a, b = load_checkpoint(full.last_path), load_checkpoint(resumed.last_path)
        assert resumed.last_path == tmp_path / "resumed" / "last.ckpt"
        assert a.epoch == b.epoch == 4
        assert a.opt_step == b.opt_step > 0
        assert set(a.params) == set(b.params)
        for name, arr in a.params.items():
            assert arr.tobytes() == b.params[name].tobytes(), name
        assert set(a.opt_state) == set(b.opt_state) and a.opt_state
        for name, arr in a.opt_state.items():
            assert arr.tobytes() == b.opt_state[name].tobytes(), name

    def test_non_finite_loss_aborts_with_last_good_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "run", epochs=3)
        # one step per epoch, so the second step runs after epoch 0's checkpoint
        cfg.train.batch = len(pl.load_training_windows(cfg))
        monkeypatch.setattr(TrajectoryModel, "batch_loss", nan_on_call(2))
        result = pl.train(cfg)
        assert result.aborted
        ckpt = load_checkpoint(result.last_path)
        assert ckpt.epoch == 1 and ckpt.opt_step == 1
        params = pl.restore_model(ckpt).params()
        assert set(params) == set(ckpt.params)
        for name, arr in ckpt.params.items():
            assert params[name].data.tobytes() == arr.tobytes(), name
        fresh = pl.build_model(cfg).params()
        assert any(fresh[n].data.tobytes() != a.tobytes() for n, a in ckpt.params.items())

        from stglow.cli import main

        cfg.train.out_dir = str(tmp_path / "cli")
        save_config(cfg, tmp_path / "run.cfg")
        monkeypatch.setattr(TrajectoryModel, "batch_loss", nan_on_call(2))
        assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 1
        assert load_checkpoint(tmp_path / "cli" / "last.ckpt").epoch == 1

    def test_only_a_run_from_scratch_initialises(self, tmp_path, monkeypatch):
        calls = []
        initialize = FlowStack.initialize
        monkeypatch.setattr(FlowStack, "initialize", lambda self, mb, st: calls.append(len(mb)) or initialize(self, mb, st))
        pl.train(tiny_config(tmp_path, epochs=1))
        assert calls == [len(pl.load_training_windows(tiny_config(tmp_path)))]
        pl.train(tiny_config(tmp_path, epochs=2), resume=tmp_path / "last.ckpt")
        assert len(calls) == 1

    def test_singular_mixing_matrix_steps_are_skipped(self, tmp_path):
        cfg = tiny_config(tmp_path / "a", epochs=1)
        ckpt = load_checkpoint(pl.train(cfg).last_path)
        ckpt.params["flow.op01.lin.w"][:] = 0.0
        save_checkpoint(ckpt, tmp_path / "zeroed.ckpt")
        n = len(pl.load_training_windows(cfg))
        result = pl.train(tiny_config(tmp_path / "b", epochs=2), resume=tmp_path / "zeroed.ckpt")
        assert not result.aborted
        assert result.skipped_steps == len([lo for lo in range(0, n, cfg.train.batch) if n - lo >= 2]) > 0
        last = load_checkpoint(result.last_path)
        assert last.epoch == 2 and last.opt_step == ckpt.opt_step
        for name, arr in ckpt.params.items():
            assert last.params[name].tobytes() == arr.tobytes(), name

    def test_float32_selection_overflow_falls_back_and_trains_on(self, tmp_path):
        # the reverse pass ends by dividing channel 0 by this scale: behaviours of
        # ~1e39, past float32's range, so the first step's float32 selection goes
        # non-finite; its Adam update moves the scale to the order of lr
        cfg = tiny_config(tmp_path / "a", epochs=1)
        ckpt = load_checkpoint(pl.train(cfg).last_path)
        ckpt.params["flow.op00.pn.s"][0] = 1e-39
        save_checkpoint(ckpt, tmp_path / "tiny_scale.ckpt")
        result = pl.train(tiny_config(tmp_path / "b", epochs=2), resume=tmp_path / "tiny_scale.ckpt")
        assert not result.aborted and result.skipped_steps == 0
        assert result.selection_fallbacks == 1
        assert np.isfinite(result.history[0]["l_total"])
        assert load_checkpoint(result.last_path).opt_step == ckpt.opt_step + 2

    def test_singular_mixing_matrix_skips_validation_and_keeps_checkpointing(self, tmp_path, caplog):
        cfg = tiny_config(tmp_path / "a", epochs=1)
        cfg.train.val_fraction = 0.25
        ckpt = load_checkpoint(pl.train(cfg).last_path)
        assert (tmp_path / "a" / "best.ckpt").exists()
        ckpt.params["flow.op01.lin.w"][:] = 0.0
        save_checkpoint(ckpt, tmp_path / "zeroed.ckpt")
        cfg.train.epochs = 2
        cfg.train.out_dir = str(tmp_path / "b")
        with caplog.at_level(logging.WARNING, logger="stglow"):
            result = pl.train(cfg, resume=tmp_path / "zeroed.ckpt")
        assert result.skipped_steps > 0 and not result.aborted
        assert [sorted(e) for e in result.history] == [["epoch", "l_p", "l_total", "l_traj"]]
        assert "epoch 1: skipped validation (singular mixing matrix)" in caplog.messages
        assert load_checkpoint(tmp_path / "b" / "last.ckpt").epoch == 2
        assert result.best_path is None and not (tmp_path / "b" / "best.ckpt").exists()

    def test_scaled_mixing_matrices_still_train(self, tmp_path):
        # 0.4 times a rotation has condition number 1 but |det| = 0.4^32 < 1e-12
        cfg = toy_config(0)
        cfg.train.epochs = 0
        cfg.train.out_dir = str(tmp_path / "a")
        ckpt = load_checkpoint(pl.train(cfg).last_path)
        for name in ckpt.params:
            if name.endswith(".lin.w"):
                ckpt.params[name] *= 0.4
        save_checkpoint(ckpt, tmp_path / "scaled.ckpt")
        cfg.train.epochs = 1
        cfg.train.out_dir = str(tmp_path / "b")
        result = pl.train(cfg, resume=tmp_path / "scaled.ckpt")
        assert result.skipped_steps == 0
        assert np.isfinite(result.history[0]["l_total"])

    def test_toy_preset_epoch_raises_no_warning(self, tmp_path):
        # the first toy epoch's sampled tails overflow the GRU gates' exp
        cfg = toy_config(0)
        cfg.train.epochs = 1
        cfg.train.out_dir = str(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = pl.train(cfg)
        assert np.isfinite(result.history[0]["l_total"])

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

    def test_checkpoints_are_written_from_the_live_arrays(self, tmp_path, monkeypatch):
        """Training keeps one copy of the model: every file it writes (last,
        per-epoch and best) streams the live parameter and Adam arrays."""
        live: dict = {}
        real_build, real_adam, real_save = pl.build_model, pl.Adam, pl.save_checkpoint
        monkeypatch.setattr(pl, "build_model", lambda cfg: live.setdefault("model", real_build(cfg)))
        monkeypatch.setattr(pl, "Adam", lambda *a, **kw: live.setdefault("opt", real_adam(*a, **kw)))
        written = []

        def checking_save(ckpt, path):
            params = {k: p.data for k, p in live["model"].params().items()}
            opt_state = live["opt"].state_arrays()
            assert set(ckpt.params) == set(params) and set(ckpt.opt_state) == set(opt_state)
            assert all(np.shares_memory(a, params[k]) for k, a in ckpt.params.items())
            assert all(np.shares_memory(a, opt_state[k]) for k, a in ckpt.opt_state.items())
            written.append(Path(path).name)
            real_save(ckpt, path)

        monkeypatch.setattr(pl, "save_checkpoint", checking_save)
        cfg = tiny_config(tmp_path, epochs=2)
        cfg.train.val_fraction = 0.25
        cfg.train.keep_epoch_checkpoints = True
        pl.train(cfg)
        assert {"last.ckpt", "epoch_002.ckpt", "best.ckpt"} <= set(written)

    def test_resume_past_epochs_rejected_before_writing(self, tmp_path):
        pl.train(tiny_config(tmp_path, epochs=3))
        last = tmp_path / "last.ckpt"
        before = last.read_bytes()
        with pytest.raises(ConfigError, match="past train.epochs"):
            pl.train(tiny_config(tmp_path, epochs=1), resume=last)
        assert last.read_bytes() == before
        assert load_checkpoint(last).epoch == 3

    def test_resume_rejects_incomplete_adam_state(self, tmp_path):
        ckpt = load_checkpoint(pl.train(tiny_config(tmp_path / "a", epochs=1)).last_path)
        del ckpt.opt_state[sorted(ckpt.opt_state)[0]]
        save_checkpoint(ckpt, tmp_path / "partial.ckpt")
        with pytest.raises(ShapeError, match="optimizer state does not match"):
            pl.train(tiny_config(tmp_path / "b", epochs=2), resume=tmp_path / "partial.ckpt")

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
        return pl.restore_model(load_checkpoint(result.last_path)), cfg

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

    def test_never_initialised_model_forecasts_with_identity_norms(self, tmp_path):
        model = pl.build_model(tiny_config(tmp_path))
        norms = [op for op in model.flow.ops if isinstance(op, PatternNorm)]
        assert norms and all(np.all(op.s.data == 1.0) and np.all(op.b.data == 0.0) for op in norms)
        report = pl.evaluate(model, {"s": self.windows(2)}, k=2, sigma=1.0, seed=0)
        assert np.isfinite(report.rows[0].ade)

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
        "leaked_ndims, failure",
        # the temporal mask is (T, T); the spatial graphormer's are (Q, N, N)
        [((2, 3), "temporal mask leak"), ((3,), "spatial mask leak")],
        ids=["temporal mask leak", "spatial mask leak"],
    )
    def test_mask_leak_in_forward_pass_fails(self, tmp_path, monkeypatch, leaked_ndims, failure):
        cfg = tiny_config(tmp_path)
        path = tmp_path / "m.ckpt"
        save_checkpoint(pl.snapshot(pl.build_model(cfg), cfg, None, 0), path)
        real = nc.attention

        def leaky(qkv, mask, *args):  # the attention op ignores the masks of the leaked kind
            return real(qkv, None if mask.ndim in leaked_ndims else mask, *args)

        monkeypatch.setattr(nc, "attention", leaky)
        report, ok = pl.check(path, work_dir=tmp_path)
        assert not ok
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["mask_causality"]["passed"] is False
        assert by_name["mask_causality"]["failure"] == failure
        assert all(c["passed"] for name, c in by_name.items() if name != "mask_causality")

    def test_broken_attention_gradient_fails(self, tmp_path, monkeypatch):
        real = nc.attention

        def no_query_gradient(qkv, *args, **kw):  # the same values, but no gradient reaches the queries
            frozen = nc.Tensor(qkv.data[:, :, :1])
            return real(nc.concat([frozen, nc.index(qkv, np.s_[:, :, 1:])], 2), *args, **kw)

        monkeypatch.setattr(nc, "attention", no_query_gradient)
        report, ok = pl.check(None, work_dir=tmp_path)
        assert not ok
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["gradient_check"]["passed"] is False
        assert by_name["gradient_check"]["max_rel_gradient_error"] >= 1e-3
        assert all(c["passed"] for name, c in by_name.items() if name != "gradient_check")

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
        model = pl.restore_model(load_checkpoint(result.last_path))
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
        ["use_spatial", "use_pattern_norm", "bidirectional"],
    )
    def test_each_switch_trains_and_evaluates(self, tmp_path, flag):
        cfg = tiny_config(tmp_path / flag, epochs=1, **{flag: False})
        result = pl.train(cfg)
        assert not result.aborted
        model = pl.restore_model(load_checkpoint(result.last_path))
        ws = synth_scenes(SynthSpec(kinds=("straight",), count=2, seed=1, noise_std=0.01))
        report = pl.evaluate(model, {"s": ws}, k=2, sigma=1.0, seed=0)
        assert np.isfinite(report.rows[0].ade)


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

    def test_forecast_flags_default_to_the_checkpoint_eval_section(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "run", epochs=0)
        cfg.eval.k = 3
        ckpt = str(pl.train(cfg).last_path)
        assert self.run_cli("eval", "--ckpt", ckpt, "--data", "synth:straight:n=2:seed=9") == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0].split(",")[1] == "K" and {r.split(",")[1] for r in rows[1:]} == {"3"}
        assert self.run_cli("sample", "--ckpt", ckpt, "--scene", "0", "--out", str(tmp_path / "plots")) == 0
        paths = pl.parse_sample_csv((tmp_path / "plots" / "scene0_trajectories.csv").read_text())
        assert {k for _, k in paths} == {0, 1, 2}

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
            "eval_version_3_checkpoint",
            "eval_version_4_checkpoint",
            "train_removed_switch",
            "train_zero_heads",
            "train_zero_flow_steps",
            "train_zero_factor_out_every",
            "train_zero_checkpoint_every",
            "train_zero_window_stride",
            "eval_infinite_frame_id",
            "eval_nan_position",
            "train_negative_lr",
            "train_negative_sigma",
            "eval_negative_sigma",
            "eval_nan_sigma",
            "eval_infinite_sigma",
            "eval_zero_k",
            "sample_nan_sigma",
            "sample_zero_k",
            "eval_checkpoint_negative_sigma",
            "train_negative_env_seed",
            "eval_negative_env_seed",
            "sample_negative_env_seed",
            "eval_out_in_missing_dir",
            "sample_out_is_a_file",
            "train_out_dir_below_a_file",
            "train_synth_with_paths",
            "train_eth_ucy_without_paths",
            "eval_huge_sigma",
            "eval_no_windows",
            "sample_huge_sigma_fresh_out",
            "train_no_windows_fresh_out_dir",
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, capsys, case):
        cfg = tiny_config(tmp_path / "run", epochs=0)
        good_cfg = tmp_path / "good.cfg"
        save_config(cfg, good_cfg)
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("model.d = 3x\n")
        removed_cfg = tmp_path / "removed.cfg"
        removed_cfg.write_text("model.use_centrality = False\n")
        good_ckpt = pl.train(cfg).last_path  # 0 epochs, PatternNorms set from data
        later_ckpt = tmp_path / "later.ckpt"  # past the good config's 0 epochs
        save_checkpoint(dataclasses.replace(load_checkpoint(good_ckpt), epoch=3), later_ckpt)
        negative_sigma_ckpt = tmp_path / "negative_sigma.ckpt"
        save_checkpoint(dataclasses.replace(load_checkpoint(good_ckpt), config=from_flat({"eval.sigma": -1.0}, cfg)), negative_sigma_ckpt)
        bad_ckpt = tmp_path / "bad.ckpt"
        write_with_header(bad_ckpt, b"{}")
        missing = str(tmp_path / "missing")
        non_utf8 = tmp_path / "utf16.txt"
        non_utf8.write_bytes(b"\xff\xfe1\x000\x00 \x001\x00")
        synth = "synth:straight:n=2:seed=9:noise=0.01"
        zeroed = {}
        for key in ("model.n_heads", "model.n_flow_steps", "model.factor_out_every", "train.checkpoint_every", "data.window_stride"):
            zeroed[key] = tmp_path / f"zero_{key.split('.')[1]}.cfg"
            zeroed[key].write_text(good_cfg.read_text() + f"{key} = 0\n")
        negative = {}
        for key in ("train.lr", "eval.sigma"):
            negative[key] = tmp_path / f"negative_{key.split('.')[1]}.cfg"
            negative[key].write_text(good_cfg.read_text() + f"{key} = -2.0\n")
        (tmp_path / "inf_frame.txt").write_text("0 1 0.0 0.0\ninf 1 0.5 0.5\n")
        (tmp_path / "nan_position.txt").write_text("0 1 nan 0.0\n")
        for version in (1, 2, 3, 4):
            payload = bytearray(good_ckpt.read_bytes()[4:-4])
            payload[:4] = struct.pack("<I", version)
            (tmp_path / f"v{version}.ckpt").write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        below_file_cfg = tmp_path / "below_file.cfg"
        below_file_cfg.write_text(good_cfg.read_text() + f"train.out_dir = {str(a_file / 'run')!r}\n")
        synth_paths_cfg = tmp_path / "synth_paths.cfg"
        synth_paths_cfg.write_text(good_cfg.read_text() + "data.paths = ('/nonexistent/eth.txt',)\ndata.holdout = 'zara1'\n")
        no_paths_cfg = tmp_path / "no_paths.cfg"
        no_paths_cfg.write_text(good_cfg.read_text() + "data.format = 'eth_ucy'\n")
        fresh_out = tmp_path / "fresh" / "out"  # neither directory exists yet
        (tmp_path / "short.txt").write_text("0 1 0.0 0.0\n10 1 0.4 0.0\n")  # two frames: no window
        no_windows_cfg = tmp_path / "no_windows.cfg"
        no_windows_cfg.write_text(
            good_cfg.read_text()
            + f"data.format = 'eth_ucy'\ndata.paths = ({str(tmp_path / 'short.txt')!r},)\ntrain.out_dir = {str(fresh_out)!r}\n"
        )
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
            "eval_version_3_checkpoint": ["eval", "--ckpt", str(tmp_path / "v3.ckpt"), "--data", synth],
            "eval_version_4_checkpoint": ["eval", "--ckpt", str(tmp_path / "v4.ckpt"), "--data", synth],
            "train_removed_switch": ["train", "--config", str(removed_cfg)],
            "train_zero_heads": ["train", "--config", str(zeroed["model.n_heads"])],
            "train_zero_flow_steps": ["train", "--config", str(zeroed["model.n_flow_steps"])],
            "train_zero_factor_out_every": ["train", "--config", str(zeroed["model.factor_out_every"])],
            "train_zero_checkpoint_every": ["train", "--config", str(zeroed["train.checkpoint_every"])],
            "train_zero_window_stride": ["train", "--config", str(zeroed["data.window_stride"])],
            "eval_infinite_frame_id": ["eval", "--ckpt", str(good_ckpt), "--data", str(tmp_path / "inf_frame.txt")],
            "eval_nan_position": ["eval", "--ckpt", str(good_ckpt), "--data", str(tmp_path / "nan_position.txt")],
            "train_negative_lr": ["train", "--config", str(negative["train.lr"])],
            "train_negative_sigma": ["train", "--config", str(negative["eval.sigma"])],
            "eval_negative_sigma": ["eval", "--ckpt", str(good_ckpt), "--data", synth, "--sigma", "-1"],
            "eval_nan_sigma": ["eval", "--ckpt", str(good_ckpt), "--data", synth, "--sigma", "nan"],
            "eval_infinite_sigma": ["eval", "--ckpt", str(good_ckpt), "--data", synth, "--sigma", "inf"],
            "eval_zero_k": ["eval", "--ckpt", str(good_ckpt), "--data", synth, "--k", "0"],
            "sample_nan_sigma": ["sample", "--ckpt", str(good_ckpt), "--data", synth, "--scene", "0", "--out", str(tmp_path / "s"), "--sigma", "nan"],
            "sample_zero_k": ["sample", "--ckpt", str(good_ckpt), "--data", synth, "--scene", "0", "--out", str(tmp_path / "s"), "--k", "0"],
            "eval_checkpoint_negative_sigma": ["eval", "--ckpt", str(negative_sigma_ckpt), "--data", synth],
            "train_negative_env_seed": ["train", "--config", str(good_cfg)],
            "eval_negative_env_seed": ["eval", "--ckpt", str(good_ckpt), "--data", synth],
            "sample_negative_env_seed": ["sample", "--ckpt", str(good_ckpt), "--data", synth, "--scene", "0", "--out", str(tmp_path / "s")],
            "eval_out_in_missing_dir": ["eval", "--ckpt", str(good_ckpt), "--data", synth, "--out", missing + "/m.csv"],
            "sample_out_is_a_file": ["sample", "--ckpt", str(good_ckpt), "--data", synth, "--scene", "0", "--out", str(a_file)],
            "train_out_dir_below_a_file": ["train", "--config", str(below_file_cfg)],
            "train_synth_with_paths": ["train", "--config", str(synth_paths_cfg)],
            "train_eth_ucy_without_paths": ["train", "--config", str(no_paths_cfg)],
            "eval_huge_sigma": ["eval", "--ckpt", str(good_ckpt), "--data", "synth:straight:n=2", "--sigma", "1e200"],
            "eval_no_windows": ["eval", "--ckpt", str(good_ckpt), "--data", os.devnull],
            "sample_huge_sigma_fresh_out": ["sample", "--ckpt", str(good_ckpt), "--data", synth, "--scene", "0", "--out", str(fresh_out), "--sigma", "1e200"],
            "train_no_windows_fresh_out_dir": ["train", "--config", str(no_windows_cfg)],
        }[case]
        if case == "train_non_integer_seed":
            monkeypatch.setenv("STGLOW_SEED", "12a")
        if case.endswith("_negative_env_seed"):
            monkeypatch.setenv("STGLOW_SEED", "-3")
        # a bad output path fails before the work that it would receive
        unreached = {
            "eval_out_in_missing_dir": (cli, "evaluate"),
            "sample_out_is_a_file": (TrajectoryModel, "forecast"),
            "train_out_dir_below_a_file": (pl, "build_model"),
        }
        if case in unreached:
            monkeypatch.setattr(*unreached[case], lambda *a, **kw: pytest.fail("reached the work before the output path"))
        assert self.run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # each case names its cause; a late failure, say at the first forecast, does not pass
        cause = {
            "train_missing_config": "missing: cannot read config",
            "train_mistyped_config": "bad.cfg:1: model.d: expected int, got '3x'",
            "train_non_integer_seed": "STGLOW_SEED must be an integer, got '12a'",
            "eval_missing_checkpoint": "missing: cannot read checkpoint",
            "eval_malformed_header": "bad.ckpt: incomplete header",
            "eval_missing_data": "missing.txt: cannot open dataset file",
            "eval_non_utf8_data": "utf16.txt: not a UTF-8 text file",
            "eval_non_numeric_synth_field": "synth-spec field 'n': expected int, got 'abc'",
            "eval_synth_out_of_range": "synth-spec field 'noise' must be in [0, inf), got -1.0",
            "eval_synth_window_steps": "unknown synth-spec field 'to'",
            "train_resume_past_epochs": "checkpoint is at epoch 3, past train.epochs = 0",
            "eval_version_1_checkpoint": "v1.ckpt: unsupported checkpoint version 1",
            "eval_version_2_checkpoint": "v2.ckpt: unsupported checkpoint version 2",
            "eval_version_3_checkpoint": "v3.ckpt: unsupported checkpoint version 3",
            "eval_version_4_checkpoint": "v4.ckpt: unsupported checkpoint version 4",
            "train_removed_switch": "removed.cfg:1: unknown config field 'model.use_centrality'",
            "train_zero_heads": "model.n_heads must be >= 1, got 0",
            "train_zero_flow_steps": "model.n_flow_steps must be >= 1, got 0",
            "train_zero_factor_out_every": "model.factor_out_every must be >= 1, got 0",
            "train_zero_checkpoint_every": "train.checkpoint_every must be >= 1, got 0",
            "train_zero_window_stride": "data.window_stride must be >= 1, got 0",
            "eval_infinite_frame_id": "line 2: non-finite field in 'inf 1 0.5 0.5'",
            "eval_nan_position": "line 1: non-finite field in '0 1 nan 0.0'",
            "train_negative_lr": "train.lr must be in (0, inf), got -2.0",
            "train_negative_sigma": "eval.sigma must be in [0, inf), got -2.0",
            "eval_negative_sigma": "--sigma must be in [0, inf), got -1.0",
            "eval_nan_sigma": "--sigma must be finite, got nan",
            "eval_infinite_sigma": "--sigma must be finite, got inf",
            "eval_zero_k": "--k must be >= 1, got 0",
            "sample_nan_sigma": "--sigma must be finite, got nan",
            "sample_zero_k": "--k must be >= 1, got 0",
            "eval_checkpoint_negative_sigma": "negative_sigma.ckpt: header config: eval.sigma must be in [0, inf), got -1.0",
            "train_negative_env_seed": "STGLOW_SEED must be >= 0, got -3",
            "eval_negative_env_seed": "STGLOW_SEED must be >= 0, got -3",
            "sample_negative_env_seed": "STGLOW_SEED must be >= 0, got -3",
            "eval_out_in_missing_dir": "--out " + missing + "/m.csv: cannot write the metrics CSV (No such file or directory)",
            "sample_out_is_a_file": "a_file: cannot make output directory (File exists)",
            "train_out_dir_below_a_file": "a_file/run: cannot make output directory (Not a directory)",
            "train_synth_with_paths": "data.paths is set, but data.format 'synth' reads no files",
            "train_eth_ucy_without_paths": "data.paths must name the track files of data.format 'eth_ucy'",
            "eval_huge_sigma": "a forecast lies beyond ±1e+06 m at sigma 1e+200",
            "eval_no_windows": "null: no pedestrian is tracked for the 20 frames of a window",
            "sample_huge_sigma_fresh_out": "a forecast lies beyond ±1e+06 m at sigma 1e+200",
            "train_no_windows_fresh_out_dir": "no training windows available",
        }[case]
        assert cause in err
        # a failed command removes the output directories it made, empty
        assert not (tmp_path / "fresh").exists()

    def test_failed_eval_leaves_out_as_it_was(self, tmp_path):
        ckpt = str(pl.train(tiny_config(tmp_path / "run", epochs=0)).last_path)
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_text("earlier metrics\n")
        for out in (kept, fresh):
            assert self.run_cli("eval", "--ckpt", ckpt, "--data", os.devnull, "--out", str(out)) == 2
        assert kept.read_text() == "earlier metrics\n" and not fresh.exists()

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


FUZZ_FLAGS = {
    "--k": hst.integers(-2, 4).map(str),
    "--scene": hst.integers(-2, 4).map(str),
    "--sigma": hst.sampled_from(["-1", "-1e-300", "0", "nan", "inf", "-inf", "1e200", "1e-3", "0.5", "1"]),
    "--data": hst.sampled_from(
        ["synth:straight:n=1", "synth:turn+crossing_pair:n=2:seed=5", "synth:straight:n=abc", "synth:", "garbage", os.devnull, "DIR", "MISSING"]
    ),
    "--out": hst.sampled_from(["MISSING/out.csv", "FILE", "DIR", "FRESH"]),
}


@hst.composite
def cli_argv(draw) -> list[str]:
    """`eval` or `sample` of the checkpoint CKPT: the command's required
    flags always given, the others given or left out, each as `--flag=value`
    so that argparse takes `-inf` for a value. Upper-case values name paths
    made for each call."""
    command = draw(hst.sampled_from(["eval", "sample"]))
    required = {"eval": {"--data"}, "sample": {"--scene", "--out"}}[command]
    argv = [command, "--ckpt=CKPT"]
    for flag, values in FUZZ_FLAGS.items():
        if flag in required or (flag != "--scene" and draw(hst.booleans())):
            argv.append(f"{flag}={draw(values)}")
    return argv


class TestCliFuzz:
    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        return str(pl.train(tiny_config(tmp_path_factory.mktemp("fuzz_run"), epochs=0)).last_path)

    @settings(max_examples=150, deadline=None)
    @given(argv=cli_argv())
    @example(argv=["eval", "--ckpt=CKPT", "--data=synth:straight:n=2", "--sigma=1e200"])
    @example(argv=["eval", "--ckpt=CKPT", f"--data={os.devnull}"])
    def test_eval_and_sample_exit_0_or_2(self, ckpt, argv):
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            (base / "DIR").mkdir()
            write_windows(synth_scenes(SynthSpec(count=2, seed=7)), base / "DIR" / "tracks.txt")
            (base / "FILE").write_text("earlier contents\n")
            paths = {"CKPT": ckpt, "DIR": base / "DIR", "FILE": base / "FILE", "FRESH": base / "fresh", "MISSING": base / "missing"}
            for name, path in paths.items():
                argv = [a.replace(f"={name}", f"={path}") for a in argv]
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                assert exc.code == 2
                return
            assert code in (0, 2)
