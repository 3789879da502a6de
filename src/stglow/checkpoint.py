"""Versioned binary checkpoints with bit-exact parameter round-trips.

Layout: magic `STGF`, little-endian u32 version, u32 header length, a JSON
header (config snapshot, epoch, optimizer step, normalization-init flag,
RNG bookkeeping, record names), the named float64 payload records, and a
trailing CRC32 over everything after the magic.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import Config, flatten, from_flat
from .errors import CheckpointError, ConfigError

MAGIC = b"STGF"
VERSION = 1
HEADER_TYPES = {
    "config": dict,
    "epoch": int,
    "opt_step": int,
    "pn_initialized": bool,
    "rng_state": dict,
    "param_names": list,
    "opt_names": list,
}


@dataclass
class Checkpoint:
    config: Config
    params: dict[str, np.ndarray]
    opt_state: dict[str, np.ndarray] = field(default_factory=dict)
    opt_step: int = 0
    epoch: int = 0
    pn_initialized: bool = False
    rng_state: dict = field(default_factory=dict)


def _pack_record(name: str, arr: np.ndarray) -> bytes:
    name_b = name.encode("utf-8")
    parts = [struct.pack("<H", len(name_b)), name_b, struct.pack("<B", arr.ndim)]
    for dim in arr.shape:
        parts.append(struct.pack("<I", dim))
    parts.append(arr.astype("<f8", copy=False).tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError("checkpoint truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]


def _unpack_record(r: _Reader) -> tuple[str, np.ndarray]:
    name = r.take(r.u16()).decode("utf-8")
    ndim = r.u8()
    shape = tuple(r.u32() for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    arr = np.frombuffer(r.take(count * 8), dtype="<f8").reshape(shape).astype(np.float64)
    return name, arr


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    header = {
        "config": flatten(ckpt.config),
        "epoch": ckpt.epoch,
        "opt_step": ckpt.opt_step,
        "pn_initialized": ckpt.pn_initialized,
        "rng_state": ckpt.rng_state,
        "param_names": sorted(ckpt.params),
        "opt_names": sorted(ckpt.opt_state),
    }
    header_b = json.dumps(header, sort_keys=True).encode("utf-8")
    body = [struct.pack("<I", VERSION), struct.pack("<I", len(header_b)), header_b]
    for name in header["param_names"]:
        body.append(_pack_record(name, ckpt.params[name]))
    for name in header["opt_names"]:
        body.append(_pack_record(name, ckpt.opt_state[name]))
    payload = b"".join(body)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    Path(path).write_bytes(MAGIC + payload + struct.pack("<I", crc))


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc.strerror})") from None
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    payload, crc_stored = raw[4:-4], struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt file)")
    r = _Reader(payload)
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(r.take(r.u32()).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise CheckpointError(f"{path}: undecodable header: {exc}") from None
    if not isinstance(header, dict) or any(not isinstance(header.get(k), t) for k, t in HEADER_TYPES.items()):
        raise CheckpointError(f"{path}: incomplete header (needs {', '.join(HEADER_TYPES)})")
    try:
        config = from_flat(header["config"])
    except ConfigError as exc:
        raise CheckpointError(f"{path}: header config: {exc}") from None
    params = {}
    for expected in header["param_names"]:
        name, arr = _unpack_record(r)
        if name != expected:
            raise CheckpointError(f"{path}: record order mismatch at {name!r}")
        params[name] = arr
    opt_state = {}
    for expected in header["opt_names"]:
        name, arr = _unpack_record(r)
        if name != expected:
            raise CheckpointError(f"{path}: record order mismatch at {name!r}")
        opt_state[name] = arr
    if r.pos != len(payload):
        raise CheckpointError(f"{path}: trailing bytes in checkpoint")
    return Checkpoint(
        config=config,
        params=params,
        opt_state=opt_state,
        opt_step=header["opt_step"],
        epoch=header["epoch"],
        pn_initialized=header["pn_initialized"],
        rng_state=header["rng_state"],
    )
