"""Versioned binary checkpoints with bit-exact parameter round-trips.

Layout: magic `STGF`, little-endian u32 version, u32 header length, a JSON
header (`config`, flattened; `epoch`, the next one to train; `opt_step`;
`param_names` and `opt_names`, in file order), the named float64 records,
and a trailing CRC32 over everything after the magic. A record is a u16
name length, the UTF-8 name, a u8 ndim, one u32 per dim and the
little-endian float64 values in C order.

`save_checkpoint` and `load_checkpoint` stream this layout: they write or
read one record at a time and update the CRC as they go, so neither holds
a second copy of the payload.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import Config, flatten, from_flat, validate
from .errors import CheckpointError, ConfigError

MAGIC = b"STGF"
VERSION = 5  # 2: fused attention `wqkv`; 3: fused GRU `wx`, `bx`, `wh`; 4: no encoder component switches; 5: five header keys
HEADER_TYPES = {
    "config": dict,
    "epoch": int,
    "opt_step": int,
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


MAX_NDIM = 32  # numpy's own limit was 32 dims before 2.0


class _Reader:
    """Reads the bytes between the magic and the trailing CRC, refusing any
    read past them and folding every byte read into a running CRC."""

    def __init__(self, fh, path: str | Path, left: int):
        self.fh = fh
        self.path = path
        self.left = left
        self.crc = 0

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise CheckpointError(f"{self.path}: checkpoint truncated")
        self.left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.fh.read(n)
        if len(out) != n:  # the file shrank while being read
            raise CheckpointError(f"{self.path}: checkpoint truncated")
        self.crc = zlib.crc32(out, self.crc)
        return out

    def fill(self, arr: np.ndarray) -> None:
        """Read `arr.nbytes` bytes straight into the C-contiguous `arr`."""
        view = memoryview(arr.reshape(-1)).cast("B")
        self._claim(len(view))
        if self.fh.readinto(view) != len(view):
            raise CheckpointError(f"{self.path}: checkpoint truncated")
        self.crc = zlib.crc32(view, self.crc)

    def crc_matches(self) -> bool:
        """Whether the stored CRC matches all bytes before it, reading any
        not yet read in bounded chunks."""
        while self.left:
            self.take(min(self.left, 1 << 20))
        return struct.unpack("<I", self.fh.read(4))[0] == self.crc & 0xFFFFFFFF

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]


def _unpack_record(r: _Reader) -> tuple[str, np.ndarray]:
    try:
        name = r.take(r.u16()).decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{r.path}: record name is not UTF-8") from None
    ndim = r.u8()
    if ndim > MAX_NDIM:
        raise CheckpointError(f"{r.path}: record {name!r} has {ndim} dims (at most {MAX_NDIM})")
    shape = tuple(r.u32() for _ in range(ndim))
    if 8 * math.prod(shape) > r.left:  # before allocating: the dims may be garbage
        raise CheckpointError(f"{r.path}: checkpoint truncated")
    try:
        arr = np.empty(shape, dtype="<f8")
    except ValueError:  # an empty array whose other dims overflow numpy's size
        raise CheckpointError(f"{r.path}: record {name!r} has an impossible shape {shape}") from None
    r.fill(arr)
    return name, arr.astype(np.float64, copy=False)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write `ckpt` to `path` atomically, streamed record by record.

    The bytes go to a temp file beside `path`, are fsynced and then renamed
    over it, so a crash mid-write leaves the previous file intact; on any
    failure the temp file is removed. Each record is written straight from
    its array's memory and the CRC is updated incrementally, so the save
    allocates little beyond the JSON header whatever the file size.
    """
    header = {
        "config": flatten(ckpt.config),
        "epoch": ckpt.epoch,
        "opt_step": ckpt.opt_step,
        "param_names": sorted(ckpt.params),
        "opt_names": sorted(ckpt.opt_state),
    }
    header_b = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = [(name, ckpt.params[name]) for name in header["param_names"]]
    arrays += [(name, ckpt.opt_state[name]) for name in header["opt_names"]]
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            crc = 0
            for chunk in _payload(header_b, arrays):
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(struct.pack("<I", crc & 0xFFFFFFFF))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _payload(header_b: bytes, arrays: list[tuple[str, np.ndarray]]):
    """The bytes between the magic and the CRC, as a stream of buffers: the
    version and header, then per record its name-and-shape prefix and a view
    of its values, uncopied when the array is little-endian float64 in C order."""
    yield struct.pack("<II", VERSION, len(header_b))
    yield header_b
    for name, arr in arrays:
        name_b = name.encode("utf-8")
        yield struct.pack(f"<H{len(name_b)}sB{arr.ndim}I", len(name_b), name_b, arr.ndim, *arr.shape)
        yield memoryview(arr.astype("<f8", order="C", copy=False))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, streaming each record into its array.

    Memory use is about one copy of the file. Damage that the CRC catches
    is reported as a checksum mismatch, even where it also broke the
    parse.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < 12 or fh.read(4) != MAGIC:
                raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
            r = _Reader(fh, path, size - 8)
            try:
                ckpt = _parse(r)
            except CheckpointError:
                if not r.crc_matches():
                    raise CheckpointError(f"{path}: checksum mismatch (corrupt file)") from None
                raise
            if not r.crc_matches():
                raise CheckpointError(f"{path}: checksum mismatch (corrupt file)")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc.strerror})") from None
    return ckpt


def _parse(r: _Reader) -> Checkpoint:
    path = r.path
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
        config = validate(from_flat(header["config"]))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: header config: {exc}") from None
    records = {}
    for group in ("param_names", "opt_names"):
        records[group] = {}
        for expected in header[group]:
            name, arr = _unpack_record(r)
            if name != expected:
                raise CheckpointError(f"{path}: record order mismatch at {name!r}")
            records[group][name] = arr
    if r.left:
        raise CheckpointError(f"{path}: trailing bytes in checkpoint")
    return Checkpoint(
        config=config,
        params=records["param_names"],
        opt_state=records["opt_names"],
        opt_step=header["opt_step"],
        epoch=header["epoch"],
    )
