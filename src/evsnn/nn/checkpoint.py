"""Versioned binary checkpoint: named tensors with shape headers.

Layout (all integers little-endian):

    magic   4s   b"EVCK"
    version u16  (currently 1)
    count   u32  number of tensors
    meta    u32 length + UTF-8 JSON (canonical: sorted keys, compact)
    then per tensor, in strictly ascending name order (a reader refuses repeats):
        name  u16 length + UTF-8 bytes
        dtype u8 length + numpy dtype string (e.g. "<f4")
        ndim  u8, then u32 per dimension
        raw little-endian array bytes (C order)

Writing is byte-deterministic for a given params dict and metadata.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .._schema import SchemaError, canonical, loads

MAGIC = b"EVCK"
VERSION = 1

_HEAD = struct.Struct("<4sHI")


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


def save_checkpoint(path, params: dict[str, np.ndarray], meta: dict | None = None) -> None:
    meta_bytes = canonical(meta or {}).encode()
    chunks = [_HEAD.pack(MAGIC, VERSION, len(params)),
              struct.pack("<I", len(meta_bytes)), meta_bytes]
    for name in sorted(params):
        # asarray(order="C") forces contiguity without promoting 0-d to 1-d
        arr = np.asarray(params[name], order="C")
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        dt = arr.dtype.str.encode()
        nb = name.encode()
        chunks.append(struct.pack("<H", len(nb)) + nb)
        chunks.append(struct.pack("<B", len(dt)) + dt)
        chunks.append(struct.pack("<B", arr.ndim)
                      + struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    blob = Path(path).read_bytes()
    if len(blob) < _HEAD.size:
        raise CheckpointError("truncated header")
    magic, version, count = _HEAD.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    pos = _HEAD.size

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"truncated {what} at offset {pos}")
        out = blob[pos:pos + n]
        pos += n
        return out

    def text(n: int, what: str) -> str:
        at = pos
        try:
            return take(n, what).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{what} at offset {at} is not UTF-8") from exc

    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    try:
        meta = loads(take(meta_len, "metadata"), f"{path}: metadata")
    except SchemaError as exc:
        raise CheckpointError(f"bad metadata block: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"bad metadata block: {type(meta).__name__}, not a JSON object")

    params: dict[str, np.ndarray] = {}
    for k in range(count):
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        name = text(name_len, "tensor name")
        if params and name <= prev:
            raise CheckpointError(f"tensor {name} follows tensor {prev}: names must ascend")
        prev = name
        (dt_len,) = struct.unpack("<B", take(1, "dtype length"))
        try:
            dtype = np.dtype(text(dt_len, "dtype"))
        except (TypeError, ValueError, SyntaxError) as exc:  # numpy's parsers raise all three
            raise CheckpointError(f"tensor {name}: bad dtype: {exc}") from exc
        if dtype.kind not in "biufc":  # numbers only: no objects, records or empty items
            raise CheckpointError(f"tensor {name}: bad dtype: {dtype.str} is not numeric")
        (ndim,) = struct.unpack("<B", take(1, "rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
        size = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        raw = take(size * dtype.itemsize, f"tensor {name} data")
        params[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if pos != len(blob):
        raise CheckpointError(f"{len(blob) - pos} trailing bytes at offset {pos}")
    return params, meta
