"""Bit-exact binary serialization of dense float32 tensors (CPNT format).

Layout, all little-endian, no padding and no footer:

    bytes 0..3    magic ``b"CPNT"``
    byte  4       format version, currently 0x01
    bytes 5..8    rank, uint32
    then          rank * uint32 extents
    then          prod(extents) * float32 payload, row-major

Tensors are plain ``numpy.float32`` arrays with rank >= 1 and every extent
>= 1; :func:`as_tensor` is the construction gate that enforces this.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
from pathlib import Path

import numpy as np

MAGIC = b"CPNT"
VERSION = 1

# Refuse payloads whose declared extents multiply out beyond this many
# elements; guards against nonsense headers allocating huge buffers.
MAX_ELEMENTS = 1 << 34


class TensorFormatError(ValueError):
    """Raised for malformed CPNT files; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def as_tensor(data) -> np.ndarray:
    """Validate and convert `data` to a row-major float32 tensor.

    Rejects rank-0 arrays and zero-length extents, so invalid tensors never
    reach the serializer.
    """
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim < 1:
        raise ValueError("tensor rank must be >= 1")
    if any(e < 1 for e in arr.shape):
        raise ValueError(f"tensor extents must all be >= 1, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def store_tensor(tensor, path) -> None:
    """Write `tensor` to `path` in CPNT format.

    Round-trips bit-exactly: ``load_tensor(store_tensor(t)) == t``. The
    bytes go to a temporary file in the same directory, which then replaces
    `path`; the old file is never truncated in place, so a reader that still
    maps it keeps its values.
    """
    arr = as_tensor(tensor).astype("<f4", copy=False)
    header = MAGIC + struct.pack("<B", VERSION) + struct.pack("<I", arr.ndim)
    extents = struct.pack(f"<{arr.ndim}I", *arr.shape)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(extents)
            fh.write(arr.data)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"cannot write tensor to {path}: {exc}") from exc


def load_tensor(path) -> np.ndarray:
    """Read a CPNT file back into a float32 array, bit-exactly.

    The array views a private copy-on-write mapping of the whole file, so a
    load copies nothing: pages are read in when first touched, the array is
    writable, and writes to it never reach the file. Each live array keeps
    the mapping, and with it a duplicate file descriptor, open.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            # an empty file cannot be mapped; it fails the magic check below
            size = os.fstat(fh.fileno()).st_size
            blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY) if size else b""
    except OSError as exc:
        raise OSError(f"cannot read tensor from {path}: {exc}") from exc

    if len(blob) < 4 or blob[:4] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic, expected {MAGIC!r}", 0)
    if len(blob) < 5:
        raise TensorFormatError(f"{path}: truncated before version byte", 4)
    if blob[4] != VERSION:
        raise TensorFormatError(f"{path}: unsupported version {blob[4]}", 4)
    if len(blob) < 9:
        raise TensorFormatError(f"{path}: truncated before rank field", 5)
    (rank,) = struct.unpack_from("<I", blob, 5)
    if rank < 1:
        raise TensorFormatError(f"{path}: rank must be >= 1, got {rank}", 5)

    extents_end = 9 + 4 * rank
    if len(blob) < extents_end:
        raise TensorFormatError(
            f"{path}: truncated extent list, need {rank} extents", len(blob)
        )
    shape = struct.unpack_from(f"<{rank}I", blob, 9)
    count = 1
    for i, e in enumerate(shape):
        if e < 1:
            raise TensorFormatError(f"{path}: extent {i} is zero", 9 + 4 * i)
        count *= e
    if count > MAX_ELEMENTS:
        raise TensorFormatError(
            f"{path}: extents {shape} overflow the element limit", 9
        )

    expected = extents_end + 4 * count
    if len(blob) < expected:
        raise TensorFormatError(
            f"{path}: truncated payload, expected {expected} bytes total", len(blob)
        )
    if len(blob) > expected:
        raise TensorFormatError(
            f"{path}: {len(blob) - expected} trailing bytes after payload", expected
        )

    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=extents_end)
    return flat.reshape(shape)
