"""Bit-exact binary serialization of dense float32 tensors (CPNT format).

Layout, all little-endian, no padding and no footer:

    bytes 0..3    magic ``b"CPNT"``
    byte  4       format version, 0x01 or 0x02
    bytes 5..8    rank, uint32
    then          rank * uint32 extents
    version 1:    prod(extents) * float32 payload, row-major
    version 2:    slice count S, uint32
                  S strictly ascending uint32 indices of the stored
                  axis-0 slices
                  S * prod(extents[1:]) * float32 payload, those slices
                  in index order, row-major

A version-2 file leaves out axis-0 slices whose every element has all bits
zero (``-0.0`` and NaN are stored); they load as zeros. :func:`store_tensor`
writes version 2 only when that saves bytes, so a dense tensor keeps its
version-1 bytes. A caller that knows which slices may hold data passes
them as `slices`, and the store then reads those slices alone.

Tensors are plain ``numpy.float32`` arrays with rank >= 1 and every extent
>= 1; :func:`as_tensor` is the construction gate that enforces this.
:func:`anonymous_zeros` gives such a tensor whose pages take memory only
once written: the feature maps are painted into them, and a version-2
file loads into them, so the slices never written are never touched.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import threading
from pathlib import Path

import numpy as np

MAGIC = b"CPNT"
VERSION = 1
SPARSE_VERSION = 2

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


def anonymous_zeros(shape) -> np.ndarray:
    """A writable float32 array of zeros in private anonymous pages.

    The pages read as zeros and cost nothing until written, and they go back
    to the system when the array is freed, so a large map whose slices are
    mostly never written holds only the pages of the slices that are.
    """
    zeros = mmap.mmap(-1, 4 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(zeros, dtype="<f4").reshape(shape)


def check_slices(name: str, slices: np.ndarray, depth: int) -> None:
    """Raise a ValueError unless `slices` is a 1-D ascending integer array within [0, depth)."""
    if slices.ndim != 1 or (
        slices.size
        and (
            slices.dtype.kind not in "iu"
            or slices[0] < 0
            or slices[-1] >= depth
            or (np.diff(slices) <= 0).any()
        )
    ):
        raise ValueError(f"{name} must be ascending integers in [0, {depth}), got {slices.tolist()}")


def _stored_slices(arr: np.ndarray) -> np.ndarray | None:
    """Indices of the axis-0 slices with a nonzero bit, or None if every slice has one."""
    words = arr.view("<u4").reshape(arr.shape[0], -1)
    # a slice whose first word is set holds data; scan the rest only when
    # some first word is zero, so a dense tensor costs one word per slice
    if words[:, 0].all():
        return None
    live = np.flatnonzero(words.max(axis=1))
    return None if live.size == arr.shape[0] else live


def store_tensor(tensor, path, slices=None) -> None:
    """Write `tensor` to `path` in CPNT format.

    Round-trips bit-exactly: ``load_tensor(store_tensor(t)) == t``. The file
    is version 2 when leaving out the all-zero axis-0 slices makes it
    smaller, version 1 otherwise. The bytes go to a temporary file in the
    same directory, which then replaces `path`; the old file is never
    truncated in place, so a reader that still maps it keeps its values.

    Without `slices`, the tensor is scanned for its all-zero slices. With
    `slices`, the ascending axis-0 indices of the slices that may hold data,
    every other slice is taken to be all zeros and is never read: the file
    is version 2 storing exactly those slices when that saves bytes, and a
    version-1 file of the whole tensor otherwise. Bad `slices` raise a
    ValueError before any file is opened.
    """
    arr = as_tensor(tensor).astype("<f4", copy=False)
    extents = struct.pack(f"<{arr.ndim}I", *arr.shape)
    if slices is None:
        slices = _stored_slices(arr)
    else:
        slices = np.asarray(slices)
        check_slices("slices", slices, arr.shape[0])
    # version 2 adds a count and an index per stored slice
    if slices is not None and 4 + slices.size * (4 + arr[0].nbytes) < arr.nbytes:
        header = MAGIC + struct.pack("<BI", SPARSE_VERSION, arr.ndim) + extents
        header += struct.pack(f"<I{slices.size}I", slices.size, *slices.tolist())
        payload = [arr[i].data for i in slices]
    else:
        header = MAGIC + struct.pack("<BI", VERSION, arr.ndim) + extents
        payload = [arr.data]
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.writelines(payload)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"cannot write tensor to {path}: {exc}") from exc


def _check_size(path, blob, expected: int) -> None:
    if len(blob) < expected:
        raise TensorFormatError(
            f"{path}: truncated payload, expected {expected} bytes total", len(blob)
        )
    if len(blob) > expected:
        raise TensorFormatError(
            f"{path}: {len(blob) - expected} trailing bytes after payload", expected
        )


def _slice_list(path, blob, at: int, depth: int) -> np.ndarray:
    """The validated slice indices of a version-2 header whose count sits at `at`."""
    if len(blob) < at + 4:
        raise TensorFormatError(f"{path}: truncated before slice count", at)
    (stored,) = struct.unpack_from("<I", blob, at)
    if stored > depth:
        raise TensorFormatError(
            f"{path}: slice count {stored} exceeds extent 0 ({depth})", at
        )
    if len(blob) < at + 4 + 4 * stored:
        raise TensorFormatError(
            f"{path}: truncated slice index list, need {stored} indices", len(blob)
        )
    slices = np.frombuffer(blob, dtype="<u4", count=stored, offset=at + 4).astype(np.intp)
    bad = slices >= depth
    bad[1:] |= slices[1:] <= slices[:-1]
    if bad.any():
        i = int(bad.argmax())
        why = (
            f"is not below extent 0 ({depth})"
            if slices[i] >= depth
            else f"does not ascend from {slices[i - 1]}"
        )
        raise TensorFormatError(f"{path}: slice index {slices[i]} {why}", at + 4 + 4 * i)
    return slices


def load_tensor(path, with_slices: bool = False):
    """Read a CPNT file back into a float32 array, bit-exactly.

    A version-1 array views a private copy-on-write mapping of the whole
    file, so a load copies nothing: pages are read in when first touched,
    the array is writable, and writes to it never reach the file. Each live
    array keeps the mapping, and with it a duplicate file descriptor, open.
    A version-2 array is :func:`anonymous_zeros` with the stored slices
    copied in; the pages of the slices left out stay unallocated until
    written.

    With `with_slices`, returns `(array, slices)`: the ascending indices of
    the axis-0 slices the file stores, every other slice being all zeros;
    a version-1 file stores every slice.
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
    version = blob[4]
    if version not in (VERSION, SPARSE_VERSION):
        raise TensorFormatError(f"{path}: unsupported version {version}", 4)
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

    if version == VERSION:
        _check_size(path, blob, extents_end + 4 * count)
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=extents_end).reshape(shape)
        return (arr, np.arange(shape[0])) if with_slices else arr

    slices = _slice_list(path, blob, extents_end, shape[0])
    per_slice = count // shape[0]
    payload_at = extents_end + 4 + 4 * slices.size
    _check_size(path, blob, payload_at + 4 * per_slice * slices.size)
    try:
        arr = anonymous_zeros(shape)
    except OSError as exc:
        raise OSError(f"cannot read tensor from {path}: {exc}") from exc
    payload = np.frombuffer(blob, dtype="<f4", count=per_slice * slices.size, offset=payload_at)
    arr[slices] = payload.reshape((slices.size,) + shape[1:])
    return (arr, slices) if with_slices else arr
