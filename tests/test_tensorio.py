import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cornerdet.tensorio import (
    MAGIC,
    TensorFormatError,
    anonymous_zeros,
    as_tensor,
    load_tensor,
    store_tensor,
)


def roundtrip(tmp_path, arr):
    path = tmp_path / "t.cpnt"
    store_tensor(arr, path)
    return load_tensor(path)


def test_roundtrip_2x2(tmp_path):
    arr = np.array([[1, 2], [3, 4]], dtype=np.float32)
    back = roundtrip(tmp_path, arr)
    assert back.shape == (2, 2)
    assert np.array_equal(back, arr)


def test_roundtrip_minimal(tmp_path):
    back = roundtrip(tmp_path, np.array([0.0], dtype=np.float32))
    assert back.shape == (1,)
    assert back[0] == 0.0


def test_wire_format_golden_bytes(tmp_path):
    # hand-assembled file: magic, version, rank 2, extents [2, 2], payload
    blob = (
        b"CPNT"
        + struct.pack("<B", 1)
        + struct.pack("<I", 2)
        + struct.pack("<II", 2, 2)
        + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
    )
    path = tmp_path / "golden.cpnt"
    path.write_bytes(blob)
    arr = load_tensor(path)
    assert np.array_equal(arr, np.array([[1, 2], [3, 4]], dtype=np.float32))

    out = tmp_path / "rewritten.cpnt"
    store_tensor(arr, out)
    assert out.read_bytes() == blob


def test_payload_size(tmp_path):
    path = tmp_path / "t.cpnt"
    store_tensor(np.array([1, 2, 3], dtype=np.float32), path)
    # header: 4 magic + 1 version + 4 rank + 4 extent, then 12 payload bytes
    assert path.stat().st_size == 13 + 12


def test_zero_extent_rejected():
    with pytest.raises(ValueError):
        as_tensor(np.zeros((3, 0), dtype=np.float32))
    with pytest.raises(ValueError):
        as_tensor(np.float32(1.0))  # rank 0


def test_random_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2024)
    for i in range(200):
        rank = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(rank))
        arr = rng.standard_normal(shape).astype(np.float32)
        back = roundtrip(tmp_path, arr)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
    )
)
def test_roundtrip_property(tmp_path, values):
    arr = np.array(values, dtype=np.float32)
    back = roundtrip(tmp_path, arr)
    assert back.tobytes() == arr.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.cpnt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TensorFormatError) as err:
        load_tensor(path)
    assert err.value.offset == 0


def test_empty_file_bad_magic(tmp_path):
    path = tmp_path / "empty.cpnt"
    path.write_bytes(b"")
    with pytest.raises(TensorFormatError, match="bad magic") as err:
        load_tensor(path)
    assert err.value.offset == 0


def test_truncated_extent_list(tmp_path):
    path = tmp_path / "extents.cpnt"
    path.write_bytes(MAGIC + struct.pack("<B", 1) + struct.pack("<I", 3) + struct.pack("<I", 2))
    with pytest.raises(TensorFormatError, match="truncated extent list, need 3") as err:
        load_tensor(path)
    assert err.value.offset == 13


def test_loaded_array_is_a_private_copy(tmp_path):
    path = tmp_path / "t.cpnt"
    store_tensor(np.arange(6, dtype=np.float32).reshape(2, 3), path)
    blob = path.read_bytes()
    arr = load_tensor(path)
    arr[1, 2] = -1.0
    arr += 1.0
    assert arr.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 0.0]]
    assert path.read_bytes() == blob
    assert load_tensor(path).tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


def test_loaded_array_outlives_its_file(tmp_path):
    path = tmp_path / "t.cpnt"
    values = np.linspace(-1.0, 1.0, 4096, dtype=np.float32)
    store_tensor(values, path)
    arr = load_tensor(path)
    store_tensor(np.zeros(3, dtype=np.float32), path)
    assert load_tensor(path).tolist() == [0.0, 0.0, 0.0]
    assert arr.tobytes() == values.tobytes()
    path.unlink()
    assert arr.tobytes() == values.tobytes()


def test_store_leaves_no_temporary_file(tmp_path):
    store_tensor(np.ones(3, dtype=np.float32), tmp_path / "t.cpnt")
    store_tensor(np.ones(4, dtype=np.float32), tmp_path / "t.cpnt")
    assert [p.name for p in tmp_path.iterdir()] == ["t.cpnt"]
    with pytest.raises(OSError, match="cannot write tensor"):
        store_tensor(np.ones(3, dtype=np.float32), tmp_path / "missing" / "t.cpnt")


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.cpnt"
    store_tensor(np.ones(4, dtype=np.float32), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(TensorFormatError, match="truncated payload"):
        load_tensor(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "trail.cpnt"
    store_tensor(np.ones(2, dtype=np.float32), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TensorFormatError, match="trailing"):
        load_tensor(path)


def test_extent_overflow(tmp_path):
    path = tmp_path / "huge.cpnt"
    header = MAGIC + struct.pack("<B", 1) + struct.pack("<I", 2)
    header += struct.pack("<II", 2**31, 2**31)
    path.write_bytes(header)
    with pytest.raises(TensorFormatError, match="overflow"):
        load_tensor(path)


def test_zero_extent_in_file(tmp_path):
    path = tmp_path / "zero.cpnt"
    header = MAGIC + struct.pack("<B", 1) + struct.pack("<I", 1) + struct.pack("<I", 0)
    path.write_bytes(header)
    with pytest.raises(TensorFormatError, match="extent 0 is zero"):
        load_tensor(path)


def test_bad_version(tmp_path):
    path = tmp_path / "ver.cpnt"
    path.write_bytes(MAGIC + b"\x03" + b"\x00" * 8)
    with pytest.raises(TensorFormatError, match="version"):
        load_tensor(path)


# -- version 2: all-zero axis-0 slices left out ------------------------------


def sparse_file(extents, indices, payload, count=None) -> bytes:
    """A hand-assembled version-2 file."""
    count = len(indices) if count is None else count
    return (
        MAGIC
        + struct.pack("<BI", 2, len(extents))
        + struct.pack(f"<{len(extents)}I", *extents)
        + struct.pack(f"<I{len(indices)}I", count, *indices)
        + struct.pack(f"<{len(payload)}f", *payload)
    )


def test_sparse_roundtrip_keeps_negative_zero_and_nan(tmp_path):
    arr = np.zeros((6, 3, 4), dtype=np.float32)
    arr[0] = np.arange(12).reshape(3, 4)
    arr[2] = -0.0
    arr[3] = np.nan
    arr[5, 2, 3] = 1e-45  # the least subnormal
    path = tmp_path / "t.cpnt"
    store_tensor(arr, path)
    blob = path.read_bytes()
    assert blob[4] == 2
    # header, count, 4 indices, 4 slices of 12 floats
    assert len(blob) == 9 + 12 + 4 + 16 + 4 * 48
    back, slices = load_tensor(path, with_slices=True)
    assert slices.tolist() == [0, 2, 3, 5]
    assert back.shape == arr.shape and back.dtype == np.float32
    assert back.tobytes() == arr.tobytes()
    assert load_tensor(path).tobytes() == arr.tobytes()


def test_all_zero_tensor_stores_no_slice(tmp_path):
    path = tmp_path / "t.cpnt"
    store_tensor(np.zeros((4, 5), dtype=np.float32), path)
    assert path.read_bytes() == sparse_file((4, 5), [], [])
    back, slices = load_tensor(path, with_slices=True)
    assert slices.size == 0 and back.shape == (4, 5) and not back.any()


def test_one_live_slice(tmp_path):
    arr = np.zeros((256, 8, 8), dtype=np.float32)
    arr[7, 3:5, 2:6] = 0.25
    path = tmp_path / "t.cpnt"
    store_tensor(arr, path)
    assert path.stat().st_size == 9 + 12 + 8 + 256
    back, slices = load_tensor(path, with_slices=True)
    assert slices.tolist() == [7]
    assert back.tobytes() == arr.tobytes()


def test_sparse_array_is_writable_and_private(tmp_path):
    arr = np.zeros((3, 4), dtype=np.float32)
    arr[1] = 2.0
    path = tmp_path / "t.cpnt"
    store_tensor(arr, path)
    blob = path.read_bytes()
    back = load_tensor(path)
    back[0, 0] = 5.0
    back[1] += 1.0
    assert back.tolist() == [[5, 0, 0, 0], [3, 3, 3, 3], [0, 0, 0, 0]]
    assert path.read_bytes() == blob
    path.unlink()
    assert back[1, 0] == 3.0


def test_dense_tensor_writes_version_1(tmp_path):
    path = tmp_path / "t.cpnt"
    store_tensor(np.random.default_rng(5).standard_normal((8, 4, 4)).astype(np.float32), path)
    assert path.read_bytes()[4] == 1
    # a dead slice that version 2 would not make smaller: 4 + 2 * (4 + 4) > 12
    store_tensor(np.array([1.0, 0.0, 1.0], dtype=np.float32), path)
    assert path.read_bytes()[4] == 1
    assert load_tensor(path, with_slices=True)[1].tolist() == [0, 1, 2]
    # one word saved: 4 + 1 * (4 + 4) < 16
    store_tensor(np.array([0.0, 0.0, 0.0, 1.0], dtype=np.float32), path)
    assert path.read_bytes() == sparse_file((4,), [3], [1.0])


LISTED_CASES = [
    ((6, 3, 4), [0, 2, 5]),
    ((6, 3, 4), []),
    ((6, 3, 4), [0, 1, 2, 3, 4, 5]),  # every slice: version 1
    ((3,), [0, 2]),  # version 2 would not be smaller
    ((4,), [3]),
    ((256, 8, 8), [7, 200]),
]


@pytest.mark.parametrize("shape, live", LISTED_CASES)
def test_listed_slices_write_the_scan_bytes(tmp_path, shape, live):
    arr = np.zeros(shape, dtype=np.float32)
    arr[live] = np.random.default_rng(len(live)).uniform(0.5, 1.0, (len(live),) + shape[1:])
    store_tensor(arr, tmp_path / "scanned.cpnt")
    store_tensor(arr, tmp_path / "listed.cpnt", slices=np.array(live, dtype=np.intp))
    assert (tmp_path / "listed.cpnt").read_bytes() == (tmp_path / "scanned.cpnt").read_bytes()


def test_unlisted_slices_are_never_stored(tmp_path):
    # the caller vouches that unlisted slices are zeros; what they hold
    # instead never reaches a version-2 file
    arr = np.full((5, 2, 3), np.nan, dtype=np.float32)
    arr[1] = 2.0
    arr[3] = -0.0
    path = tmp_path / "t.cpnt"
    store_tensor(arr, path, slices=[1, 3])
    back, slices = load_tensor(path, with_slices=True)
    assert slices.tolist() == [1, 3]
    want = np.zeros_like(arr)
    want[[1, 3]] = arr[[1, 3]]
    assert back.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [[3, 1], [1, 1], [-1], [6], [0.0, 2.0], [[0]], [0, 9]])
def test_bad_slices_rejected_before_any_file_is_opened(tmp_path, bad):
    with pytest.raises(ValueError, match=r"slices must be ascending integers in \[0, 6\)"):
        store_tensor(np.ones((6, 2), dtype=np.float32), tmp_path / "t.cpnt", slices=np.array(bad))
    assert list(tmp_path.iterdir()) == []


def test_anonymous_zeros_are_writable_private_zeros():
    a, b = anonymous_zeros((3, 4)), anonymous_zeros((3, 4))
    assert a.shape == (3, 4) and a.dtype == np.float32 and not a.any()
    a[1, 2] = 5.0
    assert a.sum() == 5.0 and not b.any()


def test_version_1_file_with_zero_slices_loads(tmp_path):
    blob = (
        MAGIC
        + struct.pack("<BI", 1, 2)
        + struct.pack("<II", 3, 2)
        + struct.pack("<6f", 0.0, 0.0, 1.0, 2.0, 0.0, 0.0)
    )
    path = tmp_path / "v1.cpnt"
    path.write_bytes(blob)
    back, slices = load_tensor(path, with_slices=True)
    assert slices.tolist() == [0, 1, 2]  # version 1 stores every slice
    assert back.tolist() == [[0, 0], [1, 2], [0, 0]]


def test_sparse_file_from_hand_assembled_bytes(tmp_path):
    path = tmp_path / "t.cpnt"
    path.write_bytes(sparse_file((4, 2), [1, 3], [1.0, 2.0, -0.0, 4.0]))
    back, slices = load_tensor(path, with_slices=True)
    assert slices.tolist() == [1, 3]
    assert back.tobytes() == np.array([[0, 0], [1, 2], [0, 0], [-0.0, 4]], dtype=np.float32).tobytes()


V2_FAULTS = [
    ("count above extent 0", sparse_file((2, 2), [0], [1, 1], count=3), r"slice count 3 exceeds extent 0 \(2\)", 17),
    ("truncated count", sparse_file((2, 2), [], [])[:-2], "truncated before slice count", 17),
    ("truncated index list", sparse_file((4, 2), [0, 1], [])[:-2], "truncated slice index list, need 2", 27),
    ("duplicate index", sparse_file((4, 2), [1, 1], [1] * 4), "slice index 1 does not ascend from 1", 25),
    ("descending index", sparse_file((4, 2), [2, 1], [1] * 4), "slice index 1 does not ascend from 2", 25),
    ("index at extent 0", sparse_file((4, 2), [0, 4], [1] * 4), r"slice index 4 is not below extent 0 \(4\)", 25),
    ("short payload", sparse_file((4, 2), [0, 1], [1] * 3), "truncated payload, expected 45 bytes", 41),
    ("long payload", sparse_file((4, 2), [0, 1], [1] * 5), "4 trailing bytes after payload", 45),
]


@pytest.mark.parametrize("blob, message, offset", [f[1:] for f in V2_FAULTS], ids=[f[0] for f in V2_FAULTS])
def test_sparse_header_faults(tmp_path, blob, message, offset):
    path = tmp_path / "bad.cpnt"
    path.write_bytes(blob)
    with pytest.raises(TensorFormatError, match=message) as err:
        load_tensor(path)
    assert err.value.offset == offset


def test_version_1_file_relabelled_as_version_2(tmp_path):
    # the payload's first word, read as the slice count, exceeds extent 0;
    # an all-zero first word reads as no slice and leaves trailing bytes
    for payload, message in (([1.0, 2.0], "slice count 1065353216 exceeds"), ([0.0, 2.0], "4 trailing bytes")):
        path = tmp_path / "relabelled.cpnt"
        path.write_bytes(MAGIC + struct.pack("<BII2f", 2, 1, 2, *payload))
        with pytest.raises(TensorFormatError, match=message):
            load_tensor(path)
