import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cornerdet.tensorio import (
    MAGIC,
    TensorFormatError,
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
    path.write_bytes(MAGIC + b"\x02" + b"\x00" * 8)
    with pytest.raises(TensorFormatError, match="version"):
        load_tensor(path)
