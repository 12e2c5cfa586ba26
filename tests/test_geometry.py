import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cornerdet
from cornerdet import corners, geometry
from cornerdet.geometry import iou_matrix
from oracles import iou_xyxy

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
sizes = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def boxes(draw):
    x1 = draw(coords)
    y1 = draw(coords)
    return (x1, y1, x1 + draw(sizes), y1 + draw(sizes))


def test_identical_boxes():
    a = (0, 0, 10, 10)
    assert iou_xyxy(a, a) == 1.0


def test_disjoint_boxes():
    assert iou_xyxy((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0


def test_partial_overlap():
    # intersection 1, union 4 + 4 - 1 = 7
    assert iou_xyxy((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)


def test_zero_area_pairs():
    point = (1, 1, 1, 1)
    assert iou_xyxy(point, point) == 0.0
    assert iou_xyxy(point, (0, 0, 5, 5)) == 0.0


@given(boxes(), boxes())
def test_symmetry_and_range(a, b):
    v = iou_xyxy(a, b)
    assert v == iou_xyxy(b, a)
    assert 0.0 <= v <= 1.0


@given(boxes())
def test_self_iou(a):
    if (a[2] - a[0]) * (a[3] - a[1]) > 0:
        assert iou_xyxy(a, a) == 1.0
    else:
        assert iou_xyxy(a, a) == 0.0


def test_box_helpers():
    # (1, 2, 4, 8) covers 18 px^2; its top half covers 9 of them
    b, top = np.array([[1.0, 2, 4, 8]]), np.array([[1.0, 2, 4, 5]])
    assert iou_matrix(b, top)[0, 0] == iou_xyxy(b[0], top[0]) == 0.5


def scalar_and_matrix(rows, cols):
    """iou_xyxy over every pair, and iou_matrix over the same boxes."""
    want = np.array([[iou_xyxy(a, b) for b in cols] for a in rows]).reshape(len(rows), len(cols))
    as_array = lambda boxes: np.array(boxes, dtype=np.float64).reshape(-1, 4)
    return iou_matrix(as_array(rows), as_array(cols)), want


def test_iou_matrix_bit_exact_cases():
    cases = [
        (0, 0, 10, 10),
        (0, 0, 10, 10),  # identical
        (20, 20, 30, 30),  # disjoint
        (10, 0, 20, 10),  # shares an edge
        (10, 10, 20, 20),  # shares a corner
        (5, 5, 5, 5),  # zero area, inside
        (3, 1, 3, 9),  # zero width
        (2, 2, 8, 8),  # nested
        (0.1, 0.2, 7.3, 9.9),
        (-3.75, 1.5, 6.125, 12.0),
    ]
    got, want = scalar_and_matrix(cases, cases)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert got[0, 1] == 1.0 and got[0, 2] == got[0, 3] == got[0, 4] == got[0, 5] == 0.0
    assert got[0, 7] == 0.36


@given(st.lists(boxes(), max_size=6), st.lists(boxes(), max_size=6))
def test_iou_matrix_bit_exact_random(rows, cols):
    got, want = scalar_and_matrix(rows, cols)
    assert got.shape == (len(rows), len(cols))
    assert got.tobytes() == want.tobytes()


def test_box_rows_come_in_two_types():
    # every structured dtype a cornerdet module binds is one of these three
    # objects: a module may re-import one, but never spell a box row anew
    allowed = {
        "geometry.TRUTH_DTYPE": geometry.TRUTH_DTYPE,
        "geometry.DET_DTYPE": geometry.DET_DTYPE,
        "corners.KEYPOINT_DTYPE": corners.KEYPOINT_DTYPE,
    }
    modules = [cornerdet] + [
        importlib.import_module(f"cornerdet.{info.name}") for info in pkgutil.iter_modules(cornerdet.__path__)
    ]
    seen, strays = set(), []
    for module in modules:
        for name, value in vars(module).items():
            if isinstance(value, np.dtype) and value.names is not None:
                match = [key for key, dtype in allowed.items() if value is dtype]
                seen.update(match)
                if not match:
                    strays.append(f"{module.__name__}.{name}")
    assert strays == []
    assert seen == set(allowed)
