import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cornerdet
from cornerdet import corners, geometry
from cornerdet.geometry import BBox, iou, iou_matrix

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
sizes = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def boxes(draw):
    x1 = draw(coords)
    y1 = draw(coords)
    return BBox(x1, y1, x1 + draw(sizes), y1 + draw(sizes))


def test_identical_boxes():
    a = BBox(0, 0, 10, 10)
    assert iou(a, a) == 1.0


def test_disjoint_boxes():
    assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0


def test_partial_overlap():
    # intersection 1, union 4 + 4 - 1 = 7
    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(1 / 7)


def test_zero_area_pairs():
    point = BBox(1, 1, 1, 1)
    assert iou(point, point) == 0.0
    assert iou(point, BBox(0, 0, 5, 5)) == 0.0


@given(boxes(), boxes())
def test_symmetry_and_range(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@given(boxes())
def test_self_iou(a):
    if a.area > 0:
        assert iou(a, a) == 1.0
    else:
        assert iou(a, a) == 0.0


def test_invalid_box_rejected():
    with pytest.raises(ValueError):
        BBox(2, 0, 1, 5)
    with pytest.raises(ValueError):
        BBox(0, 5, 1, 4)


def test_box_helpers():
    b = BBox(1, 2, 4, 8)
    assert b.area == 18


def scalar_and_matrix(rows, cols):
    """iou over every pair, and iou_matrix over the same boxes."""
    want = np.array([[iou(a, b) for b in cols] for a in rows]).reshape(len(rows), len(cols))
    as_array = lambda boxes: np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes]).reshape(-1, 4)
    return iou_matrix(as_array(rows), as_array(cols)), want


def test_iou_matrix_bit_exact_cases():
    cases = [
        BBox(0, 0, 10, 10),
        BBox(0, 0, 10, 10),  # identical
        BBox(20, 20, 30, 30),  # disjoint
        BBox(10, 0, 20, 10),  # shares an edge
        BBox(10, 10, 20, 20),  # shares a corner
        BBox(5, 5, 5, 5),  # zero area, inside
        BBox(3, 1, 3, 9),  # zero width
        BBox(2, 2, 8, 8),  # nested
        BBox(0.1, 0.2, 7.3, 9.9),
        BBox(-3.75, 1.5, 6.125, 12.0),
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
