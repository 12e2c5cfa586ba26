import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cornerdet.postprocess import (
    detection_records,
    filter_by_objectness,
    fuse_scores,
    label_detections,
    read_detections,
    soft_nms,
    top_k_truncate,
    write_detections,
)
from cornerdet.proposals import BOX_DTYPE
from oracles import naive_soft_nms


def boxes(*rows):
    """Scored boxes from (x1, y1, x2, y2, class_id, score) rows."""
    return np.array([(r[:4], r[4], r[5]) for r in rows], dtype=BOX_DTYPE)


def det(x1, y1, x2, y2, cls=0, score=0.5):
    return (x1, y1, x2, y2, cls, score)


class TestFilter:
    def test_zero_threshold_keeps_all(self):
        items = np.array(["a", "b", "c"])
        assert filter_by_objectness(items, [0.0, 0.5, 1.0], 0.0).tolist() == ["a", "b", "c"]

    def test_boundary_inclusive(self):
        items = np.arange(3)
        assert filter_by_objectness(items, [0.1, 0.2, 0.9], 0.2).tolist() == [1, 2]

    def test_subset_monotonicity(self):
        rng = np.random.default_rng(3)
        items = np.arange(50)
        scores = rng.random(50)
        for _ in range(20):
            a, b = sorted(rng.random(2))
            sa = set(filter_by_objectness(items, scores, a).tolist())
            sb = set(filter_by_objectness(items, scores, b).tolist())
            assert sb <= sa

    def test_calibrated_survival_fraction(self):
        # scores drawn so ~20% clear the operating threshold of 0.2
        rng = np.random.default_rng(123)
        n = 20000
        positives = rng.uniform(0.2, 1.0, int(n * 0.2))
        negatives = rng.uniform(0.0, 0.2, n - int(n * 0.2))
        scores = np.concatenate([positives, negatives])
        survived = filter_by_objectness(np.arange(n), scores, 0.2)
        fraction = len(survived) / n
        assert abs(fraction - 0.2) < 0.10


class TestFuseScores:
    def test_extremes(self):
        assert fuse_scores(1.0, 1.0) == pytest.approx(1.0)
        assert fuse_scores(0.0, 0.0) == pytest.approx(0.0)

    def test_midpoint(self):
        assert fuse_scores(0.5, 0.5) == pytest.approx(0.375)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fuse_scores(-0.1, 0.5)
        with pytest.raises(ValueError):
            fuse_scores(0.5, 1.1)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_range(self, s1, s2):
        assert 0.0 <= fuse_scores(s1, s2) <= 1.0

    def test_strictly_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s1, s2 = rng.random(2)
            d = rng.uniform(1e-6, 1.0 - s1)
            assert fuse_scores(s1 + d, s2) > fuse_scores(s1, s2)
            d2 = rng.uniform(1e-6, 1.0 - s2)
            assert fuse_scores(s1, s2 + d2) > fuse_scores(s1, s2)


class TestAssignLabels:
    def test_agreeing_classes(self):
        p = boxes(det(0, 0, 10, 10, cls=3, score=0.8))
        q = np.array([[0.1, 0.2, 0.1, 0.9, 0.1, 0.3]])
        dets = label_detections(p, q)
        assert len(dets) == 1
        assert dets[0]["class_id"] == 3
        assert dets[0]["score"] == pytest.approx(fuse_scores(0.8, 0.9))

    def test_disagreeing_classes(self):
        p = boxes(det(0, 0, 10, 10, cls=3, score=0.8))
        q = np.array([[0.1, 0.2, 0.1, 0.6, 0.1, 0.9]])
        dets = label_detections(p, q)
        assert len(dets) == 2
        assert set(dets["class_id"].tolist()) == {3, 5}
        assert np.array_equal(dets[0]["box"], dets[1]["box"])
        by_cls = dict(zip(dets["class_id"].tolist(), dets["score"].tolist()))
        assert by_cls[3] == pytest.approx(fuse_scores(0.8, 0.6))
        assert by_cls[5] == pytest.approx(fuse_scores(0.8, 0.9))

    def test_single_class(self):
        p = boxes(det(0, 0, 10, 10, cls=0, score=0.5))
        assert len(label_detections(p, np.array([[0.7]]))) == 1

    def test_label_order(self):
        # soft-NMS and top-k break ties by row, so the row order is pinned:
        # survivors in order, each giving its corner-class detection and
        # then, when the head's argmax differs, its head-class detection
        p = boxes(
            det(0, 0, 10, 10, cls=0, score=0.2),
            det(1, 1, 11, 11, cls=1, score=0.4),
            det(2, 2, 12, 12, cls=2, score=0.6),
            det(3, 3, 13, 13, cls=1, score=0.8),
        )
        q = np.array(
            [[0.1, 0.9, 0.2], [0.3, 0.7, 0.1], [0.5, 0.1, 0.4], [0.2, 0.6, 0.6]]
        )
        dets = label_detections(p, q)
        rows, classes = [0, 0, 1, 2, 2, 3], [0, 1, 1, 2, 0, 1]
        assert dets["class_id"].tolist() == classes
        assert np.array_equal(dets["box"], p["box"][rows])
        want = [fuse_scores(p["score"][i], q[i, c]) for i, c in zip(rows, classes)]
        assert dets["score"].tolist() == want


def scored(out):
    """(box, class, score) tuples of a box array, for exact comparison."""
    columns = (out["box"].tolist(), out["class_id"].tolist(), out["score"].tolist())
    return [(tuple(b), c, s) for b, c, s in zip(*columns)]


class TestSoftNms:
    def test_single_detection_identity(self):
        d = boxes(det(0, 0, 10, 10, score=0.7))
        assert scored(soft_nms(d)) == scored(d)

    def test_disjoint_boxes_unchanged(self):
        out = soft_nms(boxes(det(0, 0, 10, 10, score=0.9), det(100, 100, 120, 130, score=0.4)))
        assert out["score"].tolist() == [0.9, 0.4]

    def test_identical_boxes_decay(self):
        dets = boxes(det(0, 0, 10, 10, score=0.9), det(0, 0, 10, 10, score=0.8))
        out = soft_nms(dets, sigma=0.5)
        assert out[0]["score"] == 0.9
        assert out[1]["score"] == pytest.approx(0.8 * math.exp(-1 / 0.5), rel=1e-12)

    def test_different_classes_do_not_interact(self):
        out = soft_nms(
            boxes(det(0, 0, 10, 10, cls=0, score=0.9), det(0, 0, 10, 10, cls=1, score=0.8))
        )
        assert sorted(out["score"].tolist()) == [0.8, 0.9]

    def test_prune_drops_boxes(self):
        dets = boxes(det(0, 0, 10, 10, score=0.9), det(0, 0, 10, 10, score=0.8))
        out = soft_nms(dets, sigma=0.01, prune=1e-3)
        assert len(out) == 1

    def test_never_increases_scores_or_moves_boxes(self):
        rng = np.random.default_rng(11)
        rows = []
        for _ in range(30):
            x, y = rng.uniform(0, 80, 2)
            w, h = rng.uniform(5, 40, 2)
            cls, score = int(rng.integers(2)), float(rng.random())
            rows.append(det(x, y, x + w, y + h, cls=cls, score=score))
        dets = boxes(*rows)
        out = soft_nms(dets)
        assert len(out) <= len(dets)
        original = {(b, c): s for b, c, s in scored(dets)}
        for b, c, s in scored(out):
            assert s <= original[(b, c)] + 1e-15

    def test_matches_naive_reference_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            rows, boxes_, scores, classes = [], [], [], []
            for _ in range(n):
                x, y = rng.uniform(0, 60, 2)
                w, h = rng.uniform(1, 50, 2)
                box = (float(x), float(y), float(x + w), float(y + h))
                cls = int(rng.integers(3))
                score = float(rng.random())
                boxes_.append(box)
                scores.append(score)
                classes.append(cls)
                rows.append(det(*box, cls=cls, score=score))
            got = scored(soft_nms(boxes(*rows), sigma=0.5, prune=1e-3))
            want = naive_soft_nms(boxes_, scores, classes, sigma=0.5, prune=1e-3)
            assert got == [(boxes_[i], classes[i], s) for i, s in want]  # bit-exact

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            soft_nms(boxes(det(0, 0, 1, 1)), sigma=0.0)


class TestTopK:
    def test_under_limit(self):
        dets = boxes(*[det(0, 0, 1, 1, score=s) for s in (0.5, 0.9, 0.1)])
        assert len(top_k_truncate(dets, 100)) == 3

    def test_truncation_matches_sort_oracle(self):
        rng = np.random.default_rng(23)
        dets = boxes(*[det(0, 0, 1, 1, score=float(rng.random())) for _ in range(150)])
        out = top_k_truncate(dets, 100)
        assert len(out) == 100
        kept = sorted(out["score"].tolist(), reverse=True)
        dropped = sorted(dets["score"].tolist(), reverse=True)[100:]
        assert min(kept) >= max(dropped)
        assert kept == out["score"].tolist()  # descending order

    def test_zero_k(self):
        assert len(top_k_truncate(boxes(det(0, 0, 1, 1)), 0)) == 0

    def test_ties_by_original_index(self):
        dets = boxes(*[det(0, 0, 1, 1, cls=i, score=0.5) for i in range(5)])
        out = top_k_truncate(dets, 3)
        assert out["class_id"].tolist() == [0, 1, 2]


def test_detection_dump_roundtrip(tmp_path):
    dets = boxes(det(1.5, 2.5, 11.5, 22.5, cls=4, score=0.25))
    records = detection_records(7, dets)
    assert records == [
        {"image_id": 7, "category_id": 4, "bbox": [1.5, 2.5, 10.0, 20.0], "score": 0.25}
    ]
    path = tmp_path / "dets.json"
    write_detections(path, records)
    assert read_detections(path) == records
    # deterministic bytes on rewrite
    blob = path.read_bytes()
    write_detections(path, records)
    assert path.read_bytes() == blob


def test_read_detections_rejects_non_array(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"not": "an array"}))
    with pytest.raises(ValueError):
        read_detections(path)
