import io
import json
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cornerdet import postprocess
from cornerdet.evaluation import records_to_dets
from cornerdet.postprocess import (
    DUMP_PIECE,
    filter_by_objectness,
    fuse_scores,
    label_detections,
    read_detections,
    soft_nms,
    write_detections,
)
from cornerdet.geometry import DET_DTYPE, TRUTH_DTYPE, iou_matrix
from oracles import naive_soft_nms


def boxes(*rows):
    """DET_DTYPE rows of image 0 from (x1, y1, x2, y2, class_id, score) rows."""
    return np.array([(0, r[4], r[:4], r[5]) for r in rows], dtype=DET_DTYPE)


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


def random_case(rng, n, ties=False):
    """n random boxes in three classes, as (boxes, scores, classes) lists."""
    boxes_, scores, classes = [], [], []
    for _ in range(n):
        x, y = rng.uniform(0, 60, 2)
        w, h = rng.uniform(1, 50, 2)
        boxes_.append((float(x), float(y), float(x + w), float(y + h)))
        classes.append(int(rng.integers(3)))
        scores.append(int(rng.integers(1, 9)) / 8 if ties else float(rng.random()))
    return boxes_, scores, classes


def as_dets(boxes_, scores, classes):
    return boxes(*[det(*b, cls=c, score=s) for b, c, s in zip(boxes_, classes, scores)])


class TestSoftNms:
    def test_single_detection_identity(self):
        d = boxes(det(0, 0, 10, 10, score=0.7))
        assert scored(soft_nms(d)) == scored(d)

    def test_disjoint_boxes_unchanged(self):
        out = soft_nms(boxes(det(0, 0, 10, 10, score=0.9), det(100, 100, 120, 130, score=0.4)))
        assert out["score"].tolist() == [0.9, 0.4]

    def test_identical_boxes_decay(self):
        dets = boxes(det(0, 0, 10, 10, score=0.9), det(0, 0, 10, 10, score=0.8))
        out = soft_nms(dets)
        assert out[0]["score"] == 0.9
        assert out[1]["score"] == pytest.approx(0.8 * math.exp(-1 / 0.5), rel=1e-12)

    def test_different_classes_do_not_interact(self):
        out = soft_nms(
            boxes(det(0, 0, 10, 10, cls=0, score=0.9), det(0, 0, 10, 10, cls=1, score=0.8))
        )
        assert sorted(out["score"].tolist()) == [0.8, 0.9]

    def test_prune_drops_boxes(self, monkeypatch):
        monkeypatch.setattr(postprocess, "SOFT_NMS_SIGMA", 0.01)
        dets = boxes(det(0, 0, 10, 10, score=0.9), det(0, 0, 10, 10, score=0.8))
        out = soft_nms(dets)
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

    def test_matches_naive_reference_exactly(self, monkeypatch):
        rng = np.random.default_rng(17)
        for _ in range(100):
            boxes_, scores, classes = random_case(rng, int(rng.integers(1, 30)))
            dets = as_dets(boxes_, scores, classes)
            want = naive_soft_nms(boxes_, scores, classes, sigma=0.5, prune=1e-3)
            # at the operating cut every class takes its factor table; one
            # short of the largest class, that class's factors come on demand
            for k in (100, max(np.bincount(classes)) - 1):
                monkeypatch.setattr(postprocess, "TOP_K", k)
                got = scored(soft_nms(dets))
                assert got == [(boxes_[i], classes[i], s) for i, s in want[:k]]  # bit-exact

    def test_limit_is_a_prefix_of_the_naive_reference(self, monkeypatch):
        # scores on a grid of eighths tie within and across classes
        rng = np.random.default_rng(29)
        for trial in range(120):
            n = int(rng.integers(1, 40))
            boxes_, scores, classes = random_case(rng, n, ties=trial % 2 == 0)
            dets = as_dets(boxes_, scores, classes)
            want = naive_soft_nms(boxes_, scores, classes, sigma=0.5, prune=1e-3)
            monkeypatch.setattr(postprocess, "TOP_K", 100)
            full = soft_nms(dets)
            for k in sorted({0, 1, 5, n, len(want) + 3}):
                monkeypatch.setattr(postprocess, "TOP_K", k)
                got = soft_nms(dets)
                assert scored(got) == [(boxes_[i], classes[i], s) for i, s in want[:k]]
                assert got.tobytes() == full[np.argsort(-full["score"], kind="stable")[:k]].tobytes()

    def test_equal_scores_across_classes_straddle_the_cut(self, monkeypatch):
        # disjoint boxes decay nothing; the three 0.5 scores go by row, not class
        dets = boxes(
            det(0, 0, 10, 10, cls=0, score=0.9),
            det(20, 0, 30, 10, cls=1, score=0.5),
            det(40, 0, 50, 10, cls=0, score=0.5),
            det(60, 0, 70, 10, cls=1, score=0.5),
        )
        for k, rows in [(1, [0]), (2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1, 2, 3])]:
            monkeypatch.setattr(postprocess, "TOP_K", k)
            out = soft_nms(dets)
            assert out.tobytes() == dets[rows].tobytes()

    def test_cut_inside_a_class_before_another_class_picks(self, monkeypatch):
        # class 0's second box decays below both class 1 boxes, so class 0's
        # sequence is cut after its first pick while class 1 has picks to come
        dets = boxes(
            det(0, 0, 10, 10, cls=0, score=0.9),
            det(0, 0, 10, 11, cls=0, score=0.85),
            det(50, 50, 60, 60, cls=1, score=0.7),
            det(80, 80, 90, 90, cls=1, score=0.6),
        )
        full = soft_nms(dets)
        assert full["class_id"].tolist() == [0, 1, 1, 0]
        assert full["score"][3] < 0.6
        for k in range(6):
            monkeypatch.setattr(postprocess, "TOP_K", k)
            out = soft_nms(dets)
            assert out.tobytes() == full[:k].tobytes()

    @pytest.mark.parametrize("top_k, decays", [(0, 0), (1, 0), (2, 0), (3, 4), (100, 10)])
    def test_no_class_decays_for_a_pick_past_the_cut(self, monkeypatch, top_k, decays):
        # the far class-1 box and class 0's first box are the first two
        # picks, and each later class-0 pick decays every box left behind it
        calls = []

        def exp(x):
            calls.append(x)
            return math.exp(x)

        monkeypatch.setattr(postprocess, "math", types.SimpleNamespace(exp=exp))
        monkeypatch.setattr(postprocess, "TOP_K", top_k)
        rows = [det(0, 0, 10, 10 + i, score=s) for i, s in enumerate([0.9, 0.8, 0.7, 0.6, 0.5])]
        soft_nms(boxes(*rows, det(100, 100, 110, 110, cls=1, score=0.95)))
        assert len(calls) == decays

    @pytest.fixture
    def exp_calls(self, monkeypatch):
        """The arguments of every math.exp call soft_nms makes."""
        calls = []

        def exp(x):
            calls.append(x)
            return math.exp(x)

        monkeypatch.setattr(postprocess, "math", types.SimpleNamespace(exp=exp))
        return calls

    @pytest.mark.parametrize("top_k", [5, 6, 100])
    def test_class_under_the_cut_takes_each_factor_once(self, monkeypatch, exp_calls, top_k):
        # the five class-0 boxes overlap one another: a class that fits
        # under the cut computes one factor per pair into its table
        monkeypatch.setattr(postprocess, "TOP_K", top_k)
        rows = [det(0, 0, 10, 10 + i, score=s) for i, s in enumerate([0.9, 0.8, 0.7, 0.6, 0.5])]
        out = soft_nms(boxes(*rows, det(100, 100, 110, 110, cls=1, score=0.95)))
        assert len(exp_calls) == 10 and len(out) == min(top_k, 6)

    @pytest.mark.parametrize("top_k, decays", [(1, 0), (2, 1), (3, 2), (4, 2)])
    def test_class_size_against_the_limit_picks_the_stream(self, monkeypatch, exp_calls, top_k, decays):
        # the first pick decays the middle box below prune, so a class
        # longer than the cut, which computes the picked box's overlaps on
        # demand, never takes the middle box's factor with the last box, and
        # takes none for a pick past the cut; a table takes every
        # intersecting pair's before its first pick
        monkeypatch.setattr(postprocess, "TOP_K", top_k)
        rows = [det(0, 0, 10, 10, score=0.9), det(0, 0, 10, 20, score=0.0011), det(0, 12, 10, 20, score=0.5)]
        assert len(soft_nms(boxes(*rows))) == min(top_k, 2)
        assert len(exp_calls) == decays

    def test_classes_under_the_cut_match_the_naive_reference(self, monkeypatch):
        # a cut of at least the row count puts every class in its factor
        # table, and the median class size splits them between both factor
        # sources; scores on a grid of eighths tie within and across classes
        rng = np.random.default_rng(43)
        for trial in range(120):
            n = int(rng.integers(1, 40))
            boxes_, scores, classes = random_case(rng, n, ties=trial % 2 == 0)
            dets = as_dets(boxes_, scores, classes)
            want = naive_soft_nms(boxes_, scores, classes, sigma=0.5, prune=1e-3)
            split = int(np.median(np.bincount(classes)))
            for k in sorted({split, n, n + 5}):
                monkeypatch.setattr(postprocess, "TOP_K", k)
                got = soft_nms(dets)
                assert scored(got) == [(boxes_[i], classes[i], s) for i, s in want[:k]]  # bit-exact

    @pytest.mark.filterwarnings("error")  # as in test_subnormal_sigma_gives_factor_zero
    @pytest.mark.parametrize("sigma, prune", [(0.5, 0.0), (1e-320, 0.0), (1e-320, 1e-3)])
    def test_table_stream_keeps_zero_negative_and_zero_factor_scores(self, monkeypatch, sigma, prune):
        # scores of 0 and below, and a factor of exactly 0 (exp(-inf)), keep
        # the scalar algorithm's picks and prunes when a class's factors come
        # from its table too
        monkeypatch.setattr(postprocess, "SOFT_NMS_SIGMA", sigma)
        monkeypatch.setattr(postprocess, "SOFT_NMS_PRUNE", prune)
        rng = np.random.default_rng(47)
        grid = [-0.25, 0.0, 0.125, 0.5, 1.0]
        for _ in range(40):
            n = int(rng.integers(1, 25))
            boxes_, _, classes = random_case(rng, n)
            scores = [grid[int(i)] for i in rng.integers(len(grid), size=n)]
            dets = as_dets(boxes_, scores, classes)
            want = naive_soft_nms(boxes_, scores, classes, sigma=sigma, prune=prune)
            monkeypatch.setattr(postprocess, "TOP_K", n)
            got = soft_nms(dets)
            assert scored(got) == [(boxes_[i], classes[i], s) for i, s in want]

    @pytest.mark.parametrize("row", [0, 2, 3])
    def test_nan_score_raises(self, monkeypatch, row):
        monkeypatch.setattr(postprocess, "TOP_K", 1)
        rows = [det(0, 0, 10, 10, cls=c, score=0.5) for c in (0, 0, 1, 1)]
        rows[row] = rows[row][:5] + (math.nan,)
        with pytest.raises(ValueError, match="NaN"):
            soft_nms(boxes(*rows))

    @pytest.mark.filterwarnings("error")  # numpy would warn of the overflow in ov^2 / sigma
    def test_subnormal_sigma_gives_factor_zero(self, monkeypatch):
        monkeypatch.setattr(postprocess, "SOFT_NMS_SIGMA", 1e-320)
        monkeypatch.setattr(postprocess, "SOFT_NMS_PRUNE", 0.0)
        boxes_ = [(0.0, 0.0, 10.0, 10.0), (1.0, 1.0, 11.0, 11.0), (50.0, 50.0, 60.0, 60.0)]
        scores, classes = [0.9, 0.8, 0.7], [0, 0, 0]
        out = soft_nms(as_dets(boxes_, scores, classes))
        assert out["score"].tolist() == [0.9, 0.7, 0.0]  # exp(-inf) = 0 for the overlap
        want = naive_soft_nms(boxes_, scores, classes, sigma=1e-320, prune=0.0)
        assert scored(out) == [(boxes_[i], classes[i], s) for i, s in want]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_geometry_overlaps_like_iou_matrix(self):
        # an infinite intersection (union inf - inf) or area (union inf)
        # gives iou_matrix's overlap 0, so no decay and no numpy warning
        rows = [(0, 0, 1e160, 1e160), (0, 0, 1e160, 1e160), (0, 0, 1e200, 1e200), (0, 0, 1, 1)]
        dets = boxes(*[det(*r, cls=c, score=s) for r, c, s in zip(rows, (0, 0, 1, 1), (0.9, 0.8, 0.7, 0.6))])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not iou_matrix(dets["box"][:1], dets["box"][1:2]).any()
            assert not iou_matrix(dets["box"][2:3], dets["box"][3:]).any()
        assert soft_nms(dets)["score"].tolist() == [0.9, 0.8, 0.7, 0.6]

    def test_empty_input(self, monkeypatch):
        for k in (100, 0, 3):
            monkeypatch.setattr(postprocess, "TOP_K", k)
            assert soft_nms(boxes()[:0]).dtype == DET_DTYPE


def disjoint(scores, classes=None):
    """One unit box per score, each clear of the others, so soft-NMS decays nothing."""
    classes = classes or [0] * len(scores)
    rows = [det(2 * i, 0, 2 * i + 1, 1, cls=c, score=s) for i, (s, c) in enumerate(zip(scores, classes))]
    return boxes(*rows)


class TestTopK:
    """soft_nms's TOP_K cut, the pipeline's top-k, over boxes that do not decay."""

    def test_under_limit(self):
        assert len(soft_nms(disjoint([0.5, 0.9, 0.1]))) == 3

    def test_truncation_matches_sort_oracle(self, monkeypatch):
        monkeypatch.setattr(postprocess, "SOFT_NMS_PRUNE", 0.0)
        rng = np.random.default_rng(23)
        dets = disjoint(rng.random(150).tolist())
        out = soft_nms(dets)
        assert len(out) == 100
        kept = sorted(out["score"].tolist(), reverse=True)
        dropped = sorted(dets["score"].tolist(), reverse=True)[100:]
        assert min(kept) >= max(dropped)
        assert kept == out["score"].tolist()  # descending order

    def test_zero_k(self, monkeypatch):
        monkeypatch.setattr(postprocess, "TOP_K", 0)
        assert len(soft_nms(disjoint([0.5]))) == 0

    def test_ties_by_original_index(self, monkeypatch):
        monkeypatch.setattr(postprocess, "TOP_K", 3)
        out = soft_nms(disjoint([0.5] * 5, classes=list(range(5))))
        assert out["class_id"].tolist() == [0, 1, 2]


def test_detection_dump_roundtrip(tmp_path):
    records = boxes(det(1.5, 2.5, 11.5, 22.5, cls=4, score=0.25))
    records["image_id"] = 7
    path = tmp_path / "dets.json"
    write_detections(path, records)
    assert json.loads(path.read_text()) == [
        {"image_id": 7, "category_id": 4, "bbox": [1.5, 2.5, 10.0, 20.0], "score": 0.25}
    ]
    rows = read_detections(path)
    assert rows.dtype == DET_DTYPE and rows.tobytes() == records.tobytes()
    # deterministic bytes on rewrite
    blob = path.read_bytes()
    write_detections(path, records)
    assert path.read_bytes() == blob


def json_dump_bytes(records) -> bytes:
    """The reference bytes: json.dump with the dump's settings, then a newline."""
    buf = io.StringIO()
    json.dump(records, buf, sort_keys=True, indent=1)
    return (buf.getvalue() + "\n").encode("utf-8")


EDGE_FLOATS = [
    5e-324,  # the smallest subnormal
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1e308,
    1e308,
    -123.456,
    3.0,
    1e16,
    -1e22,
    -0.0,
    0.1,
    0.30000001192092896,  # a float32 value widened to float64
    math.nan,
    math.inf,
    -math.inf,
]
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

int64s = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
rows = st.tuples(int64s, int64s, st.tuples(*[st.floats()] * 4), st.floats())


def cycled_rows(n):
    """n rows whose columns cycle through six values, NaN and both infinities
    among them, so every six consecutive rows repeat each value in each column."""
    pool = [math.nan, 0.5, math.inf, -0.0, -math.inf, 3.0]
    return [
        (i % 3, i % 2, tuple(pool[(i + j) % 6] for j in range(4)), pool[(i + 4) % 6])
        for i in range(n)
    ]


@pytest.mark.parametrize("piece", [1, 2, DUMP_PIECE], ids=["1", "2", "default"])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(rows, max_size=6))
@example([])
@example([(7, 4, (1.5, 2.5, 11.5, 22.5), 0.25)])
@example([(INT64_MIN, INT64_MAX, (0.0, -0.0, 5e-324, -5e-324), -0.0)])
@example([(0, 0, (0.0, -0.0, -0.0, 0.0), 0.0), (0, 0, (-0.0, 0.0, 0.0, -0.0), -0.0)])
@example([(0, 0, (-1e308, -1e308, 1e308, 1e308), 0.5)])  # width and height overflow
@example(
    [
        (INT64_MAX - i, INT64_MIN + i, tuple(EDGE_FLOATS[i : i + 4]), EDGE_FLOATS[i - 1])
        for i in range(len(EDGE_FLOATS) - 3)
    ]
)
@example([(i, -i, (0.0, 0.0, w, EDGE_FLOATS[-1 - i]), 0.5) for i, w in enumerate(EDGE_FLOATS)])
@example(cycled_rows(2 * DUMP_PIECE + 5))  # crosses two edges of the default piece
def test_write_detections_matches_json_dump(tmp_path, monkeypatch, piece, recs):
    # the oracle sees the drawn Python numbers, never the array, and takes
    # the bbox width and height as Python float differences of the corners
    monkeypatch.setattr(postprocess, "DUMP_PIECE", piece)
    dicts = [
        {"image_id": i, "category_id": c, "bbox": [x1, y1, x2 - x1, y2 - y1], "score": s}
        for i, c, (x1, y1, x2, y2), s in recs
    ]
    path = tmp_path / "dets.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing or NaN width warns nothing
        write_detections(path, np.array(recs, dtype=DET_DTYPE))
    assert path.read_bytes() == json_dump_bytes(dicts)


def noisy_sized_rows():
    """As many rows as the seed-1 noisy proposal dump, with distinct coordinates and scores."""
    rng = np.random.default_rng(35)
    n = 22_221
    recs = np.zeros(n, dtype=DET_DTYPE)
    recs["image_id"] = np.arange(n) // 741
    recs["class_id"] = np.arange(n) % 7
    recs["box"] = rng.uniform(0.0, 500.0, (n, 4))
    recs["box"][:, 2:] += recs["box"][:, :2]
    recs["score"] = rng.random(n)
    return recs


def test_write_detections_memory_is_one_piece(tmp_path):
    # the whole dump's spelled parts would take about 12 MB of Python heap,
    # one piece's well under 1 MB
    recs = noisy_sized_rows()
    tracemalloc.start()
    try:
        write_detections(tmp_path / "dets.json", recs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def record_fields(**changes):
    """DET_DTYPE's fields with some retyped, dropped (None) or added."""
    fields = {name: DET_DTYPE.fields[name][0] for name in DET_DTYPE.names}
    fields.update(changes)
    return np.zeros(2, dtype=[(name, t) for name, t in fields.items() if t is not None])


# Each dict-shaped fault the per-record writer once named, as the array that
# carries it now: a field added, dropped or of another type. The message
# names the fault; the writer rejects the whole array by its dtype.
BAD_RECORDS = [
    (record_fields(area=np.float64), "keys must be"),
    (record_fields(score=None), "keys must be"),
    (record_fields(image_id=np.bool_), "image_id must be an int, got True"),
    (record_fields(class_id=np.float64), "category_id must be an int, got 1.0"),
    (record_fields(class_id=np.bool_), "category_id must be an int, got False"),
    (record_fields(image_id=np.float64), "image_id must be an int, got 2.0"),
    (record_fields(box=(np.float64, (3,))), "bbox must be a list of 4 numbers"),
    (record_fields(box=(np.str_, 4)), "'4' is not a number"),
    (record_fields(box=(np.bool_, (4,))), "True is not a number"),
    (record_fields(score=object), "None is not a number"),
    (
        [{"image_id": 7, "category_id": 4, "bbox": [1.5, 2.5, 10.0, 20.0], "score": 0.25}],
        "must be an object, got list",
    ),
    (np.zeros(2, dtype=TRUTH_DTYPE), "truth rows, not detections"),
    (np.zeros((2, 1), dtype=DET_DTYPE), "a 2-D array"),
    (np.zeros((), dtype=DET_DTYPE), "a 0-D array"),
    (np.zeros(2, dtype=DET_DTYPE.descr[::-1]), "fields in another order"),
    (None, "no records"),
]


@pytest.mark.parametrize("bad, message", BAD_RECORDS)
def test_write_detections_rejects_other_shapes(tmp_path, bad, message):
    path = tmp_path / "dets.json"
    with pytest.raises(ValueError, match="^records must be a 1-D DET_DTYPE array, got "):
        write_detections(path, bad)
    assert not path.exists(), message


def test_read_detections_rejects_non_array(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"not": "an array"}))
    with pytest.raises(ValueError):
        read_detections(path)


def test_read_detections_memory_is_the_text(tmp_path):
    # json.load of this 2.9 MB dump peaks at about 4.5 times its size, with
    # a dict, a bbox list and boxed floats per record; the reader holds the
    # file's bytes and text, two typed buffers and the rows
    path = tmp_path / "dets.json"
    write_detections(path, noisy_sized_rows())
    tracemalloc.start()
    try:
        read_detections(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * path.stat().st_size


def reference_rows(path):
    """records_to_dets of the file's json.load, or the message read_detections must raise."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, list):
        return f"{path}: detection dump must be a JSON array"
    try:
        return records_to_dets(doc)
    except ValueError as exc:
        return f"{path}: {exc}"


def assert_reads_as_reference(path):
    want = reference_rows(path)
    if isinstance(want, str):
        with pytest.raises(ValueError) as raised:
            read_detections(path)
        assert str(raised.value) == want
    else:
        got = read_detections(path)
        assert got.dtype == want.dtype == DET_DTYPE
        assert got.tobytes() == want.tobytes()


class Text(str):
    """JSON text already spelled, such as an object with a repeated key."""


def spelled(value) -> str:
    return value if isinstance(value, Text) else json.dumps(value)


# the numbers of a record the reference accepts, floats of every kind and
# ints; a width or height is never negative
finite = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(EDGE_FLOATS[:-3]))
sizes = st.one_of(st.floats(0.0, 1e6), st.sampled_from([-0.0, 5e-324, 1e16]))
ints = st.integers(-(2**70), 2**70)
# values no record field takes, and a record nested as a value
misfits = st.sampled_from(
    [True, False, None, "4", [4.0], {}, 1.5, -1.0, 2**63, -(2**63) - 1, 10**400, math.nan, -math.inf]
)
good_record = {"image_id": 0, "category_id": 1, "bbox": [0.5, 1.5, 2.0, 3.0], "score": 0.75}


def record_text(pairs) -> Text:
    return Text("{" + ", ".join(f"{json.dumps(k)}: {spelled(v)}" for k, v in pairs) + "}")


# records as write_detections spells them, the reader's fast path
well_formed = st.builds(
    lambda i, c, x, y, w, h, s: record_text(
        [("bbox", [x, y, w, h]), ("category_id", c), ("image_id", i), ("score", s)]
    ),
    int64s, int64s, finite, finite, sizes, sizes, finite,
)


@st.composite
def record_texts(draw):
    """One record's JSON text: fields in any order, ints among its numbers, and
    now and then a field dropped, repeated, retyped or joined by an extra key."""
    corners = [draw(st.one_of(finite, ints)) for _ in "xy"]
    bbox = corners + [draw(st.one_of(sizes, ints.map(abs))) for _ in "wh"]
    pairs = [
        ("image_id", draw(int64s)),
        ("category_id", draw(int64s)),
        ("bbox", bbox),
        ("score", draw(st.one_of(finite, ints))),
    ]
    pairs = draw(st.permutations(pairs))
    odd = st.one_of(misfits, finite, st.just(Text(json.dumps(good_record))))
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(["drop", "repeat", "extra", "retype", "rebox"]))
        at = draw(st.integers(0, len(pairs) - 1)) if pairs else None
        if change == "drop" and pairs:
            del pairs[at]
        elif change == "retype" and pairs:
            pairs[at] = (pairs[at][0], draw(odd))
        elif change == "rebox":
            length = draw(st.one_of(st.just(4), st.integers(0, 5)))
            pairs.append(("bbox", [draw(st.one_of(finite, odd)) for _ in range(length)]))
        else:
            key = draw(st.sampled_from(list(good_record))) if change == "repeat" else "note"
            pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(odd)))
    return record_text(pairs)


@st.composite
def dump_texts(draw):
    """A dump's JSON text: an array of records, three well-formed ones to one
    other, and in some dumps an item that is not a record."""
    items = draw(st.lists(st.one_of(well_formed, well_formed, well_formed, record_texts()), max_size=6))
    if draw(st.integers(0, 4)) == 4:
        odd = draw(st.sampled_from(["null", "7", "[]", f"[{json.dumps(good_record)}]"]))
        items.insert(draw(st.integers(0, len(items))), odd)
    return "[" + ",\n ".join(items) + "]"


def dump_of(*records) -> str:
    return json.dumps(list(records))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dump_texts())
@example("[]")
@example(dump_of({**good_record, "bbox": [1, 2, 3, 4]}))  # int bbox values
@example(dump_of({**good_record, "score": 1}))
@example(dump_of({**good_record, "image_id": INT64_MIN, "category_id": INT64_MAX}))
@example(dump_of({**good_record, "image_id": 2**63}))
@example(dump_of({**good_record, "category_id": True}))
@example(dump_of({**good_record, "bbox": [0.5, True, 2.0, 3.0]}))
@example(dump_of({**good_record, "bbox": [0.5, 1.5, None, 3.0]}))
@example(dump_of({**good_record, "score": math.nan}))
@example(dump_of({**good_record, "score": True}))
@example(dump_of({**good_record, "score": "0.5"}))
@example(dump_of(good_record, {**good_record, "score": -math.inf}))
@example(dump_of({**good_record, "bbox": [0.5, math.inf, 2.0, 3.0]}))
@example(dump_of({**good_record, "bbox": [-0.0, 5e-324, 1e308, -0.0], "score": -0.0}))
@example(dump_of({**good_record, "bbox": [-1e308, -1e308, 1e308, 1e308]}))  # the area overflows
@example(dump_of({**good_record, "bbox": [1e308, 0.0, 1e308, 1.0]}))  # a corner overflows
@example(dump_of({**good_record, "bbox": [1e16, 0.0, -1.0, 1.0]}))  # a negative width lost in rounding
@example(dump_of({**good_record, "area": 4.0}))  # an extra key
@example(dump_of({k: v for k, v in good_record.items() if k != "category_id"}))
@example(dump_of(good_record, {k: v for k, v in good_record.items() if k != "image_id"}))
@example('[{"image_id": 1.5, "image_id": 3, "category_id": 0, "bbox": [0.0, 0.0, 1.0, 1.0], "score": 0.5}]')
@example(dump_of({**good_record, "note": good_record}))  # a nested record
@example(dump_of(good_record, None))
def test_read_detections_matches_reference(tmp_path, text):
    """read_detections gives records_to_dets' rows, bit for bit, or raises its
    message, on any dump: well-formed records and every kind of irregular one."""
    path = tmp_path / "dets.json"
    path.write_text(text, encoding="utf-8")
    assert_reads_as_reference(path)


@pytest.mark.parametrize(
    "doc", [good_record, None, 7, "[]", {}], ids=["record", "null", "number", "string", "empty"]
)
def test_read_detections_rejects_a_top_level_non_array(tmp_path, doc):
    path = tmp_path / "dets.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_reads_as_reference(path)
