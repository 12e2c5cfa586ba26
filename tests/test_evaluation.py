import json
import math

import numpy as np
import pytest

import brute_eval
from cornerdet.evaluation import (
    AF_IOU_GRID,
    AP_IOU_GRID,
    THRESHOLDS,
    GroundTruthSet,
    average_precision,
    average_recall,
    build_report,
    greedy_match,
    load_ground_truth,
    records_to_dets,
    render_tables,
)
from cornerdet.geometry import DET_DTYPE, TRUTH_DTYPE, InvariantError, iou_matrix
from oracles import iou_xyxy


def d(img, cls, box, score):
    return (img, cls, box, score)


def g(img, cls, box):
    return (img, cls, box)


def dets_of(rows):
    return np.array(rows, dtype=DET_DTYPE)


def gts_of(rows):
    return np.array(rows, dtype=TRUTH_DTYPE)


def gt_set(gts, n_images=None):
    if n_images is None:
        n_images = int(gts["image_id"].max(initial=0)) + 1
    return GroundTruthSet(image_ids=np.arange(n_images), records=gts)


def boxes_of(*boxes):
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def ap_at(dets, gts, thr):
    """AP over every class and scale at one threshold."""
    return average_precision(dets_of(dets), gts_of(gts))[0][THRESHOLDS.index(thr)]


class TestMatchGreedy:
    def test_perfect_single(self):
        ious = iou_matrix(boxes_of((0, 0, 10, 10)), boxes_of((0, 0, 10, 10)))
        assert greedy_match(ious, [0.5]).tolist() == [[0]]

    def test_second_detection_unmatched(self):
        ious = iou_matrix(boxes_of((0, 0, 10, 10), (1, 1, 10, 10)), boxes_of((0, 0, 10, 10)))
        assert greedy_match(ious, [0.5]).tolist() == [[0, -1]]

    def test_empty_gts(self):
        ious = iou_matrix(boxes_of((0, 0, 1, 1)), boxes_of())
        assert greedy_match(ious, [0.5]).tolist() == [[-1]]

    def test_prefers_highest_iou_then_index(self):
        gts = boxes_of((0, 0, 8, 8), (0, 0, 10, 10), (0, 0, 10, 10))
        ious = iou_matrix(boxes_of((0, 0, 10, 10)), gts)
        # exact match, lowest index among ties; at 0.5 the 8x8 box (IoU 0.64)
        # loses to the exact ones as well
        assert greedy_match(ious, [0.5, 0.9]).tolist() == [[1], [1]]

    def test_one_to_one_invariant(self):
        # a threshold below the -1 that marks matched columns lets the
        # second row reach the taken column; the check must catch it
        ious = iou_matrix(boxes_of((0, 0, 10, 10), (0, 0, 10, 10)), boxes_of((0, 0, 10, 10)))
        with pytest.raises(InvariantError):
            greedy_match(ious, [-2.0])

    def test_thresholds_run_independently(self):
        rng = np.random.default_rng(3)
        dets, gts = random_instance(rng, n_images=1, n_classes=1)
        ious = iou_matrix(dets["box"][np.argsort(-dets["score"])], gts["box"])
        together = greedy_match(ious, THRESHOLDS)
        for t, row in zip(THRESHOLDS, together):
            assert row.tolist() == greedy_match(ious, [t])[0].tolist()


class TestAveragePrecision:
    def test_perfect_single(self):
        dets = [d(0, 0, (0, 0, 10, 10), 0.9)]
        gts = [g(0, 0, (0, 0, 10, 10))]
        assert ap_at(dets, gts, 0.5) == 1.0

    def test_no_detections(self):
        gts = [g(0, 0, (0, 0, 10, 10))]
        assert ap_at([], gts, 0.5) == 0.0

    def test_trailing_false_positive_is_free(self):
        dets = [
            d(0, 0, (0, 0, 10, 10), 0.9),
            d(0, 0, (50, 50, 60, 60), 0.8),
        ]
        gts = [g(0, 0, (0, 0, 10, 10))]
        # interpolated PR: (1.0, 1.0) then (1.0, 0.5); envelope keeps 1.0
        assert ap_at(dets, gts, 0.5) == 1.0

    def test_leading_false_positive_hurts(self):
        dets = [
            d(0, 0, (50, 50, 60, 60), 0.9),
            d(0, 0, (0, 0, 10, 10), 0.8),
        ]
        gts = [g(0, 0, (0, 0, 10, 10))]
        got = ap_at(dets, gts, 0.5)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_classes_averaged(self):
        dets = [d(0, 0, (0, 0, 10, 10), 0.9)]
        gts = [g(0, 0, (0, 0, 10, 10)), g(0, 1, (20, 20, 30, 30))]
        assert ap_at(dets, gts, 0.5) == pytest.approx(0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        dets, gts = random_instance(rng)
        values = average_precision(dets, gts)[0][: len(AP_IOU_GRID)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_adding_correct_detection_never_hurts(self):
        gts = [g(0, 0, (0, 0, 10, 10)), g(0, 0, (30, 30, 40, 40))]
        dets = [d(0, 0, (0, 0, 10, 10), 0.9)]
        base = ap_at(dets, gts, 0.5)
        more = dets + [d(0, 0, (30, 30, 40, 40), 0.8)]
        assert ap_at(more, gts, 0.5) >= base


def recall(props, gts):
    return average_recall(dets_of(props), gts_of(gts))


class TestAverageRecall:
    def test_perfect_proposals(self):
        gts = [g(0, 0, (0, 0, 10, 10)), g(0, 1, (30, 30, 50, 50))]
        props = [d(0, 0, (0, 0, 10, 10), 0.9), d(0, 0, (30, 30, 50, 50), 0.8)]
        assert recall(props, gts)["ar_1000"] == 1.0

    def test_partial_overlap_counts_two_thresholds(self):
        # aspect 5:1 ground truth covered only at IoU 0.50 and 0.55
        gts = [g(0, 0, (0, 0, 100, 20))]
        props = [d(0, 0, (0, 0, 55.6, 20), 0.9)]
        v = iou_xyxy((0, 0, 55.6, 20), (0, 0, 100, 20))
        assert 0.55 < v < 0.6
        assert recall(props, gts)["ar_aspect_5_1"] == pytest.approx(0.2)

    def test_empty_proposals(self):
        gts = [g(0, 0, (0, 0, 10, 10))]
        assert recall([], gts)["ar_1000"] == 0.0

    def test_no_eligible_gts_undefined(self):
        gts = [g(0, 0, (0, 0, 10, 10))]
        assert recall([], gts)["ar_area_bucket_1"] is None

    def test_class_agnostic_ignores_labels(self):
        gts = [g(0, 0, (0, 0, 10, 10))]
        props = [d(0, 5, (0, 0, 10, 10), 0.9)]
        got = recall(props, gts)
        assert got["ar_100"] == got["ar_1000"] == 1.0

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(9)
        dets, gts = random_instance(rng)
        base = average_recall(dets, gts)
        shuffled = dets.copy()
        shuffled["class_id"] = (shuffled["class_id"] + 3) % 5
        assert average_recall(shuffled, gts) == base

    def test_max_dets_cap(self):
        gts = [g(0, 0, (0, 0, 10, 10))]
        filler = [d(0, 0, (200, 200, 201, 201), 0.9)] * 100
        good = [d(0, 0, (0, 0, 10, 10), 0.1)]
        got = recall(filler + good, gts)
        assert got["ar_100"] == 0.0
        assert got["ar_1000"] == 1.0


class TestAverageFalseDiscovery:
    def test_perfect(self):
        dets = dets_of([d(0, 0, (0, 0, 10, 10), 0.9)])
        gts = gts_of([g(0, 0, (0, 0, 10, 10))])
        report = build_report(dets, dets, gt_set(gts))
        assert report["af"] == 0.0 and report["af5"] == 0.0 and report["af50"] == 0.0

    def test_no_detections(self):
        gts = gts_of([g(0, 0, (0, 0, 10, 10))])
        report = build_report(dets_of([]), dets_of([]), gt_set(gts))
        assert report["af"] == 1.0

    def test_identity_with_grid(self):
        rng = np.random.default_rng(31)
        dets, gts = random_instance(rng)
        report = build_report(dets, dets, gt_set(gts, n_images=2))
        grid = report["af_grid"]
        assert report["af"] == 1.0 - math.fsum(grid) / len(grid)
        assert report["af5"] == 1.0 - grid[0]
        assert report["af25"] == 1.0 - grid[4]
        assert report["af50"] == 1.0 - grid[9]
        assert AF_IOU_GRID[0] == 0.05 and AF_IOU_GRID[9] == 0.5


def random_instance(
    rng,
    n_images=2,
    n_classes=3,
    max_dets=10,
    max_gts=10,
    min_dets=0,
    span=80.0,
    sizes=(2.0, 60.0),
):
    """Detections and ground truths as DET_DTYPE and TRUTH_DTYPE arrays.

    About 60% of the detections jitter a ground truth, mostly keeping its
    class; the rest are random boxes.
    """

    def rand_box():
        x, y = rng.uniform(0, span, 2)
        w, h = rng.uniform(*sizes, 2)
        return (float(x), float(y), float(x + w), float(y + h))

    gts = [
        g(int(rng.integers(n_images)), int(rng.integers(n_classes)), rand_box())
        for _ in range(int(rng.integers(1, max_gts + 1)))
    ]
    dets = []
    for _ in range(int(rng.integers(min_dets, max_dets + 1))):
        if gts and rng.random() < 0.6:
            _, base_cls, (bx1, by1, bx2, by2) = gts[rng.integers(len(gts))]
            jitter = rng.uniform(-8, 8, 4)
            x1, y1 = bx1 + jitter[0], by1 + jitter[1]
            x2, y2 = max(x1 + 1, bx2 + jitter[2]), max(y1 + 1, by2 + jitter[3])
            box = (float(x1), float(y1), float(x2), float(y2))
            cls = base_cls if rng.random() < 0.8 else int(rng.integers(n_classes))
        else:
            box = rand_box()
            cls = int(rng.integers(n_classes))
        dets.append(d(int(rng.integers(n_images)), cls, box, float(rng.random())))
    return dets_of(dets), gts_of(gts)


def tie_instance(rng, n_images=2):
    """Ground-truth pairs that tie exactly in IoU with a higher-scored detection.

    Each cluster holds a detection of integer width 2w and two ground truths
    shifted by -a and +a, which overlap it equally, plus a lower-scored
    detection equal to one of the two. Only taking the lower index on the
    tie leaves that one free for the second detection.
    """
    dets, gts = [], []
    for _ in range(int(rng.integers(2, 6))):
        img, cls = int(rng.integers(n_images)), int(rng.integers(2))
        x, y = (int(v) for v in rng.integers(0, 200, 2))
        w, h = int(rng.integers(5, 40)), int(rng.integers(10, 80))
        a = int(rng.integers(1, w))
        pair = [(x - a, y, x + 2 * w - a, y + h), (x + a, y, x + 2 * w + a, y + h)]
        rng.shuffle(pair)
        gts += [g(img, cls, tuple(map(float, box))) for box in pair]
        high, low = rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.5)
        dets.append(d(img, cls, (float(x), float(y), float(x + 2 * w), float(y + h)), high))
        dets.append(d(img, cls, tuple(map(float, pair[int(rng.integers(2))])), low))
    return dets_of(dets), gts_of(gts)


def to_brute(records):
    scores = records["score"] if "score" in records.dtype.names else np.ones(len(records))
    return [
        {"image_id": img, "class_id": cls, "box": tuple(box), "score": score}
        for img, cls, box, score in zip(
            records["image_id"].tolist(),
            records["class_id"].tolist(),
            records["box"].tolist(),
            scores.tolist(),
        )
    ]


def assert_matches_brute(dets, props, gts):
    """The report of one instance against brute_eval at 1e-9; returns the report."""
    report = build_report(dets, props, gt_set(gts, n_images=2))
    brute = brute_eval.brute_report(to_brute(dets), to_brute(props), to_brute(gts))
    for key, want in brute.items():
        got = report[key]
        if key == "undefined":
            assert set(got) == set(want)
        elif isinstance(want, list):
            assert np.allclose(got, want, atol=1e-9)
        else:
            assert got == pytest.approx(want, abs=1e-9)
    return report


class TestBuildReport:
    def test_empty_everything_flagged(self):
        report = build_report(dets_of([]), dets_of([]), gt_set(gts_of([]), n_images=1))
        assert "ap" in report["undefined"] and "af" in report["undefined"]
        for key in ("ap", "ap50", "af", "ar_100"):
            assert report[key] == 0.0

    def test_perfect_pipeline(self):
        gts = gts_of([g(0, 0, (0, 0, 50, 50)), g(1, 1, (10, 10, 200, 150))])
        dets = dets_of([d(0, 0, (0, 0, 50, 50), 1.0), d(1, 1, (10, 10, 200, 150), 0.9)])
        report = build_report(dets, dets, gt_set(gts))
        assert report["ap"] == 1.0
        assert report["ar_100"] == 1.0 and report["ar_1000"] == 1.0
        assert report["af"] == 0.0

    def test_id_mismatch_lists_offenders(self):
        gts = gts_of([g(0, 0, (0, 0, 50, 50))])
        dets = dets_of([d(img, 0, (0, 0, 50, 50), 1.0) for img in (0, 5, 9)])
        # detections first, then proposals, each naming its first offender
        with pytest.raises(ValueError, match=r"^detection 1: image_id 5 is not among the images$"):
            build_report(dets, dets, gt_set(gts, n_images=1))
        with pytest.raises(ValueError, match=r"^proposal 1: image_id 5 is not among the images$"):
            build_report(dets[:1], dets, gt_set(gts, n_images=1))

    def test_af_recomputable_from_grid(self):
        rng = np.random.default_rng(77)
        dets, gts = random_instance(rng)
        report = build_report(dets, dets, gt_set(gts, n_images=2))
        assert report["af"] == 1.0 - math.fsum(report["af_grid"]) / len(report["af_grid"])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            dets, gts = random_instance(rng)
            props, _ = random_instance(rng)
            assert_matches_brute(dets, props, gts)

        # boxes above 96^2: AP_L, AF_L and every AR area bucket
        rng = np.random.default_rng(4321)
        large = dict(span=300.0, sizes=(60.0, 500.0))
        reports = []
        for _ in range(6):
            dets, gts = random_instance(rng, **large)
            props, _ = random_instance(rng, max_dets=30, **large)
            reports.append(assert_matches_brute(dets, props, gts))
        for name in ("ap_large", "af_large", *(f"ar_area_bucket_{i}" for i in range(1, 5))):
            assert any(name not in r["undefined"] for r in reports), name

        # more than 100 detections and proposals in one image: the detection
        # truncation, and AR@100 apart from AR@1000
        rng = np.random.default_rng(5678)
        reports = []
        for _ in range(3):
            dets, gts = random_instance(rng, n_images=1, min_dets=150, max_dets=250, max_gts=20)
            props, _ = random_instance(rng, n_images=1, min_dets=150, max_dets=250)
            # every ground truth again as a proposal, ranked below the rest
            exact = np.zeros(len(gts), dtype=DET_DTYPE)
            exact["box"], exact["score"] = gts["box"], -1.0
            props = np.concatenate([props, exact])
            reports.append(assert_matches_brute(dets, props, gts))
        assert any(r["ar_100"] != r["ar_1000"] for r in reports)

        # exact IoU ties between ground truths: the lowest index wins
        rng = np.random.default_rng(8765)
        for _ in range(20):
            dets, gts = tie_instance(rng)
            assert_matches_brute(dets, dets, gts)


def test_render_tables_layout():
    gts = gts_of([g(0, 0, (0, 0, 50, 50))])
    dets = dets_of([d(0, 0, (0, 0, 50, 50), 1.0)])
    report = build_report(dets, dets, gt_set(gts))
    text = render_tables(report)
    lines = text.splitlines()
    assert lines[0].split("|")[0].strip() == "AP"
    ar_header = lines[3].replace(" ", "")
    assert ar_header == "AR|AR_1+|AR_2+|AR_3+|AR_4+|AR_5:1|AR_6:1|AR_7:1|AR_8:1"
    af_header = lines[6].replace(" ", "")
    assert af_header == "AF|AF_5|AF_25|AF_50|AF_S|AF_M|AF_L"


def test_render_tables_cells_follow_their_headings():
    # every cell a distinct value, so a cell under another heading shows
    columns = {
        "AP": "ap", "AP50": "ap50", "AP75": "ap75",
        "AP_S": "ap_small", "AP_M": "ap_medium", "AP_L": "ap_large",
        "AR": "ar_1000", "AR_1+": 0, "AR_2+": 1, "AR_3+": 2, "AR_4+": 3,
        "AR_5:1": 4, "AR_6:1": 5, "AR_7:1": 6, "AR_8:1": 7,
        "AF": "af", "AF_5": "af5", "AF_25": "af25", "AF_50": "af50",
        "AF_S": "af_small", "AF_M": "af_medium", "AF_L": "af_large",
    }
    report = {name: i / 100 for i, name in enumerate(columns.values()) if isinstance(name, str)}
    report["ar_area_buckets"] = [0.51, 0.52, 0.53, 0.54]
    report["ar_aspect_buckets"] = [0.55, 0.56, 0.57, 0.58]
    report["undefined"] = ["ap75", "ar_area_bucket_2", "ar_aspect_8_1"]
    lines = render_tables(report).splitlines()
    cells = {}
    for head, row in ((lines[0], lines[1]), (lines[3], lines[4]), (lines[6], lines[7])):
        cells.update(zip(head.replace(" ", "").split("|"), row.replace(" ", "").split("|")))
    buckets = report["ar_area_buckets"] + report["ar_aspect_buckets"]
    want = {
        head: f"{100.0 * (report[name] if isinstance(name, str) else buckets[name]):.1f}"
        for head, name in columns.items()
    }
    want.update({"AP75": "n/a", "AR_2+": "n/a", "AR_8:1": "n/a"})
    assert cells == want


def test_ground_truth_roundtrip(tmp_path):
    doc = {
        "images": [{"id": 0, "width": 511, "height": 511}],
        "annotations": [
            {"id": 0, "image_id": 0, "category_id": 1, "bbox": [10.0, 20.0, 30.0, 40.0]}
        ],
        "categories": [{"id": 0, "name": "class_0"}, {"id": 1, "name": "class_1"}],
    }
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))
    gts = load_ground_truth(path)
    assert gts.image_ids.tolist() == [0]
    (rec,) = gts.records
    assert (rec["image_id"], rec["class_id"]) == (0, 1)
    assert rec["box"].tolist() == [10.0, 20.0, 40.0, 60.0]

    dets = records_to_dets(
        [{"image_id": 0, "category_id": 1, "bbox": [10.0, 20.0, 30.0, 40.0], "score": 0.5}]
    )
    assert dets["box"].tolist() == [rec["box"].tolist()]


def test_ground_truth_missing_key(tmp_path):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({"images": []}))
    with pytest.raises(ValueError, match="annotations"):
        load_ground_truth(path)
