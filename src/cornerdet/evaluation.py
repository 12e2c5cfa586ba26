"""Detection-quality metrics: AP, class-agnostic AR, and AF.

Protocol summary:

- AP per IoU threshold uses greedy one-to-one matching in score order,
  101-point interpolated precision on the recall grid 0, 0.01, ..., 1,
  computed per class and averaged over classes that have ground truth.
  The headline AP averages thresholds 0.50:0.05:0.95; at most 100
  detections per image enter the computation.
- AR is the fraction of (in-range) ground truths covered by at least one
  proposal at IoU >= t, averaged over the same ten thresholds, at 100 and
  at 1000 proposals per image. Class labels are ignored. Area buckets
  follow (96^2, 200^2], (200^2, 300^2], (300^2, 400^2], (400^2, inf);
  aspect buckets r:1 collect ground truths whose max(w/h, h/w) rounds to r.
- AF = 1 - mean AP over the low-IoU grid 0.05:0.05:0.50; single-threshold
  and scale-restricted variants replace the grid accordingly. Scale
  restriction keeps only detections and ground truths whose box area falls
  in the scale range (small < 32^2, medium in [32^2, 96^2), large >= 96^2).

Metrics with no eligible ground truth are undefined: they are excluded
from averages, reported as 0.0, and named in the report's ``undefined``
list. All accumulation runs in float64.

Detections and proposals are geometry.DET_DTYPE rows, ground truths
geometry.TRUTH_DTYPE rows. Each image and class gets one IoU matrix
between its detections and ground truths, and the greedy match runs every
AP and AF threshold over it, each scale view over a row and column
subset. Each image gets one IoU matrix between its score-sorted proposals
and ground truths, whose column maxima over the first 100 and 1000 rows
give every AR value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from cornerdet.geometry import DET_DTYPE, TRUTH_DTYPE, InvariantError, iou_matrix

AP_IOU_GRID = tuple((10 + i) / 20 for i in range(10))  # 0.50 .. 0.95
AF_IOU_GRID = tuple((i + 1) / 20 for i in range(10))  # 0.05 .. 0.50
THRESHOLDS = AP_IOU_GRID + AF_IOU_GRID  # every threshold one match pass serves
RECALL_GRID = tuple(j / 100 for j in range(101))

MAX_DETS_PER_IMAGE = 100
AR_LIMITS = (100, 1000)  # proposals per image for ar_100 and ar_1000

SCALE_RANGES = {
    "small": (0.0, 32.0**2),
    "medium": (32.0**2, 96.0**2),
    "large": (96.0**2, math.inf),
}
AR_AREA_BUCKETS = (
    (96.0**2, 200.0**2),
    (200.0**2, 300.0**2),
    (300.0**2, 400.0**2),
    (400.0**2, math.inf),
)
AR_ASPECT_BUCKETS = (5, 6, 7, 8)
AR_AREA_NAMES = tuple(f"ar_area_bucket_{i + 1}" for i in range(len(AR_AREA_BUCKETS)))
AR_ASPECT_NAMES = tuple(f"ar_aspect_{r}_1" for r in AR_ASPECT_BUCKETS)

# the report's three tables, each a (heading, metric name) per column
TABLES = (
    (
        ("AP", "ap"), ("AP50", "ap50"), ("AP75", "ap75"),
        ("AP_S", "ap_small"), ("AP_M", "ap_medium"), ("AP_L", "ap_large"),
    ),
    (
        ("AR", "ar_1000"),
        *((f"AR_{i + 1}+", name) for i, name in enumerate(AR_AREA_NAMES)),
        *((f"AR_{r}:1", name) for r, name in zip(AR_ASPECT_BUCKETS, AR_ASPECT_NAMES)),
    ),
    (
        ("AF", "af"), ("AF_5", "af5"), ("AF_25", "af25"), ("AF_50", "af50"),
        ("AF_S", "af_small"), ("AF_M", "af_medium"), ("AF_L", "af_large"),
    ),
)

@dataclass(frozen=True)
class GroundTruthSet:
    image_ids: np.ndarray  # int64, distinct
    records: np.ndarray  # TRUTH_DTYPE


def greedy_match(ious: np.ndarray, thresholds) -> np.ndarray:
    """Greedy one-to-one matching of rows to columns at every threshold at once.

    `ious` is (R, G) with rows sorted by descending score. At each threshold,
    each row in turn takes the still-unmatched column of highest IoU,
    provided that IoU reaches the threshold; equal IoUs resolve to the
    lowest column index. Returns (T, R) matched column indices, -1 where a
    row matched nothing.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n_rows, n_cols = ious.shape
    matched = np.full((len(thresholds), n_rows), -1, dtype=np.int64)
    if n_cols == 0:
        return matched
    taken = np.zeros((len(thresholds), n_cols), dtype=bool)
    states = np.arange(len(thresholds))
    # a row below the lowest threshold everywhere matches nothing
    for r in np.flatnonzero(ious.max(axis=1) >= thresholds.min()):
        candidates = np.where(taken, -1.0, ious[r])
        j = candidates.argmax(axis=1)
        hit = candidates[states, j] >= thresholds
        if taken[states[hit], j[hit]].any():
            raise InvariantError("ground truth matched twice")
        taken[states[hit], j[hit]] = True
        matched[hit, r] = j[hit]
    return matched


def _interpolated_ap(tp_flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from ordered true-positive flags."""
    if n_gt <= 0:
        raise ValueError("n_gt must be positive")
    if not len(tp_flags):
        return 0.0
    tp = np.cumsum(tp_flags.astype(np.float64))
    fp = np.cumsum(~tp_flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, np.asarray(RECALL_GRID), side="left")
    sampled = np.where(idx < len(recall), envelope[np.minimum(idx, len(recall) - 1)], 0.0)
    return float(np.mean(sampled))


def _runs(order: np.ndarray, *keys: np.ndarray) -> dict[tuple, np.ndarray]:
    """The indices of `order` split into runs of equal keys; `order` sorts by the keys."""
    if not len(order):
        return {}
    cols = [k[order] for k in keys]
    cuts = np.flatnonzero(np.any([c[1:] != c[:-1] for c in cols], axis=0)) + 1
    starts = np.concatenate([[0], cuts])
    return {
        tuple(c[s] for c in cols): part for s, part in zip(starts.tolist(), np.split(order, cuts))
    }


def _area(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def _scale_views(boxes: np.ndarray) -> np.ndarray:
    """(4, N) membership of each box in the views all, small, medium, large."""
    area = _area(boxes)
    masks = [(lo <= area) & (area < hi) for lo, hi in SCALE_RANGES.values()]
    return np.array([np.ones(len(boxes), dtype=bool)] + masks)


def _top_per_image(dets: np.ndarray) -> np.ndarray:
    """Ascending indices of each image's MAX_DETS_PER_IMAGE highest-scoring rows, ties by index."""
    order = np.lexsort((-dets["score"], dets["image_id"]))
    images = dets["image_id"][order]
    rank = np.arange(len(order)) - np.searchsorted(images, images)
    return np.sort(order[rank < MAX_DETS_PER_IMAGE])


def average_precision(dets: np.ndarray, truth: np.ndarray) -> list[list[float] | None]:
    """Mean per-class 101-point AP at every THRESHOLDS value, in each scale view.

    Returns one list per view (all, small, medium, large), or None for a
    view without ground truth. A class enters a view's mean when it has
    ground truth in that view; its detections are matched in score order,
    ties by image id and then by row.
    """
    det_views, gt_views = _scale_views(dets["box"]), _scale_views(truth["box"])
    tp = np.zeros((len(det_views), len(THRESHOLDS), len(dets)), dtype=bool)
    gt_groups = _runs(
        np.lexsort((truth["class_id"], truth["image_id"])), truth["image_id"], truth["class_id"]
    )
    det_order = np.lexsort((-dets["score"], dets["class_id"], dets["image_id"]))
    for key, rows in _runs(det_order, dets["image_id"], dets["class_id"]).items():
        cols = gt_groups.get(key)
        if cols is None:
            continue
        ious = iou_matrix(dets["box"][rows], truth["box"][cols])
        for flags, in_rows, in_cols in zip(tp, det_views[:, rows], gt_views[:, cols]):
            matched = greedy_match(ious[np.ix_(in_rows, in_cols)], THRESHOLDS)
            flags[:, rows[in_rows]] = matched >= 0

    order = np.lexsort((dets["image_id"], -dets["score"]))
    grids = []
    for flags, det_view, gt_view in zip(tp, det_views, gt_views):
        classes, counts = np.unique(truth["class_id"][gt_view], return_counts=True)
        if not len(classes):
            grids.append(None)
            continue
        picks = [order[(dets["class_id"][order] == c) & det_view[order]] for c in classes]
        grids.append(
            [
                math.fsum(_interpolated_ap(row[p], n) for p, n in zip(picks, counts))
                / len(classes)
                for row in flags
            ]
        )
    return grids


def _recall(best: np.ndarray, eligible: np.ndarray) -> float | None:
    """Mean over AP_IOU_GRID of the share of eligible ground truths covered."""
    n = int(eligible.sum())
    if not n:
        return None
    covered = best[eligible]
    return math.fsum(int((covered >= t).sum()) / n for t in AP_IOU_GRID) / len(AP_IOU_GRID)


def average_recall(proposals: np.ndarray, truth: np.ndarray) -> dict[str, float | None]:
    """Class-agnostic AR at 100 and 1000 proposals, and per area and aspect bucket.

    A ground truth counts as covered at threshold t when one of its image's
    top proposals by score (ties by row) overlaps it with IoU >= t. The
    buckets use the top 1000. A value is None when no ground truth is in
    range.
    """
    best = np.zeros((len(AR_LIMITS), len(truth)))
    gt_groups = _runs(np.argsort(truth["image_id"], kind="stable"), truth["image_id"])
    order = np.lexsort((-proposals["score"], proposals["image_id"]))
    for key, rows in _runs(order, proposals["image_id"]).items():
        cols = gt_groups.get(key)
        if cols is not None:
            ious = iou_matrix(proposals["box"][rows[: max(AR_LIMITS)]], truth["box"][cols])
            for k, limit in enumerate(AR_LIMITS):
                best[k, cols] = ious[:limit].max(axis=0)

    x1, y1, x2, y2 = truth["box"].T
    w, h = x2 - x1, y2 - y1
    with np.errstate(divide="ignore", invalid="ignore"):
        aspect = np.where((w > 0.0) & (h > 0.0), np.rint(np.maximum(w / h, h / w)), 0.0)
    area = w * h
    everything = np.ones(len(truth), dtype=bool)
    return {
        "ar_100": _recall(best[0], everything),
        "ar_1000": _recall(best[1], everything),
        **{
            name: _recall(best[1], (lo < area) & (area <= hi))
            for name, (lo, hi) in zip(AR_AREA_NAMES, AR_AREA_BUCKETS)
        },
        **{name: _recall(best[1], aspect == r) for name, r in zip(AR_ASPECT_NAMES, AR_ASPECT_BUCKETS)},
    }


# two areas near the float limit overflow in the union; that IoU is 0 (a
# finite intersection over infinity) and numpy's warning would only add output
@np.errstate(over="ignore")
def build_report(dets: np.ndarray, proposals: np.ndarray, gts: GroundTruthSet) -> dict:
    """The report document of detections, raw proposals and truth, as eval writes it.

    It holds every metric by name, except the AR buckets, which are listed
    in AR_AREA_NAMES and AR_ASPECT_NAMES order as "ar_area_buckets" and
    "ar_aspect_buckets"; "af_grid", the low-IoU AP values, so AF stays
    recomputable; and "undefined", the names of the metrics without
    eligible ground truth, which hold 0.0.
    """
    require_known_images(dets["image_id"], gts.image_ids, "detection")
    require_known_images(proposals["image_id"], gts.image_ids, "proposal")
    dets = dets[_top_per_image(dets)]
    grids = average_precision(dets, gts.records)
    n = len(AP_IOU_GRID)
    ap = [None if g is None else math.fsum(g[:n]) / n for g in grids]
    af = [None if g is None else 1.0 - math.fsum(g[n:]) / n for g in grids]
    full = grids[0] or [None] * len(THRESHOLDS)

    def complement(value):
        return None if value is None else 1.0 - value

    # in the order undefined metrics are listed
    metrics = {
        "ap": ap[0],
        "ap50": full[AP_IOU_GRID.index(0.5)],
        "ap75": full[AP_IOU_GRID.index(0.75)],
        "af": af[0],
        "af5": complement(full[n + AF_IOU_GRID.index(0.05)]),
        "af25": complement(full[n + AF_IOU_GRID.index(0.25)]),
        "af50": complement(full[n + AF_IOU_GRID.index(0.5)]),
        "ap_small": ap[1],
        "ap_medium": ap[2],
        "ap_large": ap[3],
        **average_recall(proposals, gts.records),
        "af_small": af[1],
        "af_medium": af[2],
        "af_large": af[3],
    }
    report = {name: 0.0 if value is None else value for name, value in metrics.items()}
    report["ar_area_buckets"] = [report.pop(name) for name in AR_AREA_NAMES]
    report["ar_aspect_buckets"] = [report.pop(name) for name in AR_ASPECT_NAMES]
    report["af_grid"] = [0.0 if v is None else v for v in full[n:]]
    report["undefined"] = [name for name, value in metrics.items() if value is None]
    return report


def render_tables(report: dict) -> str:
    """Aligned plain-text tables of a build_report document, one per TABLES entry."""
    values = {
        **report,
        **dict(zip(AR_AREA_NAMES, report["ar_area_buckets"])),
        **dict(zip(AR_ASPECT_NAMES, report["ar_aspect_buckets"])),
    }
    lines = []
    for table in TABLES:
        cells = [
            "n/a" if name in report["undefined"] else f"{100.0 * values[name]:.1f}"
            for _, name in table
        ]
        lines.append(" | ".join(f"{head:>7}" for head, _ in table))
        lines.append(" | ".join(f"{cell:>7}" for cell in cells))
        lines.append("")
    return "\n".join(lines)


# -- parsing -------------------------------------------------------------------


def _columns(items: list, label: str, keys: tuple[str, ...]) -> list[list]:
    """Each key's value in every item, one list per key.

    An item that is not an object, or lacks a key, raises a ValueError
    naming `label` and its index.
    """
    if set(map(type, items)) <= {dict}:
        try:
            return [[item[k] for item in items] for k in keys]
        except KeyError:  # the loop below names the first item without a key
            pass
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise ValueError(f"{label} {i} is not an object")
        missing = [k for k in keys if k not in item]
        if missing:
            raise ValueError(f"{label} {i} has no {missing[0]!r} field")
    return [[item[k] for item in items] for k in keys]


def _ints(values: list, label: str, name: str) -> np.ndarray:
    """JSON integers as int64; a float, bool, string or too-large id raises naming its index."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:  # the loop below names the first int beyond int64
            pass
    for i, v in enumerate(values):
        if type(v) is not int:
            raise ValueError(f"{label} {i}: {name} must be an integer, got {json.dumps(v)}")
        if not -(2**63) <= v < 2**63:
            raise ValueError(f"{label} {i}: {name} {v} does not fit in 64 bits")
    return np.array(values, dtype=np.int64)


def _numbers(values: list, label: str, name: str) -> np.ndarray:
    """JSON numbers as float64; a bool, string, null, array or object raises naming its index."""
    if set(map(type, values)) <= {float}:
        return np.array(values, dtype=np.float64)
    out = []
    for i, v in enumerate(values):
        if type(v) not in (int, float):
            raise ValueError(f"{label} {i}: {name} must be a number, got {json.dumps(v)}")
        try:
            out.append(float(v))
        except OverflowError as exc:  # an int beyond float range
            raise ValueError(f"{label} {i}: {exc}") from None
    return np.array(out, dtype=np.float64)


# values that are not finite, or overflow, are reported below; numpy's
# warnings about them would only add lines to the error
@np.errstate(over="ignore", invalid="ignore")
def _boxes(bboxes: list, label: str) -> np.ndarray:
    """(N, 4) x1y1x2y2 boxes from [x, y, w, h] lists of 4 numbers.

    The corners and the area must be finite (so IoU is never NaN) and the
    width and height not negative.
    """
    for i, b in enumerate(bboxes):
        if type(b) is not list or len(b) != 4:
            raise ValueError(f"{label} {i}: bbox must be a list of 4 numbers, got {json.dumps(b)}")
    if not bboxes:
        return np.zeros((0, 4))
    x, y, w, h = (_numbers(list(c), label, "bbox value") for c in zip(*bboxes))
    boxes = np.column_stack([x, y, x + w, y + h])
    for bad, why in box_faults(boxes):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{label} {i} has bbox {json.dumps(bboxes[i])}, {why}")
    return boxes


@np.errstate(over="ignore", invalid="ignore")
def box_faults(boxes: np.ndarray) -> tuple[tuple[np.ndarray, str], ...]:
    """Each way an (N, 4) x1y1x2y2 box can be unfit for IoU: a row mask and its reason.

    The corners and the area must be finite, and the width and height not negative.
    """
    return (
        (~np.isfinite(boxes).all(axis=1), "which is not finite"),
        (~np.isfinite(_area(boxes)), "whose area is not finite"),
        ((boxes[:, 2] < boxes[:, 0]) | (boxes[:, 3] < boxes[:, 1]), "whose width or height is negative"),
    )


def load_ground_truth(path) -> GroundTruthSet:
    """Load the ground-truth JSON: images, annotations, categories.

    The document must be an object whose three keys hold arrays of objects.
    Every id must be a JSON integer, every annotation bbox 4 finite numbers
    [x, y, w, h] with w, h >= 0, and every annotation's image_id and
    category_id among the images and the categories. Anything else raises
    a ValueError naming the file and, for an entry, its index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed or too deeply nested JSON
            raise ValueError(f"{path}: {exc}") from None
    try:
        return _ground_truth(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _ground_truth(doc) -> GroundTruthSet:
    if type(doc) is not dict:
        raise ValueError("ground truth must be a JSON object")
    for key in ("images", "annotations", "categories"):
        if key not in doc:
            raise ValueError(f"ground-truth file is missing {key!r}")
        if type(doc[key]) is not list:
            raise ValueError(f"{key!r} must be an array")
    (ids,) = _columns(doc["images"], "image", ("id",))
    image_ids = _ints(ids, "image", "id")
    ann_ids, images, classes, bboxes = _columns(
        doc["annotations"], "annotation", ("id", "image_id", "category_id", "bbox")
    )
    _ints(ann_ids, "annotation", "id")
    records = np.zeros(len(ann_ids), dtype=TRUTH_DTYPE)
    records["image_id"] = _ints(images, "annotation", "image_id")
    records["class_id"] = _ints(classes, "annotation", "category_id")
    records["box"] = _boxes(bboxes, "annotation")
    (category_ids,) = _columns(doc["categories"], "category", ("id",))
    unknown = ~np.isin(records["class_id"], _ints(category_ids, "category", "id"))
    if unknown.any():
        i = int(np.argmax(unknown))
        raise ValueError(f"annotation {i}: category_id {records['class_id'][i]} is not among the categories")
    if len(np.unique(image_ids)) != len(image_ids):
        raise ValueError("duplicate image ids")
    require_known_images(records["image_id"], image_ids, "annotation")
    return GroundTruthSet(image_ids=image_ids, records=records)


def require_known_images(ids: np.ndarray, image_ids: np.ndarray, label: str) -> None:
    """Raise a ValueError naming the first `label` whose image id is not in image_ids."""
    unknown = ~np.isin(ids, image_ids)
    if unknown.any():
        i = int(np.argmax(unknown))
        raise ValueError(f"{label} {i}: image_id {ids[i]} is not among the images")


def records_to_dets(records: list) -> np.ndarray:
    """DET_DTYPE rows from interchange records ({image_id, category_id, bbox, score}).

    Every field is required; the ids must be JSON integers, the bbox 4
    finite numbers [x, y, w, h] with w, h >= 0, and the score a finite
    number (a bool or a string is not a number). A record that breaks this
    raises a ValueError naming its index.
    """
    keys = ("image_id", "category_id", "bbox", "score")
    images, classes, bboxes, scores = _columns(records, "record", keys)
    dets = np.zeros(len(records), dtype=DET_DTYPE)
    dets["image_id"] = _ints(images, "record", "image_id")
    dets["class_id"] = _ints(classes, "record", "category_id")
    dets["box"] = _boxes(bboxes, "record")
    dets["score"] = _numbers(scores, "record", "score")
    bad = ~np.isfinite(dets["score"])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"record {i} has score {float(dets['score'][i])}, which is not finite")
    return dets
