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
from averages, reported as 0.0, and named in ``EvalReport.undefined``.
All accumulation runs in float64.

Records are structured arrays (DET_DTYPE, GT_DTYPE). Each image and class
gets one IoU matrix between its detections and ground truths, and the
greedy match runs every AP and AF threshold over it, each scale view over a
row and column subset. Each image gets one IoU matrix between its
score-sorted proposals and ground truths, whose column maxima over the
first 100 and 1000 rows give every AR value.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from cornerdet.geometry import InvariantError, iou_matrix

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

# ground truths and detections (or proposals), one row each; box is x1y1x2y2
GT_DTYPE = np.dtype([("image_id", np.int64), ("class_id", np.int64), ("box", np.float64, (4,))])
DET_DTYPE = np.dtype(
    [("image_id", np.int64), ("class_id", np.int64), ("box", np.float64, (4,)), ("score", np.float64)]
)


@dataclass(frozen=True)
class GroundTruthSet:
    image_ids: np.ndarray  # int64, distinct
    records: np.ndarray  # GT_DTYPE


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


def _top_per_image(dets: np.ndarray, limit: int) -> np.ndarray:
    """Ascending indices of each image's `limit` highest-scoring rows, ties by index."""
    order = np.lexsort((-dets["score"], dets["image_id"]))
    images = dets["image_id"][order]
    rank = np.arange(len(order)) - np.searchsorted(images, images)
    return np.sort(order[rank < limit])


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
            f"ar_area_bucket_{i + 1}": _recall(best[1], (lo < area) & (area <= hi))
            for i, (lo, hi) in enumerate(AR_AREA_BUCKETS)
        },
        **{f"ar_aspect_{r}_1": _recall(best[1], aspect == r) for r in AR_ASPECT_BUCKETS},
    }


@dataclass(frozen=True)
class EvalReport:
    """Every headline metric plus geometry breakdowns.

    Undefined metrics hold 0.0 and are listed by name in `undefined`.
    `af_grid` stores the low-IoU AP values so AF stays recomputable.
    """

    ap: float
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float
    ar_100: float
    ar_1000: float
    ar_area_buckets: tuple[float, float, float, float]
    ar_aspect_buckets: tuple[float, float, float, float]
    af: float
    af5: float
    af25: float
    af50: float
    af_small: float
    af_medium: float
    af_large: float
    af_grid: tuple[float, ...]
    undefined: tuple[str, ...]


# two areas near the float limit overflow in the union; that IoU is 0 (a
# finite intersection over infinity) and numpy's warning would only add output
@np.errstate(over="ignore")
def build_report(dets: np.ndarray, proposals: np.ndarray, gts: GroundTruthSet) -> EvalReport:
    """Assemble the full report from detections, raw proposals, and truth."""
    ids = np.concatenate([dets["image_id"], proposals["image_id"]])
    offenders = np.setdiff1d(ids, gts.image_ids)
    if offenders.size:
        raise ValueError(
            f"records reference image ids absent from the ground truth: {offenders.tolist()}"
        )

    dets = dets[_top_per_image(dets, MAX_DETS_PER_IMAGE)]
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
    undefined = tuple(name for name, value in metrics.items() if value is None)
    values = {name: 0.0 if value is None else value for name, value in metrics.items()}
    area = tuple(values.pop(f"ar_area_bucket_{i + 1}") for i in range(len(AR_AREA_BUCKETS)))
    aspect = tuple(values.pop(f"ar_aspect_{r}_1") for r in AR_ASPECT_BUCKETS)
    return EvalReport(
        **values,
        ar_area_buckets=area,
        ar_aspect_buckets=aspect,
        af_grid=tuple(0.0 if v is None else v for v in full[n:]),
        undefined=undefined,
    )


def render_tables(report: EvalReport) -> str:
    """Aligned plain-text tables in the AR and AF column orders."""

    def fmt(name: str, value: float) -> str:
        return "  n/a" if name in report.undefined else f"{100.0 * value:5.1f}"

    ap_head = ["AP", "AP50", "AP75", "AP_S", "AP_M", "AP_L"]
    ap_vals = [
        fmt("ap", report.ap),
        fmt("ap50", report.ap50),
        fmt("ap75", report.ap75),
        fmt("ap_small", report.ap_small),
        fmt("ap_medium", report.ap_medium),
        fmt("ap_large", report.ap_large),
    ]
    ar_head = ["AR", "AR_1+", "AR_2+", "AR_3+", "AR_4+", "AR_5:1", "AR_6:1", "AR_7:1", "AR_8:1"]
    ar_vals = [fmt("ar_1000", report.ar_1000)]
    ar_vals += [
        fmt(f"ar_area_bucket_{i + 1}", v) for i, v in enumerate(report.ar_area_buckets)
    ]
    ar_vals += [
        fmt(f"ar_aspect_{r}_1", v)
        for r, v in zip(AR_ASPECT_BUCKETS, report.ar_aspect_buckets)
    ]
    af_head = ["AF", "AF_5", "AF_25", "AF_50", "AF_S", "AF_M", "AF_L"]
    af_vals = [
        fmt("af", report.af),
        fmt("af5", report.af5),
        fmt("af25", report.af25),
        fmt("af50", report.af50),
        fmt("af_small", report.af_small),
        fmt("af_medium", report.af_medium),
        fmt("af_large", report.af_large),
    ]

    lines = []
    for head, vals in ((ap_head, ap_vals), (ar_head, ar_vals), (af_head, af_vals)):
        lines.append(" | ".join(f"{h:>7}" for h in head))
        lines.append(" | ".join(f"{v:>7}" for v in vals))
        lines.append("")
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    """The report's fields by name; json writes the tuples as arrays."""
    return asdict(report)


# -- parsing -------------------------------------------------------------------


def _columns(items: list, label: str, keys: tuple[str, ...]) -> list[list]:
    """Each key's value in every item, one list per key.

    An item that is not an object, or lacks a key, raises a ValueError
    naming `label` and its index.
    """
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise ValueError(f"{label} {i} is not an object")
        missing = [k for k in keys if k not in item]
        if missing:
            raise ValueError(f"{label} {i} has no {missing[0]!r} field")
    return [[item[k] for item in items] for k in keys]


def _ints(values: list, label: str, name: str) -> np.ndarray:
    """JSON integers as int64; a float, bool, string or too-large id raises naming its index."""
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
    for bad, why in (
        (~np.isfinite(boxes).all(axis=1), "which is not finite"),
        (~np.isfinite(_area(boxes)), "whose area is not finite"),
        ((boxes[:, 2] < boxes[:, 0]) | (boxes[:, 3] < boxes[:, 1]), "whose width or height is negative"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{label} {i} has bbox {json.dumps(bboxes[i])}, {why}")
    return boxes


def load_ground_truth(path) -> GroundTruthSet:
    """Load the ground-truth JSON: images, annotations, categories.

    The document must be an object whose three keys hold arrays of objects.
    Every id must be a JSON integer, every annotation bbox 4 finite numbers
    [x, y, w, h] with w, h >= 0, and every annotation's image_id among the
    images. Anything else raises a ValueError naming the file and, for an
    entry, its index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
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
    records = np.zeros(len(ann_ids), dtype=GT_DTYPE)
    records["image_id"] = _ints(images, "annotation", "image_id")
    records["class_id"] = _ints(classes, "annotation", "category_id")
    records["box"] = _boxes(bboxes, "annotation")
    (category_ids,) = _columns(doc["categories"], "category", ("id",))
    _ints(category_ids, "category", "id")
    if len(np.unique(image_ids)) != len(image_ids):
        raise ValueError("duplicate image ids")
    unknown = ~np.isin(records["image_id"], image_ids)
    if unknown.any():
        i = int(np.argmax(unknown))
        raise ValueError(
            f"annotation {i}: image_id {records['image_id'][i]} is not among the images"
        )
    return GroundTruthSet(image_ids=image_ids, records=records)


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
