"""Detection-quality metrics: AP, class-agnostic AR, and AF.

Protocol summary:

- AP per IoU threshold uses greedy one-to-one matching in score order,
  101-point interpolated precision on the recall grid 0, 0.01, ..., 1,
  computed per class and averaged over classes that have ground truth.
  The headline AP averages thresholds 0.50:0.05:0.95; at most 100
  detections per image enter the computation.
- AR is the fraction of (in-range) ground truths covered by at least one
  proposal at IoU >= t, averaged over the same ten thresholds. Class
  labels are ignored in class-agnostic mode. Area buckets follow
  (96^2, 200^2], (200^2, 300^2], (300^2, 400^2], (400^2, inf); aspect
  buckets r:1 collect ground truths whose max(w/h, h/w) rounds to r.
- AF = 1 - mean AP over the low-IoU grid 0.05:0.05:0.50; single-threshold
  and scale-restricted variants replace the grid accordingly. Scale
  restriction keeps only detections and ground truths whose box area falls
  in the scale range (small < 32^2, medium in [32^2, 96^2), large >= 96^2).

Metrics with no eligible ground truth are undefined: they are excluded
from averages, reported as 0.0, and named in ``EvalReport.undefined``.
All accumulation runs in float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cornerdet.geometry import BBox, InvariantError, iou

AP_IOU_GRID = tuple((10 + i) / 20 for i in range(10))  # 0.50 .. 0.95
AF_IOU_GRID = tuple((i + 1) / 20 for i in range(10))  # 0.05 .. 0.50
RECALL_GRID = tuple(j / 100 for j in range(101))

MAX_DETS_PER_IMAGE = 100

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


@dataclass(frozen=True)
class DetRecord:
    """One detection (or proposal) attached to an image."""

    image_id: int
    class_id: int
    box: BBox
    score: float


@dataclass(frozen=True)
class GtRecord:
    """One ground-truth annotation."""

    ann_id: int
    image_id: int
    class_id: int
    box: BBox


@dataclass(frozen=True)
class GroundTruthSet:
    image_ids: tuple[int, ...]
    records: tuple[GtRecord, ...]
    category_ids: tuple[int, ...]


@dataclass(frozen=True)
class MatchResult:
    """Greedy one-to-one matching outcome for one image and class."""

    det_matches: tuple  # per detection: matched gt index or None
    gt_covered: tuple  # per ground truth: covered flag

    def __post_init__(self):
        matched = [m for m in self.det_matches if m is not None]
        if len(matched) != len(set(matched)):
            raise InvariantError("matching is not one-to-one")


def match_greedy(det_boxes: Sequence[BBox], gt_boxes: Sequence[BBox], iou_thr: float) -> MatchResult:
    """Match score-sorted detections to ground truths greedily.

    Each detection takes the still-unmatched ground truth of highest IoU,
    provided that IoU reaches `iou_thr`; equal IoUs resolve to the lowest
    ground-truth index. Detections must already be sorted by descending
    score.
    """
    covered = [False] * len(gt_boxes)
    matches = []
    for det in det_boxes:
        best_j = None
        best_iou = 0.0
        for j, gt in enumerate(gt_boxes):
            if covered[j]:
                continue
            v = iou(det, gt)
            if v >= iou_thr and v > best_iou:
                best_iou = v
                best_j = j
        if best_j is not None:
            covered[best_j] = True
        matches.append(best_j)
    return MatchResult(det_matches=tuple(matches), gt_covered=tuple(covered))


def _interpolated_ap(tp_flags: list[bool], n_gt: int) -> float:
    """101-point interpolated AP from ordered true-positive flags."""
    if n_gt <= 0:
        raise ValueError("n_gt must be positive")
    if not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, np.asarray(RECALL_GRID), side="left")
    sampled = np.where(idx < len(recall), envelope[np.minimum(idx, len(recall) - 1)], 0.0)
    return float(np.mean(sampled))


def _truncate_per_image(dets: Sequence[DetRecord], limit: int) -> list[DetRecord]:
    order = sorted(range(len(dets)), key=lambda i: (dets[i].image_id, -dets[i].score, i))
    kept = []
    count: dict[int, int] = {}
    for i in order:
        c = count.get(dets[i].image_id, 0)
        if c < limit:
            kept.append(i)
            count[dets[i].image_id] = c + 1
    kept.sort()
    return [dets[i] for i in kept]


def _class_ap(dets: Sequence[DetRecord], gts: Sequence[GtRecord], iou_thr: float) -> float:
    """AP for one class: pooled score-ordered matching across images."""
    n_gt = len(gts)
    if n_gt == 0:
        raise ValueError("class AP needs at least one ground truth")
    gt_by_image: dict[int, list[GtRecord]] = {}
    for g in gts:
        gt_by_image.setdefault(g.image_id, []).append(g)

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].image_id, i))
    covered: dict[int, list[bool]] = {
        img: [False] * len(lst) for img, lst in gt_by_image.items()
    }
    tp_flags = []
    for i in order:
        det = dets[i]
        img_gts = gt_by_image.get(det.image_id, [])
        flags = covered.get(det.image_id, [])
        best_j = None
        best_iou = 0.0
        for j, g in enumerate(img_gts):
            if flags[j]:
                continue
            v = iou(det.box, g.box)
            if v >= iou_thr and v > best_iou:
                best_iou = v
                best_j = j
        if best_j is not None:
            if flags[best_j]:
                raise InvariantError("ground truth matched twice")
            flags[best_j] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    return _interpolated_ap(tp_flags, n_gt)


def average_precision(
    dets: Sequence[DetRecord], gts: Sequence[GtRecord], iou_thr: float
) -> float:
    """Mean per-class 101-point AP at one IoU threshold.

    Classes with no ground truth are excluded from the mean. With no ground
    truth at all the metric is undefined and reported as 0.0; callers that
    need the distinction should check the ground-truth set first.
    """
    classes = sorted({g.class_id for g in gts})
    if not classes:
        return 0.0
    aps = []
    for c in classes:
        c_dets = [d for d in dets if d.class_id == c]
        c_gts = [g for g in gts if g.class_id == c]
        aps.append(_class_ap(c_dets, c_gts, iou_thr))
    return math.fsum(aps) / len(aps)


def _restrict_scale(
    dets: Sequence[DetRecord], gts: Sequence[GtRecord], scale: str
) -> tuple[list[DetRecord], list[GtRecord]]:
    lo, hi = SCALE_RANGES[scale]
    return (
        [d for d in dets if lo <= d.box.area < hi],
        [g for g in gts if lo <= g.box.area < hi],
    )


def _aspect_bucket(box: BBox) -> int | None:
    if box.width <= 0.0 or box.height <= 0.0:
        return None
    return round(max(box.width / box.height, box.height / box.width))


def average_recall(
    proposals: Sequence[DetRecord],
    gts: Sequence[GtRecord],
    max_dets: int = 1000,
    class_agnostic: bool = True,
    area_range: tuple[float, float] | None = None,
    aspect_bucket: int | None = None,
) -> float | None:
    """Average recall over the ten IoU thresholds 0.50:0.05:0.95.

    A ground truth counts as covered at threshold t when at least one of
    its image's (top `max_dets` by score) proposals overlaps it with
    IoU >= t; in class-agnostic mode proposal classes are ignored.
    `area_range` restricts ground truths to lo < area <= hi and
    `aspect_bucket` to boxes whose rounded max aspect ratio equals the
    bucket. Returns None when no ground truth is in range.
    """
    eligible = list(gts)
    if area_range is not None:
        lo, hi = area_range
        eligible = [g for g in eligible if lo < g.box.area <= hi]
    if aspect_bucket is not None:
        eligible = [g for g in eligible if _aspect_bucket(g.box) == aspect_bucket]
    if not eligible:
        return None

    props_by_image: dict[int, list[DetRecord]] = {}
    for p in proposals:
        props_by_image.setdefault(p.image_id, []).append(p)
    for img, plist in props_by_image.items():
        order = sorted(range(len(plist)), key=lambda i: (-plist[i].score, i))
        props_by_image[img] = [plist[i] for i in order[:max_dets]]

    best = []
    for g in eligible:
        candidates = props_by_image.get(g.image_id, [])
        if not class_agnostic:
            candidates = [p for p in candidates if p.class_id == g.class_id]
        best.append(max((iou(p.box, g.box) for p in candidates), default=0.0))

    recalls = []
    for t in AP_IOU_GRID:
        covered = sum(1 for b in best if b >= t)
        recalls.append(covered / len(eligible))
    return math.fsum(recalls) / len(recalls)


@dataclass(frozen=True)
class FalseDiscovery:
    """AF components; None marks undefined scale variants."""

    af: float
    af5: float
    af25: float
    af50: float
    af_small: float | None
    af_medium: float | None
    af_large: float | None
    ap_grid: tuple[float, ...]


def average_false_discovery(dets: Sequence[DetRecord], gts: Sequence[GtRecord]) -> FalseDiscovery:
    """AF = 1 - mean AP over the low-IoU grid, plus threshold/scale variants."""
    grid = tuple(average_precision(dets, gts, t) for t in AF_IOU_GRID)
    af = 1.0 - math.fsum(grid) / len(grid)

    scale_values = {}
    for scale in ("small", "medium", "large"):
        s_dets, s_gts = _restrict_scale(dets, gts, scale)
        if not s_gts:
            scale_values[scale] = None
            continue
        s_grid = [average_precision(s_dets, s_gts, t) for t in AF_IOU_GRID]
        scale_values[scale] = 1.0 - math.fsum(s_grid) / len(s_grid)

    return FalseDiscovery(
        af=af,
        af5=1.0 - grid[0],
        af25=1.0 - grid[4],
        af50=1.0 - grid[9],
        af_small=scale_values["small"],
        af_medium=scale_values["medium"],
        af_large=scale_values["large"],
        ap_grid=grid,
    )


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


def _fill(value: float | None, name: str, undefined: list[str]) -> float:
    if value is None:
        undefined.append(name)
        return 0.0
    return value


def build_report(
    dets: Sequence[DetRecord],
    proposals: Sequence[DetRecord],
    gts: GroundTruthSet,
) -> EvalReport:
    """Assemble the full report from detections, raw proposals, and truth."""
    known = set(gts.image_ids)
    offenders = sorted(
        {d.image_id for d in dets if d.image_id not in known}
        | {p.image_id for p in proposals if p.image_id not in known}
    )
    if offenders:
        raise ValueError(
            f"records reference image ids absent from the ground truth: {offenders}"
        )

    dets = _truncate_per_image(list(dets), MAX_DETS_PER_IMAGE)
    gt_records = list(gts.records)
    undefined: list[str] = []

    if gt_records:
        ap_grid = [average_precision(dets, gt_records, t) for t in AP_IOU_GRID]
        ap = math.fsum(ap_grid) / len(ap_grid)
        ap50 = ap_grid[0]
        ap75 = ap_grid[5]
    else:
        undefined.extend(["ap", "ap50", "ap75"])
        ap = ap50 = ap75 = 0.0

    scale_ap = {}
    for scale in ("small", "medium", "large"):
        s_dets, s_gts = _restrict_scale(dets, gt_records, scale)
        if not s_gts:
            scale_ap[scale] = None
            continue
        grid = [average_precision(s_dets, s_gts, t) for t in AP_IOU_GRID]
        scale_ap[scale] = math.fsum(grid) / len(grid)

    ar_100 = average_recall(proposals, gt_records, max_dets=100) if gt_records else None
    ar_1000 = average_recall(proposals, gt_records, max_dets=1000) if gt_records else None
    area_buckets = tuple(
        average_recall(proposals, gt_records, max_dets=1000, area_range=rng)
        for rng in AR_AREA_BUCKETS
    )
    aspect_buckets = tuple(
        average_recall(proposals, gt_records, max_dets=1000, aspect_bucket=r)
        for r in AR_ASPECT_BUCKETS
    )

    if gt_records:
        fd = average_false_discovery(dets, gt_records)
        af, af5, af25, af50 = fd.af, fd.af5, fd.af25, fd.af50
        af_scales = {"small": fd.af_small, "medium": fd.af_medium, "large": fd.af_large}
        af_grid = fd.ap_grid
    else:
        undefined.extend(["af", "af5", "af25", "af50"])
        af = af5 = af25 = af50 = 0.0
        af_scales = {"small": None, "medium": None, "large": None}
        af_grid = tuple(0.0 for _ in AF_IOU_GRID)

    return EvalReport(
        ap=ap,
        ap50=ap50,
        ap75=ap75,
        ap_small=_fill(scale_ap["small"], "ap_small", undefined),
        ap_medium=_fill(scale_ap["medium"], "ap_medium", undefined),
        ap_large=_fill(scale_ap["large"], "ap_large", undefined),
        ar_100=_fill(ar_100, "ar_100", undefined),
        ar_1000=_fill(ar_1000, "ar_1000", undefined),
        ar_area_buckets=tuple(
            _fill(v, f"ar_area_bucket_{i + 1}", undefined) for i, v in enumerate(area_buckets)
        ),
        ar_aspect_buckets=tuple(
            _fill(v, f"ar_aspect_{r}_1", undefined)
            for r, v in zip(AR_ASPECT_BUCKETS, aspect_buckets)
        ),
        af=af,
        af5=af5,
        af25=af25,
        af50=af50,
        af_small=_fill(af_scales["small"], "af_small", undefined),
        af_medium=_fill(af_scales["medium"], "af_medium", undefined),
        af_large=_fill(af_scales["large"], "af_large", undefined),
        af_grid=af_grid,
        undefined=tuple(undefined),
    )


def render_tables(report: EvalReport) -> str:
    """Aligned plain-text tables in the AR and AF column orders."""

    def fmt(name: str, value: float) -> str:
        return "  n/a" if name in report.undefined else f"{100.0 * value:5.1f}"

    ap_head = ["AP", "AP50", "AP75", "AP_S", "AP_M", "AP_L"]
    ap_vals = [
        f"{100.0 * report.ap:5.1f}" if "ap" not in report.undefined else "  n/a",
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
    return {
        "ap": report.ap,
        "ap50": report.ap50,
        "ap75": report.ap75,
        "ap_small": report.ap_small,
        "ap_medium": report.ap_medium,
        "ap_large": report.ap_large,
        "ar_100": report.ar_100,
        "ar_1000": report.ar_1000,
        "ar_area_buckets": list(report.ar_area_buckets),
        "ar_aspect_buckets": list(report.ar_aspect_buckets),
        "af": report.af,
        "af5": report.af5,
        "af25": report.af25,
        "af50": report.af50,
        "af_small": report.af_small,
        "af_medium": report.af_medium,
        "af_large": report.af_large,
        "af_grid": list(report.af_grid),
        "undefined": list(report.undefined),
    }


def load_ground_truth(path) -> GroundTruthSet:
    """Load the ground-truth JSON: images, annotations, categories."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("images", "annotations", "categories"):
        if key not in doc:
            raise ValueError(f"{path}: ground-truth file is missing {key!r}")
    image_ids = tuple(int(img["id"]) for img in doc["images"])
    if len(set(image_ids)) != len(image_ids):
        raise ValueError(f"{path}: duplicate image ids")
    records = []
    for ann in doc["annotations"]:
        x, y, w, h = (float(v) for v in ann["bbox"])
        records.append(
            GtRecord(
                ann_id=int(ann["id"]),
                image_id=int(ann["image_id"]),
                class_id=int(ann["category_id"]),
                box=BBox(x, y, x + w, y + h),
            )
        )
    categories = tuple(int(c["id"]) for c in doc["categories"])
    return GroundTruthSet(image_ids=image_ids, records=tuple(records), category_ids=categories)


def records_to_dets(records: list[dict]) -> list[DetRecord]:
    """Convert interchange records ({image_id, category_id, bbox, score}).

    Every field is required and the score must be a finite number; a record
    that breaks this raises a ValueError naming its index.
    """
    out = []
    for i, r in enumerate(records):
        try:
            x, y, w, h = (float(v) for v in r["bbox"])
            det = DetRecord(
                image_id=int(r["image_id"]),
                class_id=int(r["category_id"]),
                box=BBox(x, y, x + w, y + h),
                score=float(r["score"]),
            )
        except KeyError as exc:
            raise ValueError(f"record {i} has no {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"record {i}: {exc}") from None
        if not math.isfinite(det.score):
            raise ValueError(f"record {i} has score {det.score}, which is not finite")
        out.append(det)
    return out
