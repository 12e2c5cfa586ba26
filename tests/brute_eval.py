"""Brute-force detection-metrics evaluator for cross-checking evaluation.build_report.

Re-implements the documented evaluation protocol with plain dictionaries,
lists, and quadratic scans; shares nothing with cornerdet.evaluation except
the record shapes. Detections, proposals, and ground truths arrive as
dicts: {"image_id", "class_id", "box": (x1, y1, x2, y2), "score"}.
"""

from __future__ import annotations

import math

AP_GRID = [(10 + i) / 20 for i in range(10)]
AF_GRID = [(i + 1) / 20 for i in range(10)]


def _iou(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    ua = (a[2] - a[0]) * (a[3] - a[1])
    ub = (b[2] - b[0]) * (b[3] - b[1])
    union = ua + ub - inter
    return inter / union if union > 0 else 0.0


def _area(box):
    return (box[2] - box[0]) * (box[3] - box[1])


def _truncate(dets, limit=100):
    kept = []
    for img in sorted({d["image_id"] for d in dets}):
        img_dets = [(i, d) for i, d in enumerate(dets) if d["image_id"] == img]
        img_dets.sort(key=lambda t: (-t[1]["score"], t[0]))
        kept.extend(i for i, _ in img_dets[:limit])
    kept.sort()
    return [dets[i] for i in kept]


def _class_ap(dets, gts, thr):
    n_gt = len(gts)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i]["score"], dets[i]["image_id"], i))
    taken = set()
    points = []
    tp = fp = 0
    for idx in order:
        det = dets[idx]
        best_j, best_iou = None, 0.0
        for j, g in enumerate(gts):
            if j in taken or g["image_id"] != det["image_id"]:
                continue
            v = _iou(det["box"], g["box"])
            if v >= thr and v > best_iou:
                best_iou, best_j = v, j
        if best_j is not None:
            taken.add(best_j)
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for k in range(101):
        r = k / 100
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / 101


def brute_average_precision(dets, gts, thr):
    classes = sorted({g["class_id"] for g in gts})
    if not classes:
        return 0.0
    aps = []
    for c in classes:
        aps.append(
            _class_ap(
                [d for d in dets if d["class_id"] == c],
                [g for g in gts if g["class_id"] == c],
                thr,
            )
        )
    return sum(aps) / len(aps)


def _scale_filter(records, lo, hi):
    return [r for r in records if lo <= _area(r["box"]) < hi]


def brute_average_recall(proposals, gts, max_dets, area_range=None, aspect_bucket=None):
    eligible = list(gts)
    if area_range is not None:
        lo, hi = area_range
        eligible = [g for g in eligible if lo < _area(g["box"]) <= hi]
    if aspect_bucket is not None:
        kept = []
        for g in eligible:
            w = g["box"][2] - g["box"][0]
            h = g["box"][3] - g["box"][1]
            if w > 0 and h > 0 and round(max(w / h, h / w)) == aspect_bucket:
                kept.append(g)
        eligible = kept
    if not eligible:
        return None

    by_image = {}
    for p in proposals:
        by_image.setdefault(p["image_id"], []).append(p)
    for img, plist in by_image.items():
        order = sorted(range(len(plist)), key=lambda i: (-plist[i]["score"], i))
        by_image[img] = [plist[i] for i in order[:max_dets]]

    total = 0.0
    for t in AP_GRID:
        covered = 0
        for g in eligible:
            best = 0.0
            for p in by_image.get(g["image_id"], []):
                v = _iou(p["box"], g["box"])
                if v > best:
                    best = v
            if best >= t:
                covered += 1
        total += covered / len(eligible)
    return total / len(AP_GRID)


SCALES = {
    "small": (0.0, 32.0**2),
    "medium": (32.0**2, 96.0**2),
    "large": (96.0**2, math.inf),
}
AREA_BUCKETS = [
    (96.0**2, 200.0**2),
    (200.0**2, 300.0**2),
    (300.0**2, 400.0**2),
    (400.0**2, math.inf),
]


def brute_report(dets, proposals, gts):
    """Every key of build_report's document; undefined values become 0.0."""
    dets = _truncate(dets)
    undefined = []

    def metric(name, value):
        if value is None:
            undefined.append(name)
            return 0.0
        return value

    if gts:
        ap_grid = [brute_average_precision(dets, gts, t) for t in AP_GRID]
        ap, ap50, ap75 = sum(ap_grid) / 10, ap_grid[0], ap_grid[5]
    else:
        undefined.extend(["ap", "ap50", "ap75"])
        ap = ap50 = ap75 = 0.0

    scale_ap = {}
    for name, (lo, hi) in SCALES.items():
        s_gts = _scale_filter(gts, lo, hi)
        if not s_gts:
            scale_ap[name] = None
            continue
        s_dets = _scale_filter(dets, lo, hi)
        scale_ap[name] = sum(brute_average_precision(s_dets, s_gts, t) for t in AP_GRID) / 10

    out = {
        "ap": ap,
        "ap50": ap50,
        "ap75": ap75,
        "ap_small": metric("ap_small", scale_ap["small"]),
        "ap_medium": metric("ap_medium", scale_ap["medium"]),
        "ap_large": metric("ap_large", scale_ap["large"]),
        "ar_100": metric(
            "ar_100", brute_average_recall(proposals, gts, 100) if gts else None
        ),
        "ar_1000": metric(
            "ar_1000", brute_average_recall(proposals, gts, 1000) if gts else None
        ),
        "ar_area_buckets": [
            metric(f"ar_area_bucket_{i + 1}", brute_average_recall(proposals, gts, 1000, area_range=rng))
            for i, rng in enumerate(AREA_BUCKETS)
        ],
        "ar_aspect_buckets": [
            metric(f"ar_aspect_{r}_1", brute_average_recall(proposals, gts, 1000, aspect_bucket=r))
            for r in (5, 6, 7, 8)
        ],
    }

    if gts:
        af_grid = [brute_average_precision(dets, gts, t) for t in AF_GRID]
        out["af"] = 1.0 - sum(af_grid) / 10
        out["af5"] = 1.0 - af_grid[0]
        out["af25"] = 1.0 - af_grid[4]
        out["af50"] = 1.0 - af_grid[9]
        out["af_grid"] = af_grid
    else:
        undefined.extend(["af", "af5", "af25", "af50"])
        out["af"] = out["af5"] = out["af25"] = out["af50"] = 0.0
        out["af_grid"] = [0.0] * 10

    for name, (lo, hi) in SCALES.items():
        s_gts = _scale_filter(gts, lo, hi)
        if not s_gts:
            out[f"af_{name}"] = metric(f"af_{name}", None)
            continue
        s_dets = _scale_filter(dets, lo, hi)
        grid = [brute_average_precision(s_dets, s_gts, t) for t in AF_GRID]
        out[f"af_{name}"] = 1.0 - sum(grid) / 10

    out["undefined"] = undefined
    return out
