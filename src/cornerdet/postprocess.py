"""Inference-side filtering and rescoring of classified proposals.

The stages, in pipeline order: keep proposals whose objectness clears a low
threshold (0.2 operating default), assign each survivor up to two class
labels (corner class and the class head's argmax), fuse corner and head
scores into one normalized confidence, decay overlapping same-class boxes
with Gaussian soft-NMS, and keep the top 100.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cornerdet.geometry import iou_matrix

SOFT_NMS_SIGMA = 0.5
SOFT_NMS_PRUNE = 1e-3
TOP_K = 100


def filter_by_objectness(proposals: np.ndarray, scores, threshold: float) -> np.ndarray:
    """Keep exactly the rows with score >= threshold, order preserved.

    The boundary is inclusive so that a deliberately low threshold lets
    borderline proposals survive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(proposals),):
        raise ValueError("scores must have one entry per proposal")
    return proposals[scores >= threshold]


def fuse_scores(s1, s2):
    """Fuse corner scores s1 and head scores s2 into confidences in [0, 1].

    Works elementwise on scalars or arrays. The raw product
    (s1 + 0.5) * (s2 + 0.5) lives in (0.25, 2.25); the affine map
    (raw - 0.25) / 2 rescales that attainable interval onto [0, 1] while
    preserving order.
    """
    for name, v in (("s1", s1), ("s2", s2)):
        v = np.asarray(v)
        bad = v[~((0.0 <= v) & (v <= 1.0))]
        if bad.size:
            raise ValueError(f"{name} must lie in [0, 1], got {bad.flat[0]}")
    raw = (s1 + 0.5) * (s2 + 0.5)
    return (raw - 0.25) / 2.0


def label_detections(survivors: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Turn survived proposals into detections, one or two per survivor.

    Candidate classes are the corner class and the head's argmax over the
    survivor's row of q. When they agree the survivor yields a single
    detection; otherwise two detections share the box, each fused with its
    own class probability. Survivors keep their order, and each gives its
    corner-class detection before its head-class one.
    """
    q = np.asarray(q, dtype=np.float64)
    head = q.argmax(axis=1)
    twice = head != survivors["class_id"]
    counts = 1 + twice
    src = np.repeat(np.arange(len(survivors)), counts)
    dets = survivors[src]
    dets["class_id"][np.cumsum(counts)[twice] - 1] = head[twice]
    dets["score"] = fuse_scores(dets["score"], q[src, dets["class_id"]])
    return dets


def soft_nms(
    dets: np.ndarray,
    sigma: float = SOFT_NMS_SIGMA,
    prune: float = SOFT_NMS_PRUNE,
) -> np.ndarray:
    """Gaussian soft-NMS, run independently per class.

    Repeatedly select the highest-scoring remaining box (ties broken by
    original index), then decay every other same-class score by
    exp(-iou^2 / sigma); boxes whose running score drops below `prune` are
    discarded. Scores never increase and geometry never changes. The result
    is ordered by descending final score, ties by original index.

    The overlaps come from geometry.iou_matrix, which keeps geometry.iou's
    operation order, and the decay uses math.exp only where the overlap is
    nonzero (elsewhere the factor is exactly 1), so the scores are
    bit-identical to the scalar algorithm.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    picked, kept = [], []
    for cls in np.unique(dets["class_id"]):
        idx = np.flatnonzero(dets["class_id"] == cls)
        scores, boxes = dets["score"][idx], dets["box"][idx]
        while idx.size:
            b = int(np.argmax(scores))  # first maximum: the lowest index
            picked.append(idx[b])
            kept.append(scores[b])
            ov = iou_matrix(boxes[b : b + 1], boxes)[0]
            ov[b] = 0.0  # the picked box leaves undecayed
            hit = np.flatnonzero(ov)
            ov = ov[hit]
            decay = map(math.exp, (-(ov * ov) / sigma).tolist())
            scores[hit] *= np.fromiter(decay, np.float64, len(hit))
            keep = scores >= prune
            keep[b] = False
            idx, scores, boxes = idx[keep], scores[keep], boxes[keep]
    picked, kept = np.array(picked, dtype=np.int64), np.array(kept, dtype=np.float64)
    order = np.lexsort((picked, -kept))
    out = dets[picked[order]]
    out["score"] = kept[order]
    return out


def top_k_truncate(dets: np.ndarray, k: int = TOP_K) -> np.ndarray:
    """The k highest-scoring detections, descending; ties by original index."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return dets[np.argsort(-dets["score"], kind="stable")[:k]]


def detection_records(image_id: int, dets: np.ndarray) -> list[dict]:
    """Interchange records with COCO-style [x, y, w, h] boxes, one per row.

    Serves both dumps: detections, and proposals scored by corner score.
    """
    x1, y1, x2, y2 = dets["box"].T
    bboxes = np.column_stack([x1, y1, x2 - x1, y2 - y1]).tolist()
    return [
        {"image_id": int(image_id), "category_id": c, "bbox": bbox, "score": s}
        for c, bbox, s in zip(dets["class_id"].tolist(), bboxes, dets["score"].tolist())
    ]


_RECORD_KEYS = frozenset(("bbox", "category_id", "image_id", "score"))

# One record as json.dump(records, fh, sort_keys=True, indent=1) lays it out,
# led by the ",\n" that json writes before every array item but the first.
_RECORD_LAYOUT = (
    ',\n {\n  "bbox": [\n   %s,\n   %s,\n   %s,\n   %s\n  ],\n'
    '  "category_id": %s,\n  "image_id": %s,\n  "score": %s\n }'
)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(v) -> str:
    """A bbox value or score as json spells it: int or float repr, or NaN/Infinity."""
    if type(v) is float:
        return repr(v) if math.isfinite(v) else _NON_FINITE[repr(v)]
    if type(v) is int:
        return repr(v)
    raise ValueError(f"{v!r} is not a number")


def _record_text(r) -> str:
    """One record in the dump layout; a ValueError says why a record has another shape."""
    if type(r) is not dict:
        raise ValueError(f"must be an object, got {type(r).__name__}")
    if r.keys() != _RECORD_KEYS:
        raise ValueError(f"keys must be {sorted(_RECORD_KEYS)}, got {list(r)}")
    bbox, category_id, image_id, score = r["bbox"], r["category_id"], r["image_id"], r["score"]
    if type(category_id) is not int:
        raise ValueError(f"category_id must be an int, got {category_id!r}")
    if type(image_id) is not int:
        raise ValueError(f"image_id must be an int, got {image_id!r}")
    if type(bbox) not in (list, tuple) or len(bbox) != 4:
        raise ValueError(f"bbox must be a list of 4 numbers, got {bbox!r}")
    x, y, w, h = bbox
    # %s spells a finite float as its repr, like json; a finite sum means
    # every term is finite, and an overflowing one only takes the slow path
    if not (
        type(x) is type(y) is type(w) is type(h) is type(score) is float
        and math.isfinite(x + y + w + h + score)
    ):
        x, y, w, h, score = map(_number, (x, y, w, h, score))
    return _RECORD_LAYOUT % (x, y, w, h, category_id, image_id, score)


def write_detections(path, records: list[dict]) -> None:
    """Write a detection dump: one JSON array of records.

    The bytes are those of json.dump(records, fh, sort_keys=True, indent=1)
    followed by a newline, written by a fixed layout for the one record shape
    detection_records builds: int image and category ids, a bbox of 4
    numbers and a numeric score. Any other record raises a ValueError
    naming its index before the file is opened.
    """
    texts = []
    for i, r in enumerate(records):
        try:
            texts.append(_record_text(r))
        except ValueError as exc:
            raise ValueError(f"record {i}: {exc}") from None
    if texts:
        texts[0] = "[" + texts[0][1:]
        texts.append("\n]\n")
    else:
        texts.append("[]\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(texts)


def read_detections(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except ValueError as exc:  # malformed JSON or UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(records, list):
        raise ValueError(f"{path}: detection dump must be a JSON array")
    return records
