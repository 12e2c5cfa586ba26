"""Inference-side filtering and rescoring of classified proposals.

The stages, in pipeline order: keep proposals whose objectness clears a low
threshold (0.2 operating default), assign each survivor up to two class
labels (corner class and the class head's argmax), fuse corner and head
scores into one normalized confidence, and decay overlapping same-class
boxes with Gaussian soft-NMS at SOFT_NMS_SIGMA and SOFT_NMS_PRUNE, which
merges the classes' pick streams in final score order and stops after the
top TOP_K (100). Every stage takes and returns geometry.DET_DTYPE rows, and
write_detections dumps them, a piece of records at a time.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math

import numpy as np

from cornerdet.geometry import DET_DTYPE

OBJECTNESS_THRESHOLD = 0.2
SOFT_NMS_SIGMA = 0.5
SOFT_NMS_PRUNE = 1e-3
TOP_K = 100
# records joined into one string per write, so that no dump is one multi-MB string
DUMP_PIECE = 1024


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


# an overflow is the limit the scalar algorithm reaches too: an infinite
# area gives an overlap of 0, as in iou_matrix
@np.errstate(over="ignore", invalid="ignore")
def soft_nms(dets: np.ndarray) -> np.ndarray:
    """Gaussian soft-NMS, run independently per class, keeping the first TOP_K picks.

    Within each class, repeatedly select the highest-scoring remaining box
    (ties broken by original index), then decay every other same-class
    score by exp(-iou^2 / SOFT_NMS_SIGMA); boxes whose running score drops
    below SOFT_NMS_PRUNE are discarded. Scores never increase and geometry
    never changes. The result is ordered by descending final score, ties by
    original index, and holds at most TOP_K rows: the first TOP_K rows of
    the uncut result, so the TOP_K highest final scores. The three
    operating points are this module's constants, read at call time.

    Decay never raises a score, so a class's picks come out in that order,
    and each class's next pick, the argmax of its scores, is known before it
    decays anything. Each class is therefore a generator of its picks, keyed
    by (-score, original index), that decays the rest of its class only when
    resumed for the next pick; heapq.merge of those streams yields the final
    order, and islice stops it after TOP_K picks, so no class decays for a
    pick past the cut. A NaN score, which the merge cannot order, raises.

    A pick is one argmax over the class's alive rows, a yield, a decay of
    the rows still alive and a prune. The class's row count against TOP_K
    decides only where the picked row's factors come from. A class of at
    most TOP_K rows computes each intersecting pair's factor once into an
    n x n table; a longer class computes the overlaps of the picked box with
    the rows still alive, so a row pruned early never costs a factor.

    The overlaps follow geometry.iou_matrix's operations on arrays of each
    class's corners and areas, computed once, and both sources take the
    same operations in the same order, each symmetric in a pair bit for bit;
    the decay uses math.exp only where two boxes intersect (elsewhere the
    factor is exactly 1), so the scores are bit-identical to the scalar
    algorithm.
    """
    if np.isnan(dets["score"]).any():
        raise ValueError("scores must not be NaN")

    def factors(col, b, other, wh):
        """exp(-iou^2 / SOFT_NMS_SIGMA) of boxes b against `other`, given their (iw, ih) rows."""
        iw, ih = wh
        inter = iw * ih
        union = col[4, b] + col[4, other]
        union -= inter
        # iou_matrix's overlap is 0 where the union is not positive
        ov = np.divide(inter, union, out=np.zeros(inter.size), where=union > 0.0)
        ov *= ov
        ov /= -SOFT_NMS_SIGMA  # -(ov * ov) / SOFT_NMS_SIGMA, bit for bit
        return np.fromiter(map(math.exp, ov.tolist()), np.float64, ov.size)

    def factor_table(col):
        """n x n decay factors of a class, each intersecting pair's once from the upper triangle.

        Every operation is symmetric in the pair bit for bit, and a miss
        keeps the factor 1, as the on-demand source leaves its score alone.
        """
        wh = np.minimum(col[2:4, :, None], col[2:4, None])
        wh -= np.maximum(col[:2, :, None], col[:2, None])
        i, j = (np.minimum(wh[0], wh[1]) > 0.0).nonzero()
        upper = i < j
        i, j = i[upper], j[upper]
        table = np.ones((col.shape[1],) * 2)
        if i.size:
            table[i, j] = table[j, i] = factors(col, i, j, wh[:, i, j])
        return table

    def picks(col, tabled):
        """(-score, original index) of each pick of a class, in pick order."""
        n = col.shape[1]
        table = factor_table(col) if tabled else None
        score = col[5].copy()
        alive = np.ones(n, dtype=bool)
        for _ in range(n):  # each pick retires at least its own row
            # dead rows read -inf, and a live one, after the first pick, is
            # >= SOFT_NMS_PRUNE: the argmax is dead only when every row is
            b = int(np.where(alive, score, -np.inf).argmax())
            if not alive[b]:
                return
            yield -float(score[b]), int(col[6, b])
            alive[b] = False  # the picked box leaves undecayed
            if tabled:
                score *= table[b]
            else:
                wh = np.minimum(col[2:4], col[2:4, b, None])
                wh -= np.maximum(col[:2], col[:2, b, None])
                hit = np.minimum(wh[0], wh[1]) > 0.0
                hit &= alive
                hit = hit.nonzero()[0]
                score[hit] *= factors(col, b, hit, wh.take(hit, axis=1))
            alive &= score >= SOFT_NMS_PRUNE

    # one column per box, grouped by class and each class in ascending
    # original index; rows x1, y1, x2, y2, area, running score and original
    # index (exact in float64)
    order = np.argsort(dets["class_id"], kind="stable")
    cols = np.empty((7, len(dets)))
    cols[:4] = dets["box"][order].T
    cols[4] = (cols[2] - cols[0]) * (cols[3] - cols[1])
    cols[5] = dets["score"][order]
    cols[6] = order
    cls = dets["class_id"][order]
    edges = (np.flatnonzero(cls[1:] != cls[:-1]) + 1).tolist()
    # a class of at most TOP_K rows takes its factors from a table of at
    # most TOP_K x TOP_K; a longer one may need only a few of its pairs
    streams = [
        picks(cols[:, lo:hi], hi - lo <= TOP_K)
        for lo, hi in zip([0, *edges], [*edges, len(dets)])
    ]
    picked = list(itertools.islice(heapq.merge(*streams), TOP_K))
    out = dets[np.array([i for _, i in picked], dtype=np.int64)]
    out["score"] = [-neg_score for neg_score, _ in picked]
    return out


# json.dump(records, fh, sort_keys=True, indent=1) lays a record out as these
# separators around its bbox numbers, category_id, image_id and score, led by
# the ",\n" json writes before every array item but the first.
_LAYOUT = (
    ',\n {\n  "bbox": [\n   ', None, ",\n   ", None, ",\n   ", None, ",\n   ", None,
    '\n  ],\n  "category_id": ', None, ',\n  "image_id": ', None, ',\n  "score": ', None, "\n }",
)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _spelled(column: np.ndarray) -> list[str]:
    """A column's numbers as json spells them: int or float repr, or NaN/Infinity.

    Each distinct bit pattern is spelled once, since the boxes of the pairs
    that share a corner share its coordinates; bits, unlike values, tell
    -0.0 from 0.0.
    """
    distinct, where = np.unique(column.view(np.int64), return_inverse=True)
    values = distinct.view(column.dtype)
    text = np.array(list(map(repr, values.tolist())), dtype=object)
    bad = ~np.isfinite(values)
    text[bad] = [_NON_FINITE[t] for t in text[bad]]
    return text[where].tolist()


# the dump spells NaN and Infinity itself, so a width or height that
# overflows, or is NaN, needs no numpy warning
@np.errstate(over="ignore", invalid="ignore")
def write_detections(path, records: np.ndarray) -> None:
    """Write a dump of DET_DTYPE rows as one JSON array of objects.

    The bytes are those of json.dump(dicts, fh, sort_keys=True, indent=1)
    followed by a newline, where each dict holds a row's "image_id",
    "category_id" (class_id), "bbox" ([x1, y1, x2 - x1, y2 - y1] of its box)
    and "score". Each column is spelled once over the whole dump, and the
    records are joined and written DUMP_PIECE at a time. Anything but a 1-D
    DET_DTYPE array raises a ValueError before the file is opened.
    """
    want = "records must be a 1-D DET_DTYPE array"
    if not isinstance(records, np.ndarray):
        raise ValueError(f"{want}, got {type(records).__name__}")
    if records.dtype != DET_DTYPE or records.ndim != 1:
        raise ValueError(f"{want}, got a {records.ndim}-D array of {records.dtype}")
    stride = len(_LAYOUT)
    parts = list(_LAYOUT) * len(records)
    x1, y1, x2, y2 = records["box"].T
    columns = (x1, y1, x2 - x1, y2 - y1, records["class_id"], records["image_id"], records["score"])
    for at, column in zip(range(1, stride, 2), columns):
        parts[at::stride] = _spelled(column)
    if parts:
        parts[0] = "[" + parts[0][1:]
        parts.append("\n]\n")
    else:
        parts = ["[]\n"]
    piece = DUMP_PIECE * stride
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(parts), piece):
            fh.write("".join(parts[lo : lo + piece]))


def read_detections(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except ValueError as exc:  # malformed JSON or UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(records, list):
        raise ValueError(f"{path}: detection dump must be a JSON array")
    return records
