"""The two box-row types and overlap geometry.

Boxes use continuous corner coordinates (x1, y1, x2, y2) in image pixels;
width is x2 - x1 with no "+1" pixel convention, which matches the sub-pixel
corner positions produced by offset decoding.

Every box row of the package is one of two structured dtypes defined here:
TRUTH_DTYPE for ground truth and DET_DTYPE, the same fields plus a score,
for proposals and detections. A row of a single image carries image_id 0
until run_corpus or write_corpus assigns the manifest id.
"""

from __future__ import annotations

import numpy as np

# ground-truth rows: image, class in [0, C) and an x1y1x2y2 box
TRUTH_DTYPE = np.dtype([("image_id", np.int64), ("class_id", np.int64), ("box", np.float64, (4,))])
# proposals (scored by mean corner score) and detections (by fused score),
# from pair enumeration through soft-NMS and the dumps to the evaluator
DET_DTYPE = np.dtype(TRUTH_DTYPE.descr + [("score", np.float64)])


class InvariantError(RuntimeError):
    """An internal consistency check failed."""


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every x1y1x2y2 row of `a` (N, 4) with every row of `b` (M, 4), as (N, M).

    Each entry follows the operation order of the scalar reference
    ``tests/oracles.py::iou_xyxy``, so it equals that of the two boxes bit
    for bit, except where areas overflow to infinity and the union is NaN:
    the reference then gives NaN, this 0.0. Pairs with empty intersection
    give 0.0, as do zero-area boxes (the 0/0 case is defined to be 0).
    """
    ax1, ay1, ax2, ay2 = a[:, 0, None], a[:, 1, None], a[:, 2, None], a[:, 3, None]
    bx1, by1, bx2, by2 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    hit = (np.minimum(iw, ih) > 0.0) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros(inter.shape), where=hit)
