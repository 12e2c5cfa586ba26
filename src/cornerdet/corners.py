"""Corner-keypoint decoding and training-target rendering.

Heatmaps are per-class probability maps at a stride-4-reduced resolution:
``tl_heat`` / ``br_heat`` have shape (C, H, W), and the shared offset maps
``tl_off`` / ``br_off`` have shape (2, H, W) holding the x-offset plane
first, then the y-offset plane, with fractional values in [0, 1).

A corner at heatmap cell (row, col) with offsets (ox, oy) sits at image
position x = (col + ox) * STRIDE, y = (row + oy) * STRIDE.
"""

from __future__ import annotations

import math

import numpy as np

STRIDE = 4
# least IoU a Gaussian target's radius keeps between a box and its displaced corners
MIN_OVERLAP = 0.7

# decoded corners, one row each: class, sub-pixel image position and score
KEYPOINT_DTYPE = np.dtype(
    [("class_id", np.int64), ("x", np.float64), ("y", np.float64), ("score", np.float64)]
)


def local_max_suppress(heat: np.ndarray) -> np.ndarray:
    """Zero every cell that is not a maximum of its 3x3 patch.

    Ties keep the value, so plateau cells all survive. The neighborhood is
    clipped at map borders.
    """
    heat = np.asarray(heat, dtype=np.float32)
    # separable max: over each row's three cells, then over each column's;
    # max is exact, so this equals the max over the full 3x3 patch; shifted
    # slices stop at the border, so no padded copy is needed
    row_max = heat.copy()
    np.maximum(row_max[:, :, 1:], heat[:, :, :-1], out=row_max[:, :, 1:])
    np.maximum(row_max[:, :, :-1], heat[:, :, 1:], out=row_max[:, :, :-1])
    neighborhood_max = row_max.copy()
    np.maximum(neighborhood_max[:, 1:], row_max[:, :-1], out=neighborhood_max[:, 1:])
    np.maximum(neighborhood_max[:, :-1], row_max[:, 1:], out=neighborhood_max[:, :-1])
    # keep a maximum's bits and zero the rest: an integer multiply by the
    # mask gives np.where's bytes at about half its cost on noisy maps
    return (heat.view(np.uint32) * (heat == neighborhood_max)).view(np.float32)


def _first_ties(flat: np.ndarray, kth, need: int, every: bool) -> np.ndarray:
    """The first `need` indices of `flat` whose value equals `kth`, in index order.

    When `every` tied cell is needed, they are listed from the whole map.
    Otherwise the scan doubles a prefix, starting at `need` cells, until it
    holds `need` of them: on a map of zeros a handful of the tens of
    thousands of tied cells are kept, and they are not all listed.
    """
    stop = flat.size if every else need
    while True:
        ties = np.flatnonzero(flat[:stop] == kth)
        if ties.size >= need or stop >= flat.size:
            return ties[:need]
        stop *= 2


def decode_corners(heat: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """The k best corner keypoints of a (C, H, W) heatmap, placed by its (2, H, W) offset planes.

    Selection runs jointly over all C*H*W cells after 3x3 local-max
    suppression. Returns k rows of KEYPOINT_DTYPE in descending score order;
    equal scores are broken by ascending (class, row, col), the flat cell
    index order.

    The selection equals ``np.argsort(-flat, kind="stable")[:k]`` without
    a stable argsort of every cell: ``np.sort`` finds the k-th largest
    score, the cells above it are stable-sorted, and the first cells equal
    to it, in index order, fill the remaining places; ``_first_ties`` finds
    them without listing every tied cell. It is a sort, not ``np.partition``,
    because numpy's introselect stalls on runs of equal values, and
    suppression leaves nearly every cell at 0.

    A finite but huge offset gives an x or y that overflows float32 to
    infinity; ``detect_bundle`` rejects it.
    """
    c, h, w = heat.shape
    if not 1 <= k <= c * h * w:
        raise ValueError(f"k must be in [1, {c * h * w}], got {k}")

    suppressed = local_max_suppress(heat)
    flat = suppressed.ravel()
    ranked = np.sort(flat)
    kth = ranked[flat.size - k]
    above = np.flatnonzero(flat > kth)
    above = above[np.argsort(-flat[above], kind="stable")]
    # every tied cell is needed unless one sorts below the k-th place
    every = k == flat.size or ranked[flat.size - k - 1] != kth
    order = np.concatenate([above, _first_ties(flat, kth, k - above.size, every)])

    cls, rows, cols = np.unravel_index(order, (c, h, w))
    ox = off[0, rows, cols].astype(np.float32)
    oy = off[1, rows, cols].astype(np.float32)
    xs = (cols.astype(np.float32) + ox) * np.float32(STRIDE)
    ys = (rows.astype(np.float32) + oy) * np.float32(STRIDE)

    kps = np.empty(k, dtype=KEYPOINT_DTYPE)
    kps["class_id"] = cls
    kps["x"] = xs
    kps["y"] = ys
    kps["score"] = flat[order]
    return kps


def gaussian_radius(height: float, width: float) -> float:
    """Largest corner displacement radius keeping box IoU >= MIN_OVERLAP.

    Solves the three quadratic worst cases (both corners shifted inward,
    outward, or across) for a height x width box and returns the smallest
    root, so any displacement within the radius still yields IoU >=
    MIN_OVERLAP with the original box.
    """
    a1 = 1.0
    b1 = height + width
    c1 = width * height * (1 - MIN_OVERLAP) / (1 + MIN_OVERLAP)
    sq1 = math.sqrt(b1 * b1 - 4 * a1 * c1)
    r1 = (b1 - sq1) / (2 * a1)

    a2 = 4.0
    b2 = 2 * (height + width)
    c2 = (1 - MIN_OVERLAP) * width * height
    sq2 = math.sqrt(b2 * b2 - 4 * a2 * c2)
    r2 = (b2 - sq2) / (2 * a2)

    a3 = 4.0 * MIN_OVERLAP
    b3 = -2 * MIN_OVERLAP * (height + width)
    c3 = (MIN_OVERLAP - 1) * width * height
    sq3 = math.sqrt(b3 * b3 - 4 * a3 * c3)
    r3 = (b3 + sq3) / (2 * a3)

    return min(r1, r2, r3)


def _splat(channel: np.ndarray, row: int, col: int, radius: int) -> None:
    """Max-combine an unnormalized Gaussian (peak 1 at (row, col)) into channel."""
    h, w = channel.shape
    if radius <= 0:
        channel[row, col] = max(channel[row, col], np.float32(1.0))
        return
    sigma = radius / 3.0
    r0, r1 = max(0, row - radius), min(h, row + radius + 1)
    c0, c1 = max(0, col - radius), min(w, col + radius + 1)
    ys = np.arange(r0, r1, dtype=np.float64) - row
    xs = np.arange(c0, c1, dtype=np.float64) - col
    patch = np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2.0 * sigma * sigma))
    region = channel[r0:r1, c0:c1]
    np.maximum(region, patch.astype(np.float32), out=region)


def gaussian_targets(
    truth: np.ndarray, num_classes: int, height: int, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Render training-target heatmaps and offset planes for a scene:
    tl_heat, br_heat, tl_off and br_off.

    Each corner of the TRUTH_DTYPE rows splats an unnormalized 2-D Gaussian
    with peak exactly 1 at its stride-reduced cell onto its class channel;
    overlapping splats combine by element-wise max. The offset planes
    record the fractional parts of the downscaled corner coordinates at the
    peak cells.
    """
    tl_heat = np.zeros((num_classes, height, width), dtype=np.float32)
    br_heat = np.zeros((num_classes, height, width), dtype=np.float32)
    tl_off = np.zeros((2, height, width), dtype=np.float32)
    br_off = np.zeros((2, height, width), dtype=np.float32)

    for (x1, y1, x2, y2), class_id in zip(truth["box"].tolist(), truth["class_id"].tolist()):
        if not 0 <= class_id < num_classes:
            raise ValueError(f"class_id {class_id} outside [0, {num_classes})")
        radius = max(0, int(gaussian_radius((y2 - y1) / STRIDE, (x2 - x1) / STRIDE)))
        for heat, off, cx, cy in ((tl_heat, tl_off, x1, y1), (br_heat, br_off, x2, y2)):
            fx, fy = cx / STRIDE, cy / STRIDE
            col, row = int(math.floor(fx)), int(math.floor(fy))
            if not (0 <= col < width and 0 <= row < height):
                raise ValueError(
                    f"corner ({cx}, {cy}) maps to cell ({row}, {col}) "
                    f"outside the {height}x{width} grid"
                )
            _splat(heat[class_id], row, col, radius)
            off[0, row, col] = np.float32(fx - col)
            off[1, row, col] = np.float32(fy - row)

    return tl_heat, br_heat, tl_off, br_off
