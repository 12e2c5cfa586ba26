"""Independent reference implementations used to cross-check the library.

Everything here is written with plain loops and avoids importing any of the
optimized library code paths; only value types (BBox) and the keypoint
array layout (fields class_id, x, y, score) are shared so the comparisons
line up. The one exception, `frozen_roi_align_batch`, is a verbatim copy of
an earlier vectorized library kernel, kept so a rewrite can be held to its
exact bits.
"""

from __future__ import annotations

import math

import numpy as np


def iou_xyxy(a, b) -> float:
    # mirrors the library's operation order so comparisons can be bit-exact
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def naive_local_max(heat: np.ndarray, window: int) -> np.ndarray:
    """Exhaustive neighborhood scan."""
    c, h, w = heat.shape
    pad = window // 2
    out = np.zeros_like(heat)
    for ci in range(c):
        for i in range(h):
            for j in range(w):
                best = -math.inf
                for di in range(-pad, pad + 1):
                    for dj in range(-pad, pad + 1):
                        ii, jj = i + di, j + dj
                        if 0 <= ii < h and 0 <= jj < w:
                            best = max(best, heat[ci, ii, jj])
                if heat[ci, i, j] == best:
                    out[ci, i, j] = heat[ci, i, j]
    return out


def naive_topk(scores: np.ndarray, k: int) -> list[int]:
    """Flat indices of the k highest scores, equal scores by ascending index."""
    flat = [float(v) for v in np.ravel(scores)]
    return sorted(range(len(flat)), key=lambda i: (-flat[i], i))[:k]


def naive_pairs(tls, brs) -> list[tuple[int, int]]:
    """Exhaustive O(K^2) validity filtering over keypoint index pairs."""
    out = []
    for i, tl in enumerate(tls):
        for j, br in enumerate(brs):
            if tl["class_id"] == br["class_id"] and tl["x"] < br["x"] and tl["y"] < br["y"]:
                out.append((i, j))
    return out


def naive_roi_align(feat: np.ndarray, box, out_size: int = 7, stride: int = 4) -> np.ndarray:
    """Dense bilinear-sampling reference, float64 throughout, zero-padded."""
    d, h, w = feat.shape
    x1, y1, x2, y2 = (float(v) for v in box)
    pooled = np.zeros((d, out_size, out_size), dtype=np.float64)
    if x2 <= x1 or y2 <= y1:
        return pooled

    fx1, fy1, fx2, fy2 = x1 / stride, y1 / stride, x2 / stride, y2 / stride
    bin_w = (fx2 - fx1) / out_size
    bin_h = (fy2 - fy1) / out_size

    def tap(ch: int, yy: int, xx: int) -> float:
        if 0 <= yy < h and 0 <= xx < w:
            return float(feat[ch, yy, xx])
        return 0.0

    def bilinear(ch: int, sy: float, sx: float) -> float:
        x0 = math.floor(sx)
        y0 = math.floor(sy)
        tx = sx - x0
        ty = sy - y0
        return (
            (1.0 - ty) * (1.0 - tx) * tap(ch, y0, x0)
            + (1.0 - ty) * tx * tap(ch, y0, x0 + 1)
            + ty * (1.0 - tx) * tap(ch, y0 + 1, x0)
            + ty * tx * tap(ch, y0 + 1, x0 + 1)
        )

    for ch in range(d):
        for i in range(out_size):
            for j in range(out_size):
                total = 0.0
                for sy_frac in (0.25, 0.75):
                    for sx_frac in (0.25, 0.75):
                        sy = fy1 + (i + sy_frac) * bin_h
                        sx = fx1 + (j + sx_frac) * bin_w
                        total += bilinear(ch, sy, sx)
                pooled[ch, i, j] = total / 4.0
    return pooled


def frozen_roi_align_batch(
    feat: np.ndarray,
    boxes: np.ndarray,
    out_size: int = 7,
    stride: int = 4,
    chunk: int = 512,
) -> np.ndarray:
    """Frozen copy of the library's dense batched RoIAlign, (N, D, out, out).

    The library pools only live channels; on those it must equal this
    kernel bit for bit whenever this kernel pools two or more channels (with
    one, its mean adds a bin's samples pairwise), and this kernel must be
    zero on every other channel.

    Box coordinates are image pixels and get divided by `stride` into
    feature coordinates, where cell (r, c) sits at continuous position
    (c, r). Every output bin averages 4 bilinear samples at the bin's
    quarter-points; bilinear taps outside the feature extent read 0.
    Degenerate (zero-area) boxes produce all-zero output.
    """
    feat = np.asarray(feat, dtype=np.float32)
    d, h, w = feat.shape
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    n = boxes.shape[0]
    out = np.zeros((n, d, out_size, out_size), dtype=np.float32)
    if n == 0:
        return out

    # all-zero channels pool to exact zeros, so skip their gathers entirely
    channels = np.flatnonzero(feat.reshape(d, -1).any(axis=1))
    if channels.size == 0:
        return out
    dense = channels.size == d
    flat = (feat if dense else feat[channels]).reshape(channels.size, h * w)

    live = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])

    # sample positions within a bin: quarter and three-quarter points
    frac = (np.arange(out_size * 2, dtype=np.float64) + 0.5) / 2.0  # 0.25, 0.75, 1.25, ...

    idx_live = np.nonzero(live)[0]
    for start in range(0, idx_live.size, chunk):
        sel = idx_live[start : start + chunk]
        fb = boxes[sel] / stride
        bw = (fb[:, 2] - fb[:, 0]) / out_size
        bh = (fb[:, 3] - fb[:, 1]) / out_size
        sx = fb[:, 0:1] + frac[None, :] * bw[:, None]  # (m, 2*out)
        sy = fb[:, 1:2] + frac[None, :] * bh[:, None]

        x0 = np.floor(sx).astype(np.int64)
        y0 = np.floor(sy).astype(np.int64)
        tx = sx - x0
        ty = sy - y0

        acc = None
        for dy in (0, 1):
            yy = y0 + dy
            wy = ((1.0 - ty) if dy == 0 else ty) * ((yy >= 0) & (yy < h))
            yc = np.clip(yy, 0, h - 1)
            for dx in (0, 1):
                xx = x0 + dx
                wx = ((1.0 - tx) if dx == 0 else tx) * ((xx >= 0) & (xx < w))
                xc = np.clip(xx, 0, w - 1)
                # gather (d, m, 2*out, 2*out) for this tap; float32 weights
                # keep the tap products single-precision like the features
                lin = yc[:, :, None] * w + xc[:, None, :]
                vals = flat[:, lin]
                weight = (wy[:, :, None] * wx[:, None, :]).astype(np.float32)
                vals *= weight[None, :, :, :]
                if acc is None:
                    acc = vals
                else:
                    acc += vals

        m = sel.size
        pooled = acc.reshape(channels.size, m, out_size, 2, out_size, 2).mean(axis=(3, 5))
        if dense:
            out[sel] = pooled.transpose(1, 0, 2, 3)
        else:
            out[np.ix_(sel, channels)] = pooled.transpose(1, 0, 2, 3)
    return out


def naive_head_score(pooled: np.ndarray, kernel: np.ndarray, bias: float) -> float:
    """Triple-loop dot product plus sigmoid."""
    total = 0.0
    d, h, w = pooled.shape
    for c in range(d):
        for i in range(h):
            for j in range(w):
                total += float(kernel[c, i, j]) * float(pooled[c, i, j])
    z = total + bias
    return 1.0 / (1.0 + math.exp(-max(-700.0, min(700.0, z))))


def naive_soft_nms(boxes, scores, classes, sigma: float, prune: float):
    """Greedy O(n^2) rescoring reference.

    Returns (original index, final score) pairs ordered by descending score
    with ties broken by original index, mirroring the library contract and
    its floating-point operation order.
    """
    picked = []
    for cls in sorted(set(classes)):
        remaining = [i for i, c in enumerate(classes) if c == cls]
        current = {i: scores[i] for i in remaining}
        while remaining:
            best = remaining[0]
            for i in remaining[1:]:
                if current[i] > current[best]:
                    best = i
            remaining.remove(best)
            picked.append((best, current[best]))
            for i in remaining:
                ov = iou_xyxy(boxes[best], boxes[i])
                current[i] *= math.exp(-(ov * ov) / sigma)
            remaining = [i for i in remaining if current[i] >= prune]
    picked.sort(key=lambda t: (-t[1], t[0]))
    return picked


def central_difference(func, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = func(x)
        flat[i] = orig - step
        lo = func(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale
