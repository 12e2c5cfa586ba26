"""Proposal enumeration and the two-step classification heads.

Valid corner pairs (same class, top-left strictly above-left of
bottom-right) become proposals scored by the mean of their corner scores.
Regional features are pooled with RoIAlign (7x7 bins, 2x2 quarter-point
samples per bin, average pooling, zero reads outside the feature extent)
and scored by single-convolution sigmoid heads: a binary objectness head on
the 32-channel box feature map and a C-way head on the 256-channel category
feature map.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cornerdet.corners import STRIDE
from cornerdet.tensorio import load_tensor, store_tensor

BOX_CHANNELS = 32
CAT_CHANNELS = 256
POOL_SIZE = 7
INITIAL_BIAS = -2.19  # sigmoid(-2.19) ~ 0.1, the objectness prior

_BUNDLE_FILES = ("binary_kernel", "binary_bias", "class_kernel", "class_bias")

# proposals, survivors and detections, one row per box: corners (x1, y1,
# x2, y2) in image pixels, class, and score (the mean corner score of a
# proposal, the fused score of a detection)
BOX_DTYPE = np.dtype([("box", np.float64, (4,)), ("class_id", np.int64), ("score", np.float64)])


@dataclass(frozen=True)
class FeatureMaps:
    """Box (32ch) and category (256ch) feature maps for one image."""

    box_feat: np.ndarray
    cat_feat: np.ndarray

    def __post_init__(self):
        if self.box_feat.ndim != 3 or self.box_feat.shape[0] != BOX_CHANNELS:
            raise ValueError(f"box_feat must be ({BOX_CHANNELS}, H, W)")
        if self.cat_feat.shape != (CAT_CHANNELS,) + self.box_feat.shape[1:]:
            raise ValueError(
                f"cat_feat must be ({CAT_CHANNELS}, H, W) with extents matching box_feat"
            )


@dataclass(frozen=True)
class HeadWeights:
    """Kernels and biases of the binary and C-way heads."""

    binary_kernel: np.ndarray
    binary_bias: float
    class_kernel: np.ndarray
    class_bias: np.ndarray

    def __post_init__(self):
        if self.binary_kernel.shape != (1, BOX_CHANNELS, POOL_SIZE, POOL_SIZE):
            raise ValueError(
                f"binary kernel must be (1, {BOX_CHANNELS}, {POOL_SIZE}, {POOL_SIZE})"
            )
        c = self.class_kernel.shape[0]
        if self.class_kernel.shape != (c, CAT_CHANNELS, POOL_SIZE, POOL_SIZE):
            raise ValueError(
                f"class kernel must be (C, {CAT_CHANNELS}, {POOL_SIZE}, {POOL_SIZE})"
            )
        if self.class_bias.shape != (c,):
            raise ValueError("class_bias must have one entry per class")

    @property
    def num_classes(self) -> int:
        return self.class_kernel.shape[0]

    @classmethod
    def initial(cls, num_classes: int, rng: np.random.Generator) -> "HeadWeights":
        """Randomly initialized heads with every bias at the untrained prior."""
        return cls(
            binary_kernel=rng.normal(0.0, 0.01, (1, BOX_CHANNELS, POOL_SIZE, POOL_SIZE)).astype(np.float32),
            binary_bias=INITIAL_BIAS,
            class_kernel=rng.normal(0.0, 0.01, (num_classes, CAT_CHANNELS, POOL_SIZE, POOL_SIZE)).astype(np.float32),
            class_bias=np.full(num_classes, INITIAL_BIAS, dtype=np.float32),
        )

    def save_bundle(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        store_tensor(self.binary_kernel, directory / "binary_kernel")
        store_tensor(np.array([self.binary_bias], dtype=np.float32), directory / "binary_bias")
        store_tensor(self.class_kernel, directory / "class_kernel")
        store_tensor(self.class_bias, directory / "class_bias")

    @classmethod
    def load_bundle(cls, directory) -> "HeadWeights":
        directory = Path(directory)
        missing = [n for n in _BUNDLE_FILES if not (directory / n).exists()]
        if missing:
            raise FileNotFoundError(f"weights bundle {directory} is missing {missing}")
        return cls(
            binary_kernel=load_tensor(directory / "binary_kernel"),
            binary_bias=float(load_tensor(directory / "binary_bias")[0]),
            class_kernel=load_tensor(directory / "class_kernel"),
            class_bias=load_tensor(directory / "class_bias"),
        )


def enumerate_proposals(tls: np.ndarray, brs: np.ndarray) -> np.ndarray:
    """All valid (top-left, bottom-right) pairs, ordered by (tl index, br index).

    Takes the top-left and bottom-right keypoints as KEYPOINT_DTYPE arrays.
    A pair is valid when both corners share a class and the top-left corner
    lies strictly above and to the left of the bottom-right one. Returns
    BOX_DTYPE rows scored by the mean of the two corner scores.
    """
    valid = (
        (tls["class_id"][:, None] == brs["class_id"][None, :])
        & (tls["x"][:, None] < brs["x"][None, :])
        & (tls["y"][:, None] < brs["y"][None, :])
    )
    ti, bj = np.nonzero(valid)  # row-major, so (tl index, br index) order
    out = np.empty(ti.size, dtype=BOX_DTYPE)
    out["box"] = np.column_stack([tls["x"][ti], tls["y"][ti], brs["x"][bj], brs["y"][bj]])
    out["class_id"] = tls["class_id"][ti]
    out["score"] = (tls["score"][ti] + brs["score"][bj]) / 2.0
    return out


def roi_align_batch(
    feat: np.ndarray,
    boxes: np.ndarray,
    out_size: int = POOL_SIZE,
    stride: int = STRIDE,
    chunk: int = 512,
) -> np.ndarray:
    """RoIAlign a (D, H, W) feature map over N boxes into (N, D, out, out).

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


def sigmoid(z):
    z = np.clip(np.asarray(z, dtype=np.float64), -700.0, 700.0)
    return 1.0 / (1.0 + np.exp(-z))


def binary_scores(pooled: np.ndarray, weights: HeadWeights) -> np.ndarray:
    """Objectness probabilities for a (N, 32, 7, 7) batch of pooled features."""
    pooled = np.asarray(pooled, dtype=np.float64)
    expect = (BOX_CHANNELS, POOL_SIZE, POOL_SIZE)
    if pooled.shape[1:] != expect:
        raise ValueError(f"pooled batch must be (N,) + {expect}, got {pooled.shape}")
    k = weights.binary_kernel.reshape(-1).astype(np.float64)
    z = pooled.reshape(-1, k.size) @ k + weights.binary_bias
    return sigmoid(z)


def class_scores(pooled: np.ndarray, weights: HeadWeights) -> np.ndarray:
    """Per-class probabilities, shape (N, C), for pooled category features.

    Classes score independently, so each row holds C sigmoids, not a softmax.
    """
    pooled = np.asarray(pooled, dtype=np.float64)
    expect = (CAT_CHANNELS, POOL_SIZE, POOL_SIZE)
    if pooled.shape[1:] != expect:
        raise ValueError(f"pooled batch must be (N,) + {expect}, got {pooled.shape}")
    k = weights.class_kernel.reshape(weights.num_classes, -1).astype(np.float64)
    z = pooled.reshape(-1, k.shape[1]) @ k.T + weights.class_bias.astype(np.float64)
    return sigmoid(z)
