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
            raise ValueError(f"box_feat must be ({BOX_CHANNELS}, H, W), got shape {self.box_feat.shape}")
        if self.cat_feat.shape != (CAT_CHANNELS,) + self.box_feat.shape[1:]:
            raise ValueError(
                f"cat_feat must be ({CAT_CHANNELS}, H, W) with extents matching box_feat "
                f"{self.box_feat.shape}, got shape {self.cat_feat.shape}"
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
                f"binary_kernel must be (1, {BOX_CHANNELS}, {POOL_SIZE}, {POOL_SIZE}), "
                f"got shape {self.binary_kernel.shape}"
            )
        c = self.class_kernel.shape[0]
        if self.class_kernel.shape != (c, CAT_CHANNELS, POOL_SIZE, POOL_SIZE):
            raise ValueError(
                f"class_kernel must be (C, {CAT_CHANNELS}, {POOL_SIZE}, {POOL_SIZE}), "
                f"got shape {self.class_kernel.shape}"
            )
        if self.class_bias.shape != (c,):
            raise ValueError(f"class_bias must be ({c},), one entry per class, got shape {self.class_bias.shape}")

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
        tensors = {}
        for name in _BUNDLE_FILES:
            tensors[name] = load_tensor(directory / name)
            # the heads skip dead channels, so a bad kernel entry there would
            # never show as a non-finite score
            if not np.isfinite(tensors[name]).all():
                raise ValueError(f"{directory / name} holds NaN or infinity")
        if tensors["binary_bias"].shape != (1,):
            raise ValueError(f"{directory / 'binary_bias'} must be (1,), got shape {tensors['binary_bias'].shape}")
        return cls(
            binary_kernel=tensors["binary_kernel"],
            binary_bias=float(tensors["binary_bias"][0]),
            class_kernel=tensors["class_kernel"],
            class_bias=tensors["class_bias"],
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
) -> tuple[np.ndarray, np.ndarray]:
    """RoIAlign a (D, H, W) feature map over N boxes, on its live channels only.

    Returns `(pooled, channels)`: `pooled` is (N, L, out, out) float32 over
    the L channels that hold a nonzero (or NaN) cell where the boxes'
    bilinear taps can reach, and `channels` holds their indices in ascending
    order. Every other channel would pool to exact zeros.

    Box coordinates are image pixels and get divided by `stride` into
    feature coordinates, where cell (r, c) sits at continuous position
    (c, r). Every output bin averages 4 bilinear samples at the bin's
    quarter-points; bilinear taps outside the feature extent read 0.
    Degenerate (zero-area) boxes produce all-zero output.
    """
    feat = np.asarray(feat, dtype=np.float32)
    _, h, w = feat.shape
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    n = boxes.shape[0]
    live = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    idx_live = np.flatnonzero(live)
    if idx_live.size == 0:
        return np.zeros((n, 0, out_size, out_size), dtype=np.float32), np.zeros(0, dtype=np.intp)

    # A box's taps lie in feature rows floor(y1) .. floor(y2) + 1 and columns
    # floor(x1) .. floor(x2) + 1, and a tap outside the map reads the clipped
    # edge cell (with weight 0), so the band between the clipped extremes
    # holds every cell any tap reads. Channels all zero there pool to zeros.
    fb = boxes[idx_live] / stride
    lo = np.floor(fb[:, :2].min(axis=0))
    hi = np.floor(fb[:, 2:].max(axis=0)) + 1.0
    top = np.array([w - 1, h - 1])
    c0, r0 = np.clip(lo, 0, top).astype(np.intp)
    c1, r1 = np.clip(hi, 0, top).astype(np.intp)
    band = feat[:, r0 : r1 + 1, c0 : c1 + 1]
    channels = np.flatnonzero((band != 0).any(axis=(1, 2)))
    out = np.zeros((n, channels.size, out_size, out_size), dtype=np.float32)
    if channels.size == 0:
        return out, channels

    # The band's live channels with their edge cells repeated one step
    # outward. A sample's four taps are then the padded cells i, i + 1,
    # i + pw and i + pw + 1, where i is the sample's floor(y), floor(x)
    # clipped into the padded band: each tap reads the cell that clipping
    # the tap itself into the band would read.
    nlive = channels.size
    pw = c1 - c0 + 3
    padded = np.empty((nlive, r1 - r0 + 3, pw), dtype=np.float32)
    padded[:, 1:-1, 1:-1] = band[channels]
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]
    padded[:, :, 0] = padded[:, :, 1]
    padded[:, :, -1] = padded[:, :, -2]
    flat = padded.reshape(nlive, -1)

    # sample positions within a bin: quarter and three-quarter points
    frac = (np.arange(out_size * 2, dtype=np.float64) + 0.5) / 2.0  # 0.25, 0.75, 1.25, ...
    quad = ((0, 0), (0, 1), (1, 0), (1, 1))  # taps, and a bin's samples, in row order

    grid = out_size * 2
    most = min(chunk, idx_live.size)
    weights = np.empty((4, most, grid, grid), dtype=np.float32)
    acc = np.empty((nlive, most, grid, grid), dtype=np.float32)
    tap = np.empty_like(acc)
    for start in range(0, idx_live.size, chunk):
        sel = idx_live[start : start + chunk]
        m = sel.size
        cb = fb[start : start + chunk]
        bw = (cb[:, 2] - cb[:, 0]) / out_size
        bh = (cb[:, 3] - cb[:, 1]) / out_size
        sx = cb[:, 0:1] + frac[None, :] * bw[:, None]  # (m, 2*out)
        sy = cb[:, 1:2] + frac[None, :] * bh[:, None]

        x0 = np.floor(sx).astype(np.int64)
        y0 = np.floor(sy).astype(np.int64)
        tx = sx - x0
        ty = sy - y0
        # tap weights in float64, zero outside the map; cast to float32 they
        # keep the tap products single-precision like the features
        wy = ((1.0 - ty) * ((y0 >= 0) & (y0 < h)), ty * ((y0 + 1 >= 0) & (y0 + 1 < h)))
        wx = ((1.0 - tx) * ((x0 >= 0) & (x0 < w)), tx * ((x0 + 1 >= 0) & (x0 + 1 < w)))
        # clipped before the shift, so the cast of a non-finite sample cannot wrap
        rows = np.clip(y0, r0 - 1, r1) - (r0 - 1)
        cols = np.clip(x0, c0 - 1, c1) - (c0 - 1)
        lin = rows[:, :, None] * pw + cols[:, None, :]

        # each tap's float32 products, added to the first tap's in tap order
        chunk_weights, chunk_acc, chunk_tap = weights[:, :m], acc[:, :m], tap[:, :m]
        for t, (dy, dx) in enumerate(quad):
            np.multiply(wy[dy][:, :, None], wx[dx][:, None, :], out=chunk_weights[t])
            vals = chunk_tap if t else chunk_acc
            # indices are in range by construction; mode="raise" would
            # stage out= through a copy
            for c in range(nlive):
                np.take(flat[c, dy * pw + dx :], lin, out=vals[c], mode="clip")
            vals *= chunk_weights[t]
            if t:
                chunk_acc += vals

        # Average each bin's 2x2 samples, added to +0 in row order for any
        # channel count, so a box pools the same bits whatever else its batch
        # holds.
        samples = chunk_acc.reshape(nlive, m, out_size, 2, out_size, 2)
        pooled = np.zeros((nlive, m, out_size, out_size), dtype=np.float32)
        for i, j in quad:
            pooled += samples[:, :, :, i, :, j]
        pooled /= 4
        out[sel] = pooled.transpose(1, 0, 2, 3)
    return out, channels


def sigmoid(z):
    """Logistic function; a NaN or infinite logit gives NaN, not a saturated 0 or 1."""
    z = np.asarray(z, dtype=np.float64)
    s = 1.0 / (1.0 + np.exp(-np.clip(z, -700.0, 700.0)))
    return np.where(np.isfinite(z), s, np.nan)


def _logits(pooled: np.ndarray, channels: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Bias-free head logits, (N, C), of pooled live channels under a (C, D, 7, 7) kernel.

    Each channel's 49 products are taken in float64 and summed by
    np.add.reduce, and the channel sums are added in index order: an order
    numpy fixes, not a BLAS build. A float32 x float32 product is exact in
    float64, so a channel left out of `channels` (all zeros) would only have
    added an exact 0.
    """
    pooled = np.asarray(pooled, dtype=np.float64)
    channels = np.asarray(channels)
    depth = kernel.shape[1]
    if pooled.ndim != 4 or pooled.shape[2:] != (POOL_SIZE, POOL_SIZE):
        raise ValueError(f"pooled batch must be (N, L, {POOL_SIZE}, {POOL_SIZE}), got {pooled.shape}")
    if channels.shape != pooled.shape[1:2]:
        raise ValueError(
            f"channels must list the {pooled.shape[1]} pooled channels, got shape {channels.shape}"
        )
    if channels.size and (
        channels.dtype.kind not in "iu"
        or channels[0] < 0
        or channels[-1] >= depth
        or (np.diff(channels) <= 0).any()
    ):
        raise ValueError(
            f"channels must be ascending integers in [0, {depth}), got {channels.tolist()}"
        )
    rows = pooled.reshape(pooled.shape[0], channels.size, 1, POOL_SIZE * POOL_SIZE)
    k = kernel.reshape(kernel.shape[0], depth, -1).astype(np.float64)
    z = np.zeros((pooled.shape[0], kernel.shape[0]))
    for i, ch in enumerate(channels):
        z += np.add.reduce(rows[:, i] * k[:, ch], axis=-1)
    return z


def binary_scores(pooled: np.ndarray, channels: np.ndarray, weights: HeadWeights) -> np.ndarray:
    """Objectness probabilities, shape (N,), for pooled box features.

    Takes `roi_align_batch`'s output: (N, L, 7, 7) pooled over the ascending
    box-feature channels `channels`.
    """
    return sigmoid(_logits(pooled, channels, weights.binary_kernel)[:, 0] + weights.binary_bias)


def class_scores(pooled: np.ndarray, channels: np.ndarray, weights: HeadWeights) -> np.ndarray:
    """Per-class probabilities, shape (N, C), for pooled category features.

    Takes `roi_align_batch`'s output like `binary_scores`. Classes score
    independently, so each row holds C sigmoids, not a softmax.
    """
    z = _logits(pooled, channels, weights.class_kernel) + weights.class_bias.astype(np.float64)
    return sigmoid(z)
