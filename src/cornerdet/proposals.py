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

import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cornerdet.corners import STRIDE
from cornerdet.geometry import DET_DTYPE
from cornerdet.tensorio import check_slices, load_tensor, store_tensor

BOX_CHANNELS = 32
CAT_CHANNELS = 256
POOL_SIZE = 7
# RoIAlign samples each box on a GRID x GRID lattice, 2 x 2 per bin
GRID = 2 * POOL_SIZE
# (box, channel) pairs RoIAlign pools per chunk, which bounds each thread's
# scratch: about 4.8 MB at most (1,024 boxes of one channel), whatever the
# number of boxes; a chunk holds at least one box, so only a map listing
# more than ROI_CHUNK channels goes beyond it
ROI_CHUNK = 1024

_BUNDLE_FILES = ("binary_kernel", "binary_bias", "class_kernel", "class_bias")


@dataclass(frozen=True)
class FeatureMaps:
    """Box (32ch) and category (256ch) feature maps for one image.

    `box_channels` and `cat_channels` list the ascending channels of each
    map that may hold data; every other channel is all zeros, and RoIAlign
    and the heads look at the listed channels alone.
    """

    box_feat: np.ndarray
    cat_feat: np.ndarray
    box_channels: np.ndarray
    cat_channels: np.ndarray

    def __post_init__(self):
        if self.box_feat.ndim != 3 or self.box_feat.shape[0] != BOX_CHANNELS:
            raise ValueError(f"box_feat must be ({BOX_CHANNELS}, H, W), got shape {self.box_feat.shape}")
        if self.cat_feat.shape != (CAT_CHANNELS,) + self.box_feat.shape[1:]:
            raise ValueError(
                f"cat_feat must be ({CAT_CHANNELS}, H, W) with extents matching box_feat "
                f"{self.box_feat.shape}, got shape {self.cat_feat.shape}"
            )
        check_slices("box_channels", np.asarray(self.box_channels), BOX_CHANNELS)
        check_slices("cat_channels", np.asarray(self.cat_channels), CAT_CHANNELS)


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
    DET_DTYPE rows of image_id 0 scored by the mean of the two corner scores.
    """
    valid = (
        (tls["class_id"][:, None] == brs["class_id"][None, :])
        & (tls["x"][:, None] < brs["x"][None, :])
        & (tls["y"][:, None] < brs["y"][None, :])
    )
    ti, bj = np.nonzero(valid)  # row-major, so (tl index, br index) order
    out = np.zeros(ti.size, dtype=DET_DTYPE)
    out["box"] = np.column_stack([tls["x"][ti], tls["y"][ti], brs["x"][bj], brs["y"][bj]])
    out["class_id"] = tls["class_id"][ti]
    out["score"] = (tls["score"][ti] + brs["score"][bj]) / 2.0
    return out


class _Scratch(threading.local):
    """One thread's RoIAlign working arrays, kept from call to call.

    Allocated afresh on every call, arrays this large go back to the system
    when freed and fault their pages in again on the next call: glibc keeps
    them only after it has freed some larger buffer, as a fresh process has
    not.
    """

    def __init__(self):
        self.buffers = {}

    def take(self, name: str, shape: tuple, dtype=np.float32) -> np.ndarray:
        """A contiguous `shape` array of the buffer `name`, grown to fit; its values are stale."""
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


_scratch = _Scratch()


def roi_align_batch(feat: np.ndarray, boxes: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """RoIAlign a (D, H, W) feature map over N boxes, on the listed channels only.

    Returns (N, L, 7, 7) float32 pooled over the L ascending `channels`:
    those of the map that may hold data, as `FeatureMaps` lists them. Every
    other channel is all zeros and would pool to exact zeros.

    Box coordinates are image pixels and get divided by `STRIDE` into
    feature coordinates, where cell (r, c) sits at continuous position
    (c, r). Every output bin averages 4 bilinear samples at the bin's
    quarter-points; bilinear taps outside the feature extent read 0.
    Degenerate (zero-area) boxes produce all-zero output.
    """
    feat = np.asarray(feat, dtype=np.float32)
    _, h, w = feat.shape
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    channels = np.asarray(channels, dtype=np.intp)
    n, nch = boxes.shape[0], channels.size
    live = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    idx_live = np.flatnonzero(live)
    out = np.zeros((n, nch, POOL_SIZE, POOL_SIZE), dtype=np.float32)
    if idx_live.size == 0 or nch == 0:
        return out

    # A box's taps lie in feature rows floor(y1) .. floor(y2) + 1 and columns
    # floor(x1) .. floor(x2) + 1, and a tap outside the map reads the clipped
    # edge cell (with weight 0), so the band between the clipped extremes
    # holds every cell any tap reads.
    fb = boxes[idx_live] / STRIDE
    lo = np.floor(fb[:, :2].min(axis=0))
    hi = np.floor(fb[:, 2:].max(axis=0)) + 1.0
    top = np.array([w - 1, h - 1])
    c0, r0 = np.clip(lo, 0, top).astype(np.intp)
    c1, r1 = np.clip(hi, 0, top).astype(np.intp)

    # The band of the listed channels with its edge cells repeated one step
    # outward. A sample's four taps are then the padded cells i, i + 1,
    # i + pw and i + pw + 1, where i is the sample's floor(y), floor(x)
    # clipped into the padded band: each tap reads the cell that clipping
    # the tap itself into the band would read.
    pw = c1 - c0 + 3
    padded = np.empty((nch, r1 - r0 + 3, pw), dtype=np.float32)
    for band, c in zip(padded, channels):
        band[1:-1, 1:-1] = feat[c, r0 : r1 + 1, c0 : c1 + 1]
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]
    padded[:, :, 0] = padded[:, :, 1]
    padded[:, :, -1] = padded[:, :, -2]
    flat = padded.reshape(nch, -1)

    # sample positions within a bin: quarter and three-quarter points
    frac = (np.arange(GRID, dtype=np.float64) + 0.5) / 2.0  # 0.25, 0.75, 1.25, ...
    quad = ((0, 0), (0, 1), (1, 0), (1, 1))  # taps, and a bin's samples, in row order
    # per axis (x, then y): the map's extent and the band's first and last
    # padded cells, each shaped to broadcast over (axis, box, sample)
    extent = np.array([w, h]).reshape(2, 1, 1)
    first = np.array([c0 - 1, r0 - 1]).reshape(2, 1, 1)
    last = np.array([c1, r1]).reshape(2, 1, 1)

    step = max(1, ROI_CHUNK // nch)
    for start in range(0, idx_live.size, step):
        sel = idx_live[start : start + step]
        m = sel.size
        cb = fb[start : start + step].T.reshape(2, 2, m, 1)  # (x1, y1), (x2, y2)
        # sample positions per axis, x1 + frac * (x2 - x1) / 7 and alike for y
        pos = _scratch.take("pos", (2, m, GRID), np.float64)
        np.multiply((cb[1] - cb[0]) / POOL_SIZE, frac, out=pos)
        pos += cb[0]
        # each sample's floor, and the fraction past it in pos
        low = _scratch.take("low", (2, m, GRID), np.int64)
        w0 = _scratch.take("w0", (2, m, GRID), np.float64)
        np.copyto(low, np.floor(pos, out=w0), casting="unsafe")
        pos -= low
        # tap weights in float64, zero outside the map; cast to float32 they
        # keep the tap products single-precision like the features
        np.subtract(1.0, pos, out=w0)
        w0 *= (low >= 0) & (low < extent)
        w1 = pos
        w1 *= (low >= -1) & (low < extent - 1)
        # clipped before the shift, so the cast of a non-finite sample cannot wrap
        np.clip(low, first, last, out=low)
        low -= first
        lin = _scratch.take("lin", (m, GRID, GRID), np.intp)
        np.multiply(low[1, :, :, None], pw, out=lin)
        lin += low[0, :, None, :]
        # each axis's weights of its low and high tap
        wx, wy = zip(w0, w1)

        # each tap's float32 products, added to the first tap's in tap order
        weights = _scratch.take("weights", (m, GRID, GRID))
        acc = _scratch.take("acc", (nch, m, GRID, GRID))
        tap = _scratch.take("tap", (nch, m, GRID, GRID))
        for t, (dy, dx) in enumerate(quad):
            np.multiply(wy[dy][:, :, None], wx[dx][:, None, :], out=weights)
            vals = tap if t else acc
            # indices are in range by construction; mode="raise" would
            # stage out= through a copy
            for c in range(nch):
                np.take(flat[c, dy * pw + dx :], lin, out=vals[c], mode="clip")
            vals *= weights
            if t:
                acc += vals

        # Average each bin's 2x2 samples, added to +0 in row order for any
        # channel count, so a box pools the same bits whatever else its batch
        # holds.
        samples = acc.reshape(nch, m, POOL_SIZE, 2, POOL_SIZE, 2)
        pooled = _scratch.take("pooled", (nch, m, POOL_SIZE, POOL_SIZE))
        pooled.fill(0.0)
        for i, j in quad:
            pooled += samples[:, :, :, i, :, j]
        pooled /= 4
        out[sel] = pooled.transpose(1, 0, 2, 3)
    return out


def sigmoid(z):
    """Logistic function; a NaN or infinite logit gives NaN, not a saturated 0 or 1."""
    z = np.asarray(z, dtype=np.float64)
    s = 1.0 / (1.0 + np.exp(-np.clip(z, -700.0, 700.0)))
    return np.where(np.isfinite(z), s, np.nan)


def _logits(pooled: np.ndarray, channels: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Bias-free head logits, (N, C), of pooled channels under a (C, D, 7, 7) kernel.

    Each channel's 49 products are taken in float64 and summed by
    np.add.reduce, and the channel sums are added in index order: an order
    numpy fixes, not a BLAS build. A float32 x float32 product is exact in
    float64, so a channel that pools to zeros adds only +-0 products under
    a finite kernel, and adding +-0 to a sum that starts at +0 never changes
    its bits: listing an all-zero channel or leaving it out gives the same
    logits.
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
    check_slices("channels", channels, depth)
    rows = pooled.reshape(pooled.shape[0], channels.size, 1, POOL_SIZE * POOL_SIZE)
    k = kernel.reshape(kernel.shape[0], depth, -1).astype(np.float64)
    z = np.zeros((pooled.shape[0], kernel.shape[0]))
    for i, ch in enumerate(channels):
        z += np.add.reduce(rows[:, i] * k[:, ch], axis=-1)
    return z


def binary_scores(pooled: np.ndarray, channels: np.ndarray, weights: HeadWeights) -> np.ndarray:
    """Objectness probabilities, shape (N,), for pooled box features.

    Takes `roi_align_batch`'s output: (N, L, 7, 7) pooled over the L
    ascending box-feature channels `channels`.
    """
    return sigmoid(_logits(pooled, channels, weights.binary_kernel)[:, 0] + weights.binary_bias)


def class_scores(pooled: np.ndarray, channels: np.ndarray, weights: HeadWeights) -> np.ndarray:
    """Per-class probabilities, shape (N, C), for pooled category features.

    Takes `roi_align_batch`'s output like `binary_scores`. Classes score
    independently, so each row holds C sigmoids, not a softmax.
    """
    z = _logits(pooled, channels, weights.class_kernel) + weights.class_bias.astype(np.float64)
    return sigmoid(z)
