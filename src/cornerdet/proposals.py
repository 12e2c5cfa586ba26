"""Proposal enumeration and the two-step classification heads.

Valid corner pairs (same class, top-left strictly above-left of
bottom-right) become proposals scored by the mean of their corner scores.
Regional features are pooled with RoIAlign (7x7 bins, 2x2 quarter-point
samples per bin, average pooling, zero reads outside the feature extent)
and scored by single-convolution sigmoid heads: a binary objectness head on
the 32-channel box feature map and a C-way head on the 256-channel category
feature map. An upper bound on the binary head's logit, computed without
pooling, tells which proposals cannot reach the objectness threshold.
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
# scratch: 4.90 MB at most (a chunk of 1,024 pairs), whatever the number of
# boxes or listed channels
ROI_CHUNK = 1024
# largest |feature| whose 2 x 2 bilinear sums cannot overflow float32
POOL_LIMIT = float(np.finfo(np.float32).max) / 8

_BUNDLE_FILES = ("binary_kernel", "binary_bias", "class_kernel", "class_bias")


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
    """One thread's RoIAlign working arrays, kept from call to call until
    release_scratch drops them.

    Allocated afresh on every call, arrays this large go back to the system
    when freed and fault their pages in again on the next call: glibc keeps
    them only after it has freed some larger buffer, as a fresh process has
    not. run_corpus keeps them for one run's scenes and releases them when
    the run returns.
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


def release_scratch() -> None:
    """Drop the calling thread's RoIAlign scratch; the next call allocates it afresh."""
    _scratch.buffers.clear()


def _nonzero_extents(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each (H, W) plane's first and last column and row holding a cell with
    a nonzero bit (NaN, +-inf and -0.0 count), as two (axis, plane, 1) arrays,
    x first; an empty plane's run from past the map to before it, so no box
    meets them."""
    nch, h, w = planes.shape
    bits = planes.view(np.uint32)
    first = np.empty((2, nch, 1), dtype=np.intp)
    last = np.empty_like(first)
    for axis, (size, across) in enumerate(((w, 1), (h, 2))):
        nonzero = np.bitwise_or.reduce(bits, axis=across) != 0
        index = np.arange(size)
        first[axis] = np.where(nonzero, index, size).min(axis=1, keepdims=True)
        last[axis] = np.where(nonzero, index, -1).max(axis=1, keepdims=True)
    return first, last


def roi_align_batch(feat: np.ndarray, boxes: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """RoIAlign a (D, H, W) feature map over N boxes, on the listed channels only.

    Returns (N, L, 7, 7) float32 pooled over the L ascending `channels`:
    those of the map that may hold data, as `OracleBundle` lists them. Every
    other channel is all zeros and would pool to exact zeros.

    Box coordinates are image pixels and get divided by `STRIDE` into
    feature coordinates, where cell (r, c) sits at continuous position
    (c, r). Every output bin averages 4 bilinear samples at the bin's
    quarter-points; bilinear taps outside the feature extent read 0.
    Degenerate (zero-area) boxes produce all-zero output.

    Each listed channel's whole map is copied once into an (L, H + 2, W + 2)
    array whose edge cells repeat one step outward, so a sample's four taps
    are four fixed offsets from one index into it, and scanned once for the
    first and last rows and columns holding a cell with a nonzero bit. A box
    reaches a channel when the cells its taps can read meet that rectangle;
    only those (box, channel) pairs are pooled. Any other pair reads zero
    cells with finite weights >= 0 and keeps its exact +0.0, but a box with
    a non-finite feature coordinate, or one beyond int64, can weigh its taps
    with NaN and reaches every listed channel. The pairs are pooled
    channel-major in chunks of at most ROI_CHUNK, and every working array of
    a chunk keeps the pair axis innermost: sample positions, floors and tap
    weights are (2, 14, m), the tap index, one tap's weights and the samples
    (14, 14, m) and the bins (7, 7, m), so each broadcast runs along the
    chunk's m pairs and each tap is one gather from the flattened copy. The
    chunk arrays come from a per-thread scratch kept from call to call.
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

    # The listed channels' maps with their edge cells repeated one step
    # outward. A sample's four taps are then the padded cells i, i + 1,
    # i + pw and i + pw + 1, where i is the sample's floor(y), floor(x)
    # clipped to [-1, extent - 1] and shifted by one: each tap reads the
    # cell that clipping the tap itself into the map would read.
    pw = w + 2
    cells = (h + 2) * pw
    padded = np.empty((nch, h + 2, pw), dtype=np.float32)
    for plane, c in zip(padded, channels):
        plane[1:-1, 1:-1] = feat[c]
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]
    padded[:, :, 0] = padded[:, :, 1]
    padded[:, :, -1] = padded[:, :, -2]
    flat = padded.reshape(-1)

    first, last = _nonzero_extents(padded[:, 1:-1, 1:-1])
    # A box reaches a channel when the cells its taps can read, floor(lo) to
    # floor(hi) + 1 per axis clipped into the map, meet its rectangle:
    # (channel, box). A box whose floors do not fit an int64 reaches every
    # channel, since its tap weights can be NaN.
    fb = boxes.T.take(idx_live, axis=1) / STRIDE  # x1, y1, x2, y2 rows
    span = np.floor(fb)
    span[2:] += 1
    np.minimum(np.maximum(span, 0, out=span), np.array([w - 1, h - 1] * 2)[:, None], out=span)
    reach = (span[:2, None] <= last) & (span[2:, None] >= first)
    reach = reach[0] & reach[1]
    reach |= ~(np.abs(fb) < 2.0**63).all(axis=0)
    pair_ch, pair_box = np.nonzero(reach)

    # sample positions within a bin: quarter and three-quarter points
    frac = ((np.arange(GRID, dtype=np.float64) + 0.5) / 2.0)[:, None]  # 0.25, 0.75, 1.25, ...
    quad = ((0, 0), (0, 1), (1, 0), (1, 1))  # taps, and a bin's samples, in row order
    # the map's extent per axis (x, then y), shaped to broadcast over
    # (axis, sample, pair)
    extent = np.array([w, h]).reshape(2, 1, 1)

    for start in range(0, pair_box.size, ROI_CHUNK):
        box = pair_box[start : start + ROI_CHUNK]
        ch = pair_ch[start : start + ROI_CHUNK]
        m = box.size
        cb = fb[:, box].reshape(2, 2, 1, m)  # (x1, y1), (x2, y2)
        # sample positions per axis, x1 + frac * (x2 - x1) / 7 and alike for y
        pos = _scratch.take("pos", (2, GRID, m), np.float64)
        np.multiply((cb[1] - cb[0]) / POOL_SIZE, frac, out=pos)
        pos += cb[0]
        # each sample's floor, and the fraction past it in pos
        low = _scratch.take("low", (2, GRID, m), np.int64)
        w0 = _scratch.take("w0", (2, GRID, m), np.float64)
        np.copyto(low, np.floor(pos, out=w0), casting="unsafe")
        pos -= low
        # tap weights in float64, zero outside the map; cast to float32 they
        # keep the tap products single-precision like the features
        np.subtract(1.0, pos, out=w0)
        w0 *= (low >= 0) & (low < extent)
        w1 = pos
        w1 *= (low >= -1) & (low < extent - 1)
        # clipped before the shift, so the cast of a non-finite sample cannot wrap
        np.clip(low, -1, extent - 1, out=low)
        low += 1
        low[0] += ch * cells
        # (y sample, x sample, pair): each sample's index into its pair's
        # channel of flat
        lin = _scratch.take("lin", (GRID, GRID, m), np.intp)
        np.multiply(low[1, :, None], pw, out=lin)
        lin += low[0]
        # each axis's weights of its low and high tap
        wx, wy = zip(w0, w1)

        # each tap's float32 products, added to the first tap's in tap order
        weights = _scratch.take("weights", (GRID, GRID, m))
        acc = _scratch.take("acc", (GRID, GRID, m))
        tap = _scratch.take("tap", (GRID, GRID, m))
        for t, (dy, dx) in enumerate(quad):
            np.multiply(wy[dy][:, None], wx[dx], out=weights)
            vals = tap if t else acc
            # indices are in range by construction; mode="raise" would
            # stage out= through a copy
            np.take(flat[dy * pw + dx :], lin, out=vals, mode="clip")
            vals *= weights
            if t:
                acc += vals

        # Average each bin's 2x2 samples, added to +0 in row order, so a
        # pair pools the same bits whatever else its batch holds.
        samples = acc.reshape(POOL_SIZE, 2, POOL_SIZE, 2, m)
        pooled = _scratch.take("pooled", (POOL_SIZE, POOL_SIZE, m))
        pooled.fill(0.0)
        for i, j in quad:
            pooled += samples[:, i, :, j]
        pooled /= 4
        out[idx_live[box], ch] = pooled.transpose(2, 0, 1)
    return out


def objectness_bound(
    feat: np.ndarray, boxes: np.ndarray, channels: np.ndarray, kernel: np.ndarray
) -> np.ndarray:
    """An upper bound, (N,) float64, on each box's bias-free binary logit,
    `_logits(roi_align_batch(feat, boxes, channels), channels, kernel)[:, 0]`.

    Takes `roi_align_batch`'s arguments and a finite (1, D, 7, 7) kernel.
    Each pooled bin is an average of bilinear samples whose weights are >= 0
    and sum to 1, so its magnitude is at most top, the channel's largest
    |value|. It is exactly zero when the cells the bin's taps read, floor of
    its first sample to floor of its last plus one per axis, miss the
    channel's nonzero rectangle. So the bound is the sum over channels of
    top times the |kernel| entries of the bins whose column and row tap
    ranges both meet the rectangle: two 7-vectors per axis, box and channel,
    and one (7, 7) @ (7, N) product per channel. The tap ranges are widened
    by one cell, and top by a relative 1e-4 and an absolute 2**-140, so that
    no float rounding of the pooling or of the logit's sums can lift the
    logit above the bound.

    A degenerate box pools zeros and is bounded by 0. A box whose floors do
    not fit an int64 can weigh its taps with NaN, and a listed channel that
    holds NaN, infinity or a value whose pooling could overflow float32
    (above float32's max / 8) bounds nothing: such boxes, or every live box,
    get +inf.
    """
    feat = np.asarray(feat, dtype=np.float32)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    channels = np.asarray(channels, dtype=np.intp)
    live = np.flatnonzero((boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1]))
    bound = np.zeros(boxes.shape[0])
    if channels.size == 0:
        return bound
    planes = feat[channels]
    first, last = (ends.astype(np.float64)[..., None] for ends in _nonzero_extents(planes))
    top = np.abs(planes, out=planes).max(axis=(1, 2)).astype(np.float64)
    if not (top <= POOL_LIMIT).all():
        bound[live] = np.inf
        return bound
    fb = boxes.T.take(live, axis=1) / STRIDE  # x1, y1, x2, y2 rows
    tame = (np.abs(fb) < 2.0**63).all(axis=0)
    bound[live[~tame]] = np.inf
    cb = fb[:, tame].reshape(2, 2, 1, -1)  # (x1, y1), (x2, y2)
    # sample positions per axis as roi_align_batch computes them, (axis, sample, box)
    pos = (cb[1] - cb[0]) / POOL_SIZE * ((np.arange(GRID) + 0.5) / 2.0)[:, None] + cb[0]
    lo = np.floor(pos[:, 0::2]) - 1
    hi = np.floor(pos[:, 1::2]) + 2
    # (axis, channel, bin, box): the bin's widened tap range meets the rectangle
    meets = (lo[:, None] <= last) & (hi[:, None] >= first)
    # per channel, |kernel| summed over the bin rows that meet, (channel, column, box)
    k_abs = np.abs(kernel[0, channels]).astype(np.float64)
    cols = np.matmul(k_abs.transpose(0, 2, 1), meets[1].astype(np.float64))
    cols *= meets[0]
    # a channel of zeros (top 0) pools exact zeros wherever its bits sit
    pooled_max = np.where(top > 0, top * (1 + 1e-4) + 2.0**-140, 0.0)
    bound[live[tame]] = pooled_max @ cols.sum(axis=1)
    return bound


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
