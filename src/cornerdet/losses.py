"""Training losses: proposal objectness, per-class focal form, corner
detection and offset terms, and their unweighted total.

Conventions shared by every loss here:

- predictions are probabilities strictly inside (0, 1), and IoU labels and
  corner targets lie in [0, 1]; values outside, NaN among them, are an
  argument error, and predictions are clamped to [1e-7, 1 - 1e-7] before
  any logarithm purely for numerical safety;
- the objectness, class and corner losses are one focal form: positives
  are decided by max-IoU against ground truth at threshold TAU (0.7), or
  by a corner target of exactly 1, and the positive-count normalizer is
  clamped to 1 when a batch has no positives; the corner loss weighs its
  negative terms by (1 - t)^4;
- scalar reductions use exactly rounded summation, so every loss value is
  invariant under permutation of its inputs.

The ``*_grad`` companions return analytic derivatives with respect to the
predictions, suitable for finite-difference verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cornerdet.geometry import iou_matrix

EPS = 1e-7
# positive IoU threshold, and the focal exponents of the objectness and class losses
TAU = 0.7
ALPHA = 2.0
BETA = 2.0


def label_proposals(boxes: np.ndarray, truth: np.ndarray, num_classes: int) -> np.ndarray:
    """Max IoU of each x1y1x2y2 proposal row with the TRUTH_DTYPE rows of
    each class, as (M, C); 0 where a class has no ground truth.

    A row's maximum is the proposal's max IoU over all ground truth.
    """
    ious = iou_matrix(np.asarray(boxes, dtype=np.float64).reshape(-1, 4), truth["box"])
    of_class = truth["class_id"] == np.arange(num_classes)[:, None]
    return np.where(of_class, ious[:, None, :], 0.0).max(axis=2, initial=0.0)


def _check_probs(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if not ((0.0 < p) & (p < 1.0)).all():
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return np.clip(p, EPS, 1.0 - EPS)


def _positives(p, name: str, ious, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The clamped predictions and the mask of those whose IoU label reaches TAU."""
    p = _check_probs(p, name)
    ious = np.asarray(ious, dtype=np.float64)
    if p.ndim != ndim or p.shape != ious.shape:
        raise ValueError(
            f"{name} must be {ndim}-D with the shape of its IoU labels, got {p.shape} and {ious.shape}"
        )
    if not ((0.0 <= ious) & (ious <= 1.0)).all():
        raise ValueError("IoU labels must lie in [0, 1]")
    return p, ious >= TAU


def _corner_positives(pred, target) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The clamped predictions, the peak-cell mask, the exponent 2 and the
    penalty reduction (1 - t)^4 of the negative terms."""
    pred = _check_probs(pred, "pred")
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError("pred and target shapes must match")
    if not ((0.0 <= target) & (target <= 1.0)).all():
        raise ValueError("target values must lie in [0, 1]")
    return pred, target == 1.0, 2.0, (1.0 - target) ** 4


def _focal(p: np.ndarray, pos: np.ndarray, gamma: float, weight=1.0) -> float:
    """Positives contribute (1-p)^gamma * log(p), the rest weight * p^gamma * log(1-p);
    the sum is negated and divided by the positive count (at least 1)."""
    terms = np.where(pos, (1.0 - p) ** gamma * np.log(p), weight * p**gamma * np.log(1.0 - p))
    return -math.fsum(terms.ravel().tolist()) / max(1, int(pos.sum()))


def _focal_grad(p: np.ndarray, pos: np.ndarray, gamma: float, weight=1.0) -> np.ndarray:
    """d(_focal)/dp, elementwise."""
    grad_pos = -gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p) + (1.0 - p) ** gamma / p
    grad_neg = weight * (gamma * p ** (gamma - 1.0) * np.log(1.0 - p) - p**gamma / (1.0 - p))
    return -np.where(pos, grad_pos, grad_neg) / max(1, int(pos.sum()))


def loss_prop(p, iou_max) -> float:
    """Focal objectness loss over M proposals with exponent ALPHA.

    `iou_max` holds each proposal's max IoU with the ground truth, the row
    maxima of label_proposals; a proposal is positive at TAU or more.
    """
    return _focal(*_positives(p, "p", iou_max, 1), ALPHA)


def loss_prop_grad(p, iou_max) -> np.ndarray:
    """d(loss_prop)/dp, elementwise over the M proposals."""
    return _focal_grad(*_positives(p, "p", iou_max, 1), ALPHA)


def loss_class(q, per_class) -> float:
    """Per-class focal loss over survived proposals, an (M, C) matrix, with exponent BETA.

    Element (m, c) is positive when `per_class[m, c]`, the proposal's max
    IoU with class-c ground truth from label_proposals, reaches TAU.
    """
    return _focal(*_positives(q, "q", per_class, 2), BETA)


def loss_class_grad(q, per_class) -> np.ndarray:
    """d(loss_class)/dq, elementwise over the (M, C) matrix."""
    return _focal_grad(*_positives(q, "q", per_class, 2), BETA)


def loss_corner_det(pred: np.ndarray, target: np.ndarray) -> float:
    """Penalty-reduced focal loss for corner heatmaps.

    Cells where target == 1 are positives with term (1-p)^2 * log(p); all
    other cells contribute (1-t)^4 * p^2 * log(1-p), so near-peak cells are
    down-weighted. Normalized by the positive count (at least 1).
    """
    return _focal(*_corner_positives(pred, target))


def loss_corner_det_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(loss_corner_det)/dpred, elementwise."""
    return _focal_grad(*_corner_positives(pred, target))


def _smooth_l1(e: np.ndarray) -> np.ndarray:
    a = np.abs(e)
    return np.where(a < 1.0, 0.5 * e * e, a - 0.5)


def loss_corner_offset(pred_off: np.ndarray, target_off: np.ndarray, mask: np.ndarray) -> float:
    """Smooth-L1 offset loss over ground-truth corner cells.

    `mask` is an (H, W) boolean map of peak cells; both offset planes
    contribute at each masked cell, and the sum is normalized by the masked
    cell count. An empty mask gives 0.
    """
    pred_off = np.asarray(pred_off, dtype=np.float64)
    target_off = np.asarray(target_off, dtype=np.float64)
    if pred_off.shape != target_off.shape or pred_off.ndim != 3 or pred_off.shape[0] != 2:
        raise ValueError("offset maps must both be (2, H, W)")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != pred_off.shape[1:]:
        raise ValueError("mask must be (H, W) matching the offset planes")
    count = int(mask.sum())
    if count == 0:
        return 0.0
    err = _smooth_l1(pred_off[:, mask] - target_off[:, mask])
    return math.fsum(err.ravel().tolist()) / count


@dataclass(frozen=True)
class LossBreakdown:
    """The four loss terms and their unweighted sum."""

    l_det_corner: float
    l_offset_corner: float
    l_prop: float
    l_class: float
    total: float


def loss_total(
    l_det_corner: float, l_offset_corner: float, l_prop: float, l_class: float
) -> LossBreakdown:
    """Combine the four terms; the total is their plain, unweighted sum."""
    parts = (l_det_corner, l_offset_corner, l_prop, l_class)
    if not all(math.isfinite(v) for v in parts):
        raise ValueError(f"loss terms must be finite, got {parts}")
    return LossBreakdown(
        l_det_corner=l_det_corner,
        l_offset_corner=l_offset_corner,
        l_prop=l_prop,
        l_class=l_class,
        total=math.fsum(parts),
    )
