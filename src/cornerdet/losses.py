"""Training losses: proposal objectness, per-class focal form, corner
detection and offset terms, and their unweighted total.

Conventions shared by every loss here:

- predictions are probabilities strictly inside (0, 1); values outside are
  an argument error, and survivors are clamped to [1e-7, 1 - 1e-7] before
  any logarithm purely for numerical safety;
- positives are decided by max-IoU against ground truth at threshold TAU
  (0.7), and the positive-count normalizer is clamped to 1 when a batch
  has no positives;
- scalar reductions use exactly rounded summation, so every loss value is
  invariant under permutation of its inputs.

The ``*_grad`` companions return analytic derivatives with respect to the
predictions, suitable for finite-difference verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cornerdet.geometry import BBox, GroundTruth, iou

EPS = 1e-7
# positive IoU threshold, and the focal exponents of the objectness and class losses
TAU = 0.7
ALPHA = 2.0
BETA = 2.0


@dataclass(frozen=True)
class ProposalLabel:
    """Max-IoU labels for one proposal: overall and per class."""

    iou_max: float
    per_class: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.per_class) > self.iou_max):
            raise ValueError("per-class IoU maxima cannot exceed the overall maximum")


def label_proposals(
    boxes: list[BBox], gts: list[GroundTruth], num_classes: int
) -> list[ProposalLabel]:
    """Compute ProposalLabel entries for proposal boxes against ground truth."""
    labels = []
    for box in boxes:
        per_class = np.zeros(num_classes, dtype=np.float64)
        for gt in gts:
            v = iou(box, gt.box)
            if v > per_class[gt.class_id]:
                per_class[gt.class_id] = v
        labels.append(ProposalLabel(iou_max=float(per_class.max(initial=0.0)), per_class=per_class))
    return labels


def _check_probs(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.size and (p.min() <= 0.0 or p.max() >= 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return np.clip(p, EPS, 1.0 - EPS)


def loss_prop(p, labels: list[ProposalLabel]) -> float:
    """Focal objectness loss over M proposals.

    Positives (max IoU >= TAU) contribute (1-p)^ALPHA * log(p), negatives
    p^ALPHA * log(1-p); the sum is negated and divided by the positive
    count (at least 1).
    """
    p = _check_probs(p, "p")
    if p.shape != (len(labels),):
        raise ValueError("p and labels must have matching length")
    pos = np.array([lab.iou_max >= TAU for lab in labels])
    n = max(1, int(pos.sum()))
    terms = np.where(
        pos,
        (1.0 - p) ** ALPHA * np.log(p),
        p**ALPHA * np.log(1.0 - p),
    )
    return -math.fsum(terms.tolist()) / n


def loss_prop_grad(p, labels: list[ProposalLabel]) -> np.ndarray:
    """d(loss_prop)/dp, elementwise over the M proposals."""
    p = _check_probs(p, "p")
    pos = np.array([lab.iou_max >= TAU for lab in labels])
    n = max(1, int(pos.sum()))
    grad_pos = -ALPHA * (1.0 - p) ** (ALPHA - 1.0) * np.log(p) + (1.0 - p) ** ALPHA / p
    grad_neg = ALPHA * p ** (ALPHA - 1.0) * np.log(1.0 - p) - p**ALPHA / (1.0 - p)
    return -np.where(pos, grad_pos, grad_neg) / n


def loss_class(q, labels: list[ProposalLabel]) -> float:
    """Per-class focal loss over survived proposals, an (M, C) matrix.

    Element (m, c) is positive when the proposal's max IoU against class-c
    ground truths reaches TAU. Normalized by the positive element count
    (at least 1).
    """
    q = _check_probs(q, "q")
    if q.ndim != 2 or q.shape[0] != len(labels):
        raise ValueError("q must be (M, C) with one row per label")
    pos = np.stack([np.asarray(lab.per_class) >= TAU for lab in labels])
    if pos.shape != q.shape:
        raise ValueError("per-class label width must match C")
    n = max(1, int(pos.sum()))
    terms = np.where(
        pos,
        (1.0 - q) ** BETA * np.log(q),
        q**BETA * np.log(1.0 - q),
    )
    return -math.fsum(terms.ravel().tolist()) / n


def loss_class_grad(q, labels: list[ProposalLabel]) -> np.ndarray:
    """d(loss_class)/dq, elementwise over the (M, C) matrix."""
    q = _check_probs(q, "q")
    pos = np.stack([np.asarray(lab.per_class) >= TAU for lab in labels])
    n = max(1, int(pos.sum()))
    grad_pos = -BETA * (1.0 - q) ** (BETA - 1.0) * np.log(q) + (1.0 - q) ** BETA / q
    grad_neg = BETA * q ** (BETA - 1.0) * np.log(1.0 - q) - q**BETA / (1.0 - q)
    return -np.where(pos, grad_pos, grad_neg) / n


def loss_corner_det(pred: np.ndarray, target: np.ndarray) -> float:
    """Penalty-reduced focal loss for corner heatmaps.

    Cells where target == 1 are positives with term (1-p)^2 * log(p); all
    other cells contribute (1-t)^4 * p^2 * log(1-p), so near-peak cells are
    down-weighted. Normalized by the positive count (at least 1).
    """
    pred = _check_probs(pred, "pred")
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError("pred and target shapes must match")
    if target.min() < 0.0 or target.max() > 1.0:
        raise ValueError("target values must lie in [0, 1]")
    pos = target == 1.0
    n = max(1, int(pos.sum()))
    terms = np.where(
        pos,
        (1.0 - pred) ** 2 * np.log(pred),
        (1.0 - target) ** 4 * pred**2 * np.log(1.0 - pred),
    )
    return -math.fsum(terms.ravel().tolist()) / n


def loss_corner_det_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(loss_corner_det)/dpred, elementwise."""
    pred = _check_probs(pred, "pred")
    target = np.asarray(target, dtype=np.float64)
    pos = target == 1.0
    n = max(1, int(pos.sum()))
    grad_pos = -2.0 * (1.0 - pred) * np.log(pred) + (1.0 - pred) ** 2 / pred
    grad_neg = (1.0 - target) ** 4 * (
        2.0 * pred * np.log(1.0 - pred) - pred**2 / (1.0 - pred)
    )
    return -np.where(pos, grad_pos, grad_neg) / n


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
