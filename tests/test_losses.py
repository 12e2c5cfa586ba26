import math

import numpy as np
import pytest

from cornerdet.geometry import TRUTH_DTYPE
from cornerdet.losses import (
    LossBreakdown,
    label_proposals,
    loss_class,
    loss_class_grad,
    loss_corner_det,
    loss_corner_det_grad,
    loss_corner_offset,
    loss_prop,
    loss_prop_grad,
    loss_total,
)
from oracles import central_difference, iou_xyxy, relative_gradient_error


class TestLossProp:
    def test_perfect_confidence_limit(self):
        labels = np.array([0.9])
        values = [loss_prop(np.array([1.0 - eps]), labels) for eps in (1e-2, 1e-4, 1e-6)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-5

    def test_single_positive_half(self):
        labels = np.array([0.9])
        got = loss_prop(np.array([0.5]), labels)
        assert got == pytest.approx(0.25 * math.log(2.0), rel=1e-12)

    def test_negative_term(self):
        labels = np.array([0.1])
        got = loss_prop(np.array([0.5]), labels)
        # no positives: normalizer clamps to 1
        assert got == pytest.approx(0.25 * math.log(2.0), rel=1e-12)

    def test_out_of_range_rejected(self):
        labels = np.array([0.9])
        for bad in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                loss_prop(np.array([bad]), labels)

    def test_monotone_in_predictions(self):
        pos = np.array([0.8])
        neg = np.array([0.2])
        grid = np.linspace(0.05, 0.95, 30)
        pos_losses = [loss_prop(np.array([p]), pos) for p in grid]
        neg_losses = [loss_prop(np.array([p]), neg) for p in grid]
        assert all(a > b for a, b in zip(pos_losses, pos_losses[1:]))
        assert all(a < b for a, b in zip(neg_losses, neg_losses[1:]))

    def test_permutation_invariant_exactly(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.05, 0.95, 12)
        labels = rng.uniform(0, 1, 12)
        base = loss_prop(p, labels)
        perm = rng.permutation(12)
        assert loss_prop(p[perm], labels[perm]) == base

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(1, 9))
            p = rng.uniform(0.1, 0.9, m)
            labels = rng.uniform(0, 1, m)
            analytic = loss_prop_grad(p, labels)
            numeric = central_difference(lambda x: loss_prop(x, labels), p.copy())
            assert relative_gradient_error(analytic, numeric) < 1e-4


class TestLossClass:
    def test_hand_example(self):
        labels = np.array([[0.9, 0.0]])
        q = np.array([[0.5, 0.5]])
        got = loss_class(q, labels)
        assert got == pytest.approx(2 * 0.25 * math.log(2.0), rel=1e-12)

    def test_perfect_predictions(self):
        labels = np.array([[0.9, 0.0]])
        q = np.array([[1.0 - 1e-7, 1e-7]])
        assert loss_class(q, labels) < 1e-10

    def test_out_of_range_rejected(self):
        labels = np.array([[0.9, 0.0]])
        for bad in (1.2, float("nan")):
            with pytest.raises(ValueError):
                loss_class(np.array([[bad, 0.5]]), labels)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            m = int(rng.integers(1, 9))
            c = int(rng.integers(1, 5))
            q = rng.uniform(0.1, 0.9, (m, c))
            labels = rng.uniform(0, 1, (m, c))
            analytic = loss_class_grad(q, labels)
            numeric = central_difference(lambda x: loss_class(x, labels), q.copy())
            assert relative_gradient_error(analytic, numeric) < 1e-4

    def test_permutation_invariant_exactly(self):
        rng = np.random.default_rng(6)
        q = rng.uniform(0.05, 0.95, (9, 3))
        labels = rng.uniform(0, 1, (9, 3))
        base = loss_class(q, labels)
        perm = rng.permutation(9)
        assert loss_class(q[perm], labels[perm]) == base


class TestLossCornerDet:
    def test_near_perfect(self):
        target = np.zeros((1, 4, 4))
        target[0, 1, 1] = 1.0
        pred = np.full((1, 4, 4), 1e-7)
        pred[0, 1, 1] = 1.0 - 1e-7
        assert loss_corner_det(pred, target) < 1e-10

    def test_single_positive_half(self):
        target = np.zeros((1, 3, 3))
        target[0, 0, 0] = 1.0
        pred = np.full((1, 3, 3), 1e-7)
        pred[0, 0, 0] = 0.5
        got = loss_corner_det(pred, target)
        assert got == pytest.approx(0.25 * math.log(2.0), rel=1e-6)

    def test_penalty_reduction_downweights_near_peak(self):
        target = np.zeros((1, 1, 2))
        target[0, 0, 1] = 0.9  # near-peak cell
        far = np.zeros((1, 1, 2))
        pred = np.full((1, 1, 2), 0.3)
        # same predictions, higher target => smaller negative penalty
        assert loss_corner_det(pred, target) < loss_corner_det(pred, far)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            c = int(rng.integers(1, 4))
            target = np.zeros((c, 8, 8))
            for _ in range(int(rng.integers(1, 5))):
                target[rng.integers(c), rng.integers(8), rng.integers(8)] = 1.0
            tails = rng.uniform(0, 0.95, target.shape)
            target = np.maximum(target, np.where(rng.random(target.shape) < 0.3, tails, 0.0))
            target[target < 1.0] *= 0.99  # keep non-peak cells strictly below 1
            pred = rng.uniform(0.1, 0.9, target.shape)
            analytic = loss_corner_det_grad(pred, target)
            numeric = central_difference(lambda x: loss_corner_det(x, target), pred.copy())
            assert relative_gradient_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize(
        "pred, target, message",
        [
            (np.full((1, 2, 2), 0.5), np.zeros((1, 2, 1)), "pred and target shapes must match"),
            (np.full((1, 2, 2), 0.5), np.full((1, 2, 2), 2.0), r"target values must lie in \[0, 1\]"),
            (np.full((1, 2, 2), 0.5), np.full((1, 2, 2), np.nan), r"target values must lie in \[0, 1\]"),
            (np.full((1, 2, 2), np.nan), np.zeros((1, 2, 2)), r"pred must lie strictly inside \(0, 1\)"),
        ],
        ids=["shape", "target-2", "target-nan", "pred-nan"],
    )
    def test_bad_input_rejected_by_loss_and_gradient(self, pred, target, message):
        for loss in (loss_corner_det, loss_corner_det_grad):
            with pytest.raises(ValueError, match=message):
                loss(pred, target)

    def test_empty_input(self):
        empty = np.zeros((1, 0, 3))
        assert loss_corner_det(empty, empty) == 0.0


class TestLossCornerOffset:
    def test_zero_error(self):
        off = np.random.default_rng(0).random((2, 4, 4))
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        assert loss_corner_offset(off, off, mask) == 0.0

    def test_half_error_both_planes(self):
        pred = np.zeros((2, 4, 4))
        target = np.zeros((2, 4, 4))
        target[:, 2, 2] = 0.5
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 2] = True
        assert loss_corner_offset(pred, target, mask) == pytest.approx(0.25)

    def test_large_error_linear_branch(self):
        pred = np.zeros((2, 1, 1))
        target = np.full((2, 1, 1), 2.5)
        mask = np.ones((1, 1), dtype=bool)
        # smooth-L1(2.5) = 2.0 per plane
        assert loss_corner_offset(pred, target, mask) == pytest.approx(4.0)

    def test_empty_mask(self):
        zeros = np.zeros((2, 3, 3))
        assert loss_corner_offset(zeros, zeros, np.zeros((3, 3), dtype=bool)) == 0.0

    def test_normalized_by_cell_count(self):
        pred = np.zeros((2, 2, 2))
        target = np.full((2, 2, 2), 0.5)
        mask = np.ones((2, 2), dtype=bool)
        assert loss_corner_offset(pred, target, mask) == pytest.approx(0.25)


class TestLossTotal:
    def test_all_zero(self):
        assert loss_total(0.0, 0.0, 0.0, 0.0).total == 0.0

    def test_arithmetic(self):
        bd = loss_total(1.0, 2.0, 3.0, 4.0)
        assert bd.total == 10.0
        assert bd.l_prop == 3.0

    def test_breakdown_invariant_random(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            parts = rng.uniform(0, 10, 4)
            bd = loss_total(*parts)
            assert bd.total == math.fsum(parts)
            assert bd.total == math.fsum(
                (bd.l_det_corner, bd.l_offset_corner, bd.l_prop, bd.l_class)
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            loss_total(1.0, float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            loss_total(float("inf"), 0.0, 0.0, 0.0)


def test_label_proposals():
    truth = np.array([(0, 0, (0, 0, 10, 10)), (0, 1, (20, 20, 30, 30))], dtype=TRUTH_DTYPE)
    labels = label_proposals(np.array([[0, 0, 10, 10], [21, 21, 30, 30]]), truth, 3)
    assert labels.shape == (2, 3)
    assert labels.max(axis=1)[0] == 1.0
    assert labels[0, 0] == 1.0 and labels[0, 1] == 0.0
    assert labels[1, 1] == pytest.approx(81 / 100) and labels[1, 0] == 0.0
    assert not labels[:, 2].any()


def test_label_proposals_matches_scalar_iou():
    rng = np.random.default_rng(21)
    corners = rng.uniform(0, 50, (12, 2))
    sizes = rng.uniform(1, 30, (12, 2))
    boxes = np.hstack([corners, corners + sizes])
    truth = np.zeros(5, dtype=TRUTH_DTYPE)
    truth["box"], truth["class_id"] = boxes[7:], [0, 2, 2, 0, 2]
    labels = label_proposals(boxes[:7], truth, 3)
    for m, box in enumerate(boxes[:7]):
        for c in range(3):
            ious = [iou_xyxy(box, t) for _, k, t in truth.tolist() if k == c]
            assert labels[m, c] == max(ious, default=0.0)


def test_losses_nonnegative_random():
    rng = np.random.default_rng(55)
    for _ in range(30):
        m = int(rng.integers(1, 8))
        iou_max = rng.uniform(0, 1, m)
        assert loss_prop(rng.uniform(0.01, 0.99, m), iou_max) >= 0.0
        q = rng.uniform(0.01, 0.99, (m, 2))
        assert loss_class(q, np.column_stack([iou_max, iou_max])) >= 0.0


@pytest.mark.parametrize(
    "loss, pred, ious",
    [
        (loss_prop, np.full(3, 0.5), np.zeros(2)),
        (loss_prop_grad, np.full(3, 0.5), np.zeros(2)),
        (loss_prop, np.full((3, 1), 0.5), np.zeros((3, 1))),
        (loss_class, np.full((3, 2), 0.5), np.zeros((3, 3))),
        (loss_class_grad, np.full((3, 2), 0.5), np.zeros((3, 3))),
        (loss_class, np.full(3, 0.5), np.zeros(3)),
    ],
)
def test_label_shape_mismatch_rejected(loss, pred, ious):
    with pytest.raises(ValueError, match="with the shape of its IoU labels"):
        loss(pred, ious)


@pytest.mark.parametrize("loss", [loss_prop, loss_prop_grad])
def test_nan_label_rejected(loss):
    # a NaN label fails the TAU test, and would otherwise count as a negative
    with pytest.raises(ValueError, match=r"IoU labels must lie in \[0, 1\]"):
        loss(np.array([0.5, 0.5]), np.array([np.nan, 0.1]))
