import math

import numpy as np
import pytest

from cornerdet.geometry import BBox, GroundTruth
from cornerdet.losses import (
    LossBreakdown,
    ProposalLabel,
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
from oracles import central_difference, relative_gradient_error


def plabel(iou_max, per_class=None, c=2):
    if per_class is None:
        per_class = np.full(c, iou_max)
    return ProposalLabel(iou_max=iou_max, per_class=np.asarray(per_class, dtype=float))


class TestLossProp:
    def test_perfect_confidence_limit(self):
        labels = [plabel(0.9)]
        values = [loss_prop(np.array([1.0 - eps]), labels) for eps in (1e-2, 1e-4, 1e-6)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-5

    def test_single_positive_half(self):
        labels = [plabel(0.9)]
        got = loss_prop(np.array([0.5]), labels)
        assert got == pytest.approx(0.25 * math.log(2.0), rel=1e-12)

    def test_negative_term(self):
        labels = [plabel(0.1)]
        got = loss_prop(np.array([0.5]), labels)
        # no positives: normalizer clamps to 1
        assert got == pytest.approx(0.25 * math.log(2.0), rel=1e-12)

    def test_out_of_range_rejected(self):
        labels = [plabel(0.9)]
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                loss_prop(np.array([bad]), labels)

    def test_monotone_in_predictions(self):
        pos = [plabel(0.8)]
        neg = [plabel(0.2)]
        grid = np.linspace(0.05, 0.95, 30)
        pos_losses = [loss_prop(np.array([p]), pos) for p in grid]
        neg_losses = [loss_prop(np.array([p]), neg) for p in grid]
        assert all(a > b for a, b in zip(pos_losses, pos_losses[1:]))
        assert all(a < b for a, b in zip(neg_losses, neg_losses[1:]))

    def test_permutation_invariant_exactly(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.05, 0.95, 12)
        labels = [plabel(float(v)) for v in rng.uniform(0, 1, 12)]
        base = loss_prop(p, labels)
        perm = rng.permutation(12)
        assert loss_prop(p[perm], [labels[i] for i in perm]) == base

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(1, 9))
            p = rng.uniform(0.1, 0.9, m)
            labels = [plabel(float(v)) for v in rng.uniform(0, 1, m)]
            analytic = loss_prop_grad(p, labels)
            numeric = central_difference(lambda x: loss_prop(x, labels), p.copy())
            assert relative_gradient_error(analytic, numeric) < 1e-4


class TestLossClass:
    def test_hand_example(self):
        labels = [plabel(0.9, per_class=[0.9, 0.0])]
        q = np.array([[0.5, 0.5]])
        got = loss_class(q, labels)
        assert got == pytest.approx(2 * 0.25 * math.log(2.0), rel=1e-12)

    def test_perfect_predictions(self):
        labels = [plabel(0.9, per_class=[0.9, 0.0])]
        q = np.array([[1.0 - 1e-7, 1e-7]])
        assert loss_class(q, labels) < 1e-10

    def test_out_of_range_rejected(self):
        labels = [plabel(0.9, per_class=[0.9, 0.0])]
        with pytest.raises(ValueError):
            loss_class(np.array([[1.2, 0.5]]), labels)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            m = int(rng.integers(1, 9))
            c = int(rng.integers(1, 5))
            q = rng.uniform(0.1, 0.9, (m, c))
            labels = [
                ProposalLabel(iou_max=1.0, per_class=rng.uniform(0, 1, c)) for _ in range(m)
            ]
            analytic = loss_class_grad(q, labels)
            numeric = central_difference(lambda x: loss_class(x, labels), q.copy())
            assert relative_gradient_error(analytic, numeric) < 1e-4

    def test_permutation_invariant_exactly(self):
        rng = np.random.default_rng(6)
        q = rng.uniform(0.05, 0.95, (9, 3))
        labels = [ProposalLabel(iou_max=1.0, per_class=rng.uniform(0, 1, 3)) for _ in range(9)]
        base = loss_class(q, labels)
        perm = rng.permutation(9)
        assert loss_class(q[perm], [labels[i] for i in perm]) == base


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
    gts = [
        GroundTruth(box=BBox(0, 0, 10, 10), class_id=0),
        GroundTruth(box=BBox(20, 20, 30, 30), class_id=1),
    ]
    labels = label_proposals([BBox(0, 0, 10, 10), BBox(21, 21, 30, 30)], gts, 3)
    assert labels[0].iou_max == 1.0
    assert labels[0].per_class[0] == 1.0 and labels[0].per_class[1] == 0.0
    assert labels[1].per_class[1] > 0.7
    assert labels[1].per_class.max() == labels[1].iou_max


def test_proposal_label_invariant():
    with pytest.raises(ValueError):
        ProposalLabel(iou_max=0.5, per_class=np.array([0.9, 0.1]))


def test_losses_nonnegative_random():
    rng = np.random.default_rng(55)
    for _ in range(30):
        m = int(rng.integers(1, 8))
        labels = [plabel(float(v)) for v in rng.uniform(0, 1, m)]
        assert loss_prop(rng.uniform(0.01, 0.99, m), labels) >= 0.0
        q = rng.uniform(0.01, 0.99, (m, 2))
        assert loss_class(q, labels) >= 0.0
