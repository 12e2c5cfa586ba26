import math

import numpy as np
import pytest

from cornerdet.corners import KEYPOINT_DTYPE
from cornerdet.proposals import (
    BOX_DTYPE,
    HeadWeights,
    binary_scores,
    class_scores,
    enumerate_proposals,
    roi_align_batch,
)
from oracles import naive_head_score, naive_pairs, naive_roi_align


def keypoints(*rows):
    """Keypoints from (class_id, x, y, score) rows."""
    return np.array(list(rows), dtype=KEYPOINT_DTYPE)


def random_keypoints(rng, count, num_classes=3):
    return keypoints(
        *[
            (
                int(rng.integers(num_classes)),
                float(rng.uniform(0, 500)),
                float(rng.uniform(0, 500)),
                float(rng.random()),
            )
            for _ in range(count)
        ]
    )


def pair_indices(tls, brs, props) -> list[tuple[int, int]]:
    """(tl index, br index) of each proposal, found through its box corners.

    Needs keypoints at distinct positions, which random ones have.
    """
    tl_at = {xy: i for i, xy in enumerate(zip(tls["x"].tolist(), tls["y"].tolist()))}
    br_at = {xy: j for j, xy in enumerate(zip(brs["x"].tolist(), brs["y"].tolist()))}
    assert len(tl_at) == len(tls) and len(br_at) == len(brs)
    return [(tl_at[(x1, y1)], br_at[(x2, y2)]) for x1, y1, x2, y2 in props["box"].tolist()]


class TestEnumerateProposals:
    def test_empty(self):
        props = enumerate_proposals(keypoints(), keypoints())
        assert len(props) == 0 and props.dtype == BOX_DTYPE

    def test_two_by_two_example(self):
        tls = keypoints((0, 0, 0, 0.9), (1, 10, 10, 0.8))
        brs = keypoints((0, 50, 50, 0.6), (1, 5, 5, 0.7))
        props = enumerate_proposals(tls, brs)
        assert len(props) == 1
        (p,) = props
        assert p["class_id"] == 0
        assert tuple(p["box"]) == (0, 0, 50, 50)
        assert p["score"] == pytest.approx(0.75)

    def test_order_and_validity(self):
        rng = np.random.default_rng(5)
        tls = random_keypoints(rng, 30)
        brs = random_keypoints(rng, 30)
        props = enumerate_proposals(tls, brs)
        assert len(props) <= len(tls) * len(brs)
        pairs = pair_indices(tls, brs, props)
        assert pairs == sorted(pairs)
        for p, (i, j) in zip(props, pairs):
            assert tls[i]["class_id"] == brs[j]["class_id"] == p["class_id"]
            assert tls[i]["x"] < brs[j]["x"] and tls[i]["y"] < brs[j]["y"]
            assert p["score"] == (tls[i]["score"] + brs[j]["score"]) / 2.0

    def test_matches_naive_filter(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(1, 25))
            tls = random_keypoints(rng, k)
            brs = random_keypoints(rng, k)
            got = pair_indices(tls, brs, enumerate_proposals(tls, brs))
            assert got == naive_pairs(tls, brs)

    def test_all_pairs_valid_yields_full_product(self):
        tls = keypoints((0, 0, 0, 0.5), (0, 1, 1, 0.5))
        brs = keypoints((0, 10, 10, 0.5), (0, 20, 20, 0.5))
        assert len(enumerate_proposals(tls, brs)) == 4


class TestRoiAlign:
    def test_constant_map(self):
        feat = np.full((3, 20, 20), 2.5, dtype=np.float32)
        out = roi_align_batch(feat, np.array([8.0, 8, 60, 44])[None])[0]
        assert out.shape == (3, 7, 7)
        assert np.allclose(out, 2.5, atol=1e-6)

    def test_horizontal_ramp_matches_oracle(self):
        h = w = 24
        feat = np.tile(np.arange(w, dtype=np.float32), (h, 1))[None]
        for box in np.array([[10, 12, 70, 50], [0, 0, 96, 96], [33.5, 7.25, 60.0, 90.0]]):
            got = roi_align_batch(feat, box[None])[0]
            want = naive_roi_align(feat, box)
            assert np.max(np.abs(got - want)) < 1e-5

    def test_zero_area_box(self):
        feat = np.ones((2, 10, 10), dtype=np.float32)
        assert not roi_align_batch(feat, np.array([[5.0, 5, 5, 9], [2, 3, 8, 3]])).any()

    def test_partially_outside(self):
        rng = np.random.default_rng(23)
        feat = rng.standard_normal((2, 12, 12)).astype(np.float32)
        for box in np.array([[-30, -20, 20, 20], [30, 30, 90, 70], [-100, -100, 300, 300.0]]):
            got = roi_align_batch(feat, box[None])[0]
            want = naive_roi_align(feat, box)
            assert np.max(np.abs(got - want)) < 1e-5

    def test_linearity(self):
        rng = np.random.default_rng(31)
        box = np.array([[5.0, 9, 40, 37]])
        for _ in range(10):
            f = rng.standard_normal((2, 14, 14)).astype(np.float32)
            g = rng.standard_normal((2, 14, 14)).astype(np.float32)
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            lhs = roi_align_batch((a * f + b * g).astype(np.float32), box)
            rhs = a * roi_align_batch(f, box) + b * roi_align_batch(g, box)
            assert np.allclose(lhs, rhs, atol=1e-4)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(37)
        feat = rng.standard_normal((4, 16, 16)).astype(np.float32)
        boxes = rng.uniform(0, 60, (12, 4))
        boxes[:, 2:] = boxes[:, :2] + rng.uniform(1, 30, (12, 2))
        batch = roi_align_batch(feat, boxes)
        for i, row in enumerate(boxes):
            single = roi_align_batch(feat, row[None])[0]
            assert np.array_equal(batch[i], single)


class TestHeads:
    def test_zero_features_initial_bias(self):
        rng = np.random.default_rng(1)
        w = HeadWeights.initial(3, rng)
        p = binary_scores(np.zeros((1, 32, 7, 7), dtype=np.float32), w)[0]
        assert p == pytest.approx(0.1006, abs=2e-4)  # sigmoid(-2.19), the 0.1 prior
        q = class_scores(np.zeros((1, 256, 7, 7), dtype=np.float32), w)[0]
        assert np.allclose(q, 1.0 / (1.0 + math.exp(2.19)))

    def test_zero_kernel_zero_bias(self):
        w = HeadWeights(
            binary_kernel=np.zeros((1, 32, 7, 7), dtype=np.float32),
            binary_bias=0.0,
            class_kernel=np.zeros((2, 256, 7, 7), dtype=np.float32),
            class_bias=np.zeros(2, dtype=np.float32),
        )
        assert binary_scores(np.zeros((1, 32, 7, 7), dtype=np.float32), w)[0] == 0.5

    def test_binary_matches_naive_dot(self):
        rng = np.random.default_rng(9)
        w = HeadWeights.initial(2, rng)
        for _ in range(20):
            pooled = rng.standard_normal((32, 7, 7)).astype(np.float32)
            got = binary_scores(pooled[None], w)[0]
            want = naive_head_score(pooled, w.binary_kernel[0], w.binary_bias)
            assert got == pytest.approx(want, abs=1e-6)

    def test_class_matches_naive_dot(self):
        rng = np.random.default_rng(13)
        w = HeadWeights.initial(4, rng)
        pooled = rng.standard_normal((256, 7, 7)).astype(np.float32)
        q = class_scores(pooled[None], w)[0]
        for c in range(4):
            want = naive_head_score(pooled, w.class_kernel[c], float(w.class_bias[c]))
            assert q[c] == pytest.approx(want, abs=1e-6)

    def test_single_class_reduces_to_binary_semantics(self):
        rng = np.random.default_rng(21)
        w = HeadWeights.initial(1, rng)
        pooled = rng.standard_normal((256, 7, 7)).astype(np.float32)
        q = class_scores(pooled[None], w)[0]
        assert q.shape == (1,)
        want = naive_head_score(pooled, w.class_kernel[0], float(w.class_bias[0]))
        assert q[0] == pytest.approx(want, abs=1e-6)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(29)
        w = HeadWeights.initial(3, rng)
        pooled = rng.standard_normal((50, 32, 7, 7)).astype(np.float32)
        p = binary_scores(pooled, w)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        w = HeadWeights.initial(2, rng)
        with pytest.raises(ValueError):
            binary_scores(np.zeros((1, 16, 7, 7), dtype=np.float32), w)
        with pytest.raises(ValueError):
            class_scores(np.zeros((1, 32, 7, 7), dtype=np.float32), w)

    def test_bundle_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        w = HeadWeights.initial(3, rng)
        w.save_bundle(tmp_path / "weights")
        for name in ("binary_kernel", "binary_bias", "class_kernel", "class_bias"):
            assert (tmp_path / "weights" / name).exists()
        back = HeadWeights.load_bundle(tmp_path / "weights")
        assert np.array_equal(back.binary_kernel, w.binary_kernel)
        assert back.binary_bias == pytest.approx(w.binary_bias)
        assert np.array_equal(back.class_kernel, w.class_kernel)
        assert np.array_equal(back.class_bias, w.class_bias)
