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
from oracles import frozen_roi_align_batch, naive_head_score, naive_pairs, naive_roi_align


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


def dense_roi_align(feat, boxes):
    """roi_align_batch scattered back onto every channel, (N, D, 7, 7)."""
    pooled, channels = roi_align_batch(feat, boxes)
    out = np.zeros((pooled.shape[0], feat.shape[0]) + pooled.shape[2:], dtype=np.float32)
    out[:, channels] = pooled
    return out


class TestRoiAlign:
    def test_constant_map(self):
        feat = np.full((3, 20, 20), 2.5, dtype=np.float32)
        pooled, channels = roi_align_batch(feat, np.array([8.0, 8, 60, 44])[None])
        assert channels.tolist() == [0, 1, 2]
        assert pooled.shape == (1, 3, 7, 7) and pooled.dtype == np.float32
        assert np.allclose(pooled, 2.5, atol=1e-6)

    def test_horizontal_ramp_matches_oracle(self):
        h = w = 24
        feat = np.tile(np.arange(w, dtype=np.float32), (h, 1))[None]
        for box in np.array([[10, 12, 70, 50], [0, 0, 96, 96], [33.5, 7.25, 60.0, 90.0]]):
            got = dense_roi_align(feat, box[None])[0]
            want = naive_roi_align(feat, box)
            assert np.max(np.abs(got - want)) < 1e-5

    def test_zero_area_box(self):
        feat = np.ones((2, 10, 10), dtype=np.float32)
        assert not dense_roi_align(feat, np.array([[5.0, 5, 5, 9], [2, 3, 8, 3]])).any()

    def test_partially_outside(self):
        rng = np.random.default_rng(23)
        feat = rng.standard_normal((2, 12, 12)).astype(np.float32)
        for box in np.array([[-30, -20, 20, 20], [30, 30, 90, 70], [-100, -100, 300, 300.0]]):
            got = dense_roi_align(feat, box[None])[0]
            want = naive_roi_align(feat, box)
            assert np.max(np.abs(got - want)) < 1e-5

    def test_linearity(self):
        rng = np.random.default_rng(31)
        box = np.array([[5.0, 9, 40, 37]])
        for _ in range(10):
            f = rng.standard_normal((2, 14, 14)).astype(np.float32)
            g = rng.standard_normal((2, 14, 14)).astype(np.float32)
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            lhs = dense_roi_align((a * f + b * g).astype(np.float32), box)
            rhs = a * dense_roi_align(f, box) + b * dense_roi_align(g, box)
            assert np.allclose(lhs, rhs, atol=1e-4)

    def test_batch_matches_single(self):
        # the second map has channels live in patches, so a box alone pools
        # fewer channels than the batch it came from
        rng = np.random.default_rng(37)
        dense = rng.standard_normal((4, 16, 16)).astype(np.float32)
        patchy = np.zeros((4, 16, 16), dtype=np.float32)
        for ch, (r, c) in enumerate([(0, 0), (0, 9), (9, 0), (9, 9)]):
            patchy[ch, r : r + 6, c : c + 6] = rng.standard_normal((6, 6))
        boxes = rng.uniform(0, 60, (12, 4))
        boxes[:, 2:] = boxes[:, :2] + rng.uniform(1, 30, (12, 2))
        for feat in (dense, patchy):
            batch = dense_roi_align(feat, boxes)
            for i, row in enumerate(boxes):
                single = dense_roi_align(feat, row[None])[0]
                assert batch[i].tobytes() == single.tobytes()

    def test_live_channels_match_frozen_dense_kernel(self):
        # random dead channels, channels live only outside the boxes' band,
        # boxes partly or wholly outside the map, and NaN in edge cells that
        # only the clipped taps of a box outside the map read
        rng = np.random.default_rng(41)
        for trial in range(300):
            d = int(rng.integers(2, 10))
            h, w = (int(v) for v in rng.integers(5, 24, 2))
            feat = rng.standard_normal((d, h, w)).astype(np.float32)
            feat[rng.random(d) < 0.4] = 0.0
            n = int(rng.integers(1, 7))
            boxes = rng.uniform(-60, 4 * max(h, w) + 60, (n, 4))
            boxes[:, 2:] = boxes[:, :2] + rng.uniform(-5, 70, (n, 2))  # some zero-area
            if trial % 3 == 0:
                # every tap within feature rows and columns 0..3; a channel
                # live only in the far corner lies outside the band
                boxes[:, :2] = rng.uniform(0.0, 4.0, (n, 2))
                boxes[:, 2:] = boxes[:, :2] + rng.uniform(0.5, 4.0, (n, 2))
                feat[0] = 0.0
                feat[0, -1, -1] = 1.0
            if trial % 5 == 0:
                feat[-1] = 0.0
                feat[-1, 0, :] = np.nan  # read, with weight 0, by a box above the map
                boxes[0] = (8.0, -90.0, 40.0, -20.0)
            pooled, channels = roi_align_batch(feat, boxes)
            want = frozen_roi_align_batch(feat, boxes)
            assert pooled.dtype == np.float32 and channels.dtype.kind == "i"
            assert pooled.shape == (n, channels.size, 7, 7)
            assert (np.diff(channels) > 0).all()
            assert not want[:, np.setdiff1d(np.arange(d), channels)].any()
            if np.count_nonzero(feat.reshape(d, -1).any(axis=1)) == 1:
                # pooling a single channel, the frozen kernel adds a bin's
                # samples pairwise; one more live channel puts it on the
                # row order the library keeps for any channel count
                pilot = np.ones((1, h, w), dtype=np.float32)
                want = frozen_roi_align_batch(np.concatenate([feat, pilot]), boxes)
            assert pooled.tobytes() == want[:, channels].tobytes()
            if trial % 3 == 0:
                assert 0 not in channels
            if trial % 5 == 0:
                assert np.isnan(pooled[0, -1]).all() and channels[-1] == d - 1

    @pytest.mark.parametrize("chunk", [512, 7])
    def test_many_boxes_across_chunks_match_frozen_kernel(self, chunk):
        # ~1,100 boxes, some zero-area, so chunks hold non-adjacent rows and
        # the default chunk's last one is short
        rng = np.random.default_rng(43)
        feat = rng.standard_normal((8, 30, 41)).astype(np.float32)
        feat[[1, 4]] = 0.0
        feat[6, :, :20] = 0.0  # live only on the right
        boxes = rng.uniform(-40, 180, (1100, 4))
        boxes[:, 2:] = boxes[:, :2] + rng.uniform(-3, 90, (1100, 2))
        pooled, channels = roi_align_batch(feat, boxes, chunk=chunk)
        want = frozen_roi_align_batch(feat, boxes)
        assert channels.tolist() == [0, 2, 3, 5, 6, 7]
        assert (~((boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1]))).sum() > 10
        assert pooled.tobytes() == want[:, channels].tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_infinite_edge_cells_read_with_weight_zero_give_nan(self):
        # a tap beyond a map edge reads the edge cell with weight 0, and
        # 0 * inf is NaN in both kernels; a sample between the edge cell and
        # the edge reads the cell twice, once with weight 0
        feat = np.ones((3, 10, 12), dtype=np.float32)
        feat[0, 0, :] = np.inf  # top row
        feat[1, :, -1] = -np.inf  # right column
        boxes = np.array(
            [
                [8.0, -60.0, 30.0, -10.0],  # above the map
                [8.0, -3.6, 30.0, -0.4],  # between row 0 and the top edge
                [60.0, 8.0, 90.0, 30.0],  # right of the map
                [44.4, 8.0, 47.6, 30.0],  # between the last column and the edge
                [8.0, 8.0, 30.0, 30.0],  # inside, away from both edges
            ]
        )
        pooled, channels = roi_align_batch(feat, boxes)
        want = frozen_roi_align_batch(feat, boxes)
        assert channels.tolist() == [0, 1, 2]
        assert pooled.tobytes() == want.tobytes()
        assert np.isnan(pooled[:2, 0]).all() and np.isnan(pooled[2:4, 1]).all()
        assert np.isfinite(pooled[4]).all() and np.isfinite(pooled[:, 2]).all()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_boxes_clipped_on_all_sides_match_frozen_kernel(self):
        rng = np.random.default_rng(47)
        feat = rng.standard_normal((5, 9, 14)).astype(np.float32)
        feat[2] = 0.0
        boxes = np.array(
            [
                [-30.0, -25.0, 4 * 14 + 30.0, 4 * 9 + 25.0],
                [-1.0, -0.5, 4 * 14 + 0.5, 4 * 9 + 1.0],
                [-1000.0, -900.0, 2000.0, 1500.0],
                [-3.0, 10.0, 70.0, 20.0],  # clipped left and right only
                [10.0, -3.0, 20.0, 50.0],  # clipped top and bottom only
                [-1e300, -1e300, 1e300, 1e300],  # samples beyond int64
                [0.0, 0.0, np.inf, 20.0],
            ]
        )
        pooled, channels = roi_align_batch(feat, boxes)
        want = frozen_roi_align_batch(feat, boxes)
        assert channels.tolist() == [0, 1, 3, 4]
        assert pooled.tobytes() == want[:, channels].tobytes()

    def test_no_live_box_pools_nothing(self):
        feat = np.ones((3, 8, 8), dtype=np.float32)
        for boxes in (np.zeros((0, 4)), np.array([[4.0, 4, 4, 20]])):
            pooled, channels = roi_align_batch(feat, boxes)
            assert pooled.shape == (len(boxes), 0, 7, 7) and channels.size == 0


ALL_BOX = np.arange(32)
ALL_CAT = np.arange(256)


class TestHeads:
    def test_zero_features_initial_bias(self):
        rng = np.random.default_rng(1)
        w = HeadWeights.initial(3, rng)
        p = binary_scores(np.zeros((1, 32, 7, 7), dtype=np.float32), ALL_BOX, w)[0]
        assert p == pytest.approx(0.1006, abs=2e-4)  # sigmoid(-2.19), the 0.1 prior
        q = class_scores(np.zeros((1, 256, 7, 7), dtype=np.float32), ALL_CAT, w)[0]
        assert np.allclose(q, 1.0 / (1.0 + math.exp(2.19)))
        # no live channel at all scores the bias alone
        none = np.zeros(0, dtype=np.intp)
        assert binary_scores(np.zeros((1, 0, 7, 7), dtype=np.float32), none, w)[0] == p
        assert np.array_equal(class_scores(np.zeros((1, 0, 7, 7), dtype=np.float32), none, w)[0], q)

    def test_zero_kernel_zero_bias(self):
        w = HeadWeights(
            binary_kernel=np.zeros((1, 32, 7, 7), dtype=np.float32),
            binary_bias=0.0,
            class_kernel=np.zeros((2, 256, 7, 7), dtype=np.float32),
            class_bias=np.zeros(2, dtype=np.float32),
        )
        assert binary_scores(np.zeros((1, 32, 7, 7), dtype=np.float32), ALL_BOX, w)[0] == 0.5

    def test_non_finite_logit_scores_nan(self):
        # a dense positive kernel turns an infinite feature into an infinite
        # logit, which must not saturate to a finite score
        w = HeadWeights(
            binary_kernel=np.ones((1, 32, 7, 7), dtype=np.float32),
            binary_bias=0.0,
            class_kernel=np.ones((2, 256, 7, 7), dtype=np.float32),
            class_bias=np.zeros(2, dtype=np.float32),
        )
        pooled = np.zeros((4, 32, 7, 7), dtype=np.float32)
        pooled[0, 0, 0, 0] = np.inf
        pooled[1, 3, 2, 1] = -np.inf
        pooled[2, 5, 6, 6] = np.nan
        p = binary_scores(pooled, ALL_BOX, w)
        assert np.isnan(p[:3]).all() and p[3] == 0.5

    def test_binary_matches_naive_dot(self):
        rng = np.random.default_rng(9)
        w = HeadWeights.initial(2, rng)
        for _ in range(20):
            pooled = rng.standard_normal((32, 7, 7)).astype(np.float32)
            got = binary_scores(pooled[None], ALL_BOX, w)[0]
            want = naive_head_score(pooled, w.binary_kernel[0], w.binary_bias)
            assert got == pytest.approx(want, abs=1e-6)

    def test_class_matches_naive_dot(self):
        rng = np.random.default_rng(13)
        w = HeadWeights.initial(4, rng)
        pooled = rng.standard_normal((256, 7, 7)).astype(np.float32)
        q = class_scores(pooled[None], ALL_CAT, w)[0]
        for c in range(4):
            want = naive_head_score(pooled, w.class_kernel[c], float(w.class_bias[c]))
            assert q[c] == pytest.approx(want, abs=1e-6)

    def test_dead_channels_add_exact_zeros(self):
        # float32 x float32 is exact in float64, so leaving out all-zero
        # channels must not move a single bit of either head's score
        rng = np.random.default_rng(19)
        w = HeadWeights.initial(3, rng)
        for depth, head, full in ((32, binary_scores, ALL_BOX), (256, class_scores, ALL_CAT)):
            for _ in range(10):
                live = np.flatnonzero(rng.random(depth) < 0.1)
                dense = np.zeros((5, depth, 7, 7), dtype=np.float32)
                dense[:, live] = rng.standard_normal((5, live.size, 7, 7))
                got = head(dense[:, live], live, w)
                assert got.tobytes() == head(dense, full, w).tobytes()

    def test_single_class_reduces_to_binary_semantics(self):
        rng = np.random.default_rng(21)
        w = HeadWeights.initial(1, rng)
        pooled = rng.standard_normal((256, 7, 7)).astype(np.float32)
        q = class_scores(pooled[None], ALL_CAT, w)[0]
        assert q.shape == (1,)
        want = naive_head_score(pooled, w.class_kernel[0], float(w.class_bias[0]))
        assert q[0] == pytest.approx(want, abs=1e-6)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(29)
        w = HeadWeights.initial(3, rng)
        pooled = rng.standard_normal((50, 32, 7, 7)).astype(np.float32)
        p = binary_scores(pooled, ALL_BOX, w)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_shape_mismatch(self):
        w = HeadWeights.initial(2, np.random.default_rng(2))
        for head, shape, channels in [
            (binary_scores, (1, 16, 7, 7), np.arange(15)),  # length
            (binary_scores, (1, 2, 7, 7), np.arange(2)[None]),  # not 1-D
            (binary_scores, (1, 2, 7, 7), np.array([0, 32])),  # range
            (binary_scores, (1, 2, 7, 7), np.array([-1, 3])),
            (binary_scores, (1, 2, 7, 7), np.array([3, 1])),  # not ascending
            (binary_scores, (1, 2, 7, 7), np.array([1, 1])),
            (binary_scores, (1, 2, 7, 7), np.array([0.0, 1.0])),  # not integers
            (binary_scores, (1, 32, 6, 6), ALL_BOX),  # bins
            (binary_scores, (32, 7, 7), ALL_BOX),  # no batch axis
            (class_scores, (1, 257, 7, 7), np.arange(257)),
            (class_scores, (1, 2, 7, 7), np.array([0, 256])),
            (class_scores, (1, 256, 7, 7), ALL_BOX),
        ]:
            with pytest.raises(ValueError):
                head(np.zeros(shape, dtype=np.float32), channels, w)

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
