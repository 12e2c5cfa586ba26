import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cornerdet import pipeline, proposals
from cornerdet.corners import KEYPOINT_DTYPE
from cornerdet.geometry import DET_DTYPE
from cornerdet.postprocess import OBJECTNESS_THRESHOLD
from cornerdet.proposals import (
    BOX_CHANNELS,
    CAT_CHANNELS,
    POOL_SIZE,
    HeadWeights,
    binary_scores,
    class_scores,
    enumerate_proposals,
    objectness_bound,
    roi_align_batch,
    sigmoid,
)
from cornerdet.synth import OracleBundle, planted_weights
from oracles import frozen_roi_align_batch, naive_head_score, naive_pairs, naive_roi_align


INITIAL_BIAS = -2.19  # sigmoid(-2.19) ~ 0.1, the objectness prior


def initial_weights(num_classes: int, rng: np.random.Generator) -> HeadWeights:
    """Randomly initialized heads with every bias at the untrained prior."""
    return HeadWeights(
        binary_kernel=rng.normal(0.0, 0.01, (1, BOX_CHANNELS, POOL_SIZE, POOL_SIZE)).astype(np.float32),
        binary_bias=INITIAL_BIAS,
        class_kernel=rng.normal(0.0, 0.01, (num_classes, CAT_CHANNELS, POOL_SIZE, POOL_SIZE)).astype(np.float32),
        class_bias=np.full(num_classes, INITIAL_BIAS, dtype=np.float32),
    )


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
        assert len(props) == 0 and props.dtype == DET_DTYPE

    def test_two_by_two_example(self):
        tls = keypoints((0, 0, 0, 0.9), (1, 10, 10, 0.8))
        brs = keypoints((0, 50, 50, 0.6), (1, 5, 5, 0.7))
        props = enumerate_proposals(tls, brs)
        assert len(props) == 1
        (p,) = props
        assert p["image_id"] == 0 and p["class_id"] == 0
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
    """roi_align_batch over every channel of the map, (N, D, 7, 7)."""
    return roi_align_batch(feat, boxes, np.arange(len(feat)))


class TestRoiAlign:
    def test_constant_map(self):
        feat = np.full((3, 20, 20), 2.5, dtype=np.float32)
        pooled = roi_align_batch(feat, np.array([8.0, 8, 60, 44])[None], np.array([0, 2]))
        assert pooled.shape == (1, 2, 7, 7) and pooled.dtype == np.float32
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
        # the second map has channels live in patches, so a box alone reaches
        # fewer live cells than the batch it came from
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
        # random dead channels, channels live only in a corner no tap reads,
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
                # live only in the far corner lies beyond every tap
                boxes[:, :2] = rng.uniform(0.0, 4.0, (n, 2))
                boxes[:, 2:] = boxes[:, :2] + rng.uniform(0.5, 4.0, (n, 2))
                feat[0] = 0.0
                feat[0, -1, -1] = 1.0
            if trial % 5 == 0:
                feat[-1] = 0.0
                feat[-1, 0, :] = np.nan  # read, with weight 0, by a box above the map
                boxes[0] = (8.0, -90.0, 40.0, -20.0)
            pooled = dense_roi_align(feat, boxes)
            want = frozen_roi_align_batch(feat, boxes)
            assert pooled.dtype == np.float32 and pooled.shape == (n, d, 7, 7)
            data = np.flatnonzero(feat.reshape(d, -1).any(axis=1))
            if data.size == 1:
                # pooling a single channel, the frozen kernel adds a bin's
                # samples pairwise; one more live channel puts it on the
                # row order the library keeps for any channel count
                pilot = np.ones((1, h, w), dtype=np.float32)
                want = frozen_roi_align_batch(np.concatenate([feat, pilot]), boxes)[:, :d]
            assert pooled.tobytes() == want.tobytes()
            # a channel pools the same bits whatever else is listed
            assert roi_align_batch(feat, boxes, data).tobytes() == pooled[:, data].tobytes()
            if trial % 3 == 0:
                assert not pooled[:, 0].any()
            if trial % 5 == 0:
                assert np.isnan(pooled[0, -1]).all()

    @pytest.mark.parametrize("chunk", [512, 7])
    def test_many_boxes_across_chunks_match_frozen_kernel(self, chunk, monkeypatch):
        # ~1,100 boxes, some zero-area, so chunks hold non-adjacent rows and
        # the default chunk's last one is short
        monkeypatch.setattr(proposals, "ROI_CHUNK", chunk)
        rng = np.random.default_rng(43)
        feat = rng.standard_normal((8, 30, 41)).astype(np.float32)
        feat[[1, 4]] = 0.0
        feat[6, :, :20] = 0.0  # live only on the right
        boxes = rng.uniform(-40, 180, (1100, 4))
        boxes[:, 2:] = boxes[:, :2] + rng.uniform(-3, 90, (1100, 2))
        pooled = roi_align_batch(feat, boxes, np.arange(8))
        want = frozen_roi_align_batch(feat, boxes)
        assert (~((boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1]))).sum() > 10
        assert pooled.tobytes() == want.tobytes()

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
        pooled = dense_roi_align(feat, boxes)
        want = frozen_roi_align_batch(feat, boxes)
        assert pooled.tobytes() == want.tobytes()
        assert np.isnan(pooled[:2, 0]).all() and np.isnan(pooled[2:4, 1]).all()
        assert np.isfinite(pooled[4]).all() and np.isfinite(pooled[:, 2]).all()

    @pytest.mark.filterwarnings("error")  # 0 * inf or 0 * NaN would warn
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_beyond_every_tap_is_never_weighed(self, value):
        # each listed channel's whole map is copied, the bottom-right cell
        # too, but the boxes' taps all lie in feature rows and columns 0..16
        rng = np.random.default_rng(67)
        feat = rng.standard_normal((3, 20, 24)).astype(np.float32)
        feat[:, -1, -1] = value
        xy = rng.uniform(0.0, 30.0, (50, 2))
        boxes = np.hstack([xy, xy + rng.uniform(1.0, 30.0, (50, 2))])
        pooled = dense_roi_align(feat, boxes)
        assert np.isfinite(pooled).all()
        assert pooled.tobytes() == frozen_roi_align_batch(feat, boxes).tobytes()

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
        # the channels with data, as OracleBundle lists them: the infinite
        # box's taps have NaN weights, which the all-zero channel 2 would
        # pool as NaN where the frozen kernel skips it
        channels = np.array([0, 1, 3, 4])
        pooled = roi_align_batch(feat, boxes, channels)
        want = frozen_roi_align_batch(feat, boxes)
        assert pooled.tobytes() == want[:, channels].tobytes()

    def test_boxes_touching_a_channels_rectangle_match_frozen_kernel(self):
        # channel 0 holds data in rows 6..11 and columns 8..15 only, and
        # channel 1 in a block that reaches the map's right edge. A box's
        # taps read the cells floor(lo / 4) to floor(hi / 4) + 1 per axis:
        # each touching box reads exactly one row or column of channel 0's
        # block, and each short box stops one cell before it.
        rng = np.random.default_rng(71)
        feat = np.zeros((3, 20, 24), dtype=np.float32)
        feat[0, 6:12, 8:16] = rng.uniform(0.5, 1.5, (6, 8))
        feat[1, 2:5, 18:] = rng.uniform(0.5, 1.5, (3, 6))
        feat[2] = rng.standard_normal((20, 24))
        rows, cols = (4 * 6.5, 4 * 11.5), (4 * 8.5, 4 * 15.5)  # cell centres inside the block
        touching = np.array(
            [
                [4 * 5.5 - 8, rows[0], 4 * 7.5, rows[1]],  # left: taps reach column 8
                [4 * 15.5, rows[0], 4 * 15.5 + 8, rows[1]],  # right: floor lands on column 15
                [cols[0], 4 * 3.5, cols[1], 4 * 5.5],  # above: taps reach row 6
                [cols[0], 4 * 11.5, cols[1], 4 * 11.5 + 8],  # below: floor lands on row 11
            ]
        )
        short = touching + 4.0 * np.array([[-1, 0, -1, 0], [1, 0, 1, 0], [0, -1, 0, -1], [0, 1, 0, 1]])
        beyond = np.array([[120.0, 10.0, 150.0, 18.0], [-30.0, -20.0, -10.0, -4.0]])  # right of, above the map
        boxes = np.vstack([touching, short, beyond])
        channels = np.array([0, 1, 2])
        pooled = roi_align_batch(feat, boxes, channels)
        assert pooled.tobytes() == frozen_roi_align_batch(feat, boxes).tobytes()
        assert (pooled[:4, 0] != 0).any(axis=(1, 2)).all()
        assert not pooled[4:, 0].any()
        # the box right of the map reads channel 1's edge column with weight 0
        assert not pooled[8, 1].any() and not np.signbit(pooled[4:, :2]).any()

    def test_negative_zero_and_all_zero_listed_channels_pool_positive_zeros(self):
        # -0.0 has a nonzero bit, so its channel counts as reached; its
        # samples add -0.0 to the bin's +0 and pool +0.0, as an unlisted or
        # all-zero channel does
        rng = np.random.default_rng(73)
        feat = np.zeros((4, 16, 18), dtype=np.float32)
        feat[0] = -0.0
        feat[2:] = rng.standard_normal((2, 16, 18))
        xy = rng.uniform(-10.0, 40.0, (40, 2))
        boxes = np.hstack([xy, xy + rng.uniform(1.0, 30.0, (40, 2))])
        pooled = dense_roi_align(feat, boxes)
        assert pooled.tobytes() == frozen_roi_align_batch(feat, boxes).tobytes()
        assert not np.signbit(pooled[:, :2]).any()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_boxes_beyond_int64_or_infinite_reach_every_listed_channel(self):
        # An infinite coordinate weighs every tap with NaN, and a feature
        # coordinate beyond 2**63 casts to a floor outside the map whose
        # clipped taps read column 0, the inf cell included, with weight 0.
        # Either box pools NaN in channels whose data its floors' tap cells
        # never meet.
        rng = np.random.default_rng(79)
        feat = np.zeros((4, 20, 24), dtype=np.float32)
        feat[0, 2, 0] = np.inf  # an edge cell: column 0, row 2
        feat[1, 14:18, 10:15] = rng.uniform(0.5, 1.5, (4, 5))  # far from rows 0..4
        feat[3] = rng.standard_normal((20, 24))
        big = 4.0 * 2.0**64
        boxes = np.array(
            [
                [0.0, 0.0, np.inf, 10.0],
                [-np.inf, 0.0, 10.0, 10.0],
                [0.0, -np.inf, 10.0, 10.0],
                [0.0, 0.0, 10.0, np.inf],
                [big, 4.0, 2 * big, 16.0],  # right of the map, beyond int64
                [-2 * big, 4.0, -big, 16.0],  # left of the map, beyond int64
                [4.0, 4.0, 16.0, 16.0],  # finite, away from channel 1's block
            ]
        )
        data = np.array([0, 1, 3])  # the channels with data, as OracleBundle lists them
        pooled = roi_align_batch(feat, boxes, data)
        assert pooled.tobytes() == frozen_roi_align_batch(feat, boxes)[:, data].tobytes()
        assert np.isnan(pooled[:4]).all() and np.isnan(pooled[4:6, 0]).any(axis=(1, 2)).all()
        assert not pooled[6, 1].any()
        # every listed channel, the all-zero channel 2 too, as the dense kernel pools it
        assert np.isnan(roi_align_batch(feat, boxes[:4], np.arange(4))[:, 2]).all()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_only_pairs_that_reach_a_nonzero_rectangle_are_pooled(self, monkeypatch):
        # count the (box, channel) pairs each chunk pools through the
        # scratch's sample positions, (2, GRID, pairs), against each
        # channel's rectangle of nonzero bits
        pooled_pairs = []

        class Counting(proposals._Scratch):
            def take(self, name, shape, dtype=np.float32):
                if name == "pos":
                    pooled_pairs.append(shape[-1])
                return super().take(name, shape, dtype)

        monkeypatch.setattr(proposals, "_scratch", Counting())
        monkeypatch.setattr(proposals, "ROI_CHUNK", 50)
        rng = np.random.default_rng(83)
        h, w = 30, 40
        feat = np.zeros((6, h, w), dtype=np.float32)
        for c in range(5):
            r, q = rng.integers(0, h - 6), rng.integers(0, w - 6)
            feat[c, r : r + 6, q : q + 6] = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
        feat[3, 0, -1] = -0.0  # stretches the rectangle to the top-right corner
        boxes = rng.uniform(-20.0, 4 * max(h, w) + 20.0, (300, 4))
        boxes[:, 2:] = boxes[:, :2] + rng.uniform(-3.0, 40.0, (300, 2))
        boxes[0] = (0.0, 0.0, np.inf, 4.0)
        channels = np.arange(6)  # channel 5 is all zeros
        pooled = roi_align_batch(feat, boxes, channels)
        # the frozen kernel skips channel 5, which the infinite box pools as NaN
        assert pooled[:, :5].tobytes() == frozen_roi_align_batch(feat, boxes)[:, :5].tobytes()

        live = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
        fb = boxes[live] / 4
        top = np.array([w - 1, h - 1])
        lo, hi = np.clip(np.floor(fb[:, :2]), 0, top), np.clip(np.floor(fb[:, 2:]) + 1, 0, top)
        want = (~np.isfinite(fb).all(axis=1)).sum() * channels.size
        for c in channels:
            ys, xs = np.nonzero(feat[c].view(np.uint32))
            if xs.size:
                meet = (lo <= [xs.max(), ys.max()]) & (hi >= [xs.min(), ys.min()])
                want += (meet.all(axis=1) & np.isfinite(fb).all(axis=1)).sum()
        assert 0 < want < live.sum() * channels.size // 2
        assert sum(pooled_pairs) == want and max(pooled_pairs) <= 50

    def test_no_live_box_pools_nothing(self):
        feat = np.ones((3, 8, 8), dtype=np.float32)
        for boxes in (np.zeros((0, 4)), np.array([[4.0, 4, 4, 20]])):
            pooled = dense_roi_align(feat, boxes)
            assert pooled.shape == (len(boxes), 3, 7, 7) and not pooled.any()
        none = np.zeros(0, dtype=np.intp)
        assert roi_align_batch(feat, np.array([[4.0, 4, 20, 20]]), none).shape == (1, 0, 7, 7)

    def test_threads_pool_the_serial_bytes(self):
        # each thread has its own scratch: threads pooling different batches
        # at once, more of them than cores, get the bytes each gets alone
        rng = np.random.default_rng(53)
        feat = rng.standard_normal((6, 40, 50)).astype(np.float32)
        channels = np.array([0, 2, 3, 5])
        batches = []
        for n in (900, 700, 500, 300):  # more than one chunk each
            xy = rng.uniform(-20, 180, (n, 2))
            batches.append(np.hstack([xy, xy + rng.uniform(1, 60, (n, 2))]))
        serial = [roi_align_batch(feat, boxes, channels).tobytes() for boxes in batches]
        got = [[] for _ in batches]
        start = threading.Barrier(len(batches))

        def pool(i):
            start.wait()
            for _ in range(3):
                got[i].append(roi_align_batch(feat, batches[i], channels).tobytes())

        threads = [threading.Thread(target=pool, args=(i,)) for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want] * 3 for want in serial]

    def test_result_outlives_the_next_call(self):
        rng = np.random.default_rng(59)
        feat = rng.standard_normal((3, 20, 20)).astype(np.float32)
        first = roi_align_batch(feat, np.array([[4.0, 4, 60, 50]]), np.arange(3))
        kept = first.copy()
        roi_align_batch(feat * 2, np.array([[4.0, 4, 60, 50], [1, 2, 30, 70]]), np.arange(3))
        assert first.tobytes() == kept.tobytes()

    def test_repeated_calls_fault_in_no_new_pages(self):
        # in a fresh interpreter, whose allocator has freed no large buffer
        # yet, a call reuses the previous call's working arrays instead of
        # faulting in new pages; the input is the size of a seed-1 noisy
        # scene's box RoIAlign: about 740 proposals over 5 listed channels.
        # The returned array is fresh memory: glibc maps the first one larger
        # than anything it has freed and puts the next on its heap, whose
        # pages the later ones reuse, so that takes two warm-up calls.
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RUSAGE_THREAD"):
            pytest.skip("per-thread resource usage is not available here")
        script = (
            "import resource\n"
            "import numpy as np\n"
            "from cornerdet.proposals import BOX_CHANNELS, roi_align_batch\n"
            "rng = np.random.default_rng(1)\n"
            "feat = np.zeros((BOX_CHANNELS, 128, 128), dtype=np.float32)\n"
            "channels = np.arange(5)\n"
            "feat[channels] = rng.uniform(0.0, 1.0, (5, 128, 128))\n"
            "xy = rng.uniform(0.0, 400.0, (740, 2))\n"
            "boxes = np.hstack([xy, xy + rng.uniform(4.0, 300.0, (740, 2))])\n"
            "for _ in range(2):\n"
            "    roi_align_batch(feat, boxes, channels)\n"
            "before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt\n"
            "for _ in range(3):\n"
            "    roi_align_batch(feat, boxes, channels)\n"
            "print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)\n"
        )
        src = str(Path(proposals.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            check=True,
        )
        assert int(done.stdout) < 100

    def test_scratch_stays_within_its_bound(self, monkeypatch):
        # the README's bound, 4.90 MB per thread, is a chunk of 1,024
        # (box, channel) pairs at any channel count: the per-pair arrays
        # (two float64 and one int64 2 x GRID, one intp GRID x GRID) and the
        # float32 weights of one tap, acc, tap and pooled; keeping all four
        # taps' weights at once would take 7.3 MB
        monkeypatch.setattr(proposals, "_scratch", proposals._Scratch())
        rng = np.random.default_rng(61)
        feat = rng.standard_normal((BOX_CHANNELS, 60, 60)).astype(np.float32)
        xy = rng.uniform(-20.0, 200.0, (3000, 2))
        boxes = np.hstack([xy, xy + rng.uniform(1.0, 80.0, (3000, 2))])
        for nch in (1, 5, 32):
            roi_align_batch(feat, boxes, np.arange(nch))
        held = sum(buf.nbytes for buf in proposals._scratch.buffers.values())
        assert held <= 4_902_912

    def test_feature_maps_check_candidate_channels(self):
        # a scene's OracleBundle lists the channels of its two feature maps
        heat, off = np.zeros((1, 4, 4), np.float32), np.zeros((2, 4, 4), np.float32)
        box, cat = np.zeros((32, 4, 4), np.float32), np.zeros((256, 4, 4), np.float32)
        maps, weights = (heat, heat, off, off, box, cat), planted_weights(1)
        none = np.zeros(0, np.intp)
        OracleBundle(*maps, box_channels=np.array([0, 5]), cat_channels=none, weights=weights)
        for bad in ([3, 1], [1, 1], [-1], [32], [0.0], [[0]]):
            with pytest.raises(ValueError, match="box_channels must be ascending integers"):
                OracleBundle(*maps, box_channels=np.array(bad), cat_channels=none, weights=weights)
        with pytest.raises(ValueError, match=r"cat_channels must be ascending integers in \[0, 256\)"):
            OracleBundle(*maps, box_channels=none, cat_channels=np.array([256]), weights=weights)
        with pytest.raises(TypeError, match="cat_channels"):
            OracleBundle(*maps, box_channels=none, weights=weights)  # no default: every map lists its channels


def random_bound_case(rng):
    """A small map, kernel and box batch built to stress objectness_bound.

    Dense signed features at scales 1e-3 to 1e3, some channels empty,
    constant or confined to a rectangle, with -0.0, subnormals and values
    near 1e30 planted; a kernel, signed or not, with zero and subnormal
    entries; boxes that
    are degenerate, partly or wholly off the map, or have infinite or NaN
    coordinates.
    """
    depth = 5
    h, w = rng.integers(4, 18, size=2)
    feat = (rng.normal(size=(depth, h, w)) * 10.0 ** rng.uniform(-3, 3, size=(depth, 1, 1))).astype(np.float32)
    for c in range(depth):
        kind = rng.integers(5)
        if kind == 0:
            feat[c] = 0.0
        elif kind == 2:
            # a constant plane pools its value itself, so the bound is tight
            # there; 3 * 2**-149 pools above itself through subnormal rounding
            feat[c] = rng.choice([3 * 2.0**-149, 1e-41, 10.0 ** rng.uniform(-3, 30)])
        elif kind == 1:
            y0, x0 = rng.integers(0, h), rng.integers(0, w)
            keep = np.zeros((h, w), dtype=bool)
            keep[y0 : y0 + rng.integers(1, h + 1), x0 : x0 + rng.integers(1, w + 1)] = True
            feat[c][~keep] = 0.0
    specials = np.array([-0.0, 1e-41, -1e-45, 1e30, -1e30, 3e-39], dtype=np.float32)
    for _ in range(rng.integers(0, 6)):
        feat[rng.integers(depth), rng.integers(h), rng.integers(w)] = rng.choice(specials)
    channels = np.flatnonzero(rng.random(depth) < 0.7)
    kernel = (rng.normal(size=(1, depth, POOL_SIZE, POOL_SIZE)) * 10.0 ** rng.uniform(-2, 2)).astype(np.float32)
    if rng.random() < 0.5:
        np.abs(kernel, out=kernel)
    kernel[rng.random(kernel.shape) < 0.2] = 0.0
    kernel[rng.random(kernel.shape) < 0.05] = -1e-42
    n = 24
    x1 = rng.uniform(-30, 4 * w + 30, n)
    y1 = rng.uniform(-30, 4 * h + 30, n)
    boxes = np.column_stack([x1, y1, x1 + rng.exponential(20, n), y1 + rng.exponential(20, n)])
    boxes[0, 2] = boxes[0, 0]  # degenerate
    boxes[1, 2:] = boxes[1, :2] - 1.0  # inverted
    boxes[2] = [-90.0, -90.0, -60.0, -70.0]  # wholly off the map
    boxes[3] = [0.0, 0.0, 4.0 * w, 4.0 * h]  # the whole map
    boxes[4, 2] = np.inf
    boxes[5, 0] = -np.inf
    boxes[6, 1] = np.nan
    boxes[7] = [1e30, 1e30, 2e30, 2e30]  # beyond int64 in feature cells
    return feat, boxes, channels, kernel


def exact_logits(feat, boxes, channels, kernel):
    """The bias-free binary logits of scoring every box, NaN where a box's
    tap weights are NaN."""
    with np.errstate(invalid="ignore", over="ignore"):
        return proposals._logits(roi_align_batch(feat, boxes, channels), channels, kernel)[:, 0]


class TestObjectnessBound:
    def test_bounds_every_logit_on_random_cases(self):
        rng = np.random.default_rng(37)
        for _ in range(400):
            feat, boxes, channels, kernel = random_bound_case(rng)
            z = exact_logits(feat, boxes, channels, kernel)
            # runs outside any errstate: a RuntimeWarning here is an error
            bound = objectness_bound(feat, boxes, channels, kernel)
            finite = np.isfinite(z)
            assert (bound[finite] >= z[finite]).all()
            assert (bound[~finite] == np.inf).all()

    def test_never_rules_out_a_proposal_at_the_threshold(self):
        # biases placed so the exact logit lands a few ulps below, on, or up
        # to 1e-6 above logit(OBJECTNESS_THRESHOLD): every such proposal the
        # head would keep must stay in. The first boxes of a case pool
        # zeros, where the bound is exact and only the margin can save them.
        rng = np.random.default_rng(38)
        at = pipeline._THRESHOLD_LOGIT
        steps = [k * np.spacing(at) for k in range(-8, 9)] + [1e-12, 1e-9, 1e-7, 1e-6]
        kept = 0
        for _ in range(200):
            feat, boxes, channels, kernel = random_bound_case(rng)
            z = exact_logits(feat, boxes, channels, kernel)
            bound = objectness_bound(feat, boxes, channels, kernel)
            for i in np.flatnonzero(np.isfinite(z))[:6]:
                for step in steps:
                    bias = at - z[i] + step
                    if sigmoid(z[i] + bias) >= OBJECTNESS_THRESHOLD:
                        kept += 1
                        assert pipeline._may_pass(bound, bias)[i]
        assert kept > 10000

    def test_zero_where_no_tap_meets_a_rectangle(self):
        feat = np.zeros((3, 16, 16), dtype=np.float32)
        feat[0, 2:4, 2:4] = 1.0
        feat[1, 12, 12] = -0.0  # bits set, but it pools exact zeros
        kernel = np.ones((1, 3, POOL_SIZE, POOL_SIZE), dtype=np.float32)
        boxes = np.array([[30.0, 30, 60, 60], [4.0, 4, 12, 12], [20.0, 20, 20, 40]])
        bound = objectness_bound(feat, boxes, np.array([0, 1]), kernel)
        assert bound[0] == 0.0 and bound[2] == 0.0
        # every bin of the box over the rectangle may read it
        assert bound[1] == pytest.approx(POOL_SIZE * POOL_SIZE * (1 + 1e-4))
        assert not objectness_bound(feat, boxes, np.array([], dtype=np.intp), kernel).any()

    # 5e37 is above POOL_LIMIT, float32's max / 8
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 3e38, -5e37])
    def test_unbounded_channel_rules_out_no_live_box(self, value):
        # a non-finite value, or one whose pooling may overflow float32, bounds nothing
        feat = np.zeros((2, 16, 16), dtype=np.float32)
        feat[1, 15, 15] = value
        kernel = np.full((1, 2, POOL_SIZE, POOL_SIZE), 1e-30, dtype=np.float32)
        boxes = np.array([[2.0, 2, 10, 10], [5.0, 5, 5, 30]])
        bound = objectness_bound(feat, boxes, np.array([0, 1]), kernel)
        assert bound[0] == np.inf and bound[1] == 0.0
        assert objectness_bound(feat, boxes, np.array([0]), kernel)[0] == 0.0


ALL_BOX = np.arange(32)
ALL_CAT = np.arange(256)


class TestHeads:
    def test_zero_features_initial_bias(self):
        rng = np.random.default_rng(1)
        w = initial_weights(3, rng)
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
        w = initial_weights(2, rng)
        for _ in range(20):
            pooled = rng.standard_normal((32, 7, 7)).astype(np.float32)
            got = binary_scores(pooled[None], ALL_BOX, w)[0]
            want = naive_head_score(pooled, w.binary_kernel[0], w.binary_bias)
            assert got == pytest.approx(want, abs=1e-6)

    def test_class_matches_naive_dot(self):
        rng = np.random.default_rng(13)
        w = initial_weights(4, rng)
        pooled = rng.standard_normal((256, 7, 7)).astype(np.float32)
        q = class_scores(pooled[None], ALL_CAT, w)[0]
        for c in range(4):
            want = naive_head_score(pooled, w.class_kernel[c], float(w.class_bias[c]))
            assert q[c] == pytest.approx(want, abs=1e-6)

    def test_dead_channels_add_exact_zeros(self):
        # float32 x float32 is exact in float64, so leaving out all-zero
        # channels must not move a single bit of either head's score
        rng = np.random.default_rng(19)
        w = initial_weights(3, rng)
        for depth, head, full in ((32, binary_scores, ALL_BOX), (256, class_scores, ALL_CAT)):
            for _ in range(10):
                live = np.flatnonzero(rng.random(depth) < 0.1)
                dense = np.zeros((5, depth, 7, 7), dtype=np.float32)
                dense[:, live] = rng.standard_normal((5, live.size, 7, 7))
                got = head(dense[:, live], live, w)
                assert got.tobytes() == head(dense, full, w).tobytes()

    def test_listed_zero_channels_give_the_same_bits(self):
        # a listed channel of +0 or -0 pools to zeros, whose products with a
        # finite kernel, negative weights included, are +-0 and leave a sum
        # that starts at +0 as it is: listing it moves no bit of a score
        rng = np.random.default_rng(53)
        w = initial_weights(3, rng)
        assert (w.binary_kernel < 0).any() and (w.class_kernel < 0).any()
        for depth, head in ((BOX_CHANNELS, binary_scores), (CAT_CHANNELS, class_scores)):
            for trial in range(40):
                h, wd = (int(v) for v in rng.integers(4, 20, 2))
                feat = np.zeros((depth, h, wd), dtype=np.float32)
                data = np.flatnonzero(rng.random(depth) < 0.1)
                feat[data] = rng.standard_normal((data.size, h, wd))
                extra = np.setdiff1d(np.flatnonzero(rng.random(depth) < 0.2), data)
                neg_zero = extra[::2]
                feat[neg_zero] = -0.0
                listed = np.union1d(data, extra)
                n = int(rng.integers(1, 9))
                boxes = rng.uniform(-30, 4 * max(h, wd) + 30, (n, 4))
                boxes[:, 2:] = boxes[:, :2] + rng.uniform(-5, 60, (n, 2))
                want = head(roi_align_batch(feat, boxes, data), data, w)
                got = head(roi_align_batch(feat, boxes, listed), listed, w)
                assert got.tobytes() == want.tobytes()
                # -0.0 pooled straight into the heads
                pooled = np.zeros((n, listed.size, 7, 7), dtype=np.float32)
                pooled[:, np.isin(listed, data)] = roi_align_batch(feat, boxes, data)
                pooled[:, np.isin(listed, neg_zero)] = -0.0
                assert head(pooled, listed, w).tobytes() == want.tobytes()

    def test_single_class_reduces_to_binary_semantics(self):
        rng = np.random.default_rng(21)
        w = initial_weights(1, rng)
        pooled = rng.standard_normal((256, 7, 7)).astype(np.float32)
        q = class_scores(pooled[None], ALL_CAT, w)[0]
        assert q.shape == (1,)
        want = naive_head_score(pooled, w.class_kernel[0], float(w.class_bias[0]))
        assert q[0] == pytest.approx(want, abs=1e-6)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(29)
        w = initial_weights(3, rng)
        pooled = rng.standard_normal((50, 32, 7, 7)).astype(np.float32)
        p = binary_scores(pooled, ALL_BOX, w)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_shape_mismatch(self):
        w = initial_weights(2, np.random.default_rng(2))
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
        w = initial_weights(3, rng)
        w.save_bundle(tmp_path / "weights")
        for name in ("binary_kernel", "binary_bias", "class_kernel", "class_bias"):
            assert (tmp_path / "weights" / name).exists()
        back = HeadWeights.load_bundle(tmp_path / "weights")
        assert np.array_equal(back.binary_kernel, w.binary_kernel)
        assert back.binary_bias == pytest.approx(w.binary_bias)
        assert np.array_equal(back.class_kernel, w.class_kernel)
        assert np.array_equal(back.class_bias, w.class_bias)
