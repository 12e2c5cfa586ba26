import numpy as np
import pytest

from cornerdet.corners import (
    BOTTOM_RIGHT,
    TOP_LEFT,
    HeatmapSet,
    decode_corners,
    gaussian_radius,
    gaussian_targets,
    local_max_suppress,
)
from cornerdet.geometry import TRUTH_DTYPE
from oracles import iou_xyxy, naive_local_max, naive_topk


def truth(*rows) -> np.ndarray:
    """TRUTH_DTYPE rows of image 0 from ((x1, y1, x2, y2), class_id) pairs."""
    return np.array([(0, c, box) for box, c in rows], dtype=TRUTH_DTYPE)


def make_heatmaps(tl_heat, tl_off=None, br_heat=None, br_off=None):
    c, h, w = tl_heat.shape
    zeros_off = np.zeros((2, h, w), dtype=np.float32)
    return HeatmapSet(
        tl_heat=tl_heat.astype(np.float32),
        br_heat=(br_heat if br_heat is not None else np.zeros_like(tl_heat)).astype(np.float32),
        tl_off=(tl_off if tl_off is not None else zeros_off).astype(np.float32),
        br_off=(br_off if br_off is not None else zeros_off).astype(np.float32),
    )


class TestLocalMaxSuppress:
    def test_isolated_peak_unchanged(self):
        heat = np.zeros((1, 5, 5), dtype=np.float32)
        heat[0, 2, 3] = 0.7
        out = local_max_suppress(heat)
        assert out[0, 2, 3] == np.float32(0.7)

    def test_adjacent_cells(self):
        heat = np.zeros((1, 4, 4), dtype=np.float32)
        heat[0, 1, 1] = 0.9
        heat[0, 1, 2] = 0.8
        out = local_max_suppress(heat)
        assert out[0, 1, 1] == np.float32(0.9)
        assert out[0, 1, 2] == 0.0
        assert np.array_equal(out, naive_local_max(heat, 3))

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            heat = (rng.random((2, 6, 6)) * rng.integers(1, 4, (2, 6, 6))).astype(np.float32)
            assert np.array_equal(local_max_suppress(heat), naive_local_max(heat, 3))
        # non-square maps, quantized so that neighbors tie
        for c, h, w in [(1, 1, 7), (2, 3, 9), (3, 8, 5), (1, 11, 2)]:
            heat = (rng.integers(0, 4, (c, h, w)) / 4).astype(np.float32)
            assert local_max_suppress(heat).tobytes() == naive_local_max(heat, 3).tobytes()

    def test_ties_keep_both(self):
        heat = np.zeros((1, 3, 3), dtype=np.float32)
        heat[0, 0, 0] = heat[0, 0, 1] = 0.5
        out = local_max_suppress(heat)
        assert out[0, 0, 0] == out[0, 0, 1] == np.float32(0.5)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        heat = rng.random((3, 8, 8)).astype(np.float32)
        once = local_max_suppress(heat)
        assert np.array_equal(local_max_suppress(once), once)

    # The neighborhood stops at the border, as if the map were padded with
    # -inf: a border cell competes only with the cells inside the map, so a
    # -inf cell whose neighbors are all -inf is its patch's maximum and keeps
    # its value, and +inf beats every neighbor.
    def test_infinite_borders_match_exhaustive_scan(self):
        rng = np.random.default_rng(19)
        heat = rng.random((2, 9, 7)).astype(np.float32)
        heat[:, 0, :] = heat[:, -1, :] = -np.inf
        heat[:, :, 0] = heat[:, :, -1] = -np.inf
        heat[0, :3, :3] = -np.inf  # a corner block with no finite neighbor
        heat[1, 4, 0] = np.inf
        heat[1, 8, 6] = np.inf
        out = local_max_suppress(heat)
        assert out.tobytes() == naive_local_max(heat, 3).tobytes()
        assert out[0, 0, 0] == out[0, 1, 1] == -np.inf
        assert out[1, 4, 0] == out[1, 8, 6] == np.inf
        assert out[1, 3, 0] == out[1, 4, 1] == 0.0  # beside +inf

    def test_all_minus_inf_map_is_kept(self):
        heat = np.full((2, 5, 4), -np.inf, dtype=np.float32)
        out = local_max_suppress(heat)
        assert out.tobytes() == heat.tobytes() == naive_local_max(heat, 3).tobytes()

    @pytest.mark.parametrize("shape", [(2, 1, 9), (2, 9, 1), (1, 1, 1)])
    def test_single_row_and_column_maps(self, shape):
        rng = np.random.default_rng(23)
        values = np.array([-np.inf, np.inf, -1.0, -0.0, 0.0, 0.5], dtype=np.float32)
        for _ in range(30):
            heat = rng.choice(values, shape).astype(np.float32)
            assert local_max_suppress(heat).tobytes() == naive_local_max(heat, 3).tobytes()


@pytest.fixture(scope="module")
def benchmark_maps():
    """Heatmaps of benchmark size, each with its suppressed map from the
    exhaustive oracle (about 0.3 s a map)."""
    rng = np.random.default_rng(29)
    shape = (2, 128, 128)
    gts = truth(
        ((20.25, 30.5, 140.75, 90.0), 0),
        ((200.0, 210.0, 380.5, 460.25), 1),
        ((60.0, 300.0, 160.0, 420.0), 1),
    )
    # constant -0.75 with 7 isolated cells raised to -0.25: their 56
    # neighbors suppress to +0, so the 70th score falls into the -0.75 run
    negative_plateau = np.full(shape, -0.75, dtype=np.float32)
    for i in range(7):
        negative_plateau[i % 2, 10 + 15 * i, 20 + 12 * i] = -0.25
    # random +-0 with a few positive peaks and negative cells
    signed_zeros = rng.choice(np.array([-0.0, 0.0], dtype=np.float32), shape)
    signed_zeros[rng.random(shape) < 0.01] = -0.5
    for i in range(5):
        signed_zeros[0, 20 * i + 5, 17 * i + 3] = 0.9 - 0.1 * i
    maps = {
        "all-zero": np.zeros(shape, dtype=np.float32),
        "peaks": gaussian_targets(gts, 2, 128, 128).tl_heat,
        "uniform": rng.random(shape, dtype=np.float32),
        "negative-plateau": negative_plateau,
        "negative-uniform": -rng.random(shape, dtype=np.float32),
        "signed-zeros": signed_zeros,
    }
    return {name: (heat, naive_local_max(heat, 3)) for name, heat in maps.items()}


class TestDecodeCorners:
    def test_all_zero_tiebreak(self):
        hm = make_heatmaps(np.zeros((2, 4, 4), dtype=np.float32))
        kps = decode_corners(hm, TOP_LEFT, 2)
        assert kps[["class_id", "x", "y"]].tolist() == [(0, 0.0, 0.0), (0, 4.0, 0.0)]
        assert kps["score"].tolist() == [0.0, 0.0]

    def test_single_peak_decoding(self):
        heat = np.zeros((2, 16, 16), dtype=np.float32)
        heat[1, 5, 7] = 0.9
        off = np.zeros((2, 16, 16), dtype=np.float32)
        off[0, 5, 7] = 0.25
        off[1, 5, 7] = 0.5
        hm = make_heatmaps(heat, tl_off=off)
        (kp,) = decode_corners(hm, TOP_LEFT, 1)
        assert kp["class_id"] == 1
        assert kp["x"] == pytest.approx(29.0)
        assert kp["y"] == pytest.approx(22.0)
        assert kp["score"] == pytest.approx(0.9)

    def test_every_k_matches_naive_topk(self):
        # quantized scores leave runs of ties, so most k cut through one
        rng = np.random.default_rng(5)
        maps = [np.zeros((2, 3, 5), dtype=np.float32)]
        maps += [(rng.integers(0, 3, (2, 4, 6)) / 2).astype(np.float32) for _ in range(8)]
        cut_ties = 0
        for heat in maps:
            c, h, w = heat.shape
            suppressed = naive_local_max(heat, 3)
            for k in range(1, c * h * w + 1):
                want = naive_topk(suppressed, k)
                kps = decode_corners(make_heatmaps(heat), TOP_LEFT, k)
                cls, rows, cols = np.unravel_index(want, (c, h, w))
                assert kps["class_id"].tolist() == cls.tolist()
                assert kps["x"].tolist() == (4.0 * cols).tolist()
                assert kps["y"].tolist() == (4.0 * rows).tolist()
                assert kps["score"].tolist() == suppressed.ravel()[want].tolist()
                ranked = suppressed.ravel()[naive_topk(suppressed, k + 1)]
                cut_ties += k < ranked.size and ranked[k - 1] == ranked[k]
        assert cut_ties > 100

    def test_benchmark_size_maps_match_naive_topk(self, benchmark_maps):
        # (2, 128, 128) like a 511-pixel synth scene; k = 70 is the default
        # and k = C*H*W ranks every cell. Score bits are compared, so the
        # sign of a zero counts.
        for heat, suppressed in benchmark_maps.values():
            c, h, w = heat.shape
            hm = make_heatmaps(heat)
            for k in (70, c * h * w):
                want = naive_topk(suppressed, k)
                kps = decode_corners(hm, TOP_LEFT, k)
                cls, rows, cols = np.unravel_index(want, (c, h, w))
                assert kps["class_id"].tolist() == cls.tolist()
                assert kps["x"].tolist() == (4.0 * cols).tolist()
                assert kps["y"].tolist() == (4.0 * rows).tolist()
                expected = suppressed.ravel()[want].astype(np.float64)
                assert kps["score"].tobytes() == expected.tobytes()

    def test_benchmark_size_maps_cut_where_intended(self, benchmark_maps):
        # each map's k-th score is the case the map is there for
        def kth(name, k=70):
            suppressed = benchmark_maps[name][1]
            return suppressed.ravel()[naive_topk(suppressed, k)[-1]]

        assert kth("all-zero") == 0.0
        assert kth("peaks") == 0.0  # k cuts into the zero plateau
        assert 0.0 < kth("uniform") < 1.0
        assert kth("negative-plateau") == np.float32(-0.75)
        assert kth("negative-uniform", 2 * 128 * 128) < 0.0
        assert kth("signed-zeros") == 0.0
        # and the top 70 take both +0 and -0 cells from that run
        signed = benchmark_maps["signed-zeros"][1].ravel()
        top = signed[naive_topk(signed, 70)]
        assert np.signbit(top[top == 0.0]).any() and not np.signbit(top[top == 0.0]).all()

    def test_k_too_large(self):
        hm = make_heatmaps(np.zeros((1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            decode_corners(hm, TOP_LEFT, 5)

    def test_scores_non_increasing_and_in_bounds(self):
        rng = np.random.default_rng(3)
        heat = rng.random((3, 12, 12)).astype(np.float32)
        off = rng.random((2, 12, 12)).astype(np.float32) * 0.999
        hm = make_heatmaps(heat, tl_off=off, br_heat=heat, br_off=off)
        for kind in (TOP_LEFT, BOTTOM_RIGHT):
            kps = decode_corners(hm, kind, 40)
            scores = kps["score"].tolist()
            assert scores == sorted(scores, reverse=True)
            assert np.all((0.0 <= kps["x"]) & (kps["x"] < 4 * 12))
            assert np.all((0.0 <= kps["y"]) & (kps["y"] < 4 * 12))

    @pytest.mark.parametrize("kind, name", [(TOP_LEFT, "tl_off"), (BOTTOM_RIGHT, "br_off")])
    @pytest.mark.parametrize("plane, value", [(0, 1e38), (1, 1e38), (0, -1e38)])
    def test_offset_overflowing_position_names_the_tensor(self, kind, name, plane, value):
        # 1e38 is finite, but (col + 1e38) * 4 is not in float32
        heat = np.zeros((1, 6, 6), dtype=np.float32)
        heat[0, 2, 3] = 0.9
        off = np.zeros((2, 6, 6), dtype=np.float32)
        off[plane, 2, 3] = value
        hm = make_heatmaps(heat, tl_off=off, br_heat=heat, br_off=off)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{name} puts a corner"):
            decode_corners(hm, kind, 1)
        # offsets are read only under decoded cells: with the peak gone,
        # the top cell is (0, 0, 0), whose offsets are 0
        heat[0, 2, 3] = 0.0
        hm = make_heatmaps(heat, tl_off=off, br_heat=heat, br_off=off)
        assert np.isfinite(decode_corners(hm, kind, 1)["x"]).all()


class TestGaussianTargets:
    def test_empty_scene(self):
        hm = gaussian_targets(truth(), 2, 8, 8)
        assert not hm.tl_heat.any() and not hm.br_heat.any()
        assert not hm.tl_off.any() and not hm.br_off.any()

    def test_grid_aligned_corners(self):
        hm = gaussian_targets(truth(((8.0, 4.0, 40.0, 44.0), 1)), 2, 16, 16)
        assert hm.tl_heat[1, 1, 2] == 1.0
        assert hm.br_heat[1, 11, 10] == 1.0
        assert hm.tl_off[0, 1, 2] == 0.0 and hm.tl_off[1, 1, 2] == 0.0

    def test_fractional_offsets(self):
        hm = gaussian_targets(truth(((9.0, 6.0, 41.0, 45.0), 0)), 1, 16, 16)
        assert hm.tl_off[0, 1, 2] == np.float32(0.25)
        assert hm.tl_off[1, 1, 2] == np.float32(0.5)

    def test_shared_cell_takes_max(self):
        gts = truth(((8.0, 8.0, 60.0, 60.0), 0), ((8.5, 8.5, 100.0, 100.0), 0))
        hm = gaussian_targets(gts, 1, 32, 32)
        assert hm.tl_heat[0, 2, 2] == 1.0

    def test_peak_is_strict_max(self):
        hm = gaussian_targets(truth(((20.0, 20.0, 100.0, 100.0), 0)), 1, 32, 32)
        heat = hm.tl_heat[0]
        assert heat[5, 5] == 1.0
        masked = heat.copy()
        masked[5, 5] = 0.0
        assert masked.max() < 1.0

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            gaussian_targets(truth(((0.0, 0.0, 70.0, 20.0), 0)), 1, 8, 8)

    @pytest.mark.parametrize("class_id", [-1, 2])
    def test_class_outside_the_heatmaps_rejected(self, class_id):
        with pytest.raises(ValueError, match=rf"^class_id {class_id} outside \[0, 2\)$"):
            gaussian_targets(truth(((8.0, 4.0, 40.0, 44.0), class_id)), 2, 16, 16)


def test_gaussian_radius_keeps_overlap():
    # a corner shifted by the radius must still give IoU >= 0.7
    for h, w in [(10.0, 10.0), (30.0, 8.0), (100.0, 40.0), (5.0, 40.0)]:
        r = gaussian_radius(h, w)
        assert r > 0
        shifted = (r, 0.0, w, h)  # top-left corner moved diagonally inward in x
        assert iou_xyxy((0, 0, w, h), shifted) >= 0.7 - 1e-9
        shifted_out = (-r, -0.0, w, h)
        assert iou_xyxy((0, 0, w, h), shifted_out) >= 0.7 - 1e-9


def test_decode_roundtrip_recovers_corners():
    gts = truth(
        ((20.25, 30.5, 140.75, 90.0), 0),
        ((200.0, 210.0, 380.5, 460.25), 2),
        ((60.0, 300.0, 160.0, 420.0), 1),
    )
    hm = gaussian_targets(gts, 3, 128, 128)
    tls = decode_corners(hm, TOP_LEFT, len(gts))
    brs = decode_corners(hm, BOTTOM_RIGHT, len(gts))
    got_tl = {(c, round(x, 3), round(y, 3)) for c, x, y in tls[["class_id", "x", "y"]].tolist()}
    want_tl = {(c, round(x1, 3), round(y1, 3)) for _, c, (x1, y1, _, _) in gts.tolist()}
    assert got_tl == want_tl
    got_br = {(c, round(x, 3), round(y, 3)) for c, x, y in brs[["class_id", "x", "y"]].tolist()}
    want_br = {(c, round(x2, 3), round(y2, 3)) for _, c, (_, _, x2, y2) in gts.tolist()}
    assert got_br == want_br
