import dataclasses

import numpy as np
import pytest

from cornerdet import synth
from cornerdet.corners import STRIDE, decode_corners
from cornerdet.geometry import TRUTH_DTYPE, iou_matrix
from cornerdet.pipeline import PipelineConfig, detect_bundle
from cornerdet.synth import (
    BOX_GAP,
    IMAGE_SIZE,
    MAX_BOXES,
    SCENE_TENSORS,
    OracleBundle,
    RenderBudgetError,
    SynthConfig,
    _paint_coverage,
    build_scene,
    generate_cross_scene,
    generate_scene,
    map_size,
    render_oracle,
    scene_forces,
    verify_bundle,
)


def test_map_size_matches_convention():
    assert map_size(511) == 128


def best_ious(dets, truth) -> np.ndarray:
    """Each detection's best IoU with the truth rows."""
    return iou_matrix(dets["box"], truth["box"]).max(axis=1)


def corner_cells(box) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (row, col) heatmap cells of a box's top-left and bottom-right corners."""
    x1, y1, x2, y2 = (int(v // STRIDE) for v in box)
    return (y1, x1), (y2, x2)


def cells_touch(a, b) -> bool:
    return abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1


class TestGenerateScene:
    def test_empty_scene(self):
        cfg = SynthConfig(num_boxes=(0, 0))
        scene = generate_scene(cfg, seed=1)
        assert scene.truth.shape == (0,) and scene.truth.dtype == TRUTH_DTYPE

    def test_deterministic(self):
        cfg = SynthConfig(num_boxes=(2, 5))
        a, b = generate_scene(cfg, seed=9), generate_scene(cfg, seed=9)
        assert len(a.truth) >= 2 and np.array_equal(a.truth, b.truth) and a.seed == b.seed

    def test_boxes_inside_and_separated(self):
        cfg = SynthConfig(num_boxes=(3, 6))
        for seed in range(10):
            scene = generate_scene(cfg, seed=seed)
            h, w = IMAGE_SIZE
            assert 1 <= len(scene.truth) <= 6
            for image_id, class_id, (x1, y1, x2, y2) in scene.truth.tolist():
                assert image_id == 0
                assert 0 <= x1 < x2 <= w
                assert 0 <= y1 < y2 <= h
                assert 0 <= class_id < cfg.num_classes
            boxes = scene.truth["box"].tolist()
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = boxes[i], boxes[j]
                    assert (
                        ax2 + BOX_GAP <= bx1
                        or bx2 + BOX_GAP <= ax1
                        or ay2 + BOX_GAP <= by1
                        or by2 + BOX_GAP <= ay1
                    )
                    for a, b in zip(corner_cells(boxes[i]), corner_cells(boxes[j])):
                        assert not cells_touch(a, b)

    def test_aspect_ratios_cover_all_buckets(self):
        cfg = SynthConfig(num_boxes=(2, 6))
        buckets = set()
        sampled = 0
        seed = 0
        while sampled < 10000:
            scene = generate_scene(cfg, seed=seed)
            for x1, y1, x2, y2 in scene.truth["box"].tolist():
                w, h = x2 - x1, y2 - y1
                buckets.add(round(max(w / h, h / w)))
                sampled += 1
            seed += 1
        assert {5, 6, 7, 8} <= buckets

    def test_forced_aspect(self):
        cfg = SynthConfig(num_boxes=(1, 1))
        scene = generate_scene(cfg, seed=3, extreme="aspect")
        x1, y1, x2, y2 = scene.truth["box"][0]
        w, h = x2 - x1, y2 - y1
        assert max(w / h, h / w) >= 5.0

    def test_forced_area(self):
        cfg = SynthConfig(num_boxes=(1, 1))
        scene = generate_scene(cfg, seed=3, extreme="area")
        x1, y1, x2, y2 = scene.truth["box"][0]
        assert (x2 - x1) * (y2 - y1) > 400.0**2

    def test_default_periods_schedule(self):
        forces = [scene_forces(SynthConfig(), index) for index in range(10)]
        assert forces == ["aspect", "area", None, None, None] * 2
        cross = SynthConfig(arrangement="cross")
        assert [scene_forces(cross, index) for index in range(10)] == [None] * 10

    def test_infeasible_range(self, monkeypatch):
        # the forced area lies above AREA_RANGE, so no first box can be drawn
        monkeypatch.setattr(synth, "EXTREME_AREA", 250000.0)
        cfg = SynthConfig(num_boxes=(1, 1))
        with pytest.raises(RenderBudgetError):
            generate_scene(cfg, seed=0, extreme="area")

    def test_box_count_beyond_the_image_rejected(self):
        # a box plus its gap covers at least 34 x 34 px of the 497 x 497 px
        assert MAX_BOXES == 213
        SynthConfig(num_boxes=(MAX_BOXES, MAX_BOXES))
        for num_boxes in [(MAX_BOXES, MAX_BOXES + 1), (0, 2**63 - 1), (MAX_BOXES + 1, MAX_BOXES + 1)]:
            with pytest.raises(ValueError, match=f"hi must be at most {MAX_BOXES}"):
                SynthConfig(num_boxes=num_boxes)


class TestCrossScene:
    def test_four_valid_pairs_two_survive(self):
        cfg = SynthConfig(arrangement="cross", num_classes=3)
        scene, bundle = build_scene(cfg, seed=5)
        (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = scene.truth["box"].tolist()
        assert scene.truth["class_id"][0] == scene.truth["class_id"][1]
        # both cross pairings valid: corners interleave in both axes
        assert ax1 < bx2 and ay1 < by2 and bx1 < ax2 and by1 < ay2
        for a, b in zip(*map(corner_cells, scene.truth["box"].tolist())):
            assert not cells_touch(a, b)

        res = detect_bundle(bundle, PipelineConfig(k=2))
        assert len(res.proposals) == 4
        assert res.num_survivors == 2
        assert len(res.detections) == 2
        assert best_ious(res.detections, scene.truth).min() > 0.99

    def test_bypass_leaks_false_pairings(self):
        cfg = SynthConfig(arrangement="cross", num_classes=3)
        scene, bundle = build_scene(cfg, seed=8)
        enabled = detect_bundle(bundle, PipelineConfig(k=2))
        bypassed = detect_bundle(bundle, PipelineConfig(k=2, use_binary_head=False))
        assert len(enabled.detections) == 2
        assert len(bypassed.detections) >= 4  # cross pairings leak into the output
        leaked = best_ious(bypassed.detections, scene.truth) < 0.9
        assert leaked.any(), "expected cross pairings in the bypassed output"


class TestRenderOracle:
    def test_bundle_fields_start_with_the_scene_tensors(self):
        fields = tuple(field.name for field in dataclasses.fields(OracleBundle))
        assert fields == SCENE_TENSORS + ("box_channels", "cat_channels", "weights")

    def test_single_box_closed_loop(self):
        cfg = SynthConfig(num_boxes=(1, 1))
        scene, bundle = build_scene(cfg, seed=2)
        ((_, class_id, (x1, y1, x2, y2)),) = scene.truth.tolist()
        tls = decode_corners(bundle.tl_heat, bundle.tl_off, 2)
        brs = decode_corners(bundle.br_heat, bundle.br_off, 2)
        assert tls[0]["x"] == pytest.approx(x1, abs=1e-3)
        assert tls[0]["y"] == pytest.approx(y1, abs=1e-3)
        assert brs[0]["x"] == pytest.approx(x2, abs=1e-3)
        assert brs[0]["y"] == pytest.approx(y2, abs=1e-3)

        res = detect_bundle(bundle, PipelineConfig(k=2))
        assert len(res.detections) == 1
        assert res.detections["class_id"][0] == class_id
        assert best_ious(res.detections, scene.truth)[0] > 0.99

    @pytest.mark.filterwarnings("error")  # detect_bundle keeps the overflow silent
    @pytest.mark.parametrize("kind, name", [("tl", "tl_off"), ("br", "br_off")])
    @pytest.mark.parametrize("plane, value", [(0, 1e38), (1, 1e38), (0, -1e38), (1, -1e38)])
    def test_offset_overflowing_corner_raises(self, kind, name, plane, value):
        # a finite offset under the true corner's cell: the corner decodes to
        # an infinite x or y, which would pair with nothing and lose the box
        cfg = SynthConfig(num_boxes=(1, 1))
        _, bundle = build_scene(cfg, seed=2)
        heat = getattr(bundle, f"{kind}_heat")
        _, row, col = np.unravel_index(np.argmax(heat), heat.shape)
        off = getattr(bundle, name).copy()
        off[plane, row, col] = value
        bad = dataclasses.replace(bundle, **{name: off})
        message = f"^{name} puts a corner at a position that overflows float32$"
        with pytest.raises(ValueError, match=message):
            detect_bundle(bad, PipelineConfig(k=2))
        assert len(detect_bundle(bundle, PipelineConfig(k=2)).detections) == 1

    @pytest.mark.parametrize("name", ["tl_heat", "br_heat"])
    def test_heatmap_outside_unit_range_raises(self, name):
        # 1.5 at the true corner's peak: a corner score above 1 would skew
        # the proposal scores and their order without an error
        cfg = SynthConfig(num_boxes=(1, 1))
        _, bundle = build_scene(cfg, seed=2)
        heat = getattr(bundle, name).copy()
        heat[np.unravel_index(np.argmax(heat), heat.shape)] = 1.5
        bad = dataclasses.replace(bundle, **{name: heat})
        with pytest.raises(ValueError, match=rf"^{name} holds values outside \[0, 1\]$"):
            detect_bundle(bad, PipelineConfig(k=2))

    def test_extreme_aspect_recovered(self, monkeypatch):
        # aspect ratios drawn from [7.5, 8]
        monkeypatch.setattr(synth, "EXTREME_ASPECT", 7.5)
        cfg = SynthConfig(num_boxes=(1, 1))
        scene, bundle = build_scene(cfg, seed=4, extreme="aspect")
        res = detect_bundle(bundle, PipelineConfig(k=4))
        assert len(scene.truth) == 1
        assert best_ious(res.detections, scene.truth).max() >= 0.99

    def test_closed_loop_multi_scene(self):
        cfg = SynthConfig(num_boxes=(2, 6))
        for seed in (11, 12, 13):
            scene, bundle = build_scene(cfg, seed=seed)
            res = detect_bundle(bundle, PipelineConfig(k=16))
            ious = iou_matrix(res.detections["box"], scene.truth["box"])
            used = set()
            for g, class_id in enumerate(scene.truth["class_id"]):
                candidates = [
                    i
                    for i, det in enumerate(res.detections)
                    if i not in used and det["class_id"] == class_id and ious[i, g] >= 0.99
                ]
                assert candidates, f"ground truth not recovered (seed {seed})"
                used.add(candidates[0])

    def test_render_lists_the_channels_with_data(self):
        cfg = SynthConfig(num_boxes=(2, 6), num_classes=5)
        for seed in (3, 4):
            _, bundle = build_scene(cfg, seed=seed)
            for feat, channels in ((bundle.box_feat, bundle.box_channels), (bundle.cat_feat, bundle.cat_channels)):
                assert channels.dtype.kind == "i"
                assert channels.tolist() == np.flatnonzero(feat.reshape(len(feat), -1).any(axis=1)).tolist()

    def test_verification_clean(self):
        cfg = SynthConfig(num_boxes=(2, 5))
        scene, bundle = build_scene(cfg, seed=21)
        assert verify_bundle(scene, bundle) == []

    @pytest.mark.parametrize("count", [0, 1])
    def test_verification_without_cross_pairings(self, count):
        # one box pairs only with itself, so the scored batch holds just the
        # true boxes and the cross scores split off empty
        cfg = SynthConfig(num_boxes=(count, count))
        scene = generate_scene(cfg, seed=2)
        assert len(scene.truth) == count
        assert verify_bundle(scene, render_oracle(scene, cfg)) == []

    def test_verification_names_a_weak_true_box(self):
        scene, bundle = build_scene(SynthConfig(num_boxes=(1, 1)), seed=2)
        bundle.box_feat[0] = 0.0
        (problem,) = verify_bundle(scene, bundle)
        assert problem.startswith("true box 0: binary score ")

    def test_verification_names_a_wrong_class_argmax(self):
        scene, bundle = build_scene(SynthConfig(num_boxes=(1, 1)), seed=2)
        cls = int(scene.truth["class_id"][0])
        other = 1 - cls
        bundle.cat_feat[other] = bundle.cat_feat[cls]
        bundle.cat_feat[cls] = 0.0
        (problem,) = verify_bundle(scene, dataclasses.replace(bundle, cat_channels=np.array([other])))
        assert problem == f"true box 0: class argmax {other} != {cls}"

    def test_verification_names_a_strong_cross_pairing(self):
        scene, bundle = build_scene(SynthConfig(arrangement="cross"), seed=5)
        assert verify_bundle(scene, bundle) == []
        a, b = scene.truth["box"]
        _paint_coverage(bundle.box_feat[0], (*a[:2], *b[2:]))
        (problem,) = verify_bundle(scene, bundle)
        assert problem.startswith("cross pairing 0->1: binary score ")

    def test_bundle_deterministic(self):
        cfg = SynthConfig(num_boxes=(2, 4), noise=0.03)
        s1, b1 = build_scene(cfg, seed=6)
        s2, b2 = build_scene(cfg, seed=6)
        assert np.array_equal(s1.truth, s2.truth) and s1.seed == s2.seed
        assert np.array_equal(b1.tl_heat, b2.tl_heat)
        assert np.array_equal(b1.br_off, b2.br_off)
        assert np.array_equal(b1.box_feat, b2.box_feat)
        assert np.array_equal(b1.weights.class_kernel, b2.weights.class_kernel)

    def test_noise_bounds(self):
        cfg = SynthConfig(num_boxes=(1, 3), noise=0.05)
        scene, bundle = build_scene(cfg, seed=10)
        for heat in (bundle.tl_heat, bundle.br_heat):
            assert heat.min() >= 0.0
            assert heat.max() <= 1.0
