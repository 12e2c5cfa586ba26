import dataclasses

import numpy as np
import pytest

from cornerdet.corners import BOTTOM_RIGHT, TOP_LEFT, decode_corners
from cornerdet.geometry import BBox, iou
from cornerdet.pipeline import PipelineConfig, detect_bundle
from cornerdet.synth import (
    RenderBudgetError,
    Scene,
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


@pytest.mark.parametrize(
    "overrides, fits",
    [
        # 487 x 487 inside the margins: ratio r fits at most 487^2 / r
        ({"aspect_range": (1.48, 8.0)}, True),
        ({"aspect_range": (1.49, 8.0)}, False),
        # 487 x 336 and 336 x 487 fit a box above 400^2 only upright or only lying
        ({"image_size": (511, 360)}, True),
        ({"image_size": (360, 511)}, True),
        ({"image_size": (511, 300)}, False),
        ({"area_range": (576.0, 160001.0)}, False),
        ({"area_range": (576.0, 160001.5)}, True),
        ({"area_range": (100.0, 10000.0), "extreme_area_period": 0}, True),
        ({"area_range": (100.0, 10000.0), "arrangement": "cross"}, True),
    ],
)
def test_forced_area_must_fit(overrides, fits):
    if fits:
        SynthConfig(**overrides)
    else:
        with pytest.raises(ValueError, match="extreme_area_period is set"):
            SynthConfig(**overrides)


@pytest.mark.parametrize(
    "overrides, fits",
    [
        # a box of ratio 5 or more fits at most 487^2 / 5 = 47,433.8 inside the margins
        ({"area_range": (50000.0, 240100.0)}, False),
        ({"area_range": (47433.7, 240100.0)}, True),
        ({"area_range": (47433.9, 240100.0)}, False),
        ({"area_range": (47000.0, 240100.0), "aspect_range": (6.0, 8.0)}, False),
        ({"area_range": (50000.0, 240100.0), "extreme_aspect_period": 0}, True),
        ({"area_range": (50000.0, 240100.0), "arrangement": "cross"}, True),
    ],
)
def test_forced_aspect_area_must_fit(overrides, fits):
    if fits:
        SynthConfig(**overrides)
    else:
        with pytest.raises(ValueError, match="extreme_aspect_period is set"):
            SynthConfig(**overrides)

class TestGenerateScene:
    def test_empty_scene(self):
        cfg = SynthConfig(num_boxes=(0, 0))
        scene = generate_scene(cfg, seed=1)
        assert scene.gts == ()

    def test_deterministic(self):
        cfg = SynthConfig(num_boxes=(2, 5))
        assert generate_scene(cfg, seed=9) == generate_scene(cfg, seed=9)

    def test_boxes_inside_and_separated(self):
        cfg = SynthConfig(num_boxes=(3, 6))
        for seed in range(10):
            scene = generate_scene(cfg, seed=seed)
            h, w = scene.image_size
            assert 1 <= len(scene.gts) <= 6
            for gt in scene.gts:
                assert 0 <= gt.box.x1 < gt.box.x2 <= w
                assert 0 <= gt.box.y1 < gt.box.y2 <= h
                assert 0 <= gt.class_id < cfg.num_classes
            boxes = [gt.box for gt in scene.gts]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert iou(boxes[i], boxes[j]) == 0.0

    def test_aspect_ratios_cover_all_buckets(self):
        cfg = SynthConfig(num_boxes=(2, 6))
        buckets = set()
        sampled = 0
        seed = 0
        while sampled < 10000:
            scene = generate_scene(cfg, seed=seed)
            for gt in scene.gts:
                ratio = max(gt.box.width / gt.box.height, gt.box.height / gt.box.width)
                buckets.add(round(ratio))
                sampled += 1
            seed += 1
        assert {5, 6, 7, 8} <= buckets

    def test_aspect_range_lower_bound(self):
        cfg = SynthConfig(
            num_boxes=(2, 6), aspect_range=(4.0, 8.0), extreme_aspect_period=0, extreme_area_period=0
        )
        ratios = [
            max(gt.box.width / gt.box.height, gt.box.height / gt.box.width)
            for seed in range(20)
            for gt in generate_scene(cfg, seed=seed).gts
        ]
        assert len(ratios) >= 20
        assert 4.0 - 1e-9 <= min(ratios) and max(ratios) <= 8.0 + 1e-9

    def test_forced_aspect(self):
        cfg = SynthConfig(num_boxes=(1, 1))
        scene = generate_scene(cfg, seed=3, force_aspect=(5.0, 8.0))
        gt = scene.gts[0]
        assert max(gt.box.width / gt.box.height, gt.box.height / gt.box.width) >= 5.0

    def test_forced_area(self):
        cfg = SynthConfig(num_boxes=(1, 1))
        scene = generate_scene(cfg, seed=3, force_area=(400.0**2 + 1, 490.0**2))
        assert scene.gts[0].box.area > 400.0**2

    def test_area_period_one_forces_every_scene(self):
        cfg = SynthConfig(extreme_aspect_period=0, extreme_area_period=1)
        for index in range(4):
            assert scene_forces(cfg, index) == (None, (400.0**2 + 1.0, cfg.area_range[1]))

    def test_default_periods_schedule(self):
        forces = [scene_forces(SynthConfig(), index) for index in range(10)]
        assert [i for i, (aspect, _) in enumerate(forces) if aspect] == [0, 5]
        assert [i for i, (_, area) in enumerate(forces) if area] == [1, 6]

    def test_infeasible_range(self):
        # no forced extreme area or aspect, which the config itself would reject
        cfg = SynthConfig(
            image_size=(64, 64),
            num_boxes=(1, 1),
            area_range=(300.0**2, 400.0**2),
            extreme_area_period=0,
            extreme_aspect_period=0,
        )
        with pytest.raises(RenderBudgetError):
            generate_scene(cfg, seed=0)


class TestCrossScene:
    def test_four_valid_pairs_two_survive(self):
        cfg = SynthConfig(arrangement="cross", num_classes=3)
        scene, bundle = build_scene(cfg, seed=5)
        a, b = (gt.box for gt in scene.gts)
        assert scene.gts[0].class_id == scene.gts[1].class_id
        # both cross pairings valid: corners interleave in both axes
        assert a.x1 < b.x2 and a.y1 < b.y2 and b.x1 < a.x2 and b.y1 < a.y2

        res = detect_bundle(bundle, PipelineConfig(k=2))
        assert len(res.proposals) == 4
        assert res.num_survivors == 2
        assert len(res.detections) == 2
        matched = sorted(
            max(iou(BBox(*d["box"]), gt.box) for gt in scene.gts) for d in res.detections
        )
        assert matched[0] > 0.99

    def test_bypass_leaks_false_pairings(self):
        cfg = SynthConfig(arrangement="cross", num_classes=3)
        scene, bundle = build_scene(cfg, seed=8)
        enabled = detect_bundle(bundle, PipelineConfig(k=2))
        bypassed = detect_bundle(bundle, PipelineConfig(k=2, use_binary_head=False))
        assert len(enabled.detections) == 2
        assert len(bypassed.detections) >= 4  # cross pairings leak into the output
        true_boxes = [gt.box for gt in scene.gts]
        leaked = [
            det
            for det in bypassed.detections
            if all(iou(BBox(*det["box"]), tb) < 0.9 for tb in true_boxes)
        ]
        assert leaked, "expected cross pairings in the bypassed output"


class TestRenderOracle:
    def test_single_box_closed_loop(self):
        cfg = SynthConfig(num_boxes=(1, 1))
        scene, bundle = build_scene(cfg, seed=2)
        (gt,) = scene.gts
        tls = decode_corners(bundle.heatmaps, TOP_LEFT, 2)
        brs = decode_corners(bundle.heatmaps, BOTTOM_RIGHT, 2)
        assert tls[0]["x"] == pytest.approx(gt.box.x1, abs=1e-3)
        assert tls[0]["y"] == pytest.approx(gt.box.y1, abs=1e-3)
        assert brs[0]["x"] == pytest.approx(gt.box.x2, abs=1e-3)
        assert brs[0]["y"] == pytest.approx(gt.box.y2, abs=1e-3)

        res = detect_bundle(bundle, PipelineConfig(k=2))
        assert len(res.detections) == 1
        det = res.detections[0]
        assert det["class_id"] == gt.class_id
        assert iou(BBox(*det["box"]), gt.box) > 0.99

    @pytest.mark.filterwarnings("error")  # detect_bundle keeps the overflow silent
    @pytest.mark.parametrize("kind, name", [("tl", "tl_off"), ("br", "br_off")])
    @pytest.mark.parametrize("plane, value", [(0, 1e38), (1, 1e38), (0, -1e38), (1, -1e38)])
    def test_offset_overflowing_corner_raises(self, kind, name, plane, value):
        # a finite offset under the true corner's cell: the corner decodes to
        # an infinite x or y, which would pair with nothing and lose the box
        cfg = SynthConfig(num_boxes=(1, 1))
        _, bundle = build_scene(cfg, seed=2)
        heat = getattr(bundle.heatmaps, f"{kind}_heat")
        _, row, col = np.unravel_index(np.argmax(heat), heat.shape)
        off = getattr(bundle.heatmaps, name).copy()
        off[plane, row, col] = value
        heatmaps = dataclasses.replace(bundle.heatmaps, **{name: off})
        bad = dataclasses.replace(bundle, heatmaps=heatmaps)
        message = f"^{name} puts a corner at a position that overflows float32$"
        with pytest.raises(ValueError, match=message):
            detect_bundle(bad, PipelineConfig(k=2))
        assert len(detect_bundle(bundle, PipelineConfig(k=2)).detections) == 1

    def test_extreme_aspect_recovered(self):
        cfg = SynthConfig(num_boxes=(1, 1))
        scene, bundle = build_scene(cfg, seed=4, force_aspect=(7.5, 8.0))
        res = detect_bundle(bundle, PipelineConfig(k=4))
        (gt,) = scene.gts
        best = max(iou(BBox(*d["box"]), gt.box) for d in res.detections)
        assert best >= 0.99

    def test_closed_loop_multi_scene(self):
        cfg = SynthConfig(num_boxes=(2, 6))
        for seed in (11, 12, 13):
            scene, bundle = build_scene(cfg, seed=seed)
            res = detect_bundle(bundle, PipelineConfig(k=16))
            used = set()
            for gt in scene.gts:
                candidates = [
                    i
                    for i, det in enumerate(res.detections)
                    if i not in used
                    and det["class_id"] == gt.class_id
                    and iou(BBox(*det["box"]), gt.box) >= 0.99
                ]
                assert candidates, f"ground truth not recovered (seed {seed})"
                used.add(candidates[0])

    def test_render_lists_the_channels_with_data(self):
        cfg = SynthConfig(num_boxes=(2, 6), num_classes=5)
        for seed in (3, 4):
            _, bundle = build_scene(cfg, seed=seed)
            f = bundle.features
            for feat, channels in ((f.box_feat, f.box_channels), (f.cat_feat, f.cat_channels)):
                assert channels.dtype.kind == "i"
                assert channels.tolist() == np.flatnonzero(feat.reshape(len(feat), -1).any(axis=1)).tolist()

    def test_verification_clean(self):
        cfg = SynthConfig(num_boxes=(2, 5))
        scene, bundle = build_scene(cfg, seed=21)
        assert verify_bundle(scene, bundle) == []

    def test_verification_names_a_weak_true_box(self):
        scene, bundle = build_scene(SynthConfig(num_boxes=(1, 1)), seed=2)
        bundle.features.box_feat[0] = 0.0
        (problem,) = verify_bundle(scene, bundle)
        assert problem.startswith("true box 0: binary score ")

    def test_verification_names_a_wrong_class_argmax(self):
        scene, bundle = build_scene(SynthConfig(num_boxes=(1, 1)), seed=2)
        cls = scene.gts[0].class_id
        other = 1 - cls
        f = bundle.features
        f.cat_feat[other] = f.cat_feat[cls]
        f.cat_feat[cls] = 0.0
        features = dataclasses.replace(f, cat_channels=np.array([other]))
        (problem,) = verify_bundle(scene, dataclasses.replace(bundle, features=features))
        assert problem == f"true box 0: class argmax {other} != {cls}"

    def test_verification_names_a_strong_cross_pairing(self):
        scene, bundle = build_scene(SynthConfig(arrangement="cross"), seed=5)
        assert verify_bundle(scene, bundle) == []
        a, b = (gt.box for gt in scene.gts)
        _paint_coverage(bundle.features.box_feat[0], BBox(a.x1, a.y1, b.x2, b.y2))
        (problem,) = verify_bundle(scene, bundle)
        assert problem.startswith("cross pairing 0->1: binary score ")

    def test_bundle_deterministic(self):
        cfg = SynthConfig(num_boxes=(2, 4), noise=0.03)
        s1, b1 = build_scene(cfg, seed=6)
        s2, b2 = build_scene(cfg, seed=6)
        assert s1 == s2
        assert np.array_equal(b1.heatmaps.tl_heat, b2.heatmaps.tl_heat)
        assert np.array_equal(b1.heatmaps.br_off, b2.heatmaps.br_off)
        assert np.array_equal(b1.features.box_feat, b2.features.box_feat)
        assert np.array_equal(b1.weights.class_kernel, b2.weights.class_kernel)

    def test_noise_bounds(self):
        cfg = SynthConfig(num_boxes=(1, 3), noise=0.05)
        scene, bundle = build_scene(cfg, seed=10)
        for heat in (bundle.heatmaps.tl_heat, bundle.heatmaps.br_heat):
            assert heat.min() >= 0.0
            assert heat.max() <= 1.0
