"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The main corpus (100 scenes) is built once per session; detection runs
through the CLI exactly as a user would drive it.
"""

import json
import math
import time

import numpy as np
import pytest

import brute_eval
from cornerdet.cli import main, proposals_sibling
from cornerdet.corners import decode_corners
from cornerdet.evaluation import build_report
from cornerdet.geometry import DET_DTYPE
from cornerdet.losses import (
    loss_class,
    loss_class_grad,
    loss_corner_det,
    loss_corner_det_grad,
    loss_prop,
    loss_prop_grad,
)
from cornerdet.postprocess import (
    filter_by_objectness,
    fuse_scores,
    read_detections,
    soft_nms,
)
from cornerdet.proposals import enumerate_proposals, roi_align_batch
from cornerdet.synth import SynthConfig, write_corpus
from oracles import (
    central_difference,
    naive_pairs,
    naive_roi_align,
    naive_soft_nms,
    relative_gradient_error,
)
from test_proposals import pair_indices, random_keypoints


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_corpus")
    cfg = {
        "num_classes": 2,
        "noise": 0.02,
    }
    cfg_path = out / "synth_config.json"
    cfg_path.write_text(json.dumps(cfg))
    corpus = out / "corpus"
    code = main(
        ["synth", "--config", str(cfg_path), "--out", str(corpus), "--count", "100", "--seed", "20240501"]
    )
    assert code == 0
    return corpus


@pytest.fixture(scope="session")
def detect_run(corpus_dir, tmp_path_factory):
    """Timed single-threaded cmd_detect + cmd_eval over the main corpus."""
    out = tmp_path_factory.mktemp("acceptance_run")
    dump = out / "detections.json"
    report_path = out / "report.json"
    start = time.perf_counter()
    assert main(["detect", "--corpus", str(corpus_dir), "--out", str(dump), "--workers", "1"]) == 0
    assert (
        main(
            [
                "eval",
                "--dets",
                str(dump),
                "--gt",
                str(corpus_dir / "ground_truth.json"),
                "--report",
                str(report_path),
            ]
        )
        == 0
    )
    elapsed = time.perf_counter() - start
    report = json.loads(report_path.read_text())
    return {"dump": dump, "report": report, "elapsed": elapsed, "corpus": corpus_dir}


def test_criterion_1_closed_loop(detect_run, corpus_dir):
    gt = json.loads((corpus_dir / "ground_truth.json").read_text())
    by_image = {}
    for ann in gt["annotations"]:
        by_image.setdefault(ann["image_id"], []).append(ann["bbox"])
    extreme_aspect = sum(
        1
        for boxes in by_image.values()
        if any(max(w / h, h / w) >= 5.0 for (_, _, w, h) in boxes)
    )
    extreme_area = sum(
        1 for boxes in by_image.values() if any(w * h > 400.0**2 for (_, _, w, h) in boxes)
    )
    report = detect_run["report"]
    ap, ar = report["ap"], report["ar_1000"]
    elapsed = detect_run["elapsed"]
    ok = (
        len(by_image) <= 100
        and extreme_aspect >= 10
        and extreme_area >= 10
        and ap >= 0.99
        and ar >= 0.99
        and elapsed < 60.0
    )
    check(
        1,
        ok,
        f"AP={ap:.4f} AR1000={ar:.4f} runtime={elapsed:.1f}s "
        f"(aspect>=5:1 scenes: {extreme_aspect}, area>400^2 scenes: {extreme_area})",
    )


def test_criterion_2_false_positive_filtering(tmp_path_factory):
    out = tmp_path_factory.mktemp("xcorpus")
    corpus = out / "corpus"
    synth_cfg = {"arrangement": "cross", "num_classes": 4, "noise": 0.04}
    cfg_path = out / "synth.json"
    cfg_path.write_text(json.dumps(synth_cfg))
    assert (
        main(["synth", "--config", str(cfg_path), "--out", str(corpus), "--count", "12", "--seed", "99"])
        == 0
    )

    reports = {}
    proposal_counts = {}
    for mode, pipe_cfg in (("enabled", {"k": 12}), ("bypass", {"k": 12, "use_binary_head": False})):
        pc_path = out / f"pipe_{mode}.json"
        pc_path.write_text(json.dumps(pipe_cfg))
        dump = out / f"dets_{mode}.json"
        assert (
            main(
                ["detect", "--corpus", str(corpus), "--config", str(pc_path), "--out", str(dump)]
            )
            == 0
        )
        report_path = out / f"report_{mode}.json"
        assert (
            main(
                [
                    "eval",
                    "--dets",
                    str(dump),
                    "--gt",
                    str(corpus / "ground_truth.json"),
                    "--report",
                    str(report_path),
                ]
            )
            == 0
        )
        reports[mode] = json.loads(report_path.read_text())
        if mode == "enabled":
            for rec in read_detections(proposals_sibling(dump)):
                proposal_counts[rec["image_id"]] = proposal_counts.get(rec["image_id"], 0) + 1

    gt = json.loads((corpus / "ground_truth.json").read_text())
    objects = {}
    for ann in gt["annotations"]:
        objects[ann["image_id"]] = objects.get(ann["image_id"], 0) + 1
    pairing_blowup = all(
        proposal_counts.get(img, 0) >= 2 * n for img, n in objects.items()
    )

    af_on = reports["enabled"]["af"]
    af_off = reports["bypass"]["af"]
    reduction = 1.0 - af_on / af_off if af_off > 0 else 0.0
    ok = pairing_blowup and af_off > 0 and af_on <= 0.5 * af_off
    check(
        2,
        ok,
        f"AF bypass={af_off:.4f} enabled={af_on:.4f} reduction={reduction * 100.0:.0f}% "
        f"(proposals >= 2x objects in all {len(objects)} scenes: {pairing_blowup})",
    )


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(333)
    worst = {"prop": 0.0, "class": 0.0, "corner": 0.0}

    for _ in range(100):
        m = int(rng.integers(1, 9))
        p = rng.uniform(0.1, 0.9, m)
        labels = rng.uniform(0, 1, m)
        err = relative_gradient_error(
            loss_prop_grad(p, labels),
            central_difference(lambda x: loss_prop(x, labels), p.copy(), step=1e-3),
        )
        worst["prop"] = max(worst["prop"], err)

    for _ in range(100):
        m = int(rng.integers(1, 9))
        c = int(rng.integers(1, 5))
        q = rng.uniform(0.1, 0.9, (m, c))
        labels = rng.uniform(0, 1, (m, c))
        err = relative_gradient_error(
            loss_class_grad(q, labels),
            central_difference(lambda x: loss_class(x, labels), q.copy(), step=1e-3),
        )
        worst["class"] = max(worst["class"], err)

    for _ in range(100):
        c = int(rng.integers(1, 5))
        target = np.zeros((c, 8, 8))
        for _ in range(int(rng.integers(1, 6))):
            target[rng.integers(c), rng.integers(8), rng.integers(8)] = 1.0
        tails = np.where(rng.random(target.shape) < 0.25, rng.uniform(0, 0.99, target.shape), 0.0)
        target = np.maximum(target, tails)
        pred = rng.uniform(0.1, 0.9, target.shape)
        err = relative_gradient_error(
            loss_corner_det_grad(pred, target),
            central_difference(lambda x: loss_corner_det(x, target), pred.copy(), step=1e-3),
        )
        worst["corner"] = max(worst["corner"], err)

    ok = all(v < 1e-4 for v in worst.values())
    check(
        3,
        ok,
        "max relative error over 100 instances each: "
        + " ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_criterion_4_roi_align_oracle():
    rng = np.random.default_rng(444)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        h = int(rng.integers(4, 17))
        w = int(rng.integers(4, 17))
        feat = rng.standard_normal((d, h, w)).astype(np.float32)
        span_x, span_y = 4.0 * w, 4.0 * h
        x1 = float(rng.uniform(-0.6 * span_x, 0.9 * span_x))
        y1 = float(rng.uniform(-0.6 * span_y, 0.9 * span_y))
        x2 = x1 + float(rng.uniform(0.5, 1.2 * span_x))
        y2 = y1 + float(rng.uniform(0.5, 1.2 * span_y))
        box = np.array([x1, y1, x2, y2])
        got = roi_align_batch(feat, box[None], np.arange(d))[0]
        want = naive_roi_align(feat, (x1, y1, x2, y2))
        worst = max(worst, float(np.max(np.abs(got - want))))
    check(4, worst < 1e-5, f"max |impl - dense bilinear oracle| = {worst:.2e} over 1000 instances")


def test_criterion_5_soft_nms_oracle():
    rng = np.random.default_rng(555)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        boxes, scores, classes = [], [], []
        for _ in range(n):
            x, y = rng.uniform(0, 90, 2)
            bw, bh = rng.uniform(1, 60, 2)
            boxes.append((float(x), float(y), float(x + bw), float(y + bh)))
            classes.append(int(rng.integers(4)))
            scores.append(float(rng.random()))
        dets = np.array([(0, *row) for row in zip(classes, boxes, scores)], dtype=DET_DTYPE)
        got = soft_nms(dets)
        want = naive_soft_nms(boxes, scores, classes, sigma=0.5, prune=1e-3)
        got_rows = list(zip(got["box"].tolist(), got["class_id"].tolist(), got["score"].tolist()))
        if got_rows != [(list(boxes[i]), classes[i], s) for i, s in want]:
            mismatches += 1
    check(5, mismatches == 0, f"{mismatches} mismatches vs naive O(n^2) reference on 1000 instances")


def test_criterion_6_evaluator_oracle():
    from test_evaluation import gt_set, random_instance, to_brute

    rng = np.random.default_rng(666)
    worst = 0.0
    identity_ok = True
    for _ in range(100):
        dets, gts = random_instance(rng)
        props, _ = random_instance(rng)
        doc = build_report(dets, props, gt_set(gts, n_images=2))
        brute = brute_eval.brute_report(to_brute(dets), to_brute(props), to_brute(gts))
        for key, want in brute.items():
            if key == "undefined":
                if set(doc[key]) != set(want):
                    worst = math.inf
            elif isinstance(want, list):
                worst = max(worst, float(np.max(np.abs(np.array(doc[key]) - np.array(want)))))
            else:
                worst = max(worst, abs(doc[key] - want))
        recomputed = 1.0 - math.fsum(doc["af_grid"]) / len(doc["af_grid"])
        if doc["af"] != recomputed:
            identity_ok = False
    check(
        6,
        worst <= 1e-9 and identity_ok,
        f"max |field difference| = {worst:.2e} over 100 instances; AF == 1 - mean(grid): {identity_ok}",
    )


def test_criterion_7_pair_enumeration(detect_run, corpus_dir):
    rng = np.random.default_rng(777)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(1, 71))
        tls = random_keypoints(rng, k, num_classes=int(rng.integers(1, 6)))
        brs = random_keypoints(rng, k, num_classes=int(rng.integers(1, 6)))
        got = enumerate_proposals(tls, brs)
        want = naive_pairs(tls, brs)
        if pair_indices(tls, brs, got) != want:
            mismatches += 1

    proposals = read_detections(proposals_sibling(detect_run["dump"]))
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    mean_count = len(proposals) / manifest["count"]
    ok = mismatches == 0 and 500.0 <= mean_count <= 5000.0
    check(
        7,
        ok,
        f"{mismatches} mismatches vs exhaustive filtering on 1000 sets; "
        f"mean proposals/image at k=70: {mean_count:.0f} (expected 500..5000)",
    )


def test_criterion_8_monotonicity_and_ranges():
    rng = np.random.default_rng(888)
    violations = {"filter": 0, "fuse": 0, "nms": 0, "decode": 0}

    items = np.arange(40)
    for _ in range(1000):
        scores = rng.random(40)
        a, b = sorted(rng.random(2))
        if not set(filter_by_objectness(items, scores, b).tolist()) <= set(
            filter_by_objectness(items, scores, a).tolist()
        ):
            violations["filter"] += 1

    for _ in range(1000):
        s1, s2 = rng.random(2)
        v = fuse_scores(s1, s2)
        if not 0.0 <= v <= 1.0:
            violations["fuse"] += 1
        d1 = (1.0 - s1) * float(rng.uniform(0.1, 0.9))
        d2 = (1.0 - s2) * float(rng.uniform(0.1, 0.9))
        if not (fuse_scores(s1 + d1, s2) > v and fuse_scores(s1, s2 + d2) > v):
            violations["fuse"] += 1

    for _ in range(1000):
        n = int(rng.integers(1, 13))
        rows = []
        for _ in range(n):
            x, y = rng.uniform(0, 60, 2)
            bw, bh = rng.uniform(2, 40, 2)
            box = (float(x), float(y), float(x + bw), float(y + bh))
            rows.append((0, int(rng.integers(3)), box, float(rng.random())))
        dets = np.array(rows, dtype=DET_DTYPE)
        for o in soft_nms(dets):
            same = np.all(dets["box"] == o["box"], axis=1) & (dets["class_id"] == o["class_id"])
            inputs = dets["score"][same]
            if not inputs.size or o["score"] > inputs.max():
                violations["nms"] += 1
                break

    for _ in range(1000):
        c = int(rng.integers(1, 4))
        heat = rng.random((c, 8, 8)).astype(np.float32)
        off = (rng.random((2, 8, 8)) * 0.999).astype(np.float32)
        k = int(rng.integers(1, c * 64 + 1))
        kps = decode_corners(heat, off, k)
        scores = kps["score"].tolist()
        if scores != sorted(scores, reverse=True):
            violations["decode"] += 1

    ok = all(v == 0 for v in violations.values())
    check(
        8,
        ok,
        "violations per 1000-case suite: "
        + " ".join(f"{k}={v}" for k, v in violations.items()),
    )


def test_criterion_9_worker_determinism(detect_run, corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("determinism")
    dump8 = out / "dets8.json"
    assert (
        main(["detect", "--corpus", str(corpus_dir), "--out", str(dump8), "--workers", "8"]) == 0
    )
    same_dets = detect_run["dump"].read_bytes() == dump8.read_bytes()
    same_props = (
        proposals_sibling(detect_run["dump"]).read_bytes()
        == proposals_sibling(dump8).read_bytes()
    )
    check(9, same_dets and same_props, f"dumps byte-identical (dets: {same_dets}, proposals: {same_props})")
