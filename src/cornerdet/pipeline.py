"""End-to-end detection over rendered tensor bundles.

Stages per image: decode the top-k corners of each kind, enumerate valid
pairs, score every pair with the binary head over RoIAligned box features,
keep survivors past the objectness threshold, classify them with the C-way
head, fuse scores, run per-class soft-NMS, and keep the top 100.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cornerdet.corners import BOTTOM_RIGHT, TOP_LEFT, decode_corners
from cornerdet.postprocess import (
    detection_records,
    filter_by_objectness,
    label_detections,
    soft_nms,
    top_k_truncate,
)
from cornerdet.proposals import (
    binary_scores,
    class_scores,
    enumerate_proposals,
    roi_align_batch,
)
from cornerdet.synth import OracleBundle, load_scene_bundle, read_manifest


@dataclass(frozen=True)
class PipelineConfig:
    """Operating constants; the defaults are the published operating points."""

    k: int = 70
    objectness_threshold: float = 0.2
    soft_nms_sigma: float = 0.5
    soft_nms_prune: float = 0.001
    top_k: int = 100
    num_classes: int | None = None
    stride: int = 4
    use_binary_head: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.objectness_threshold < 1.0:
            raise ValueError("objectness_threshold must lie in (0, 1)")
        if self.soft_nms_sigma <= 0.0:
            raise ValueError("soft_nms_sigma must be positive")
        if self.soft_nms_prune < 0.0:
            raise ValueError("soft_nms_prune must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass(frozen=True)
class SceneResult:
    """Detections plus the raw proposals of one image, as BOX_DTYPE rows."""

    detections: np.ndarray
    proposals: np.ndarray
    num_survivors: int


# NaN or infinity in the features turns into NaN scores, which raise below;
# numpy's "invalid value" warning would only add lines to the error
@np.errstate(invalid="ignore")
def detect_bundle(bundle: OracleBundle, config: PipelineConfig) -> SceneResult:
    """Run the full pipeline on one image's tensors.

    Non-finite corner heatmaps or offsets, non-finite objectness scores
    (from box_feat or the binary head weights) and non-finite class scores
    (from cat_feat or the class head weights) raise a ValueError naming the
    tensor.
    """
    if config.num_classes is not None and bundle.heatmaps.num_classes != config.num_classes:
        raise ValueError(
            f"config expects {config.num_classes} classes, "
            f"bundle has {bundle.heatmaps.num_classes}"
        )

    for name in ("tl_heat", "br_heat", "tl_off", "br_off"):
        if not np.isfinite(getattr(bundle.heatmaps, name)).all():
            raise ValueError(f"{name} holds NaN or infinity")
    tls = decode_corners(bundle.heatmaps, TOP_LEFT, config.k, stride=config.stride)
    brs = decode_corners(bundle.heatmaps, BOTTOM_RIGHT, config.k, stride=config.stride)
    proposals = enumerate_proposals(tls, brs)
    feats, weights = bundle.features, bundle.weights
    survivors = proposals
    if config.use_binary_head:
        pooled_box = roi_align_batch(feats.box_feat, proposals["box"], stride=config.stride)
        p_scores = binary_scores(*pooled_box, weights)
        # box_feat is too large to scan whole; a bad value under a proposal
        # shows as a NaN objectness score
        if not np.isfinite(p_scores).all():
            raise ValueError("box_feat or the binary head weights hold NaN or infinity")
        survivors = filter_by_objectness(proposals, p_scores, config.objectness_threshold)

    pooled_cat = roi_align_batch(feats.cat_feat, survivors["box"], stride=config.stride)
    q = class_scores(*pooled_cat, weights)
    # likewise for cat_feat: a bad value under a survivor gives a NaN class score
    if not np.isfinite(q).all():
        raise ValueError("cat_feat or the class head weights hold NaN or infinity")
    dets = label_detections(survivors, q)
    dets = soft_nms(
        dets, sigma=config.soft_nms_sigma, prune=config.soft_nms_prune, limit=config.top_k
    )
    dets = top_k_truncate(dets, config.top_k)
    return SceneResult(detections=dets, proposals=proposals, num_survivors=len(survivors))


@dataclass(frozen=True)
class CorpusRun:
    detection_records: list[dict]
    proposal_records: list[dict]
    timings: list[tuple[int, float]]  # (image id, seconds)


def run_corpus(corpus_dir, config: PipelineConfig, workers: int = 1) -> CorpusRun:
    """Detect over every scene of a corpus.

    Scenes are processed by a bounded worker pool; results are collected in
    manifest order, so the output is identical regardless of worker count.
    """
    corpus_dir = Path(corpus_dir)
    manifest = read_manifest(corpus_dir)
    if config.num_classes is not None and manifest["num_classes"] != config.num_classes:
        raise ValueError(
            f"config expects {config.num_classes} classes, "
            f"corpus has {manifest['num_classes']}"
        )

    def process(entry):
        start = time.perf_counter()
        scene_dir = corpus_dir / entry["dir"]
        try:
            result = detect_bundle(load_scene_bundle(scene_dir), config)
        except ValueError as exc:
            raise ValueError(f"{scene_dir}: {exc}") from None
        return entry["id"], result, time.perf_counter() - start

    entries = manifest["scenes"]
    if workers <= 1:
        outcomes = [process(e) for e in entries]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(process, entries))

    det_records: list[dict] = []
    prop_records: list[dict] = []
    timings = []
    for image_id, result, elapsed in outcomes:
        det_records.extend(detection_records(image_id, result.detections))
        prop_records.extend(detection_records(image_id, result.proposals))
        timings.append((image_id, elapsed))
    return CorpusRun(
        detection_records=det_records, proposal_records=prop_records, timings=timings
    )
