"""End-to-end detection over rendered tensor bundles.

Stages per image: decode the top-k corners of each kind, enumerate valid
pairs, score every pair with the binary head over RoIAligned box features,
keep survivors past the objectness threshold, classify them with the C-way
head, fuse scores, run per-class soft-NMS, and keep the top 100.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cornerdet.corners import BOTTOM_RIGHT, TOP_LEFT, decode_corners
from cornerdet.geometry import DET_DTYPE
from cornerdet.postprocess import (
    OBJECTNESS_THRESHOLD,
    filter_by_objectness,
    label_detections,
    soft_nms,
)
from cornerdet.proposals import (
    HeadWeights,
    binary_scores,
    class_scores,
    enumerate_proposals,
    roi_align_batch,
)
from cornerdet.synth import OracleBundle, load_scene_bundle, read_manifest


@dataclass(frozen=True)
class PipelineConfig:
    """Corners decoded per heatmap, and whether the binary head filters pairs.

    The thresholds after the heads are the postprocess constants.
    """

    k: int = 70
    use_binary_head: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class SceneResult:
    """Detections plus the raw proposals of one image, as DET_DTYPE rows.

    detect_bundle leaves their image_id 0; run_corpus's scenes carry the manifest id.
    """

    detections: np.ndarray
    proposals: np.ndarray
    num_survivors: int


# NaN, infinity or a float32 overflow in the features or the decoded corner
# positions turns into NaN or infinite values, which raise; numpy's "invalid
# value" and "overflow" warnings would only add lines to the error
@np.errstate(invalid="ignore", over="ignore")
def detect_bundle(bundle: OracleBundle, config: PipelineConfig) -> SceneResult:
    """Run the full pipeline on one image's tensors.

    Non-finite corner heatmaps or offsets, non-finite objectness scores
    (from box_feat or the binary head weights) and non-finite class scores
    (from cat_feat or the class head weights) raise a ValueError naming the
    tensor; finite features whose pooling overflows float32 give such
    scores too. So does a finite offset that puts a decoded corner's x or y
    beyond float32 (``decode_corners`` names tl_off or br_off).
    """
    for name in ("tl_heat", "br_heat", "tl_off", "br_off"):
        if not np.isfinite(getattr(bundle.heatmaps, name)).all():
            raise ValueError(f"{name} holds NaN or infinity")
    tls = decode_corners(bundle.heatmaps, TOP_LEFT, config.k)
    brs = decode_corners(bundle.heatmaps, BOTTOM_RIGHT, config.k)
    proposals = enumerate_proposals(tls, brs)
    feats, weights = bundle.features, bundle.weights
    survivors = proposals
    if config.use_binary_head:
        pooled_box = roi_align_batch(feats.box_feat, proposals["box"], feats.box_channels)
        p_scores = binary_scores(pooled_box, feats.box_channels, weights)
        # box_feat is too large to scan whole; a bad value under a proposal
        # shows as a NaN objectness score
        if not np.isfinite(p_scores).all():
            raise ValueError(
                "box_feat or the binary head weights hold NaN, infinity or values that overflow"
            )
        survivors = filter_by_objectness(proposals, p_scores, OBJECTNESS_THRESHOLD)

    pooled_cat = roi_align_batch(feats.cat_feat, survivors["box"], feats.cat_channels)
    q = class_scores(pooled_cat, feats.cat_channels, weights)
    # likewise for cat_feat: a bad value under a survivor gives a NaN class score
    if not np.isfinite(q).all():
        raise ValueError(
            "cat_feat or the class head weights hold NaN, infinity or values that overflow"
        )
    dets = label_detections(survivors, q)
    dets = soft_nms(dets)
    return SceneResult(detections=dets, proposals=proposals, num_survivors=len(survivors))


@dataclass(frozen=True)
class CorpusRun:
    """Both dumps' DET_DTYPE rows in manifest order, and each scene's time."""

    detection_records: np.ndarray
    proposal_records: np.ndarray
    timings: list[tuple[int, float]]  # (image id, seconds)


def _detect_scene(corpus_dir: Path, weights: HeadWeights, config: PipelineConfig, entry):
    """One manifest entry's (image id, SceneResult, seconds); a ValueError names the scene.

    Both arrays of the SceneResult carry the entry's id as their image_id.
    """
    start = time.perf_counter()
    scene_dir = corpus_dir / entry["dir"]
    try:
        result = detect_bundle(load_scene_bundle(scene_dir, weights), config)
    except ValueError as exc:
        raise ValueError(f"{scene_dir}: {exc}") from None
    result.detections["image_id"] = result.proposals["image_id"] = entry["id"]
    return entry["id"], result, time.perf_counter() - start


# what every scene of a worker process shares, set once by _start_worker
_worker_args: tuple = ()


def _start_worker(corpus_dir: Path, weights: HeadWeights, config: PipelineConfig):
    global _worker_args
    _worker_args = (corpus_dir, weights, config)


def _detect_in_worker(entry):
    return _detect_scene(*_worker_args, entry)


def run_corpus(corpus_dir, config: PipelineConfig, workers: int = 1) -> CorpusRun:
    """Detect over every scene of a corpus, all scored by its one weights bundle.

    With ``workers > 1`` the scenes are detected by up to that many worker
    processes, never more than there are scenes; results are collected in
    manifest order, so the output is identical regardless of worker count.
    The workers are forked, so calling this with ``workers > 1`` while other
    threads of the caller hold locks is unsafe: a worker inherits each lock
    held, with no thread to release it.
    """
    corpus_dir = Path(corpus_dir)
    manifest = read_manifest(corpus_dir)
    weights_dir = corpus_dir / "weights"
    try:
        weights = HeadWeights.load_bundle(weights_dir)
    except ValueError as exc:
        raise ValueError(f"{weights_dir}: {exc}") from None
    if weights.num_classes != manifest["num_classes"]:
        raise ValueError(
            f"{corpus_dir / 'manifest.json'}: num_classes is {manifest['num_classes']} "
            f"but the class head in {weights_dir} scores {weights.num_classes}"
        )

    entries = manifest["scenes"]
    workers = min(workers, len(entries))
    if workers <= 1:
        outcomes = [_detect_scene(corpus_dir, weights, config, e) for e in entries]
    else:
        # fork, not spawn or forkserver: a forked worker starts with numpy,
        # cornerdet and the weights already loaded, where a fresh interpreter
        # would import them again on every call and eat the gain
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(corpus_dir, weights, config),
        ) as pool:
            outcomes = list(pool.map(_detect_in_worker, entries))

    empty = np.empty(0, DET_DTYPE)
    return CorpusRun(
        detection_records=np.concatenate([empty, *(result.detections for _, result, _ in outcomes)]),
        proposal_records=np.concatenate([empty, *(result.proposals for _, result, _ in outcomes)]),
        timings=[(image_id, elapsed) for image_id, _, elapsed in outcomes],
    )
