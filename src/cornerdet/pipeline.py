"""End-to-end detection over rendered tensor bundles.

Stages per image: decode the top-k corners of each kind, enumerate valid
pairs, rule out the pairs whose objectness bound shows they cannot reach
the objectness threshold, score the rest with the binary head over
RoIAligned box features, keep survivors past the threshold, classify them
with the C-way head, fuse scores, run per-class soft-NMS, and keep the top
100. The bound is exact, so the survivors are those of scoring every pair.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cornerdet.corners import decode_corners
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
    objectness_bound,
    release_scratch,
    roi_align_batch,
)
from cornerdet.synth import SCENE_TENSORS, OracleBundle, load_scene_bundle, read_manifest


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


# logit(OBJECTNESS_THRESHOLD): a binary logit below it scores below the threshold
_THRESHOLD_LOGIT = math.log(OBJECTNESS_THRESHOLD / (1.0 - OBJECTNESS_THRESHOLD))


def _may_pass(bound: np.ndarray, bias: float) -> np.ndarray:
    """Which proposals may score at least OBJECTNESS_THRESHOLD, given an
    upper bound on their bias-free binary logits.

    A proposal is ruled out only when bias + bound lies below the threshold
    logit by more than 1e-6 (1 + |bias|), which covers the float64 rounding
    of adding the bias and of the sigmoid. A NaN bound rules nothing out.
    """
    return ~(bias + bound < _THRESHOLD_LOGIT - 1e-6 * (1.0 + abs(bias)))


# NaN, infinity or a float32 overflow in the features or the decoded corner
# positions turns into NaN or infinite values, which raise; numpy's "invalid
# value" and "overflow" warnings would only add lines to the error
@np.errstate(invalid="ignore", over="ignore")
def detect_bundle(bundle: OracleBundle, config: PipelineConfig) -> SceneResult:
    """Run the full pipeline on one image's tensors.

    Non-finite corner heatmaps or offsets, heatmap values outside [0, 1],
    non-finite objectness scores (from box_feat or the binary head weights)
    and non-finite class scores (from cat_feat or the class head weights)
    raise a ValueError naming the tensor; finite features whose pooling
    overflows float32 give such scores too. So does a finite offset that
    puts a decoded corner's x or y beyond float32, naming tl_off or br_off.

    The binary head scores only the proposals that `objectness_bound` does
    not rule out. RoIAlign still takes every proposal's box, each ruled-out
    one set to (0, 0, 0, 0): degenerate, so it is never read and pools
    zeros. A box_feat channel whose values are non-finite or could overflow
    in pooling bounds nothing, so such a scene is pooled whole and raises
    as before.
    """
    for name in SCENE_TENSORS[:4]:
        if not np.isfinite(getattr(bundle, name)).all():
            raise ValueError(f"{name} holds NaN or infinity")
    # corner scores outside [0, 1] would reorder the proposals unnoticed
    for name in ("tl_heat", "br_heat"):
        heat = getattr(bundle, name)
        if (heat < 0.0).any() or (heat > 1.0).any():
            raise ValueError(f"{name} holds values outside [0, 1]")
    tls = decode_corners(bundle.tl_heat, bundle.tl_off, config.k)
    brs = decode_corners(bundle.br_heat, bundle.br_off, config.k)
    for name, kps in (("tl_off", tls), ("br_off", brs)):
        if not (np.isfinite(kps["x"]).all() and np.isfinite(kps["y"]).all()):
            raise ValueError(f"{name} puts a corner at a position that overflows float32")
    proposals = enumerate_proposals(tls, brs)
    survivors = proposals
    if config.use_binary_head:
        weights = bundle.weights
        bound = objectness_bound(
            bundle.box_feat, proposals["box"], bundle.box_channels, weights.binary_kernel
        )
        may = _may_pass(bound, weights.binary_bias)
        # RoIAlign still takes one box per proposal, as perfbench's layer
        # checks count them; a blanked box is degenerate and pools zeros
        # without being read
        boxes = np.where(may[:, None], proposals["box"], np.float32(0.0))
        pooled_box = roi_align_batch(bundle.box_feat, boxes, bundle.box_channels)
        p_scores = binary_scores(pooled_box[may], bundle.box_channels, weights)
        # box_feat is too large to scan whole; a bad value under a proposal
        # shows as a NaN objectness score
        if not np.isfinite(p_scores).all():
            raise ValueError(
                "box_feat or the binary head weights hold NaN, infinity or values that overflow"
            )
        survivors = filter_by_objectness(proposals[may], p_scores, OBJECTNESS_THRESHOLD)

    pooled_cat = roi_align_batch(bundle.cat_feat, survivors["box"], bundle.cat_channels)
    q = class_scores(pooled_cat, bundle.cat_channels, bundle.weights)
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


def _claim_scenes(claims: int, corpus_dir, weights, config, entries) -> list:
    """(index, _detect_scene's outcome or what it raised) of each scene this
    process claims by reading its 4-byte index from `claims`, one regular file
    read by all, whose offset Linux moves under a lock no killed process can
    leave held (a memfd's reads can race). A failure moves the offset to the
    end: no process claims another scene, and each lower one is claimed.
    """
    done = []
    while token := os.read(claims, 4):
        index = int.from_bytes(token, "little")
        try:
            done.append((index, _detect_scene(corpus_dir, weights, config, entries[index])))
        except Exception as exc:
            done.append((index, exc))
            os.lseek(claims, 0, os.SEEK_END)
            break
    return done


def run_corpus(corpus_dir, config: PipelineConfig, workers: int = 1) -> CorpusRun:
    """Detect over every scene of a corpus, all scored by its one weights bundle.

    ``workers`` processes, the caller among them and never more than there
    are scenes, each claim the next scene until none is left; results go
    back in manifest order, so the output is identical for any worker count,
    and the lowest-index failing scene raises, as with one worker. The
    caller forks the other ``workers - 1``, so calling this with
    ``workers > 1`` while other threads of the caller hold locks is unsafe:
    a child inherits each lock held, with no thread to release it. The
    caller's RoIAlign scratch is reused from scene to scene and released
    when the run returns or fails. A child that dies (killed, or out of
    memory) ends the run with a ChildProcessError naming the corpus.
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
    # fork, not spawn or forkserver: a forked child starts with numpy, cornerdet
    # and the weights loaded, which a fresh interpreter would import on every call
    context, children = multiprocessing.get_context("fork"), []
    claims = tempfile.TemporaryFile()
    claim_args = (claims.fileno(), corpus_dir, weights, config, entries)
    try:
        os.pwrite(claims.fileno(), np.arange(len(entries), dtype="<u4").tobytes(), 0)
        for _ in range(min(workers, len(entries)) - 1):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=lambda: sender.send(_claim_scenes(*claim_args)))
            child.start()
            sender.close()
            children.append((child, receiver))
        outcomes = _claim_scenes(*claim_args)
        for child, receiver in children:
            with contextlib.suppress(EOFError, OSError):  # a dead child sends nothing whole
                outcomes += receiver.recv()
            child.join()
            if child.exitcode:  # nothing says which scene the dead child held
                raise ChildProcessError(
                    f"{corpus_dir}: a worker process ended abruptly before every scene was detected"
                )
    finally:
        for child, _ in children:
            child.kill()
            child.join()
        claims.close()
        # the caller's scenes share the RoIAlign scratch; a child's ends with it
        release_scratch()
    outcomes = [outcome for _, outcome in sorted(outcomes, key=lambda claimed: claimed[0])]
    if failures := [outcome for outcome in outcomes if isinstance(outcome, Exception)]:
        raise failures[0]

    empty = np.empty(0, DET_DTYPE)
    return CorpusRun(
        detection_records=np.concatenate([empty, *(result.detections for _, result, _ in outcomes)]),
        proposal_records=np.concatenate([empty, *(result.proposals for _, result, _ in outcomes)]),
        timings=[(image_id, elapsed) for image_id, _, elapsed in outcomes],
    )
