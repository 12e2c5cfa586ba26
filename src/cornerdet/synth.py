"""Synthetic scenes with analytically controllable pipeline inputs.

A scene is a set of labeled boxes inside a 511 x 511 image.
Rendering a scene produces exactly the tensors the detection pipeline
consumes, constructed so the pipeline's behavior is predictable:

- corner heatmaps and offsets come from the Gaussian target renderer, so
  decoding recovers every corner exactly (boxes are rejection-sampled
  until they lie at least BOX_GAP apart, which keeps corner cells pairwise
  non-adjacent on the stride-4 grid);
- the box feature map holds one support-indicator channel per box and the
  category feature map one per class, each painted as the cell-coverage
  fraction of the box dilated by one cell;
- the planted head weights read those indicators back out as mean coverage
  through a steep sigmoid, so a proposal that tightly wraps a real box
  scores near 1 while a cross-paired box (whose span is mostly empty)
  scores near 0. Every rendered bundle is verified to give true pairs a
  binary score >= 0.9, cross pairings <= 0.1, and the correct class-head
  argmax; scenes violating the margins are resampled.

An optional additive noise knob perturbs the heatmaps (uniform in
[-noise, +noise], clipped back to [0, 1]) to populate top-k decoding with
spurious low-score corners.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cornerdet.corners import STRIDE, gaussian_targets
from cornerdet.geometry import TRUTH_DTYPE
from cornerdet.proposals import (
    BOX_CHANNELS,
    CAT_CHANNELS,
    POOL_SIZE,
    HeadWeights,
    binary_scores,
    class_scores,
    roi_align_batch,
)
from cornerdet.tensorio import anonymous_zeros, check_slices, load_tensor, store_tensor

# planted-head response: sigmoid(gain * (mean indicator coverage - threshold))
BINARY_GAIN = 50.0
BINARY_THRESHOLD = 0.8
CLASS_GAIN = 200.0
CLASS_THRESHOLD = 0.25
PAINT_PAD_CELLS = 1.0
# least gap in pixels between two boxes of a random scene, on some axis; at
# 2 * STRIDE or more it also puts their corners two or more cells apart
BOX_GAP = 10.0
# render attempts per scene before build_scene gives up
RENDER_BUDGET = 50

TRUE_SCORE_FLOOR = 0.9
FALSE_SCORE_CEIL = 0.1

SCENE_TENSORS = ("tl_heat", "br_heat", "tl_off", "br_off", "box_feat", "cat_feat")

# every image is IMAGE_SIZE (height, width); a random box's aspect ratio is
# drawn log-uniformly from ASPECT_RANGE and its area from AREA_RANGE, at
# least MARGIN pixels inside each image edge
IMAGE_SIZE = (511, 511)
ASPECT_RANGE = (1.0, 8.0)
AREA_RANGE = (24.0**2, 490.0**2)
MARGIN = 12.0
# the least aspect ratio of the forced first box of an extreme-aspect scene
EXTREME_ASPECT = 5.0
# the forced first box of an extreme-area scene is larger than this
EXTREME_AREA = 400.0**2 + 1.0
# of every EXTREME_PERIOD random scenes of a corpus, the first forces an
# extreme aspect and the second an extreme area (see scene_forces)
EXTREME_PERIOD = 5
# a random scene holds from NUM_BOXES[0] to NUM_BOXES[1] boxes, drawn uniformly
NUM_BOXES = (1, 6)


class RenderBudgetError(RuntimeError):
    """Scene resampling exhausted its attempt budget."""


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for scene generation and rendering."""

    num_classes: int = 2
    noise: float = 0.0
    arrangement: str = "random"  # or "cross"

    def __post_init__(self):
        if self.num_classes < 1 or self.num_classes > CAT_CHANNELS:
            raise ValueError(f"num_classes must be in [1, {CAT_CHANNELS}]")
        if self.arrangement not in ("random", "cross"):
            raise ValueError(f"unknown arrangement {self.arrangement!r}")
        # uniform(-noise, noise) draws from a span of 2 * noise, which must be finite
        if not (self.noise >= 0.0 and math.isfinite(2.0 * self.noise)):
            raise ValueError(f"noise must be >= 0 with 2 * noise finite, got {self.noise}")


@dataclass(frozen=True)
class Scene:
    """Ground truth, as TRUTH_DTYPE rows of image_id 0, for one IMAGE_SIZE synthetic image."""

    truth: np.ndarray
    seed: int


@dataclass(frozen=True)
class OracleBundle:
    """One image's pipeline inputs, the SCENE_TENSORS in order, and its head weights.

    The corner heatmaps are (C, H, W) and their offset planes (2, H, W), as
    `corners` describes them; the box and category feature maps are
    (BOX_CHANNELS, H, W) and (CAT_CHANNELS, H, W). `box_channels` and
    `cat_channels` list the ascending channels of each map that may hold
    data; every other channel is all zeros, and RoIAlign and the heads look
    at the listed channels alone.
    """

    tl_heat: np.ndarray
    br_heat: np.ndarray
    tl_off: np.ndarray
    br_off: np.ndarray
    box_feat: np.ndarray
    cat_feat: np.ndarray
    box_channels: np.ndarray
    cat_channels: np.ndarray
    weights: HeadWeights

    def __post_init__(self):
        if self.tl_heat.ndim != 3:
            raise ValueError(f"tl_heat must be (C, H, W), got shape {self.tl_heat.shape}")
        c, h, w = self.tl_heat.shape
        if self.br_heat.shape != (c, h, w):
            raise ValueError(f"br_heat must be {(c, h, w)} like tl_heat, got shape {self.br_heat.shape}")
        for name in ("tl_off", "br_off"):
            shape = getattr(self, name).shape
            if shape != (2, h, w):
                raise ValueError(f"{name} must be {(2, h, w)} to match the heatmaps, got shape {shape}")
        if self.box_feat.ndim != 3 or self.box_feat.shape[0] != BOX_CHANNELS:
            raise ValueError(f"box_feat must be ({BOX_CHANNELS}, H, W), got shape {self.box_feat.shape}")
        if self.cat_feat.shape != (CAT_CHANNELS,) + self.box_feat.shape[1:]:
            raise ValueError(
                f"cat_feat must be ({CAT_CHANNELS}, H, W) with extents matching box_feat "
                f"{self.box_feat.shape}, got shape {self.cat_feat.shape}"
            )
        check_slices("box_channels", np.asarray(self.box_channels), BOX_CHANNELS)
        check_slices("cat_channels", np.asarray(self.cat_channels), CAT_CHANNELS)
        # features off the heatmap grid would be read at the wrong cells (or
        # as zeros), and a class head of another width labels boxes with
        # classes no heatmap has
        if self.box_feat.shape[1:] != (h, w):
            raise ValueError(f"box_feat has shape {self.box_feat.shape}, off the {h} x {w} heatmap grid")
        if self.weights.num_classes != c:
            raise ValueError(f"the class head scores {self.weights.num_classes} classes but the heatmaps hold {c}")


def map_size(image_extent: int) -> int:
    """Heatmap extent for an image extent (511 -> 128 at stride 4)."""
    return image_extent // STRIDE + 1


def _subseed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _separated(box: tuple, placed: list[tuple]) -> bool:
    """Whether x1y1x2y2 `box` lies BOX_GAP or more from every placed box on some axis."""
    x1, y1, x2, y2 = box
    return all(
        p[2] + BOX_GAP <= x1 or x2 + BOX_GAP <= p[0] or p[3] + BOX_GAP <= y1 or y2 + BOX_GAP <= p[1]
        for p in placed
    )


def _sample_box(
    rng: np.random.Generator, extreme: str | None = None
) -> tuple[float, float, float, float] | None:
    img_h, img_w = IMAGE_SIZE
    avail_w = img_w - 2 * MARGIN
    avail_h = img_h - 2 * MARGIN
    if extreme == "aspect":
        ratio = float(rng.uniform(EXTREME_ASPECT, ASPECT_RANGE[1]))
    else:
        ratio = float(np.exp(rng.uniform(*map(math.log, ASPECT_RANGE))))
    wide = bool(rng.random() < 0.5)

    # ratio applies as w/h when wide, h/w otherwise
    if wide:
        fit = min(avail_w**2 / ratio, avail_h**2 * ratio)
    else:
        fit = min(avail_h**2 / ratio, avail_w**2 * ratio)
    lo = EXTREME_AREA if extreme == "area" else AREA_RANGE[0]
    hi = min(AREA_RANGE[1], fit)
    if lo >= hi:
        return None
    area = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
    if wide:
        w, h = math.sqrt(area * ratio), math.sqrt(area / ratio)
    else:
        w, h = math.sqrt(area / ratio), math.sqrt(area * ratio)
    x1 = float(rng.uniform(MARGIN, img_w - MARGIN - w))
    y1 = float(rng.uniform(MARGIN, img_h - MARGIN - h))
    return x1, y1, x1 + w, y1 + h


def generate_scene(cfg: SynthConfig, seed: int, extreme: str | None = None) -> Scene:
    """Sample a random scene, deterministic in (cfg, seed, extreme).

    Boxes are placed greedily: each new box is resampled until it lies
    BOX_GAP from every box placed before it, and the whole scene is redrawn
    when placement jams (a huge early box can leave no room).
    `extreme` "aspect" or "area" forces the first box's aspect ratio to at
    least EXTREME_ASPECT or its area to at least EXTREME_AREA.
    """
    rng = np.random.default_rng(seed)
    lo, hi = NUM_BOXES

    for _ in range(60):  # whole-scene restarts when placement jams
        target = int(rng.integers(lo, hi + 1))
        boxes: list[tuple] = []
        classes: list[int] = []
        for k in range(target):
            for _ in range(200):
                box = _sample_box(rng, extreme if k == 0 else None)
                if box is None:
                    continue
                if _separated(box, boxes):
                    boxes.append(box)
                    classes.append(int(rng.integers(cfg.num_classes)))
                    break
            else:
                break
        if len(boxes) == target:
            truth = [(0, c, box) for box, c in zip(boxes, classes)]
            return Scene(truth=np.array(truth, dtype=TRUTH_DTYPE), seed=seed)
    raise RenderBudgetError(f"cannot place NUM_BOXES {NUM_BOXES} boxes within the image (seed {seed})")


def generate_cross_scene(cfg: SynthConfig, seed: int) -> Scene:
    """Two thin same-class boxes crossing like an X.

    All four corner pairings are geometrically valid, so corner pairing
    alone yields twice as many proposals as objects; the two cross
    pairings span mostly empty space and are what the binary head must
    reject. A half long side outreaches a half thin side plus the jitter by
    at least 76 px, so the two boxes' like corners lie many cells apart.
    """
    rng = np.random.default_rng(seed)
    img_h, img_w = IMAGE_SIZE
    for _ in range(300):
        cx = float(rng.uniform(0.38, 0.62) * img_w)
        cy = float(rng.uniform(0.38, 0.62) * img_h)
        long_h = float(rng.uniform(240.0, 360.0))
        thin_h = float(rng.uniform(44.0, 68.0))
        long_v = float(rng.uniform(240.0, 360.0))
        thin_v = float(rng.uniform(44.0, 68.0))
        jx, jy = rng.uniform(-10.0, 10.0, 2)
        horiz = (cx - long_h / 2, cy - thin_h / 2 + jy, cx + long_h / 2, cy + thin_h / 2 + jy)
        vert = (cx - thin_v / 2 + jx, cy - long_v / 2, cx + thin_v / 2 + jx, cy + long_v / 2)
        if all(
            MARGIN <= x1 and x2 <= img_w - MARGIN and MARGIN <= y1 and y2 <= img_h - MARGIN
            for x1, y1, x2, y2 in (horiz, vert)
        ):
            cls = int(rng.integers(cfg.num_classes))
            return Scene(truth=np.array([(0, cls, horiz), (0, cls, vert)], dtype=TRUTH_DTYPE), seed=seed)
    raise RenderBudgetError(f"cannot place a cross arrangement (seed {seed})")


def _paint_coverage(channel: np.ndarray, box) -> None:
    """Max-combine the cell-coverage fraction of the x1y1x2y2 `box`, dilated
    by PAINT_PAD_CELLS, into channel.

    Cell (r, c) spans feature coordinates [c - 0.5, c + 0.5] x
    [r - 0.5, r + 0.5], matching the bilinear sampling convention.
    """
    h, w = channel.shape
    x1, y1, x2, y2 = box
    fx1, fx2 = x1 / STRIDE - PAINT_PAD_CELLS, x2 / STRIDE + PAINT_PAD_CELLS
    fy1, fy2 = y1 / STRIDE - PAINT_PAD_CELLS, y2 / STRIDE + PAINT_PAD_CELLS
    cols = np.arange(w, dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)
    cov_x = np.clip(np.minimum(fx2, cols + 0.5) - np.maximum(fx1, cols - 0.5), 0.0, 1.0)
    cov_y = np.clip(np.minimum(fy2, rows + 0.5) - np.maximum(fy1, rows - 0.5), 0.0, 1.0)
    np.maximum(channel, np.outer(cov_y, cov_x).astype(np.float32), out=channel)


def planted_weights(num_classes: int) -> HeadWeights:
    """Heads that turn mean indicator coverage into steep sigmoid scores."""
    bins = POOL_SIZE * POOL_SIZE
    binary_kernel = np.full(
        (1, BOX_CHANNELS, POOL_SIZE, POOL_SIZE), BINARY_GAIN / bins, dtype=np.float32
    )
    class_kernel = np.zeros((num_classes, CAT_CHANNELS, POOL_SIZE, POOL_SIZE), dtype=np.float32)
    for c in range(num_classes):
        class_kernel[c, c, :, :] = CLASS_GAIN / bins
    return HeadWeights(
        binary_kernel=binary_kernel,
        binary_bias=-BINARY_GAIN * BINARY_THRESHOLD,
        class_kernel=class_kernel,
        class_bias=np.full(num_classes, -CLASS_GAIN * CLASS_THRESHOLD, dtype=np.float32),
    )


def render_oracle(scene: Scene, cfg: SynthConfig) -> OracleBundle:
    """Render heatmaps, indicator features, and planted weights for a scene."""
    h, w = map(map_size, IMAGE_SIZE)
    tl_heat, br_heat, tl_off, br_off = gaussian_targets(scene.truth, cfg.num_classes, h, w)

    if cfg.noise > 0.0:
        rng = np.random.default_rng(_subseed(scene.seed, 1000))
        # top-left first: the draws' order fixes each map's noise
        tl_heat, br_heat = (
            np.clip(heat + rng.uniform(-cfg.noise, cfg.noise, heat.shape), 0.0, 1.0).astype(np.float32)
            for heat in (tl_heat, br_heat)
        )

    # only the painted channels' pages are ever touched
    box_feat = anonymous_zeros((BOX_CHANNELS, h, w))
    cat_feat = anonymous_zeros((CAT_CHANNELS, h, w))
    classes = scene.truth["class_id"]
    for i, (box, class_id) in enumerate(zip(scene.truth["box"], classes)):
        _paint_coverage(box_feat[i % BOX_CHANNELS], box)
        _paint_coverage(cat_feat[class_id], box)

    # every channel left unpainted is all zeros
    return OracleBundle(
        tl_heat,
        br_heat,
        tl_off,
        br_off,
        box_feat,
        cat_feat,
        box_channels=np.unique(np.arange(len(classes)) % BOX_CHANNELS),
        cat_channels=np.unique(classes),
        weights=planted_weights(cfg.num_classes),
    )


def verify_bundle(scene: Scene, bundle: OracleBundle) -> list[str]:
    """Check the planted-score margins; returns a list of violations.

    True boxes must score >= 0.9 on the binary head with the right class
    argmax; every geometrically valid same-class cross pairing must score
    <= 0.1.
    """
    boxes, classes = scene.truth["box"], scene.truth["class_id"]
    box_ch, cat_ch, weights = bundle.box_channels, bundle.cat_channels, bundle.weights
    # box i's top-left corner paired with box j's bottom-right, unless the
    # pairing is invalid or gives back a true box, as i == j does
    cross = np.concatenate(np.broadcast_arrays(boxes[:, None, :2], boxes[None, :, 2:]), axis=2)
    valid = (
        (classes[:, None] == classes[None, :])
        & (cross[..., 0] < cross[..., 2])
        & (cross[..., 1] < cross[..., 3])
        & ~(cross[:, :, None] == boxes).all(axis=3).any(axis=2)
    )
    # one pass scores the true boxes, then the pairings: RoIAlign pools and
    # the head scores every box on its own, so the split keeps each score's bits
    scored = np.concatenate([boxes, cross[valid]])
    p_box = binary_scores(roi_align_batch(bundle.box_feat, scored, box_ch), box_ch, weights)
    p_true, p_cross = p_box[: len(boxes)], p_box[len(boxes) :]
    heads = class_scores(roi_align_batch(bundle.cat_feat, boxes, cat_ch), cat_ch, weights).argmax(axis=1)
    problems = []
    for i, class_id in enumerate(classes):
        if p_true[i] < TRUE_SCORE_FLOOR:
            problems.append(f"true box {i}: binary score {p_true[i]:.4f} < {TRUE_SCORE_FLOOR}")
        if heads[i] != class_id:
            problems.append(f"true box {i}: class argmax {heads[i]} != {class_id}")
    pairs = np.argwhere(valid)  # row-major: ascending (i, j)
    for (i, j), p in zip(pairs, p_cross):
        if p > FALSE_SCORE_CEIL:
            problems.append(f"cross pairing {i}->{j}: binary score {p:.4f} > {FALSE_SCORE_CEIL}")
    return problems


def build_scene(
    cfg: SynthConfig, seed: int, extreme: str | None = None
) -> tuple[Scene, OracleBundle]:
    """Generate and render a scene, resampling until verification passes;
    `extreme` forces a random scene's first box as in generate_scene."""
    for attempt in range(RENDER_BUDGET):
        scene_seed = _subseed(seed, attempt)
        if cfg.arrangement == "cross":
            scene = generate_cross_scene(cfg, scene_seed)
        else:
            scene = generate_scene(cfg, scene_seed, extreme)
        bundle = render_oracle(scene, cfg)
        if not verify_bundle(scene, bundle):
            return scene, bundle
    raise RenderBudgetError(
        f"verification kept failing after {RENDER_BUDGET} attempts (seed {seed})"
    )


# -- corpus files -----------------------------------------------------------


def scene_forces(cfg: SynthConfig, index: int) -> str | None:
    """The shape a corpus forces on scene `index`, for the extreme-shape AR
    buckets: "aspect" at index % EXTREME_PERIOD == 0, "area" at 1, else None;
    a cross arrangement forces none."""
    if cfg.arrangement != "random":
        return None
    return {0: "aspect", 1: "area"}.get(index % EXTREME_PERIOD)


def write_corpus(out_dir, cfg: SynthConfig, count: int, seed: int) -> dict:
    """Write `count` rendered scenes, the head weights and the ground truth; manifest goes last."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # an old manifest would vouch for whatever mix of files a failed run leaves
    (out_dir / "manifest.json").unlink(missing_ok=True)
    planted_weights(cfg.num_classes).save_bundle(out_dir / "weights")

    annotations = []
    scenes_meta = []
    for i in range(count):
        scene, bundle = build_scene(cfg, _subseed(seed, 7, i), scene_forces(cfg, i))
        name = f"scene_{i:05d}"
        scene_dir = out_dir / name
        scene_dir.mkdir(exist_ok=True)
        # the feature maps' unlisted channels are zeros, and never read
        slices = {"box_feat": bundle.box_channels, "cat_feat": bundle.cat_channels}
        for tensor_name in SCENE_TENSORS:
            path = scene_dir / f"{tensor_name}.cpnt"
            store_tensor(getattr(bundle, tensor_name), path, slices=slices.get(tensor_name))
        for (x1, y1, x2, y2), class_id in zip(
            scene.truth["box"].tolist(), scene.truth["class_id"].tolist()
        ):
            bbox = [x1, y1, x2 - x1, y2 - y1]
            annotations.append(
                {"id": len(annotations), "image_id": i, "category_id": class_id, "bbox": bbox}
            )
        scenes_meta.append({"id": i, "dir": name, "seed": scene.seed})

    img_h, img_w = IMAGE_SIZE
    ground_truth = {
        "images": [{"id": i, "width": img_w, "height": img_h} for i in range(count)],
        "annotations": annotations,
        "categories": [{"id": c, "name": f"class_{c}"} for c in range(cfg.num_classes)],
    }
    manifest = {
        "format": "cornerdet-corpus",
        "version": 1,
        "image_size": [img_h, img_w],
        "num_classes": cfg.num_classes,
        "count": count,
        "seed": seed,
        "scenes": scenes_meta,
    }
    # the manifest goes last: a corpus without one is incomplete
    for file_name, doc in (("ground_truth.json", ground_truth), ("manifest.json", manifest)):
        with open(out_dir / file_name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return manifest


def _require(doc: dict, key: str, fits, kind: str, where: str = "") -> None:
    """Raise a ValueError unless `doc[key]` exists and `fits` it."""
    if key not in doc:
        raise ValueError(f"{where}missing {key}")
    if not fits(doc[key]):
        raise ValueError(f"{where}{key} must be {kind}, got {json.dumps(doc[key])}")


def _is_dir_name(value) -> bool:
    """A plain directory name, so a scene cannot lie outside its corpus."""
    return type(value) is str and value not in ("", "..") and Path(value).name == value


def read_manifest(corpus_dir) -> dict:
    """A corpus manifest; a malformed one raises a ValueError naming the file and entry."""
    path = Path(corpus_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"{corpus_dir} has no manifest.json; not a corpus?")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed or too deeply nested JSON, or bad UTF-8
            raise ValueError(f"{path}: {exc}") from None
    try:
        if not isinstance(manifest, dict):
            raise ValueError("manifest must be a JSON object")
        if manifest.get("format") != "cornerdet-corpus":
            raise ValueError("unrecognized corpus format")
        _require(manifest, "num_classes", lambda v: type(v) is int and v >= 1, "a positive integer")
        _require(manifest, "scenes", lambda v: type(v) is list, "an array")
        seen = {"id": set(), "dir": set()}
        for i, entry in enumerate(manifest["scenes"]):
            where = f"scene {i}: "
            if not isinstance(entry, dict):
                raise ValueError(f"{where}must be an object")
            _require(entry, "id", lambda v: type(v) is int, "an integer", where)
            _require(entry, "id", lambda v: -(2**63) <= v < 2**63, "within the int64 range", where)
            _require(entry, "dir", _is_dir_name, "a directory name", where)
            # a repeated id merges two scenes in the dumps; a repeated dir detects one twice
            for key, values in seen.items():
                _require(entry, key, lambda v: v not in values, "unique", where)
                values.add(entry[key])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return manifest


def load_scene_bundle(scene_dir, weights: HeadWeights) -> OracleBundle:
    """One scene's six tensors, scored by the corpus's head weights.

    Each feature map's channel list is the slices its file stores.
    """
    tensors, stored = {}, {}
    for name in SCENE_TENSORS:
        tensors[name], stored[name] = load_tensor(Path(scene_dir) / f"{name}.cpnt", with_slices=True)
    return OracleBundle(
        **tensors, box_channels=stored["box_feat"], cat_channels=stored["cat_feat"], weights=weights
    )
