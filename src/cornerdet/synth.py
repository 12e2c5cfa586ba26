"""Synthetic scenes with analytically controllable pipeline inputs.

A scene is a set of labeled boxes inside a (default 511 x 511) image.
Rendering a scene produces exactly the tensors the detection pipeline
consumes, constructed so the pipeline's behavior is predictable:

- corner heatmaps and offsets come from the Gaussian target renderer, so
  decoding recovers every corner exactly (scenes are rejection-sampled
  until corner cells are pairwise non-adjacent on the stride-4 grid);
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

from cornerdet.corners import STRIDE, HeatmapSet, gaussian_targets
from cornerdet.geometry import BBox, GroundTruth
from cornerdet.proposals import (
    BOX_CHANNELS,
    CAT_CHANNELS,
    POOL_SIZE,
    FeatureMaps,
    HeadWeights,
    binary_scores,
    class_scores,
    roi_align_batch,
)
from cornerdet.tensorio import load_tensor, store_tensor

# planted-head response: sigmoid(gain * (mean indicator coverage - threshold))
BINARY_GAIN = 50.0
BINARY_THRESHOLD = 0.8
CLASS_GAIN = 200.0
CLASS_THRESHOLD = 0.25
PAINT_PAD_CELLS = 1.0

TRUE_SCORE_FLOOR = 0.9
FALSE_SCORE_CEIL = 0.1

SCENE_TENSORS = ("tl_heat", "br_heat", "tl_off", "br_off", "box_feat", "cat_feat")


# the least aspect ratio of the forced first box of an extreme-aspect scene
EXTREME_ASPECT = 5.0


class RenderBudgetError(RuntimeError):
    """Scene resampling exhausted its attempt budget."""


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for scene generation and rendering."""

    image_size: tuple[int, int] = (511, 511)  # (height, width)
    num_classes: int = 2
    num_boxes: tuple[int, int] = (1, 6)
    aspect_range: tuple[float, float] = (1.0, 8.0)
    area_range: tuple[float, float] = (24.0**2, 490.0**2)
    margin: float = 12.0
    noise: float = 0.0
    arrangement: str = "random"  # or "cross"
    extreme_aspect_period: int = 5  # every n-th scene gets a >=5:1 box; 0 disables
    extreme_area_period: int = 5  # every n-th scene gets a >400^2 box; 0 disables

    def __post_init__(self):
        if self.num_classes < 1 or self.num_classes > CAT_CHANNELS:
            raise ValueError(f"num_classes must be in [1, {CAT_CHANNELS}]")
        if self.arrangement not in ("random", "cross"):
            raise ValueError(f"unknown arrangement {self.arrangement!r}")
        if not self.noise >= 0.0:
            raise ValueError("noise must be >= 0")
        if min(self.image_size) < 1:
            raise ValueError(f"image_size extents must be >= 1, got {list(self.image_size)}")
        if not 0 <= self.num_boxes[0] <= self.num_boxes[1]:
            raise ValueError(f"num_boxes must satisfy 0 <= lo <= hi, got {list(self.num_boxes)}")
        # an infinite or NaN margin fails the comparisons too
        if not (0.0 <= self.margin and 2.0 * self.margin < min(self.image_size)):
            raise ValueError(
                f"margin must be >= 0 and below half of each image extent, got {self.margin}"
            )
        lo, hi = self.area_range
        if not (0.0 < lo <= hi < math.inf):
            raise ValueError(f"area_range must satisfy 0 < lo <= hi, got {list(self.area_range)}")
        lo, hi = self.aspect_range
        if not (1.0 <= lo <= hi < math.inf):
            raise ValueError(f"aspect_range must satisfy 1 <= lo <= hi, got {list(self.aspect_range)}")
        for name in ("extreme_aspect_period", "extreme_area_period"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # the forced aspect ratios are drawn from [5, hi]; a forced area out of
        # reach instead ends in a RenderBudgetError
        if self.extreme_aspect_period and self.arrangement == "random" and hi < EXTREME_ASPECT:
            raise ValueError(
                f"aspect_range must reach {EXTREME_ASPECT} when extreme_aspect_period "
                f"is set, got {list(self.aspect_range)}"
            )


@dataclass(frozen=True)
class Scene:
    """Ground-truth boxes for one synthetic image."""

    image_size: tuple[int, int]
    gts: tuple[GroundTruth, ...]
    seed: int


@dataclass(frozen=True)
class OracleBundle:
    """Pipeline inputs rendered from a scene, plus the planted weights."""

    heatmaps: HeatmapSet
    features: FeatureMaps
    weights: HeadWeights

    def __post_init__(self):
        # features off the heatmap grid would be read at the wrong cells (or
        # as zeros), and a class head of another width labels boxes with
        # classes no heatmap has
        grid = self.heatmaps.grid_shape
        if self.features.box_feat.shape[1:] != grid:
            raise ValueError(
                f"box_feat has shape {self.features.box_feat.shape}, "
                f"off the {grid[0]} x {grid[1]} heatmap grid"
            )
        if self.weights.num_classes != self.heatmaps.num_classes:
            raise ValueError(
                f"the class head scores {self.weights.num_classes} classes "
                f"but the heatmaps hold {self.heatmaps.num_classes}"
            )


def map_size(image_extent: int, stride: int = STRIDE) -> int:
    """Heatmap extent for an image extent (511 -> 128 at stride 4)."""
    return image_extent // stride + 1


def _subseed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _corner_cells(boxes: list[BBox], pick) -> list[tuple[int, int]]:
    return [
        (int(math.floor(pick(b)[1] / STRIDE)), int(math.floor(pick(b)[0] / STRIDE)))
        for b in boxes
    ]


def _cells_isolated(cells: list[tuple[int, int]]) -> bool:
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if (
                abs(cells[i][0] - cells[j][0]) <= 1
                and abs(cells[i][1] - cells[j][1]) <= 1
            ):
                return False
    return True


def _boxes_separated(a: BBox, b: BBox, gap: float) -> bool:
    return (
        a.x2 + gap <= b.x1
        or b.x2 + gap <= a.x1
        or a.y2 + gap <= b.y1
        or b.y2 + gap <= a.y1
    )


def _scene_geometry_ok(boxes: list[BBox], gap: float = 10.0) -> bool:
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if not _boxes_separated(boxes[i], boxes[j], gap):
                return False
    tl_cells = _corner_cells(boxes, lambda b: (b.x1, b.y1))
    br_cells = _corner_cells(boxes, lambda b: (b.x2, b.y2))
    return _cells_isolated(tl_cells) and _cells_isolated(br_cells)


def _sample_box(
    rng: np.random.Generator,
    cfg: SynthConfig,
    force_aspect: tuple[float, float] | None = None,
    force_area: tuple[float, float] | None = None,
) -> BBox | None:
    img_h, img_w = cfg.image_size
    avail_w = img_w - 2 * cfg.margin
    avail_h = img_h - 2 * cfg.margin
    if force_aspect is not None:
        ratio = float(rng.uniform(*force_aspect))
    else:
        ratio = float(np.exp(rng.uniform(*map(math.log, cfg.aspect_range))))
    wide = bool(rng.random() < 0.5)

    # ratio applies as w/h when wide, h/w otherwise
    if wide:
        fit = min(avail_w**2 / ratio, avail_h**2 * ratio)
    else:
        fit = min(avail_h**2 / ratio, avail_w**2 * ratio)
    lo, hi = cfg.area_range
    if force_area is not None:
        lo, hi = max(lo, force_area[0]), min(hi, force_area[1])
    hi = min(hi, fit)
    if lo >= hi:
        return None
    area = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
    if wide:
        w, h = math.sqrt(area * ratio), math.sqrt(area / ratio)
    else:
        w, h = math.sqrt(area / ratio), math.sqrt(area * ratio)
    x1 = float(rng.uniform(cfg.margin, img_w - cfg.margin - w))
    y1 = float(rng.uniform(cfg.margin, img_h - cfg.margin - h))
    return BBox(x1, y1, x1 + w, y1 + h)


def generate_scene(
    cfg: SynthConfig,
    seed: int,
    force_aspect: tuple[float, float] | None = None,
    force_area: tuple[float, float] | None = None,
) -> Scene:
    """Sample a random scene, deterministic in (cfg, seed).

    Boxes are placed greedily: each new box is resampled until it keeps all
    pairwise separations and corner-cell isolation, and the whole scene is
    redrawn when placement jams (a huge early box can leave no room).
    Forced aspect/area constraints apply to the first box only.
    """
    rng = np.random.default_rng(seed)
    lo, hi = cfg.num_boxes

    for _ in range(60):  # whole-scene restarts when placement jams
        target = int(rng.integers(lo, hi + 1))
        boxes: list[BBox] = []
        classes: list[int] = []
        for k in range(target):
            for _ in range(200):
                box = _sample_box(
                    rng,
                    cfg,
                    force_aspect=force_aspect if k == 0 else None,
                    force_area=force_area if k == 0 else None,
                )
                if box is None:
                    continue
                if _scene_geometry_ok(boxes + [box]):
                    boxes.append(box)
                    classes.append(int(rng.integers(cfg.num_classes)))
                    break
            else:
                break
        if len(boxes) == target:
            gts = tuple(GroundTruth(box=b, class_id=c) for b, c in zip(boxes, classes))
            return Scene(image_size=cfg.image_size, gts=gts, seed=seed)
    raise RenderBudgetError(
        f"cannot place {cfg.num_boxes} boxes within the image (seed {seed})"
    )


def generate_cross_scene(cfg: SynthConfig, seed: int) -> Scene:
    """Two thin same-class boxes crossing like an X.

    All four corner pairings are geometrically valid, so corner pairing
    alone yields twice as many proposals as objects; the two cross
    pairings span mostly empty space and are what the binary head must
    reject.
    """
    rng = np.random.default_rng(seed)
    img_h, img_w = cfg.image_size
    for _ in range(300):
        cx = float(rng.uniform(0.38, 0.62) * img_w)
        cy = float(rng.uniform(0.38, 0.62) * img_h)
        long_h = float(rng.uniform(240.0, 360.0))
        thin_h = float(rng.uniform(44.0, 68.0))
        long_v = float(rng.uniform(240.0, 360.0))
        thin_v = float(rng.uniform(44.0, 68.0))
        jx, jy = rng.uniform(-10.0, 10.0, 2)
        horiz = BBox(cx - long_h / 2, cy - thin_h / 2 + jy, cx + long_h / 2, cy + thin_h / 2 + jy)
        vert = BBox(cx - thin_v / 2 + jx, cy - long_v / 2, cx + thin_v / 2 + jx, cy + long_v / 2)
        inside = all(
            cfg.margin <= b.x1 and b.x2 <= img_w - cfg.margin
            and cfg.margin <= b.y1 and b.y2 <= img_h - cfg.margin
            for b in (horiz, vert)
        )
        cells_ok = _cells_isolated(
            _corner_cells([horiz, vert], lambda b: (b.x1, b.y1))
        ) and _cells_isolated(_corner_cells([horiz, vert], lambda b: (b.x2, b.y2)))
        if inside and cells_ok:
            cls = int(rng.integers(cfg.num_classes))
            gts = (
                GroundTruth(box=horiz, class_id=cls),
                GroundTruth(box=vert, class_id=cls),
            )
            return Scene(image_size=cfg.image_size, gts=gts, seed=seed)
    raise RenderBudgetError(f"cannot place a cross arrangement (seed {seed})")


def _paint_coverage(channel: np.ndarray, box: BBox, pad: float = PAINT_PAD_CELLS) -> None:
    """Max-combine the cell-coverage fraction of a dilated box into channel.

    Cell (r, c) spans feature coordinates [c - 0.5, c + 0.5] x
    [r - 0.5, r + 0.5], matching the bilinear sampling convention.
    """
    h, w = channel.shape
    fx1, fx2 = box.x1 / STRIDE - pad, box.x2 / STRIDE + pad
    fy1, fy2 = box.y1 / STRIDE - pad, box.y2 / STRIDE + pad
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
    img_h, img_w = scene.image_size
    h, w = map_size(img_h), map_size(img_w)
    hm = gaussian_targets(list(scene.gts), cfg.num_classes, h, w)

    if cfg.noise > 0.0:
        rng = np.random.default_rng(_subseed(scene.seed, 1000))
        tl = np.clip(hm.tl_heat + rng.uniform(-cfg.noise, cfg.noise, hm.tl_heat.shape), 0.0, 1.0)
        br = np.clip(hm.br_heat + rng.uniform(-cfg.noise, cfg.noise, hm.br_heat.shape), 0.0, 1.0)
        hm = HeatmapSet(
            tl_heat=tl.astype(np.float32),
            br_heat=br.astype(np.float32),
            tl_off=hm.tl_off,
            br_off=hm.br_off,
        )

    box_feat = np.zeros((BOX_CHANNELS, h, w), dtype=np.float32)
    cat_feat = np.zeros((CAT_CHANNELS, h, w), dtype=np.float32)
    for i, gt in enumerate(scene.gts):
        _paint_coverage(box_feat[i % BOX_CHANNELS], gt.box)
        _paint_coverage(cat_feat[gt.class_id], gt.box)

    return OracleBundle(
        heatmaps=hm,
        features=FeatureMaps(box_feat=box_feat, cat_feat=cat_feat),
        weights=planted_weights(cfg.num_classes),
    )


def verify_bundle(scene: Scene, bundle: OracleBundle) -> list[str]:
    """Check the planted-score margins; returns a list of violations.

    True boxes must score >= 0.9 on the binary head with the right class
    argmax; every geometrically valid same-class cross pairing must score
    <= 0.1.
    """
    feats, weights = bundle.features, bundle.weights
    boxes = [gt.box for gt in scene.gts]
    coords = np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes], dtype=np.float64)
    p_true = binary_scores(*roi_align_batch(feats.box_feat, coords), weights)
    heads = class_scores(*roi_align_batch(feats.cat_feat, coords), weights).argmax(axis=1)
    problems = []
    for i, gt in enumerate(scene.gts):
        if p_true[i] < TRUE_SCORE_FLOOR:
            problems.append(f"true box {i}: binary score {p_true[i]:.4f} < {TRUE_SCORE_FLOOR}")
        if heads[i] != gt.class_id:
            problems.append(f"true box {i}: class argmax {heads[i]} != {gt.class_id}")
    pairs, cross_boxes = [], []
    for i, gi in enumerate(scene.gts):
        for j, gj in enumerate(scene.gts):
            if i == j or gi.class_id != gj.class_id:
                continue
            a, b = boxes[i], boxes[j]
            if not (a.x1 < b.x2 and a.y1 < b.y2):
                continue
            cross = BBox(a.x1, a.y1, b.x2, b.y2)
            if any(cross == t for t in boxes):
                continue
            pairs.append((i, j))
            cross_boxes.append((cross.x1, cross.y1, cross.x2, cross.y2))
    cross_coords = np.array(cross_boxes, dtype=np.float64)
    p_cross = binary_scores(*roi_align_batch(feats.box_feat, cross_coords), weights)
    for (i, j), p in zip(pairs, p_cross):
        if p > FALSE_SCORE_CEIL:
            problems.append(f"cross pairing {i}->{j}: binary score {p:.4f} > {FALSE_SCORE_CEIL}")
    return problems


def build_scene(
    cfg: SynthConfig,
    seed: int,
    force_aspect: tuple[float, float] | None = None,
    force_area: tuple[float, float] | None = None,
    budget: int = 50,
) -> tuple[Scene, OracleBundle]:
    """Generate and render a scene, resampling until verification passes."""
    for attempt in range(budget):
        scene_seed = _subseed(seed, attempt)
        if cfg.arrangement == "cross":
            scene = generate_cross_scene(cfg, scene_seed)
        else:
            scene = generate_scene(cfg, scene_seed, force_aspect=force_aspect, force_area=force_area)
        bundle = render_oracle(scene, cfg)
        if not verify_bundle(scene, bundle):
            return scene, bundle
    raise RenderBudgetError(
        f"verification kept failing after {budget} attempts (seed {seed})"
    )


# -- corpus files -----------------------------------------------------------


def scene_forces(cfg: SynthConfig, index: int):
    """Forced-geometry schedule giving the corpus its extreme-shape quota."""
    force_aspect = force_area = None
    if cfg.arrangement == "random":
        if cfg.extreme_aspect_period and index % cfg.extreme_aspect_period == 0:
            force_aspect = (max(EXTREME_ASPECT, cfg.aspect_range[0]), cfg.aspect_range[1])
        elif cfg.extreme_area_period and index % cfg.extreme_area_period == 1:
            force_area = (400.0**2 + 1.0, cfg.area_range[1])
    return force_aspect, force_area


def write_corpus(out_dir, cfg: SynthConfig, count: int, seed: int) -> dict:
    """Write `count` rendered scenes plus ground truth; manifest goes last."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    img_h, img_w = cfg.image_size
    images = []
    annotations = []
    scenes_meta = []
    ann_id = 0
    for i in range(count):
        force_aspect, force_area = scene_forces(cfg, i)
        scene, bundle = build_scene(
            cfg, _subseed(seed, 7, i), force_aspect=force_aspect, force_area=force_area
        )
        name = f"scene_{i:05d}"
        scene_dir = out_dir / name
        scene_dir.mkdir(exist_ok=True)
        hm, fm = bundle.heatmaps, bundle.features
        for tensor_name, tensor in zip(
            SCENE_TENSORS, (hm.tl_heat, hm.br_heat, hm.tl_off, hm.br_off, fm.box_feat, fm.cat_feat)
        ):
            store_tensor(tensor, scene_dir / f"{tensor_name}.cpnt")
        bundle.weights.save_bundle(scene_dir / "weights")

        frag_annotations = []
        for gt in scene.gts:
            x, y, w, h = gt.box.as_xywh()
            record = {
                "id": ann_id,
                "image_id": i,
                "category_id": gt.class_id,
                "bbox": [x, y, w, h],
            }
            frag_annotations.append(record)
            annotations.append(record)
            ann_id += 1
        fragment = {
            "image_id": i,
            "width": img_w,
            "height": img_h,
            "annotations": frag_annotations,
        }
        with open(scene_dir / "ground_truth.json", "w", encoding="utf-8") as fh:
            json.dump(fragment, fh, sort_keys=True, indent=1)
            fh.write("\n")

        images.append({"id": i, "width": img_w, "height": img_h})
        scenes_meta.append({"id": i, "dir": name, "seed": scene.seed})

    ground_truth = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": c, "name": f"class_{c}"} for c in range(cfg.num_classes)],
    }
    with open(out_dir / "ground_truth.json", "w", encoding="utf-8") as fh:
        json.dump(ground_truth, fh, sort_keys=True, indent=1)
        fh.write("\n")

    manifest = {
        "format": "cornerdet-corpus",
        "version": 1,
        "image_size": [img_h, img_w],
        "num_classes": cfg.num_classes,
        "count": count,
        "seed": seed,
        "scenes": scenes_meta,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
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
        except ValueError as exc:  # malformed JSON or UTF-8
            raise ValueError(f"{path}: {exc}") from None
    try:
        if not isinstance(manifest, dict):
            raise ValueError("manifest must be a JSON object")
        if manifest.get("format") != "cornerdet-corpus":
            raise ValueError("unrecognized corpus format")
        _require(manifest, "num_classes", lambda v: type(v) is int and v >= 1, "a positive integer")
        _require(manifest, "scenes", lambda v: type(v) is list, "an array")
        for i, entry in enumerate(manifest["scenes"]):
            where = f"scene {i}: "
            if not isinstance(entry, dict):
                raise ValueError(f"{where}must be an object")
            _require(entry, "id", lambda v: type(v) is int, "an integer", where)
            _require(entry, "dir", _is_dir_name, "a directory name", where)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return manifest


def load_scene_bundle(scene_dir) -> OracleBundle:
    scene_dir = Path(scene_dir)
    tensors = {name: load_tensor(scene_dir / f"{name}.cpnt") for name in SCENE_TENSORS}
    return OracleBundle(
        heatmaps=HeatmapSet(
            tl_heat=tensors["tl_heat"],
            br_heat=tensors["br_heat"],
            tl_off=tensors["tl_off"],
            br_off=tensors["br_off"],
        ),
        features=FeatureMaps(box_feat=tensors["box_feat"], cat_feat=tensors["cat_feat"]),
        weights=HeadWeights.load_bundle(scene_dir / "weights"),
    )
