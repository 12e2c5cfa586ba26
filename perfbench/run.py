#!/usr/bin/env python3
"""Benchmark of cornerdet: synth -> detect -> eval on fixed synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload noisy --seed 1 --seconds 25 --trace 0

`--workload` is one of clean, noisy, cross, or `all` (each workload in its
own child process). With `--trace 0` the last stdout line is a JSON object
holding the end-to-end metrics; with `--trace 1` the same untraced
measurement is followed by traced rounds and the JSON holds the per-layer
metrics. The exit code is non-zero when any output check fails. See
perfbench/README.md for the workloads, metrics and how they interact.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# (SynthConfig overrides, detect workers)
WORKLOADS = {
    "clean": ({}, 1),
    "noisy": ({"noise": 0.3}, 1),
    "cross": ({"arrangement": "cross", "noise": 0.3}, 2),
}
# fixed corpus size; with 30 scenes the latency tail is p66, inside the bulk
# of ordinary scenes, where it is steadier from seed to seed than the p75 of
# 40 scenes, which falls in the gap below the scenes with huge boxes
SCENES = 30
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
# a timed round: SETUPS_PER_ROUND times a set-up followed by EVALS_PER_SETUP
# eval passes, then one detect pass; at least 6 set-ups, 12 evals and 3
# detect passes per run, more where passes are short
MIN_ROUNDS = 3
SETUPS_PER_ROUND = 2
EVALS_PER_SETUP = 2
TRACED_ROUNDS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROI_SPANS = ("proposals.roi_align_batch.box", "proposals.roi_align_batch.cat")
# every metric the run reports, with its unit, as BENCHMARK.json declares it
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}


@dataclass
class Outcome:
    """Operations attempted and failed, and the output checks that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def run(self, what: str, weight: int, fn, *args):
        """Call fn, counting `weight` operations; a failure is counted, not raised."""
        self.attempted += weight
        try:
            return fn(*args)
        except Exception as exc:  # a failing scene or command is a measured outcome
            self.failed += weight
            self.problems.append(f"{what} failed: {type(exc).__name__}: {exc}")
            return None


@dataclass(frozen=True)
class DetectPass:
    wall: float
    timings: list  # (image id, seconds) from CorpusRun.timings
    dets: str  # sha256 of the detection dump
    props: str  # sha256 of the proposal dump
    n_dets: int
    n_props: int


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# -- the calls `cornerdet detect` and `cornerdet eval` make --------------------


def detect_pass(corpus: Path, workers: int, out_dir: Path) -> DetectPass:
    """run_corpus plus both dumps, timed as one wall-clock interval."""
    from cornerdet import cli, pipeline, postprocess

    out_dir.mkdir(parents=True, exist_ok=True)
    dets = out_dir / "dets.json"
    props = cli.proposals_sibling(dets)
    start = time.perf_counter()
    run = pipeline.run_corpus(corpus, pipeline.PipelineConfig(), workers=workers)
    postprocess.write_detections(dets, run.detection_records)
    postprocess.write_detections(props, run.proposal_records)
    wall = time.perf_counter() - start
    return DetectPass(
        wall=wall,
        timings=list(run.timings),
        dets=sha256(dets),
        props=sha256(props),
        n_dets=len(run.detection_records),
        n_props=len(run.proposal_records),
    )


def eval_pass(dets: Path, gt: Path, report: Path) -> float:
    """`cornerdet eval` through cli.main; its table output is discarded."""
    from cornerdet import cli

    argv = ["eval", "--dets", str(dets), "--gt", str(gt), "--report", str(report)]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"eval exited with code {code}")
    return wall


# -- tracing -------------------------------------------------------------------


def patches():
    """Where spans and counts are recorded: module attribute -> span name."""
    from cornerdet.proposals import BOX_CHANNELS
    from spans import Patch, scene_from_path

    def file_bytes(pos):
        return lambda args, result: {"bytes": os.path.getsize(args[pos])}

    def length(key, pos=None):
        if pos is None:
            return lambda args, result: {key: len(result)}
        return lambda args, result: {key: len(args[pos])}

    def roi_name(args):
        return ROI_SPANS[0] if len(args[0]) == BOX_CHANNELS else ROI_SPANS[1]

    def nms_counts(args, result):
        return {"in": len(args[0]), "out": len(result)}

    pipe, ev, cli = "cornerdet.pipeline", "cornerdet.evaluation", "cornerdet.cli"
    return [
        # tensorio, at each module that imported its functions
        Patch("cornerdet.synth", "load_tensor", "tensorio.load_tensor", counts=file_bytes(0)),
        Patch("cornerdet.proposals", "load_tensor", "tensorio.load_tensor", counts=file_bytes(0)),
        Patch("cornerdet.synth", "store_tensor", "tensorio.store_tensor", counts=file_bytes(1)),
        Patch("cornerdet.proposals", "store_tensor", "tensorio.store_tensor", counts=file_bytes(1)),
        # synth; write_corpus calls scene_forces(cfg, index) once per scene
        Patch("cornerdet.synth", "write_corpus", "synth.write_corpus"),
        Patch("cornerdet.synth", "scene_forces", scene=lambda args: args[1]),
        Patch("cornerdet.synth", "build_scene", "synth.build_scene"),
        Patch("cornerdet.synth", "render_oracle", "synth.render_oracle"),
        Patch("cornerdet.synth", "verify_bundle", "synth.verify_bundle"),
        # pipeline, and the stages at the names it looks up
        Patch(pipe, "run_corpus", "pipeline.run_corpus"),
        Patch(
            pipe,
            "load_scene_bundle",
            "pipeline.load_scene_bundle",
            scene=lambda args: scene_from_path(args[0]),
        ),
        Patch(pipe, "detect_bundle", "pipeline.detect_bundle"),
        Patch(pipe, "decode_corners", "corners.decode_corners", counts=length("keypoints")),
        Patch(
            pipe, "enumerate_proposals", "proposals.enumerate_proposals", counts=length("proposals")
        ),
        Patch(pipe, "roi_align_batch", roi_name, counts=length("rois", pos=1)),
        Patch(pipe, "binary_scores", "proposals.binary_scores"),
        Patch(pipe, "class_scores", "proposals.class_scores"),
        Patch(
            pipe,
            "filter_by_objectness",
            "postprocess.filter_by_objectness",
            counts=length("survivors"),
        ),
        Patch(pipe, "assign_labels", "postprocess.assign_labels"),
        Patch(pipe, "soft_nms", "postprocess.soft_nms", counts=nms_counts),
        Patch("cornerdet.postprocess", "iou", tally="iou_calls"),
        Patch(pipe, "top_k_truncate", "postprocess.top_k_truncate", counts=length("kept")),
        Patch(pipe, "detection_records", "postprocess.detection_records"),
        Patch(
            "cornerdet.postprocess",
            "write_detections",
            "postprocess.write_detections",
            counts=file_bytes(0),
        ),
        # eval, at the names cli.cmd_eval and build_report look up
        Patch(cli, "main", "cli.main"),
        Patch(cli, "read_detections", "postprocess.read_detections"),
        Patch(cli, "records_to_dets", "evaluation.records_to_dets"),
        Patch(cli, "load_ground_truth", "evaluation.load_ground_truth"),
        Patch(cli, "build_report", "evaluation.build_report"),
        Patch(ev, "average_precision", "evaluation.average_precision"),
        Patch(ev, "average_recall", "evaluation.average_recall"),
        Patch(ev, "average_false_discovery", "evaluation.average_false_discovery"),
        Patch(ev, "iou", tally="iou_calls"),
        Patch(cli, "render_tables", "evaluation.render_tables"),
    ]


def self_timed(patch_list) -> list[str]:
    """Every span name the patches record; together they cover every span."""
    names = {p.name for p in patch_list if isinstance(p.name, str)}
    return sorted(names.union(ROI_SPANS))


# (metric, span, field); field "calls" counts spans, others sum span counts
COUNTED = (
    ("tensorio.load_tensor.calls", "tensorio.load_tensor", "calls"),
    ("synth.render_oracle.calls", "synth.render_oracle", "calls"),
    ("corners.decode_corners.keypoints", "corners.decode_corners", "keypoints"),
    ("proposals.enumerate_proposals.proposals", "proposals.enumerate_proposals", "proposals"),
    ("proposals.roi_align_batch.box.rois", "proposals.roi_align_batch.box", "rois"),
    ("proposals.roi_align_batch.cat.rois", "proposals.roi_align_batch.cat", "rois"),
    ("postprocess.survivors", "postprocess.filter_by_objectness", "survivors"),
    ("postprocess.assign_labels.calls", "postprocess.assign_labels", "calls"),
    ("postprocess.soft_nms.in", "postprocess.soft_nms", "in"),
    ("postprocess.soft_nms.out", "postprocess.soft_nms", "out"),
    ("postprocess.soft_nms.iou_calls", "postprocess.soft_nms", "iou_calls"),
    ("postprocess.top_k_truncate.kept", "postprocess.top_k_truncate", "kept"),
    ("evaluation.average_precision.calls", "evaluation.average_precision", "calls"),
    ("evaluation.average_recall.calls", "evaluation.average_recall", "calls"),
)

# taken from the counting pass, the only one that wraps `iou`
IOU_COUNTS = ("postprocess.soft_nms.iou_calls", "evaluation.iou_calls")

MEGABYTES = (
    ("tensorio.load_tensor.mb", "tensorio.load_tensor"),
    ("tensorio.store_tensor.mb", "tensorio.store_tensor"),
    ("postprocess.write_detections.mb", "postprocess.write_detections"),
)


def traced_round(cfg, seed: int, base: Path):
    """Traced set-up, then untraced, traced and counting 1-worker detect and eval.

    The untraced twins run on the same corpus just before the traced
    phases, so that their difference is the tracing overhead. The traced
    phases wrap no `iou`, whose per-call tally would add to the self time of
    soft-NMS and eval; a third detect and eval with the tallies gives the
    `iou` counts, and its extra wall time is the cost of the tallies.
    """
    from cornerdet import synth
    from spans import Tracer

    every = patches()
    tracer = Tracer([p for p in every if p.tally is None])
    counter = Tracer(every)
    corpus = base / "corpus"
    gt = corpus / "ground_truth.json"
    walls = {}
    with tracer:
        tracer.phase = "setup"
        walls["setup"] = timed(synth.write_corpus, corpus, cfg, SCENES, seed)
    untraced = detect_pass(corpus, 1, base / "plain")
    plain = {"detect": untraced.wall}
    plain["eval"] = eval_pass(base / "plain" / "dets.json", gt, base / "plain" / "report.json")
    with tracer:
        tracer.phase = "detect"
        traced = detect_pass(corpus, 1, base / "traced")
        walls["detect"] = traced.wall
        tracer.phase = "eval"
        walls["eval"] = eval_pass(
            base / "traced" / "dets.json", gt, base / "traced" / "report.json"
        )
    with counter:
        counter.phase = "detect"
        counted = detect_pass(corpus, 1, base / "counted")
        counter.phase = "eval"
        wall = eval_pass(base / "counted" / "dets.json", gt, base / "counted" / "report.json")
    tallied = counted.wall + wall - walls["detect"] - walls["eval"]
    dumps = (untraced, traced, counted)
    return tracer, counter, walls, plain, tallied, dumps


def round_metrics(tracer, walls: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced round, and each phase's unattributed time."""
    selfs = tracer.self_times()
    agg: dict[str, dict] = {}
    unattributed = dict(walls)
    for i, span in enumerate(tracer.spans):
        entry = agg.setdefault(span.name, {"s": 0.0, "calls": 0})
        entry["s"] += selfs[i]
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
        if span.phase in unattributed:
            unattributed[span.phase] -= selfs[i]

    def get(span, key):
        return agg.get(span, {}).get(key, 0)

    values = {f"{span}.s": get(span, "s") for span in self_timed(tracer.patches)}
    values.update({metric: get(span, key) for metric, span, key in COUNTED})
    values.update({metric: get(span, "bytes") / 1e6 for metric, span in MEGABYTES})
    values["evaluation.iou_calls"] = sum(
        e.get("iou_calls", 0) for name, e in agg.items() if name.startswith("evaluation.")
    )
    proposals = values["proposals.enumerate_proposals.proposals"]
    values["postprocess.survivor_share"] = values["postprocess.survivors"] / max(1, proposals)
    values["synth.accept_share"] = SCENES / max(1, values["synth.render_oracle.calls"])
    values["trace.unattributed_s"] = sum(unattributed.values())
    return values, unattributed


def layer_checks(values: dict, ref: DetectPass, absent: list[str]) -> list[str]:
    """Traced counts against the untraced dumps and against each other.

    A check is skipped when a function it counts is absent.
    """
    survivors = values["postprocess.survivors"]
    expect = [
        ("proposals.enumerate_proposals.proposals", ref.n_props, "proposal dump records", ()),
        ("proposals.roi_align_batch.box.rois", ref.n_props, "proposal dump records", ()),
        ("postprocess.top_k_truncate.kept", ref.n_dets, "detection dump records", ()),
        ("postprocess.assign_labels.calls", survivors, "survivors", ("filter_by_objectness",)),
        ("proposals.roi_align_batch.cat.rois", survivors, "survivors", ("filter_by_objectness",)),
    ]
    gone = {a.rsplit(".", 1)[1] for a in absent}
    problems = []
    for metric, want, what, needs in expect:
        if gone & {metric.split(".")[1], *needs}:
            continue
        if values[metric] != want:
            problems.append(f"traced {metric} = {values[metric]} but {what} = {want}")
    return problems


# -- one workload --------------------------------------------------------------


@dataclass(frozen=True)
class Untraced:
    setup_walls: list
    ref: DetectPass  # the 1-worker pass whose dumps every other must equal
    passes: list  # timed DetectPass, with the workload's workers
    eval_walls: list
    report: str  # sha256 of the report every eval pass wrote
    doc: dict  # that report


def tail(values: list[float]) -> tuple[float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], math.floor(100 * rank / len(ordered))


def measure(cfg, workers: int, seed: int, seconds: int, tmp: Path, out: Outcome):
    """A warm-up set-up and reference pass, then the timed rounds, all untraced.

    Returns an Untraced, or None when no timed round could run.
    """
    from cornerdet import synth

    corpus = tmp / "corpus"
    gt = corpus / "ground_truth.json"
    digests = set()

    def setup():
        # each set-up removes the last corpus first, so that none waits on
        # the dirty pages of another; the detect passes read the newest one
        shutil.rmtree(corpus, ignore_errors=True)
        wall = out.run("write_corpus", 1, timed, synth.write_corpus, corpus, cfg, SCENES, seed)
        if wall is not None:
            digests.add((sha256(gt), sha256(corpus / "manifest.json")))
        return wall

    # the untimed warm-up: a set-up, then a 1-worker pass whose dumps every
    # timed pass must equal, so that on cross 2 workers are checked against 1
    timed_dir = tmp / "timed"
    if setup() is None:
        return None
    ref = out.run("1-worker detect", SCENES, detect_pass, corpus, 1, timed_dir)
    if ref is None:
        return None

    # interleaving set-ups, evals and detect passes spreads a slow spell of
    # the machine over the samples of every metric; the evals after a
    # set-up give its dirty pages time to drain before the next write
    dets, report = timed_dir / "dets.json", timed_dir / "report.json"
    setup_walls, passes, eval_walls, reports, rounds = [], [], [], set(), 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # start another round only if it is likely to end before the deadline
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            break
        rounds += 1
        for _ in range(SETUPS_PER_ROUND):
            wall = setup()
            if wall is None:
                break
            setup_walls.append(wall)
            for _ in range(EVALS_PER_SETUP):
                wall = out.run("eval", 1, eval_pass, dets, gt, report)
                if wall is not None:
                    eval_walls.append(wall)
                    reports.add((sha256(report), sha256(str(report) + ".txt")))
        p = out.run("detect", SCENES, detect_pass, corpus, workers, timed_dir)
        if p is None:
            continue
        passes.append(p)
        if (p.dets, p.props) != (ref.dets, ref.props):
            out.problems.append(f"detect with {workers} worker(s) wrote other dumps than 1 worker")
    if len(digests) > 1:
        out.problems.append("write_corpus gave different ground truth for the same seed")
    if not passes or not eval_walls:
        return None
    if len(reports) > 1:
        out.problems.append("eval wrote different reports for the same dumps")
    doc = json.loads(report.read_text(encoding="utf-8"))
    return Untraced(setup_walls, ref, passes, eval_walls, sha256(report), doc)


def end_to_end(m: Untraced, out: Outcome) -> tuple[dict, str]:
    """The end-to-end metrics, and a note on the tail percentile."""
    per_scene: dict[int, list[float]] = {}
    for p in m.passes:
        for image_id, secs in p.timings:
            per_scene.setdefault(image_id, []).append(secs * 1000.0)
    latencies = [statistics.median(v) for v in per_scene.values()]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(m.setup_walls),
        "detect_images_per_s": statistics.median(SCENES / p.wall for p in m.passes),
        "image_ms_p50": statistics.median(latencies),
        "image_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ap": m.doc["ap"],
        "ar_1000": m.doc["ar_1000"],
        "af_complement": 1.0 - m.doc["af"],
        "success_rate": 1.0 - out.failed / max(1, out.attempted),
    }
    return metrics, f"image_ms_tail is p{tail_pct} of {len(latencies)} per-scene latencies"


def measure_traced(name: str, cfg, seed: int, m: Untraced, tmp: Path, out: Outcome):
    """Traced rounds; returns the per-layer metrics, or None if all failed."""
    workers = WORKLOADS[name][1]
    spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    rounds, absent = [], []
    for r in range(TRACED_ROUNDS):
        base = tmp / f"traced{r}"
        outcome = out.run("traced round", 1, traced_round, cfg, seed, base)
        if outcome is None:
            continue
        tracer, counter, walls, plain, tallied, dumps = outcome
        values, unattributed = round_metrics(tracer, walls)
        tallies, _ = round_metrics(counter, {})
        for metric in IOU_COUNTS:
            values[metric] = tallies[metric]
        tracer.write_jsonl(spans_path, round=r)
        if any((d.dets, d.props) != (m.ref.dets, m.ref.props) for d in dumps):
            out.problems.append("the traced rounds wrote dumps that differ from the untraced run")
        sides = ("plain", "traced", "counted")
        if any(sha256(base / side / "report.json") != m.report for side in sides):
            out.problems.append("the traced rounds wrote another report than the untraced run")
        out.problems.extend(layer_checks(values, m.ref, tracer.absent))
        plain["setup"] = statistics.median(m.setup_walls)
        values["trace.overhead_s"] = sum(walls[phase] - plain[phase] for phase in walls)
        values["trace.iou_tally_overhead_s"] = tallied
        rounds.append(values)
        absent = tracer.absent + counter.absent
        print(f"  traced round {r}:")
        for phase, wall in walls.items():
            print(
                f"    {phase:<6} wall {wall:.3f} s = self {wall - unattributed[phase]:.3f} s"
                f" + unattributed {unattributed[phase]:.6f} s; untraced {plain[phase]:.3f} s"
            )
        print(f"    detect and eval with iou tallies took {tallied:+.3f} s more than without")
        shutil.rmtree(base)
    if not rounds:
        return None
    counted = [k for k in rounds[0] if UNITS[k] == "count"]
    if any(r[k] != rounds[0][k] for r in rounds for k in counted):
        out.problems.append("traced work counts differ between rounds of the same seed")

    layers = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    busy = sum(secs for p in m.passes for _, secs in p.timings)
    layers["pipeline.pool_busy_share"] = busy / (sum(p.wall for p in m.passes) * workers)
    layers["eval_s"] = statistics.median(m.eval_walls)
    layers = dict(sorted(layers.items()))

    gone = {a.rsplit(".", 1)[1] for a in absent}
    print(f"  per-layer (traced, median of {len(rounds)} rounds; spans in {spans_path.name})")
    for metric, value in layers.items():
        stage = metric.split(".")[1] if "." in metric else ""
        note = "  absent" if stage in gone else ""
        print(f"  {metric:<42} {value:>16.6f} {UNITS[metric]}{note}")
    digest = hashlib.sha256(json.dumps({k: rounds[0][k] for k in counted}, sort_keys=True).encode())
    print(f"  sha256 traced counts {digest.hexdigest()}")
    return layers


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from cornerdet import synth

    overrides, workers = WORKLOADS[name]
    cfg = synth.SynthConfig(**overrides)
    out = Outcome()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK) as tmp:
        tmp = Path(tmp)
        m = measure(cfg, workers, seed, seconds, tmp, out)
        if m is None:
            return finish(name, out, {}, "end_to_end")
        if name == "clean" and (m.doc["ap"], m.doc["ar_1000"], m.doc["af"]) != (1.0, 1.0, 0.0):
            out.problems.append(
                f"clean corpus must give AP = AR@1000 = 1 and AF = 0, got "
                f"{m.doc['ap']}, {m.doc['ar_1000']}, {m.doc['af']}"
            )
        e2e, tail_note = end_to_end(m, out)

        print(f"workload {name}: {SCENES} scenes, {workers} worker(s), seed {seed}")
        print("  set-up walls " + " ".join(f"{w:.3f}" for w in m.setup_walls) + " s")
        print("  detect walls " + " ".join(f"{p.wall:.3f}" for p in m.passes) + " s")
        print("  eval walls   " + " ".join(f"{w:.3f}" for w in m.eval_walls) + " s")
        print("  note: tensor loads read a warm page cache (the corpus was just written")
        print("  and the file cache is not dropped)")
        for metric, value in e2e.items():
            print(f"  {metric:<22} {value:>14.6f} {UNITS[metric]}")
        # eval_s drifts with the machine's speed by more than any bound allows
        # (README.md), so it is printed here and reported per layer
        print(f"  {'eval_s':<22} {statistics.median(m.eval_walls):>14.6f} s")
        print(f"  {'af':<22} {m.doc['af']:>14.6f} ratio")
        print(f"  {'error_rate':<22} {1.0 - e2e['success_rate']:>14.6f} ratio")
        print(f"  {tail_note}")
        print(f"  sha256 detections {m.ref.dets}")
        print(f"  sha256 proposals  {m.ref.props}")
        print(f"  sha256 report     {m.report}")
        print(f"  records: {m.ref.n_dets} detections, {m.ref.n_props} proposals")
        if not trace:
            return finish(name, out, e2e, "end_to_end")

        shutil.rmtree(tmp / "corpus")
        layers = measure_traced(name, cfg, seed, m, tmp, out)
        return finish(name, out, layers or {}, "per_layer")


def finish(name: str, out: Outcome, metrics: dict, kind: str) -> int:
    """Print the failed checks and the result line of `kind` metrics."""
    declared = {m["name"] for m in DECLARED[kind]}
    if metrics and set(metrics) != declared:
        out.problems.append(
            f"reported {kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ declared)}"
        )
    for problem in out.problems:
        print(f"CHECK FAILED [{name}]: {problem}")
    correct = not out.problems and out.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items() if k in UNITS},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


# -- entry point ---------------------------------------------------------------


def environment(seed: int, workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy's build record varies by version
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT), "rev-parse", "HEAD"]
            commit = subprocess.run(git, capture_output=True, text=True, timeout=60).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "cornerdet").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit or None,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "workers": workers,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        worst = max(worst, child.returncode)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged, sort_keys=True))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cornerdet" / "__init__.py").is_file():
        print(f"perfbench: no cornerdet sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)

    # workers x BLAS threads <= nproc; set before numpy is first imported
    workers = WORKLOADS[args.workload][1]
    blas_threads = str(max(1, len(os.sched_getaffinity(0)) // workers))
    for var in THREAD_VARS:
        os.environ[var] = blas_threads
    sys.path.insert(0, str(SRC))
    import cornerdet

    if not Path(cornerdet.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: cornerdet comes from {cornerdet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed, workers)
    print("environment " + json.dumps(env, sort_keys=True))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
