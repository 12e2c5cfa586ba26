"""Command-line front-end: detect / synth / eval.

Exit codes: 0 success, 2 usage error, 3 data or format error, or a failed
file operation or worker process, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import typing
from dataclasses import fields
from pathlib import Path

from cornerdet.evaluation import (
    build_report,
    load_ground_truth,
    render_tables,
    require_known_images,
)
from cornerdet.geometry import InvariantError
from cornerdet.pipeline import PipelineConfig, run_corpus
from cornerdet.postprocess import read_detections, write_detections
from cornerdet.synth import RenderBudgetError, SynthConfig, write_corpus

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INVARIANT = 4


def proposals_sibling(out_path) -> Path:
    """Path of the proposal dump written alongside a detection dump."""
    out_path = Path(out_path)
    return out_path.with_name(out_path.stem + ".proposals" + (out_path.suffix or ".json"))


def _fits(value, hint) -> bool:
    """Whether a decoded JSON value fits a field annotation.

    bool is not an int, and an int is a float, but NaN, infinity and an int
    beyond the float range are not.
    """
    if hint is float:
        try:
            return type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an int too large to convert to float
            return False
    return type(value) is hint


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict; a repeated key raises."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate config key {key!r}")
        doc[key] = value
    return doc


def load_config(cls, path):
    """Load a JSON config file into the config dataclass `cls`.

    Every key is optional. Repeated keys, unknown keys, values whose JSON
    type does not fit the field's annotation, and values the dataclass
    rejects raise a ValueError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # malformed, too deeply nested, or a repeated key
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    declared = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(doc) - set(declared))
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    hints = typing.get_type_hints(cls)
    for key, value in doc.items():
        if not _fits(value, hints[key]):
            raise ValueError(f"{path}: {key} must be {declared[key]}, got {json.dumps(value)}")
    try:
        return cls(**doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_detect(args) -> int:
    config = load_config(PipelineConfig, args.config) if args.config else PipelineConfig()
    start = time.perf_counter()
    run = run_corpus(args.corpus, config, workers=args.workers)
    # an old proposal dump would be read as the new detections' proposals
    proposals_sibling(args.out).unlink(missing_ok=True)
    write_detections(args.out, run.detection_records)
    write_detections(proposals_sibling(args.out), run.proposal_records)
    wall = time.perf_counter() - start
    for image_id, elapsed in run.timings:
        print(f"image {image_id}: {elapsed * 1000.0:.1f} ms")
    latency = sum(elapsed for _, elapsed in run.timings)
    n = max(1, len(run.timings))
    # ru_maxrss is in KiB on Linux; the process's own peak includes the
    # scenes it detected, and it has waited for no children but the ones
    # run_corpus forked, so RUSAGE_CHILDREN holds the largest child's
    peak = f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB"
    if min(args.workers, len(run.timings)) > 1:
        worker_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        peak += f", largest worker {worker_peak:.1f} MB"
    print(
        f"detected {len(run.detection_records)} boxes over {len(run.timings)} images "
        f"in {wall:.2f} s wall time ({wall / n * 1000.0:.1f} ms/image); "
        f"summed per-image latency {latency:.2f} s; {peak}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    config = load_config(SynthConfig, args.config) if args.config else SynthConfig()
    manifest = write_corpus(args.out, config, args.count, args.seed)
    print(
        f"wrote {manifest['count']} scenes ({config.arrangement} arrangement, "
        f"{config.num_classes} classes) to {args.out}"
    )
    return EXIT_OK


def read_dump(path, gts):
    """The detection rows of a dump file; a malformed record, or one whose
    image the ground truth lacks, names the file and the record."""
    dets = read_detections(path)
    try:
        require_known_images(dets["image_id"], gts.image_ids, "record")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return dets


def cmd_eval(args) -> int:
    gts = load_ground_truth(args.gt)
    dets = read_dump(args.dets, gts)
    if args.proposals:
        proposals = read_dump(args.proposals, gts)
    else:
        sibling = proposals_sibling(args.dets)
        if sibling.exists():
            proposals = read_dump(sibling, gts)
        else:
            print("no proposal dump found; recall metrics use the detections")
            proposals = dets

    report = build_report(dets, proposals, gts)
    report_path = Path(args.report)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    table = render_tables(report)
    table_path = report_path.with_suffix(report_path.suffix + ".txt")
    table_path.write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


def int_at_least(low: int):
    """An argparse type: an integer of at least `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornerdet",
        description="corner-pair detection pipeline, synthetic corpora, and metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="run detection over a tensor corpus")
    p_detect.add_argument("--corpus", required=True, help="corpus directory")
    p_detect.add_argument("--config", default=None, help="pipeline config JSON")
    p_detect.add_argument("--out", required=True, help="detection dump path")
    p_detect.add_argument(
        "--workers",
        type=int_at_least(1),
        default=1,
        help="processes that detect, this one included (it forks N - 1), at most one per scene",
    )
    p_detect.set_defaults(func=cmd_detect)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--config", default=None, help="scene config JSON")
    p_synth.add_argument("--out", required=True, help="output corpus directory")
    p_synth.add_argument("--count", type=int_at_least(1), required=True, help="number of scenes")
    p_synth.add_argument("--seed", type=int_at_least(0), required=True, help="corpus seed")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score a detection dump against ground truth")
    p_eval.add_argument("--dets", required=True, help="detection dump JSON")
    p_eval.add_argument("--gt", required=True, help="ground-truth JSON")
    p_eval.add_argument("--report", required=True, help="report JSON output path")
    p_eval.add_argument("--proposals", default=None, help="proposal dump JSON (optional)")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (RenderBudgetError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
