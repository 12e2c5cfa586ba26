#!/usr/bin/env python3
"""End-to-end demo: synthesize a corpus, detect, evaluate, print the tables.

Example:
    python scripts/closed_loop_demo.py --scenes 20 --seed 7 --workdir /tmp/demo
"""

import argparse
import json
import tempfile
import time
from pathlib import Path

from cornerdet.cli import main as cli_main


def run(argv) -> int:
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(code)
    return code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--noise", type=float, default=0.02)
    parser.add_argument("--workdir", default=None, help="defaults to a fresh temp dir")
    args = parser.parse_args()

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="cornerdet_"))
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = workdir / "corpus"
    synth_cfg = workdir / "synth_config.json"
    synth_cfg.write_text(json.dumps({"noise": args.noise}))

    print(f"== synthesizing {args.scenes} scenes into {corpus}")
    run(["synth", "--config", str(synth_cfg), "--out", str(corpus),
         "--count", str(args.scenes), "--seed", str(args.seed)])

    dump = workdir / "detections.json"
    print("== running detection")
    start = time.perf_counter()
    run(["detect", "--corpus", str(corpus), "--out", str(dump),
         "--workers", str(args.workers)])
    print(f"== detection wall time: {time.perf_counter() - start:.2f} s")

    report = workdir / "report.json"
    print("== evaluating")
    run(["eval", "--dets", str(dump), "--gt", str(corpus / "ground_truth.json"),
         "--report", str(report)])
    print(f"== artifacts kept in {workdir}")


if __name__ == "__main__":
    main()
