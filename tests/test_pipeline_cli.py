import json
import re
import time

import numpy as np
import pytest

from cornerdet.cli import load_config, main, proposals_sibling
from cornerdet.evaluation import build_report, load_ground_truth, records_to_dets, report_to_dict
from cornerdet.pipeline import PipelineConfig, run_corpus
from cornerdet.postprocess import read_detections
from cornerdet.synth import SynthConfig, write_corpus


class TestPipelineConfig:
    def test_defaults_are_operating_constants(self):
        cfg = PipelineConfig()
        assert cfg.k == 70
        assert cfg.objectness_threshold == 0.2
        assert cfg.top_k == 100
        assert cfg.stride == 4
        assert cfg.soft_nms_sigma == 0.5
        assert cfg.soft_nms_prune == 0.001
        assert cfg.use_binary_head is True

    def test_from_json_partial(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 12, "objectness_threshold": 0.3}))
        cfg = load_config(PipelineConfig, path)
        assert cfg.k == 12
        assert cfg.objectness_threshold == 0.3
        assert cfg.top_k == 100

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"K": 12}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(PipelineConfig, path)

    def test_json_types_that_fit(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"soft_nms_sigma": 1, "num_classes": None, "k": 9}))
        cfg = load_config(PipelineConfig, path)
        assert (cfg.soft_nms_sigma, cfg.num_classes, cfg.k) == (1, None, 9)
        path.write_text(json.dumps({"num_boxes": [2, 3], "area_range": [900, 2500.5]}))
        cfg = load_config(SynthConfig, path)
        assert (cfg.num_boxes, cfg.area_range) == ((2, 3), (900, 2500.5))

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(objectness_threshold=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(objectness_threshold=1.0)
        with pytest.raises(ValueError):
            PipelineConfig(k=0)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    cfg = SynthConfig(num_boxes=(1, 3), noise=0.02)
    write_corpus(out, cfg, count=4, seed=101)
    return out


class TestCliFlow:
    def test_synth_detect_eval(self, small_corpus, tmp_path, capsys):
        dump = tmp_path / "dets.json"
        assert main(["detect", "--corpus", str(small_corpus), "--out", str(dump)]) == 0
        stdout = capsys.readouterr().out
        assert "ms" in stdout  # per-image timing summary
        assert dump.exists() and proposals_sibling(dump).exists()

        report_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--dets",
                str(dump),
                "--gt",
                str(small_corpus / "ground_truth.json"),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["ap"] >= 0.99
        assert report_path.with_suffix(".json.txt").exists()

    def test_cli_report_equals_library(self, small_corpus, tmp_path):
        dump = tmp_path / "dets.json"
        main(["detect", "--corpus", str(small_corpus), "--out", str(dump)])
        report_path = tmp_path / "report.json"
        main(
            [
                "eval",
                "--dets",
                str(dump),
                "--gt",
                str(small_corpus / "ground_truth.json"),
                "--report",
                str(report_path),
            ]
        )
        dets = records_to_dets(read_detections(dump))
        props = records_to_dets(read_detections(proposals_sibling(dump)))
        gts = load_ground_truth(small_corpus / "ground_truth.json")
        doc = report_to_dict(build_report(dets, props, gts))
        expected = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert report_path.read_text() == expected

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty"
        write_corpus(corpus, SynthConfig(), count=0, seed=5)
        dump = tmp_path / "dets.json"
        assert main(["detect", "--corpus", str(corpus), "--out", str(dump)]) == 0
        assert read_detections(dump) == []

    def test_k_override_limits_proposals(self, tmp_path):
        corpus = tmp_path / "two_box"
        cfg = SynthConfig(num_boxes=(2, 2))
        write_corpus(corpus, cfg, count=1, seed=77)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"k": 1}))
        dump = tmp_path / "dets.json"
        assert (
            main(
                [
                    "detect",
                    "--corpus",
                    str(corpus),
                    "--config",
                    str(config_path),
                    "--out",
                    str(dump),
                ]
            )
            == 0
        )
        proposals = read_detections(proposals_sibling(dump))
        assert len(proposals) <= 1  # one corner per side pairs at most once

    def test_detect_deterministic_across_workers(self, small_corpus, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["detect", "--corpus", str(small_corpus), "--out", str(a), "--workers", "1"])
        main(["detect", "--corpus", str(small_corpus), "--out", str(b), "--workers", "4"])
        assert a.read_bytes() == b.read_bytes()
        assert proposals_sibling(a).read_bytes() == proposals_sibling(b).read_bytes()

    def test_synth_deterministic_bytes(self, tmp_path):
        cfg = {"num_boxes": [1, 2], "noise": 0.01}
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(cfg))
        d1, d2 = tmp_path / "c1", tmp_path / "c2"
        for out in (d1, d2):
            assert (
                main(
                    [
                        "synth",
                        "--config",
                        str(cfg_path),
                        "--out",
                        str(out),
                        "--count",
                        "2",
                        "--seed",
                        "31",
                    ]
                )
                == 0
            )
        for rel in sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file()):
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_manifest_written_last(self, tmp_path):
        corpus = tmp_path / "c"
        main(["synth", "--out", str(corpus), "--count", "1", "--seed", "3"])
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert manifest["count"] == 1
        scene_dir = corpus / manifest["scenes"][0]["dir"]
        for name in ("tl_heat", "br_heat", "tl_off", "br_off", "box_feat", "cat_feat"):
            assert (scene_dir / f"{name}.cpnt").exists()
        assert (scene_dir / "weights" / "binary_kernel").exists()
        assert (scene_dir / "ground_truth.json").exists()


class TestCliErrors:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--corpus"])  # missing value
        assert exc.value.code == 2

    def test_missing_corpus_exit_3(self, tmp_path):
        code = main(["detect", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "d.json")])
        assert code == 3

    def test_unknown_config_key_exit_3(self, small_corpus, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        code = main(
            [
                "detect",
                "--corpus",
                str(small_corpus),
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "d.json"),
            ]
        )
        assert code == 3

    def test_eval_id_mismatch_exit_3(self, small_corpus, tmp_path, capsys):
        dump = tmp_path / "bad.json"
        dump.write_text(
            json.dumps(
                [{"image_id": 999, "category_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}]
            )
        )
        code = main(
            [
                "eval",
                "--dets",
                str(dump),
                "--gt",
                str(small_corpus / "ground_truth.json"),
                "--report",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 3
        assert "999" in capsys.readouterr().err

    def test_corrupt_tensor_exit_3(self, tmp_path):
        corpus = tmp_path / "corrupt"
        write_corpus(corpus, SynthConfig(num_boxes=(1, 1)), count=1, seed=9)
        victim = corpus / "scene_00000" / "tl_heat.cpnt"
        victim.write_bytes(b"JUNKJUNKJUNK")
        code = main(["detect", "--corpus", str(corpus), "--out", str(tmp_path / "d.json")])
        assert code == 3


BAD_CONFIGS = [
    ("detect", {"k": "70"}, 'k must be int, got "70"'),
    ("detect", {"k": 70.5}, "k must be int, got 70.5"),
    ("detect", {"k": True}, "k must be int, got true"),
    ("detect", {"num_classes": "2"}, "num_classes must be int | None"),
    ("detect", {"k": 0}, "k must be >= 1"),
    ("detect", {"soft_nms_sigma": float("nan")}, "soft_nms_sigma must be float, got NaN"),
    ("detect", {"iou_threshold": 0.7, "alpha": 2, "beta": 2}, "unknown config keys"),
    ("synth", {"num_boxes": 3}, "num_boxes must be tuple[int, int], got 3"),
    ("synth", {"num_boxes": [1, 2, 3]}, "num_boxes must be tuple[int, int]"),
    ("synth", {"num_boxes": [1, 2.5]}, "num_boxes must be tuple[int, int]"),
    ("synth", {"noise": "0.3"}, "noise must be float"),
    ("synth", {"num_classes": 0}, "num_classes must be in [1, 256]"),
]


@pytest.mark.parametrize("command, doc, message", BAD_CONFIGS)
def test_bad_config_exit_3(command, doc, message, small_corpus, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "detect":
        argv = ["detect", "--corpus", str(small_corpus), "--out", str(out)]
    else:
        argv = ["synth", "--out", str(out), "--count", "1", "--seed", "1"]
    assert main(argv + ["--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists() and not proposals_sibling(out).exists()


def test_detect_error_names_scene(small_corpus, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k": 1000000}))
    out = tmp_path / "out"
    argv = ["detect", "--corpus", str(small_corpus), "--out", str(out), "--config", str(cfg_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {small_corpus / 'scene_00000'}: k must be in [1, ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists() and not proposals_sibling(out).exists()


@pytest.mark.parametrize(
    "command, value", [("synth", "0"), ("synth", "-3"), ("detect", "0"), ("detect", "-5")]
)
def test_count_below_one_exit_2(command, value, small_corpus, tmp_path):
    out = tmp_path / "out"
    if command == "detect":
        argv = ["detect", "--corpus", str(small_corpus), "--out", str(out), "--workers", value]
    else:
        argv = ["synth", "--out", str(out), "--count", value, "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not out.exists() and not proposals_sibling(out).exists()


BAD_SCORES = [
    ({}, "record 1 has no 'score' field"),
    ({"score": float("nan")}, "record 1 has score nan, which is not finite"),
    ({"score": float("inf")}, "record 1 has score inf, which is not finite"),
    ({"score": None}, "record 1: float() argument must be"),
]


@pytest.mark.parametrize("extra, message", BAD_SCORES)
def test_eval_bad_score_exit_3(extra, message, small_corpus, tmp_path, capsys):
    good = {"image_id": 0, "category_id": 0, "bbox": [0, 0, 4, 4], "score": 0.5}
    bad = {"image_id": 0, "category_id": 0, "bbox": [1, 1, 4, 4], **extra}
    dump = tmp_path / "dets.json"
    dump.write_text(json.dumps([good, bad]))
    report = tmp_path / "r.json"
    argv = ["eval", "--dets", str(dump), "--gt", str(small_corpus / "ground_truth.json")]
    assert main(argv + ["--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dump}: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not report.exists()


def test_detect_summary_reports_wall_time(small_corpus, tmp_path, capsys):
    dump = tmp_path / "dets.json"
    start = time.perf_counter()
    argv = ["detect", "--corpus", str(small_corpus), "--out", str(dump), "--workers", "2"]
    assert main(argv) == 0
    measured = time.perf_counter() - start
    summary = capsys.readouterr().out.splitlines()[-1]
    wall = float(re.search(r"in ([0-9.]+) s wall time", summary).group(1))
    assert re.search(r"summed per-image latency [0-9.]+ s", summary)
    assert wall <= measured + 0.005  # the summary rounds to two decimals


def test_run_corpus_library_level(small_corpus):
    run = run_corpus(small_corpus, PipelineConfig(), workers=2)
    assert len(run.timings) == 4
    assert all(r["score"] <= 1.0 for r in run.detection_records)
    image_ids = {r["image_id"] for r in run.detection_records}
    assert image_ids <= {0, 1, 2, 3}
