import contextlib
import copy
import hashlib
import importlib.util
import inspect
import io
import json
import multiprocessing
import os
import re
import resource
import shutil
import tempfile
import struct
import subprocess
import sys
import time
import typing
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerdet import cli, pipeline, postprocess, proposals, synth
from cornerdet.cli import load_config, main, proposals_sibling
from cornerdet.evaluation import build_report, load_ground_truth, records_to_dets
from cornerdet.geometry import DET_DTYPE
from cornerdet.pipeline import PipelineConfig, run_corpus
from cornerdet.postprocess import (
    OBJECTNESS_THRESHOLD,
    SOFT_NMS_PRUNE,
    SOFT_NMS_SIGMA,
    TOP_K,
    read_detections,
    soft_nms,
    write_detections,
)
from cornerdet.proposals import HeadWeights
from cornerdet.synth import (
    AREA_RANGE,
    ASPECT_RANGE,
    IMAGE_SIZE,
    MARGIN,
    SynthConfig,
    load_scene_bundle,
    write_corpus,
)
from cornerdet.tensorio import load_tensor, store_tensor


class TestPipelineConfig:
    def test_defaults_are_operating_constants(self):
        cfg = PipelineConfig()
        assert cfg.k == 70
        assert cfg.use_binary_head is True
        assert (OBJECTNESS_THRESHOLD, SOFT_NMS_SIGMA, SOFT_NMS_PRUNE, TOP_K) == (0.2, 0.5, 0.001, 100)
        assert (IMAGE_SIZE, ASPECT_RANGE, AREA_RANGE, MARGIN) == (
            (511, 511),
            (1.0, 8.0),
            (24.0**2, 490.0**2),
            12.0,
        )
        assert [f.name for f in fields(PipelineConfig)] == ["k", "use_binary_head"]
        assert list(inspect.signature(soft_nms).parameters) == ["dets"]
        assert [f.name for f in fields(SynthConfig)] == ["num_classes", "noise", "arrangement"]
        assert synth.NUM_BOXES == (1, 6)

    def test_from_json_partial(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 12}))
        cfg = load_config(PipelineConfig, path)
        assert cfg.k == 12
        assert cfg.use_binary_head is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"K": 12}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(PipelineConfig, path)

    def test_json_types_that_fit(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"use_binary_head": False, "k": 9}))
        cfg = load_config(PipelineConfig, path)
        assert (cfg.use_binary_head, cfg.k) == (False, 9)
        # an integer is a float: noise 1 fits
        path.write_text(json.dumps({"noise": 1}))
        assert load_config(SynthConfig, path).noise == 1

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(k=0)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "NUM_BOXES", (1, 3))
        write_corpus(out, SynthConfig(noise=0.02), count=4, seed=101)
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
        dets = read_detections(dump)
        props = read_detections(proposals_sibling(dump))
        gts = load_ground_truth(small_corpus / "ground_truth.json")
        doc = build_report(dets, props, gts)
        expected = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert report_path.read_text() == expected

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty"
        write_corpus(corpus, SynthConfig(), count=0, seed=5)
        dump = tmp_path / "dets.json"
        assert main(["detect", "--corpus", str(corpus), "--out", str(dump)]) == 0
        assert dump.read_text() == proposals_sibling(dump).read_text() == "[]\n"
        for workers in (1, 2):
            run = run_corpus(corpus, PipelineConfig(), workers=workers)
            assert run.detection_records.dtype == run.proposal_records.dtype == DET_DTYPE
            assert len(run.detection_records) == len(run.proposal_records) == 0

    def test_k_override_limits_proposals(self, tmp_path, monkeypatch):
        corpus = tmp_path / "two_box"
        monkeypatch.setattr(synth, "NUM_BOXES", (2, 2))
        write_corpus(corpus, SynthConfig(), count=1, seed=77)
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

    def test_synth_deterministic_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synth, "NUM_BOXES", (1, 2))
        cfg = {"noise": 0.01}
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
        names = ("tl_heat", "br_heat", "tl_off", "br_off", "box_feat", "cat_feat")
        assert sorted(p.name for p in scene_dir.iterdir()) == sorted(f"{n}.cpnt" for n in names)
        weights = sorted(p.name for p in (corpus / "weights").iterdir())
        assert weights == ["binary_bias", "binary_kernel", "class_bias", "class_kernel"]
        root = sorted(p.name for p in corpus.iterdir())
        assert root == ["ground_truth.json", "manifest.json", scene_dir.name, "weights"]

    def test_eval_reads_explicit_proposals(self, small_corpus, tmp_path):
        gt = str(small_corpus / "ground_truth.json")
        dump = tmp_path / "dets.json"
        assert main(["detect", "--corpus", str(small_corpus), "--out", str(dump)]) == 0
        assert main(["eval", "--dets", str(dump), "--gt", gt, "--report", str(tmp_path / "a.json")]) == 0
        # a dump without a sibling, its proposals named by the flag
        lone = tmp_path / "lone"
        lone.mkdir()
        shutil.copy(dump, lone / "dets.json")
        shutil.copy(proposals_sibling(dump), lone / "props.json")
        argv = ["eval", "--dets", str(lone / "dets.json"), "--gt", gt, "--report", str(tmp_path / "b.json")]
        assert main(argv + ["--proposals", str(lone / "props.json")]) == 0
        for suffix in ("", ".txt"):
            assert (tmp_path / f"a.json{suffix}").read_bytes() == (tmp_path / f"b.json{suffix}").read_bytes()

    def test_eval_without_proposals_recalls_the_detections(self, small_corpus, tmp_path, capsys):
        gt = small_corpus / "ground_truth.json"
        dump = tmp_path / "dets.json"
        assert main(["detect", "--corpus", str(small_corpus), "--out", str(dump)]) == 0
        proposals_sibling(dump).unlink()
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        assert main(["eval", "--dets", str(dump), "--gt", str(gt), "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("no proposal dump found; recall metrics use the detections\n")
        dets = read_detections(dump)
        want = build_report(dets, dets, load_ground_truth(gt))
        assert json.loads(report_path.read_text())["ar_1000"] == want["ar_1000"]
        assert report_path.read_text() == json.dumps(want, sort_keys=True, indent=1) + "\n"

    def test_interrupted_detect_leaves_no_old_proposals(self, small_corpus, tmp_path, monkeypatch, capsys):
        # a rerun cut off before its proposal dump must not leave the last
        # run's proposals beside its new detections, where eval would read them
        dump = tmp_path / "dets.json"
        sibling = proposals_sibling(dump)
        assert main(["detect", "--corpus", str(small_corpus), "--out", str(dump)]) == 0
        assert sibling.exists()

        def write(path, records):
            if Path(path) == sibling:
                raise KeyboardInterrupt
            write_detections(path, records)

        monkeypatch.setattr(cli, "write_detections", write)
        with pytest.raises(KeyboardInterrupt):
            main(["detect", "--corpus", str(small_corpus), "--out", str(dump)])
        assert dump.exists() and not sibling.exists()
        capsys.readouterr()
        gt = str(small_corpus / "ground_truth.json")
        assert main(["eval", "--dets", str(dump), "--gt", gt, "--report", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().out.startswith("no proposal dump found; recall metrics use the detections\n")


def detect_exit_3(corpus, out, capsys, *extra) -> str:
    """Run detect with 1, 2 and 3 workers (the caller plus up to two forked
    children); each must exit 3 with the same stderr, write no dump and
    leave no child process running. Returns the stderr."""
    errs = []
    for workers in ("1", "2", "3"):
        argv = ["detect", "--corpus", str(corpus), "--out", str(out), "--workers", workers, *extra]
        assert main(argv) == 3
        errs.append(capsys.readouterr().err)
        assert not out.exists() and not proposals_sibling(out).exists()
        assert not multiprocessing.active_children()
    assert errs[0] == errs[1] == errs[2]
    return errs[0]


class TestCliErrors:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--corpus"])  # missing value
        assert exc.value.code == 2

    def test_missing_corpus_exit_3(self, tmp_path):
        code = main(["detect", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "d.json")])
        assert code == 3

    def test_failed_synth_leaves_no_manifest(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert main(["synth", "--out", str(corpus), "--count", "3", "--seed", "1"]) == 0
        first_truth = (corpus / "ground_truth.json").read_bytes()
        (corpus / "ground_truth.json").unlink()
        (corpus / "ground_truth.json").mkdir()  # the rerun cannot write it
        capsys.readouterr()
        assert main(["synth", "--out", str(corpus), "--count", "3", "--seed", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the seed-1 truth beside seed-2 scenes: no manifest vouches for the mix
        (corpus / "ground_truth.json").rmdir()
        (corpus / "ground_truth.json").write_bytes(first_truth)
        assert main(["detect", "--corpus", str(corpus), "--out", str(tmp_path / "d.json")]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {corpus} has no manifest.json; not a corpus?\n"

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
        record = {"image_id": 0, "category_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}
        dump.write_text(json.dumps([record, {**record, "image_id": 999}]))
        report = tmp_path / "r.json"
        argv = ["eval", "--dets", str(dump), "--gt", str(small_corpus / "ground_truth.json")]
        assert main(argv + ["--report", str(report)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {dump}: record 1: image_id 999 is not among the images\n"
        assert not report.exists()

    @pytest.mark.parametrize("explicit", [True, False])
    def test_eval_proposal_id_mismatch_exit_3(self, explicit, small_corpus, tmp_path, capsys):
        record = {"image_id": 0, "category_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}
        dump = tmp_path / "dets.json"
        dump.write_text(json.dumps([record]))
        proposals = tmp_path / "props.json" if explicit else proposals_sibling(dump)
        proposals.write_text(json.dumps([record, record, {**record, "image_id": 999}]))
        report = tmp_path / "r.json"
        argv = ["eval", "--dets", str(dump), "--gt", str(small_corpus / "ground_truth.json")]
        argv += ["--report", str(report)] + (["--proposals", str(proposals)] if explicit else [])
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: {proposals}: record 2: image_id 999 is not among the images\n"
        assert not report.exists()

    def test_corrupt_tensor_exit_3(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corrupt"
        monkeypatch.setattr(synth, "NUM_BOXES", (1, 1))
        write_corpus(corpus, SynthConfig(), count=1, seed=9)
        victim = corpus / "scene_00000" / "tl_heat.cpnt"
        victim.write_bytes(b"JUNKJUNKJUNK")
        err = detect_exit_3(corpus, tmp_path / "d.json", capsys)
        assert err.startswith(f"error: {victim.parent}: {victim}: bad magic")
        assert err.count("\n") == 1


BAD_CONFIGS = [
    ("detect", {"k": "70"}, 'k must be int, got "70"'),
    ("detect", {"k": 70.5}, "k must be int, got 70.5"),
    ("detect", {"k": True}, "k must be int, got true"),
    ("detect", {"num_classes": 2}, "unknown config keys ['num_classes']"),
    ("detect", {"k": 0}, "k must be >= 1"),
    ("synth", {"noise": float("nan")}, "noise must be float, got NaN"),
    ("detect", {"iou_threshold": 0.7, "alpha": 2, "beta": 2}, "unknown config keys"),
    ("synth", {"num_classes": 2, "num_boxes": [1, 6], "noise": 0.02}, "unknown config keys ['num_boxes']"),
    ("synth", {"noise": 10**400}, f"noise must be float, got {10**400}"),  # beyond the float range
    ("synth", {"noise": 10**308}, "noise must be >= 0 with 2 * noise finite"),  # a float, but not twice
    ("synth", {"noise": "0.3"}, "noise must be float"),
    ("synth", {"num_classes": 0}, "num_classes must be in [1, 256]"),
    ("detect", '{"k": 70, "k": 71}', "duplicate config key 'k'"),
]


@pytest.mark.parametrize("command, doc, message", BAD_CONFIGS)
def test_bad_config_exit_3(command, doc, message, small_corpus, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))  # str: raw JSON text
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


# values no field of its JSON kind accepts, as JSON text; "1" + "0" * 400 is
# an int beyond the float range
NOT_A_FLOAT = ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, '"0.5"', "true", "null", "[0.5]"]
NOT_AN_INT = ["1.5", "true", '"3"', "null", "1e400", "NaN", "[3]"]
NOT_A_PAIR = ["5", "[]", "[1]", "[1, 2, 3]", '[1, "2"]', "[1, NaN]", "[1, 1e400]", "null"]
NOT_OF_KIND = {float: NOT_A_FLOAT, int: NOT_AN_INT, bool: ["1", '"true"', "null"], str: ["5", "null"]}


def field_mutants(cls):
    """(name, JSON text) for every field of a config class and every value
    of the wrong JSON kind for it."""
    for name, hint in typing.get_type_hints(cls).items():
        for value in NOT_OF_KIND[hint]:
            yield name, value


# values of the right kind that the config class rejects
OUT_OF_RANGE = {
    "detect": [
        ("k", "0"),
    ],
    "synth": [
        ("num_classes", "0"),
        ("num_classes", "257"),
        ("noise", "-0.1"),
        ("noise", "1e308"),  # uniform(-noise, noise) spans more than the float range
        ("arrangement", '"diagonal"'),
    ],
}
# retired keys, with the values they used to reject and their last default:
# a config that still sets one exits 3 as an unknown key, not ignored
RETIRED = {
    "detect": [
        *[("stride", value) for value in [*NOT_AN_INT, "0", "4"]],
        *[("num_classes", value) for value in NOT_AN_INT],
        *[("objectness_threshold", value) for value in [*NOT_A_FLOAT, "0", "1", "0.2"]],
        *[("soft_nms_sigma", value) for value in [*NOT_A_FLOAT, "0", "-1e-320", "0.5"]],
        *[("soft_nms_prune", value) for value in [*NOT_A_FLOAT, "-0.001", "0.001"]],
        *[("top_k", value) for value in [*NOT_AN_INT, "-1", "100"]],
    ],
    "synth": [
        *[("image_size", value) for value in [*NOT_A_PAIR, "[0, 511]", "[511, -3]", "[511, 511]"]],
        *[
            ("aspect_range", value)
            for value in [
                *NOT_A_PAIR,
                "[0, 0]",
                "[0.5, 8]",
                "[6, 5]",
                "[1, 3]",
                '[4, 8], "extreme_aspect_period": 0',
                "[1, 8]",
            ]
        ],
        *[
            ("area_range", value)
            for value in [
                *NOT_A_PAIR,
                "[100, 10000]",
                "[50000, 240100]",
                "[0, 100]",
                "[-1, 1e6]",
                "[1e6, 1e5]",
                "[576, 240100]",
            ]
        ],
        *[("margin", value) for value in [*NOT_A_FLOAT, "1e308", "-1e9", "255.5", "12"]],
        *[("extreme_aspect_period", value) for value in [*NOT_AN_INT, "-1", "5"]],
        *[("extreme_area_period", value) for value in [*NOT_AN_INT, "-5", "5"]],
        *[
            ("num_boxes", value)
            for value in [
                *NOT_A_PAIR,
                "[3, 1]",
                "[-1, 2]",
                "[0, 9223372036854775808]",
                "[214, 214]",
                "[0, 214]",
                "[1, 6]",
            ]
        ],
    ],
}
WHOLE_FILE = [
    ("bad-utf8", b'{"k": \xff}'),
    ("bad-utf8-bom16", b"\xff\xfe{\x00}\x00"),
    ("empty", b""),
    ("truncated", b'{"k": 7'),
    ("truncated-key", b'{"'),
    ("array", b"[]"),
    ("null", b"null"),
    ("string", b'"k"'),
    ("number", b"5"),
    ("nan", b"NaN"),
    ("duplicate-key", b'{"noise": 0.1, "noise": 0.2}'),
]


def retired_message(name, value):
    """The error for a RETIRED case: every key it sets is retired, listed sorted."""
    keys = sorted(json.loads('{"%s": %s}' % (name, value)))
    return f"unknown config keys {keys}"


CONFIG_FUZZ = [
    pytest.param(command, text, "", id=f"{command}-{case}")
    for command in ("detect", "synth")
    for case, text in WHOLE_FILE
] + [
    pytest.param(command, f'{{"{name}": {value}}}'.encode(), message, id=f"{command}-{name}={value}")
    for command, cls in (("detect", PipelineConfig), ("synth", SynthConfig))
    for name, value, message in [
        *[(name, value, "") for name, value in [*field_mutants(cls), *OUT_OF_RANGE[command]]],
        *[(name, value, retired_message(name, value)) for name, value in RETIRED[command]],
    ]
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, message", CONFIG_FUZZ)
def test_config_fuzzed_input_exit_3(command, text, message, small_corpus, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(text)
    out = tmp_path / "out"
    if command == "detect":
        argv = ["detect", "--corpus", str(small_corpus), "--out", str(out)]
    else:
        argv = ["synth", "--out", str(out), "--count", "2", "--seed", "1"]
    assert main(argv + ["--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists() and not proposals_sibling(out).exists()


def test_detect_error_names_scene(small_corpus, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k": 1000000}))
    out = tmp_path / "out"
    err = detect_exit_3(small_corpus, out, capsys, "--config", str(cfg_path))
    assert err.startswith(f"error: {small_corpus / 'scene_00000'}: k must be in [1, ")
    assert err.count("\n") == 1 and err.endswith("\n")


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


def test_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(out), "--count", "1", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "count, seed, message", [(-1, 1, "count must be >= 0, got -1"), (1, -1, "seed must be >= 0, got -1")]
)
def test_write_corpus_rejects_negative_arguments(count, seed, message, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_corpus(out, SynthConfig(), count=count, seed=seed)
    assert not out.exists()


BAD_SCORES = [
    ({}, "record 1 has no 'score' field"),
    ({"score": float("nan")}, "record 1 has score nan, which is not finite"),
    ({"score": float("inf")}, "record 1 has score inf, which is not finite"),
    ({"score": None}, "record 1: score must be a number, got null"),
    ({"score": [0.5]}, "record 1: score must be a number, got [0.5]"),
    ({"score": {"value": 0.5}}, 'record 1: score must be a number, got {"value": 0.5}'),
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


# Runs detect in a fresh interpreter in which exactly one forked child dies as
# a killed or out-of-memory one would, with exit code 9; the caller keeps the
# real functions. "holding" kills the child once it holds a claimed scene: each
# process waits at a barrier on its first scene, so with 4 scenes and at most
# 3 processes every child holds one whatever the timing. "sent" kills it just
# after it sent every outcome. Of the children that get there, the one that
# creates the marker file dies. Prints the exit code, whether the marker
# exists, whether either dump does, and how many children still live.
DEAD_CHILD_SCRIPT = """
import json, multiprocessing, os, sys
from multiprocessing.connection import Connection
from pathlib import Path
from cornerdet import cli, pipeline

corpus, out, workers, when = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
marker = out.with_name("died")

def die_once():
    if multiprocessing.parent_process() is None:
        return
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return
    os._exit(9)

barrier = multiprocessing.get_context("fork").Barrier(workers, timeout=60)
detect_scene, send, waited = pipeline._detect_scene, Connection.send, []

def holding(*args):
    if not waited:
        waited.append(True)
        barrier.wait()
        die_once()
    return detect_scene(*args)

def sent(self, obj):
    send(self, obj)
    die_once()

if when == "holding":
    pipeline._detect_scene = holding
else:
    Connection.send = sent
code = cli.main(["detect", "--corpus", corpus, "--out", str(out), "--workers", str(workers)])
dumps = out.exists() or cli.proposals_sibling(out).exists()
print(json.dumps([code, marker.exists(), dumps, len(multiprocessing.active_children())]))
"""


def dead_child_detect(corpus, out, workers: int, when: str):
    """DEAD_CHILD_SCRIPT's result and stderr; a hang fails the test."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", DEAD_CHILD_SCRIPT, str(corpus), str(out), str(workers), when],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout), done.stderr


def test_dead_worker_exit_3(small_corpus, tmp_path):
    # the caller and its one child each hold a scene when the child dies
    result, err = dead_child_detect(small_corpus, tmp_path / "dets.json", 2, "holding")
    assert err == f"error: {small_corpus}: a worker process ended abruptly before every scene was detected\n"
    assert result == [3, True, False, 0]  # exit 3, a child died, no dump, no child left


@pytest.mark.parametrize("when", ["holding", "sent"])
def test_one_of_two_children_dies_exit_3(when, small_corpus, tmp_path):
    # the other child and the caller go on, yet the run still ends in one line
    result, err = dead_child_detect(small_corpus, tmp_path / "dets.json", 3, when)
    assert err == f"error: {small_corpus}: a worker process ended abruptly before every scene was detected\n"
    assert result == [3, True, False, 0]


def test_detect_summary_reports_wall_time(small_corpus, tmp_path, capsys):
    dump = tmp_path / "dets.json"
    start = time.perf_counter()
    argv = ["detect", "--corpus", str(small_corpus), "--out", str(dump), "--workers", "2"]
    assert main(argv) == 0
    measured = time.perf_counter() - start
    summary = capsys.readouterr().out.splitlines()[-1]
    wall = float(re.search(r"in ([0-9.]+) s wall time", summary).group(1))
    assert re.search(r"summed per-image latency [0-9.]+ s; peak RSS [0-9.]+ MB, ", summary)
    assert re.search(r", largest worker [0-9.]+ MB$", summary)
    assert wall <= measured + 0.005  # the summary rounds to two decimals


def test_detect_summary_reports_peak_rss(small_corpus, tmp_path, capsys):
    # ru_maxrss in KiB, so the line reads MB; one worker forks no child to report
    assert main(["detect", "--corpus", str(small_corpus), "--out", str(tmp_path / "dets.json")]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    peak = float(re.search(r"; peak RSS ([0-9.]+) MB$", summary).group(1))
    assert abs(peak - resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0) < 0.1


def test_loaded_features_carry_the_stored_channels(small_corpus):
    # the feature files leave out their all-zero channels, and a loaded
    # scene's RoIAlign looks at the stored ones alone
    weights = HeadWeights.load_bundle(small_corpus / "weights")
    for scene in sorted(small_corpus.glob("scene_*")):
        bundle = load_scene_bundle(scene, weights)
        for feat, channels in ((bundle.box_feat, bundle.box_channels), (bundle.cat_feat, bundle.cat_channels)):
            assert channels.tolist() == np.flatnonzero(feat.reshape(len(feat), -1).any(axis=1)).tolist()
        assert (scene / "cat_feat.cpnt").stat().st_size < 4 * bundle.cat_feat.size // 64


def test_run_corpus_library_level(small_corpus):
    run = run_corpus(small_corpus, PipelineConfig(), workers=2)
    assert len(run.timings) == 4
    assert all(r["score"] <= 1.0 for r in run.detection_records)
    image_ids = {r["image_id"] for r in run.detection_records}
    assert image_ids <= {0, 1, 2, 3}


def test_run_corpus_records_equal_across_workers(small_corpus):
    one = run_corpus(small_corpus, PipelineConfig(), workers=1)
    for workers in (2, 3):
        many = run_corpus(small_corpus, PipelineConfig(), workers=workers)
        assert many.timings and [i for i, _ in many.timings] == [i for i, _ in one.timings]
        for field in ("detection_records", "proposal_records"):
            a, b = getattr(one, field), getattr(many, field)
            assert a.dtype == b.dtype == DET_DTYPE
            assert a.tobytes() == b.tobytes()
    assert len(one.proposal_records) > len(one.detection_records) > 0
    # manifest order: image ids never decrease along either dump
    assert (np.diff(one.proposal_records["image_id"]) >= 0).all()


def test_every_scene_is_claimed_once(small_corpus, monkeypatch):
    # six processes on fewer cores race for 20,000 claims, more 4-byte
    # tokens than a 64 KiB pipe holds; each scene is detected exactly once
    manifest = synth.read_manifest(small_corpus)
    scenes = [{"id": i, "dir": manifest["scenes"][0]["dir"]} for i in range(20_000)]
    monkeypatch.setattr(pipeline, "read_manifest", lambda corpus: {**manifest, "scenes": scenes})

    def stamped(corpus_dir, weights, config, entry):
        rows = np.zeros(1, DET_DTYPE)
        rows["image_id"] = entry["id"]
        return entry["id"], pipeline.SceneResult(rows, rows, 0), 0.0

    monkeypatch.setattr(pipeline, "_detect_scene", stamped)
    run = run_corpus(small_corpus, PipelineConfig(), workers=6)
    assert [image_id for image_id, _ in run.timings] == list(range(20_000))
    assert run.detection_records["image_id"].tolist() == list(range(20_000))
    assert not multiprocessing.active_children()


def test_run_corpus_rows_are_each_scenes_rows_stamped(small_corpus):
    # each image's slice of both dumps is its scene's detect_bundle rows, row
    # for row, with image_id turned from 0 into the manifest id
    weights = HeadWeights.load_bundle(small_corpus / "weights")
    scenes = json.loads((small_corpus / "manifest.json").read_text())["scenes"]
    wants = []
    for entry in scenes:
        bundle = load_scene_bundle(small_corpus / entry["dir"], weights)
        result = pipeline.detect_bundle(bundle, PipelineConfig())
        rows = {"detection_records": result.detections.copy(), "proposal_records": result.proposals.copy()}
        for want in rows.values():
            assert not want["image_id"].any()
            want["image_id"] = entry["id"]
        wants.append((entry["id"], rows))
    assert len({entry["id"] for entry in scenes}) == len(scenes) > 1
    for workers in (1, 2):
        run = run_corpus(small_corpus, PipelineConfig(), workers=workers)
        for field in ("detection_records", "proposal_records"):
            got = getattr(run, field)
            assert len(got) == sum(len(rows[field]) for _, rows in wants)
            for image_id, rows in wants:
                mine = got[got["image_id"] == image_id]
                assert mine.tobytes() == rows[field].tobytes(), (workers, field, image_id)


def test_pool_never_larger_than_the_corpus(small_corpus, tmp_path, monkeypatch):
    # the caller forks all its children at once: --workers 1000000 on 4
    # scenes must start 3 children, not a million processes; a fourth start
    # fails before it forks
    process = multiprocessing.get_context("fork").Process
    started, start = [], process.start

    def counted(self):
        assert len(started) < 3, "a fourth child for 4 scenes"
        started.append(self)
        start(self)

    monkeypatch.setattr(process, "start", counted)
    one, many = tmp_path / "one.json", tmp_path / "many.json"
    assert main(["detect", "--corpus", str(small_corpus), "--out", str(one)]) == 0
    assert started == []
    argv = ["detect", "--corpus", str(small_corpus), "--out", str(many), "--workers", "1000000"]
    assert main(argv) == 0
    assert len(started) == 3 and not multiprocessing.active_children()
    assert one.read_bytes() == many.read_bytes()
    assert proposals_sibling(one).read_bytes() == proposals_sibling(many).read_bytes()


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py as a module, with perfbench/ on sys.path for its spans module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    monkeypatch.syspath_prepend(str(path.parent))
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_perfbench_detect_pass_smoke(bench, small_corpus, tmp_path):
    """The benchmark's detect pass, loaded from perfbench/run.py, on the small corpus."""
    out = tmp_path / "out"
    result = bench.detect_pass(small_corpus, 2, out)
    dets, props = out / "dets.json", proposals_sibling(out / "dets.json")
    assert result.n_dets == len(read_detections(dets)) > 0
    assert result.n_props == len(read_detections(props)) > result.n_dets
    assert (result.dets, result.props) == (bench.sha256(dets), bench.sha256(props))
    assert [image_id for image_id, _ in result.timings] == [0, 1, 2, 3]


def test_perfbench_traced_round_smoke(bench, tmp_path, monkeypatch):
    """A traced benchmark round on 3 noisy scenes: every layer check runs and
    passes, only the four retired stages and cli's retired records_to_dets
    are absent, and tracing moves no dump.
    Soft-NMS keeps as many records as the dump holds, and every tensor load
    runs through a traced name: 4 weight files and 6 tensors per scene."""
    monkeypatch.setattr(bench, "SCENES", 3)
    tracer, _, walls, _, _, dumps = bench.traced_round(SynthConfig(noise=0.3), 1, tmp_path)
    values, _ = bench.round_metrics(tracer, walls)
    untraced = dumps[0]
    assert bench.layer_checks(values, untraced, tracer.absent) == []
    assert values["postprocess.soft_nms.out"] == untraced.n_dets == 211
    assert values["tensorio.load_tensor.calls"] == 4 + 6 * 3
    assert tracer.absent == [
        "cornerdet.pipeline.assign_labels",
        "cornerdet.pipeline.top_k_truncate",
        "cornerdet.pipeline.detection_records",
        "cornerdet.cli.records_to_dets",
        "cornerdet.evaluation.average_false_discovery",
    ]
    assert {(d.dets, d.props, d.n_dets, d.n_props) for d in dumps} == {
        (untraced.dets, untraced.props, untraced.n_dets, untraced.n_props)
    }


# sha256 of both dumps of a fixed noisy corpus. A RoIAlign kernel or head that
# adds in another order would move a score's last bit, and so these hashes.
NOISY_DUMP_SHA256 = {
    "dets.json": "1d5502b421cf51c00c16583a87e3c65e46968324c2ae1e389b7e66741401ca9c",
    "dets.proposals.json": "3ad174bddbe50eaa7f1240a92e1c0603ff60b89061aa7aa4658d509bc05fa5a7",
}


def test_noisy_dumps_pinned(tmp_path):
    corpus = tmp_path / "noisy"
    write_corpus(corpus, SynthConfig(noise=0.3), count=3, seed=61)
    dump = tmp_path / "dets.json"
    assert main(["detect", "--corpus", str(corpus), "--out", str(dump)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (dump, proposals_sibling(dump))}
    assert got == NOISY_DUMP_SHA256


# sha256 of the report and its tables for the same noisy corpus; its
# undefined metrics put n/a cells in both AR bucket groups
NOISY_REPORT_SHA256 = {
    "report.json": "8bea6dd31e7db81e5173489aa92eb1cf1cf214fe5e7ae594addb0efa09910dcc",
    "report.json.txt": "94c92ba03c2be8432fd7d2102833049c5a2c49ff1b39f128ac188cf9d6d3f2bb",
}


def test_noisy_report_pinned(tmp_path):
    corpus = tmp_path / "noisy"
    write_corpus(corpus, SynthConfig(noise=0.3), count=3, seed=61)
    dump, report = tmp_path / "dets.json", tmp_path / "report.json"
    assert main(["detect", "--corpus", str(corpus), "--out", str(dump)]) == 0
    gt = corpus / "ground_truth.json"
    assert main(["eval", "--dets", str(dump), "--gt", str(gt), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["undefined"] == [
        "ar_area_bucket_2",
        "ar_area_bucket_3",
        "ar_aspect_6_1",
    ]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (report, tmp_path / "report.json.txt")}
    assert got == NOISY_REPORT_SHA256


# sha256 of both dumps and the report of each benchmark workload's corpus
# (perfbench/run.py WORKLOADS, 30 scenes at seed 1), detected with 1 worker:
# the bits a kernel rewrite must keep on the corpora the benchmark times
BENCHMARK_CORPORA_SHA256 = {
    "clean": (
        {},
        "b5f2a3290748de56bd8853d27d63e0a560ed4c1a46ca3160004e7629e633e707",
        "0b634f7d4918ff324be2102d81c2a96a7c1610b3c1dfe0a8aeaa130c8763b516",
        "0ef9c48b7326ff71f77c605fcee88f1a93e4cc984189c21956214ea56639aa9d",
    ),
    "noisy": (
        {"noise": 0.3},
        "08b7d1950640b3ac4b37d99cb6e20ad4845065977f1c282eb327f5043584725a",
        "86184b79c10b5bbf7e956f3936a34f0da5328da8178a55233600be0389476997",
        "34017539198a2694a2435aee3f9b0c517cfff53559019c0ac0d3ca20131404eb",
    ),
    "cross": (
        {"arrangement": "cross", "noise": 0.3},
        "075dbc12cd1d4dd122e65019052f205bbb7effe4d17649662032492a71af792a",
        "ef62c152b709daa08f2286857cbb3134cfb3523b081e9f25dd037e9d052efd7f",
        "2ccec6c7c7e3e38037a6c3526562f07de5689d3be07a24ef0280d587fbf42156",
    ),
}


@pytest.mark.parametrize("name", BENCHMARK_CORPORA_SHA256)
def test_benchmark_corpora_dumps_pinned(name, tmp_path):
    overrides, *want = BENCHMARK_CORPORA_SHA256[name]
    corpus = tmp_path / name
    write_corpus(corpus, SynthConfig(**overrides), count=30, seed=1)
    dump, report = tmp_path / "dets.json", tmp_path / "report.json"
    assert main(["detect", "--corpus", str(corpus), "--out", str(dump), "--workers", "1"]) == 0
    gt = corpus / "ground_truth.json"
    assert main(["eval", "--dets", str(dump), "--gt", str(gt), "--report", str(report)]) == 0
    got = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (dump, proposals_sibling(dump), report)]
    assert got == want


@pytest.mark.parametrize("name", BENCHMARK_CORPORA_SHA256)
def test_read_detections_takes_benchmark_dumps(name, tmp_path, monkeypatch):
    """Both pinned seed-1 dumps of each benchmark corpus read, every record on
    the reader's fast path, as the rows records_to_dets makes of their json.load."""
    overrides, *want = BENCHMARK_CORPORA_SHA256[name]
    corpus = tmp_path / name
    write_corpus(corpus, SynthConfig(**overrides), count=30, seed=1)
    run = run_corpus(corpus, PipelineConfig())
    paths = (tmp_path / "dets.json", proposals_sibling(tmp_path / "dets.json"))
    write_detections(paths[0], run.detection_records)
    write_detections(paths[1], run.proposal_records)
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == want[:2]
    references = [records_to_dets(json.loads(p.read_text())) for p in paths]

    def refuse(records):
        raise AssertionError("the fast path left a record to records_to_dets")

    monkeypatch.setattr(postprocess, "records_to_dets", refuse)
    for path, reference in zip(paths, references):
        rows = read_detections(path)
        assert rows.dtype == reference.dtype == DET_DTYPE
        assert rows.tobytes() == reference.tobytes()


# sha256 of the ground truth and manifest of two fixed corpora: the noisy one
# above, and a cross one. A change that moves a random draw of scene
# generation, or the image size the files record, moves these.
# every file of each pinned corpus, the head weights included; both corpora
# have 2 classes, so they share the weights
WEIGHTS_SHA256 = {
    "weights/binary_bias": "7018ddcc09c5c4c9335755b05ce550568b921bb0c8a63277b568f45bd6194ada",
    "weights/binary_kernel": "4eb000e42f0c592d4e76d10c913945db45a65e0de88a7a8d83de0b8b55f9bbf2",
    "weights/class_bias": "5ae319b350bce49715fe0195ccfd4f6f27cca0ae14c5ddc67cb63f84909f4326",
    "weights/class_kernel": "fb46db3893a44e6682a36de050ce7699339388c9ab3f80dee974ec769412a5e7",
}
CORPUS_SHA256 = {
    "noisy": {
        "ground_truth.json": "924412c516d9accfaadb2424684d41853f41f8df91c667cef70357a82b601036",
        "manifest.json": "06db1d2e926c933f1ef88df8f559790db7f099ae043859283c055a03c3b56838",
        "scene_00000/box_feat.cpnt": "8596acd4420cfee037f4b4c46860028f365715e0d77ce640c02b63e8fed2c217",
        "scene_00000/br_heat.cpnt": "557c144b40cc8343c7cc8508c48a8dd5192751b9c62ec7fde2435e621ea8fd20",
        "scene_00000/br_off.cpnt": "76805da6aff71c78eb27d533f4a03784d72d89d57573d7a8f88fd7b566abef8a",
        "scene_00000/cat_feat.cpnt": "c95fab95c13aff2d198c00727244ce52a6be58088c4f5a9aaf3a112377b06ce5",
        "scene_00000/tl_heat.cpnt": "ee96df3715c1925f83f719645fd9e7205df588df544319d906ce6035b04e8883",
        "scene_00000/tl_off.cpnt": "37a77bf2328da4b778e427bf4572b082bb2f5df7972680a8fb28e883e196d773",
        "scene_00001/box_feat.cpnt": "60b846721eccfa57d17c4cf988bc375c0cee0349b357ba7390cd20438e3b5ecf",
        "scene_00001/br_heat.cpnt": "c72abccb877a811a5428349ca03f69ffecf5d531a66d3fe2d8fc5f3cc0980ac4",
        "scene_00001/br_off.cpnt": "43b82fadd554cb0303618410452ca554bdf543e0c66c9972965a78a478caf2f3",
        "scene_00001/cat_feat.cpnt": "d0deae54250f61bd9f4dde76b0d6cf03b292bc06d48cdefd44955fa365d2172f",
        "scene_00001/tl_heat.cpnt": "e4459a51db9de58f49813f151b59a82573d9964eb5d670420d2d1b01b2ee42c9",
        "scene_00001/tl_off.cpnt": "3e73b015909eb6a6c6ad5a6ec55ce5ed4339dc408b58c66606de5b998c7a418c",
        "scene_00002/box_feat.cpnt": "59ed3c8fbbf1a811918c0c71f7b551690daa71aef54ce4e67a45d2113234e5c1",
        "scene_00002/br_heat.cpnt": "427b325a3f60fb5bffb2acd45fef9830d78d66a6f639472b5bfc3f792c3cc4ef",
        "scene_00002/br_off.cpnt": "dac9b382de504e46d049d30f9bc2dc72a05def06f6cd39bd2359a121ca4b316b",
        "scene_00002/cat_feat.cpnt": "4e39ed1ed3232d4bfac0a566bc593a23801df99155c3350b4aad04b255c95601",
        "scene_00002/tl_heat.cpnt": "c680540db00fab92a88e8ba92b5dba465689c4ff847e914561330f972e27ce6e",
        "scene_00002/tl_off.cpnt": "19dc4cffcc57918bd89966d31dde1fb4d2c724b3133d7bf88106572f34b83ecf",
        **WEIGHTS_SHA256,
    },
    "cross": {
        "ground_truth.json": "31c4fd0e3f564bd63ae887c9e640644e14e604c6d52acfcafc1b48a02100e752",
        "manifest.json": "85ed2d5cd6cfe4fcf54d10e8d3f48699e866cf8c76004228294efb10013c5110",
        "scene_00000/box_feat.cpnt": "362b4df8fc14a7573e59d190956fb82c6b3b9fff8dcf8115d6b2313edcec8d1a",
        "scene_00000/br_heat.cpnt": "e3826066ff44b702a3b4fda18ed9b62f0963c794af0484adf227ec11392dbb4b",
        "scene_00000/br_off.cpnt": "aa219a212e96ab3a7a3a3d6c2e920176fb2b37559cc4efdba775a4f36ccf70c5",
        "scene_00000/cat_feat.cpnt": "8938034db821d250598a971ae3c3734b55b38e8a60b1276a7a8756cd1d43387e",
        "scene_00000/tl_heat.cpnt": "dce4ec4de6e3e4d08f5c0cb168a6d19f99234d25cca1ab3e9c0b98d6546b9fcb",
        "scene_00000/tl_off.cpnt": "752a2bdd7a972aafa9816191595a4b685bf8ef3a521d62370dd8dfa72f71ef1d",
        "scene_00001/box_feat.cpnt": "38ecfaa762d5d6d0d62c2b4513ab3d385844f44504d20edd0610d11d84ff1ffa",
        "scene_00001/br_heat.cpnt": "44fe20456b633dcf501679386409061b4e104da2cee79570d0560ab63a0c66de",
        "scene_00001/br_off.cpnt": "277b9f970d0a033903e2e13b0e6102fe3f5555fb7b8d8324186cc1620892dd0c",
        "scene_00001/cat_feat.cpnt": "1b82b70bfa393f1f5e30a9795fc56d332679775a8a5c14b1022a2776e5cb6132",
        "scene_00001/tl_heat.cpnt": "842d09054fe4daa9abe5d1ccbf5ef0990c428bd15a73d59d9ab93758088d243d",
        "scene_00001/tl_off.cpnt": "5d4dff64837fa6f0caeb44afbcd95793a809022b4abc106bff50242da38fbe48",
        **WEIGHTS_SHA256,
    },
}


@pytest.mark.parametrize(
    "name, cfg, count",
    [("noisy", SynthConfig(noise=0.3), 3), ("cross", SynthConfig(arrangement="cross"), 2)],
)
def test_corpus_files_pinned(name, cfg, count, tmp_path):
    write_corpus(tmp_path, cfg, count=count, seed=61)
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert got == CORPUS_SHA256[name]
    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    assert {(image["width"], image["height"]) for image in truth["images"]} == {(511, 511)}
    if name == "noisy":
        # scene 0 is forced extreme-aspect, scene 1 extreme-area
        boxes = [(a["image_id"], *a["bbox"][2:]) for a in truth["annotations"]]
        assert any(i == 0 and max(w / h, h / w) >= 5.0 for i, w, h in boxes)
        assert any(i == 1 and w * h > 400.0**2 for i, w, h in boxes)


def plant_non_finite(scene, name, value):
    """Store `value` into one tensor of scene_00000 (image 0): one cell of a
    small tensor, or box_feat or cat_feat over the image's first ground-truth
    box, where the true proposal pools."""
    path = scene / f"{name}.cpnt"
    tensor = load_tensor(path)
    if name in ("box_feat", "cat_feat"):
        gt = json.loads((scene.parent / "ground_truth.json").read_text())
        box = next(a["bbox"] for a in gt["annotations"] if a["image_id"] == 0)
        x, y, w, h = (v / 4.0 for v in box)
        tensor[:, int(y) : int(y + h) + 1, int(x) : int(x + w) + 1] = value
    else:
        tensor[0, 5, 5] = value
    store_tensor(tensor, path)


NON_FINITE_TENSORS = [
    ("tl_heat", "tl_heat holds NaN or infinity"),
    ("br_heat", "br_heat holds NaN or infinity"),
    ("tl_off", "tl_off holds NaN or infinity"),
    ("br_off", "br_off holds NaN or infinity"),
    ("box_feat", "box_feat or the binary head weights hold NaN, infinity or values that overflow"),
    ("cat_feat", "cat_feat or the class head weights hold NaN, infinity or values that overflow"),
]
# 3e38 is finite, but pooling it overflows float32
NON_FINITE_CASES = [
    (name, message, value)
    for name, message in NON_FINITE_TENSORS
    for value in (float("nan"), float("inf"))
] + [(name, message, 3e38) for name, message in NON_FINITE_TENSORS[4:]]


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
@pytest.mark.parametrize("name, message, value", NON_FINITE_CASES)
def test_detect_non_finite_tensor_exit_3(name, message, value, small_corpus, tmp_path, capsys):
    # hard links: store_tensor replaces the link, so the shared corpus stays intact
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    scene = corpus / "scene_00000"
    plant_non_finite(scene, name, value)
    out = tmp_path / "out"
    err = detect_exit_3(corpus, out, capsys)
    assert err == f"error: {scene}: {message}\n"


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
@pytest.mark.parametrize("entry, bias", [(1e-30, -1e11), (1e-40, None)])
def test_detect_overflow_under_a_tiny_kernel_exit_3(entry, bias, small_corpus, tmp_path, capsys):
    # 3e38 under the true proposal pools to infinity, so its logit is
    # infinite whatever the kernel. A bound of 3e38 times the kernel's
    # magnitude would rule that proposal out (about 1.5e10 under a bias of
    # -1e11, or 1.5 under the planted bias of -40 with subnormal entries)
    # and hide the overflow; a channel that may overflow must bound nothing.
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    store_tensor(np.full((1, 32, 7, 7), entry, dtype=np.float32), corpus / "weights" / "binary_kernel")
    if bias is not None:
        store_tensor(np.array([bias], dtype=np.float32), corpus / "weights" / "binary_bias")
    scene = corpus / "scene_00000"
    plant_non_finite(scene, "box_feat", 3e38)
    err = detect_exit_3(corpus, tmp_path / "out", capsys)
    assert err == f"error: {scene}: {NON_FINITE_TENSORS[4][1]}\n"


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", BENCHMARK_CORPORA_SHA256)
def test_objectness_bound_keeps_every_survivor(name, seed, tmp_path, monkeypatch):
    """On the benchmark corpora, ruling proposals out by the bound gives
    each scene the same survivor count and the same rows as scoring every
    proposal, while it rules out most of them under the planted head."""
    corpus = tmp_path / name
    write_corpus(corpus, SynthConfig(**BENCHMARK_CORPORA_SHA256[name][0]), count=30, seed=seed)
    weights = HeadWeights.load_bundle(corpus / "weights")
    bound = pipeline.objectness_bound
    kept = total = 0
    for entry in synth.read_manifest(corpus)["scenes"]:
        bundle = load_scene_bundle(corpus / entry["dir"], weights)
        monkeypatch.setattr(pipeline, "objectness_bound", lambda feat, boxes, *_: np.full(len(boxes), np.inf))
        want = pipeline.detect_bundle(bundle, PipelineConfig())
        monkeypatch.setattr(pipeline, "objectness_bound", bound)
        got = pipeline.detect_bundle(bundle, PipelineConfig())
        assert got.num_survivors == want.num_survivors
        assert got.proposals.tobytes() == want.proposals.tobytes()
        assert got.detections.tobytes() == want.detections.tobytes()
        props = want.proposals["box"]
        kept += pipeline._may_pass(
            bound(bundle.box_feat, props, bundle.box_channels, weights.binary_kernel), weights.binary_bias
        ).sum()
        total += len(props)
    assert kept < total / 2


@pytest.mark.parametrize("bias", [-40.0, 0.0, 1e6])
def test_may_pass_rules_out_only_beyond_its_margin(bias):
    # a proposal is ruled out only when bias + bound lies more than
    # 1e-6 (1 + |bias|) below the threshold logit; half that is kept, twice
    # that is ruled out, and a NaN bound rules nothing out
    margin = 1e-6 * (1.0 + abs(bias))
    logits = pipeline._THRESHOLD_LOGIT - np.array([0.5 * margin, 2.0 * margin])
    bound = np.append(logits - bias, np.nan)
    assert pipeline._may_pass(bound, bias).tolist() == [True, False, True]


class TakeCounting(proposals._Scratch):
    """A RoIAlign scratch that counts the arrays taken from it."""

    def __init__(self):
        super().__init__()
        self.takes = 0

    def take(self, name, shape, dtype=np.float32):
        self.takes += 1
        return super().take(name, shape, dtype)


def test_detect_names_the_lowest_failing_scene(small_corpus, tmp_path, capsys):
    # scene 1 lacks a tensor file (an OSError) and scene 3 holds NaN (a
    # ValueError); whichever processes claim them, every worker count names
    # scene 1, as one worker does
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    (corpus / "scene_00001" / "br_off.cpnt").unlink()
    plant_non_finite(corpus / "scene_00003", "tl_heat", float("nan"))
    err = detect_exit_3(corpus, tmp_path / "out", capsys)
    assert err.startswith("error: ") and str(corpus / "scene_00001" / "br_off.cpnt") in err


@pytest.mark.filterwarnings("error")
def test_one_worker_run_leaves_no_scratch(small_corpus, tmp_path, monkeypatch):
    # the scenes of a 1-worker run reuse the RoIAlign scratch, and none of it
    # outlives the run, whether the run returns or a scene fails; nor does
    # the caller's when it detects beside a child
    monkeypatch.setattr(proposals, "_scratch", TakeCounting())
    run_corpus(small_corpus, PipelineConfig(), workers=1)
    assert proposals._scratch.takes > 0 and proposals._scratch.buffers == {}
    run_corpus(small_corpus, PipelineConfig(), workers=2)
    assert proposals._scratch.buffers == {}

    monkeypatch.setattr(proposals, "_scratch", TakeCounting())
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    scene = corpus / "scene_00000"
    plant_non_finite(scene, "cat_feat", float("nan"))  # fails after the box RoIAlign
    with pytest.raises(ValueError) as exc:
        run_corpus(corpus, PipelineConfig(), workers=1)
    assert str(exc.value) == f"{scene}: {NON_FINITE_TENSORS[5][1]}"
    assert proposals._scratch.takes > 0 and proposals._scratch.buffers == {}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["tl_heat", "br_heat"])
@pytest.mark.parametrize("value", [7.0, -0.5])
def test_detect_heatmap_outside_unit_range_exit_3(name, value, small_corpus, tmp_path, capsys):
    # a corner score outside [0, 1] would reorder the proposals and leave
    # AR silently wrong
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    scene = corpus / "scene_00000"
    plant_non_finite(scene, name, value)
    err = detect_exit_3(corpus, tmp_path / "out", capsys)
    assert err == f"error: {scene}: {name} holds values outside [0, 1]\n"


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
@pytest.mark.parametrize("name", ["tl_off", "br_off"])
def test_detect_offset_overflowing_position_exit_3(name, small_corpus, tmp_path, capsys):
    # 1e38 is finite and passes the tensor check, but every decoded x,
    # (col + 1e38) * 4, overflows float32; such a corner would pair with
    # nothing and its box would go missing without an error
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    scene = corpus / "scene_00000"
    path = scene / f"{name}.cpnt"
    tensor = load_tensor(path)
    tensor[0] = 1e38
    store_tensor(tensor, path)
    out = tmp_path / "out"
    err = detect_exit_3(corpus, out, capsys)
    assert err == f"error: {scene}: {name} puts a corner at a position that overflows float32\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, index", [("class_kernel", (1, 255, 3, 3)), ("binary_bias", (0,))])
def test_detect_non_finite_weights_exit_3(name, index, small_corpus, tmp_path, capsys):
    # cat_feat channel 255 is all zero, so no class score ever reads that entry
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    path = corpus / "weights" / name
    tensor = load_tensor(path)
    tensor[index] = np.nan
    store_tensor(tensor, path)
    out = tmp_path / "out"
    err = detect_exit_3(corpus, out, capsys)
    assert err == f"error: {corpus / 'weights'}: {path} holds NaN or infinity\n"


def class_count(count):
    """Resize the corpus's class head, and the manifest's class count, to
    `count` classes; the heatmaps keep theirs."""

    def mutate(corpus):
        for name in ("class_kernel", "class_bias"):
            path = corpus / "weights" / name
            tensor = load_tensor(path)
            store_tensor(np.resize(tensor, (count,) + tensor.shape[1:]), path)
        manifest_edit(lambda doc: {**doc, "num_classes": count})(corpus)

    return mutate


def tensor_shapes(**shapes):
    """Replace scene_00000's named tensors (the corpus's weights/<name> for
    head weights) by zeros of the given shapes."""

    def mutate(corpus):
        for name, shape in shapes.items():
            path = corpus / "weights" / name
            if not path.exists():
                path = corpus / "scene_00000" / f"{name}.cpnt"
            store_tensor(np.zeros(shape, dtype=np.float32), path)

    return mutate


def manifest_edit(edit):
    """Rewrite the manifest as `edit(doc)`, a document or raw JSON text."""

    def mutate(corpus):
        path = corpus / "manifest.json"
        doc = edit(json.loads(path.read_text()))
        path.unlink()  # a hard link into the shared corpus
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))

    return mutate


def first_scene(**entry):
    return manifest_edit(lambda doc: {**doc, "scenes": [entry] + doc["scenes"][1:]})


def second_scene_like_first(key):
    """Give scene 1 the `key` of scene 0."""

    def edit(doc):
        first, second, *rest = doc["scenes"]
        return {**doc, "scenes": [first, {**second, key: first[key]}, *rest]}

    return manifest_edit(edit)


SCENE, MANIFEST, WEIGHTS = "scene_00000", "manifest.json", "weights"
BAD_CORPORA = [
    pytest.param(
        class_count(1), SCENE, "the class head scores 1 classes but the heatmaps hold 2", id="fewer-classes"
    ),
    pytest.param(
        class_count(3), SCENE, "the class head scores 3 classes but the heatmaps hold 2", id="more-classes"
    ),
    pytest.param(
        tensor_shapes(box_feat=(32, 64, 64), cat_feat=(256, 64, 64)),
        SCENE,
        "box_feat has shape (32, 64, 64), off the 128 x 128 heatmap grid",
        id="features-off-grid",
    ),
    pytest.param(
        tensor_shapes(cat_feat=(256, 64, 64)),
        SCENE,
        "cat_feat must be (256, H, W) with extents matching box_feat (32, 128, 128), got shape (256, 64, 64)",
        id="cat-feat-extents",
    ),
    pytest.param(
        tensor_shapes(tl_heat=(128, 128)), SCENE, "tl_heat must be (C, H, W), got shape (128, 128)", id="rank-2-heat"
    ),
    pytest.param(
        tensor_shapes(br_heat=(3, 128, 128)),
        SCENE,
        "br_heat must be (2, 128, 128) like tl_heat, got shape (3, 128, 128)",
        id="br-heat-classes",
    ),
    pytest.param(
        tensor_shapes(box_feat=(16, 128, 128)),
        SCENE,
        "box_feat must be (32, H, W), got shape (16, 128, 128)",
        id="box-feat-channels",
    ),
    pytest.param(
        tensor_shapes(br_off=(2, 128, 64)),
        SCENE,
        "br_off must be (2, 128, 128) to match the heatmaps, got shape (2, 128, 64)",
        id="offset-extents",
    ),
    pytest.param(
        tensor_shapes(binary_bias=(2, 2)),
        WEIGHTS,
        "weights/binary_bias must be (1,), got shape (2, 2)",
        id="binary-bias-rank-2",
    ),
    pytest.param(
        tensor_shapes(class_kernel=(2, 256, 49)),
        WEIGHTS,
        "class_kernel must be (C, 256, 7, 7), got shape (2, 256, 49)",
        id="class-kernel-rank-3",
    ),
    pytest.param(manifest_edit(lambda doc: doc["scenes"]), MANIFEST, "manifest must be a JSON object", id="array"),
    pytest.param(
        manifest_edit(lambda doc: {k: v for k, v in doc.items() if k != "scenes"}),
        MANIFEST,
        "missing scenes",
        id="no-scenes",
    ),
    pytest.param(
        manifest_edit(lambda doc: {**doc, "scenes": {"0": doc["scenes"][0]}}),
        MANIFEST,
        'scenes must be an array, got {"0": ',
        id="scenes-object",
    ),
    pytest.param(
        manifest_edit(lambda doc: {**doc, "num_classes": True}),
        MANIFEST,
        "num_classes must be a positive integer, got true",
        id="bool-num-classes",
    ),
    pytest.param(
        manifest_edit(lambda doc: {**doc, "num_classes": 7}),
        MANIFEST,
        "num_classes is 7 but the class head in ",
        id="num-classes-off-the-weights",
    ),
    pytest.param(second_scene_like_first("id"), MANIFEST, "scene 1: id must be unique, got 0", id="repeated-id"),
    pytest.param(
        second_scene_like_first("dir"),
        MANIFEST,
        'scene 1: dir must be unique, got "scene_00000"',
        id="repeated-dir",
    ),
    pytest.param(first_scene(id=0), MANIFEST, "scene 0: missing dir", id="no-dir"),
    pytest.param(
        first_scene(id=0, dir="../scene_00000"),
        MANIFEST,
        'scene 0: dir must be a directory name, got "../scene_00000"',
        id="dir-outside",
    ),
    pytest.param(first_scene(dir=SCENE), MANIFEST, "scene 0: missing id", id="no-id"),
    pytest.param(first_scene(id=0.5, dir=SCENE), MANIFEST, "scene 0: id must be an integer, got 0.5", id="float-id"),
    pytest.param(first_scene(id=True, dir=SCENE), MANIFEST, "scene 0: id must be an integer, got true", id="bool-id"),
    pytest.param(
        first_scene(id=2**63, dir=SCENE),
        MANIFEST,
        "scene 0: id must be within the int64 range, got 9223372036854775808",
        id="id-above-int64",
    ),
    pytest.param(
        first_scene(id=-(2**63) - 1, dir=SCENE),
        MANIFEST,
        "scene 0: id must be within the int64 range, got -9223372036854775809",
        id="id-below-int64",
    ),
    pytest.param(
        manifest_edit(lambda doc: json.dumps(doc).replace('"id": 0,', '"id": 1' + "0" * 400 + ",", 1)),
        MANIFEST,
        "scene 0: id must be within the int64 range, got 1000",
        id="id-400-digits",
    ),
    pytest.param(
        manifest_edit(lambda doc: {**doc, "scenes": doc["scenes"][:1] + ["scene_00001"]}),
        MANIFEST,
        "scene 1: must be an object",
        id="scene-string",
    ),
    pytest.param(manifest_edit(lambda doc: '{"format": '), MANIFEST, "Expecting value", id="malformed-json"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mutate, where, message", BAD_CORPORA)
def test_detect_bad_corpus_exit_3(mutate, where, message, small_corpus, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    mutate(corpus)
    out = tmp_path / "out"
    err = detect_exit_3(corpus, out, capsys)
    assert err.startswith(f"error: {corpus / where}: ") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_detect_old_layout_exit_3(small_corpus, tmp_path, capsys):
    """A corpus with a weights bundle in every scene and none at the root."""
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    for scene in sorted(corpus.glob("scene_*")):
        shutil.copytree(corpus / "weights", scene / "weights", copy_function=os.link)
    shutil.rmtree(corpus / "weights")
    out = tmp_path / "out"
    err = detect_exit_3(corpus, out, capsys)
    missing = ["binary_kernel", "binary_bias", "class_kernel", "class_bias"]
    assert err == f"error: weights bundle {corpus / 'weights'} is missing {missing}\n"


def malformed_cpnt(blob: bytes) -> list[tuple[str, bytes]]:
    """Malformed variants of a valid CPNT file, each one header or size fault.

    A version-2 file (sparse, with at least one stored slice) also gets
    faults in its slice count, slice indices and slice payload."""
    version = blob[4]
    (rank,) = struct.unpack_from("<I", blob, 5)

    def with_rank(r):
        return blob[:5] + struct.pack("<I", r) + blob[9:]

    def with_extents(*extents):
        return blob[:9] + struct.pack(f"<{rank}I", *extents) + blob[9 + 4 * rank :]

    cases = [
        ("bad-magic", b"CPNX" + blob[4:]),
        ("version-0", blob[:4] + b"\x00" + blob[5:]),
        ("version-3", blob[:4] + b"\x03" + blob[5:]),
        # the other version's layout read over this file's bytes
        (f"version-{3 - version}", blob[:4] + bytes([3 - version]) + blob[5:]),
        ("rank-0", with_rank(0)),
        ("rank-max", with_rank(2**32 - 1)),
        ("rank-plus-1", with_rank(rank + 1)),  # reads the payload's first word as an extent
        ("rank-minus-1", with_rank(rank - 1)),
        ("zero-extent", with_extents(*[0] + [1] * (rank - 1))),
        ("overflowing-extents", with_extents(*[2**32 - 1] * rank)),
        ("truncated-payload", blob[:-1]),
        ("trailing-bytes", blob + b"\x00" * 4),
        ("empty", b""),
    ]
    if version != 2:
        return cases

    at = 9 + 4 * rank  # the slice count
    extents = struct.unpack_from(f"<{rank}I", blob, 9)
    (count,) = struct.unpack_from("<I", blob, at)
    indices = list(struct.unpack_from(f"<{count}I", blob, at + 4))
    payload = blob[at + 4 + 4 * count :]
    first = payload[: len(payload) // count]

    def sparse(indices, payload):
        return blob[:at] + struct.pack(f"<I{len(indices)}I", len(indices), *indices) + payload

    return cases + [
        ("count-above-extent", blob[:at] + struct.pack("<I", extents[0] + 1) + blob[at + 4 :]),
        ("truncated-count", blob[: at + 2]),
        ("truncated-index-list", blob[: at + 2 + 4 * count]),
        ("duplicate-index", sparse([indices[0]] + indices, first + payload)),
        ("descending-index", sparse([indices[0] + 1] + indices, first + payload)),
        ("index-at-extent", sparse(indices[:-1] + [extents[0]], payload)),
        ("payload-missing-slice", blob[: -len(first)]),
        ("payload-extra-slice", blob + first),
    ]


# names come from a template of each file's version; the test takes the
# faults of the file's own bytes
CPNT_FILES = {
    "scene_00000/tl_heat.cpnt": struct.pack("<4sBI2If", b"CPNT", 1, 2, 1, 1, 1.0),
    "scene_00000/cat_feat.cpnt": struct.pack("<4sBI2IIIf", b"CPNT", 2, 2, 2, 1, 1, 0, 1.0),
    "weights/class_kernel": struct.pack("<4sBI2If", b"CPNT", 1, 2, 1, 1, 1.0),
}
CPNT_FUZZ = [
    pytest.param(name, index, id=f"{name.rsplit('/', 1)[1]}-{case}")
    for name, template in CPNT_FILES.items()
    for index, (case, _) in enumerate(malformed_cpnt(template))
]


def test_cpnt_fuzz_files_have_their_template_versions(small_corpus):
    for name, template in CPNT_FILES.items():
        blob = (small_corpus / name).read_bytes()
        assert blob[4] == template[4]
        assert [case for case, _ in malformed_cpnt(blob)] == [case for case, _ in malformed_cpnt(template)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, index", CPNT_FUZZ)
def test_cpnt_header_fuzzed_exit_3(name, index, small_corpus, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus, copy_function=os.link)
    victim = corpus / name
    _, blob = malformed_cpnt(victim.read_bytes())[index]
    victim.unlink()  # a hard link into the shared corpus
    victim.write_bytes(blob)
    out = tmp_path / "out"
    err = detect_exit_3(corpus, out, capsys)
    assert err.startswith(f"error: {victim.parent}: {victim}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


BAD_IDS = [
    ("dets", 1, "category_id", 1.5, "record 1: category_id must be an integer, got 1.5"),
    ("dets", 1, "image_id", True, "record 1: image_id must be an integer, got true"),
    ("annotations", 0, "category_id", 0.5, "annotation 0: category_id must be an integer, got 0.5"),
    ("annotations", 0, "category_id", True, "annotation 0: category_id must be an integer, got true"),
    ("annotations", 0, "category_id", 99, "annotation 0: category_id 99 is not among the categories"),
    ("annotations", 0, "id", 0.0, "annotation 0: id must be an integer, got 0.0"),
    ("images", 1, "id", 1.0, "image 1: id must be an integer, got 1.0"),
    ("categories", 1, "id", True, "category 1: id must be an integer, got true"),
    ("dets", 1, "image_id", 2**63, f"record 1: image_id {2**63} does not fit in 64 bits"),
    ("annotations", 0, "id", -(2**63) - 1, f"annotation 0: id {-(2**63) - 1} does not fit in 64 bits"),
]


@pytest.mark.parametrize("section, index, key, value, message", BAD_IDS)
def test_eval_non_integer_id_exit_3(section, index, key, value, message, small_corpus, tmp_path, capsys):
    good = {"image_id": 0, "category_id": 0, "bbox": [0, 0, 4, 4], "score": 0.5}
    dets = [good, dict(good)]
    gt = json.loads((small_corpus / "ground_truth.json").read_text())
    (dets if section == "dets" else gt[section])[index][key] = value
    dump, gt_path = tmp_path / "dets.json", tmp_path / "gt.json"
    dump.write_text(json.dumps(dets))
    gt_path.write_text(json.dumps(gt))
    report = tmp_path / "r.json"
    assert main(["eval", "--dets", str(dump), "--gt", str(gt_path), "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {dump if section == 'dets' else gt_path}: {message}\n"
    assert not report.exists()


# a small valid eval input: two images, one ground truth and one detection each
GT_DOC = {
    "images": [{"id": 0, "width": 64, "height": 64}, {"id": 1, "width": 64, "height": 64}],
    "annotations": [
        {"id": 0, "image_id": 0, "category_id": 0, "bbox": [0, 0, 4, 4]},
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [2.5, 2, 6, 3]},
    ],
    "categories": [{"id": 0, "name": "class_0"}, {"id": 1, "name": "class_1"}],
}
DUMP = [
    {"image_id": 0, "category_id": 0, "bbox": [0, 0, 4, 4], "score": 0.5},
    {"image_id": 1, "category_id": 1, "bbox": [1.0, 1, 4, 4.5], "score": 0.25},
]
DROP = object()  # a mutation that removes the key


def mutated(doc, path, value):
    """A deep copy of `doc` with the value at `path` replaced (or dropped)."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    return doc


def run_eval(gt_doc, dump, workdir: Path, text=None):
    """cornerdet eval on the two documents, or with `text` as the file of
    `text[0]`; returns (exit code, stderr, paths)."""
    gt_path, dets_path, report = workdir / "gt.json", workdir / "dets.json", workdir / "report.json"
    gt_path.write_text(json.dumps(gt_doc))
    dets_path.write_text(json.dumps(dump))
    if text is not None:
        {"gt": gt_path, "dets": dets_path}[text[0]].write_text(text[1])
    argv = ["eval", "--dets", str(dets_path), "--gt", str(gt_path), "--report", str(report)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second stderr line
            code = main(argv)
    return code, err.getvalue(), {"gt": gt_path, "dets": dets_path, "report": report}


def test_eval_small_input_is_valid(tmp_path):
    code, err, paths = run_eval(GT_DOC, DUMP, tmp_path)
    assert (code, err) == (0, "")
    assert paths["report"].exists()


INF, NAN = float("inf"), float("nan")
BAD_INPUTS = [
    ("gt", (), 5, "ground truth must be a JSON object"),
    ("gt", (), None, "ground truth must be a JSON object"),
    ("gt", ("images",), 5, "'images' must be an array"),
    ("gt", ("annotations",), {}, "'annotations' must be an array"),
    ("gt", ("categories",), "x", "'categories' must be an array"),
    ("gt", ("images", 1), 7, "image 1 is not an object"),
    ("gt", ("annotations", 1, "bbox", 2), INF, "annotation 1 has bbox [2.5, 2, Infinity, 3], which is not finite"),
    ("gt", ("annotations", 1, "bbox", 1), NAN, "annotation 1 has bbox [2.5, NaN, 6, 3], which is not finite"),
    ("gt", ("annotations", 0, "bbox", 3), -1, "annotation 0 has bbox [0, 0, 4, -1], whose width or height is negative"),
    ("gt", ("annotations", 1, "bbox"), [0, 0, 1e200, 1e200], "annotation 1 has bbox [0, 0, 1e+200, 1e+200], whose area is not finite"),
    ("gt", ("annotations", 1, "bbox", 0), True, "annotation 1: bbox value must be a number, got true"),
    ("gt", ("annotations", 1, "image_id"), 7, "annotation 1: image_id 7 is not among the images"),
    ("dets", (1, "score"), True, "record 1: score must be a number, got true"),
    ("dets", (1, "score"), "0.5", 'record 1: score must be a number, got "0.5"'),
    ("dets", (1, "bbox", 0), False, "record 1: bbox value must be a number, got false"),
    ("dets", (1, "bbox", 3), "4", 'record 1: bbox value must be a number, got "4"'),
    ("dets", (1, "bbox", 2), INF, "record 1 has bbox [1.0, 1, Infinity, 4.5], which is not finite"),
    ("dets", (1, "bbox", 1), -INF, "record 1 has bbox [1.0, -Infinity, 4, 4.5], which is not finite"),
    ("dets", (1, "bbox", 0), NAN, "record 1 has bbox [NaN, 1, 4, 4.5], which is not finite"),
    ("dets", (1,), [], "record 1 is not an object"),
    ("dets", (1, "bbox", 0), None, "record 1: bbox value must be a number, got null"),
    ("dets", (1, "bbox", 2), [4], "record 1: bbox value must be a number, got [4]"),
    ("gt", ("annotations", 1, "bbox", 1), {}, "annotation 1: bbox value must be a number, got {}"),
]


@pytest.mark.parametrize("target, path, value, message", BAD_INPUTS)
def test_eval_bad_input_exit_3(target, path, value, message, tmp_path):
    gt_doc = mutated(GT_DOC, path, value) if target == "gt" else GT_DOC
    dump = mutated(DUMP, path, value) if target == "dets" else DUMP
    code, err, paths = run_eval(gt_doc, dump, tmp_path)
    assert code == 3
    assert err == f"error: {paths[target]}: {message}\n"
    assert not paths["report"].exists()


@pytest.mark.parametrize("target", ["gt", "dets"])
def test_eval_malformed_json_exit_3(target, tmp_path):
    code, err, paths = run_eval(GT_DOC, DUMP, tmp_path, text=(target, '{"images": ['))
    assert code == 3
    assert err.startswith(f"error: {paths[target]}: Expecting value")
    assert err.count("\n") == 1
    assert not paths["report"].exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", ["detect-config", "synth-config", "manifest", "gt", "dets", "proposals"])
def test_deeply_nested_json_exit_3(target, small_corpus, tmp_path, capsys):
    # json's parser recurses once per bracket, so this raises RecursionError
    out, report, corpus = tmp_path / "out", tmp_path / "report.json", small_corpus
    eval_docs = {"gt": GT_DOC, "dets": DUMP, "proposals": DUMP}
    inputs = {name: tmp_path / f"{name}.json" for name in [*eval_docs, "detect-config", "synth-config"]}
    for name, doc in eval_docs.items():
        inputs[name].write_text(json.dumps(doc))
    if target == "manifest":
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus, copy_function=os.link)
        inputs["manifest"] = corpus / "manifest.json"
        inputs["manifest"].unlink()  # a hard link into the shared corpus
    path = inputs[target]
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "detect-config": ["detect", "--corpus", str(corpus), "--out", str(out), "--config", str(path)],
        "synth-config": ["synth", "--out", str(out), "--count", "1", "--seed", "1", "--config", str(path)],
        "manifest": ["detect", "--corpus", str(corpus), "--out", str(out)],
    }.get(target, ["eval", "--report", str(report)] + [f"--{name}={inputs[name]}" for name in eval_docs])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: maximum recursion depth exceeded")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists() and not proposals_sibling(out).exists() and not report.exists()


def required_paths(doc, path=()):
    """Paths to every value eval requires: the document, its arrays, their
    entries, each entry's id fields and bbox, and each bbox value."""
    yield path
    if isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from required_paths(item, path + (i,))
    elif isinstance(doc, dict):
        for key, value in doc.items():
            if key not in ("width", "height", "name"):
                yield from required_paths(value, path + (key,))


MUTANTS = [NAN, INF, -INF, True, False, "0", None]


def replacements(doc, path):
    """Every invalid replacement of the value at `path`: a mutant, the value
    wrapped in an array, the key dropped, or an array unwrapped."""
    value = doc
    for key in path:
        value = value[key]
    out = MUTANTS + [[value]]
    if path and isinstance(path[-1], str):
        out.append(DROP)
    if isinstance(value, list) and value:
        out.append(value[0])
    return out


@st.composite
def eval_mutations(draw):
    """A target file, a required path in it and a replacement that is invalid there."""
    target = draw(st.sampled_from(["gt", "dets"]))
    doc = GT_DOC if target == "gt" else DUMP
    path = draw(st.sampled_from(list(required_paths(doc))))
    return target, path, draw(st.sampled_from(replacements(doc, path)))


@settings(max_examples=150, deadline=None)
@given(eval_mutations())
def test_eval_fuzzed_input_exit_3(mutation):
    target, path, value = mutation
    gt_doc = mutated(GT_DOC, path, value) if target == "gt" else GT_DOC
    dump = mutated(DUMP, path, value) if target == "dets" else DUMP
    with tempfile.TemporaryDirectory() as tmp:
        code, err, paths = run_eval(gt_doc, dump, Path(tmp))
        assert code == 3
        assert err.startswith(f"error: {paths[target]}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not paths["report"].exists()
        assert not paths["report"].with_suffix(".json.txt").exists()
