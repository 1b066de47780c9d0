"""Pipeline composition and the CLI facade (exit codes, determinism, parity)."""
from __future__ import annotations

import errno
import json
import os
import stat
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import with_box
from conftest import template_pose
from topdown import cli, metrics, pipeline, synth
from topdown.ensemble import fuse_average, fuse_expert, route_codes
from topdown.geometry import iou, nms_boxes, prune_candidates
from topdown.metrics import evaluate_ap, evaluate_mot
from topdown.model import JOINT_NAMES, Frame, Sequence, load_sequence, save_predictions
from topdown.pipeline import PipelineConfig, PipelineContractError, SweepRow
from topdown.synth import noiseless_spec
from topdown.tracker import TrackerConfig

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _noiseless(n_persons=3, n_frames=10, seed=1):
    return synth.generate(noiseless_spec(n_persons=n_persons, n_frames=n_frames, seed=seed))


# ---------------------------------------------------------------------------
# config


def test_config_round_trip():
    config = PipelineConfig(
        candidate_drop_threshold=0.4,
        keypoint_drop_threshold=0.7,
        ensemble_mode="expert",
        tracker=TrackerConfig(method="greedy", retention_window=4),
    )
    assert PipelineConfig.from_dict(config.to_dict()) == config


def test_config_round_trip_through_json_with_per_joint_kappa():
    from topdown.model import JOINTS

    config = PipelineConfig(tracker=TrackerConfig(kappa=tuple([0.08] * len(JOINTS))))
    reloaded = PipelineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert reloaded == config


def test_config_drops_unused_tracker_keypoint_threshold_of_older_documents():
    doc = PipelineConfig().to_dict()
    assert "keypoint_drop_threshold" not in doc["tracker"]
    doc["tracker"]["keypoint_drop_threshold"] = 0.6
    assert PipelineConfig.from_dict(doc) == PipelineConfig()


def test_config_rejects_unknown_schema_and_bad_values():
    with pytest.raises(ValueError):
        PipelineConfig.from_dict({"schema": 2})
    with pytest.raises(ValueError):
        PipelineConfig(candidate_drop_threshold=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(ensemble_mode="vote")


# ---------------------------------------------------------------------------
# library pipeline


def test_run_pipeline_noiseless_identity():
    out = _noiseless()
    result = pipeline.run_pipeline([out.det], [out.gt])
    assert result.ap.total == 100.0
    assert result.mot.mota_total == 100.0
    assert result.mot.total_counts.idsw == 0


def test_run_pipeline_multiple_sequences_aligned_by_name():
    outs = [
        synth.generate(noiseless_spec(n_persons=2, n_frames=5, seed=s, name=f"clip_{s}"))
        for s in (1, 2)
    ]
    dets = [o.det for o in outs]
    gts = [o.gt for o in reversed(outs)]  # alignment must happen by name, not order
    result = pipeline.run_pipeline(dets, gts)
    assert result.ap.total == 100.0
    assert result.mot.mota_total == 100.0


def test_detect_frame_matches_geometry_nms():
    rng = np.random.default_rng(3)
    config = PipelineConfig(candidate_drop_threshold=0.3, nms_iou_threshold=0.4)
    for _ in range(25):
        poses = [
            template_pose(
                (float(rng.uniform(0, 500)), float(rng.uniform(0, 500))),
                scale=float(rng.uniform(50, 120)),
                det_score=float(rng.uniform(0, 1)),
            )
            for _ in range(int(rng.integers(0, 8)))
        ]
        frame = Frame(index=0, width=2000, height=2000, poses=tuple(poses))
        got = pipeline._detect_sequence(Sequence("s", (frame,)), None, config, None).frames[0].poses
        expected = nms_boxes(
            prune_candidates(list(poses), config.candidate_drop_threshold),
            config.nms_iou_threshold,
        )
        assert list(got) == expected


@pytest.mark.parametrize("mode", ["average", "expert"])
def test_detect_frame_fuses_each_kept_pose_with_its_own_second_model_pose(mode):
    scores = (0.5, 0.9, 0.8, 0.95)
    centers = ((100.0, 100.0), (400.0, 100.0), (104.0, 100.0), (700.0, 100.0))
    a = [template_pose(c, det_score=s) for c, s in zip(centers, scores)]
    b = [
        template_pose((x + 3.0 * (i + 1), y - 2.0 * i), scale=95.0, det_score=0.6, with_bbox=False)
        for i, (x, y) in enumerate(centers)
    ]
    config = PipelineConfig(ensemble_mode=mode)
    assert iou(a[0].bbox, a[2].bbox) > config.nms_iou_threshold  # pose 2 suppresses pose 0
    frame = Frame(index=0, width=2000, height=2000, poses=tuple(a))
    b_frame = Frame(index=0, width=2000, height=2000, poses=tuple(b))
    routes = route_codes(mode, config.expert_map)
    got = pipeline._detect_sequence(
        Sequence("s", (frame,)), Sequence("s", (b_frame,)), config, routes
    ).frames[0].poses
    kept = (3, 1, 2)  # visit order, not input order
    boxed_b = [with_box(p, config.bbox_enlarge) for p in b]
    if mode == "average":
        expected = [fuse_average(a[i], boxed_b[i]) for i in kept]
    else:
        expected = [fuse_expert(a[i], boxed_b[i], config.expert_map) for i in kept]
    assert list(got) == expected


def test_run_pipeline_rejects_duplicate_sequence_names():
    # two different sequences that share the generator's default name
    a, b = (synth.generate(noiseless_spec(n_persons=2, n_frames=5, seed=s)) for s in (1, 2))
    assert a.det.name == b.det.name
    with pytest.raises(PipelineContractError, match="duplicate"):
        pipeline.run_pipeline([a.det, b.det], [b.gt, a.gt])
    dets = [a.det, replace(b.det, name="other")]
    gts = [a.gt, replace(b.gt, name="other")]
    with pytest.raises(PipelineContractError, match="second model predictions: duplicate"):
        pipeline.run_pipeline(dets, gts, PipelineConfig(ensemble_mode="average"), [a.det, a.det])


def test_pipeline_self_ensemble_is_identity():
    out = _noiseless()
    config = PipelineConfig(ensemble_mode="average")
    fused = pipeline.run_pipeline([out.det], [out.gt], config, det_b_seqs=[out.det])
    plain = pipeline.run_pipeline([out.det], [out.gt], config)
    assert fused.ap.to_dict() == plain.ap.to_dict()
    assert fused.mot.to_dict() == plain.mot.to_dict()


def test_pipeline_second_model_without_mode_raises():
    out = _noiseless(n_frames=3)
    with pytest.raises(PipelineContractError):
        pipeline.run_pipeline([out.det], [out.gt], PipelineConfig(), det_b_seqs=[out.det])


def test_pipeline_ensemble_pose_count_mismatch_raises():
    out = _noiseless(n_frames=3)
    broken_frames = list(out.det.frames)
    broken_frames[1] = replace(broken_frames[1], poses=broken_frames[1].poses[:-1])
    broken = replace(out.det, frames=tuple(broken_frames))
    with pytest.raises(PipelineContractError):
        pipeline.run_pipeline(
            [out.det], [out.gt], PipelineConfig(ensemble_mode="average"), det_b_seqs=[broken]
        )


def test_detection_pr_rejects_misaligned_frame_indices():
    det = synth.generate(synth.calibrated_benchmark_spec(n_frames=20)).det
    gt = replace(det, frames=det.frames[:5])
    with pytest.raises(PipelineContractError):
        pipeline.detection_pr_at([det], [gt], 0.5)
    with pytest.raises(PipelineContractError):
        pipeline.sweep([det], [gt], PipelineConfig(), "bbox_threshold", [0.4, 0.6])


def test_sweep_input_validation():
    out = _noiseless(n_frames=3)
    with pytest.raises(ValueError):
        pipeline.sweep([out.det], [out.gt], PipelineConfig(), "keypoint_threshold", [0.5])
    with pytest.raises(ValueError):
        pipeline.sweep([out.det], [out.gt], PipelineConfig(), "sideways", [0.1, 0.2])


def test_sweep_csv_layouts():
    rows = [SweepRow(value=0.5, ap_total=80.0, mota_total=60.0)]
    text = pipeline.sweep_csv("keypoint_threshold", rows)
    assert text.splitlines()[0] == "threshold,AP,MOTA"
    rows = [SweepRow(value=0.5, precision=30.0, recall=90.0)]
    text = pipeline.sweep_csv("bbox_threshold", rows)
    assert text.splitlines()[0] == "threshold,precision,recall"


def _two_sequences(spec, seed):
    """Two generated outputs, the second renamed, so sweeps walk two sequences."""
    a = synth.generate(spec(n_persons=3, n_frames=5, seed=seed))
    b = synth.generate(spec(n_persons=2, n_frames=4, seed=seed + 1))
    return [a.det, replace(b.det, name="second")], [replace(b.gt, name="second"), a.gt]


# boundary values next to arbitrary ones, so values repeat and hit confidences
_THRESHOLDS = st.sampled_from([0.0, 0.5, 0.7, 0.85, 1.0]) | st.floats(0, 1)


@settings(max_examples=20)
@given(
    spec=st.sampled_from([synth.calibrated_benchmark_spec, noiseless_spec]),
    seed=st.integers(0, 10_000),
    values=st.lists(_THRESHOLDS, min_size=2, max_size=6),
    method=st.sampled_from(["hungarian", "greedy"]),
)
def test_keypoint_sweep_rows_equal_a_full_run_per_value(spec, seed, values, method):
    dets, gts = _two_sequences(spec, seed)
    config = PipelineConfig(tracker=TrackerConfig(method=method))
    rows = pipeline.sweep(dets, gts, config, "keypoint_threshold", values)
    expected = []
    for value in values:
        result = pipeline.run_pipeline(dets, gts, replace(config, keypoint_drop_threshold=value))
        expected.append(
            SweepRow(value=value, ap_total=result.ap.total, mota_total=result.mot.mota_total)
        )
    assert rows == expected


def test_bbox_sweep_rows_equal_detection_pr_per_value():
    dets, gts = _two_sequences(synth.calibrated_benchmark_spec, 3)
    config = PipelineConfig()
    values = [0.5, 0.2, 0.5, 0.9]
    rows = pipeline.sweep(dets, gts, config, "bbox_threshold", values)
    expected = []
    for value in values:
        pr = pipeline.detection_pr_at(dets, gts, value, config)
        expected.append(
            SweepRow(value=value, precision=100.0 * pr.precision, recall=100.0 * pr.recall)
        )
    assert rows == expected
    assert expected[1] != expected[3]  # the rows tell the values apart


def _count_calls(monkeypatch, module, name: str, counts: Counter) -> None:
    original = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_keypoint_sweep_tracks_once_and_matches_each_frame_once_per_point(monkeypatch):
    dets, gts = _two_sequences(synth.calibrated_benchmark_spec, 3)
    counts: Counter = Counter()
    _count_calls(monkeypatch, pipeline, "run_pipeline", counts)
    _count_calls(monkeypatch, pipeline, "track_sequence", counts)
    _count_calls(monkeypatch, pipeline, "prune_sequence_keypoints", counts)
    _count_calls(monkeypatch, metrics, "pair_table", counts)
    _count_calls(monkeypatch, metrics, "match_poses_frame", counts)
    # one run with nothing pruned (each sequence passes through pruning at 0 unchanged)
    # and one pair table; the four values are matches of that table, scored together
    pipeline.sweep(dets, gts, PipelineConfig(), "keypoint_threshold", [0.7, 0.5, 0.9, 0.5])
    assert counts == {
        "run_pipeline": 1, "track_sequence": 2, "prune_sequence_keypoints": 2, "pair_table": 1
    }


def test_pipeline_reports_equal_separate_scoring_from_one_matching_pass(monkeypatch):
    dets, gts = _two_sequences(synth.calibrated_benchmark_spec, 5)
    counts: Counter = Counter()
    _count_calls(monkeypatch, metrics, "pair_table", counts)
    result = pipeline.run_pipeline(dets, gts, PipelineConfig(keypoint_drop_threshold=0.6))
    assert counts["pair_table"] == 1
    tracked = list(result.tracked)
    assert result.ap.to_dict() == evaluate_ap(tracked, gts).to_dict()
    assert result.mot.to_dict() == evaluate_mot(tracked, gts).to_dict()


@pytest.mark.parametrize("axis", pipeline.SWEEP_AXES)
@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan"), float("inf")])
def test_sweep_rejects_values_outside_unit_interval_before_any_work(monkeypatch, axis, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("sweep started work before checking its values")

    monkeypatch.setattr(pipeline, "run_pipeline", no_work)
    monkeypatch.setattr(pipeline, "detection_pr_at", no_work)
    out = _noiseless(n_frames=3)
    with pytest.raises(ValueError, match=r"within \[0, 1\]"):
        pipeline.sweep([out.det], [out.gt], PipelineConfig(), axis, [0.5, 0.6, bad])


# ---------------------------------------------------------------------------
# CLI


def _write_noiseless(tmp_path: Path, **spec_overrides) -> tuple[Path, Path]:
    out = synth.generate(noiseless_spec(n_persons=2, n_frames=6, seed=2, **spec_overrides))
    det = tmp_path / "det.json"
    gt = tmp_path / "gt.json"
    det.write_text(save_predictions(out.det))
    gt.write_text(save_predictions(out.gt))
    return det, gt


def test_cli_run_writes_reports_and_is_deterministic(tmp_path):
    det, gt = _write_noiseless(tmp_path)
    for out_dir in ("out1", "out2"):
        code = cli.main(
            ["run", "--det", str(det), "--gt", str(gt), "--out", str(tmp_path / out_dir)]
        )
        assert code == 0
    names = ["ap_report.json", "ap_report.csv", "mot_report.json", "mot_report.csv"]
    for name in names:
        a = (tmp_path / "out1" / name).read_bytes()
        b = (tmp_path / "out2" / name).read_bytes()
        assert a == b
    report = json.loads((tmp_path / "out1" / "ap_report.json").read_text())
    assert report["total"] == 100.0
    tracked = load_sequence((tmp_path / "out1" / "tracked_synthetic.json").read_text())
    assert all(p.track_id is not None for _, p in tracked.iter_poses())
    # atomic writes leave no temp files behind
    assert not list((tmp_path / "out1").glob("*.tmp"))


def test_write_atomic_failure_keeps_target_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "report.json"
    cli._write_atomic(target, "old")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    with pytest.raises(UnicodeEncodeError):
        cli._write_atomic(target, "\ud800")  # a lone surrogate cannot be encoded
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_outputs_get_the_umask_without_the_umask_being_changed(tmp_path, monkeypatch):
    det, gt = _write_noiseless(tmp_path)
    out_dir = tmp_path / "out"
    previous = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            def refuse(mask):
                raise AssertionError(f"os.umask({mask:#o}) called")

            patch.setattr(os, "umask", refuse)
            code = cli.main(["run", "--det", str(det), "--gt", str(gt), "--out", str(out_dir)])
    finally:
        os.umask(previous)
    assert code == 0
    outputs = sorted(out_dir.iterdir())
    assert len(outputs) == 5
    assert {stat.S_IMODE(p.stat().st_mode) for p in outputs} == {0o640}


def test_cli_missing_input_exits_2_with_path(tmp_path, capsys):
    code = cli.main(
        ["run", "--det", str(tmp_path / "absent.json"), "--gt", str(tmp_path / "gt.json"),
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "absent.json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command", ["run --det", "run --gt directory", "run --config", "eval", "synth", "decode"]
)
def test_cli_input_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, command):
    det, gt = _write_noiseless(tmp_path)
    bad = tmp_path / "latin1" / "doc.json"
    bad.parent.mkdir()
    bad.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    out = tmp_path / "out"
    argv = {
        "run --det": ["run", "--det", str(bad), "--gt", str(gt), "--out", str(out)],
        "run --gt directory": ["run", "--det", str(det), "--gt", str(bad.parent), "--out", str(out)],
        "run --config": [
            "run", "--config", str(bad), "--det", str(det), "--gt", str(gt), "--out", str(out)
        ],
        "eval": ["eval", "--preds", str(bad), "--gt", str(gt), "--mode", "ap", "--out", str(out)],
        "synth": ["synth", "--spec", str(bad), "--out", str(out)],
        "decode": ["decode", "--maps", str(bad), "--out", str(out / "keypoints.json")],
    }[command]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"input error: {bad}: 'utf-8' codec can't decode byte 0xe9")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "frames": [{"index": -1}]}')
    gt = tmp_path / "gt.json"
    gt.write_text(bad.read_text())
    code = cli.main(["run", "--det", str(bad), "--gt", str(gt), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_sweep_single_value_is_usage_error(tmp_path):
    det, gt = _write_noiseless(tmp_path)
    code = cli.main(
        ["sweep", "--det", str(det), "--gt", str(gt), "--out", str(tmp_path / "s"),
         "--axis", "keypoint_threshold", "--values", "0.5"]
    )
    assert code == 1


def test_cli_contract_violation_exits_3(tmp_path):
    det, gt = _write_noiseless(tmp_path)
    doc = json.loads(det.read_text())
    doc["frames"][0]["poses"].pop()
    det_b = tmp_path / "det_b.json"
    det_b.write_text(json.dumps(doc))
    code = cli.main(
        ["run", "--det", str(det), "--det-b", str(det_b), "--ensemble-mode", "average",
         "--gt", str(gt), "--out", str(tmp_path / "o3")]
    )
    assert code == 3


def _poses_of(doc):
    return [pose for frame in doc["frames"] for pose in frame["poses"]]


def _huge_nose_x(doc):
    for pose in _poses_of(doc):
        pose["keypoints"][0]["x"] = 1.7e308


def _huge_box_corner(doc):
    for pose in _poses_of(doc):
        pose["bbox"][2] = 1.7e308


def _huge_boxes_and_steps(doc):
    # a box area and a keypoint step beyond the float range: their ratio is NaN
    for k, frame in enumerate(doc["frames"]):
        for pose in frame["poses"]:
            pose["bbox"] = [-1e200, -1e200, 1e200, 1e200]
            for keypoint in pose["keypoints"]:
                keypoint["x"] = (-1) ** k * 1e300


def _peaks_off_the_float_range(tmp_path: Path) -> Path:
    grid = [[0.0, 1.0], [0.0, 0.0]]  # the peak's cell centre is 1.5 strides from the origin
    doc = {"stride": 1.7e308, "origin": [0.0, 0.0], "maps": {j: grid for j in JOINT_NAMES}}
    path = tmp_path / "maps.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "command, edit, message",
    [
        # fusion cannot fail, so the run stops at NMS: two boxes overlap beyond the float range
        ("run-fused", _huge_box_corner, "is beyond the float range"),
        ("run", _huge_boxes_and_steps, "is beyond the float range"),
        ("synth", None, "must be finite, got"),
        ("decode", None, "nose.x must be finite, got inf"),
    ],
    ids=["run-box-mean", "run-tracking-cost", "synth-jitter", "decode-stride"],
)
def test_cli_value_computed_beyond_the_float_range_exits_3(
    tmp_path, capsys, command, edit, message
):
    out = tmp_path / "o"
    if command == "synth":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(noiseless_spec(jitter=1.7e308).to_dict()))
        argv = ["synth", "--spec", str(spec), "--out", str(out)]
    elif command == "decode":
        argv = ["decode", "--maps", str(_peaks_off_the_float_range(tmp_path)), "--out", str(out)]
    else:
        det, gt = _write_noiseless(tmp_path)
        doc = json.loads(det.read_text())
        edit(doc)
        det.write_text(json.dumps(doc))
        argv = {
            "run-fused": ["run", "--det", str(det), "--det-b", str(det), "--ensemble-mode",
                          "average", "--gt", str(gt)],
            "run": ["run", "--det", str(det), "--gt", str(gt)],
        }[command] + ["--out", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("contract violation: ") and message in err
    assert not out.exists()


def test_cli_fusion_near_the_float_range_is_the_exact_midpoint(tmp_path, capsys):
    det, gt = _write_noiseless(tmp_path)
    doc = json.loads(det.read_text())
    _huge_nose_x(doc)  # 0.5 * (x + x) is beyond the float range
    det.write_text(json.dumps(doc))
    out = tmp_path / "fused"
    argv = ["ensemble", "--a", str(det), "--b", str(det), "--mode", "average", "--out", str(out)]
    assert cli.main(argv) == 0
    [fused] = out.iterdir()
    assert load_sequence(fused.read_text()) == load_sequence(det.read_text())
    argv = ["run", "--det", str(det), "--det-b", str(det), "--ensemble-mode", "average",
            "--gt", str(gt), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_cli_plain_value_error_inside_the_library_is_not_a_contract_violation(
    tmp_path, monkeypatch
):
    det, gt = _write_noiseless(tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("a fault of the library itself")

    monkeypatch.setattr(pipeline, "run_pipeline", broken)
    with pytest.raises(ValueError, match="a fault of the library itself"):
        cli.main(["run", "--det", str(det), "--gt", str(gt), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def _strip_track_ids(doc):
    for frame in doc["frames"]:
        for pose in frame["poses"]:
            pose["track_id"] = None


def _absent_keypoints(doc):
    for frame in doc["frames"]:
        for pose in frame["poses"]:
            assert pose["bbox"] is not None  # so a radius comes from the box
            for keypoint in pose["keypoints"]:
                keypoint["present"] = False


@pytest.mark.parametrize(
    "edit, message",
    [(_strip_track_ids, "lacks a track id"), (_absent_keypoints, "no ground-truth keypoints")],
)
def test_cli_run_scoring_error_exits_3_and_writes_nothing(tmp_path, capsys, edit, message):
    det, gt = _write_noiseless(tmp_path)
    doc = json.loads(gt.read_text())
    edit(doc)
    gt.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--det", str(det), "--gt", str(gt), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("contract violation:") == 1 and message in err
    assert not out_dir.exists()


def test_cli_eval_equals_library(tmp_path):
    det, gt = _write_noiseless(tmp_path)
    out_dir = tmp_path / "eval_out"
    code = cli.main(
        ["eval", "--preds", str(gt), "--gt", str(gt), "--mode", "ap", "--out", str(out_dir)]
    )
    assert code == 0
    via_cli = json.loads((out_dir / "ap_report.json").read_text())
    gt_seq = load_sequence(gt.read_text())
    via_lib = evaluate_ap([gt_seq], [gt_seq]).to_dict()
    assert via_cli == via_lib
    assert via_cli["total"] == 100.0


def test_cli_eval_mot_gt_vs_gt(tmp_path):
    _, gt = _write_noiseless(tmp_path)
    out_dir = tmp_path / "eval_mot"
    code = cli.main(
        ["eval", "--preds", str(gt), "--gt", str(gt), "--mode", "mot", "--out", str(out_dir)]
    )
    assert code == 0
    report = json.loads((out_dir / "mot_report.json").read_text())
    assert report["mota_total"] == 100.0


def test_cli_synth_deterministic(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(synth.calibrated_benchmark_spec(n_frames=5).to_dict()))
    for name in ("a", "b"):
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / name)])
        assert code == 0
    for filename in ("gt.json", "det.json", "provenance.json"):
        assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()


def test_cli_synth_seed_override_changes_output(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(synth.calibrated_benchmark_spec(n_frames=5).to_dict()))
    cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
    cli.main(["synth", "--spec", str(spec_path), "--seed", "99", "--out", str(tmp_path / "c")])
    assert (tmp_path / "a" / "det.json").read_bytes() != (tmp_path / "c" / "det.json").read_bytes()


def test_cli_decode_smoke(tmp_path):
    from topdown.model import JOINTS

    grid = [[0.0] * 6 for _ in range(5)]
    grid[2][3] = 1.0
    doc = {"stride": 4.0, "origin": [0.0, 0.0], "maps": {j.value: grid for j in JOINTS}}
    maps_path = tmp_path / "maps.json"
    maps_path.write_text(json.dumps(doc))
    out_path = tmp_path / "decoded.json"
    code = cli.main(["decode", "--maps", str(maps_path), "--out", str(out_path)])
    assert code == 0
    decoded = json.loads(out_path.read_text())
    assert decoded["keypoints"][0] == {
        "joint": "nose", "x": 14.0, "y": 10.0, "confidence": 1.0
    }
    code = cli.main(["decode", "--maps", str(maps_path), "--radius", "2.0", "--out", str(out_path)])
    assert code == 0
    with_radius = json.loads(out_path.read_text())
    assert len(with_radius["keypoints"]) == len(JOINTS)
    # identical maps: the top joint keeps the shared peak, others are pushed off it
    assert with_radius["keypoints"][0] == decoded["keypoints"][0]
    others = {(kp["x"], kp["y"]) for kp in with_radius["keypoints"][1:]}
    assert (14.0, 10.0) not in others or with_radius["fallbacks"]


@pytest.mark.parametrize(
    "case",
    [
        "config-directory", "spec-directory", "maps-directory", "sequence-member-directory",
        "run-out-file", "sweep-out-file", "synth-out-file", "eval-out-file",
        "bbox-infer-out-file", "ensemble-out-file", "out-below-a-file", "decode-out-directory",
        "out-name-too-long", "det-name-too-long", "gt-directory-name-too-long",
        "config-name-too-long", "spec-name-too-long", "maps-name-too-long",
        "sequence-member-invalid",
    ],
)
def test_cli_file_system_error_exits_without_traceback(tmp_path, capsys, case):
    det, gt = _write_noiseless(tmp_path)
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps({"maps": {j: [[0.5]] for j in JOINT_NAMES}}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(noiseless_spec(n_frames=2).to_dict()))
    a_dir = tmp_path / "a_dir.json"  # a directory with a sequence-file name
    a_dir.mkdir()
    members = tmp_path / "members"
    members.mkdir()
    (members / "0.json").write_text(det.read_text())
    (members / "1.json").mkdir()
    bad_members = tmp_path / "bad_members"
    bad_members.mkdir()
    (bad_members / "0.json").write_text(det.read_text())
    doc = json.loads(det.read_text())
    doc["frames"][0]["poses"][0]["det_score"] = "high"
    (bad_members / "1.json").write_text(json.dumps(doc))
    a_file = tmp_path / "a_file"
    a_file.write_text("kept")
    out = tmp_path / "out"
    run = ["run", "--det", str(det), "--gt", str(gt), "--out"]
    long = str(tmp_path / ("n" * 300))
    too_long = f"input error: {long}: {os.strerror(errno.ENAMETOOLONG)}"
    argv, code, message = {
        "config-directory": (["run", "--config", str(a_dir), *run[1:], str(out)], 2,
                             f"input error: {a_dir}: "),
        "spec-directory": (["synth", "--spec", str(a_dir), "--out", str(out)], 2,
                           f"input error: {a_dir}: "),
        "maps-directory": (["decode", "--maps", str(a_dir), "--out", str(out)], 2,
                           f"input error: {a_dir}: "),
        "sequence-member-directory": (["run", "--det", str(members), "--gt", str(gt), "--out",
                                       str(out)], 2, f"input error: {members / '1.json'}: "),
        "run-out-file": ([*run, str(a_file)], 1, "usage error: --out: "),
        "sweep-out-file": (["sweep", "--det", str(det), "--gt", str(gt), "--axis",
                            "keypoint_threshold", "--values", "0.1,0.5", "--out", str(a_file)],
                           1, "usage error: --out: "),
        "synth-out-file": (["synth", "--spec", str(spec), "--out", str(a_file)], 1,
                           "usage error: --out: "),
        "eval-out-file": (["eval", "--preds", str(gt), "--gt", str(gt), "--mode", "ap", "--out",
                           str(a_file)], 1, "usage error: --out: "),
        "bbox-infer-out-file": (["bbox-infer", "--input", str(det), "--out", str(a_file)], 1,
                                "usage error: --out: "),
        "ensemble-out-file": (["ensemble", "--a", str(det), "--b", str(det), "--mode", "average",
                               "--out", str(a_file)], 1, "usage error: --out: "),
        "out-below-a-file": ([*run, str(a_file / "sub")], 1, "usage error: --out: "),
        "decode-out-directory": (["decode", "--maps", str(maps), "--out", str(a_dir)], 1,
                                 "usage error: --out: "),
        "out-name-too-long": ([*run, str(tmp_path / ("o" * 300))], 1,
                              f"usage error: --out: {tmp_path / ('o' * 300)}: "),
        "det-name-too-long": (["run", "--det", long, "--gt", str(gt), "--out", str(out)], 2,
                              too_long),
        "gt-directory-name-too-long": (["run", "--det", str(det), "--gt", long + os.sep, "--out",
                                        str(out)], 2, too_long.replace(long, long + os.sep)),
        "config-name-too-long": (["run", "--config", long, *run[1:], str(out)], 2, too_long),
        "spec-name-too-long": (["synth", "--spec", long, "--out", str(out)], 2, too_long),
        "maps-name-too-long": (["decode", "--maps", long, "--out", str(out)], 2, too_long),
        "sequence-member-invalid": (["run", "--det", str(bad_members), "--gt", str(gt), "--out",
                                     str(out)], 2,
                                    f"input error: {bad_members / '1.json'}: $.frames[0].poses[0]"
                                    ".det_score: "),
    }[case]
    before = sorted(str(p) for p in tmp_path.rglob("*"))
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert sorted(str(p) for p in tmp_path.rglob("*")) == before
    assert a_file.read_text() == "kept"


@pytest.mark.parametrize("command", ["config", "spec", "maps"])
def test_cli_deeply_nested_input_is_invalid_json(tmp_path, capsys, command):
    det, gt = _write_noiseless(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "config": ["run", "--config", str(deep), "--det", str(det), "--gt", str(gt)],
        "spec": ["synth", "--spec", str(deep)],
        "maps": ["decode", "--maps", str(deep)],
    }[command]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"input error: {deep}: not valid JSON (")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, blocker",
    [
        ("run", "ap_report.json"),
        ("sweep", "sweep.json"),
        ("synth", "provenance.json"),
        ("eval", "mot_report.csv"),
        ("bbox-infer", "synthetic.json"),
        ("ensemble", "fused_synthetic.json"),
    ],
)
def test_cli_output_name_that_is_a_directory_writes_nothing(tmp_path, capsys, command, blocker):
    det, gt = _write_noiseless(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(noiseless_spec(n_frames=2).to_dict()))
    argv = {
        "run": ["run", "--det", str(det), "--gt", str(gt)],
        "sweep": ["sweep", "--det", str(det), "--gt", str(gt), "--axis", "keypoint_threshold",
                  "--values", "0.1,0.5"],
        "synth": ["synth", "--spec", str(spec)],
        "eval": ["eval", "--preds", str(gt), "--gt", str(gt), "--mode", "mot"],
        "bbox-infer": ["bbox-infer", "--input", str(det)],
        "ensemble": ["ensemble", "--a", str(det), "--b", str(det), "--mode", "average"],
    }[command]
    out = tmp_path / "out"
    (out / blocker).mkdir(parents=True)
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"usage error: --out: {out / blocker} is a directory"]
    assert [p.name for p in out.iterdir()] == [blocker]
    assert not any((out / blocker).iterdir())


def test_cli_write_error_is_one_line_naming_the_path(tmp_path, capsys, monkeypatch):
    det, gt = _write_noiseless(tmp_path)
    out = tmp_path / "out"

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", disk_full)
    assert cli.main(["run", "--det", str(det), "--gt", str(gt), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"usage error: --out: {out / 'tracked_synthetic.json'}: {os.strerror(errno.ENOSPC)}"
    ]
    assert list(out.iterdir()) == []  # the temp file is removed


def test_cli_closed_stdout_pipe_ends_quietly(tmp_path):
    spec = synth.calibrated_benchmark_spec(n_persons=4, n_frames=100, seed=1)
    det = tmp_path / "det.json"
    det.write_text(save_predictions(synth.generate(spec).det))  # far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "topdown", "bbox-infer", "--input", str(det)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_cli_bbox_infer_fills_boxes(tmp_path):
    det, _ = _write_noiseless(tmp_path)
    doc = json.loads(det.read_text())
    for frame in doc["frames"]:
        for pose in frame["poses"]:
            pose["bbox"] = None
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc))
    out_dir = tmp_path / "boxed"
    code = cli.main(["bbox-infer", "--input", str(stripped), "--out", str(out_dir)])
    assert code == 0
    seq = load_sequence((out_dir / "synthetic.json").read_text())
    assert all(p.bbox is not None for _, p in seq.iter_poses())


@pytest.mark.parametrize(
    "case, reason",
    [
        ("one-present", "need at least 2 present keypoints"),
        ("zero-area", "present keypoints span a zero-area box"),
        ("enlarge-overflow", "the inferred box overflows the float range"),
    ],
)
def test_cli_bbox_infer_names_the_pose_it_cannot_box(tmp_path, capsys, case, reason):
    det, _ = _write_noiseless(tmp_path)
    doc = json.loads(det.read_text())
    for frame in doc["frames"]:
        for pose in frame["poses"]:
            pose["bbox"] = None
    # every pose overflows under --enlarge 1e308, so the first one is named
    frame, j, enlarge = doc["frames"][0], 0, "1e308"
    if case != "enlarge-overflow":
        frame, j, enlarge = doc["frames"][3], 1, "0.2"
        keypoints = frame["poses"][j]["keypoints"]
        for k, kp in enumerate(keypoints):
            kp["present"] = case == "zero-area" or k == 0
            if case == "zero-area":
                kp["x"] = 7.0
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc))
    out_dir = tmp_path / "boxed"
    code = cli.main(
        ["bbox-infer", "--input", str(stripped), "--enlarge", enlarge, "--out", str(out_dir)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"sequence 'synthetic', frame {frame['index']}, pose {j}: {reason}" in err
    assert not out_dir.exists()


def test_cli_ensemble_average_equals_library(tmp_path):
    from topdown.ensemble import fuse_average

    det, _ = _write_noiseless(tmp_path)
    out_dir = tmp_path / "fused"
    code = cli.main(
        ["ensemble", "--a", str(det), "--b", str(det), "--mode", "average", "--out", str(out_dir)]
    )
    assert code == 0
    fused = load_sequence((out_dir / "fused_synthetic.json").read_text())
    source = load_sequence(det.read_text())
    for frame, expected_frame in zip(fused.frames, source.frames):
        for pose, src in zip(frame.poses, expected_frame.poses):
            assert pose == fuse_average(src, src)


def test_cli_config_file_with_flag_override(tmp_path):
    det, gt = _write_noiseless(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"schema": 1, "keypoint_drop_threshold": 0.99}))
    out_a = tmp_path / "cfg_a"
    assert (
        cli.main(
            ["run", "--config", str(config_path), "--det", str(det), "--gt", str(gt),
             "--out", str(out_a)]
        )
        == 0
    )
    # threshold 0.99 prunes only sub-0.99 keypoints; noiseless confidences are 1.0
    report = json.loads((out_a / "ap_report.json").read_text())
    assert report["total"] == 100.0
    out_b = tmp_path / "cfg_b"
    assert (
        cli.main(
            ["run", "--config", str(config_path), "--det", str(det), "--gt", str(gt),
             "--keypoint-threshold", "0.5", "--out", str(out_b)]
        )
        == 0
    )
    assert json.loads((out_b / "ap_report.json").read_text())["total"] == 100.0


def test_cli_bad_config_field_exits_2(tmp_path):
    det, gt = _write_noiseless(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"schema": 1, "no_such_threshold": 0.5}))
    code = cli.main(
        ["run", "--config", str(config_path), "--det", str(det), "--gt", str(gt),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_cli_synth_accepts_embedded_section(tmp_path):
    doc = {"schema": 1, "synth": synth.calibrated_benchmark_spec(n_frames=4).to_dict()}
    spec_path = tmp_path / "pipeline_config.json"
    spec_path.write_text(json.dumps(doc))
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "g")]) == 0
    assert (tmp_path / "g" / "det.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_sweep_jobs_below_one_is_usage_error(tmp_path, jobs):
    det, gt = _write_noiseless(tmp_path)
    code = cli.main(
        ["sweep", "--det", str(det), "--gt", str(gt), "--out", str(tmp_path / "s"),
         "--axis", "bbox_threshold", "--values", "0.2,0.5", "--jobs", jobs]
    )
    assert code == 1
    assert not (tmp_path / "s").exists()


def test_cli_sweep_jobs_is_accepted_only_as_one(tmp_path):
    det, gt = _write_noiseless(tmp_path)
    argv = ["sweep", "--det", str(det), "--gt", str(gt),
            "--axis", "keypoint_threshold", "--values", "0.9,0.5,0.7"]
    assert cli.main([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert cli.main([*argv, "--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
    for name in ("sweep.csv", "sweep.json"):
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert cli.main([*argv, "--out", str(tmp_path / "j2"), "--jobs", "2"]) == 1
    assert not (tmp_path / "j2").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bbox-infer", "--input", "{det}", "--enlarge", "-5"], "--enlarge"),
        (["bbox-infer", "--input", "{det}", "--enlarge", "nan"], "--enlarge"),
        (["run", "--det", "{det}", "--gt", "{gt}", "--candidate-threshold", "1.5"],
         "--candidate-threshold"),
        (["run", "--det", "{det}", "--gt", "{gt}", "--nms-iou", "nan"], "--nms-iou"),
        (["run", "--det", "{det}", "--gt", "{gt}", "--keypoint-threshold", "-1"],
         "--keypoint-threshold"),
        (["synth", "--spec", "{spec}", "--seed", "-1"], "--seed"),
        # the flag is checked before the fixture is read
        (["decode", "--maps", "{spec}", "--radius", "-1"], "--radius"),
        (["decode", "--maps", "{spec}", "--radius", "nan"], "--radius"),
    ],
    ids=["enlarge-negative", "enlarge-nan", "candidate-threshold-above-one", "nms-iou-nan",
         "keypoint-threshold-negative", "seed-negative", "radius-negative", "radius-nan"],
)
def test_cli_bad_flag_value_is_usage_error(tmp_path, capsys, argv, flag):
    det, gt = _write_noiseless(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(noiseless_spec(n_frames=2).to_dict()))
    paths = {"det": str(det), "gt": str(gt), "spec": str(spec)}
    out = tmp_path / "out"
    code = cli.main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"usage error: {flag}" in err
    assert not out.exists()


_INPUTS_OF = {
    "eval": ["--preds", "{absent}", "--gt", "{absent}", "--mode", "ap"],
    "ensemble": ["--a", "{absent}", "--b", "{absent}", "--mode", "average"],
    "sweep": ["--det", "{absent}", "--gt", "{absent}", "--axis", "keypoint_threshold",
              "--values", "0.1,0.5"],
}


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command in ("eval", "ensemble")
        for flag in ("--candidate-threshold", "--keypoint-threshold", "--nms-iou")
    ]
    + [("sweep", "--keypoint-threshold")],
)
def test_cli_flag_the_command_would_not_read_is_refused_before_any_input(
    tmp_path, capsys, command, flag
):
    absent = str(tmp_path / "absent.json")  # read first, it would exit 2
    out = tmp_path / "out"
    argv = [command, *(a.format(absent=absent) for a in _INPUTS_OF[command]), flag, "0.5"]
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"usage error: unrecognized arguments: {flag} 0.5"]
    assert not out.exists()


@pytest.mark.parametrize("axis", pipeline.SWEEP_AXES)
@pytest.mark.parametrize("values", ["0.5,1.5", "nan,0.5", "0.5,-0.1"])
def test_cli_sweep_value_outside_unit_interval_exits_3(tmp_path, capsys, axis, values):
    det, gt = _write_noiseless(tmp_path)
    code = cli.main(
        ["sweep", "--det", str(det), "--gt", str(gt), "--out", str(tmp_path / "s"),
         "--axis", axis, "--values", values]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "within [0, 1]" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "command, document",
    [
        ("config", [1, 2]),
        ("config", {"expert_map": [1]}),
        ("synth", [1, 2]),
        ("synth", 3),
        ("synth", {"confidence": [1]}),
        ("decode", {"stride": 1.0, "origin": [0.0, 0.0]}),
        ("decode", {"maps": {}, "origin": 5}),
        ("decode", {"maps": {}, "stride": [1.0]}),
        ("decode", {"maps": {j: [[0.5]] for j in JOINT_NAMES}, "stride": float("nan")}),
        ("decode", {"maps": {j: [[0.5]] for j in JOINT_NAMES}, "stride": float("inf")}),
        ("decode", {"maps": {j: [[0.5]] for j in JOINT_NAMES}, "origin": [float("nan"), 0.0]}),
        ("decode", {"maps": {j: [[0.5]] for j in JOINT_NAMES}, "origin": [0.0, float("-inf")]}),
        ("synth", {"width": 10**400}),
        ("decode", {"maps": {j: [[0.5]] for j in JOINT_NAMES}, "stride": 10**400}),
        ("decode", {"maps": {j: [[0.5]] for j in JOINT_NAMES}, "strid": 4.0}),
        ("decode", {"maps": {j: [[0.5]] for j in JOINT_NAMES}, "stride": "2"}),
        ("decode", {"maps": {**{j: [[0.5]] for j in JOINT_NAMES}, "noze": [[0.5]]}}),
        ("decode", {"maps": {**{j: [[0.5]] for j in JOINT_NAMES}, "nose": [["0.5"]]}}),
        ("decode", {"maps": {**{j: [[0.5]] for j in JOINT_NAMES}, "nose": [[True]]}}),
        ("decode", {"maps": {**{j: [[0.5]] for j in JOINT_NAMES}, "nose": [[None]]}}),
        ("decode", {"maps": {**{j: [[0.5]] for j in JOINT_NAMES}, "left_knee": [[1.5]]}}),
        ("decode", {"maps": {**{j: [[0.5]] for j in JOINT_NAMES}, "left_knee": [[float("nan")]]}}),
        ("decode", {"maps": {**{j: [[0.5, 0.5]] * 2 for j in JOINT_NAMES},
                             "left_knee": [[0.5]] * 2}}),
    ],
    ids=[
        "config-array", "config-section-array", "spec-array", "spec-number",
        "spec-section-array", "maps-missing", "maps-origin-number", "maps-stride-array",
        "maps-stride-nan", "maps-stride-inf", "maps-origin-nan", "maps-origin-inf",
        "spec-width-beyond-float", "maps-stride-beyond-float", "maps-unknown-key",
        "maps-stride-string", "maps-unknown-joint", "maps-cell-string", "maps-cell-boolean",
        "maps-cell-null", "maps-grid-out-of-range", "maps-grid-nan", "maps-grid-shape",
    ],
)
def test_cli_malformed_document_exits_2_without_traceback(tmp_path, capsys, command, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    if command == "config":
        det, gt = _write_noiseless(tmp_path)
        argv = ["run", "--config", str(path), "--det", str(det), "--gt", str(gt),
                "--out", str(tmp_path / "o")]
    elif command == "synth":
        argv = ["synth", "--spec", str(path), "--out", str(tmp_path / "o")]
    else:
        argv = ["decode", "--maps", str(path), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(path) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "grids, message",
    [
        ({"left_knee": [[1.5]], "right_ankle": [[-0.5]]},
         "maps.left_knee: grid scores must lie in [0, 1]"),
        ({"left_knee": [[float("nan")]]}, "maps.left_knee: grid contains non-finite scores"),
        ({"left_knee": [[0.5]] * 2, "right_ankle": [[0.5]]},
         "maps.left_knee: maps must share shape and stride"),
    ],
    ids=["out-of-range", "nan", "shape"],
)
def test_cli_heatmap_grid_fault_names_its_joint(tmp_path, capsys, grids, message):
    """The first grid at fault in slot order is named; a shape is compared with nose's."""
    maps = {j: [[0.5]] for j in JOINT_NAMES}
    path = tmp_path / "maps.json"
    path.write_text(json.dumps({"maps": {**maps, **grids}}))
    assert cli.main(["decode", "--maps", str(path), "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == f"input error: {path}: {message}\n"


def _write_named(directory: Path, seqs: list[Sequence]) -> Path:
    directory.mkdir()
    for k, seq in enumerate(seqs):
        (directory / f"{k}.json").write_text(save_predictions(seq))
    return directory


def test_cli_ensemble_rejects_duplicate_sequence_names(tmp_path):
    a, b = (synth.generate(noiseless_spec(n_persons=2, n_frames=4, seed=s)).det for s in (1, 2))
    dir_a = _write_named(tmp_path / "a", [a, b])
    dir_b = _write_named(tmp_path / "b", [b, a])
    out_dir = tmp_path / "fused"
    code = cli.main(
        ["ensemble", "--a", str(dir_a), "--b", str(dir_b), "--mode", "average",
         "--out", str(out_dir)]
    )
    assert code == 3
    assert not out_dir.exists()


def test_cli_ensemble_rejects_shifted_frame_indices(tmp_path):
    det, _ = _write_noiseless(tmp_path)
    doc = json.loads(det.read_text())
    for frame in doc["frames"]:
        frame["index"] += 100
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps(doc))
    out_dir = tmp_path / "fused"
    code = cli.main(
        ["ensemble", "--a", str(det), "--b", str(shifted), "--mode", "expert",
         "--out", str(out_dir)]
    )
    assert code == 3
    assert not out_dir.exists()


def test_cli_subprocess_entrypoint(tmp_path):
    det, gt = _write_noiseless(tmp_path)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "topdown", "run", "--det", str(det), "--gt", str(gt),
         "--out", str(tmp_path / "sub_out")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "MOTA total: 100.0000" in proc.stdout


# ---------------------------------------------------------------------------
# config and generator-spec fields are checked where they are built


@pytest.mark.parametrize("boxes", [True, False], ids=["boxed", "box-less"])
@pytest.mark.parametrize(
    "section, field",
    [
        ({"bbox_enlarge": "x"}, "bbox_enlarge"),
        ({"bbox_enlarge": -5}, "bbox_enlarge"),
        ({"bbox_enlarge": 1e308 * 10}, "bbox_enlarge"),
        ({"bbox_enlarge": True}, "bbox_enlarge"),
        ({"tracker": {"retention_window": 2.5}}, "retention_window"),
        ({"tracker": {"retention_window": 1e308}}, "retention_window"),
        ({"tracker": {"retention_window": True}}, "retention_window"),
        ({"tracker": {"retention_window": 0}}, "retention_window"),
    ],
    ids=["enlarge-string", "enlarge-negative", "enlarge-inf", "enlarge-bool",
         "window-fraction", "window-float", "window-bool", "window-zero"],
)
def test_cli_bad_config_value_exits_2_at_load_naming_the_field(
    tmp_path, capsys, section, field, boxes
):
    det, gt = _write_noiseless(tmp_path)
    if not boxes:
        doc = json.loads(det.read_text())
        for frame in doc["frames"]:
            for pose in frame["poses"]:
                pose["bbox"] = None
        det.write_text(json.dumps(doc))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(section))
    code = cli.main(["run", "--config", str(config), "--det", str(det), "--gt", str(gt),
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert field in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "document, field",
    [
        ({"detection_iou_threshold": True}, "detection_iou_threshold"),
        ({"tracker": {"similarity_min": True}}, "similarity_min"),
        ({"tracker": {"w_iou": "x"}}, "w_iou"),
        ({"nms_iou_threshold": "x"}, "nms_iou_threshold"),
        ({"candidate_drop_threshold": None}, "candidate_drop_threshold"),
        ({"tracker": {"kappa": "x"}}, "kappa"),
        ({"expert_map": [1]}, "expert_map"),
        ({"expert_map": {"nose": "x"}}, "expert_map.nose"),
        ({"expert_map": {"nosee": "a"}}, "expert_map.nosee"),
        ({"tracker": {"kappa": [0.1] * 3 + [True] + [0.1] * 11}}, "tracker.kappa[3]"),
        ({"tracker": {"note": 1}}, "tracker.note"),
        ({"pckh": {"factor": 0.5, "radius": 2}}, "pckh.radius"),
        ({"expert_map": {"nose": "a"}}, "expert_map"),
    ],
    ids=["detection-iou-bool", "similarity-min-bool", "w-iou-string", "nms-iou-string",
         "candidate-threshold-null", "kappa-string", "expert-map-array", "expert-map-route",
         "expert-map-joint", "kappa-entry-bool", "tracker-unknown-key", "pckh-unknown-key",
         "expert-map-missing-joints"],
)
def test_cli_config_field_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys, document, field):
    det, gt = _write_noiseless(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(document))
    code = cli.main(["run", "--config", str(config), "--det", str(det), "--gt", str(gt),
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:"), err
    assert field in lines[0].replace(str(config), "")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_per_joint_kappa_entries_name_themselves():
    with pytest.raises(ValueError, match=r"kappa\[3\] must be a finite number, got True"):
        TrackerConfig(kappa=[0.1, 0.1, 0.1, True] + [0.1] * 11)


def test_config_accepts_a_huge_finite_bbox_enlarge():
    assert PipelineConfig(bbox_enlarge=1e308).bbox_enlarge == 1e308


def test_pose_whose_inferred_box_overflows_is_dropped_not_fatal(tmp_path, capsys, caplog):
    det, gt = _write_noiseless(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bbox_enlarge": 1e308}))
    doc = json.loads(det.read_text())
    for frame in doc["frames"]:
        for pose in frame["poses"]:
            pose["bbox"] = None
    det.write_text(json.dumps(doc))
    code = cli.main(["run", "--config", str(config), "--det", str(det), "--gt", str(gt),
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 0, err
    assert "no inferable box" in caplog.text
    tracked = load_sequence(next((tmp_path / "o").glob("tracked_*.json")).read_text())
    assert all(not frame.poses for frame in tracked.frames)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"seed": "x"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"n_persons": 2.5}, "n_persons"),
        ({"n_frames": True}, "n_frames"),
        ({"width": "640"}, "width"),
        ({"speed": "fast"}, "speed"),
        ({"scale": None}, "scale"),
        ({"jitter": [1]}, "jitter"),
        ({"fp_rate": True}, "fp_rate"),
        ({"name": 5}, "name"),
        ({"occlusions": [[0, "a", 2]]}, "occlusions"),
        ({"fp_confidence": {"mean": "x", "spread": 0.1}}, "mean"),
        ({"confidence": {"Head": {"mean": 0.8}}}, "confidence.Head.spread"),
        ({"confidence": 3}, "confidence"),
        ({"confidence": {"Head": 3}}, "confidence.Head"),
        ({"occlusions": 5}, "occlusions"),
        ({"occlusions": [5]}, "occlusions[0]"),
        ({"fp_confidence": {"mean": 0.5, "spread": 0.1, "note": 1}}, "fp_confidence.note"),
    ],
)
def test_cli_synth_spec_type_error_exits_2_naming_the_field(tmp_path, capsys, overrides, field):
    doc = {**synth.calibrated_benchmark_spec(n_frames=2).to_dict(), **overrides}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code = cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert field in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
