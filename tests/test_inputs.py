"""Values that would make scoring meaningless are refused where they are built."""
from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from topdown import cli, synth
from topdown.metrics import PckhThreshold
from topdown.model import JOINTS, Joint, Keypoint, Pose, save_predictions


@pytest.mark.parametrize(
    "field, value",
    [
        ("factor", math.nan),
        ("factor", math.inf),
        ("factor", 0.0),
        ("factor", True),
        ("factor", "0.5"),
        ("factor", 10**400),
        ("min_head_size", math.inf),
        ("min_head_size", -1.0),
        ("min_head_size", False),
        ("bbox_diag_fraction", math.nan),
        ("bbox_diag_fraction", -1),
        ("bbox_diag_fraction", True),
    ],
)
def test_pckh_threshold_rejects_values_that_are_not_usable_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        PckhThreshold(**{field: value})


def test_pckh_threshold_rejects_a_radius_that_can_underflow_to_zero():
    with pytest.raises(ValueError, match="factor \\* min_head_size"):
        PckhThreshold(factor=5e-324, min_head_size=1e-10)


def test_pckh_threshold_accepts_finite_numbers_in_range():
    assert PckhThreshold(factor=1, min_head_size=2, bbox_diag_fraction=0).bbox_diag_fraction == 0


@pytest.mark.parametrize(
    "section", [{"factor": math.nan}, {"min_head_size": math.inf}, {"bbox_diag_fraction": -1}]
)
def test_cli_bad_pckh_config_exits_2_naming_the_field(tmp_path, capsys, section):
    out = synth.generate(synth.calibrated_benchmark_spec(n_persons=2, n_frames=3, seed=1))
    (tmp_path / "det.json").write_text(save_predictions(out.det))
    (tmp_path / "gt.json").write_text(save_predictions(out.gt))
    (tmp_path / "cfg.json").write_text(json.dumps({"pckh": section}))
    code = cli.main(
        ["run", "--det", str(tmp_path / "det.json"), "--gt", str(tmp_path / "gt.json"),
         "--out", str(tmp_path / "out"), "--config", str(tmp_path / "cfg.json")]
    )
    assert code == 2
    assert next(iter(section)) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pose_with_a_keypoint_whose_joint_is_not_a_joint_names_the_slot():
    keypoints = [Keypoint(j, 1.0, 2.0, 0.5) for j in JOINTS]
    keypoints[3] = replace(keypoints[3], joint="left_shoulder")
    with pytest.raises(ValueError, match=f"slot {Joint.LEFT_SHOULDER.value} holds 'left_shoulder'"):
        Pose(tuple(keypoints))
