"""Domain types, the group partition, and document round-trips."""
from __future__ import annotations

import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from topdown.model import (
    BBox,
    EvalGroup,
    Frame,
    GROUPS,
    JOINTS,
    Joint,
    Keypoint,
    Keypoints,
    Pose,
    Sequence,
    SequenceError,
    group_joints,
    joint_group,
    keypoint_arrays,
    load_sequence,
    pair_by_name,
    save_predictions,
    sequence_to_dict,
)


def test_fifteen_joints_seven_groups():
    assert len(JOINTS) == 15
    assert len(GROUPS) == 7


def test_joint_group_examples():
    assert joint_group(Joint.LEFT_ANKLE) is EvalGroup.ANKLE
    assert joint_group(Joint.HEAD_TOP) is EvalGroup.HEAD


def test_group_mapping_is_a_partition():
    seen: list[Joint] = []
    for group in GROUPS:
        members = group_joints(group)
        expected = 3 if group is EvalGroup.HEAD else 2
        assert len(members) == expected
        seen.extend(members)
    assert sorted(seen, key=lambda j: j.index) == list(JOINTS)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def poses(draw) -> Pose:
    keypoints = []
    for joint in JOINTS:
        keypoints.append(
            Keypoint(
                joint=joint,
                x=draw(st.floats(-1000, 5000, allow_nan=False)),
                y=draw(st.floats(-1000, 5000, allow_nan=False)),
                confidence=draw(st.floats(0, 1, allow_nan=False)),
                present=draw(st.booleans()),
            )
        )
    det_score = draw(st.floats(0, 1, allow_nan=False))
    bbox = None
    if draw(st.booleans()):
        x1 = draw(st.floats(-100, 500, allow_nan=False))
        y1 = draw(st.floats(-100, 500, allow_nan=False))
        bbox = BBox(
            x1,
            y1,
            x1 + draw(st.floats(0, 300, allow_nan=False)),
            y1 + draw(st.floats(0, 300, allow_nan=False)),
        )
    track_id = draw(st.one_of(st.none(), st.integers(0, 99)))
    return Pose(keypoints=tuple(keypoints), det_score=det_score, bbox=bbox, track_id=track_id)


@st.composite
def sequences(draw) -> Sequence:
    width = draw(st.integers(10, 1000))
    height = draw(st.integers(10, 1000))
    n_frames = draw(st.integers(0, 3))
    indices = sorted(draw(st.sets(st.integers(0, 50), min_size=n_frames, max_size=n_frames)))
    frames = []
    for index in indices:
        frame_poses = draw(st.lists(poses(), max_size=3))
        frames.append(Frame(index=index, width=width, height=height, poses=tuple(frame_poses)))
    name = draw(st.text(alphabet="abcdefghij_0123456789", min_size=1, max_size=10))
    return Sequence(name=name, frames=tuple(frames))


@given(sequences())
def test_roundtrip_load_of_save_is_identity(seq):
    assert load_sequence(save_predictions(seq)) == seq


@given(sequences())
def test_roundtrip_save_of_load_preserves_document(seq):
    doc = json.dumps(sequence_to_dict(seq))
    assert save_predictions(load_sequence(doc)) == save_predictions(seq)
    assert json.loads(doc) == sequence_to_dict(load_sequence(doc))


def test_empty_sequence_document():
    doc = json.loads(save_predictions(Sequence(name="empty")))
    assert doc == {"name": "empty", "frames": []}


def test_track_id_passthrough(tmp_path):
    from conftest import template_pose

    seq = Sequence(
        name="ids",
        frames=(
            Frame(index=0, width=640, height=480, poses=(template_pose((200, 200), track_id=3),)),
        ),
    )
    doc = json.loads(save_predictions(seq))
    assert doc["frames"][0]["poses"][0]["track_id"] == 3


def _valid_doc() -> dict:
    from conftest import template_pose

    seq = Sequence(
        name="doc",
        frames=(
            Frame(index=0, width=640, height=480, poses=(template_pose((200, 200)),)),
            Frame(index=1, width=640, height=480, poses=(template_pose((210, 200)),)),
        ),
    )
    return sequence_to_dict(seq)


def _corrupt_confidence(doc):
    doc["frames"][0]["poses"][0]["keypoints"][2]["confidence"] = 1.5
    return "frames[0].poses[0].keypoints[2].confidence"


def _corrupt_missing_det_score(doc):
    del doc["frames"][1]["poses"][0]["det_score"]
    return "frames[1].poses[0].det_score"


def _corrupt_duplicate_frame_index(doc):
    doc["frames"][1]["index"] = 0
    return "frames[1].index"


def _corrupt_joint_name(doc):
    doc["frames"][0]["poses"][0]["keypoints"][0]["joint"] = "left_eye"
    return "keypoints[0].joint"


def _corrupt_duplicate_joint(doc):
    doc["frames"][0]["poses"][0]["keypoints"][1]["joint"] = "nose"
    return "keypoints[1].joint"


def _corrupt_keypoint_count(doc):
    doc["frames"][0]["poses"][0]["keypoints"].pop()
    return "frames[0].poses[0].keypoints"


def _corrupt_negative_track_id(doc):
    doc["frames"][0]["poses"][0]["track_id"] = -2
    return "track_id"


def _corrupt_bbox_arity(doc):
    doc["frames"][0]["poses"][0]["bbox"] = [1.0, 2.0, 3.0]
    return "bbox"


def _corrupt_nonfinite_x(doc):
    doc["frames"][0]["poses"][0]["keypoints"][4]["x"] = "oops"
    return "keypoints[4].x"


def _corrupt_width_mismatch(doc):
    doc["frames"][1]["width"] = 999
    return "frames[1]"


def _corrupt_missing_name(doc):
    del doc["name"]
    return "name"


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_confidence,
        _corrupt_missing_det_score,
        _corrupt_duplicate_frame_index,
        _corrupt_joint_name,
        _corrupt_duplicate_joint,
        _corrupt_keypoint_count,
        _corrupt_negative_track_id,
        _corrupt_bbox_arity,
        _corrupt_nonfinite_x,
        _corrupt_width_mismatch,
        _corrupt_missing_name,
    ],
)
def test_loader_rejects_single_field_corruptions(corrupt):
    doc = _valid_doc()
    expected_path_part = corrupt(doc)
    with pytest.raises(SequenceError) as excinfo:
        load_sequence(json.dumps(doc))
    assert expected_path_part in str(excinfo.value)


def test_loader_rejects_malformed_json():
    with pytest.raises(SequenceError):
        load_sequence("{not json")


def test_confidence_range_error_names_offending_keypoint():
    doc = _valid_doc()
    doc["frames"][0]["poses"][0]["keypoints"][7]["confidence"] = 2.0
    with pytest.raises(SequenceError, match=r"frames\[0\].poses\[0\].keypoints\[7\]"):
        load_sequence(json.dumps(doc))


def test_type_invariants():
    with pytest.raises(ValueError):
        Keypoint(joint=Joint.NOSE, x=0.0, y=0.0, confidence=1.5)
    with pytest.raises(ValueError):
        Keypoint(joint=Joint.NOSE, x=float("nan"), y=0.0, confidence=0.5)
    with pytest.raises(ValueError):
        BBox(5.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Frame(index=-1, width=10, height=10)
    good = Frame(index=0, width=10, height=10)
    with pytest.raises(ValueError):
        Sequence(name="x", frames=(good, good))


class _PairingError(ValueError):
    pass


def _named(name: str, indices=(0, 1)) -> Sequence:
    return Sequence(name=name, frames=tuple(Frame(index=i, width=10, height=10) for i in indices))


def test_pair_by_name_pairs_in_order_of_first_side():
    a, b, c = _named("a"), _named("b"), _named("c")
    pairs = pair_by_name([c, a, b], [a, b, c], "other", _PairingError)
    assert [(x.name, y.name) for x, y in pairs] == [("c", "c"), ("a", "a"), ("b", "b")]


@pytest.mark.parametrize(
    "seqs, others, message",
    [
        ([_named("a")], [_named("a"), _named("b")], "got 2 sequences, expected 1"),
        # the count rule comes first, the uniqueness rule before presence
        ([_named("a"), _named("a")], [_named("a"), _named("b")], "duplicate"),
        ([_named("a"), _named("b")], [_named("a"), _named("a")], "duplicate"),
        ([_named("a"), _named("b")], [_named("a"), _named("c")], "no sequence named 'b'"),
        # presence is checked for every name before any frame indices
        (
            [_named("a", (0, 2)), _named("b")],
            [_named("a"), _named("c")],
            "no sequence named 'b'",
        ),
        ([_named("a")], [_named("a", (100, 101))], "frame indices do not align"),
    ],
)
def test_pair_by_name_rules_raise_the_callers_error(seqs, others, message):
    with pytest.raises(_PairingError, match=f"^other: .*{message}"):
        pair_by_name(seqs, others, "other", _PairingError)


# ---------------------------------------------------------------------------
# a pose's keypoints are read-only arrays that read as Keypoint values


def test_keypoints_are_read_only_arrays_that_read_as_keypoint_values():
    values = tuple(
        Keypoint(j, float(i), 2.0 * i, i / 20, i % 3 != 0) for i, j in enumerate(JOINTS)
    )
    pose = Pose(values, det_score=0.5)
    kps = pose.keypoints
    assert isinstance(kps, Keypoints)
    assert pose.xy.shape == (15, 2) and pose.xy.dtype == np.float64
    assert pose.confidence.shape == (15,) and pose.present.dtype == bool
    for array in (pose.xy, pose.confidence, pose.present):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(AttributeError):
        kps.xy = np.zeros((15, 2))
    assert kps == values and values == kps
    assert tuple(kps) == values and kps[3] == values[3] and kps[-1] == values[-1]
    assert kps[1:3] == values[1:3]
    assert pose.keypoint(Joint.LEFT_HIP) == values[Joint.LEFT_HIP.index]
    assert pose.present_joints() == tuple(kp.joint for kp in values if kp.present)
    arrays = Pose(Keypoints(pose.xy, pose.confidence, pose.present), det_score=0.5)
    assert arrays == pose and hash(arrays) == hash(pose)
    assert pickle.loads(pickle.dumps(pose)) == pose


def test_replacing_a_scalar_field_keeps_the_keypoint_arrays():
    pose = Pose(tuple(Keypoint(j, 1.0, 2.0, 0.5) for j in JOINTS))
    moved = replace(pose, track_id=3, det_score=0.25)
    assert moved.keypoints is pose.keypoints
    assert moved.track_id == 3


def test_with_present_takes_only_a_boolean_mask_of_fifteen():
    kps = Pose(tuple(Keypoint(j, 1.0, 2.0, 0.5) for j in JOINTS)).keypoints
    flags = np.arange(15) % 2 == 0
    masked = kps.with_present(flags)
    assert masked.present.tolist() == flags.tolist() and masked.xy is kps.xy
    flags[0] = False  # the mask was copied
    assert masked.present[0]
    for bad in (np.ones(15), np.ones(14, dtype=bool)):
        with pytest.raises(ValueError, match="presence mask"):
            kps.with_present(bad)


@given(sequences())
def test_pose_layout_helpers_flatten_stack_and_regroup(seq):
    poses = seq.all_poses()
    assert poses == [pose for _, pose in seq.iter_poses()]
    assert seq.with_poses(poses) == seq
    assert seq.with_poses(iter(poses)) == seq
    renumbered = seq.with_poses(replace(p, track_id=k) for k, p in enumerate(poses))
    assert [len(f.poses) for f in renumbered.frames] == [len(f.poses) for f in seq.frames]
    assert [p.track_id for p in renumbered.all_poses()] == list(range(len(poses)))
    xy, confidence, present = keypoint_arrays(poses)
    n = len(poses)
    assert (xy.shape, confidence.shape, present.shape) == ((n, 15, 2), (n, 15), (n, 15))
    assert (xy.dtype, confidence.dtype, present.dtype) == (np.float64, np.float64, np.bool_)
    for k, pose in enumerate(poses):
        assert np.array_equal(xy[k], pose.xy)
        assert np.array_equal(confidence[k], pose.confidence)
        assert np.array_equal(present[k], pose.present)
