"""Two-model fusion: averaging, expert routing, and the reference row pattern."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import points_pose, template_pose
from topdown.ensemble import (
    Route,
    default_expert_map,
    fuse_average,
    fuse_expert,
    route_codes,
    validate_expert_map,
)
from topdown.model import (
    GROUPS,
    JOINTS,
    BBox,
    EvalGroup,
    Joint,
    Keypoint,
    Keypoints,
    Pose,
    joint_group,
)


def test_fuse_average_idempotent():
    pose = template_pose((200, 300), confidence=0.8, det_score=0.7)
    assert fuse_average(pose, pose) == replace(pose, track_id=None)


def test_fuse_average_arithmetic_mean():
    a = points_pose({Joint.NOSE: (10, 20), Joint.HEAD_TOP: (0, 0)}, confidence=0.8)
    b = points_pose({Joint.NOSE: (20, 40), Joint.HEAD_TOP: (0, 0)}, confidence=0.6)
    fused = fuse_average(a, b)
    kp = fused.keypoint(Joint.NOSE)
    assert (kp.x, kp.y, kp.confidence) == (15.0, 30.0, pytest.approx(0.7))


@st.composite
def candidate_pair(draw):
    """Two poses for the same candidate: shared det_score and box."""
    det_score = draw(st.floats(0, 1, allow_nan=False))

    def one(present_flags):
        keypoints = tuple(
            Keypoint(
                joint=j,
                x=draw(st.floats(-100, 100, allow_nan=False)),
                y=draw(st.floats(-100, 100, allow_nan=False)),
                confidence=draw(st.floats(0, 1, allow_nan=False)),
                present=present_flags[j.index],
            )
            for j in JOINTS
        )
        return Pose(keypoints=keypoints, det_score=det_score)

    flags_a = [draw(st.booleans()) for _ in JOINTS]
    flags_b = [draw(st.booleans()) for _ in JOINTS]
    return one(flags_a), one(flags_b)


# ordinary values, values whose sum is beyond the float range, and subnormals
_COORDINATES = st.floats(-1000, 1000) | st.sampled_from(
    [1e300, -1e300, 1.7e308, -1.7e308, 5e-324, -5e-324, 3e-323, 2.2e-308]
)


@st.composite
def _poses_up_to_the_float_range(draw) -> Pose:
    xy = draw(st.lists(_COORDINATES, min_size=30, max_size=30))
    confidence = draw(st.lists(st.floats(0, 1), min_size=15, max_size=15))
    present = draw(st.lists(st.booleans(), min_size=15, max_size=15))
    bbox = None
    if draw(st.booleans()):
        x1, x2 = sorted(draw(st.lists(_COORDINATES, min_size=2, max_size=2)))
        y1, y2 = sorted(draw(st.lists(_COORDINATES, min_size=2, max_size=2)))
        bbox = BBox(x1, y1, x2, y2)
    keypoints = Keypoints(np.reshape(xy, (15, 2)), confidence, present)
    return Pose(keypoints, draw(st.floats(0, 1)), bbox)


def _bits(pose: Pose) -> tuple:
    """Everything a pose holds, with floats spelled by ``repr`` so ``-0.0`` differs from ``0.0``."""
    arrays = (pose.xy, pose.confidence, pose.present)
    return (*(a.tobytes() for a in arrays), repr(pose.bbox), repr(pose.det_score), pose.track_id)


@given(
    _poses_up_to_the_float_range(),
    _poses_up_to_the_float_range(),
    st.fixed_dictionaries({j: st.sampled_from(list(Route)) for j in JOINTS}),
)
def test_fusion_up_to_the_float_range_is_exact(p, q, route_map):
    assert _bits(fuse_average(p, p)) == _bits(p)
    assert _bits(fuse_expert(p, p, route_map)) == _bits(p)
    assert _bits(fuse_average(p, q)) == _bits(oracles.fuse_average(p, q))
    assert _bits(fuse_expert(p, q, route_map)) == _bits(oracles.fuse_expert(p, q, route_map))


@given(candidate_pair())
def test_fuse_average_commutative(pair):
    a, b = pair
    ab, ba = fuse_average(a, b), fuse_average(b, a)
    for ka, kb in zip(ab.keypoints, ba.keypoints):
        assert ka.present == kb.present
        assert ka.x == pytest.approx(kb.x, abs=1e-9)
        assert ka.y == pytest.approx(kb.y, abs=1e-9)
        assert ka.confidence == pytest.approx(kb.confidence, abs=1e-9)
    assert ab.det_score == pytest.approx(ba.det_score, abs=1e-9)


@given(candidate_pair())
def test_fusions_preserve_present_flags(pair):
    a, b = pair
    for fused in (fuse_average(a, b), fuse_expert(a, b, default_expert_map())):
        for ka, kb, kf in zip(a.keypoints, b.keypoints, fused.keypoints):
            assert kf.present == (ka.present or kb.present)


def test_fuse_average_copies_the_only_present_side():
    a = points_pose({Joint.LEFT_WRIST: (5, 6)}, confidence=0.9)
    b = points_pose({Joint.RIGHT_WRIST: (7, 8)}, confidence=0.4)
    fused = fuse_average(a, b)
    assert fused.keypoint(Joint.LEFT_WRIST) == a.keypoint(Joint.LEFT_WRIST)
    assert fused.keypoint(Joint.RIGHT_WRIST) == b.keypoint(Joint.RIGHT_WRIST)
    assert not fused.keypoint(Joint.NOSE).present


def test_fuse_expert_all_a_is_identity():
    a = template_pose((100, 100), confidence=0.9, det_score=0.6)
    b = template_pose((140, 120), confidence=0.5, det_score=0.6)
    b = replace(b, bbox=a.bbox)  # same candidate: shared box and det_score
    all_a = {j: Route.A for j in JOINTS}
    assert fuse_expert(a, b, all_a) == replace(a, track_id=None)


def test_fuse_expert_all_avg_equals_average():
    a = template_pose((100, 100), confidence=0.9)
    b = template_pose((140, 120), confidence=0.5)
    all_avg = {j: Route.AVG for j in JOINTS}
    assert fuse_expert(a, b, all_avg) == fuse_average(a, b)


def test_fuse_expert_falls_back_when_routed_side_absent():
    a = points_pose({Joint.LEFT_SHOULDER: (1, 2)})
    b = points_pose({Joint.RIGHT_SHOULDER: (3, 4)})
    fused = fuse_expert(a, b, {j: Route.A for j in JOINTS})
    assert fused.keypoint(Joint.RIGHT_SHOULDER) == b.keypoint(Joint.RIGHT_SHOULDER)


def test_fuse_expert_requires_total_map():
    a = template_pose((100, 100))
    partial = {Joint.NOSE: Route.A}
    with pytest.raises(ValueError):
        fuse_expert(a, a, partial)


@pytest.mark.parametrize("route", ["a", None, 0])
def test_expert_map_value_that_is_not_a_route_is_rejected_naming_the_joint(route):
    route_map = default_expert_map()
    route_map[Joint.LEFT_WRIST] = route
    pose = template_pose((100, 100))
    message = f"expert map routes joint 'left_wrist' to {route!r}, not a Route"
    for call in (
        lambda: validate_expert_map(route_map),
        lambda: fuse_expert(pose, pose, route_map),
        lambda: route_codes("expert", route_map),
    ):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message


def test_default_map_routes_by_group():
    routes = default_expert_map()
    for j in JOINTS:
        group = joint_group(j)
        if group in (EvalGroup.SHOULDER, EvalGroup.HIP):
            assert routes[j] is Route.A
        elif group is EvalGroup.HEAD:
            assert routes[j] is Route.AVG
        else:
            assert routes[j] is Route.B


def test_default_map_routing_on_synthetic_poses():
    a = template_pose((0, 0), confidence=0.9)
    b = template_pose((1000, 1000), confidence=0.1)
    fused = fuse_expert(a, b, default_expert_map())
    for j in JOINTS:
        group = joint_group(j)
        kf = fused.keypoint(j)
        if group in (EvalGroup.SHOULDER, EvalGroup.HIP):
            assert kf == a.keypoint(j)
        elif group is not EvalGroup.HEAD:
            assert kf == b.keypoint(j)


# Reference per-group scores of the two source models and their published
# expert fusion; the default map must reproduce the fused row from the two
# input rows (selected columns exactly, averaged head to float tolerance).
ROW_A = {"Head": 80.7, "Shou": 81.2, "Elb": 77.4, "Wri": 70.2, "Hip": 72.6, "Knee": 72.2, "Ankl": 64.7}
ROW_B = {"Head": 80.5, "Shou": 80.8, "Elb": 77.9, "Wri": 71.3, "Hip": 70.1, "Knee": 72.9, "Ankl": 65.7}
ROW_EXPERT = {"Head": 80.6, "Shou": 81.2, "Elb": 77.9, "Wri": 71.3, "Hip": 72.6, "Knee": 72.9, "Ankl": 65.7}


def _pose_encoding_row(row: dict[str, float]) -> Pose:
    keypoints = tuple(
        Keypoint(joint=j, x=row[joint_group(j).value], y=0.0, confidence=1.0) for j in JOINTS
    )
    return Pose(keypoints=keypoints)


def test_default_map_reproduces_reference_row_pattern():
    fused = fuse_expert(_pose_encoding_row(ROW_A), _pose_encoding_row(ROW_B), default_expert_map())
    for j in JOINTS:
        group = joint_group(j)
        got = fused.keypoint(j).x
        if group is EvalGroup.HEAD:
            assert got == pytest.approx(ROW_EXPERT["Head"], abs=1e-9)
            assert got == pytest.approx(0.5 * (ROW_A["Head"] + ROW_B["Head"]), abs=1e-12)
        else:
            # selected columns pass through bit-exactly
            assert got == ROW_EXPERT[group.value]
