"""Pruning, retention stats, similarity, assignment solvers and id assignment."""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import points_pose, template_pose
from topdown import synth, tracker
from topdown.geometry import DegenerateGeometryError, bbox_from_keypoints, iou
from topdown.metrics import evaluate_mot
from topdown.model import (
    BBox,
    ContractError,
    Frame,
    JOINTS,
    Joint,
    Keypoint,
    Pose,
    Sequence,
    save_predictions,
)
from topdown.tracker import (
    PoseArrays,
    RetentionTable,
    TrackerConfig,
    TrackingError,
    pose_arrays,
    pose_similarity,
    prune_keypoints,
    prune_sequence_keypoints,
    retention_stats,
    similarity_matrix,
    solve_assignment,
    track_sequence,
)


def _pose_with_confidences(confs: list[float]) -> Pose:
    points = {j: (10.0 * i, 5.0 * i) for i, j in enumerate(JOINTS[: len(confs)])}
    return points_pose(points, confidences=dict(zip(JOINTS, confs)))


def test_prune_keypoints_example():
    pose = _pose_with_confidences([0.9, 0.6, 0.4])
    pruned = prune_keypoints(pose, 0.5)
    assert pruned.keypoints[0].present and pruned.keypoints[1].present
    assert not pruned.keypoints[2].present


def test_prune_keypoints_zero_threshold_is_identity():
    pose = _pose_with_confidences([0.9, 0.6, 0.4])
    assert prune_keypoints(pose, 0.0) == pose


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=15))
def test_prune_keypoints_monotone_and_nondestructive(confs):
    pose = _pose_with_confidences(confs)
    high = prune_keypoints(pose, 0.85)
    low = prune_keypoints(pose, 0.70)
    kept_high = {kp.joint for kp in high.keypoints if kp.present}
    kept_low = {kp.joint for kp in low.keypoints if kp.present}
    assert kept_high <= kept_low
    for original, pruned in zip(pose.keypoints, low.keypoints):
        if pruned.present:
            assert (pruned.x, pruned.y, pruned.confidence) == (
                original.x,
                original.y,
                original.confidence,
            )


def _sequence_of(poses_per_frame: list[list[Pose]], name="seq", size=(2000, 2000)) -> Sequence:
    return Sequence(
        name=name,
        frames=tuple(
            Frame(index=i, width=size[0], height=size[1], poses=tuple(poses))
            for i, poses in enumerate(poses_per_frame)
        ),
    )


# boundary values next to arbitrary ones, so thresholds often equal a confidence
_LEVELS = st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]) | st.floats(0, 1)


@given(
    st.lists(st.lists(_LEVELS, min_size=1, max_size=15), min_size=1, max_size=4),
    _LEVELS,
    _LEVELS,
)
def test_pruning_twice_equals_pruning_once_at_the_higher_threshold(confs_per_pose, a, b):
    seq = _sequence_of([[_pose_with_confidences(confs) for confs in confs_per_pose]])
    twice = prune_sequence_keypoints(prune_sequence_keypoints(seq, a), b)
    assert twice == prune_sequence_keypoints(seq, max(a, b))


def test_retention_all_confident_is_100():
    seq = _sequence_of([[template_pose((200, 200), confidence=1.0)]])
    table = retention_stats([seq], 0.7)
    assert table.total == 100.0
    assert all(v == 100.0 for v in table.per_group.values())


def test_retention_hand_count():
    # 4 present keypoints, 2 below the threshold: 50% kept
    points = {
        Joint.NOSE: (0, 0),
        Joint.HEAD_TOP: (0, 5),
        Joint.LEFT_WRIST: (5, 5),
        Joint.RIGHT_WRIST: (9, 9),
    }
    pose = points_pose(
        points,
        confidences={
            Joint.NOSE: 0.9,
            Joint.HEAD_TOP: 0.8,
            Joint.LEFT_WRIST: 0.2,
            Joint.RIGHT_WRIST: 0.1,
        },
    )
    table = retention_stats([_sequence_of([[pose]])], 0.5)
    assert table.total == 50.0


def test_retention_requires_keypoints():
    empty = points_pose({})
    with pytest.raises(TrackingError):
        retention_stats([_sequence_of([[empty]])], 0.5)


# ---------------------------------------------------------------------------
# similarity


def test_similarity_identity_is_one():
    pose = template_pose((300, 300))
    assert pose_similarity(pose, pose) == pytest.approx(1.0)


def test_similarity_far_poses_vanishes():
    a = template_pose((100, 100))
    b = template_pose((1900, 1900))
    assert pose_similarity(a, b) < 0.05


def test_similarity_symmetric_for_equal_areas():
    rng = random.Random(0)
    for _ in range(100):
        center = (rng.uniform(0, 500), rng.uniform(0, 500))
        shift = (rng.uniform(-40, 40), rng.uniform(-40, 40))
        a = template_pose(center, scale=80.0)
        b = template_pose((center[0] + shift[0], center[1] + shift[1]), scale=80.0)
        assert pose_similarity(a, b) == pytest.approx(pose_similarity(b, a), abs=1e-12)


def test_similarity_requires_a_box():
    with pytest.raises(ValueError):
        pose_similarity(points_pose({}), template_pose((0, 0)))


def test_per_joint_kappa_matches_uniform_scalar():
    a = template_pose((100, 100))
    b = template_pose((112, 104))
    uniform = TrackerConfig(kappa=0.1)
    per_joint = TrackerConfig(kappa=[0.1] * len(JOINTS))
    assert pose_similarity(a, b, per_joint) == pose_similarity(a, b, uniform)
    widened = TrackerConfig(kappa=[0.5] * len(JOINTS))
    assert pose_similarity(a, b, widened) > pose_similarity(a, b, uniform)
    with pytest.raises(ValueError):
        TrackerConfig(kappa=[0.1] * 3)
    with pytest.raises(ValueError):
        TrackerConfig(kappa=-0.1)


def reference_similarity_matrix(
    tracks: PoseArrays, poses: PoseArrays, kappa, w_iou: float, w_pose: float
) -> np.ndarray:
    """Scalar reference for ``similarity_matrix``: one Python loop per cell and joint."""
    out = np.empty((len(tracks.box), len(poses.box)))
    for r in range(len(tracks.box)):
        box_a = BBox(*(float(v) for v in tracks.box[r]))
        for c in range(len(poses.box)):
            box_b = BBox(*(float(v) for v in poses.box[c]))
            overlap = iou(box_a, box_b)
            common = [
                j for j in range(len(JOINTS)) if tracks.present[r, j] and poses.present[c, j]
            ]
            if common:
                size = math.sqrt(box_a.area)
                total = 0.0
                for j in common:
                    ax, ay = (float(v) for v in tracks.xy[r, j])
                    bx, by = (float(v) for v in poses.xy[c, j])
                    d2 = (ax - bx) ** 2 + (ay - by) ** 2
                    scale = size * float(kappa[j])
                    denom = 2.0 * scale * scale
                    if denom > 0.0:
                        total += math.exp(-d2 / denom)
                    else:
                        total += 1.0 if d2 == 0.0 else 0.0
                kp_sim = total / len(common)
            else:
                kp_sim = 0.0
            out[r, c] = (w_iou * overlap + w_pose * kp_sim) / (w_iou + w_pose)
    return out


# a small integer grid makes equal positions (distance 0) and equal corners common
_coord = st.one_of(st.integers(0, 30).map(float), st.floats(0, 400))


@st.composite
def _scored_pose(draw) -> Pose:
    """A pose with random absent joints and a box that is inferred, explicit or zero-area."""
    present = draw(st.lists(st.booleans(), min_size=len(JOINTS), max_size=len(JOINTS)))
    keypoints = tuple(
        Keypoint(joint=j, x=draw(_coord), y=draw(_coord), confidence=1.0, present=p)
        for j, p in zip(JOINTS, present)
    )
    pose = Pose(keypoints=keypoints)
    kind = draw(st.sampled_from(("inferred", "explicit", "zero_area")))
    if kind == "inferred":
        try:
            bbox_from_keypoints(pose)
            return pose
        except DegenerateGeometryError:
            kind = "explicit"  # too few distinct points to infer a box
    x1, y1 = draw(_coord), draw(_coord)
    if kind == "zero_area":
        x2, y2 = x1 + draw(st.sampled_from((0.0, 5.0))), y1
    else:
        x2, y2 = x1 + draw(st.floats(1, 300)), y1 + draw(st.floats(1, 300))
    return replace(pose, bbox=BBox(x1, y1, x2, y2))


def _disjoint(pose: Pose) -> Pose:
    """The same pose with its presence flags flipped: no joint in common with the original."""
    flipped = tuple(replace(kp, present=not kp.present) for kp in pose.keypoints)
    return replace(pose, keypoints=flipped)


@given(
    st.lists(_scored_pose(), min_size=1, max_size=4),
    st.lists(_scored_pose(), max_size=4),
    st.one_of(
        st.floats(0.01, 2.0),
        st.lists(st.floats(0.01, 2.0), min_size=len(JOINTS), max_size=len(JOINTS)),
    ),
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0),
)
def test_similarity_matrix_matches_scalar_reference(track_poses, poses, kappa, w_iou, w_pose):
    if w_iou + w_pose <= 0.0:
        w_pose = 1.0
    config = TrackerConfig(w_iou=w_iou, w_pose=w_pose, kappa=kappa)
    poses = poses + [_disjoint(p) for p in track_poses if p.bbox is not None]
    tracks, candidates = pose_arrays(track_poses), pose_arrays(poses)
    kappa_vector = tracker._kappa_vector(config)
    matrix = similarity_matrix(tracks, candidates, kappa_vector, w_iou, w_pose)
    expected = reference_similarity_matrix(tracks, candidates, kappa_vector, w_iou, w_pose)
    assert matrix.shape == expected.shape == (len(track_poses), len(poses))
    np.testing.assert_allclose(matrix, expected, rtol=0.0, atol=1e-12)
    if poses:
        assert pose_similarity(track_poses[0], poses[0], config) == matrix[0, 0]


# exact values that make equal corners, and inexact ones whose sums round
_ORDINARY = st.sampled_from([0.0, 1.0, 2.5]) | st.integers(0, 10**4).map(lambda k: k / 97.0)
# and values whose areas, sums or squares leave the float range
_EXTREME = st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308]) | _ORDINARY


@st.composite
def _extreme_pose(draw) -> Pose:
    """A pose at ordinary or extreme coordinates, its box inferred, explicit or zero-area."""
    values = draw(st.sampled_from([_ORDINARY, _ORDINARY, _EXTREME]))
    present = draw(st.lists(st.booleans(), min_size=len(JOINTS), max_size=len(JOINTS)))
    xy = draw(st.lists(values, min_size=2 * len(JOINTS), max_size=2 * len(JOINTS)))
    keypoints = tuple(
        Keypoint(joint=j, x=xy[2 * k], y=xy[2 * k + 1], confidence=1.0, present=p)
        for k, (j, p) in enumerate(zip(JOINTS, present))
    )
    pose = Pose(keypoints=keypoints)
    kind = draw(st.sampled_from(("inferred", "explicit", "zero_area")))
    if kind == "inferred":
        try:
            oracles.bbox_from_keypoints(pose)
            return pose
        except DegenerateGeometryError:
            kind = "explicit"
    x1, x2 = sorted((draw(values), draw(values)))
    y1, y2 = sorted((draw(values), draw(values)))
    if kind == "zero_area":
        y2 = y1
    return replace(pose, bbox=BBox(x1, y1, x2, y2))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_extreme_pose(), min_size=1, max_size=4),
    st.lists(_extreme_pose(), max_size=4),
    st.sampled_from([0.1, 0.5, 1e-300, 1e300]),
    st.sampled_from([(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.3, 2.0)]),
)
def test_similarity_matrix_equals_the_array_oracle_bit_for_bit(track_poses, poses, kappa, weights):
    """The areas stacked once per sequence give the bits of areas taken from the corners."""
    tracks, candidates = pose_arrays(track_poses), pose_arrays(poses)
    kappa_vector = tracker._kappa_vector(TrackerConfig(kappa=kappa))
    try:
        expected = oracles.similarity_matrix(tracks, candidates, kappa_vector, *weights)
    except ContractError as exc:
        with pytest.raises(ContractError) as got:
            similarity_matrix(tracks, candidates, kappa_vector, *weights)
        assert str(got.value) == str(exc)
        return
    matrix = similarity_matrix(tracks, candidates, kappa_vector, *weights)
    assert np.array_equal(matrix, expected, equal_nan=True)
    assert np.array_equal(np.signbit(matrix), np.signbit(expected))


@pytest.mark.parametrize(
    "box_a, box_b, message",
    [
        (
            BBox(-1e308, 0.0, 1e308, 10.0),
            BBox(-1e308, 5.0, 1e308, 20.0),
            "the union of boxes (-1e+308, 0.0, 1e+308, 10.0) and (-1e+308, 5.0, 1e+308, 20.0) "
            "is beyond the float range",
        ),
        (
            BBox(0.0, 0.0, 1.5e154, 1e154),
            BBox(1.0, 2.0, 1.5e154, 1e154),
            "the union of boxes (0.0, 0.0, 1.5e+154, 1e+154) and (1.0, 2.0, 1.5e+154, 1e+154) "
            "is beyond the float range",
        ),
    ],
    ids=["infinite-area", "finite-areas-infinite-sum"],
)
def test_a_scored_union_beyond_the_float_range_is_a_contract_error(box_a, box_b, message):
    a = replace(template_pose((200, 200)), bbox=box_a)
    b = replace(template_pose((210, 200)), bbox=box_b)
    with pytest.raises(ContractError) as got:
        track_sequence(_sequence_of([[a], [b]]))
    assert str(got.value) == message


# ---------------------------------------------------------------------------
# assignment


def _bruteforce_min_cost(matrix: np.ndarray) -> float:
    n, m = matrix.shape
    best = None
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            cost = sum(matrix[r, c] for r, c in enumerate(cols))
            best = cost if best is None else min(best, cost)
    else:
        for rows in itertools.permutations(range(n), m):
            cost = sum(matrix[r, c] for c, r in enumerate(rows))
            best = cost if best is None else min(best, cost)
    return best


def _total(matrix, pairs):
    return sum(matrix[r, c] for r, c in pairs)


def test_assignment_two_by_two_example():
    matrix = np.array([[1.0, 2.0], [3.0, 1.0]])
    pairs = solve_assignment(matrix, "hungarian")
    assert pairs == [(0, 0), (1, 1)]
    assert _total(matrix, pairs) == 2.0


def test_assignment_single_cell():
    assert solve_assignment([[7.0]], "hungarian") == [(0, 0)]
    assert solve_assignment([[7.0]], "greedy") == [(0, 0)]


def test_assignment_empty():
    assert solve_assignment(np.zeros((0, 3)), "hungarian") == []
    assert solve_assignment(np.zeros((0, 3)), "greedy") == []


def test_greedy_tie_break_by_row_then_column():
    matrix = np.zeros((2, 2))
    assert solve_assignment(matrix, "greedy") == [(0, 0), (1, 1)]


def test_hungarian_optimal_and_no_worse_than_greedy():
    rng = np.random.default_rng(10)
    for _ in range(300):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        # dyadic costs make brute-force sums exact
        matrix = rng.integers(0, 2048, size=(n, m)) / 2048.0
        hung = solve_assignment(matrix, "hungarian")
        greedy = solve_assignment(matrix, "greedy")
        assert len(hung) == len(greedy) == min(n, m)
        assert _total(matrix, hung) == _bruteforce_min_cost(matrix)
        assert _total(matrix, hung) <= _total(matrix, greedy)


def test_assignment_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.inf]]), "hungarian")
    with pytest.raises(ValueError):
        solve_assignment(np.zeros((2, 2)), "other")


# ---------------------------------------------------------------------------
# sequence tracking


def _moving_person(n_frames: int, start=(200.0, 300.0), step=(1.0, 0.0)) -> list[Pose]:
    return [
        template_pose((start[0] + i * step[0], start[1] + i * step[1]))
        for i in range(n_frames)
    ]


def test_single_person_keeps_one_id():
    poses = _moving_person(10)
    seq = _sequence_of([[p] for p in poses])
    tracked = track_sequence(seq)
    ids = {frame.poses[0].track_id for frame in tracked.frames}
    assert ids == {0}


def test_first_frame_ids_in_input_order():
    seq = _sequence_of([[template_pose((200, 200)), template_pose((800, 200))]])
    tracked = track_sequence(seq)
    assert [p.track_id for p in tracked.frames[0].poses] == [0, 1]


def _gapped_sequence(gap: int) -> Sequence:
    """A person present at frames 0..1, absent for `gap` frames, then back."""
    frames = []
    pose = template_pose((300, 300))
    for i in range(2):
        frames.append(Frame(index=i, width=2000, height=2000, poses=(pose,)))
    for i in range(2, 2 + gap):
        frames.append(Frame(index=i, width=2000, height=2000, poses=()))
    frames.append(Frame(index=2 + gap, width=2000, height=2000, poses=(pose,)))
    return Sequence(name="gap", frames=tuple(frames))


def test_retention_window_keeps_id_within_window():
    # last seen at index 1, absent for 2 frames, back at index 4: distance 3
    config = TrackerConfig(retention_window=3)
    tracked = track_sequence(_gapped_sequence(gap=2), config)
    assert tracked.frames[-1].poses[0].track_id == 0


def test_retention_window_expiry_gives_fresh_id():
    config = TrackerConfig(retention_window=2)
    tracked = track_sequence(_gapped_sequence(gap=config.retention_window + 1), config)
    assert tracked.frames[-1].poses[0].track_id == 1


def test_retention_window_one_with_gap_two_cannot_continue():
    config = TrackerConfig(retention_window=1)
    tracked = track_sequence(_gapped_sequence(gap=1), config)  # index distance 2
    assert tracked.frames[-1].poses[0].track_id == 1


def test_tracking_rejects_preassigned_ids():
    seq = _sequence_of([[template_pose((200, 200), track_id=5)]])
    with pytest.raises(TrackingError):
        track_sequence(seq)


def test_ids_unique_within_frames_and_never_reused():
    rng = random.Random(1)
    frames = []
    for i in range(30):
        poses = []
        for person in range(3):
            if rng.random() < 0.3:
                continue  # drop out for a while
            poses.append(template_pose((150 + 400 * person + i, 300)))
        frames.append(poses)
    tracked = track_sequence(_sequence_of(frames), TrackerConfig(retention_window=2))
    seen_ids = []
    for frame in tracked.frames:
        ids = [p.track_id for p in frame.poses]
        assert len(ids) == len(set(ids))
        seen_ids.extend(ids)
    # monotone id issue: a discarded id never comes back with a later first use
    first_use = {}
    for frame in tracked.frames:
        for p in frame.poses:
            first_use.setdefault(p.track_id, frame.index)
    assert sorted(first_use, key=first_use.get) == sorted(first_use)


def test_tracking_is_deterministic():
    from topdown.model import save_predictions
    from topdown import synth

    out = synth.generate(synth.calibrated_benchmark_spec(n_frames=30))
    once = track_sequence(out.det)
    twice = track_sequence(out.det)
    assert once == twice
    assert save_predictions(once).encode() == save_predictions(twice).encode()


def test_greedy_and_hungarian_both_track_simple_scenes():
    poses = _moving_person(8)
    seq = _sequence_of([[p] for p in poses])
    for method in ("greedy", "hungarian"):
        tracked = track_sequence(seq, TrackerConfig(method=method))
        assert {f.poses[0].track_id for f in tracked.frames} == {0}


def test_greedy_equals_hungarian_on_unambiguous_scenes():
    """With well-separated persons both solvers produce identical tracks."""
    from topdown import synth

    for seed in (4, 5, 6):
        out = synth.generate(
            synth.calibrated_benchmark_spec(n_persons=3, n_frames=20, seed=seed, fp_rate=0.5)
        )
        greedy = track_sequence(out.det, TrackerConfig(method="greedy"))
        hungarian = track_sequence(out.det, TrackerConfig(method="hungarian"))
        assert greedy == hungarian


def test_crossing_persons_with_separated_lanes_have_zero_switches():
    """Two persons cross in x but live in distinct lanes: no id switches."""
    n = 50
    gt_frames = []
    for i in range(n):
        a = template_pose((100.0 + 8.0 * i, 200.0), track_id=0)
        b = template_pose((700.0 - 8.0 * i, 420.0), track_id=1)
        gt_frames.append([a, b])
    gt = _sequence_of(gt_frames, name="cross")
    det = _sequence_of(
        [[replace(p, track_id=None) for p in poses] for poses in gt_frames], name="cross"
    )
    tracked = track_sequence(det)
    report = evaluate_mot([tracked], [gt])
    assert report.total_counts.idsw == 0
    assert report.mota_total == 100.0


@pytest.mark.parametrize("method", ["greedy", "hungarian"])
def test_track_ids_equal_scalar_reference(monkeypatch, method):
    """The array kernel assigns exactly the ids the scalar scoring assigns."""
    config = TrackerConfig(method=method)
    specs = [synth.calibrated_benchmark_spec(n_frames=40, seed=seed) for seed in (0, 1, 2)]
    specs.append(synth.calibrated_benchmark_spec(n_persons=10, n_frames=12, seed=3))
    dets = [synth.generate(spec).det for spec in specs]
    fast = [save_predictions(track_sequence(det, config)) for det in dets]
    monkeypatch.setattr(tracker, "similarity_matrix", reference_similarity_matrix)
    slow = [save_predictions(track_sequence(det, config)) for det in dets]
    assert [s.encode() for s in fast] == [s.encode() for s in slow]


def test_similarity_matrix_called_once_per_scored_frame(monkeypatch):
    """One matrix per frame with active tracks and poses, never one call per pair."""
    shapes = []

    def counting(tracks, poses, *args):
        shapes.append((len(tracks.box), len(poses.box)))
        return similarity_matrix(tracks, poses, *args)

    monkeypatch.setattr(tracker, "similarity_matrix", counting)
    two = [template_pose((200, 200)), template_pose((800, 200))]
    frames = [two, two, [], [], [], two, [two[0]], two]
    track_sequence(_sequence_of(frames), TrackerConfig(retention_window=2))
    # frame 0: no tracks yet; 2-4: no poses; 5: both tracks expired (gap 4 > 2)
    assert shapes == [(2, 2), (2, 1), (2, 2)]


def test_a_pose_without_an_inferable_box_raises_once_it_is_scored():
    """Its error is the scalar rule's; a frame that scores nothing needs no box."""
    lone = points_pose({Joint.NOSE: (10.0, 10.0)})  # one present keypoint, no box
    flat = points_pose({Joint.NOSE: (10.0, 10.0), Joint.HEAD_TOP: (30.0, 10.0)})  # zero height
    person = template_pose((200, 200))
    for unboxable in (lone, flat):
        with pytest.raises(DegenerateGeometryError) as expected:
            oracles.bbox_from_keypoints(unboxable)
        # first frame, or no live track: nothing is scored
        tracked = track_sequence(_sequence_of([[unboxable, person], [], [], []]))
        assert [p.track_id for p in tracked.frames[0].poses] == [0, 1]
        # as a pose of a scored frame, and as the track of a frame scored later
        for frames in ([[person], [person, unboxable]], [[unboxable, person], [person]]):
            with pytest.raises(DegenerateGeometryError) as got:
                track_sequence(_sequence_of(frames))
            assert str(got.value) == str(expected.value)
