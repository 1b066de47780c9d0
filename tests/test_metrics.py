"""AP and tracking metrics against hand counts and exhaustive oracles."""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import pytest

from conftest import points_pose, template_pose
from topdown.metrics import (
    EvaluationError,
    PckhThreshold,
    evaluate_ap,
    evaluate_mot,
    head_size,
    match_poses_frame,
    reference_head_size,
)
from topdown.model import (
    BBox,
    Frame,
    GROUPS,
    JOINTS,
    Joint,
    Pose,
    Sequence,
    joint_group,
    strip_track_ids,
)


def _seq(poses_per_frame, name="seq", size=(4000, 4000)) -> Sequence:
    return Sequence(
        name=name,
        frames=tuple(
            Frame(index=i, width=size[0], height=size[1], poses=tuple(ps))
            for i, ps in enumerate(poses_per_frame)
        ),
    )


# ---------------------------------------------------------------------------
# head size


def test_head_size_distance():
    pose = points_pose({Joint.HEAD_TOP: (0, 0), Joint.HEAD_BOTTOM: (0, 10)})
    assert head_size(pose) == 10.0


def test_head_size_clamped_below():
    pose = points_pose({Joint.HEAD_TOP: (5, 5), Joint.HEAD_BOTTOM: (5, 5)})
    assert head_size(pose) == 1.0


def test_head_size_requires_head_keypoints():
    with pytest.raises(EvaluationError):
        head_size(points_pose({Joint.NOSE: (0, 0)}))


def test_reference_head_size_bbox_fallback():
    headless = points_pose(
        {Joint.LEFT_WRIST: (10, 10)}, bbox=BBox(0.0, 0.0, 60.0, 80.0)
    )
    assert reference_head_size(headless) == pytest.approx(30.0)


def test_reference_head_size_infers_box_when_absent():
    headless = points_pose({Joint.LEFT_WRIST: (0, 0), Joint.RIGHT_WRIST: (60, 80)})
    # inferred box is enlarged 20%: diagonal 120, head size 36
    assert reference_head_size(headless) == pytest.approx(36.0)


def test_reference_head_size_error_when_underivable():
    with pytest.raises(EvaluationError):
        reference_head_size(points_pose({Joint.LEFT_WRIST: (10, 10)}))


# ---------------------------------------------------------------------------
# frame matching


def test_match_identical_frames_is_perfect():
    poses = [template_pose((200, 200)), template_pose((900, 200))]
    matches = match_poses_frame(poses, poses)
    assert matches == [(0, 0), (1, 1)]


def test_match_empty_predictions():
    assert match_poses_frame([], [template_pose((100, 100))]) == []


def _correct_total(preds, gts, pairs, t=PckhThreshold()) -> int:
    total = 0
    for pi, gi in pairs:
        radius = t.factor * reference_head_size(gts[gi], t)
        for pk, gk in zip(preds[pi].keypoints, gts[gi].keypoints):
            if pk.present and gk.present and math.hypot(pk.x - gk.x, pk.y - gk.y) <= radius:
                total += 1
    return total


def test_match_equals_exhaustive_permutation_oracle():
    rng = random.Random(0)
    for _ in range(40):
        gts = [
            template_pose((rng.uniform(100, 900), rng.uniform(100, 900)))
            for _ in range(3)
        ]
        preds = []
        for gt in gts:
            if rng.random() < 0.8:
                jitter = rng.uniform(0, 12)
                center = (gt.keypoint(Joint.NOSE).x + jitter, gt.keypoint(Joint.NOSE).y)
                preds.append(template_pose((center[0], center[1] + 40.0)))
        rng.shuffle(preds)
        pairs = match_poses_frame(preds, gts)
        achieved = _correct_total(preds, gts, pairs)
        best = 0
        n = min(len(preds), len(gts))
        for subset in itertools.permutations(range(len(gts)), n):
            best = max(best, _correct_total(preds, gts, list(enumerate(subset))))
        assert achieved == best


# ---------------------------------------------------------------------------
# AP


def _two_person_scene(n_frames=3):
    frames = []
    for i in range(n_frames):
        frames.append(
            [
                template_pose((200.0 + i, 300.0), track_id=0),
                template_pose((900.0, 300.0 + i), track_id=1),
            ]
        )
    return _seq(frames)


def test_ap_perfect_predictor_scores_100_everywhere():
    gt = _two_person_scene()
    report = evaluate_ap([strip_track_ids(gt)], [gt])
    assert report.total == 100.0
    assert all(v == 100.0 for v in report.per_group.values())
    assert all(v == 100.0 for v in report.per_joint.values())


def test_ap_zero_predictions_scores_zero():
    gt = _two_person_scene()
    empty = _seq([[] for _ in gt.frames])
    report = evaluate_ap([empty], [gt])
    assert report.total == 0.0
    assert all(v == 0.0 for v in report.per_group.values())


def test_ap_hand_computed_staircase():
    """Three ranked wrist predictions (TP, FP, TP) over two ground truths."""
    radius_box = BBox(-30.0, -40.0, 30.0, 40.0)  # diagonal 100 -> head size 30, radius 15

    def gt_at(x):
        return points_pose(
            {Joint.LEFT_WRIST: (x, 0.0)},
            bbox=BBox(x - 30.0, -40.0, x + 30.0, 40.0),
            track_id=0,
        )

    gts = [gt_at(0.0), replace(gt_at(1000.0), track_id=1)]
    preds = [
        points_pose({Joint.LEFT_WRIST: (0.0, 0.0)}, confidences={Joint.LEFT_WRIST: 0.9}),
        points_pose({Joint.LEFT_WRIST: (5000.0, 5000.0)}, confidences={Joint.LEFT_WRIST: 0.8}),
        points_pose({Joint.LEFT_WRIST: (1000.0, 0.0)}, confidences={Joint.LEFT_WRIST: 0.7}),
    ]
    report = evaluate_ap([_seq([preds])], [_seq([gts])])
    # ranked: TP(0.9) p=1, FP(0.8) p=1/2, TP(0.7) p=2/3; envelope AP = (1 + 2/3)/2
    assert report.per_joint[Joint.LEFT_WRIST] == pytest.approx(100.0 * 5.0 / 6.0, abs=1e-9)


def test_ap_monotone_under_adding_correct_top_prediction():
    gt = _two_person_scene()
    # miss person 1 entirely
    partial = _seq([[poses[0]] for poses in (f.poses for f in strip_track_ids(gt).frames)])
    before = evaluate_ap([partial], [gt])
    completed = _seq(
        [list(pf.poses) + [replace(gf.poses[1], track_id=None)] for pf, gf in zip(partial.frames, gt.frames)]
    )
    after = evaluate_ap([completed], [gt])
    for joint in JOINTS:
        assert after.per_joint[joint] >= before.per_joint[joint]
    assert after.total > before.total


def test_ap_removing_one_joints_predictions_zeroes_only_it():
    gt = _two_person_scene()
    preds = strip_track_ids(gt)
    target = Joint.LEFT_ANKLE

    def drop_joint(pose: Pose) -> Pose:
        return replace(
            pose,
            keypoints=tuple(
                replace(kp, present=False) if kp.joint is target else kp
                for kp in pose.keypoints
            ),
        )

    without = _seq([[drop_joint(p) for p in f.poses] for f in preds.frames])
    before = evaluate_ap([preds], [gt])
    after = evaluate_ap([without], [gt])
    assert after.per_joint[target] == 0.0
    for joint in JOINTS:
        if joint is not target:
            assert after.per_joint[joint] == before.per_joint[joint]


def test_ap_alignment_errors():
    gt = _two_person_scene()
    other = replace(strip_track_ids(gt), name="elsewhere")
    with pytest.raises(EvaluationError):
        evaluate_ap([other], [gt])
    with pytest.raises(EvaluationError):
        evaluate_ap([], [gt])


@pytest.mark.parametrize("evaluate", [evaluate_ap, evaluate_mot])
def test_duplicate_sequence_names_rejected(evaluate):
    a = _two_person_scene(3)
    # same name and frame indices as ``a``, other poses: a sort-and-zip pairing
    # would score a against b without noticing
    b = _seq([[template_pose((500.0, 300.0), track_id=0)] for _ in range(3)])
    with pytest.raises(EvaluationError, match="duplicate"):
        evaluate([a, b], [b, a])


# ---------------------------------------------------------------------------
# MOT


def test_mot_perfect_tracker():
    gt = _two_person_scene(5)
    report = evaluate_mot([gt], [gt])
    assert report.mota_total == 100.0
    assert report.motp_total == 100.0
    assert all(v == 100.0 for v in report.mota.values())
    assert report.total_counts.fp == report.total_counts.fn == report.total_counts.idsw == 0
    assert report.precision_total == 100.0 and report.recall_total == 100.0


def test_mot_no_predictions():
    gt = _two_person_scene(4)
    empty = _seq([[] for _ in gt.frames])
    report = evaluate_mot([empty], [gt])
    assert report.mota_total == 0.0
    assert report.recall_total == 0.0
    assert report.total_counts.fn == report.total_counts.gt


def test_mot_requires_track_ids():
    gt = _two_person_scene(2)
    with pytest.raises(EvaluationError):
        evaluate_mot([strip_track_ids(gt)], [gt])


def test_mot_id_swap_counts_by_joint():
    n = 10
    swap_at = 5
    gt_frames, pred_frames = [], []
    for i in range(n):
        a = template_pose((200.0, 300.0), track_id=0)
        b = template_pose((900.0, 300.0), track_id=1)
        gt_frames.append([a, b])
        if i < swap_at:
            pred_frames.append([a, b])
        else:
            pred_frames.append([replace(a, track_id=1), replace(b, track_id=0)])
    report = evaluate_mot([_seq(pred_frames)], [_seq(gt_frames)])
    assert report.total_counts.idsw == 2 * len(JOINTS)
    for group in GROUPS:
        members = sum(1 for j in JOINTS if joint_group(j) is group)
        counts = report.counts[group]
        assert counts.idsw == 2 * members
        # MOTA decomposition holds per group
        expected = 100.0 * (1.0 - (counts.fn + counts.fp + counts.idsw) / counts.gt)
        assert report.mota[group] == pytest.approx(expected, abs=1e-9)
    assert report.mota_total == pytest.approx(
        100.0 * (1.0 - 2.0 * len(JOINTS) / (2.0 * len(JOINTS) * n)), abs=1e-9
    )


def test_mota_can_go_negative_with_fp_flood():
    gt = _two_person_scene(3)
    flooded_frames = []
    for f in strip_track_ids(gt).frames:
        extras = [template_pose((2000.0 + 300.0 * k, 2000.0)) for k in range(4)]
        flooded_frames.append(list(f.poses) + extras)
    flooded = _seq(flooded_frames)
    from topdown.tracker import track_sequence

    report = evaluate_mot([track_sequence(flooded)], [gt])
    assert report.mota_total < 0.0


def _reference_interpolated_ap(records, n_gt):
    """Independent all-point interpolation on numpy arrays (recall-delta form)."""
    import numpy as np

    if n_gt == 0 or not records:
        return 0.0 if records or n_gt else 100.0
    ordered = sorted(range(len(records)), key=lambda i: (-records[i][0], i))
    hits = np.array([1.0 if records[i][1] else 0.0 for i in ordered])
    tp = np.cumsum(hits)
    fp = np.cumsum(1.0 - hits)
    recall = np.concatenate(([0.0], tp / n_gt))
    precision = np.concatenate(([1.0], tp / (tp + fp)))
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    return 100.0 * float(np.sum((recall[1:] - recall[:-1]) * precision[1:]))


def test_envelope_ap_matches_independent_reference():
    import random as rnd

    from topdown.metrics import _envelope_ap

    rng = rnd.Random(11)
    for _ in range(500):
        n_records = rng.randint(0, 30)
        records = [(rng.random(), rng.random() < 0.5) for _ in range(n_records)]
        n_gt = max(sum(1 for _, hit in records if hit), rng.randint(0, 10))
        assert _envelope_ap(records, n_gt) == pytest.approx(
            _reference_interpolated_ap(records, n_gt), abs=1e-9
        )


def test_mot_idsw_on_reappearance_after_retention_expiry():
    """A tracker-side fresh id after an occlusion gap scores one switch per joint."""
    from topdown.tracker import TrackerConfig, track_sequence

    window = 2
    present = [0, 1, 2] + [6, 7]  # absent for 3 frames: beyond the window
    gt_frames, det_frames = [], []
    for index in range(8):
        if index in present:
            gt_frames.append(
                Frame(index=index, width=2000, height=2000,
                      poses=(template_pose((300.0 + index, 300.0), track_id=0),))
            )
            det_frames.append(
                Frame(index=index, width=2000, height=2000,
                      poses=(template_pose((300.0 + index, 300.0)),))
            )
        else:
            gt_frames.append(Frame(index=index, width=2000, height=2000, poses=()))
            det_frames.append(Frame(index=index, width=2000, height=2000, poses=()))
    gt = Sequence(name="gap", frames=tuple(gt_frames))
    det = Sequence(name="gap", frames=tuple(det_frames))
    tracked = track_sequence(det, TrackerConfig(retention_window=window))
    assert tracked.frames[6].poses[0].track_id == 1  # fresh id after expiry
    report = evaluate_mot([tracked], [gt])
    assert report.total_counts.idsw == len(JOINTS)
    assert report.total_counts.fp == report.total_counts.fn == 0
    expected_mota = 100.0 * (1.0 - len(JOINTS) / (len(present) * len(JOINTS)))
    assert report.mota_total == pytest.approx(expected_mota, abs=1e-9)


def test_motp_reflects_localization_error():
    gt = _two_person_scene(1)
    # shift every keypoint by 3px; head size is 14 (scale 100), radius 7
    shifted_frames = []
    for f in strip_track_ids(gt).frames:
        shifted_frames.append(
            [
                replace(
                    p,
                    keypoints=tuple(replace(kp, x=kp.x + 3.0) for kp in p.keypoints),
                )
                for p in f.poses
            ]
        )
    from topdown.tracker import track_sequence

    report = evaluate_mot([track_sequence(_seq(shifted_frames))], [gt])
    radius = 0.5 * 14.0
    assert report.motp_total == pytest.approx(100.0 * (1.0 - 3.0 / radius), rel=1e-6)
    assert report.mota_total == 100.0
