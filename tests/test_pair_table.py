"""The pair-table scorers against the plain per-keypoint loops they replaced.

``reference_match_poses_frame``, ``reference_evaluate_ap`` and
``reference_evaluate_mot`` are the scalar scorers: one ``math.hypot`` per
(prediction, ground truth, joint), Python dicts keyed by joint and group.
Reports must serialise to the same bytes as theirs.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import points_pose, template_pose
from topdown import pipeline, synth
from topdown.metrics import (
    ApReport,
    EvaluationError,
    MotCounts,
    MotReport,
    PckhThreshold,
    ap_reports,
    evaluate_ap,
    evaluate_mot,
    match_poses_frame,
    mot_reports,
    pair_table,
    reference_head_size,
)
from topdown.model import (
    GROUPS,
    JOINTS,
    BBox,
    Frame,
    Joint,
    Pose,
    Sequence,
    joint_group,
    pair_by_name,
)
from topdown.pipeline import PipelineConfig, SweepRow
from topdown.synth import noiseless_spec
from topdown.tracker import TrackerConfig, prune_sequence_keypoints

# ---------------------------------------------------------------------------
# scalar reference


def _radius(gt: Pose, t: PckhThreshold) -> float:
    return t.factor * reference_head_size(gt, t)


def _correct_count(pred: Pose, gt: Pose, radius: float) -> int:
    count = 0
    for pk, gk in zip(pred.keypoints, gt.keypoints):
        if gk.present and pk.present:
            if math.hypot(pk.x - gk.x, pk.y - gk.y) <= radius:
                count += 1
    return count


def reference_match_poses_frame(preds, gts, t=PckhThreshold()):
    if not preds or not gts:
        return []
    radii = [_radius(gt, t) for gt in gts]
    gt_present = [sum(1 for kp in gt.keypoints if kp.present) for gt in gts]
    correct = [[_correct_count(p, g, radii[gi]) for gi, g in enumerate(gts)] for p in preds]
    cost = [
        [
            1.0 - (correct[pi][gi] / gt_present[gi] if gt_present[gi] else 0.0)
            for gi in range(len(gts))
        ]
        for pi in range(len(preds))
    ]
    rows, cols = linear_sum_assignment(cost)
    return sorted(
        (pi, gi) for pi, gi in zip(rows.tolist(), cols.tolist()) if correct[pi][gi] > 0
    )


def _reference_matching(pred_seqs, gt_seqs, t):
    preds = sorted(pred_seqs, key=lambda s: s.name)
    return [
        (
            pred_seq,
            gt_seq,
            [
                reference_match_poses_frame(list(pf.poses), list(gf.poses), t)
                for pf, gf in zip(pred_seq.frames, gt_seq.frames)
            ],
        )
        for pred_seq, gt_seq in pair_by_name(preds, gt_seqs, "ground truth", EvaluationError)
    ]


def _reference_envelope_ap(records, n_gt):
    if n_gt == 0:
        return 100.0 if not records else 0.0
    if not records:
        return 0.0
    order = sorted(range(len(records)), key=lambda i: (-records[i][0], i))
    precisions = []
    tp_deltas = []
    tp = fp = 0
    for i in order:
        if records[i][1]:
            tp += 1
            tp_deltas.append(1)
        else:
            fp += 1
            tp_deltas.append(0)
        precisions.append(tp / (tp + fp))
    envelope = precisions[:]
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    weighted = sum(d * p for d, p in zip(tp_deltas, envelope))
    return 100.0 * weighted / n_gt


def _mean(values):
    return sum(values) / len(values)


def reference_evaluate_ap(pred_seqs, gt_seqs, t=PckhThreshold()):
    records = {j: [] for j in JOINTS}
    n_gt = {j: 0 for j in JOINTS}
    for pred_seq, gt_seq, frame_matches in _reference_matching(pred_seqs, gt_seqs, t):
        for pred_frame, gt_frame, matches in zip(pred_seq.frames, gt_seq.frames, frame_matches):
            for gt in gt_frame.poses:
                for kp in gt.keypoints:
                    if kp.present:
                        n_gt[kp.joint] += 1
            matched_preds = {pi for pi, _ in matches}
            for pi, gi in matches:
                gt = gt_frame.poses[gi]
                radius = _radius(gt, t)
                for pk, gk in zip(pred_frame.poses[pi].keypoints, gt.keypoints):
                    if not pk.present:
                        continue
                    hit = gk.present and math.hypot(pk.x - gk.x, pk.y - gk.y) <= radius
                    records[pk.joint].append((pk.confidence, hit))
            for pi, pred in enumerate(pred_frame.poses):
                if pi in matched_preds:
                    continue
                for pk in pred.keypoints:
                    if pk.present:
                        records[pk.joint].append((pk.confidence, False))
    per_joint = {j: _reference_envelope_ap(records[j], n_gt[j]) for j in JOINTS}
    per_group = {
        g: _mean([per_joint[j] for j in JOINTS if joint_group(j) is g]) for g in GROUPS
    }
    total = _mean(list(per_joint.values()))
    return ApReport(per_joint=per_joint, per_group=per_group, total=total)


def _reference_require_track_ids(seq, role):
    for frame, pose in seq.iter_poses():
        if pose.track_id is None:
            raise EvaluationError(
                f"{role} sequence {seq.name!r} frame {frame.index}: pose lacks a track id"
            )


def reference_evaluate_mot(pred_seqs, gt_seqs, t=PckhThreshold()):
    preds = sorted(pred_seqs, key=lambda s: s.name)
    for pred_seq, gt_seq in pair_by_name(preds, gt_seqs, "ground truth", EvaluationError):
        _reference_require_track_ids(pred_seq, "prediction")
        _reference_require_track_ids(gt_seq, "ground-truth")
    counts = {g: MotCounts() for g in GROUPS}
    motp_sum = 0.0
    for pred_seq, gt_seq, frame_matches in _reference_matching(pred_seqs, gt_seqs, t):
        last_pred_id = {}
        for pred_frame, gt_frame, matches in zip(pred_seq.frames, gt_seq.frames, frame_matches):
            for gt in gt_frame.poses:
                for kp in gt.keypoints:
                    if kp.present:
                        counts[joint_group(kp.joint)].gt += 1
            matched_preds = {pi for pi, _ in matches}
            matched_gts = {gi for _, gi in matches}
            for pi, gi in matches:
                pred = pred_frame.poses[pi]
                gt = gt_frame.poses[gi]
                radius = _radius(gt, t)
                for pk, gk in zip(pred.keypoints, gt.keypoints):
                    group = joint_group(pk.joint)
                    if gk.present:
                        distance = math.hypot(pk.x - gk.x, pk.y - gk.y)
                        if pk.present and distance <= radius:
                            counts[group].matches += 1
                            motp_sum += 1.0 - distance / radius
                            key = (gt.track_id, pk.joint)
                            previous = last_pred_id.get(key)
                            if previous is not None and previous != pred.track_id:
                                counts[group].idsw += 1
                            last_pred_id[key] = pred.track_id
                        else:
                            counts[group].fn += 1
                            if pk.present:
                                counts[group].fp += 1
                    elif pk.present:
                        counts[group].fp += 1
            for pi, pred in enumerate(pred_frame.poses):
                if pi in matched_preds:
                    continue
                for pk in pred.keypoints:
                    if pk.present:
                        counts[joint_group(pk.joint)].fp += 1
            for gi, gt in enumerate(gt_frame.poses):
                if gi in matched_gts:
                    continue
                for gk in gt.keypoints:
                    if gk.present:
                        counts[joint_group(gk.joint)].fn += 1
    total = MotCounts(
        gt=sum(c.gt for c in counts.values()),
        matches=sum(c.matches for c in counts.values()),
        fp=sum(c.fp for c in counts.values()),
        fn=sum(c.fn for c in counts.values()),
        idsw=sum(c.idsw for c in counts.values()),
    )
    mota_total = total.mota()
    if mota_total is None:
        raise EvaluationError("no ground-truth keypoints to evaluate against")
    motp_total = 100.0 * motp_sum / total.matches if total.matches else 0.0
    precision_total = (
        100.0 * total.matches / (total.matches + total.fp) if total.matches + total.fp else 100.0
    )
    recall_total = (
        100.0 * total.matches / (total.matches + total.fn) if total.matches + total.fn else 100.0
    )
    return MotReport(
        counts=counts,
        total_counts=total,
        mota={g: counts[g].mota() for g in GROUPS},
        mota_total=mota_total,
        motp_total=motp_total,
        precision_total=precision_total,
        recall_total=recall_total,
    )


# ---------------------------------------------------------------------------
# helpers


def _text(report) -> str:
    return json.dumps(report.to_dict(), indent=2)


def _assert_same_reports(preds, gts, t=PckhThreshold(), mot=True):
    assert _text(evaluate_ap(preds, gts, t)) == _text(reference_evaluate_ap(preds, gts, t))
    if mot:
        assert _text(evaluate_mot(preds, gts, t)) == _text(reference_evaluate_mot(preds, gts, t))


def _assert_same_reports_per_value(preds, gts, values, t=PckhThreshold()):
    """Reports of all ``values`` scored together equal the reference on ``preds`` pruned at each."""
    table = pair_table(preds, gts, t)
    matchings = [table.match(value) for value in values]
    aps, mots = ap_reports(matchings), mot_reports(matchings)
    assert len(aps) == len(mots) == len(values)
    for value, ap, mot in zip(values, aps, mots):
        pruned = preds if value is None else [prune_sequence_keypoints(s, value) for s in preds]
        assert _text(ap) == _text(reference_evaluate_ap(pruned, gts, t))
        assert _text(mot) == _text(reference_evaluate_mot(pruned, gts, t))
    return mots


def _seq(poses_per_frame, name="seq") -> Sequence:
    return Sequence(
        name=name,
        frames=tuple(
            Frame(index=i, width=4000, height=4000, poses=tuple(ps))
            for i, ps in enumerate(poses_per_frame)
        ),
    )


def _moved(pose: Pose, joint: Joint, x: float, y: float, **changes) -> Pose:
    keypoints = list(pose.keypoints)
    keypoints[joint.index] = replace(keypoints[joint.index], x=x, y=y)
    return replace(pose, keypoints=tuple(keypoints), **changes)


# ---------------------------------------------------------------------------
# properties


def _generated(spec, seed, persons, frames):
    a = synth.generate(spec(n_persons=persons, n_frames=frames, seed=seed))
    b = synth.generate(spec(n_persons=2, n_frames=3, seed=seed + 1))
    return [a.det, replace(b.det, name="second")], [replace(b.gt, name="second"), a.gt]


@settings(max_examples=30)
@given(
    spec=st.sampled_from([synth.calibrated_benchmark_spec, noiseless_spec]),
    seed=st.integers(0, 10_000),
    persons=st.integers(1, 4),
    frames=st.integers(1, 6),
    threshold=st.sampled_from([0.0, 0.5, 0.85, 1.0]) | st.floats(0, 1),
    values=st.lists(st.floats(0, 1), min_size=1, max_size=3),
    method=st.sampled_from(["hungarian", "greedy"]),
    factor=st.sampled_from([0.5, 0.2, 1.5]),
)
def test_table_reports_equal_the_scalar_reference_byte_for_byte(
    spec, seed, persons, frames, threshold, values, method, factor
):
    dets, gts = _generated(spec, seed, persons, frames)
    pckh = PckhThreshold(factor=factor)
    config = PipelineConfig(
        keypoint_drop_threshold=threshold, tracker=TrackerConfig(method=method), pckh=pckh
    )
    result = pipeline.run_pipeline(dets, gts, config)
    tracked = list(result.tracked)
    assert _text(result.ap) == _text(reference_evaluate_ap(tracked, gts, pckh))
    assert _text(result.mot) == _text(reference_evaluate_mot(tracked, gts, pckh))
    _assert_same_reports(tracked, gts, pckh)
    # every other value as a presence mask on the same table
    for value in values:
        pruned = [prune_sequence_keypoints(seq, value) for seq in tracked]
        matching = [result.table.match(value)]
        assert _text(ap_reports(matching)[0]) == _text(reference_evaluate_ap(pruned, gts, pckh))
        assert _text(mot_reports(matching)[0]) == _text(reference_evaluate_mot(pruned, gts, pckh))
    # a sweep whose lowest value is the run's threshold scores the same tracked output
    sweep_values = [threshold] + [max(v, threshold) for v in values]
    for row in pipeline.sweep(dets, gts, config, "keypoint_threshold", sweep_values):
        pruned = [prune_sequence_keypoints(seq, row.value) for seq in tracked]
        assert row == SweepRow(
            value=row.value,
            ap_total=reference_evaluate_ap(pruned, gts, pckh).total,
            mota_total=reference_evaluate_mot(pruned, gts, pckh).mota_total,
        )
    for det, gt in zip(sorted(tracked, key=lambda s: s.name), sorted(gts, key=lambda s: s.name)):
        for pf, gf in zip(det.frames, gt.frames):
            assert match_poses_frame(list(pf.poses), list(gf.poses), pckh) == (
                reference_match_poses_frame(list(pf.poses), list(gf.poses), pckh)
            )


@settings(max_examples=30)
@given(
    spec=st.sampled_from([synth.calibrated_benchmark_spec, noiseless_spec]),
    seed=st.integers(0, 10_000),
    persons=st.integers(1, 4),
    frames=st.integers(1, 6),
    values=st.lists(
        st.none() | st.sampled_from([0.0, 0.5, 0.85, 1.0]) | st.floats(0, 1),
        min_size=1,
        max_size=5,
    ),
    factor=st.sampled_from([0.5, 0.2, 1.5]),
)
def test_reports_scored_together_equal_the_scalar_reference_per_value(
    spec, seed, persons, frames, values, factor
):
    dets, gts = _generated(spec, seed, persons, frames)
    pckh = PckhThreshold(factor=factor)
    tracked = list(pipeline.run_pipeline(dets, gts, PipelineConfig(pckh=pckh)).tracked)
    # unsorted, with a repeat, plus no pruning and both ends of the range
    _assert_same_reports_per_value(tracked, gts, values + [None, 1.0, values[0], 0.0], pckh)


def test_reports_scored_together_count_each_values_id_switches():
    # test_duplicate_ground_truth_track_ids_in_one_frame's frames; prediction 2 is
    # less confident in even frames, so at 0.7 each joint's hits go 1 12 1 12 (3 switches)
    # where with both kept they go 2 1 1 2 2 1 1 2 (4)
    frames_gt, frames_pred = [], []
    for i in range(4):
        a = template_pose((300.0, 300.0), track_id=0)
        b = template_pose((900.0, 300.0), track_id=0)
        frames_gt.append([a, b])
        pred_a = replace(template_pose((300.0, 300.0), confidence=0.8), track_id=1)
        pred_b = replace(
            template_pose((900.0, 300.0), confidence=0.6 if i % 2 == 0 else 0.9), track_id=2
        )
        frames_pred.append([pred_b, pred_a] if i % 2 == 0 else [pred_a, pred_b])
    preds, gts = [_seq(frames_pred)], [_seq(frames_gt)]
    mots = _assert_same_reports_per_value(preds, gts, [0.7, None, 0.5, 1.0, 0.0, 0.7])
    assert [m.total_counts.idsw for m in mots] == [
        3 * len(JOINTS), 4 * len(JOINTS), 4 * len(JOINTS), 0, 4 * len(JOINTS), 3 * len(JOINTS)
    ]
    # a table without predictions
    _assert_same_reports_per_value([_seq([[]] * 4)], gts, [None, 0.5])


def test_match_poses_frame_equals_reference_on_random_frames():
    rng = random.Random(5)
    for _ in range(60):
        gts = [
            template_pose((rng.uniform(100, 900), rng.uniform(100, 900)), track_id=i)
            for i in range(rng.randint(1, 4))
        ]
        preds = []
        for _ in range(rng.randint(1, 5)):
            base = rng.choice(gts)
            keypoints = tuple(
                replace(
                    kp,
                    x=kp.x + rng.gauss(0, 6),
                    y=kp.y + rng.gauss(0, 6),
                    present=rng.random() < 0.8,
                )
                for kp in base.keypoints
            )
            preds.append(replace(base, keypoints=keypoints, track_id=None))
        assert match_poses_frame(preds, gts) == reference_match_poses_frame(preds, gts)


# ---------------------------------------------------------------------------
# crafted cases


def test_joint_exactly_at_the_radius_is_a_hit():
    # head size 10, so the radius is 5 at factor 0.5: the wrist is off by (3, 4)
    gt = points_pose(
        {
            Joint.HEAD_TOP: (100.0, 100.0),
            Joint.HEAD_BOTTOM: (100.0, 110.0),
            Joint.LEFT_WRIST: (200.0, 200.0),
            Joint.RIGHT_WRIST: (300.0, 200.0),
        },
        track_id=0,
    )
    preds, gts = [_seq([[_moved(gt, Joint.LEFT_WRIST, 203.0, 204.0)]])], [_seq([[gt]])]
    report = evaluate_mot(preds, gts)
    assert report.total_counts.matches == 4 and report.total_counts.fp == 0
    _assert_same_reports(preds, gts)


def _hypot_disagreement() -> tuple[float, float]:
    """Offsets at which ``np.hypot`` gives a longer distance than ``math.hypot``."""
    rng = random.Random(3)
    while True:
        dx, dy = rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)
        if float(np.hypot(dx, dy)) > math.hypot(dx, dy):
            return dx, dy


def test_hit_test_agrees_with_math_hypot_where_np_hypot_does_not():
    dx, dy = _hypot_disagreement()
    # head size clamps to min_head_size, so the radius is math.hypot's distance
    t = PckhThreshold(factor=1.0, min_head_size=math.hypot(dx, dy))
    gt = points_pose(
        {
            Joint.HEAD_TOP: (100.0, 100.0),
            Joint.HEAD_BOTTOM: (100.0, 100.5),
            Joint.LEFT_WRIST: (0.0, 0.0),
        },
        track_id=0,
    )
    pred = _moved(gt, Joint.LEFT_WRIST, dx, dy)
    preds, gts = [_seq([[pred]])], [_seq([[gt]])]
    assert evaluate_mot(preds, gts, t).total_counts.matches == 3
    _assert_same_reports(preds, gts, t)
    # and a radius one ulp below the distance misses it
    below = PckhThreshold(factor=1.0, min_head_size=math.nextafter(math.hypot(dx, dy), 0.0))
    assert evaluate_mot(preds, gts, below).total_counts.matches == 2
    _assert_same_reports(preds, gts, below)


def test_confidence_ties_across_frames_keep_record_order():
    gt_a = template_pose((300.0, 300.0), track_id=0)
    gt_b = template_pose((900.0, 300.0), track_id=1)
    far = template_pose((2500.0, 2500.0), confidence=0.5, track_id=7)
    hit = replace(template_pose((300.0, 300.0), confidence=0.5), track_id=3)
    miss = replace(template_pose((910.0, 320.0), confidence=0.5), track_id=4)
    frames_pred = [[miss, hit], [far, hit], [hit, far, miss], []]
    frames_gt = [[gt_a, gt_b], [gt_a], [gt_b, gt_a], [gt_a]]
    preds, gts = [_seq(frames_pred)], [_seq(frames_gt)]
    _assert_same_reports(preds, gts)


def test_frames_without_predictions_or_ground_truth():
    gt = template_pose((300.0, 300.0), track_id=0)
    pred = replace(template_pose((302.0, 301.0), confidence=0.7), track_id=5)
    preds = [_seq([[], [pred], [pred], []]), _seq([[pred], []], name="b")]
    gts = [_seq([[gt], [], [gt], []]), _seq([[], [gt]], name="b")]
    _assert_same_reports(preds, gts)
    table = pair_table(preds, gts)
    assert len(table.pair_pred) == 1  # only one frame holds both


def test_ground_truth_pose_without_present_joints():
    empty = points_pose({}, bbox=BBox(0.0, 0.0, 50.0, 80.0), track_id=1)
    gt = template_pose((300.0, 300.0), track_id=0)
    pred = replace(template_pose((301.0, 300.0), confidence=0.9), track_id=2)
    preds, gts = [_seq([[pred], [pred]])], [_seq([[empty, gt], [empty]])]
    _assert_same_reports(preds, gts)


def test_degenerate_ground_truth_raises_only_in_a_frame_with_predictions():
    degenerate = points_pose({Joint.LEFT_WRIST: (10.0, 10.0)}, track_id=1)
    gt = template_pose((300.0, 300.0), track_id=0)
    pred = replace(template_pose((301.0, 300.0), confidence=0.9), track_id=2)
    preds, gts = [_seq([[pred], []])], [_seq([[gt], [degenerate]])]
    _assert_same_reports(preds, gts)
    preds = [_seq([[pred], [pred]])]
    for scorer in (evaluate_ap, evaluate_mot, reference_evaluate_ap, reference_evaluate_mot):
        with pytest.raises(EvaluationError, match="cannot derive a head size"):
            scorer(preds, gts)


def test_duplicate_ground_truth_track_ids_in_one_frame():
    # both gt poses carry track 0; predictions 1 and 2 alternate their order in
    # the frame, so taking hits by prediction index gives 2 1 1 2 2 1 1 2 for
    # each joint (4 switches) where ground-truth order would give 1 2 1 2 ... (7)
    frames_gt, frames_pred = [], []
    for i in range(4):
        a = template_pose((300.0, 300.0), track_id=0)
        b = template_pose((900.0, 300.0), track_id=0)
        frames_gt.append([a, b])
        pred_a, pred_b = replace(a, track_id=1), replace(b, track_id=2)
        frames_pred.append([pred_b, pred_a] if i % 2 == 0 else [pred_a, pred_b])
    preds, gts = [_seq(frames_pred)], [_seq(frames_gt)]
    assert evaluate_mot(preds, gts).total_counts.idsw == 4 * len(JOINTS)
    _assert_same_reports(preds, gts)


def test_missing_prediction_track_id_wins_over_a_radius_error():
    degenerate = points_pose({Joint.LEFT_WRIST: (10.0, 10.0)}, track_id=1)
    pred = template_pose((301.0, 300.0), confidence=0.9)  # no track id
    preds, gts = [_seq([[pred]])], [_seq([[degenerate]])]
    for scorer in (evaluate_mot, reference_evaluate_mot):
        with pytest.raises(EvaluationError, match="lacks a track id"):
            scorer(preds, gts)
