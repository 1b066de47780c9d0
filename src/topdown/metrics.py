"""Per-joint-group scoring: average precision and CLEAR-style tracking metrics.

The correctness criterion is head-size relative: a predicted keypoint is
correct when it lies within ``factor * head_size`` of its ground-truth
location, with the head size measured between the top-head and bottom-head
keypoints.  Ground-truth poses without both head keypoints fall back to 0.3x
the box diagonal; this keypoint-distance surrogate (annotated head boxes are
not part of the data model) and every other constant live in
:class:`PckhThreshold`, so the protocol is complete, self-consistent and
reproducible with nothing but this module.

Reports expose raw counts next to the derived percentages so every number can
be recomputed from its parts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import linear_sum_assignment

from .geometry import DegenerateGeometryError, with_box
from .model import (
    GROUPS,
    JOINTS,
    EvalGroup,
    Joint,
    Pose,
    Sequence,
    joint_group,
    pair_by_name,
)

GROUP_COLUMNS: tuple[str, ...] = tuple(g.value for g in GROUPS) + ("Total",)


class EvaluationError(ValueError):
    """Inputs violate an evaluation precondition."""


@dataclass(frozen=True, slots=True)
class PckhThreshold:
    """Distance-normalization constants for the correctness criterion."""

    factor: float = 0.5
    min_head_size: float = 1.0
    bbox_diag_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.factor <= 0.0:
            raise ValueError(f"factor must be positive, got {self.factor!r}")
        if self.min_head_size <= 0.0:
            raise ValueError(f"min_head_size must be positive, got {self.min_head_size!r}")


def head_size(pose: Pose, t: PckhThreshold = PckhThreshold()) -> float:
    """Distance between the head keypoints, clamped below by ``min_head_size``."""
    top = pose.keypoint(Joint.HEAD_TOP)
    bottom = pose.keypoint(Joint.HEAD_BOTTOM)
    if not (top.present and bottom.present):
        raise EvaluationError("pose is missing a head keypoint")
    return max(math.hypot(top.x - bottom.x, top.y - bottom.y), t.min_head_size)


def reference_head_size(pose: Pose, t: PckhThreshold = PckhThreshold()) -> float:
    """Head size with the documented fallback chain.

    Order: head keypoints, then ``bbox_diag_fraction`` of the box diagonal
    (inferring the box from keypoints when absent).
    """
    try:
        return head_size(pose, t)
    except EvaluationError:
        pass
    try:
        box = with_box(pose).bbox
    except DegenerateGeometryError as exc:
        raise EvaluationError(
            "cannot derive a head size: no head keypoints and no inferable box"
        ) from exc
    diag = math.hypot(box.width, box.height)
    return max(t.bbox_diag_fraction * diag, t.min_head_size)


def _radius(gt: Pose, t: PckhThreshold) -> float:
    return t.factor * reference_head_size(gt, t)


def _correct_count(pred: Pose, gt: Pose, radius: float) -> int:
    count = 0
    for pk, gk in zip(pred.keypoints, gt.keypoints):
        if gk.present and pk.present:
            if math.hypot(pk.x - gk.x, pk.y - gk.y) <= radius:
                count += 1
    return count


def match_poses_frame(
    preds: list[Pose], gts: list[Pose], t: PckhThreshold = PckhThreshold()
) -> list[tuple[int, int]]:
    """Pose-level matching for one frame.

    Cost per (prediction, ground truth) is one minus the fraction of the
    ground truth's present joints predicted within the correctness radius;
    the minimum-cost assignment is kept, dropping pairs with zero correct
    joints.  Returns (pred_index, gt_index) pairs sorted by pred_index.
    """
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


def _align(
    pred_seqs: list[Sequence], gt_seqs: list[Sequence]
) -> list[tuple[Sequence, Sequence]]:
    # walked by name: AP tie order and the MOTP float sum depend on the order
    preds = sorted(pred_seqs, key=lambda s: s.name)
    return pair_by_name(preds, gt_seqs, "ground truth", EvaluationError)


@dataclass(frozen=True, slots=True)
class Matching:
    """Pose matches of every frame of predictions against ground truth.

    Built once by :func:`match_sequences` and read by both :func:`evaluate_ap`
    and :func:`evaluate_mot`.  ``pairs`` holds the aligned sequences in the
    order the scorers walk them, each with :func:`match_poses_frame`'s pairs
    for every frame.
    """

    pred_seqs: tuple[Sequence, ...]
    gt_seqs: tuple[Sequence, ...]
    t: PckhThreshold
    pairs: tuple[tuple[Sequence, Sequence, tuple[list[tuple[int, int]], ...]], ...]


def match_sequences(
    pred_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    t: PckhThreshold = PckhThreshold(),
) -> Matching:
    """Align sequences by name and match the poses of every frame, once."""
    pairs = tuple(
        (
            pred_seq,
            gt_seq,
            tuple(
                match_poses_frame(list(pred_frame.poses), list(gt_frame.poses), t)
                for pred_frame, gt_frame in zip(pred_seq.frames, gt_seq.frames)
            ),
        )
        for pred_seq, gt_seq in _align(pred_seqs, gt_seqs)
    )
    return Matching(tuple(pred_seqs), tuple(gt_seqs), t, pairs)


def _matching_for(
    pred_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    t: PckhThreshold,
    matching: Matching | None,
) -> Matching:
    """``matching`` when it was built from these inputs, else a fresh one."""
    if matching is None:
        return match_sequences(pred_seqs, gt_seqs, t)
    # identical sequence objects compare without walking their frames
    if (matching.pred_seqs, matching.gt_seqs, matching.t) != (
        tuple(pred_seqs), tuple(gt_seqs), t
    ):
        raise EvaluationError("matching was built from other sequences or thresholds")
    return matching


# ---------------------------------------------------------------------------
# average precision


@dataclass(frozen=True, slots=True)
class ApReport:
    """Average precision percentages per joint, per group and overall."""

    per_joint: dict[Joint, float]
    per_group: dict[EvalGroup, float]
    total: float

    def to_dict(self) -> dict:
        return {
            "per_joint": {j.value: v for j, v in self.per_joint.items()},
            "per_group": {g.value: v for g, v in self.per_group.items()},
            "total": self.total,
        }

    def to_csv(self) -> str:
        header = ",".join(GROUP_COLUMNS)
        values = [self.per_group[g] for g in GROUPS] + [self.total]
        return header + "\n" + ",".join(f"{v:.4f}" for v in values) + "\n"


def _envelope_ap(records: list[tuple[float, bool]], n_gt: int) -> float:
    """Interpolated average precision (percent) over confidence-ranked records.

    Computed as sum(delta_tp * envelope_precision) / n_gt, which is exact for
    a perfect predictor.  With no ground truth the value is vacuous: 100 when
    there are no predictions either, 0 otherwise.
    """
    if n_gt == 0:
        return 100.0 if not records else 0.0
    if not records:
        return 0.0
    order = sorted(range(len(records)), key=lambda i: (-records[i][0], i))
    precisions: list[float] = []
    tp_deltas: list[int] = []
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


def evaluate_ap(
    pred_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    t: PckhThreshold = PckhThreshold(),
    *,
    matching: Matching | None = None,
) -> ApReport:
    """Score keypoint predictions against aligned ground-truth sequences.

    Per joint, every predicted-present keypoint is a confidence-ranked
    prediction: a true positive when its pose matched a ground truth whose
    joint is present within the correctness radius, a false positive
    otherwise (including all keypoints of unmatched poses).  Ground-truth
    joints never claimed count as misses through the recall denominator.

    ``matching``, when given, must be :func:`match_sequences` of the same
    arguments; it lets AP and MOT share one matching pass.
    """
    matching = _matching_for(pred_seqs, gt_seqs, t, matching)
    records: dict[Joint, list[tuple[float, bool]]] = {j: [] for j in JOINTS}
    n_gt: dict[Joint, int] = {j: 0 for j in JOINTS}
    for pred_seq, gt_seq, frame_matches in matching.pairs:
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
    per_joint = {j: _envelope_ap(records[j], n_gt[j]) for j in JOINTS}
    per_group = {
        g: _mean([per_joint[j] for j in JOINTS if joint_group(j) is g]) for g in GROUPS
    }
    total = _mean(list(per_joint.values()))
    return ApReport(per_joint=per_joint, per_group=per_group, total=total)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# tracking metrics


@dataclass(slots=True)
class MotCounts:
    """Raw keypoint-level tallies for one scoring bucket."""

    gt: int = 0
    matches: int = 0
    fp: int = 0
    fn: int = 0
    idsw: int = 0

    def mota(self) -> float | None:
        if self.gt == 0:
            return None
        return 100.0 * (1.0 - (self.fn + self.fp + self.idsw) / self.gt)


@dataclass(frozen=True, slots=True)
class MotReport:
    """Tracking accuracy per group plus overall localization and PR."""

    counts: dict[EvalGroup, MotCounts]
    total_counts: MotCounts
    mota: dict[EvalGroup, float | None]
    mota_total: float
    motp_total: float
    precision_total: float
    recall_total: float

    def to_dict(self) -> dict:
        return {
            "mota": {g.value: self.mota[g] for g in GROUPS},
            "mota_total": self.mota_total,
            "motp_total": self.motp_total,
            "precision_total": self.precision_total,
            "recall_total": self.recall_total,
            "counts": {
                g.value: {
                    "gt": c.gt,
                    "matches": c.matches,
                    "fp": c.fp,
                    "fn": c.fn,
                    "idsw": c.idsw,
                }
                for g, c in self.counts.items()
            },
            "total_counts": {
                "gt": self.total_counts.gt,
                "matches": self.total_counts.matches,
                "fp": self.total_counts.fp,
                "fn": self.total_counts.fn,
                "idsw": self.total_counts.idsw,
            },
        }

    def to_csv(self) -> str:
        header = ",".join(GROUP_COLUMNS + ("MOTP", "Prec", "Rec"))
        cells = [
            "nan" if self.mota[g] is None else f"{self.mota[g]:.4f}" for g in GROUPS
        ]
        cells += [
            f"{self.mota_total:.4f}",
            f"{self.motp_total:.4f}",
            f"{self.precision_total:.4f}",
            f"{self.recall_total:.4f}",
        ]
        return header + "\n" + ",".join(cells) + "\n"


def _require_track_ids(seq: Sequence, role: str) -> None:
    for frame, pose in seq.iter_poses():
        if pose.track_id is None:
            raise EvaluationError(
                f"{role} sequence {seq.name!r} frame {frame.index}: pose lacks a track id"
            )


def evaluate_mot(
    pred_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    t: PckhThreshold = PckhThreshold(),
    *,
    matching: Matching | None = None,
) -> MotReport:
    """CLEAR-style keypoint tracking metrics over aligned sequences.

    Keypoint correspondence is inherited from the per-frame pose matching and
    the correctness radius.  A matched keypoint whose predicted track id
    differs from the id last matched to the same (ground-truth track, joint)
    is an id switch.  Accuracy per group is
    ``100 * (1 - (fn + fp + idsw) / gt)``; localization quality is the mean of
    ``1 - d / radius`` over matched keypoints (0 when nothing matched), and
    precision/recall use the same keypoint counts.

    ``matching``, when given, must be :func:`match_sequences` of the same
    arguments; it lets AP and MOT share one matching pass.
    """
    for pred_seq, gt_seq in _align(pred_seqs, gt_seqs):
        _require_track_ids(pred_seq, "prediction")
        _require_track_ids(gt_seq, "ground-truth")
    matching = _matching_for(pred_seqs, gt_seqs, t, matching)
    counts = {g: MotCounts() for g in GROUPS}
    motp_sum = 0.0
    for pred_seq, gt_seq, frame_matches in matching.pairs:
        last_pred_id: dict[tuple[int, Joint], int] = {}
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
        100.0 * total.matches / (total.matches + total.fp)
        if total.matches + total.fp
        else 100.0
    )
    recall_total = (
        100.0 * total.matches / (total.matches + total.fn)
        if total.matches + total.fn
        else 100.0
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
