"""Bounding-box arithmetic: inference from keypoints, IoU, NMS and detection PR."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .model import BBox, Pose

__all__ = [
    "BBox",
    "PRResult",
    "DegenerateGeometryError",
    "bbox_from_keypoints",
    "with_box",
    "iou",
    "iou_matrix",
    "prune_candidates",
    "nms_indices",
    "nms_boxes",
    "detection_pr",
]


class DegenerateGeometryError(ValueError):
    """Raised when a box cannot be inferred from the available keypoints."""


@dataclass(frozen=True, slots=True)
class PRResult:
    """Detection counts; precision and recall are derived so they always agree."""

    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        # empty prediction set counts as fully precise
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0


def bbox_from_keypoints(pose: Pose, enlarge: float = 0.20) -> BBox:
    """Tight box around the present keypoints, grown about its center.

    The raw box spans the minimum and maximum keypoint coordinates; width and
    height are then scaled by ``1 + enlarge`` (20% per axis by default, not per
    side).  The box score is the pose detection score.  Boxes are not clipped
    to image bounds.  Raises :class:`DegenerateGeometryError` for fewer than
    two present keypoints, a zero-area span, or a corner beyond the float range.
    """
    present = pose.present.tolist()
    xs, ys = pose.xy.T.tolist()
    xs = list(compress(xs, present))
    ys = list(compress(ys, present))
    if len(xs) < 2:
        raise DegenerateGeometryError(
            f"need at least 2 present keypoints to infer a box, got {len(xs)}"
        )
    x1, x2 = min(xs), max(xs)
    y1, y2 = min(ys), max(ys)
    if x1 == x2 or y1 == y2:
        raise DegenerateGeometryError("present keypoints span a zero-area box")
    half_w = 0.5 * (1.0 + enlarge) * (x2 - x1)
    half_h = 0.5 * (1.0 + enlarge) * (y2 - y1)
    cx = 0.5 * (x1 + x2)
    cy = 0.5 * (y1 + y2)
    corners = (cx - half_w, cy - half_h, cx + half_w, cy + half_h)
    if not all(map(math.isfinite, corners)):
        raise DegenerateGeometryError(f"the inferred box overflows the float range: {corners}")
    return BBox(*corners, score=pose.det_score)


def with_box(pose: Pose, enlarge: float = 0.20) -> Pose:
    """``pose`` itself when it has a box, else a copy with :func:`bbox_from_keypoints`'s box.

    Raises :class:`DegenerateGeometryError` when the box cannot be inferred.
    """
    if pose.bbox is not None:
        return pose
    return Pose(pose.keypoints, pose.det_score, bbox_from_keypoints(pose, enlarge), pose.track_id)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0.0 when the union has no area."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0.0 else 0.0


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise :func:`iou` of two ``(n, 4)`` / ``(m, 4)`` corner arrays, shape ``(n, m)``.

    Rows are ``[x1, y1, x2, y2]``; each cell follows the scalar rule, with
    the same arithmetic, so it equals ``iou`` on the corresponding boxes.
    """
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = ix * iy
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    valid = (ix > 0.0) & (iy > 0.0) & (union > 0.0)
    return np.where(valid, inter / np.where(valid, union, 1.0), 0.0)


def prune_candidates(poses: list[Pose], threshold: float) -> list[Pose]:
    """Keep exactly the poses with ``det_score >= threshold``, order preserved."""
    return [p for p in poses if p.det_score >= threshold]


def nms_indices(poses: list[Pose], iou_threshold: float) -> list[int]:
    """Greedy non-maximum suppression over pose boxes; returns the kept input indices.

    Poses are visited by descending detection score (ties by input index) and
    kept iff their IoU with every already-kept pose is at most the threshold.
    The indices are in visit order, so callers can select matching entries
    of a parallel list (a second model's poses for the same candidates).
    """
    for i, pose in enumerate(poses):
        if pose.bbox is None:
            raise ValueError(f"pose {i} has no bbox; run box inference first")
    order = sorted(range(len(poses)), key=lambda i: (-poses[i].det_score, i))
    kept: list[int] = []
    for i in order:
        box = poses[i].bbox
        if all(iou(box, poses[k].bbox) <= iou_threshold for k in kept):
            kept.append(i)
    return kept


def nms_boxes(poses: list[Pose], iou_threshold: float) -> list[Pose]:
    """The poses :func:`nms_indices` keeps: a subsequence of the score-sorted input."""
    return [poses[i] for i in nms_indices(poses, iou_threshold)]


def detection_pr(
    dets: list[BBox], gts: list[BBox], iou_threshold: float = 0.4
) -> PRResult:
    """Greedy score-ordered detection matching against ground-truth boxes.

    Detections are visited by descending score (ties by input index); each
    claims the still-unmatched ground truth with the highest IoU provided that
    IoU reaches the threshold, and is a false positive otherwise.  Unclaimed
    ground truths are misses.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    claimed = [False] * len(gts)
    tp = 0
    for i in order:
        best_j = -1
        best_iou = 0.0
        for j, gt in enumerate(gts):
            if claimed[j]:
                continue
            value = iou(dets[i], gt)
            if value > best_iou:
                best_iou = value
                best_j = j
        if best_j >= 0 and best_iou >= iou_threshold:
            claimed[best_j] = True
            tp += 1
    return PRResult(tp=tp, fp=len(dets) - tp, fn=len(gts) - tp)
