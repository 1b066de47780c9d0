"""Bounding-box arithmetic: inference from keypoints, IoU, NMS and detection PR."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import BBox, ContractError, Pose, keypoint_arrays

__all__ = [
    "BBox",
    "PRResult",
    "DegenerateGeometryError",
    "bbox_from_keypoints",
    "with_box",
    "with_corners",
    "infer_corners",
    "box_error",
    "box_corners",
    "iou",
    "iou_matrix",
    "prune_candidates",
    "nms_indices",
    "nms_boxes",
    "detection_pr",
]


class DegenerateGeometryError(ContractError):
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

    :func:`infer_corners` on one row: the raw box spans the minimum and
    maximum keypoint coordinates; width and height are then scaled by
    ``1 + enlarge`` (20% per axis by default, not per side).  Boxes are not
    clipped to image bounds.  Raises
    :class:`DegenerateGeometryError` (see :func:`box_error`) for fewer than
    two present keypoints, a zero-area span, or a corner beyond the float range.
    """
    corners, ok = infer_corners(pose.xy[None], pose.present[None], enlarge)
    if not ok[0]:
        raise box_error(pose.xy, pose.present, corners[0])
    return BBox(*corners[0].tolist())


def with_box(pose: Pose, enlarge: float = 0.20) -> Pose:
    """``pose`` itself when it has a box, else a copy with :func:`bbox_from_keypoints`'s box.

    Raises :class:`DegenerateGeometryError` when the box cannot be inferred.
    """
    if pose.bbox is not None:
        return pose
    return Pose(pose.keypoints, pose.det_score, bbox_from_keypoints(pose, enlarge), pose.track_id)


def with_corners(pose: Pose, corners: Sequence[float]) -> Pose:
    """``pose`` itself when it has a box, else a copy boxed by ``corners``, as :func:`with_box` boxes it."""
    if pose.bbox is not None:
        return pose
    return Pose(pose.keypoints, pose.det_score, BBox(*corners), pose.track_id)


def infer_corners(
    xy: np.ndarray, present: np.ndarray, enlarge: float = 0.20
) -> tuple[np.ndarray, np.ndarray]:
    """The inferred box corners of ``m`` poses at once: the box-inference rule.

    ``xy`` is ``(m, 15, 2)`` and ``present`` ``(m, 15)``.  Returns ``(m, 4)``
    corner rows ``[x1, y1, x2, y2]`` and an ``(m,)`` mask of the rows that
    are boxes: a row with fewer than two present keypoints, a zero-area span,
    or a corner beyond the float range is ``False``, and :func:`box_error`
    says which.
    """
    mask = present[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        low = np.where(mask, xy, np.inf).min(axis=1)
        high = np.where(mask, xy, -np.inf).max(axis=1)
        half = 0.5 * (1.0 + enlarge) * (high - low)
        center = 0.5 * (low + high)
        corners = np.concatenate((center - half, center + half), axis=1)
    ok = (present.sum(axis=1) >= 2) & (low < high).all(axis=1) & np.isfinite(corners).all(axis=1)
    return corners, ok


def box_error(
    xy: np.ndarray, present: np.ndarray, corners: Sequence[float]
) -> DegenerateGeometryError:
    """Why :func:`infer_corners` gave the row ``xy`` / ``present`` / ``corners`` no box."""
    count = int(present.sum())
    if count < 2:
        return DegenerateGeometryError(
            f"need at least 2 present keypoints to infer a box, got {count}"
        )
    points = xy[present]
    if (points.min(axis=0) == points.max(axis=0)).any():
        return DegenerateGeometryError("present keypoints span a zero-area box")
    return DegenerateGeometryError(
        f"the inferred box overflows the float range: {tuple(map(float, corners))}"
    )


def box_corners(poses: Sequence[Pose], enlarge: float = 0.20) -> tuple[np.ndarray, np.ndarray]:
    """Each pose's box as an ``(n, 4)`` corner array, and an ``(n,)`` mask of the poses that have one.

    A pose's own box is taken as is; the boxes of all box-less poses are
    inferred in one :func:`infer_corners` pass, and a row the mask marks
    ``False`` holds that pass's corners for :func:`box_error`.
    """
    rows = [(math.nan,) * 4 if (b := p.bbox) is None else (b.x1, b.y1, b.x2, b.y2) for p in poses]
    corners = np.array(rows).reshape(len(poses), 4)
    ok = np.ones(len(poses), dtype=bool)
    missing = [i for i, p in enumerate(poses) if p.bbox is None]
    if missing:
        xy, _, present = keypoint_arrays([poses[i] for i in missing])
        corners[missing], ok[missing] = infer_corners(xy, present, enlarge)
    return corners, ok


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0.0 when the union has no area.

    Overlapping boxes whose union area is beyond the float range raise ``ContractError``.
    """
    return _corner_iou((a.x1, a.y1, a.x2, a.y2), (b.x1, b.y1, b.x2, b.y2))


def _corner_iou(a: Sequence[float], b: Sequence[float]) -> float:
    """:func:`iou` of two ``[x1, y1, x2, y2]`` corner rows (``min``/``max`` written out)."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    iy = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if not math.isfinite(union):
        raise _overlap_error(a, b)
    return inter / union if union > 0.0 else 0.0


def _overlap_error(a: Sequence[float], b: Sequence[float]) -> ContractError:
    return ContractError(f"the union of boxes {tuple(a)} and {tuple(b)} is beyond the float range")


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise :func:`iou` of two ``(n, 4)`` / ``(m, 4)`` corner arrays, shape ``(n, m)``.

    Rows are ``[x1, y1, x2, y2]``; each cell follows the scalar rule, with
    the same arithmetic, so it equals ``iou`` on the corresponding boxes and
    raises where it raises.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
        iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
        inter = ix * iy
        area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
        area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        union = area_a[:, None] + area_b[None, :] - inter
    valid = (ix > 0.0) & (iy > 0.0)
    if not np.isfinite(union[valid]).all():
        i, j = np.argwhere(valid & ~np.isfinite(union))[0].tolist()
        raise _overlap_error(a[i].tolist(), b[j].tolist())
    valid &= union > 0.0
    return np.where(valid, inter / np.where(valid, union, 1.0), 0.0)


def prune_candidates(poses: list[Pose], threshold: float) -> list[Pose]:
    """Keep exactly the poses with ``det_score >= threshold``, order preserved."""
    return [p for p in poses if p.det_score >= threshold]


def nms_indices(
    boxes: Sequence[Sequence[float]], scores: Sequence[float], iou_threshold: float
) -> list[int]:
    """Greedy non-maximum suppression over ``[x1, y1, x2, y2]`` corner rows; the kept indices.

    Boxes are visited by descending score (ties by input index) and kept iff
    their IoU with every already-kept box is at most the threshold.  The
    indices are in visit order, so callers can select matching entries of a
    parallel list (a second model's poses for the same candidates).
    """
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        box = boxes[i]
        if all(_corner_iou(box, boxes[k]) <= iou_threshold for k in kept):
            kept.append(i)
    return kept


def nms_boxes(poses: list[Pose], iou_threshold: float) -> list[Pose]:
    """The poses :func:`nms_indices` keeps, by box and detection score, in visit order."""
    for i, pose in enumerate(poses):
        if pose.bbox is None:
            raise ValueError(f"pose {i} has no bbox; run box inference first")
    boxes = [(p.bbox.x1, p.bbox.y1, p.bbox.x2, p.bbox.y2) for p in poses]
    kept = nms_indices(boxes, [p.det_score for p in poses], iou_threshold)
    return [poses[i] for i in kept]


def detection_pr(
    dets: list[BBox], scores: Sequence[float], gts: list[BBox], iou_threshold: float = 0.4
) -> PRResult:
    """Greedy score-ordered detection matching against ground-truth boxes.

    ``scores[i]`` is the detection score of ``dets[i]``.  Detections are
    visited by descending score (ties by input index); each claims the
    still-unmatched ground truth with the highest IoU provided that IoU
    reaches the threshold, and is a false positive otherwise.  Unclaimed
    ground truths are misses.
    """
    order = sorted(range(len(dets)), key=lambda i: (-scores[i], i))
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
