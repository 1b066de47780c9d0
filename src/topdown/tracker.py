"""Frame-to-frame pose association with unique, temporally consistent ids.

Association combines box overlap with a Gaussian keypoint-distance kernel; the
score is pluggable in the sense that everything downstream only consumes the
cost matrix, so a motion- or appearance-based similarity can be dropped in.
Each frame is scored as one array operation: a sequence's poses are stacked
once (:func:`~topdown.model.keypoint_arrays`, and :func:`box_corners`, which
infers the boxes of box-less poses in one pass), a track keeps the row of its
latest pose, and :func:`similarity_matrix` broadcasts the whole tracks x
poses matrix in one call.  Keypoint pruning is one presence mask per pose.
Unmatched ids survive a configurable retention window and are then discarded;
ids are never reused within a sequence.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import box_corners, box_error, iou_matrix
from .model import (
    GROUPS,
    JOINTS,
    ContractError,
    EvalGroup,
    Pose,
    Sequence,
    joint_group,
    keypoint_arrays,
    require_int,
    require_real,
)

_METHODS = ("greedy", "hungarian")


class TrackingError(ContractError):
    """A tracking precondition was violated."""


@dataclass(frozen=True, slots=True)
class TrackerConfig:
    """Similarity weights, acceptance threshold, retention and solver choice.

    ``kappa`` is the keypoint-kernel width as a fraction of the box scale:
    a single float applies uniformly, a 15-tuple sets it per joint.
    """

    w_iou: float = 1.0
    w_pose: float = 1.0
    similarity_min: float = 0.3
    retention_window: int = 8
    method: str = "hungarian"
    kappa: float | tuple[float, ...] = 0.1

    def __post_init__(self) -> None:
        for name in ("w_iou", "w_pose", "similarity_min"):
            require_real(getattr(self, name), name)
        if self.w_iou < 0.0 or self.w_pose < 0.0 or self.w_iou + self.w_pose <= 0.0:
            raise ValueError("w_iou and w_pose must be non-negative with a positive sum")
        if not 0.0 <= self.similarity_min <= 1.0:
            raise ValueError(f"similarity_min must be within [0, 1], got {self.similarity_min!r}")
        require_int(self.retention_window, "retention_window")
        if self.retention_window < 1:
            raise ValueError(f"retention_window must be >= 1, got {self.retention_window!r}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if isinstance(self.kappa, (list, tuple)):
            for j, k in enumerate(self.kappa):
                require_real(k, f"kappa[{j}]")
            object.__setattr__(self, "kappa", tuple(float(k) for k in self.kappa))
            if len(self.kappa) != len(JOINTS):
                raise ValueError(f"kappa needs {len(JOINTS)} entries, got {len(self.kappa)}")
            if any(k <= 0.0 for k in self.kappa):
                raise ValueError("kappa entries must be positive")
        else:
            require_real(self.kappa, "kappa")
            if self.kappa <= 0.0:
                raise ValueError(f"kappa must be positive, got {self.kappa!r}")


class PoseArrays(NamedTuple):
    """Poses as arrays: ``xy`` (n, 15, 2), ``present`` (n, 15), ``box`` (n, 4) corners."""

    xy: np.ndarray
    present: np.ndarray
    box: np.ndarray

    def take(self, rows) -> "PoseArrays":
        """The poses at ``rows`` (an index list or a slice)."""
        return PoseArrays(self.xy[rows], self.present[rows], self.box[rows])


def kept_keypoints(confidence: np.ndarray, present: np.ndarray, threshold: float) -> np.ndarray:
    """The keypoints pruning at ``threshold`` keeps: those present and not below it.

    ``confidence`` and ``present`` are arrays of one shape, of one pose or many.
    """
    return present & ~(confidence < threshold)


def prune_keypoints(pose: Pose, threshold: float) -> Pose:
    """Mark keypoints below the confidence threshold as absent; nothing else changes."""
    kept = kept_keypoints(pose.confidence, pose.present, threshold)
    if (kept == pose.present).all():
        return pose
    keypoints = pose.keypoints.with_present(kept)
    return Pose(keypoints, pose.det_score, pose.bbox, pose.track_id)


def prune_sequence_keypoints(seq: Sequence, threshold: float) -> Sequence:
    """``seq`` with every pose's keypoints pruned at ``threshold``.

    At a threshold of 0 or below that is ``seq`` itself: confidences lie in
    [0, 1], so no keypoint is below it.
    """
    if threshold <= 0.0:
        return seq
    return seq.with_poses(prune_keypoints(p, threshold) for p in seq.all_poses())


@dataclass(frozen=True, slots=True)
class RetentionTable:
    """Percentage of keypoints surviving pruning, per group and overall."""

    per_group: dict[EvalGroup, float]
    total: float


def retention_stats(seqs: list[Sequence], threshold: float) -> RetentionTable:
    """Survival percentages of present keypoints at a confidence threshold.

    A group with no keypoints at all reports the vacuous 100.0; an input with
    no keypoints anywhere is an error.
    """
    _, confidence, present = keypoint_arrays([pose for seq in seqs for pose in seq.all_poses()])
    # per-joint counts summed into groups
    before_joint = present.sum(axis=0).tolist()
    kept_joint = kept_keypoints(confidence, present, threshold).sum(axis=0).tolist()
    before = {g: 0 for g in GROUPS}
    kept = {g: 0 for g in GROUPS}
    for joint, n_before, n_kept in zip(JOINTS, before_joint, kept_joint):
        before[joint_group(joint)] += n_before
        kept[joint_group(joint)] += n_kept
    total_before = sum(before.values())
    if total_before == 0:
        raise TrackingError("no present keypoints to compute retention over")
    per_group = {
        g: (100.0 * kept[g] / before[g]) if before[g] else 100.0 for g in GROUPS
    }
    total = 100.0 * sum(kept.values()) / total_before
    return RetentionTable(per_group=per_group, total=total)


def _stacked(poses: list[Pose]) -> tuple[PoseArrays, list[bool]]:
    """:class:`PoseArrays` of ``poses``, and which of them have or get a box."""
    xy, _, present = keypoint_arrays(poses)
    box, ok = box_corners(poses)
    return PoseArrays(xy, present, box), ok.tolist()


def _require_boxes(arrays: PoseArrays, ok: list[bool], rows: Iterable[int]) -> None:
    """Raise the box-inference error of the first of ``rows`` that has no box."""
    for i in rows:
        if not ok[i]:
            raise box_error(arrays.xy[i], arrays.present[i], arrays.box[i])


def pose_arrays(poses: Iterable[Pose]) -> PoseArrays:
    """Stack poses into :class:`PoseArrays`, inferring missing boxes from keypoints.

    Raises :class:`~topdown.geometry.DegenerateGeometryError` for a pose with
    no box and no inferable one.
    """
    poses = list(poses)
    arrays, ok = _stacked(poses)
    _require_boxes(arrays, ok, range(len(poses)))
    return arrays


def _kappa_vector(config: TrackerConfig) -> np.ndarray:
    return np.broadcast_to(np.asarray(config.kappa, dtype=float), (len(JOINTS),))


def similarity_matrix(
    tracks: PoseArrays,
    poses: PoseArrays,
    kappa: np.ndarray,
    w_iou: float,
    w_pose: float,
) -> np.ndarray:
    """Similarity of every track (rows) to every pose (columns), in [0, 1].

    Each cell blends box IoU with a keypoint kernel by the weights ``w_iou``
    and ``w_pose``.  The kernel is exp(-d^2 / (2 (s * kappa_j)^2)) averaged
    over joints present in both poses, with s the square root of the track
    box's area and ``kappa`` the per-joint width (15,); where that
    denominator is 0 a joint scores 1 at distance 0 and 0 otherwise, and a
    pair with no common joint scores 0 on the kernel.  A square beyond the
    float range gives a kernel of 0, its limit.
    """
    overlap = iou_matrix(tracks.box, poses.box)
    box = tracks.box
    common = tracks.present[:, None, :] & poses.present[None, :, :]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        size = np.sqrt((box[:, 2] - box[:, 0]) * (box[:, 3] - box[:, 1]))
        scale = size[:, None] * kappa
        denom = (2.0 * scale * scale)[:, None, :]  # (tracks, 1, joints)
        d = tracks.xy[:, None] - poses.xy[None, :]
        d2 = d[..., 0] ** 2 + d[..., 1] ** 2  # (tracks, poses, joints)
        kernel = np.where(denom > 0.0, np.exp(-d2 / denom), d2 == 0.0)
    kernel = np.where(common, kernel, 0.0)
    # a running sum runs joint by joint, in joint order: np.sum's pairwise
    # order would change the last bits
    total = np.add.accumulate(kernel, axis=-1)[..., -1]
    count = common.sum(axis=-1)
    kp_sim = np.where(count > 0, total / np.maximum(count, 1), 0.0)
    return (w_iou * overlap + w_pose * kp_sim) / (w_iou + w_pose)


def pose_similarity(a: Pose, b: Pose, config: TrackerConfig = TrackerConfig()) -> float:
    """Similarity of track pose ``a`` to pose ``b``: one cell of :func:`similarity_matrix`."""
    matrix = similarity_matrix(
        pose_arrays([a]), pose_arrays([b]), _kappa_vector(config), config.w_iou, config.w_pose
    )
    return float(matrix[0, 0])


def solve_assignment(cost, method: str = "hungarian") -> list[tuple[int, int]]:
    """Match rows to columns minimizing cost.

    ``hungarian`` returns a minimum-total-cost maximum matching; ``greedy``
    repeatedly takes the globally smallest remaining cost (ties by row, then
    column) and removes its row and column.  Pairs come back sorted by row.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.size == 0:
        return []
    if matrix.ndim != 2:
        raise ValueError(f"cost must be 2-D, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise TrackingError("cost matrix contains non-finite entries")
    if method == "hungarian":
        rows, cols = linear_sum_assignment(matrix)
        return sorted(zip(rows.tolist(), cols.tolist()))
    if method == "greedy":
        n, m = matrix.shape
        free_rows = set(range(n))
        free_cols = set(range(m))
        pairs: list[tuple[int, int]] = []
        while free_rows and free_cols:
            best = min(
                ((matrix[r, c], r, c) for r in free_rows for c in free_cols),
                key=lambda t: (t[0], t[1], t[2]),
            )
            _, r, c = best
            pairs.append((r, c))
            free_rows.remove(r)
            free_cols.remove(c)
        return sorted(pairs)
    raise ValueError(f"unknown assignment method {method!r}")


def track_sequence(seq: Sequence, config: TrackerConfig = TrackerConfig()) -> Sequence:
    """Assign track ids across frames.

    The first frame's poses receive fresh ids in input order.  Each later
    frame is matched against the active tracks on cost ``1 - similarity``;
    pairs reaching ``similarity_min`` keep the track's id, everything else
    gets a fresh id.  Tracks unmatched for more than ``retention_window``
    frames (by frame index) are discarded first.
    """
    kappa = _kappa_vector(config)
    arrays, ok = _stacked(seq.all_poses())
    # id -> (last frame index, row of its latest pose); insertion order breaks assignment ties
    active: dict[int, tuple[int, int]] = {}
    next_id = 0
    tracked: list[Pose] = []
    start = 0
    for frame in seq.frames:
        for pose in frame.poses:
            if pose.track_id is not None:
                raise TrackingError(
                    f"frame {frame.index}: pose already carries track_id {pose.track_id}"
                )
        stop = start + len(frame.poses)
        active = {
            tid: track
            for tid, track in active.items()
            if frame.index - track[0] <= config.retention_window
        }
        track_ids = list(active)
        assigned: dict[int, int] = {}
        if track_ids and frame.poses:
            rows = [row for _, row in active.values()]
            # a pose's box is needed, and its error raised, only once it is scored
            _require_boxes(arrays, ok, chain(rows, range(start, stop)))
            similarity = similarity_matrix(
                arrays.take(rows),
                arrays.take(slice(start, stop)),
                kappa,
                config.w_iou,
                config.w_pose,
            )
            for row, col in solve_assignment(1.0 - similarity, config.method):
                if similarity[row, col] >= config.similarity_min:
                    assigned[col] = track_ids[row]
        for idx, pose in enumerate(frame.poses):
            tid = assigned.get(idx)
            if tid is None:
                tid = next_id
                next_id += 1
            active[tid] = (frame.index, start + idx)
            tracked.append(Pose(pose.keypoints, pose.det_score, pose.bbox, tid))
        start = stop
    return seq.with_poses(tracked)
