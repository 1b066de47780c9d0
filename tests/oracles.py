"""Scalar forms of the geometric rules, written out one pose at a time.

The library keeps each rule once, as an array pass: box inference
(``geometry.infer_corners``), fusion (``ensemble.fused_keypoints``), the
head size (``metrics._head_sizes``) and the reference head size with its
box fallback (``metrics._reference_head_sizes``); its one-pose functions are
one-row calls of those.  The loops here are the plain statements of the same rules,
kept as oracles that the array forms must equal bit for bit, errors included.
"""
from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, Mapping

import numpy as np

from topdown.ensemble import Route
from topdown.geometry import DegenerateGeometryError
from topdown.metrics import EvaluationError, PckhThreshold
from topdown.model import JOINTS, BBox, Joint, Keypoints, Pose

_TOP = Joint.HEAD_TOP.index
_BOTTOM = Joint.HEAD_BOTTOM.index


def bbox_from_keypoints(pose: Pose, enlarge: float = 0.20) -> BBox:
    """Tight box around the present keypoints, width and height scaled by ``1 + enlarge``."""
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
    """``pose`` itself when it has a box, else a copy with :func:`bbox_from_keypoints`'s box."""
    if pose.bbox is not None:
        return pose
    return Pose(pose.keypoints, pose.det_score, bbox_from_keypoints(pose, enlarge), pose.track_id)


def fuse_keypoints(a: Keypoints, b: Keypoints, routes: Iterable[Route]) -> Keypoints:
    """Fuse slot by slot, ``routes`` giving each slot's :class:`Route`.

    A slot routed to one model takes that model's joint when it is present
    or the other model's is absent, else the other's.  An AVG slot takes the
    mean when both or neither are present and copies the present one
    otherwise.
    """
    xy: list[float] = []
    confidence: list[float] = []
    present: list[bool] = []
    for route, (ax, ay), (bx, by), ca, cb, pa, pb in zip(
        routes,
        a.xy.tolist(),
        b.xy.tolist(),
        a.confidence.tolist(),
        b.confidence.tolist(),
        a.present.tolist(),
        b.present.tolist(),
    ):
        if route is Route.AVG and pa is pb:
            xy += (0.5 * (ax + bx), 0.5 * (ay + by))
            confidence.append(0.5 * (ca + cb))
            present.append(pa)
        elif (pa or not pb) if route is Route.A else (pa and not pb):
            xy += (ax, ay)
            confidence.append(ca)
            present.append(pa)
        else:
            xy += (bx, by)
            confidence.append(cb)
            present.append(pb)
    # the constructor checks every value, naming the slot of a mean beyond the float range
    return Keypoints(np.array(xy).reshape(len(JOINTS), 2), confidence, present)


def _mean_bbox(a: BBox | None, b: BBox | None) -> BBox | None:
    if a is None or b is None:
        return a if a is not None else b
    return BBox(
        0.5 * (a.x1 + b.x1),
        0.5 * (a.y1 + b.y1),
        0.5 * (a.x2 + b.x2),
        0.5 * (a.y2 + b.y2),
        score=0.5 * (a.score + b.score),
    )


def _fused(a: Pose, b: Pose, routes: Iterable[Route]) -> Pose:
    return Pose(
        fuse_keypoints(a.keypoints, b.keypoints, routes),
        0.5 * (a.det_score + b.det_score),
        _mean_bbox(a.bbox, b.bbox),
        None,
    )


def fuse_average(a: Pose, b: Pose) -> Pose:
    return _fused(a, b, [Route.AVG] * len(JOINTS))


def fuse_expert(a: Pose, b: Pose, route_map: Mapping[Joint, Route]) -> Pose:
    missing = [j.value for j in JOINTS if j not in route_map]
    if missing:
        raise ValueError(f"expert map missing joints: {missing}")
    return _fused(a, b, [route_map[j] for j in JOINTS])


def head_size(pose: Pose, t: PckhThreshold = PckhThreshold()) -> float:
    """Distance between the head keypoints, clamped below by ``min_head_size``."""
    if not (pose.present[_TOP] and pose.present[_BOTTOM]):
        raise EvaluationError("pose is missing a head keypoint")
    (tx, ty), (bx, by) = pose.xy[[_TOP, _BOTTOM]].tolist()
    return max(math.hypot(tx - bx, ty - by), t.min_head_size)


def reference_head_size(pose: Pose, t: PckhThreshold = PckhThreshold()) -> float:
    """Head size, else ``bbox_diag_fraction`` of the box diagonal, at least ``min_head_size``.

    The box is the pose's own, else the one inferred from its keypoints.
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
