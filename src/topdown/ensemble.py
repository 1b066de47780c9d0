"""Fuse two models' predictions for the same candidate.

Average mode takes per-joint arithmetic means; expert mode routes every joint
to the model configured for it.  Both assume the inputs were predicted on the
same detection candidate (shared detection score and box), which is what the
pipeline produces when two estimators run on one detector's output.
"""
from __future__ import annotations

import enum
from typing import Mapping

from .model import JOINTS, Joint, Keypoint, Pose, BBox, EvalGroup, joint_group


class Route(enum.Enum):
    """Per-joint source in expert mode."""

    A = "a"
    B = "b"
    AVG = "avg"


ExpertMap = Mapping[Joint, Route]

# Default routing: first model supplies shoulders and hips, second model the
# limb extremities, and the head group is averaged.
_DEFAULT_GROUP_ROUTES: dict[EvalGroup, Route] = {
    EvalGroup.HEAD: Route.AVG,
    EvalGroup.SHOULDER: Route.A,
    EvalGroup.HIP: Route.A,
    EvalGroup.ELBOW: Route.B,
    EvalGroup.WRIST: Route.B,
    EvalGroup.KNEE: Route.B,
    EvalGroup.ANKLE: Route.B,
}


def default_expert_map() -> dict[Joint, Route]:
    return {j: _DEFAULT_GROUP_ROUTES[joint_group(j)] for j in JOINTS}


def validate_expert_map(route_map: ExpertMap) -> None:
    missing = [j.value for j in JOINTS if j not in route_map]
    if missing:
        raise ValueError(f"expert map missing joints: {missing}")


def _mean_keypoint(a: Keypoint, b: Keypoint) -> Keypoint:
    if a.present and b.present:
        return Keypoint(
            joint=a.joint,
            x=0.5 * (a.x + b.x),
            y=0.5 * (a.y + b.y),
            confidence=0.5 * (a.confidence + b.confidence),
            present=True,
        )
    if a.present:
        return a
    if b.present:
        return b
    # neither present: average the placeholders so fusing a pose with itself
    # is an exact identity
    return Keypoint(
        joint=a.joint,
        x=0.5 * (a.x + b.x),
        y=0.5 * (a.y + b.y),
        confidence=0.5 * (a.confidence + b.confidence),
        present=False,
    )


def _mean_bbox(a: BBox | None, b: BBox | None) -> BBox | None:
    if a is not None and b is not None:
        return BBox(
            0.5 * (a.x1 + b.x1),
            0.5 * (a.y1 + b.y1),
            0.5 * (a.x2 + b.x2),
            0.5 * (a.y2 + b.y2),
            score=0.5 * (a.score + b.score),
        )
    return a if a is not None else b


def fuse_average(a: Pose, b: Pose) -> Pose:
    """Per-joint arithmetic mean; a joint present in one model only is copied."""
    return Pose(
        keypoints=tuple(
            _mean_keypoint(ka, kb) for ka, kb in zip(a.keypoints, b.keypoints)
        ),
        det_score=0.5 * (a.det_score + b.det_score),
        bbox=_mean_bbox(a.bbox, b.bbox),
        track_id=None,
    )


def fuse_expert(a: Pose, b: Pose, route_map: ExpertMap) -> Pose:
    """Route each joint to the configured model; AVG routes take the mean.

    When the routed model's joint is absent but the other model has it, the
    present one is used so fusion never loses a joint both inputs could
    supply.
    """
    validate_expert_map(route_map)
    keypoints = []
    for ka, kb in zip(a.keypoints, b.keypoints):
        route = route_map[ka.joint]
        if route is Route.AVG:
            keypoints.append(_mean_keypoint(ka, kb))
        elif route is Route.A:
            keypoints.append(ka if ka.present or not kb.present else kb)
        else:
            keypoints.append(kb if kb.present or not ka.present else ka)
    return Pose(
        keypoints=tuple(keypoints),
        det_score=0.5 * (a.det_score + b.det_score),
        bbox=_mean_bbox(a.bbox, b.bbox),
        track_id=None,
    )


def fuse(a: Pose, b: Pose, mode: str, route_map: ExpertMap) -> Pose:
    """:func:`fuse_average` for ``mode="average"``, :func:`fuse_expert` for ``"expert"``."""
    if mode == "average":
        return fuse_average(a, b)
    if mode == "expert":
        return fuse_expert(a, b, route_map)
    raise ValueError(f"unknown fusion mode {mode!r}")
