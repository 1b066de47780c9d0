"""Fuse two models' predictions for the same candidate.

Average mode takes per-joint arithmetic means; expert mode routes every joint
to the model configured for it.  Both assume the inputs were predicted on the
same detection candidate (shared detection score and box), which is what the
pipeline produces when two estimators run on one detector's output.
"""
from __future__ import annotations

import enum
from typing import Iterable, Mapping

import numpy as np

from .model import JOINTS, BBox, EvalGroup, Joint, Keypoints, Pose, joint_group


class Route(enum.Enum):
    """Per-joint source in expert mode."""

    A = "a"
    B = "b"
    AVG = "avg"


_A, _AVG = Route.A, Route.AVG

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


def _fuse_keypoints(a: Keypoints, b: Keypoints, routes: Iterable[Route]) -> Keypoints:
    """Fuse slot by slot, ``routes`` giving each slot's :class:`Route`.

    A slot routed to one model takes that model's joint when it is present
    or the other model's is absent, else the other's.  An AVG slot takes the
    mean when both or neither are present (placeholders are averaged too, so
    fusing a pose with itself is an exact identity) and copies the present
    one otherwise.
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
        if route is _AVG and pa is pb:
            xy += (0.5 * (ax + bx), 0.5 * (ay + by))
            confidence.append(0.5 * (ca + cb))
            present.append(pa)
        elif (pa or not pb) if route is _A else (pa and not pb):
            xy += (ax, ay)
            confidence.append(ca)
            present.append(pa)
        else:
            xy += (bx, by)
            confidence.append(cb)
            present.append(pb)
    positions = np.array(xy).reshape(len(JOINTS), 2)
    total = sum(xy)
    if total - total != 0.0:  # a mean beyond the float range (or a sum that overflows)
        return Keypoints(positions, confidence, present)  # checks, naming the slot at fault
    # every other value is copied from a checked input or is a mean of two of them
    return Keypoints.from_checked(positions, np.array(confidence), np.array(present))


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


def _fused_pose(a: Pose, b: Pose, keypoints: Keypoints) -> Pose:
    return Pose(
        keypoints=keypoints,
        det_score=0.5 * (a.det_score + b.det_score),
        bbox=_mean_bbox(a.bbox, b.bbox),
        track_id=None,
    )


_AVERAGE_ROUTES = (Route.AVG,) * len(JOINTS)


def fuse_average(a: Pose, b: Pose) -> Pose:
    """Per-joint arithmetic mean; a joint present in one model only is copied."""
    return _fused_pose(a, b, _fuse_keypoints(a.keypoints, b.keypoints, _AVERAGE_ROUTES))


def fuse_expert(a: Pose, b: Pose, route_map: ExpertMap) -> Pose:
    """Route each joint to the configured model; AVG routes take the mean.

    When the routed model's joint is absent but the other model has it, the
    present one is used so fusion never loses a joint both inputs could
    supply.
    """
    routes = list(map(route_map.get, JOINTS))
    if None in routes:
        validate_expert_map(route_map)
    return _fused_pose(a, b, _fuse_keypoints(a.keypoints, b.keypoints, routes))


def fuse(a: Pose, b: Pose, mode: str, route_map: ExpertMap) -> Pose:
    """:func:`fuse_average` for ``mode="average"``, :func:`fuse_expert` for ``"expert"``."""
    if mode == "average":
        return fuse_average(a, b)
    if mode == "expert":
        return fuse_expert(a, b, route_map)
    raise ValueError(f"unknown fusion mode {mode!r}")
