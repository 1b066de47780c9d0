"""Fuse two models' predictions for the same candidate.

Average mode takes per-joint arithmetic means; expert mode routes every joint
to the model configured for it.  Both assume the inputs were predicted on the
same detection candidate (shared detection score and box), which is what the
pipeline produces when two estimators run on one detector's output.

The rule is written once, as an array pass over many pairs: a mode resolves
to a (15,) route code (:func:`route_codes`), and :func:`fused_arrays` fuses
every pair of rows of two keypoint arrays under it.  A run resolves the code
once and fuses the columns of two documents; :func:`fused_keypoints` and
:func:`fuse_all` fuse lists of poses, and :func:`fuse_average` /
:func:`fuse_expert` one pair.

Fusion cannot fail: the mean of two positions or box corners is
:func:`midpoint`, which is finite for every pair of finite values, and
confidences and detection scores lie in [0, 1].
"""
from __future__ import annotations

import enum
from typing import Mapping, Sequence

import numpy as np

from .model import (
    JOINTS,
    BBox,
    EvalGroup,
    Joint,
    Keypoints,
    Pose,
    joint_group,
    keypoint_arrays,
)


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
    for joint in JOINTS:
        if not isinstance(route_map[joint], Route):
            raise ValueError(
                f"expert map routes joint {joint.value!r} to {route_map[joint]!r}, not a Route"
            )


def midpoint(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The elementwise mean of ``p`` and ``q``, finite wherever both are.

    It is ``0.5 * (p + q)``, or ``0.5 * p + 0.5 * q`` where that sum is beyond
    the float range.  Halving such a value is exact, so the second form
    rounds the true mean once, as the first does wherever it is finite.  A
    non-finite input (the corners of a pose with no box) gives a non-finite
    mean.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = 0.5 * (p + q)
        return np.where(np.isfinite(mean), mean, 0.5 * p + 0.5 * q)


def _mean_bbox(a: BBox | None, b: BBox | None) -> BBox | None:
    if a is not None and b is not None:
        corners = midpoint(np.array([a.x1, a.y1, a.x2, a.y2]), np.array([b.x1, b.y1, b.x2, b.y2]))
        return BBox(*corners.tolist())
    return a if a is not None else b


# route codes: one per joint slot, resolved once per run
_CODE = {Route.A: 0, Route.B: 1, Route.AVG: 2}


def route_codes(mode: str, route_map: ExpertMap) -> np.ndarray:
    """The (15,) route code of every slot for ``mode``; ``"average"`` routes every slot to AVG."""
    if mode == "average":
        return np.full(len(JOINTS), _CODE[Route.AVG])
    if mode == "expert":
        validate_expert_map(route_map)
        return np.array([_CODE[route_map[j]] for j in JOINTS])
    raise ValueError(f"unknown fusion mode {mode!r}")


def fused_arrays(
    a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...], routes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fused ``xy``, ``confidence`` and ``present`` of each pair of rows of ``a`` and ``b``.

    ``a`` and ``b`` are :func:`~topdown.model.keypoint_arrays` triples of
    equal length, and ``routes`` a :func:`route_codes` array.  A slot routed
    to one model takes that model's joint when it is present or the other
    model's is absent, else the other's.  An AVG slot takes the mean when
    both or neither are present (placeholders are averaged too, so fusing a
    pose with itself is an exact identity) and copies the present one
    otherwise.  Positions are averaged by :func:`midpoint`, so every fused
    row is valid.
    """
    (axy, ac, ap), (bxy, bc, bp) = a, b
    avg = (routes == _CODE[Route.AVG]) & (ap == bp)
    take_a = np.where(routes == _CODE[Route.A], ap | ~bp, ap & ~bp)
    xy = np.where(avg[..., None], midpoint(axy, bxy), np.where(take_a[..., None], axy, bxy))
    confidence = np.where(avg, 0.5 * (ac + bc), np.where(take_a, ac, bc))
    present = np.where(take_a, ap, bp)
    return xy, confidence, present


def fused_keypoints(a: Sequence[Pose], b: Sequence[Pose], routes: np.ndarray) -> list[Keypoints]:
    """The fused keypoints of each pair ``(a[i], b[i])``: :func:`fused_arrays` of their arrays."""
    fused = fused_arrays(keypoint_arrays(a), keypoint_arrays(b), routes)
    return list(map(Keypoints.from_checked, *fused))


def fuse_all(a: Sequence[Pose], b: Sequence[Pose], routes: np.ndarray) -> list[Pose]:
    """Every pair ``(a[i], b[i])`` fused under ``routes``, in one array pass.

    A fused pose holds :func:`fused_keypoints`'s keypoints, the mean
    detection score and no track id.  Boxes are taken as given: the
    :func:`midpoint` of two boxes' corners, else the one present.
    """
    return [
        Pose(k, 0.5 * (pa.det_score + pb.det_score), _mean_bbox(pa.bbox, pb.bbox))
        for pa, pb, k in zip(a, b, fused_keypoints(a, b, routes))
    ]


def fuse_average(a: Pose, b: Pose) -> Pose:
    """Per-joint arithmetic mean; a joint present in one model only is copied."""
    return fuse_all([a], [b], route_codes("average", {}))[0]


def fuse_expert(a: Pose, b: Pose, route_map: ExpertMap) -> Pose:
    """Route each joint to the configured model; AVG routes take the mean.

    When the routed model's joint is absent but the other model has it, the
    present one is used so fusion never loses a joint both inputs could
    supply.
    """
    return fuse_all([a], [b], route_codes("expert", route_map))[0]
