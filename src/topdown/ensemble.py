"""Fuse two models' predictions for the same candidate.

Average mode takes per-joint arithmetic means; expert mode routes every joint
to the model configured for it.  Both assume the inputs were predicted on the
same detection candidate (shared detection score and box), which is what the
pipeline produces when two estimators run on one detector's output.

The rule is written once, as an array pass over many pairs: a mode resolves
to a (15,) route code (:func:`route_codes`), and :func:`fused_keypoints` /
:func:`fuse_all` fuse every pair of a document under it.  A run resolves the
code once; :func:`fuse_average` and :func:`fuse_expert` fuse one pair.
"""
from __future__ import annotations

import enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .model import (
    JOINTS,
    BBox,
    ContractError,
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


def mean_box(a: Sequence[float], b: Sequence[float]) -> BBox:
    """The mean of two boxes given as ``[x1, y1, x2, y2]`` corners.

    A mean beyond the float range raises a :class:`~topdown.model.ContractError`.
    """
    try:
        return BBox(*(0.5 * (p + q) for p, q in zip(a, b)))
    except ValueError as exc:
        raise ContractError(str(exc)) from exc


def _mean_bbox(a: BBox | None, b: BBox | None) -> BBox | None:
    if a is not None and b is not None:
        return mean_box((a.x1, a.y1, a.x2, a.y2), (b.x1, b.y1, b.x2, b.y2))
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


def fused_keypoints(
    a: Sequence[Pose], b: Sequence[Pose], routes: np.ndarray
) -> Iterator[Keypoints]:
    """The fused keypoints of each pair ``(a[i], b[i])``, computed in one array pass.

    ``routes`` is a :func:`route_codes` array.  A slot routed to one model
    takes that model's joint when it is present or the other model's is
    absent, else the other's.  An AVG slot takes the mean when both or
    neither are present (placeholders are averaged too, so fusing a pose with
    itself is an exact identity) and copies the present one otherwise.  Rows
    are checked as they are yielded: a row holding a mean beyond the float
    range raises a :class:`~topdown.model.ContractError` with the
    ``Keypoints`` constructor's message, naming the slot.
    """
    (axy, ac, ap), (bxy, bc, bp) = keypoint_arrays(a), keypoint_arrays(b)
    avg = (routes == _CODE[Route.AVG]) & (ap == bp)
    take_a = np.where(routes == _CODE[Route.A], ap | ~bp, ap & ~bp)
    with np.errstate(over="ignore"):
        xy = np.where(avg[..., None], 0.5 * (axy + bxy), np.where(take_a[..., None], axy, bxy))
        confidence = np.where(avg, 0.5 * (ac + bc), np.where(take_a, ac, bc))
    present = np.where(take_a, ap, bp)
    finite = np.isfinite(xy).all(axis=(1, 2)).tolist()
    for row_xy, row_confidence, row_present, ok in zip(xy, confidence, present, finite):
        if ok:
            keypoints = Keypoints.from_checked(row_xy, row_confidence, row_present)
        else:
            try:
                keypoints = Keypoints(row_xy, row_confidence, row_present)
            except ValueError as exc:
                raise ContractError(str(exc)) from exc
        yield keypoints


def fuse_all(a: Sequence[Pose], b: Sequence[Pose], routes: np.ndarray) -> list[Pose]:
    """Every pair ``(a[i], b[i])`` fused under ``routes``, in one array pass.

    A fused pose holds :func:`fused_keypoints`'s keypoints, the mean
    detection score and no track id.  Boxes are taken as given: the mean of
    two boxes, else the one present.
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
