"""Scalar forms of the library's rules, written out one pose or one field at a time.

The library keeps each rule once, as an array pass: box inference
(``geometry.infer_corners``), fusion (``ensemble.fused_keypoints``), the
head size (``metrics._head_sizes``) and the reference head size with its
box fallback (``metrics._reference_head_sizes``); its one-pose functions are
one-row calls of those.  The loops here are the plain statements of the same rules,
kept as oracles that the array forms must equal bit for bit, errors included.

:func:`sequence_from_document` is the reference for reading a sequence
document: it checks and builds field by field, in document order, where
``model`` builds a whole document in one bulk check and only walks the
fields of a document that check refuses, to name the first fault.
"""
from __future__ import annotations

import math
from itertools import compress
from typing import Any, Iterable, Mapping

import numpy as np

from topdown.ensemble import Route
from topdown.geometry import DegenerateGeometryError
from topdown.metrics import EvaluationError, PckhThreshold
from topdown.model import (
    JOINTS,
    BBox,
    ContractError,
    Frame,
    Joint,
    Keypoint,
    Keypoints,
    Pose,
    Sequence,
    SequenceError,
)

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
    return BBox(*corners)


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
    try:
        return Keypoints(np.array(xy).reshape(len(JOINTS), 2), confidence, present)
    except ValueError as exc:
        raise ContractError(str(exc)) from exc


def _mean_bbox(a: BBox | None, b: BBox | None) -> BBox | None:
    if a is None or b is None:
        return a if a is not None else b
    try:
        return BBox(
            0.5 * (a.x1 + b.x1),
            0.5 * (a.y1 + b.y1),
            0.5 * (a.x2 + b.x2),
            0.5 * (a.y2 + b.y2),
        )
    except ValueError as exc:  # a mean beyond the float range
        raise ContractError(str(exc)) from exc


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


def _object(value: Any, path: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise SequenceError(f"{path}: expected object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise SequenceError(f"{path}.{key}: unknown field")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SequenceError(f"{path}: expected array, got {type(value).__name__}")
    return value


def _field(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SequenceError(f"{path}.{key}: missing field")
    return obj[key]


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SequenceError(f"{path}: expected integer, got {value!r}")
    return value


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SequenceError(f"{path}: expected number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SequenceError(f"{path}: must be finite, got {value!r}")
    return out


def _keypoint(raw: Any, path: str, slot: int) -> Keypoint:
    obj = _object(raw, path, ("joint", "x", "y", "confidence", "present"))
    name = _field(obj, "joint", path)
    try:
        joint = Joint(name)
    except (ValueError, TypeError):
        raise SequenceError(f"{path}.joint: unknown joint {name!r}") from None
    if joint.index < slot:
        raise SequenceError(f"{path}.joint: duplicate joint {name!r}")
    if joint.index > slot:
        raise SequenceError(f"{path}.joint: expected {JOINTS[slot].value!r}, got {name!r}")
    confidence = _number(_field(obj, "confidence", path), f"{path}.confidence")
    if not 0.0 <= confidence <= 1.0:
        raise SequenceError(f"{path}.confidence: must be within [0, 1], got {confidence!r}")
    x = _number(_field(obj, "x", path), f"{path}.x")
    y = _number(_field(obj, "y", path), f"{path}.y")
    present = _field(obj, "present", path)
    if not isinstance(present, bool):
        raise SequenceError(f"{path}.present: expected boolean, got {present!r}")
    return Keypoint(joint, x, y, confidence, present)


def _pose(raw: Any, path: str) -> Pose:
    obj = _object(raw, path, ("det_score", "track_id", "bbox", "keypoints"))
    det_score = _number(_field(obj, "det_score", path), f"{path}.det_score")
    if not 0.0 <= det_score <= 1.0:
        raise SequenceError(f"{path}.det_score: must be within [0, 1], got {det_score!r}")
    track_id = _field(obj, "track_id", path)
    if track_id is not None:
        track_id = _integer(track_id, f"{path}.track_id")
        if track_id < 0:
            raise SequenceError(f"{path}.track_id: must be non-negative, got {track_id}")
    bbox = _field(obj, "bbox", path)
    if bbox is not None:
        coords = _array(bbox, f"{path}.bbox")
        if len(coords) != 4:
            raise SequenceError(f"{path}.bbox: expected 4 coordinates, got {len(coords)}")
        x1, y1, x2, y2 = [_number(v, f"{path}.bbox[{i}]") for i, v in enumerate(coords)]
        if x2 < x1 or y2 < y1:
            raise SequenceError(f"{path}.bbox: corners out of order")
        bbox = BBox(x1, y1, x2, y2)
    entries = _array(_field(obj, "keypoints", path), f"{path}.keypoints")
    if len(entries) != len(JOINTS):
        raise SequenceError(
            f"{path}.keypoints: expected {len(JOINTS)} keypoints, got {len(entries)}"
        )
    keypoints = tuple(
        _keypoint(entry, f"{path}.keypoints[{k}]", k) for k, entry in enumerate(entries)
    )
    return Pose(keypoints, det_score, bbox, track_id)


def sequence_from_document(doc: Any, path: str = "$") -> Sequence:
    """The sequence of a decoded document, checked and built field by field in document order.

    Every object holds the schema's keys and no other, checked first; the
    first rule broken raises :class:`SequenceError` naming the path of the
    field.  Numbers are read as floats, except frame fields and track ids.
    """
    obj = _object(doc, path, ("name", "frames"))
    name = _field(obj, "name", path)
    if not isinstance(name, str):
        raise SequenceError(f"{path}.name: expected string, got {name!r}")
    frames = []
    previous = -1
    size = None
    for i, raw in enumerate(_array(_field(obj, "frames", path), f"{path}.frames")):
        at = f"{path}.frames[{i}]"
        frame = _object(raw, at, ("index", "width", "height", "poses"))
        index = _integer(_field(frame, "index", at), f"{at}.index")
        if index <= previous:
            raise SequenceError(
                f"{at}.index: must be strictly greater than previous ({index} after {previous})"
            )
        previous = index
        width = _integer(_field(frame, "width", at), f"{at}.width")
        height = _integer(_field(frame, "height", at), f"{at}.height")
        if width <= 0 or height <= 0:
            raise SequenceError(f"{at}: image size must be positive")
        if size is None:
            size = (width, height)
        elif (width, height) != size:
            raise SequenceError(
                f"{at}: image size {width}x{height} differs from {size[0]}x{size[1]}"
            )
        poses = _array(_field(frame, "poses", at), f"{at}.poses")
        frames.append(
            Frame(index, width, height, tuple(
                _pose(raw_pose, f"{at}.poses[{j}]") for j, raw_pose in enumerate(poses)
            ))
        )
    return Sequence(name, tuple(frames))
