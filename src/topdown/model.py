"""Core domain types for multi-person pose sequences plus JSON (de)serialization.

The document schema handled by :func:`load_sequence` / :func:`save_predictions`::

    {
      "name": str,
      "frames": [
        {
          "index": int,              # strictly increasing within a sequence
          "width": int, "height": int,
          "poses": [
            {
              "det_score": float,              # [0, 1]
              "track_id": int | null,          # non-negative, set after tracking
              "bbox": [x1, y1, x2, y2] | null,
              "keypoints": [                   # exactly one entry per joint
                {"joint": str, "x": float, "y": float,
                 "confidence": float, "present": bool}
              ]
            }
          ]
        }
      ]
    }

Boxes are stored as bare corner coordinates; a box score is not part of the
document and is reconstituted from the owning pose's ``det_score`` on load.
Unannotated or pruned keypoints are carried with ``present: false`` so the
15 joint slots keep stable indices.

:func:`save_predictions` writes the same bytes as
``json.dumps(sequence_to_dict(seq), indent=2)``; :func:`sequence_to_dict` is
the plain-data view of the schema and the reference for that contract.
:func:`load_sequence` checks each field in schema order and formats the
path of a field (``$.frames[0].poses[1].keypoints[4].x``) only when it
raises :class:`SequenceError` for it.
"""
from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Iterator


class Joint(enum.Enum):
    """The 15 tracked body landmarks, in canonical slot order."""

    NOSE = "nose"
    HEAD_BOTTOM = "head_bottom"
    HEAD_TOP = "head_top"
    LEFT_SHOULDER = "left_shoulder"
    RIGHT_SHOULDER = "right_shoulder"
    LEFT_ELBOW = "left_elbow"
    RIGHT_ELBOW = "right_elbow"
    LEFT_WRIST = "left_wrist"
    RIGHT_WRIST = "right_wrist"
    LEFT_HIP = "left_hip"
    RIGHT_HIP = "right_hip"
    LEFT_KNEE = "left_knee"
    RIGHT_KNEE = "right_knee"
    LEFT_ANKLE = "left_ankle"
    RIGHT_ANKLE = "right_ankle"

    @property
    def index(self) -> int:
        return _JOINT_INDEX[self]


JOINTS: tuple[Joint, ...] = tuple(Joint)
JOINT_NAMES: tuple[str, ...] = tuple(j.value for j in JOINTS)
_JOINT_INDEX = {j: i for i, j in enumerate(JOINTS)}


class EvalGroup(enum.Enum):
    """Scoring groups; values are the column labels used in reports."""

    HEAD = "Head"
    SHOULDER = "Shou"
    ELBOW = "Elb"
    WRIST = "Wri"
    HIP = "Hip"
    KNEE = "Knee"
    ANKLE = "Ankl"


GROUPS: tuple[EvalGroup, ...] = tuple(EvalGroup)

_GROUP_OF: dict[Joint, EvalGroup] = {
    Joint.NOSE: EvalGroup.HEAD,
    Joint.HEAD_BOTTOM: EvalGroup.HEAD,
    Joint.HEAD_TOP: EvalGroup.HEAD,
    Joint.LEFT_SHOULDER: EvalGroup.SHOULDER,
    Joint.RIGHT_SHOULDER: EvalGroup.SHOULDER,
    Joint.LEFT_ELBOW: EvalGroup.ELBOW,
    Joint.RIGHT_ELBOW: EvalGroup.ELBOW,
    Joint.LEFT_WRIST: EvalGroup.WRIST,
    Joint.RIGHT_WRIST: EvalGroup.WRIST,
    Joint.LEFT_HIP: EvalGroup.HIP,
    Joint.RIGHT_HIP: EvalGroup.HIP,
    Joint.LEFT_KNEE: EvalGroup.KNEE,
    Joint.RIGHT_KNEE: EvalGroup.KNEE,
    Joint.LEFT_ANKLE: EvalGroup.ANKLE,
    Joint.RIGHT_ANKLE: EvalGroup.ANKLE,
}


def joint_group(joint: Joint) -> EvalGroup:
    """Scoring group a joint belongs to; total and deterministic."""
    return _GROUP_OF[joint]


def group_joints(group: EvalGroup) -> tuple[Joint, ...]:
    """All joints mapped to ``group``, in canonical order."""
    return tuple(j for j in JOINTS if _GROUP_OF[j] is group)


class SequenceError(ValueError):
    """A sequence document violates the schema; the message names the path."""


def _require_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box in pixel coordinates with a detection score."""

    x1: float
    y1: float
    x2: float
    y2: float
    score: float = 0.0

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.x1)
            and math.isfinite(self.y1)
            and math.isfinite(self.x2)
            and math.isfinite(self.y2)
            and math.isfinite(self.score)
        ):
            for name in ("x1", "y1", "x2", "y2", "score"):
                _require_finite(getattr(self, name), f"BBox.{name}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"BBox corners out of order: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))


@dataclass(frozen=True, slots=True)
class Keypoint:
    """One joint observation: pixel position, confidence and presence flag."""

    joint: Joint
    x: float
    y: float
    confidence: float
    present: bool = True

    def __post_init__(self) -> None:
        if (
            math.isfinite(self.x)
            and math.isfinite(self.y)
            and math.isfinite(self.confidence)
            and 0.0 <= self.confidence <= 1.0
        ):
            return
        name = self.joint.value
        _require_finite(self.x, f"{name}.x")
        _require_finite(self.y, f"{name}.y")
        _require_finite(self.confidence, f"{name}.confidence")
        raise ValueError(f"{name}.confidence must be within [0, 1], got {self.confidence!r}")


@dataclass(frozen=True, slots=True)
class Pose:
    """A human candidate: one keypoint slot per joint plus detection metadata."""

    keypoints: tuple[Keypoint, ...]
    det_score: float = 1.0
    bbox: BBox | None = None
    track_id: int | None = None

    def __post_init__(self) -> None:
        if len(self.keypoints) != len(JOINTS):
            raise ValueError(f"expected {len(JOINTS)} keypoints, got {len(self.keypoints)}")
        for slot, kp in zip(JOINTS, self.keypoints):
            if kp.joint is not slot:
                held = kp.joint.value if isinstance(kp.joint, Joint) else repr(kp.joint)
                raise ValueError(f"keypoint slot {slot.value} holds {held}")
        _require_finite(self.det_score, "Pose.det_score")
        if not 0.0 <= self.det_score <= 1.0:
            raise ValueError(f"Pose.det_score must be within [0, 1], got {self.det_score!r}")
        if self.track_id is not None and self.track_id < 0:
            raise ValueError(f"Pose.track_id must be non-negative, got {self.track_id!r}")

    def keypoint(self, joint: Joint) -> Keypoint:
        return self.keypoints[joint.index]

    def present_joints(self) -> tuple[Joint, ...]:
        return tuple(kp.joint for kp in self.keypoints if kp.present)


@dataclass(frozen=True, slots=True)
class Frame:
    """All poses observed at one frame index."""

    index: int
    width: int
    height: int
    poses: tuple[Pose, ...] = ()

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"Frame.index must be non-negative, got {self.index!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"Frame size must be positive, got {self.width}x{self.height}")


@dataclass(frozen=True, slots=True)
class Sequence:
    """A named, ordered run of frames sharing one image size."""

    name: str
    frames: tuple[Frame, ...] = ()

    def __post_init__(self) -> None:
        previous = -1
        for frame in self.frames:
            if frame.index <= previous:
                raise ValueError(
                    f"frame indices must be strictly increasing, "
                    f"got {frame.index} after {previous}"
                )
            previous = frame.index
        sizes = {(f.width, f.height) for f in self.frames}
        if len(sizes) > 1:
            raise ValueError(f"frames disagree on image size: {sorted(sizes)}")

    def iter_poses(self) -> Iterator[tuple[Frame, Pose]]:
        for frame in self.frames:
            for pose in frame.poses:
                yield frame, pose


def strip_track_ids(seq: Sequence) -> Sequence:
    """Copy of ``seq`` with every pose's track id cleared."""
    return replace(
        seq,
        frames=tuple(
            replace(f, poses=tuple(replace(p, track_id=None) for p in f.poses))
            for f in seq.frames
        ),
    )


def pair_by_name(
    seqs: list[Sequence], others: list[Sequence], what: str, error: type[Exception]
) -> list[tuple[Sequence, Sequence]]:
    """Pair each sequence of ``seqs`` with the sequence of ``others`` that has its name.

    The rules are checked in this order, and the first one broken raises
    ``error`` with a message that starts with ``what`` (the role of
    ``others``): equal counts, names unique on both sides, every name present
    on the other side, equal frame indices within each pair.  Pairs come back
    in the order of ``seqs``.
    """
    if len(others) != len(seqs):
        raise error(f"{what}: got {len(others)} sequences, expected {len(seqs)}")
    for side in (seqs, others):
        duplicates = sorted(n for n, c in Counter(s.name for s in side).items() if c > 1)
        if duplicates:
            raise error(f"{what}: duplicate sequence names {duplicates}")
    by_name = {s.name: s for s in others}
    for seq in seqs:
        if seq.name not in by_name:
            raise error(f"{what}: no sequence named {seq.name!r}")
    pairs = [(seq, by_name[seq.name]) for seq in seqs]
    for seq, other in pairs:
        if [f.index for f in seq.frames] != [f.index for f in other.frames]:
            raise error(f"{what}: sequence {seq.name!r}: frame indices do not align")
    return pairs


# ---------------------------------------------------------------------------
# document parsing


def _as_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SequenceError(f"{path}: expected object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SequenceError(f"{path}: expected array, got {type(value).__name__}")
    return value


def _get(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise SequenceError(f"{path}.{key}: missing field")
    return doc[key]


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SequenceError(f"{path}: expected integer, got {value!r}")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SequenceError(f"{path}: expected number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SequenceError(f"{path}: must be finite, got {value!r}")
    return out


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SequenceError(f"{path}: expected boolean, got {value!r}")
    return value


_MISSING = object()
_SLOT_BY_NAME = {j.value: (i, j) for i, j in enumerate(JOINTS)}


def _keypoint_number(value: Any, key: str, path: str, k: int) -> float:
    """Field ``key`` of keypoint ``k`` when it is not a finite float: check and convert."""
    if value is _MISSING:
        raise SequenceError(f"{path}[{k}].{key}: missing field")
    return _as_float(value, f"{path}[{k}].{key}")


def _parse_keypoints(items: Any, path: str) -> tuple[Keypoint, ...]:
    entries = _as_list(items, path)
    if len(entries) != len(JOINTS):
        raise SequenceError(f"{path}: expected {len(JOINTS)} keypoints, got {len(entries)}")
    slots: list[Keypoint | None] = [None] * len(JOINTS)
    for k, obj in enumerate(entries):
        if not isinstance(obj, dict):
            raise SequenceError(f"{path}[{k}]: expected object, got {type(obj).__name__}")
        name = obj.get("joint", _MISSING)
        try:
            slot = _SLOT_BY_NAME.get(name)
        except TypeError:  # an array or object names no joint
            slot = None
        if slot is None:
            if name is _MISSING:
                raise SequenceError(f"{path}[{k}].joint: missing field")
            raise SequenceError(f"{path}[{k}].joint: unknown joint {name!r}")
        index, joint = slot
        if slots[index] is not None:
            raise SequenceError(f"{path}[{k}].joint: duplicate joint {name!r}")
        # the common case, a float in range (confidence) or finite (x, y), formats no path
        confidence = obj.get("confidence", _MISSING)
        if confidence.__class__ is not float or not 0.0 <= confidence <= 1.0:
            confidence = _keypoint_number(confidence, "confidence", path, k)
            if not 0.0 <= confidence <= 1.0:
                raise SequenceError(
                    f"{path}[{k}].confidence: must be within [0, 1], got {confidence!r}"
                )
        x = obj.get("x", _MISSING)
        if x.__class__ is not float or x - x != 0.0:
            x = _keypoint_number(x, "x", path, k)
        y = obj.get("y", _MISSING)
        if y.__class__ is not float or y - y != 0.0:
            y = _keypoint_number(y, "y", path, k)
        present = obj.get("present", _MISSING)
        if present is not True and present is not False:
            if present is _MISSING:
                raise SequenceError(f"{path}[{k}].present: missing field")
            _as_bool(present, f"{path}[{k}].present")
        slots[index] = Keypoint(joint, x, y, confidence, present)
    return tuple(slots)


def _parse_pose(raw: Any, path: str) -> Pose:
    obj = _as_mapping(raw, path)
    det_score = _as_float(_get(obj, "det_score", path), f"{path}.det_score")
    if not 0.0 <= det_score <= 1.0:
        raise SequenceError(f"{path}.det_score: must be within [0, 1], got {det_score!r}")
    track_id = _get(obj, "track_id", path)
    if track_id is not None:
        track_id = _as_int(track_id, f"{path}.track_id")
        if track_id < 0:
            raise SequenceError(f"{path}.track_id: must be non-negative, got {track_id}")
    raw_bbox = _get(obj, "bbox", path)
    bbox = None
    if raw_bbox is not None:
        coords = _as_list(raw_bbox, f"{path}.bbox")
        if len(coords) != 4:
            raise SequenceError(f"{path}.bbox: expected 4 coordinates, got {len(coords)}")
        x1, y1, x2, y2 = (
            _as_float(v, f"{path}.bbox[{i}]") for i, v in enumerate(coords)
        )
        if x2 < x1 or y2 < y1:
            raise SequenceError(f"{path}.bbox: corners out of order")
        bbox = BBox(x1, y1, x2, y2, score=det_score)
    keypoints = _parse_keypoints(_get(obj, "keypoints", path), f"{path}.keypoints")
    return Pose(keypoints=keypoints, det_score=det_score, bbox=bbox, track_id=track_id)


def sequence_from_dict(doc: Any, path: str = "$") -> Sequence:
    """Validate a decoded document and build a :class:`Sequence`."""
    obj = _as_mapping(doc, path)
    name = _get(obj, "name", path)
    if not isinstance(name, str):
        raise SequenceError(f"{path}.name: expected string, got {name!r}")
    frames: list[Frame] = []
    previous_index = -1
    size: tuple[int, int] | None = None
    for i, raw_frame in enumerate(_as_list(_get(obj, "frames", path), f"{path}.frames")):
        frame_path = f"{path}.frames[{i}]"
        frame_obj = _as_mapping(raw_frame, frame_path)
        index = _as_int(_get(frame_obj, "index", frame_path), f"{frame_path}.index")
        if index <= previous_index:
            raise SequenceError(
                f"{frame_path}.index: must be strictly greater than previous "
                f"({index} after {previous_index})"
            )
        previous_index = index
        width = _as_int(_get(frame_obj, "width", frame_path), f"{frame_path}.width")
        height = _as_int(_get(frame_obj, "height", frame_path), f"{frame_path}.height")
        if width <= 0 or height <= 0:
            raise SequenceError(f"{frame_path}: image size must be positive")
        if size is None:
            size = (width, height)
        elif (width, height) != size:
            raise SequenceError(
                f"{frame_path}: image size {width}x{height} differs from {size[0]}x{size[1]}"
            )
        poses = tuple(
            _parse_pose(raw_pose, f"{frame_path}.poses[{j}]")
            for j, raw_pose in enumerate(
                _as_list(_get(frame_obj, "poses", frame_path), f"{frame_path}.poses")
            )
        )
        frames.append(Frame(index=index, width=width, height=height, poses=poses))
    return Sequence(name=name, frames=tuple(frames))


def load_sequence(text: str) -> Sequence:
    """Parse and validate a sequence document; raise :class:`SequenceError` otherwise."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise SequenceError(f"$: not valid JSON ({exc})") from exc
    return sequence_from_dict(doc)


def sequence_to_dict(seq: Sequence) -> dict:
    """Schema-conformant plain-data view of ``seq``."""
    return {
        "name": seq.name,
        "frames": [
            {
                "index": frame.index,
                "width": frame.width,
                "height": frame.height,
                "poses": [
                    {
                        "det_score": pose.det_score,
                        "track_id": pose.track_id,
                        "bbox": (
                            None
                            if pose.bbox is None
                            else [pose.bbox.x1, pose.bbox.y1, pose.bbox.x2, pose.bbox.y2]
                        ),
                        "keypoints": [
                            {
                                "joint": kp.joint.value,
                                "x": kp.x,
                                "y": kp.y,
                                "confidence": kp.confidence,
                                "present": kp.present,
                            }
                            for kp in pose.keypoints
                        ],
                    }
                    for pose in frame.poses
                ],
            }
            for frame in seq.frames
        ],
    }


_INF = float("inf")


def _json_value(value: Any, pad: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it in a document, ``pad`` deep.

    Scalars follow the rules of ``json``'s encoder: ``null``/``true``/``false``
    by identity, then ``int.__repr__`` for ints and ``NaN``/``Infinity`` or
    ``float.__repr__`` for floats, subclasses included.  Any other value is
    written by ``json.dumps`` itself and re-indented to ``pad``.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


# The writer lays the document out as json.dumps(..., indent=2) does: frames
# 4 spaces deep, frame fields 6, poses 8, pose fields 10, keypoints 12 and
# keypoint fields 14, items separated by ",\n".  One keypoint template per
# joint slot, since a Pose holds exactly one keypoint per joint in slot order.
_KEYPOINT_TEXT = tuple(
    "{\n"
    f'              "joint": {json.dumps(name)},\n'
    '              "x": %s,\n'
    '              "y": %s,\n'
    '              "confidence": %s,\n'
    '              "present": %s\n'
    "            }"
    for name in JOINT_NAMES
)


def _keypoint_text(template: str, kp: Keypoint) -> str:
    x, y, confidence, present = kp.x, kp.y, kp.confidence, kp.present
    if x.__class__ is float and y.__class__ is float and confidence.__class__ is float:
        # a Keypoint holds only finite numbers, which json spells with repr
        numbers = (repr(x), repr(y), repr(confidence))
    else:
        numbers = tuple(_json_value(v, " " * 14) for v in (x, y, confidence))
    if present is True:
        flag = "true"
    elif present is False:
        flag = "false"
    else:
        flag = _json_value(present, " " * 14)
    return template % (*numbers, flag)


def _pose_text(pose: Pose) -> str:
    box = pose.bbox
    if box is None:
        bbox = "null"
    else:
        corners = ",\n            ".join(
            _json_value(v, " " * 12) for v in (box.x1, box.y1, box.x2, box.y2)
        )
        bbox = f"[\n            {corners}\n          ]"
    keypoints = ",\n            ".join(
        [_keypoint_text(t, kp) for t, kp in zip(_KEYPOINT_TEXT, pose.keypoints)]
    )
    return (
        "{\n"
        f'          "det_score": {_json_value(pose.det_score, " " * 10)},\n'
        f'          "track_id": {_json_value(pose.track_id, " " * 10)},\n'
        f'          "bbox": {bbox},\n'
        f'          "keypoints": [\n            {keypoints}\n          ]\n'
        "        }"
    )


def _frame_text(frame: Frame) -> str:
    if frame.poses:
        poses = ",\n        ".join([_pose_text(p) for p in frame.poses])
        poses = f"[\n        {poses}\n      ]"
    else:
        poses = "[]"
    return (
        "{\n"
        f'      "index": {_json_value(frame.index, " " * 6)},\n'
        f'      "width": {_json_value(frame.width, " " * 6)},\n'
        f'      "height": {_json_value(frame.height, " " * 6)},\n'
        f'      "poses": {poses}\n'
        "    }"
    )


def save_predictions(seq: Sequence) -> str:
    """Serialize ``seq`` to the sequence document format.

    The text is byte-identical to ``json.dumps(sequence_to_dict(seq),
    indent=2)``.  It is built straight from the dataclasses because ``json``
    runs its pure-Python encoder whenever ``indent`` is set.
    """
    if seq.frames:
        frames = ",\n    ".join([_frame_text(f) for f in seq.frames])
        frames = f"[\n    {frames}\n  ]"
    else:
        frames = "[]"
    return f'{{\n  "name": {_json_value(seq.name, "  ")},\n  "frames": {frames}\n}}'
