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

A box is its four corners: a candidate's only score is its pose's
``det_score``.  Unannotated or pruned keypoints are carried with
``present: false`` so the 15 joint slots keep stable indices.

In memory a sequence is held as :class:`Columns` first: per frame its
index, width, height and pose count, and per pose (numbered frame by frame)
a row of positions ``(n, 15, 2)``, confidences, presence flags, detection
score, box corners with a has-box mask, and track id.  The loader builds the
columns of a document directly, and each stage of a run reads columns and
returns a sequence held as columns (:meth:`Sequence.of_columns`), so a run
builds no per-pose object between load and save.  Such a sequence builds its
``frames``, and the :class:`Frame`, :class:`Pose`, :class:`Keypoints` and
:class:`BBox` objects in them, only when ``frames`` is first read; a
sequence built through the types is stacked into columns on first use
(:meth:`Sequence.columns`).  Either form, once made, is kept; the writer
alone stacks a sequence without keeping its columns.

A pose's keypoints are a :class:`Keypoints`: read-only arrays of positions,
confidences and presence flags, indexed by joint slot, which read as
:class:`Keypoint` values built on access.  The types check the values they
hold as the loader checks a document, so whatever they accept saves to a
document that loads back equal.  The pose layout lives here too: a
sequence's poses laid flat frame by frame (:meth:`Sequence.all_poses`),
regrouped into its frames (:meth:`Sequence.with_poses`) and stacked
(:func:`keypoint_arrays`).

:func:`save_predictions` writes the same bytes as
``json.dumps(sequence_to_dict(seq), indent=2)``; :func:`sequence_to_dict` is
the plain-data view of the schema, read from the columns, and the reference
for that contract.
The write rule: orjson encodes ``sequence_to_dict(seq)`` with an empty name
and, in place of each score, corner, coordinate or confidence that is not 0
and of magnitude outside [1e-4, 1e16) (found on whole columns), a hole: a
negative int that numbers the value.  orjson spells every other value as
``json`` does; each hole is then filled with ``json``'s spelling of its
value, and the name is written by ``json``.  A document orjson refuses (an
int beyond 64 bits, a float subclass, a numpy scalar) is written by
``json.dumps(sequence_to_dict(seq), indent=2)`` itself.
The decode rule of :func:`load_sequence`: text holding fewer than 20,000
``[`` and ``{`` (about 1,000 poses; orjson has no nesting limit and would
overflow the C stack) is decoded with orjson.  Any other text, and any
whose orjson decoding is not accepted, is decoded with ``json``: orjson
refuses ``NaN``, ``Infinity``, ``1e400`` and a lone surrogate, and reads an
integer of 2**64 or more as a float.  One bulk check builds the columns
of a decoded document: every object holds exactly the schema's keys, every
value has its plain type, and the rules of the types hold, all checked on
whole columns.  A document it refuses is walked field by field in document
order, which builds nothing and raises a :class:`SequenceError` naming the
path of the first field at fault (``$.frames[0].poses[1].keypoints[4].x``,
``$.frames[0].poses[0].note: unknown field``).  The keypoint arrays of a
whole document are built once, and the poses built on a read of ``frames``
hold views of them.

Configs, generator specs and reports are dataclass records, written as JSON
by :func:`record_to_dict` and read back by :func:`record_from_dict`.
"""
from __future__ import annotations

import bisect
import enum
import functools
import json
import math
import numbers
import operator
import re
from collections import Counter, abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from itertools import accumulate, chain, islice
from typing import Any, Iterable, Iterator, get_args, get_origin, get_type_hints

import numpy as np
import orjson


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


class ContractError(ValueError):
    """Inputs break a rule of the library: misaligned sequences, a pose no box fits, a
    value computed from them beyond the float range.  The library's error classes derive
    from it."""


def _is_finite(value: float) -> bool:
    """``math.isfinite``, reading an integer beyond the float range as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_finite(value: float, what: str) -> None:
    if not _is_finite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")


def is_real(value: Any) -> bool:
    """Whether ``value`` is a finite real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and _is_finite(value)


def require_real(value: Any, what: str) -> None:
    """Raise ``ValueError`` unless ``value`` :func:`is_real`."""
    if not is_real(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")


def require_int(value: Any, what: str) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` other than a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _require_number(value: Any, what: str) -> None:
    """An ``int`` or ``float`` (not a bool): the numbers a document spells as JSON numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box in pixel coordinates; a candidate's score is its pose's ``det_score``."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        plain = (
            self.x1.__class__ is float
            and self.y1.__class__ is float
            and self.x2.__class__ is float
            and self.y2.__class__ is float
            and math.isfinite(self.x1)
            and math.isfinite(self.y1)
            and math.isfinite(self.x2)
            and math.isfinite(self.y2)
        )
        if not plain:
            for name in ("x1", "y1", "x2", "y2"):
                _require_number(getattr(self, name), f"BBox.{name}")
                _require_finite(getattr(self, name), f"BBox.{name}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"BBox corners out of order: {self}")
        if not plain:
            # held as floats, as a document loads them: an int beyond 2**53 would not load back
            for name in ("x1", "y1", "x2", "y2"):
                object.__setattr__(self, name, float(getattr(self, name)))

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
    """One joint observation: pixel position, confidence and presence flag.

    A value type: :class:`Keypoints` stores a pose's keypoints as arrays and
    builds ``Keypoint`` values only when one is read.
    """

    joint: Joint
    x: float
    y: float
    confidence: float
    present: bool = True

    def __post_init__(self) -> None:
        try:
            if (
                math.isfinite(self.x)
                and math.isfinite(self.y)
                and math.isfinite(self.confidence)
                and 0.0 <= self.confidence <= 1.0
                and (self.present is True or self.present is False)
            ):
                return
        except OverflowError:  # an integer beyond the float range, named below
            pass
        name = self.joint.value
        _require_finite(self.x, f"{name}.x")
        _require_finite(self.y, f"{name}.y")
        _require_finite(self.confidence, f"{name}.confidence")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"{name}.confidence must be within [0, 1], got {self.confidence!r}")
        raise ValueError(f"{name}.present must be a boolean, got {self.present!r}")


_N = len(JOINTS)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Keypoints(abc.Sequence):
    """The 15 keypoint slots of one pose, held as read-only arrays indexed by slot.

    ``xy`` is (15, 2) float64 positions, ``confidence`` (15,) float64 within
    [0, 1] and ``present`` (15,) bool.  The constructor copies and checks its
    arrays; every other way a ``Keypoints`` is made (the document parser, a
    new presence mask) starts from values already checked.  It reads as a
    sequence of :class:`Keypoint` values, built on access, and equals another
    ``Keypoints`` or a tuple of ``Keypoint``s that holds the same values.
    """

    __slots__ = ("xy", "confidence", "present")

    def __init__(self, xy, confidence, present) -> None:
        xy = np.array(xy, dtype=float)
        confidence = np.array(confidence, dtype=float)
        present = np.array(present)
        if xy.shape != (_N, 2) or confidence.shape != (_N,) or present.shape != (_N,):
            raise ValueError(
                f"keypoint arrays must have shapes (15, 2), (15,), (15,), "
                f"got {xy.shape}, {confidence.shape}, {present.shape}"
            )
        if present.dtype != bool:
            raise ValueError(f"keypoint presence must be boolean, got dtype {present.dtype}")
        if not (np.isfinite(xy).all() and ((confidence >= 0.0) & (confidence <= 1.0)).all()):
            for joint, (x, y), c in zip(JOINTS, xy.tolist(), confidence.tolist()):
                Keypoint(joint, x, y, c)  # raises the message of the first slot at fault
        _set_arrays(self, _frozen(xy), _frozen(confidence), _frozen(present))

    @classmethod
    def from_checked(
        cls, xy: np.ndarray, confidence: np.ndarray, present: np.ndarray
    ) -> "Keypoints":
        """Wrap new float64 / bool arrays of the right shapes whose values are known valid.

        For arrays derived from checked ones (a fusion of two poses): nothing
        is copied or checked, and the arrays are made read-only.
        """
        return _keypoints(_frozen(xy), _frozen(confidence), _frozen(present))

    def with_present(self, present: np.ndarray) -> "Keypoints":
        """The same positions and confidences under the boolean (15,) mask ``present``."""
        if present.dtype != bool or present.shape != (_N,):
            raise ValueError("a presence mask must be a boolean array of shape (15,)")
        return _keypoints(self.xy, self.confidence, _frozen(present.copy()))

    def __len__(self) -> int:
        return _N

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        j = range(_N)[index]
        x, y = self.xy[j].tolist()
        return Keypoint(JOINTS[j], x, y, self.confidence[j].item(), self.present[j].item())

    def __iter__(self) -> Iterator[Keypoint]:
        values = zip(JOINTS, self.xy.tolist(), self.confidence.tolist(), self.present.tolist())
        return (Keypoint(j, x, y, c, p) for j, (x, y), c, p in values)

    def __eq__(self, other) -> bool:
        if isinstance(other, Keypoints):
            return (
                np.array_equal(self.xy, other.xy)
                and np.array_equal(self.confidence, other.confidence)
                and np.array_equal(self.present, other.present)
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Keypoints({tuple(self)!r})"

    def __reduce__(self):
        return Keypoints, (self.xy, self.confidence, self.present)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Keypoints is read-only; cannot set {name!r}")

    __delattr__ = __setattr__


def _set_arrays(kps: Keypoints, xy, confidence, present) -> None:
    object.__setattr__(kps, "xy", xy)
    object.__setattr__(kps, "confidence", confidence)
    object.__setattr__(kps, "present", present)


def _keypoints(xy: np.ndarray, confidence: np.ndarray, present: np.ndarray) -> Keypoints:
    """A :class:`Keypoints` of read-only arrays whose values are already checked."""
    kps = object.__new__(Keypoints)
    _set_arrays(kps, xy, confidence, present)
    return kps


def _keypoints_of(values) -> Keypoints:
    """The arrays of a sequence of :class:`Keypoint` values, one per slot in slot order."""
    if len(values) != _N:
        raise ValueError(f"expected {_N} keypoints, got {len(values)}")
    for slot, kp in zip(JOINTS, values):
        if kp.joint is not slot:
            held = kp.joint.value if isinstance(kp.joint, Joint) else repr(kp.joint)
            raise ValueError(f"keypoint slot {slot.value} holds {held}")
    # each Keypoint checked its own values when it was built
    return Keypoints.from_checked(
        np.array([(kp.x, kp.y) for kp in values], dtype=float),
        np.array([kp.confidence for kp in values], dtype=float),
        np.array([kp.present for kp in values], dtype=bool),
    )


@dataclass(frozen=True, slots=True)
class Pose:
    """A human candidate: one keypoint slot per joint plus detection metadata.

    ``keypoints`` may be given as :class:`Keypoints` or as 15 :class:`Keypoint`
    values in slot order; it is stored as :class:`Keypoints`, whose arrays
    ``xy``, ``confidence`` and ``present`` the pose also exposes.
    """

    keypoints: Keypoints
    det_score: float = 1.0
    bbox: BBox | None = None
    track_id: int | None = None

    def __post_init__(self) -> None:
        if self.keypoints.__class__ is not Keypoints:
            object.__setattr__(self, "keypoints", _keypoints_of(self.keypoints))
        score = self.det_score
        if not (score.__class__ is float and 0.0 <= score <= 1.0):
            _require_number(score, "Pose.det_score")
            _require_finite(score, "Pose.det_score")
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"Pose.det_score must be within [0, 1], got {score!r}")
        if self.bbox is not None and self.bbox.__class__ is not BBox:
            raise ValueError(f"Pose.bbox must be a BBox or None, got {self.bbox!r}")
        if self.track_id is not None:
            require_int(self.track_id, "Pose.track_id")
            if self.track_id < 0:
                raise ValueError(f"Pose.track_id must be non-negative, got {self.track_id!r}")

    @property
    def xy(self) -> np.ndarray:
        return self.keypoints.xy

    @property
    def confidence(self) -> np.ndarray:
        return self.keypoints.confidence

    @property
    def present(self) -> np.ndarray:
        return self.keypoints.present

    def keypoint(self, joint: Joint) -> Keypoint:
        return self.keypoints[joint.index]

    def present_joints(self) -> tuple[Joint, ...]:
        return tuple(JOINTS[j] for j in np.flatnonzero(self.present).tolist())


@dataclass(frozen=True, slots=True)
class Frame:
    """All poses observed at one frame index."""

    index: int
    width: int
    height: int
    poses: tuple[Pose, ...] = ()

    def __post_init__(self) -> None:
        require_int(self.index, "Frame.index")
        require_int(self.width, "Frame.width")
        require_int(self.height, "Frame.height")
        if self.index < 0:
            raise ValueError(f"Frame.index must be non-negative, got {self.index!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"Frame size must be positive, got {self.width}x{self.height}")


_NO_BOX = (math.nan,) * 4


def _box_rows(poses: abc.Sequence[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """``(n, 4)`` corners of each pose's own box (NaN for none) and the ``(n,)`` has-box mask."""
    rows = [_NO_BOX if (b := p.bbox) is None else (b.x1, b.y1, b.x2, b.y2) for p in poses]
    boxed = np.array([p.bbox is not None for p in poses], dtype=bool)
    return np.array(rows, dtype=float).reshape(len(poses), 4), boxed


@dataclass(frozen=True, slots=True, eq=False)
class Columns:
    """A sequence's frames and poses as columns: what a run passes from stage to stage.

    Frame columns hold one entry per frame; pose columns hold one row per
    pose, numbered frame by frame, ``counts[f]`` rows for frame ``f``.  The
    arrays are read-only.  ``det_score`` and ``track_id`` hold the values
    the types hold (an API-built pose's int ``det_score`` stays an int, a
    missing track id is ``None``), and a ``box`` row is NaN where ``boxed``
    is False.  The columns of a sequence obey the rules of :class:`Frame`,
    :class:`Pose`, :class:`BBox` and :class:`Sequence`.
    """

    index: tuple[int, ...]
    width: tuple[int, ...]
    height: tuple[int, ...]
    counts: tuple[int, ...]
    xy: np.ndarray  # (n, 15, 2)
    confidence: np.ndarray  # (n, 15)
    present: np.ndarray  # (n, 15) bool
    det_score: list  # (n,)
    box: np.ndarray  # (n, 4) corners
    boxed: np.ndarray  # (n,) bool
    track_id: list  # (n,) int or None

    def __post_init__(self) -> None:
        for array in (self.xy, self.confidence, self.present, self.box, self.boxed):
            array.flags.writeable = False

    @classmethod
    def of_frames(cls, frames: abc.Sequence[Frame]) -> "Columns":
        """The columns of ``frames``, stacked from their poses."""
        poses = [pose for frame in frames for pose in frame.poses]
        xy, confidence, present = keypoint_arrays(poses)
        box, boxed = _box_rows(poses)
        return cls(
            tuple(f.index for f in frames),
            tuple(f.width for f in frames),
            tuple(f.height for f in frames),
            tuple(len(f.poses) for f in frames),
            xy,
            confidence,
            present,
            [p.det_score for p in poses],
            box,
            boxed,
            [p.track_id for p in poses],
        )

    def frames(self) -> tuple[Frame, ...]:
        """The frames the columns hold, each pose built from its row."""
        boxes = [
            BBox(*row) if ok else None for row, ok in zip(self.box.tolist(), self.boxed.tolist())
        ]
        rows = zip(self.xy, self.confidence, self.present, self.det_score, boxes, self.track_id)
        poses = iter([Pose(_keypoints(xy, c, p), s, b, t) for xy, c, p, s, b, t in rows])
        return tuple(
            Frame(index, width, height, tuple(islice(poses, count)))
            for index, width, height, count in zip(self.index, self.width, self.height, self.counts)
        )

    def frame_of(self, row: int) -> int:
        """The position of the frame that holds pose ``row``."""
        return bisect.bisect_right(list(accumulate(self.counts)), row)


class _Frames:
    """The ``frames`` slot of a :class:`Sequence`, built from its columns on first read."""

    __slots__ = ("slot",)

    def __init__(self, slot) -> None:
        self.slot = slot

    def __get__(self, seq, owner=None):
        if seq is None:
            return self
        try:
            return self.slot.__get__(seq, owner)
        except AttributeError:  # a column-backed sequence whose frames were never read
            frames = seq._columns.frames()
            self.slot.__set__(seq, frames)
            return frames

    def __set__(self, seq, frames) -> None:
        self.slot.__set__(seq, frames)


@dataclass(frozen=True, slots=True)
class Sequence:
    """A named, ordered run of frames sharing one image size.

    A sequence is held either as its frames (one built through the types) or
    as :class:`Columns` (one that the loader or a stage of a run built); the
    other form is made from it on first use and kept (:meth:`columns`, and
    ``frames`` on first read).  The writer stacks a sequence without keeping
    its columns.
    """

    name: str
    frames: tuple[Frame, ...] = ()
    _columns: Columns | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of_columns(cls, name: str, columns: Columns) -> "Sequence":
        """The sequence ``name`` held as ``columns``, whose values obey the types' rules."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "name", name)
        object.__setattr__(seq, "_columns", columns)
        return seq

    def columns(self) -> Columns:
        """The sequence as :class:`Columns`, stacked from its frames on first use."""
        if self._columns is None:
            object.__setattr__(self, "_columns", Columns.of_frames(self.frames))
        return self._columns

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"Sequence.name must be a string, got {self.name!r}")
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

    def all_poses(self) -> list[Pose]:
        """Every pose of the sequence, frame by frame: the flat pose order of a document."""
        return [pose for frame in self.frames for pose in frame.poses]

    def with_poses(self, poses: Iterable[Pose]) -> "Sequence":
        """The same frames, each holding the next ``len(frame.poses)`` of ``poses``."""
        flat = iter(poses)
        return Sequence(self.name, tuple(
            Frame(f.index, f.width, f.height, tuple(islice(flat, len(f.poses))))
            for f in self.frames
        ))


# a column-backed sequence leaves its frames slot empty until it is read
Sequence.frames = _Frames(Sequence.frames)


def keypoint_arrays(poses: abc.Sequence[Pose]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, 15, 2)`` float ``xy``, ``(n, 15)`` float ``confidence`` and ``(n, 15)`` bool
    ``present`` of ``poses``, with these shapes also at ``n = 0``."""
    n = len(poses)
    keypoints = [p.keypoints for p in poses]
    return (
        np.array([k.xy for k in keypoints], dtype=float).reshape(n, _N, 2),
        np.array([k.confidence for k in keypoints], dtype=float).reshape(n, _N),
        np.array([k.present for k in keypoints], dtype=bool).reshape(n, _N),
    )


def strip_track_ids(seq: Sequence) -> Sequence:
    """Copy of ``seq`` with every pose's track id cleared."""
    columns = seq.columns()
    return Sequence.of_columns(seq.name, replace(columns, track_id=[None] * len(columns.track_id)))


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
        if seq.columns().index != other.columns().index:
            raise error(f"{what}: sequence {seq.name!r}: frame indices do not align")
    return pairs


# ---------------------------------------------------------------------------
# document parsing

_DOCUMENT_KEYS = ("name", "frames")
_FRAME_KEYS = ("index", "width", "height", "poses")
_POSE_KEYS = ("det_score", "track_id", "bbox", "keypoints")
_KEYPOINT_KEYS = ("joint", "x", "y", "confidence", "present")
_NONE = type(None)
_JOINT_COLUMN = list(JOINT_NAMES)  # one pose's joint column, as _columns reads it


def _keypoint_columns(
    xs: abc.Sequence, ys: abc.Sequence, confidences: abc.Sequence, flags: abc.Sequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The ``xy``, ``confidence`` and ``present`` arrays of a document's keypoints.

    The columns hold the float values and flags of every pose of a document,
    15 slots per pose in slot order.  ``None`` when a position is not finite
    or a confidence is outside [0, 1].
    """
    n = len(flags) // _N
    xy = np.stack((np.array(xs, dtype=float), np.array(ys, dtype=float)), -1)
    confidence = np.array(confidences, dtype=float)
    if not (np.isfinite(xy).all() and ((confidence >= 0.0) & (confidence <= 1.0)).all()):
        return None
    present = np.array(flags, dtype=bool).reshape(n, _N)
    return xy.reshape(n, _N, 2), confidence.reshape(n, _N), present


def _columns(keys: tuple[str, ...], objects: list) -> list[list] | None:
    """The ``keys`` of ``objects`` as columns, if each is a dict of exactly those keys.

    Each key is read as its own column, so no object is built per item.
    """
    if objects and (set(map(type, objects)) != {dict} or set(map(len, objects)) != {len(keys)}):
        return None
    try:
        return [list(map(operator.itemgetter(key), objects)) for key in keys]
    except KeyError:
        return None


def _float_column(column: abc.Sequence) -> abc.Sequence | None:
    """``column`` as floats, if it holds only floats and ints, else ``None``.

    An int is read as the float it rounds to, as :func:`_as_float` reads it;
    one beyond the float range gives ``None``.
    """
    kinds = set(map(type, column))
    if kinds <= {float}:
        return column
    if not kinds <= {float, int}:
        return None
    try:
        return list(map(float, column))
    except OverflowError:  # an integer beyond the float range
        return None


def _plain_document(doc: Any) -> Sequence | None:
    """The :class:`Sequence` of a decoded document, else ``None``.

    This is the only code that builds a sequence from a document.  Every
    object must hold exactly the schema's keys, and every value must have
    its plain type: a ``str`` name, ``int`` frame fields, ``float`` or ``int``
    scores, corners and coordinates (an ``int`` is read as a float), an
    ``int`` or null track id, a null or 4-item box, ``bool`` flags, and
    joints in slot order.  The sequence is held as :class:`Columns`, built
    once from the key columns, and the rules of the types (keypoint ranges,
    frame order and size, score range, non-negative track ids, finite and
    ordered corners) are checked on them; no frame or pose is built.
    Anything else gives ``None``, and :func:`_check_document` says why.
    Exact key sets also bound the depth of an accepted document.
    """
    if doc.__class__ is not dict or len(doc) != 2 or "name" not in doc or "frames" not in doc:
        return None
    name, frames = doc["name"], doc["frames"]
    if name.__class__ is not str or frames.__class__ is not list:
        return None
    columns = _columns(_FRAME_KEYS, frames)
    if columns is None:
        return None
    indices, widths, heights, pose_lists = columns
    if not (
        set(map(type, indices + widths + heights)) <= {int}
        and set(map(type, pose_lists)) <= {list}
    ):
        return None
    poses = list(chain.from_iterable(pose_lists))
    columns = _columns(_POSE_KEYS, poses)
    if columns is None:
        return None
    det_scores, track_ids, boxes, keypoint_lists = columns
    given = [box for box in boxes if box is not None]
    if not (
        set(map(type, track_ids)) <= {int, _NONE}
        and set(map(type, boxes)) <= {list, _NONE}
        and set(map(len, given)) <= {4}
        and set(map(type, keypoint_lists)) <= {list}
        and set(map(len, keypoint_lists)) <= {_N}
    ):
        return None
    corners = list(chain.from_iterable(given))
    floats = _float_column(corners)
    det_scores = _float_column(det_scores)
    if floats is None or det_scores is None:
        return None
    columns = _columns(_KEYPOINT_KEYS, list(chain.from_iterable(keypoint_lists)))
    if columns is None:
        return None
    joints, xs, ys, confidences, flags = columns
    xs, ys, confidences = _float_column(xs), _float_column(ys), _float_column(confidences)
    if not (
        joints == _JOINT_COLUMN * len(poses)
        and xs is not None
        and ys is not None
        and confidences is not None
        and set(map(type, flags)) <= {bool}
    ):
        return None
    keypoints = _keypoint_columns(xs, ys, confidences, flags)
    if keypoints is None:
        return None
    # the rules of Frame, Sequence, Pose and BBox, on columns
    tracked = [t for t in track_ids if t is not None]
    box = np.array(floats, dtype=float).reshape(len(given), 4)
    if indices and not (
        indices[0] >= 0
        and all(map(operator.lt, indices, indices[1:]))
        and len(set(widths)) == 1
        and len(set(heights)) == 1
        and widths[0] > 0
        and heights[0] > 0
    ):
        return None
    if not (
        all(0.0 <= score <= 1.0 for score in det_scores)
        and min(tracked, default=0) >= 0
        and np.isfinite(box).all()
        and (box[:, 2:] >= box[:, :2]).all()
    ):
        return None
    boxed = np.array([b is not None for b in boxes], dtype=bool)
    corners = np.full((len(poses), 4), math.nan)
    corners[boxed] = box
    columns = Columns(
        tuple(indices),
        tuple(widths),
        tuple(heights),
        tuple(map(len, pose_lists)),
        *keypoints,
        det_scores,
        corners,
        boxed,
        track_ids,
    )
    return Sequence.of_columns(name, columns)


# The walk: the checks of the schema, field by field in document order.  It
# builds nothing, and raises a SequenceError naming the path of the first
# field at fault.  It refuses exactly the documents _plain_document refuses.


def _as_object(value: Any, path: str, keys: tuple[str, ...]) -> dict:
    """``value`` when it is an object; a key outside ``keys`` is refused before any field."""
    if type(value) is not dict:
        raise SequenceError(f"{path}: expected object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise SequenceError(f"{path}.{key}: unknown field")
    return value


def _as_list(value: Any, path: str) -> list:
    if type(value) is not list:
        raise SequenceError(f"{path}: expected array, got {type(value).__name__}")
    return value


def _get(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise SequenceError(f"{path}.{key}: missing field")
    return doc[key]


def _as_int(value: Any, path: str) -> int:
    if type(value) is not int:
        raise SequenceError(f"{path}: expected integer, got {value!r}")
    return value


def _as_float(value: Any, path: str) -> float:
    if type(value) not in (int, float):
        raise SequenceError(f"{path}: expected number, got {value!r}")
    if not _is_finite(value):
        raise SequenceError(f"{path}: must be finite, got {value!r}")
    return float(value)


_SLOT_BY_NAME = {j.value: i for i, j in enumerate(JOINTS)}


def _check_keypoints(items: Any, path: str) -> None:
    """Check a pose's keypoint entries field by field."""
    entries = _as_list(items, path)
    if len(entries) != _N:
        raise SequenceError(f"{path}: expected {_N} keypoints, got {len(entries)}")
    for k, entry in enumerate(entries):
        at = f"{path}[{k}]"
        obj = _as_object(entry, at, _KEYPOINT_KEYS)
        name = _get(obj, "joint", at)
        try:
            index = _SLOT_BY_NAME.get(name)
        except TypeError:  # an array or object names no joint
            index = None
        if index is None:
            raise SequenceError(f"{at}.joint: unknown joint {name!r}")
        if index < k:  # the entries before this one hold their own slots' joints
            raise SequenceError(f"{at}.joint: duplicate joint {name!r}")
        if index > k:
            raise SequenceError(f"{at}.joint: expected {JOINT_NAMES[k]!r}, got {name!r}")
        confidence = _as_float(_get(obj, "confidence", at), f"{at}.confidence")
        if not 0.0 <= confidence <= 1.0:
            raise SequenceError(f"{at}.confidence: must be within [0, 1], got {confidence!r}")
        _as_float(_get(obj, "x", at), f"{at}.x")
        _as_float(_get(obj, "y", at), f"{at}.y")
        present = _get(obj, "present", at)
        if type(present) is not bool:
            raise SequenceError(f"{at}.present: expected boolean, got {present!r}")


def _check_pose(raw: Any, path: str) -> None:
    """Check a pose entry field by field."""
    obj = _as_object(raw, path, _POSE_KEYS)
    det_score = _as_float(_get(obj, "det_score", path), f"{path}.det_score")
    if not 0.0 <= det_score <= 1.0:
        raise SequenceError(f"{path}.det_score: must be within [0, 1], got {det_score!r}")
    track_id = _get(obj, "track_id", path)
    if track_id is not None:
        track_id = _as_int(track_id, f"{path}.track_id")
        if track_id < 0:
            raise SequenceError(f"{path}.track_id: must be non-negative, got {track_id}")
    bbox = _get(obj, "bbox", path)
    if bbox is not None:
        coords = _as_list(bbox, f"{path}.bbox")
        if len(coords) != 4:
            raise SequenceError(f"{path}.bbox: expected 4 coordinates, got {len(coords)}")
        x1, y1, x2, y2 = (_as_float(v, f"{path}.bbox[{i}]") for i, v in enumerate(coords))
        if x2 < x1 or y2 < y1:
            raise SequenceError(f"{path}.bbox: corners out of order")
    _check_keypoints(_get(obj, "keypoints", path), f"{path}.keypoints")


def _check_document(doc: Any, path: str) -> None:
    """Check a decoded document field by field, in document order.

    The first rule broken raises :class:`SequenceError` naming the path of
    the field; a document that breaks none returns.
    """
    obj = _as_object(doc, path, _DOCUMENT_KEYS)
    name = _get(obj, "name", path)
    if type(name) is not str:
        raise SequenceError(f"{path}.name: expected string, got {name!r}")
    previous_index = -1
    size: tuple[int, int] | None = None
    for i, raw_frame in enumerate(_as_list(_get(obj, "frames", path), f"{path}.frames")):
        frame_path = f"{path}.frames[{i}]"
        frame = _as_object(raw_frame, frame_path, _FRAME_KEYS)
        index = _as_int(_get(frame, "index", frame_path), f"{frame_path}.index")
        if index <= previous_index:
            raise SequenceError(
                f"{frame_path}.index: must be strictly greater than previous "
                f"({index} after {previous_index})"
            )
        previous_index = index
        width = _as_int(_get(frame, "width", frame_path), f"{frame_path}.width")
        height = _as_int(_get(frame, "height", frame_path), f"{frame_path}.height")
        if width <= 0 or height <= 0:
            raise SequenceError(f"{frame_path}: image size must be positive")
        if size is None:
            size = (width, height)
        elif (width, height) != size:
            raise SequenceError(
                f"{frame_path}: image size {width}x{height} differs from {size[0]}x{size[1]}"
            )
        poses = _as_list(_get(frame, "poses", frame_path), f"{frame_path}.poses")
        for j, raw_pose in enumerate(poses):
            _check_pose(raw_pose, f"{frame_path}.poses[{j}]")


def sequence_from_dict(doc: Any, path: str = "$") -> Sequence:
    """Validate a decoded document and build its :class:`Sequence`.

    :func:`_plain_document` builds it; when it refuses the document,
    :func:`_check_document` raises :class:`SequenceError` naming the path
    of the first field at fault.
    """
    seq = _plain_document(doc)
    if seq is None:
        _check_document(doc, path)
        raise SequenceError(f"{path}: not a sequence document")  # the walk explains every refusal
    return seq


def parse_json(text: str) -> Any:
    """The JSON document ``text``, decoded by ``json``.

    Text that is not JSON, nests too deeply or holds an integer too long to
    read raises ``ValueError("not valid JSON (<json's reason>)")``.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not valid JSON ({exc})") from exc


# orjson has no nesting limit, and deep enough nesting overflows the C stack.
# Text with fewer "[" and "{" than this cannot nest deeper; about 1,000 poses fit.
_ORJSON_MAX_BRACKETS = 20_000


def _bracket_count(text: str) -> int:
    """How many ``[`` and ``{`` ``text`` holds, counted at C speed.

    A lone surrogate, which plain ``str.encode`` raises on, is encoded past.
    """
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    return int(np.count_nonzero((data | 0x20) == ord("{")))  # ord("[") | 0x20 == ord("{")


def load_sequence(text: str) -> Sequence:
    """Parse and validate a sequence document; raise :class:`SequenceError` otherwise.

    Text under the bracket bound is decoded with orjson and checked in bulk.
    When that fails (NaN, Infinity, ``1e400``, a lone surrogate, an integer
    of 2**64 or more, which orjson reads as a float, invalid JSON, or a
    document the bulk check refuses), the text is decoded again with
    ``json`` and goes through :func:`sequence_from_dict`, so every message
    quotes ``json``'s values.
    """
    if _bracket_count(text) < _ORJSON_MAX_BRACKETS:
        try:
            seq = _plain_document(orjson.loads(text))
        except orjson.JSONDecodeError:
            seq = None
        if seq is not None:
            return seq
    try:
        doc = parse_json(text)
    except ValueError as exc:
        raise SequenceError(f"$: {exc}") from exc
    return sequence_from_dict(doc)


def sequence_to_dict(seq: Sequence) -> dict:
    """Schema-conformant plain-data view of ``seq``.

    Keypoint values and box corners come from the sequence's
    :class:`Columns` as Python floats and bools; every other value is the
    one the types hold.
    """
    return _document(seq.name, _held_columns(seq))


def _held_columns(seq: Sequence) -> Columns:
    """The columns of ``seq``, stacked from its frames if it has none, without keeping them.

    A saved sequence built through the types would otherwise hold its poses twice.
    """
    return seq._columns if seq._columns is not None else Columns.of_frames(seq.frames)


def _document(name: str, columns: Columns) -> dict:
    """:func:`sequence_to_dict` of the sequence ``name`` held as ``columns``."""
    c = columns
    xs, ys = c.xy.reshape(-1, 2).T.tolist()
    keypoints = [
        {"joint": joint, "x": x, "y": y, "confidence": conf, "present": flag}
        for joint, x, y, conf, flag in zip(
            JOINT_NAMES * len(c.det_score),
            xs,
            ys,
            c.confidence.ravel().tolist(),
            c.present.ravel().tolist(),
        )
    ]
    boxes = [row if ok else None for row, ok in zip(c.box.tolist(), c.boxed.tolist())]
    rows = iter([
        {
            "det_score": score,
            "track_id": track_id,
            "bbox": box,
            "keypoints": keypoints[k * _N : (k + 1) * _N],
        }
        for k, (score, track_id, box) in enumerate(zip(c.det_score, c.track_id, boxes))
    ])
    return {
        "name": name,
        "frames": [
            {"index": index, "width": width, "height": height, "poses": list(islice(rows, count))}
            for index, width, height, count in zip(c.index, c.width, c.height, c.counts)
        ],
    }


# orjson spells a float as json does (float.__repr__) when it is 0 or of
# magnitude within [1e-4, 1e16), and any other float in another notation
# (0.00001 for 1e-05, 1e16 for 1e+16) that reads back to the same float.  The
# writer hands orjson each such float as a hole, the int _HOLE + k, and then
# writes the k-th json spelling over it.  No other token matches _HOLE_TEXT: a
# document holds no negative int (frame index >= 0, size > 0, track_id >= 0,
# det_score in [0, 1]), a float within the range has at most 16 integer
# digits, and the name is written apart.
_HOLE = -(2**63)
_HOLE_TEXT = re.compile(r"-9223372036\d{9}")


def _misspelled(values: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` orjson spells otherwise: not 0, and |v| outside [1e-4, 1e16)."""
    magnitude = np.abs(values)
    return ((magnitude < 1e-4) | (magnitude >= 1e16)) & (magnitude != 0.0)


def _put_holes(columns: Columns, doc: dict) -> list[str]:
    """Put a hole in ``doc`` (the document of ``columns``) for each float orjson spells otherwise.

    Returns the ``json`` spelling of each hole's float, indexed by the hole's
    number.  The columns are checked at once, and the rows of ``doc`` are
    only walked when some value needs a hole.
    """
    c = columns
    # a det_score held as an int is 0 or 1: no hole
    scores = np.array(c.det_score, dtype=float)
    # the columns end to end: x and y, confidence, det_score, box corners
    mask = _misspelled(
        np.concatenate((c.xy.ravel(), c.confidence.ravel(), scores, c.box[c.boxed].ravel()))
    )
    if not mask.any():
        return []
    n = len(scores) * _N
    xy, confidence, scores, corners = np.split(mask, [2 * n, 3 * n, 3 * n + len(scores)])
    rows = [row for frame in doc["frames"] for row in frame["poses"]]
    entries = [entry for row in rows for entry in row["keypoints"]]
    cells = (
        (xy.reshape(-1, 2), entries, ("x", "y")),
        (confidence[:, None], entries, ("confidence",)),
        (scores[:, None], rows, ("det_score",)),
        (corners.reshape(-1, 4), [rows[k]["bbox"] for k in np.flatnonzero(c.boxed)], range(4)),
    )
    spelled: list[str] = []
    for column, containers, keys in cells:
        for i, j in np.argwhere(column).tolist():
            container, key = containers[i], keys[j]
            spelled.append(float.__repr__(container[key]))
            container[key] = _HOLE + len(spelled) - 1
    return spelled


def save_predictions(seq: Sequence) -> str:
    """Serialize ``seq`` to the sequence document format.

    The text is byte-identical to ``json.dumps(sequence_to_dict(seq),
    indent=2)``, which runs ``json``'s pure-Python encoder whenever
    ``indent`` is set.  So orjson encodes the document of the sequence's
    :class:`Columns` with an empty name and a hole in place of each float it
    would spell otherwise; then each hole is filled with ``json``'s
    spelling, and the name as ``json`` writes it is put in.  A document
    orjson refuses (an int beyond 64 bits, a float subclass, a numpy scalar)
    is written by ``json``.
    """
    columns = _held_columns(seq)
    doc = _document("", columns)
    spelled = _put_holes(columns, doc)
    try:
        text = orjson.dumps(doc, option=orjson.OPT_INDENT_2).decode()
    except orjson.JSONEncodeError:
        return json.dumps(sequence_to_dict(seq), indent=2)
    if spelled:
        text = _HOLE_TEXT.sub(lambda m: spelled[int(m[0]) - _HOLE], text)
    # the text starts '{\n  "name": ""', so its first "" is the name
    return text.replace('""', json.dumps(seq.name), 1)


# ---------------------------------------------------------------------------
# records: configs, generator specs and reports

_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _record_fields(cls: type) -> dict[str, tuple[Any, bool]]:
    """Each field's type, and whether a document must give it (it has no default)."""
    hints = get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


def _plain(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, abc.Mapping):
        return {_plain(k): _plain(v) for k, v in value.items()}
    return record_to_dict(value) if is_dataclass(value) else value


def record_to_dict(record: Any) -> dict:
    """A dataclass record as JSON, its fields in declaration order.

    Nested records become objects, enum keys and values their values, and tuples arrays.
    """
    return {name: _plain(getattr(record, name)) for name in _record_fields(type(record))}


def _fault(path: str, message: str) -> ValueError:
    return ValueError(f"{path}: {message}" if path else message)


def _expect(value: Any, path: str, kind: type | tuple[type, ...] = dict) -> Any:
    if not isinstance(value, kind):
        what = "object" if kind is dict else "array"
        raise _fault(path, f"expected a JSON {what}, got {type(value).__name__}")
    return value


def _read(kind: Any, value: Any, path: str) -> Any:
    """``value`` read as type ``kind``; scalars are left to the record's own checks."""
    if is_dataclass(kind):
        return record_from_dict(kind, value, path)
    if isinstance(kind, enum.EnumMeta):
        try:
            return kind(value)
        except ValueError as exc:
            raise _fault(path, str(exc)) from exc
    origin, args = get_origin(kind), get_args(kind)
    if origin in (dict, abc.Mapping):
        return {
            _read(args[0], k, f"{path}.{k}"): _read(args[1], v, f"{path}.{k}")
            for k, v in _expect(value, path).items()
        }
    if origin is tuple:
        items = _expect(value, path, (list, tuple))
        return tuple(_read(args[0], v, f"{path}[{i}]") for i, v in enumerate(items))
    return value


def record_from_dict(cls: type, doc: Any, path: str = "") -> Any:
    """The record of dataclass ``cls`` that :func:`record_to_dict` writes as ``doc``.

    Each object must hold every field without a default and no other key.
    Scalars are left to the record's own checks, whose messages start with
    the field's name.  A fault raises a ``ValueError`` whose message starts
    with the path of the field below ``path`` (``confidence.Head.spread``).
    """
    kinds = _record_fields(cls)
    for key in _expect(doc, path):
        if key not in kinds:
            raise _fault(f"{path}.{key}" if path else key, "unknown field")
    kwargs = {}
    for name, (kind, required) in kinds.items():
        at = f"{path}.{name}" if path else name
        if name in doc:
            kwargs[name] = _read(kind, doc[name], at)
        elif required:
            raise _fault(at, "missing field")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        raise ValueError(f"{path}.{exc}") from exc
