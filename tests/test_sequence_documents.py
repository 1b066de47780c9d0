"""Sequence documents: the direct writer, the loader's messages, and loader fuzzing."""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import template_pose
from topdown import cli, model, synth
from topdown.model import (
    BBox,
    Frame,
    JOINTS,
    Joint,
    Keypoint,
    Keypoints,
    Pose,
    Sequence,
    SequenceError,
    load_sequence,
    save_predictions,
    sequence_from_dict,
    sequence_to_dict,
)
from topdown.synth import noiseless_spec
from topdown.tracker import prune_keypoints

SRC = str(Path(__file__).resolve().parent.parent / "src")

# ---------------------------------------------------------------------------
# the writer is byte-identical to json.dumps(sequence_to_dict(seq), indent=2)

# values at the edges of the range that orjson spells as json does: 1e-4 <= |v| < 1e16
_SPELLING_EDGES = [1e-4, 9.999999999999999e-05, 1e-05, 1.5e-09]
_coordinates = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False).map(np.float64),
    st.integers(-(10**20), 10**20),
    st.sampled_from(
        [0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 1e16, 0.1, 9999999999999998.0]
        + _SPELLING_EDGES
    ),
)
# a pose holds its keypoint values as float64, so a float32 is a valid keypoint value
_keypoint_coordinates = _coordinates | st.floats(-1e6, 1e6, width=32).map(np.float32)
_unit = st.one_of(
    st.floats(0, 1),
    st.floats(0, 1).map(np.float64),
    st.sampled_from([0, 1] + _SPELLING_EDGES),
)
_names = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=12),
    st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f", "é中\U0001f600", "\ud800", "a\nb\tc", "\x7f", "é"]
    ),
)


@st.composite
def _written_poses(draw) -> Pose:
    keypoints = tuple(
        Keypoint(
            j, draw(_keypoint_coordinates), draw(_keypoint_coordinates), draw(_unit),
            draw(st.booleans()),
        )
        for j in JOINTS
    )
    if draw(st.booleans()):  # the same values given as arrays
        keypoints = Keypoints(
            [(kp.x, kp.y) for kp in keypoints],
            [kp.confidence for kp in keypoints],
            [kp.present for kp in keypoints],
        )
    bbox = None
    if draw(st.booleans()):
        x1, y1 = draw(_coordinates), draw(_coordinates)
        # an integer beyond 2**53 plus a float can round below the integer
        y1, y2 = sorted((y1, y1 + draw(st.floats(0, 500))))
        bbox = BBox(x1, y1, x1 + draw(st.integers(0, 500)), y2)
    track_id = draw(st.one_of(st.none(), st.integers(0, 10**20), st.sampled_from([2**63, 2**64])))
    return Pose(keypoints, det_score=draw(_unit), bbox=bbox, track_id=track_id)


@st.composite
def _written_sequences(draw) -> Sequence:
    size = (draw(st.integers(1, 4000)), draw(st.integers(1, 4000)))
    indices = sorted(draw(st.sets(st.integers(0, 10**6), max_size=3)))
    frames = tuple(
        Frame(i, *size, poses=tuple(draw(st.lists(_written_poses(), max_size=2))))
        for i in indices
    )
    return Sequence(name=draw(_names), frames=frames)


@given(_written_sequences())
def test_writer_is_byte_identical_to_json_dumps(seq):
    assert save_predictions(seq) == json.dumps(sequence_to_dict(seq), indent=2)


def test_writer_is_byte_identical_on_synthetic_sequences():
    out = synth.generate(synth.calibrated_benchmark_spec(n_persons=3, n_frames=8, seed=5))
    for seq in (out.gt, out.det, Sequence(name="empty"), Sequence("no poses", (Frame(0, 9, 9),))):
        assert save_predictions(seq) == json.dumps(sequence_to_dict(seq), indent=2)


def _fixture_documents() -> list[Sequence]:
    """The documents the benchmark fixtures are made of: det, gt and box-less det of both specs."""
    specs = (
        synth.calibrated_benchmark_spec(n_persons=2, n_frames=30, fp_rate=0.5, seed=3),
        synth.calibrated_benchmark_spec(n_persons=4, n_frames=10, seed=3),
    )
    seqs = []
    for spec in specs:
        out = synth.generate(spec)
        boxless = replace(
            out.det,
            frames=tuple(
                replace(f, poses=tuple(replace(p, bbox=None) for p in f.poses))
                for f in out.det.frames
            ),
        )
        seqs += [out.det, out.gt, boxless]
    return seqs


@contextlib.contextmanager
def _one_orjson_pass():
    """Fail on the whole-document ``json.dumps`` fallback; the name is still written by ``json``."""
    dumps = json.dumps

    def name_only(value, **kwargs):
        assert isinstance(value, str), "the writer fell back to json.dumps"
        return dumps(value, **kwargs)

    with mock.patch.object(model.json, "dumps", side_effect=name_only):
        yield


def test_fixture_documents_are_written_without_a_hole_or_the_fallback():
    seqs = _fixture_documents()
    expected = [json.dumps(sequence_to_dict(seq), indent=2) for seq in seqs]
    no_holes = mock.Mock(sub=mock.Mock(side_effect=AssertionError("a hole was filled")))
    with _one_orjson_pass(), mock.patch.object(model, "_HOLE_TEXT", no_holes):
        assert [save_predictions(seq) for seq in seqs] == expected


# floats orjson spells otherwise than json: 0.00001 for 1e-05, 1e16 for 1e+16, ...
_MISSPELLED = [1e-05, 9.999999999999999e-05, 1.5e-09, 5e-324, 1e16, 1.7976931348623157e308]


def _with_value(column: str, value: float) -> Pose:
    pose = template_pose((200, 200))
    xy, confidence = pose.xy.copy(), pose.confidence.copy()
    if column == "x":
        xy[3, 0] = value
    elif column == "y":
        xy[3, 1] = value
    elif column == "confidence":
        confidence[3] = value
    elif column == "det_score":
        return replace(pose, det_score=value)
    else:  # a box corner
        return replace(pose, bbox=BBox(value, -5.0, max(value, 10.0), 20.0))
    return replace(pose, keypoints=Keypoints(xy, confidence, pose.present))


@pytest.mark.parametrize(
    "column, value",
    [
        (column, value)
        for column in ("x", "y", "confidence", "det_score", "bbox")
        for value in _MISSPELLED + [-v for v in _MISSPELLED]
        if column in ("x", "y", "bbox") or 0.0 <= value <= 1.0  # scores lie in [0, 1]
    ],
)
def test_a_value_orjson_spells_otherwise_is_filled_in_with_json_spelling(column, value):
    poses = (template_pose((300, 300), track_id=2), _with_value(column, value))
    seq = Sequence("doc", (Frame(0, 640, 480, poses), Frame(3, 640, 480)))
    expected = json.dumps(sequence_to_dict(seq), indent=2)
    with _one_orjson_pass():
        text = save_predictions(seq)
    assert text == expected
    assert repr(value) in text


@pytest.mark.parametrize("name", ["é中", "\x7f", "a\nb"])
def test_a_name_orjson_spells_otherwise_is_written_by_json(name):
    seq = Sequence(name, (Frame(0, 640, 480, (_with_value("x", 1e-05),)),))
    expected = json.dumps(sequence_to_dict(seq), indent=2)
    with _one_orjson_pass():
        assert save_predictions(seq) == expected


def test_a_document_with_faint_joints_is_written_in_one_orjson_pass():
    # a box-less sparse_ensemble det document with 10% of its confidences at 5e-05
    seq = _fixture_documents()[2]
    rng = np.random.default_rng(0)

    def faint(pose: Pose) -> Pose:
        confidence = np.where(rng.random(15) < 0.1, 5e-05, pose.confidence)
        return replace(pose, keypoints=Keypoints(pose.xy, confidence, pose.present))

    frames = tuple(replace(f, poses=tuple(map(faint, f.poses))) for f in seq.frames)
    seq = replace(seq, frames=frames)
    expected = json.dumps(sequence_to_dict(seq), indent=2)
    with _one_orjson_pass():
        text = save_predictions(seq)
    assert text == expected
    assert text.count('"confidence": 5e-05') > 10


class _Float(float):
    def __repr__(self) -> str:
        return "not the json spelling"


def _pose_of(**fields) -> Pose:
    values = {"x": 1.5, "y": 2, "confidence": 0.5, "present": True, **fields}
    return Pose(tuple(Keypoint(j, **values) for j in JOINTS))


def test_writer_matches_json_on_values_outside_the_schema():
    # numbers the types accept that are not plain floats: the writer spells them as json does
    pose = replace(
        _pose_of(x=_Float(3.0), y=np.float32(1), confidence=np.float64(0.5)),
        det_score=_Float(0.5),
        bbox=BBox(_Float(1.0), 2, np.float64(3.0), 10**20),
        track_id=10**20,
    )
    seqs = [Sequence("\ud800 \"", (Frame(1, 3, 3, (pose,)),)), Sequence("n", (Frame(0, 9, 9),))]
    for seq in seqs:
        assert save_predictions(seq) == json.dumps(sequence_to_dict(seq), indent=2)
    # keypoint values are held as float64, so a float32 or a float subclass is written as a float
    assert '"x": 3.0,' in save_predictions(seqs[0])
    assert '"y": 1.0,' in save_predictions(seqs[0])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Sequence(name=[1, {"a": [2]}]), "Sequence.name must be a string"),
        (lambda: Sequence(name=None), "Sequence.name must be a string"),
        (lambda: Frame(0.5, 10, 3), "Frame.index must be an integer, got 0.5"),
        (lambda: Frame(math.nan, 10, 3), "Frame.index must be an integer, got nan"),
        (lambda: Frame(True, 10, 3), "Frame.index must be an integer, got True"),
        (lambda: Frame(0, 10.0, 3), "Frame.width must be an integer, got 10.0"),
        (lambda: Frame(0, 10, np.int64(3)), "Frame.height must be an integer"),
        (lambda: replace(_pose_of(), track_id=math.nan), "Pose.track_id must be an integer"),
        (lambda: replace(_pose_of(), track_id=True), "Pose.track_id must be an integer"),
        (lambda: replace(_pose_of(), track_id=1.0), "Pose.track_id must be an integer"),
        (lambda: replace(_pose_of(), det_score=True), "Pose.det_score must be a number"),
        (
            lambda: replace(_pose_of(), det_score=np.float32(0.5)),
            "Pose.det_score must be a number",
        ),
        (lambda: replace(_pose_of(), bbox=(0, 0, 1, 1)), "Pose.bbox must be a BBox"),
        (lambda: _pose_of(present="yes"), "nose.present must be a boolean, got 'yes'"),
        (lambda: _pose_of(present=[1, 2]), "nose.present must be a boolean, got [1, 2]"),
        (lambda: _pose_of(present=-math.inf), "nose.present must be a boolean, got -inf"),
        (lambda: BBox(True, 0, 1, 1), "BBox.x1 must be a number, got True"),
        (lambda: BBox(0, np.int64(0), 1, 1), "BBox.y1 must be a number"),
        (
            lambda: Keypoints(np.zeros((15, 2)), np.ones(15), np.ones(15)),
            "keypoint presence must be boolean",
        ),
        (
            lambda: Keypoints(np.zeros((14, 2)), np.ones(14), np.ones(14, bool)),
            "keypoint arrays must have shapes (15, 2), (15,), (15,)",
        ),
        (
            lambda: Keypoints(np.full((15, 2), math.inf), np.ones(15), np.ones(15, bool)),
            "nose.x must be finite, got inf",
        ),
        (
            lambda: Keypoints(np.zeros((15, 2)), [1.0] * 14 + [1.5], np.ones(15, bool)),
            "right_ankle.confidence must be within [0, 1], got 1.5",
        ),
    ],
)
def test_types_reject_values_a_document_cannot_hold(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert message in str(excinfo.value)


@given(_written_sequences())
def test_every_sequence_the_types_accept_loads_back_equal(seq):
    """A saved sequence loads back equal to the sequence as built."""
    assert load_sequence(save_predictions(seq)) == seq


def test_loading_builds_no_keypoint_objects(monkeypatch):
    # the sparse_ensemble benchmark fixture of sub-seed 0, box-less like its model A
    spec = synth.calibrated_benchmark_spec(n_persons=2, n_frames=30, fp_rate=0.5, seed=0)
    seq = synth.generate(spec).det
    seq = replace(
        seq, frames=tuple(replace(f, poses=tuple(replace(p, bbox=None) for p in f.poses))
                          for f in seq.frames)
    )
    text = save_predictions(seq)
    built = []
    original = Keypoint.__post_init__
    monkeypatch.setattr(Keypoint, "__post_init__", lambda kp: built.append(kp) or original(kp))
    loaded = load_sequence(text)
    assert built == []
    assert save_predictions(loaded) == text
    # the counter does count: reading a pose's keypoints builds 15 values
    assert len(list(loaded.frames[0].poses[0].keypoints)) == 15
    assert len(built) == 15


# ---------------------------------------------------------------------------
# the loader keeps its checks, their order and their messages

_KP = "$.frames[0].poses[0].keypoints[4]"
_HUGE = 10**400  # an integer beyond the float range


def _one_pose_doc() -> dict:
    seq = Sequence(name="doc", frames=(Frame(0, 640, 480, poses=(template_pose((200, 200)),)),))
    return sequence_to_dict(seq)


def _set(**fields):
    def corrupt(keypoint: dict) -> None:
        keypoint.update(fields)

    return corrupt


def _drop(*keys):
    def corrupt(keypoint: dict) -> None:
        for key in keys:
            del keypoint[key]

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop("joint"), f"{_KP}.joint: missing field"),
        (_drop("x"), f"{_KP}.x: missing field"),
        (_drop("y"), f"{_KP}.y: missing field"),
        (_drop("confidence"), f"{_KP}.confidence: missing field"),
        (_drop("present"), f"{_KP}.present: missing field"),
        (_set(joint=5), f"{_KP}.joint: unknown joint 5"),
        (_set(x="1.0"), f"{_KP}.x: expected number, got '1.0'"),
        (_set(y=None), f"{_KP}.y: expected number, got None"),
        (_set(confidence=True), f"{_KP}.confidence: expected number, got True"),
        (_set(present=1), f"{_KP}.present: expected boolean, got 1"),
        (_set(x=math.inf), f"{_KP}.x: must be finite, got inf"),
        (_set(y=-math.inf), f"{_KP}.y: must be finite, got -inf"),
        (_set(confidence=math.nan), f"{_KP}.confidence: must be finite, got nan"),
        (_set(confidence=1.5), f"{_KP}.confidence: must be within [0, 1], got 1.5"),
        (_set(confidence=-0.25), f"{_KP}.confidence: must be within [0, 1], got -0.25"),
        (_set(joint="left_eye"), f"{_KP}.joint: unknown joint 'left_eye'"),
        (_set(joint="nose"), f"{_KP}.joint: duplicate joint 'nose'"),
        (_set(joint=["nose"]), f"{_KP}.joint: unknown joint ['nose']"),
        (_set(joint={"name": "nose"}), f"{_KP}.joint: unknown joint {{'name': 'nose'}}"),
        (_set(x=_HUGE), f"{_KP}.x: must be finite, got {_HUGE!r}"),
        (_set(y=-_HUGE), f"{_KP}.y: must be finite, got {-_HUGE!r}"),
        (_set(confidence=_HUGE), f"{_KP}.confidence: must be finite, got {_HUGE!r}"),
        # with two faults, the first in check order is reported
        (_drop("joint", "x"), f"{_KP}.joint: missing field"),
        (_set(joint="nose", confidence=2.0), f"{_KP}.joint: duplicate joint 'nose'"),
        (_set(confidence=2.0, x="a"), f"{_KP}.confidence: must be within [0, 1], got 2.0"),
        (_set(x="a", y="b"), f"{_KP}.x: expected number, got 'a'"),
        (_set(y="b", present=0), f"{_KP}.y: expected number, got 'b'"),
        (_set(note=1), f"{_KP}.note: unknown field"),
        (_set(joint="left_elbow"), f"{_KP}.joint: expected 'right_shoulder', got 'left_elbow'"),
        (_set(joint="right_ankle"), f"{_KP}.joint: expected 'right_shoulder', got 'right_ankle'"),
        # an unknown key is checked before every other field of its object
        (_set(joint=5, note=1), f"{_KP}.note: unknown field"),
        (_set(joint="nose", note=None), f"{_KP}.note: unknown field"),
        (
            _set(joint="left_elbow", x="a"),
            f"{_KP}.joint: expected 'right_shoulder', got 'left_elbow'",
        ),
    ],
    ids=[
        "missing-joint", "missing-x", "missing-y", "missing-confidence", "missing-present",
        "joint-number", "x-string", "y-null", "confidence-bool", "present-int",
        "x-inf", "y-minus-inf", "confidence-nan", "confidence-above", "confidence-below",
        "joint-unknown", "joint-duplicate", "joint-array", "joint-object",
        "x-overflow", "y-overflow", "confidence-overflow",
        "joint-before-x", "duplicate-before-confidence", "confidence-before-x",
        "x-before-y", "y-before-present",
        "unknown-field", "joint-out-of-order", "joint-last-slot",
        "unknown-before-joint", "unknown-before-duplicate", "out-of-order-before-x",
    ],
)
def test_keypoint_fault_messages(corrupt, message):
    doc = _one_pose_doc()
    corrupt(doc["frames"][0]["poses"][0]["keypoints"][4])
    with pytest.raises(SequenceError) as excinfo:
        load_sequence(json.dumps(doc))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "value, message",
    [
        (7, f"{_KP}: expected object, got int"),
        ([], f"{_KP}: expected object, got list"),
    ],
)
def test_keypoint_not_an_object_message(value, message):
    doc = _one_pose_doc()
    doc["frames"][0]["poses"][0]["keypoints"][4] = value
    with pytest.raises(SequenceError) as excinfo:
        load_sequence(json.dumps(doc))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("det_score", _HUGE, f"$.frames[0].poses[0].det_score: must be finite, got {_HUGE!r}"),
        ("bbox", [0, 0, _HUGE, 1], f"$.frames[0].poses[0].bbox[2]: must be finite, got {_HUGE!r}"),
    ],
    ids=["det_score", "bbox"],
)
def test_pose_number_overflow_is_a_sequence_error(field, value, message):
    doc = _one_pose_doc()
    doc["frames"][0]["poses"][0][field] = value
    with pytest.raises(SequenceError) as excinfo:
        load_sequence(json.dumps(doc))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "path, message",
    [
        ((), "$.note: unknown field"),
        (("frames", 0), "$.frames[0].note: unknown field"),
        (("frames", 0, "poses", 0), "$.frames[0].poses[0].note: unknown field"),
        (
            ("frames", 0, "poses", 0, "keypoints", 14),
            "$.frames[0].poses[0].keypoints[14].note: unknown field",
        ),
    ],
    ids=["document", "frame", "pose", "keypoint"],
)
def test_unknown_field_message(path, message):
    doc = _one_pose_doc()
    node = doc
    for key in path:
        node = node[key]
    node["note"] = "an extra key"
    with pytest.raises(SequenceError) as excinfo:
        load_sequence(json.dumps(doc))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"name": ' + "1" * 5000 + "}"], ids=["deep-nesting", "long-integer"]
)
def test_unparseable_json_is_a_sequence_error(text):
    with pytest.raises(SequenceError, match=r"^\$: not valid JSON"):
        load_sequence(text)


# ---------------------------------------------------------------------------
# the orjson fast path loads what json and the field-by-field checks load


def _reference_load(text: str) -> Sequence:
    """The reference alone: ``json`` decodes, and every field is checked and built in turn."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SequenceError(f"$: not valid JSON ({exc})") from exc
    return oracles.sequence_from_document(doc)


def _outcome(load, text: str):
    """What ``load`` makes of ``text``: the sequence and its saved text, or the error message."""
    try:
        seq = load(text)
    except SequenceError as exc:
        return f"SequenceError: {exc}"
    return seq, save_predictions(seq)


def _edit(pattern: str, new: str):
    regex = re.compile(pattern, re.MULTILINE)
    return lambda text: regex.sub(lambda _: new, text, count=1)


def _value_edit(field: str, literal: str):
    """Replace the first value of ``field`` in a written document by ``literal``."""
    return _edit(rf'"{field}": [^,\n]+', f'"{field}": {literal}')


_NESTED_995 = "[" * 995 + "]" * 995
_EDITS = {
    "x-int": _value_edit("x", "5"),
    **{
        f"{field}-2**{p}": _value_edit(field, str(2**p))
        for field in ("track_id", "index", "width")
        for p in (64, 70)
    },
    "x-2**70": _value_edit("x", str(2**70)),
    "x-10**400": _value_edit("x", str(10**400)),
    **{
        f"{field}-{literal}": _value_edit(field, literal)
        for field in ("x", "confidence", "det_score")
        for literal in ("NaN", "Infinity", "-Infinity", "1e400")
    },
    "x-25-digit-mantissa": _value_edit("x", "1234567890123456789012345e-20"),
    "name-lone-surrogate": _edit(r'^  "name": .*,$', '  "name": "\\ud800",'),
    # the text itself holds a lone surrogate, which a plain str.encode() raises on
    "name-raw-lone-surrogate": _edit(r'^  "name": .*,$', '  "name": "\ud800",'),
    "duplicate-key": _edit(r'"det_score": ', '"det_score": 0.25, "det_score": '),
    "extra-pose-key": _edit(r'"det_score": ', '"note": "box removed", "det_score": '),
    "extra-key-995-nested-arrays": _edit(r"^\{", '{"deep": ' + _NESTED_995 + ", "),
    "det_score-true": _value_edit("det_score", "true"),
}


def _plain(seq: Sequence) -> bool:
    """Whether the document of ``seq`` is of the shape the orjson path takes."""
    try:
        seq.name.encode()
    except UnicodeEncodeError:  # written as a lone surrogate escape, which orjson refuses
        return False
    return all(p.track_id is None or p.track_id < 2**64 for _, p in seq.iter_poses())


@settings(max_examples=200)
@given(_written_sequences(), st.sampled_from(sorted(_EDITS)) | st.none())
def test_loader_equals_the_checked_path_on_json(seq, edit):
    text = save_predictions(seq)
    if edit is not None:
        text = _EDITS[edit](text)
    expected = _outcome(_reference_load, text)
    assert _outcome(load_sequence, text) == expected
    if edit is None and _plain(seq):
        with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads called")):
            assert _outcome(load_sequence, text) == expected


def test_integer_numbers_load_in_bulk_without_json():
    doc = sequence_to_dict(synth.generate(noiseless_spec(n_persons=2, n_frames=3, seed=4)).det)
    for frame in doc["frames"]:
        for pose in frame["poses"]:
            pose["det_score"] = 1
            pose["bbox"] = [round(v) for v in pose["bbox"]]
            for keypoint in pose["keypoints"]:
                keypoint["x"], keypoint["y"] = round(keypoint["x"]), round(keypoint["y"])
    # corners in order as floats, though not as written: 2**53 + 1 reads as 2**53
    doc["frames"][0]["poses"][0]["bbox"][:3] = [2**53 + 1, 0, float(2**53)]
    text = json.dumps(doc, indent=2)
    with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads called")):
        loaded = load_sequence(text)
    expected = _reference_load(text)
    assert loaded == expected
    assert save_predictions(loaded) == save_predictions(expected)
    assert '"det_score": 1.0,' in save_predictions(loaded)


_FIRST_POSE = ("frames", 0, "poses", 0)


@pytest.mark.parametrize(
    "path, value",
    [
        (("frames", 0, "index"), -1),
        (("frames", 1, "index"), 0),
        (("frames", 1, "width"), 641),
        (("frames", 0, "height"), 0),
        (_FIRST_POSE + ("det_score",), 1.5),
        (_FIRST_POSE + ("track_id",), -1),
        (_FIRST_POSE + ("bbox",), [10.0, 0.0, 5.0, 1.0]),
    ],
    ids=["index-negative", "index-repeated", "width-differs", "height-zero",
         "det_score-above", "track_id-negative", "corners-out-of-order"],
)
def test_the_bulk_check_leaves_value_rules_to_the_types(path, value):
    seq = Sequence("doc", tuple(Frame(i, 640, 480, (template_pose((200, 200)),)) for i in (0, 1)))
    doc = sequence_to_dict(seq)
    _replace(doc, path, value)
    assert model._plain_document(doc) is None
    text = json.dumps(doc)
    outcome = _outcome(load_sequence, text)
    assert outcome == _outcome(_reference_load, text)
    assert outcome.startswith("SequenceError: $.frames[")


@pytest.mark.parametrize("boxes", [True, False], ids=["boxes", "box-less"])
@pytest.mark.parametrize(
    "spec",
    [
        synth.calibrated_benchmark_spec(n_persons=2, n_frames=30, fp_rate=0.5, seed=0),
        synth.calibrated_benchmark_spec(n_persons=4, n_frames=10, seed=0),
    ],
    ids=["sparse", "sweep"],
)
def test_written_documents_load_without_json(spec, boxes):
    out = synth.generate(spec)
    for seq in (out.gt, out.det):
        if not boxes:
            seq = replace(seq, frames=tuple(
                replace(f, poses=tuple(replace(p, bbox=None) for p in f.poses))
                for f in seq.frames
            ))
        text = save_predictions(seq)
        expected = _reference_load(text)
        with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads called")):
            loaded = load_sequence(text)
        assert loaded == expected
        assert save_predictions(loaded) == text


@pytest.mark.parametrize(
    "path, value",
    [
        (("frames", 0, "poses", 0, "keypoints", 4, "x"), math.nan),
        (("frames", 0, "poses", 0, "keypoints", 4, "confidence"), math.inf),
        (("frames", 0, "poses", 0, "det_score"), math.nan),
        (("frames", 0, "poses", 0, "bbox"), [0.0, 0.0, math.inf, 1.0]),
    ],
    ids=["x-nan", "confidence-inf", "det_score-nan", "bbox-inf"],
)
def test_a_decoded_document_with_values_json_cannot_spell_gets_the_checked_message(path, value):
    # no JSON text decodes to these values, so only a dict given directly holds them
    doc = _one_pose_doc()
    _replace(doc, path, value)
    with pytest.raises(SequenceError) as expected:
        oracles.sequence_from_document(doc)
    with pytest.raises(SequenceError) as excinfo:
        sequence_from_dict(doc)
    assert str(excinfo.value) == str(expected.value)


@pytest.mark.parametrize("depth", [900, 980, 995])
def test_an_extra_key_holding_nested_arrays_is_refused_at_any_stack_depth(depth):
    """Whether ``json`` decodes the key depends on the caller's stack; either way it is refused."""
    nested = "[" * depth + "]" * depth
    text = json.dumps(_named_pair("deep")[0], indent=2).replace("{", '{"deep": ' + nested + ", ", 1)
    refused = r"^\$(\.deep: unknown field|: not valid JSON)"
    with pytest.raises(SequenceError, match=refused):
        load_sequence(text)
    load = (
        "import sys\n"
        "from topdown.model import SequenceError, load_sequence\n"
        "try:\n"
        "    load_sequence(sys.stdin.read())\n"
        "except SequenceError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", load], input=text, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert re.match(refused, proc.stdout), proc.stdout


@pytest.mark.parametrize("shape", ["arrays", "objects"])
def test_deep_nesting_is_invalid_json_in_a_fresh_process(tmp_path, shape):
    """Deep nesting is refused, never decoded by a parser without a depth limit.

    Each load runs in its own process, so a crash fails the test instead of
    ending the test run.
    """
    deep = tmp_path / "deep.json"
    if shape == "arrays":
        deep.write_text("[" * 1_000_000 + "]" * 1_000_000)
    else:
        deep.write_text('{"a": ' * 100_000 + "1" + "}" * 100_000)
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps(_named_pair("deep")[1]))
    env = dict(os.environ, PYTHONPATH=SRC)
    load = (
        "import pathlib, sys\n"
        "from topdown.model import SequenceError, load_sequence\n"
        "try:\n"
        "    load_sequence(pathlib.Path(sys.argv[1]).read_text())\n"
        "except SequenceError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", load, str(deep)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("$: not valid JSON")
    proc = subprocess.run(
        [sys.executable, "-m", "topdown", "run", "--det", str(deep), "--gt", str(gt),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"input error: {deep}: $: not valid JSON")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (Keypoint, (Joint.NOSE, math.nan, 0.0, 0.5), "nose.x must be finite, got nan"),
        (Keypoint, (Joint.LEFT_KNEE, 0.0, math.inf, 0.5), "left_knee.y must be finite, got inf"),
        (Keypoint, (Joint.NOSE, 0.0, 0.0, math.nan), "nose.confidence must be finite, got nan"),
        (
            Keypoint,
            (Joint.RIGHT_ANKLE, 0.0, 0.0, 1.5),
            "right_ankle.confidence must be within [0, 1], got 1.5",
        ),
        (Keypoint, (Joint.NOSE, 0, 0, -0.5), "nose.confidence must be within [0, 1], got -0.5"),
        (Keypoint, (Joint.NOSE, math.nan, 0.0, 1.5), "nose.x must be finite, got nan"),
        (BBox, (math.nan, 0, 1, 1), "BBox.x1 must be finite, got nan"),
        (BBox, (0, 0, 1, -math.inf), "BBox.y2 must be finite, got -inf"),
        (
            BBox,
            (5.0, 0.0, 0.0, 1.0),
            "BBox corners out of order: BBox(x1=5.0, y1=0.0, x2=0.0, y2=1.0)",
        ),
        (BBox, (0, 2, 1, 1), "BBox corners out of order: BBox(x1=0, y1=2, x2=1, y2=1)"),
        (Keypoint, (Joint.NOSE, 10**400, 0.0, 0.5), f"nose.x must be finite, got {10**400}"),
        (BBox, (0, 0, 10**400, 1), f"BBox.x2 must be finite, got {10**400}"),
        (Pose, (_pose_of().keypoints, 10**400), f"Pose.det_score must be finite, got {10**400}"),
    ],
)
def test_type_value_error_messages(cls, args, message):
    with pytest.raises(ValueError) as excinfo:
        cls(*args)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "make",
    [lambda: Keypoint(Joint.NOSE, "a", 0.0, 0.5), lambda: Keypoint(Joint.NOSE, 0.0, 0.0, "a")],
)
def test_type_non_number_raises_type_error(make):
    with pytest.raises(TypeError, match="must be real number, not str"):
        make()


def test_a_box_is_its_four_corners():
    with pytest.raises(TypeError):
        BBox(0, 0, 1, 1, 0.5)
    assert [f.name for f in fields(BBox)] == ["x1", "y1", "x2", "y2"]


def test_prune_keypoints_builds_absent_copies():
    pose = template_pose((100, 100), confidence=0.4)
    pruned = prune_keypoints(pose, 0.5)
    assert pruned.keypoints == tuple(
        Keypoint(kp.joint, kp.x, kp.y, kp.confidence, False) for kp in pose.keypoints
    )
    assert prune_keypoints(pose, 0.3) == pose


# ---------------------------------------------------------------------------
# fuzz: one field of a valid document replaced by an arbitrary JSON value

_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.sampled_from([_HUGE, -_HUGE, 2**63, -1, 0, 1]),
        st.floats(),
        st.text(max_size=8),
        st.sampled_from(["nose", "right_ankle", "a/b", "..", "x" * 300, "\x00"]),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_DELETE = object()


def _fuzz_docs() -> dict[str, dict]:
    out = synth.generate(noiseless_spec(n_persons=2, n_frames=2, seed=3))
    return {"det": sequence_to_dict(out.det), "gt": sequence_to_dict(out.gt)}


_DOCS = _fuzz_docs()


def _paths(node, prefix=()):
    """Every key and index position in a decoded document, and a new key in every object."""
    if isinstance(node, dict):
        yield prefix + ("note",)
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


_FUZZ_PATHS = sorted({path for doc in _DOCS.values() for path in _paths(doc)}, key=repr)


def _replace(doc: dict, path: tuple, value) -> None:
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value


@settings(max_examples=150)
@given(
    path=st.sampled_from(_FUZZ_PATHS),
    value=_json_values | st.just(_DELETE),
    target=st.sampled_from(["det", "gt", "both"]),
)
def test_fuzz_sequence_loader_and_run(path, value, target):
    docs = {side: json.loads(json.dumps(doc)) for side, doc in _DOCS.items()}
    for side in ("det", "gt") if target == "both" else (target,):
        with contextlib.suppress(KeyError, IndexError, TypeError):
            _replace(docs[side], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for side, doc in docs.items():
            text = json.dumps(doc)
            try:
                assert isinstance(load_sequence(text), Sequence)
            except SequenceError:
                pass
            (root / f"{side}.json").write_text(text)
        out_dir = root / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                ["run", "--det", str(root / "det.json"), "--gt", str(root / "gt.json"),
                 "--out", str(out_dir)]
            )
        assert code in (0, 2, 3), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            assert not out_dir.exists()


@settings(max_examples=150)
@given(
    side=st.sampled_from(sorted(_DOCS)),
    path=st.sampled_from(_FUZZ_PATHS),
    value=_json_values | st.just(_DELETE),
    edit=st.sampled_from(sorted(_EDITS)) | st.none(),
)
def test_the_bulk_check_builds_exactly_the_documents_the_walk_passes(side, path, value, edit):
    doc = json.loads(json.dumps(_DOCS[side]))
    with contextlib.suppress(KeyError, IndexError, TypeError):
        _replace(doc, path, value)
    text = json.dumps(doc, indent=2)
    if edit is not None:
        text = _EDITS[edit](text)
    try:
        decoded = json.loads(text)
    except (ValueError, RecursionError):
        pass
    else:
        try:
            model._check_document(decoded, "$")
            passes = True
        except SequenceError:
            passes = False
        assert (model._plain_document(decoded) is not None) == passes
    assert _outcome(load_sequence, text) == _outcome(_reference_load, text)


# ---------------------------------------------------------------------------
# a sequence name must name a file inside --out


def _named_pair(name: str):
    out = synth.generate(noiseless_spec(n_persons=2, n_frames=3, seed=4))
    det = sequence_to_dict(out.det)
    gt = sequence_to_dict(out.gt)
    det["name"] = gt["name"] = name
    return det, gt


def _write_dir(directory: Path, docs: list[dict]) -> Path:
    directory.mkdir()
    for k, doc in enumerate(docs):
        (directory / f"{k}.json").write_text(json.dumps(doc))
    return directory


@pytest.mark.parametrize(
    "name", ["a/../../esc/pwned", "a\\b", "a\x00b", "x" * 300, "\ud800"],
    ids=["slash", "backslash", "nul", "too-long", "unencodable"],
)
@pytest.mark.parametrize("command", ["run", "bbox-infer", "ensemble"])
def test_cli_rejects_a_sequence_name_outside_out(tmp_path, capsys, command, name):
    good_det, good_gt = _named_pair("good")
    bad_det, bad_gt = _named_pair(name)
    # the good sequence is loaded, and would be written, first
    det = _write_dir(tmp_path / "det", [good_det, bad_det])
    gt = _write_dir(tmp_path / "gt", [good_gt, bad_gt])
    out_dir = tmp_path / "o" / "deep"
    if command == "run":
        argv = ["run", "--det", str(det), "--gt", str(gt), "--out", str(out_dir)]
    elif command == "bbox-infer":
        argv = ["bbox-infer", "--input", str(det), "--out", str(out_dir)]
    else:
        argv = ["ensemble", "--a", str(det), "--b", str(det), "--mode", "average",
                "--out", str(out_dir)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # the fault names the file that holds the sequence
    assert err.startswith(f"input error: {det / '1.json'}: sequence {name!r}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["det", "gt"]


def test_cli_accepts_a_sequence_name_that_stays_inside_out(tmp_path):
    name = ".. odd: name é"
    det, gt = _named_pair(name)
    det_path, gt_path = tmp_path / "det.json", tmp_path / "gt.json"
    det_path.write_text(json.dumps(det))
    gt_path.write_text(json.dumps(gt))
    out_dir = tmp_path / "o"
    code = cli.main(["run", "--det", str(det_path), "--gt", str(gt_path), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / f"tracked_{name}.json").exists()
