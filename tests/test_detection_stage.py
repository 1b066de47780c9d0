"""The document-level detection stage equals the frame-by-frame reference it replaced.

``_reference_detect_frame`` is the per-frame stage as it was written with the
per-pose helpers (the scalar ``with_box``, ``fuse_average`` and ``fuse_expert``
of ``oracles.py``, and a scalar-IoU greedy NMS over poses);
the property runs it frame by frame and checks that
``pipeline._detect_sequence`` gives the same poses, bit for bit, in the same
order, with the same warnings, or raises the same error.
"""
from __future__ import annotations

import logging

import numpy as np
from hypothesis import given, settings, strategies as st

from topdown import pipeline
from oracles import fuse_average, fuse_expert, with_box
from topdown.ensemble import Route, route_codes
from topdown.geometry import DegenerateGeometryError, iou
from topdown.model import JOINTS, BBox, Frame, Keypoints, Pose, Sequence
from topdown.pipeline import PipelineConfig, PipelineContractError

_log = logging.getLogger("topdown.pipeline")


def _reference_with_box(pose: Pose, enlarge: float) -> Pose | None:
    try:
        return with_box(pose, enlarge)
    except DegenerateGeometryError:
        return None


def _reference_nms_indices(poses: list[Pose], iou_threshold: float) -> list[int]:
    order = sorted(range(len(poses)), key=lambda i: (-poses[i].det_score, i))
    kept: list[int] = []
    for i in order:
        if all(iou(poses[i].bbox, poses[k].bbox) <= iou_threshold for k in kept):
            kept.append(i)
    return kept


def _reference_detect_frame(
    frame: Frame, b_frame: Frame | None, config: PipelineConfig
) -> tuple[Pose, ...]:
    if b_frame is not None and len(b_frame.poses) != len(frame.poses):
        raise PipelineContractError(
            f"frame {frame.index}: second model has {len(b_frame.poses)} poses, "
            f"expected {len(frame.poses)}"
        )
    survivors: list[tuple[int, Pose]] = []
    for i, pose in enumerate(frame.poses):
        if pose.det_score < config.candidate_drop_threshold:
            continue
        boxed = _reference_with_box(pose, config.bbox_enlarge)
        if boxed is None:
            _log.warning("frame %d: dropping pose %d with no inferable box", frame.index, i)
            continue
        survivors.append((i, boxed))
    selected = [
        survivors[k]
        for k in _reference_nms_indices([pose for _, pose in survivors], config.nms_iou_threshold)
    ]
    if b_frame is None or config.ensemble_mode == "none":
        return tuple(p for _, p in selected)
    fused = []
    for i, pose in selected:
        other = _reference_with_box(b_frame.poses[i], config.bbox_enlarge)
        if other is None:
            _log.warning(
                "frame %d: second model pose %d has no box; using first model", frame.index, i
            )
            fused.append(pose)
        else:
            fused.append(
                fuse_average(pose, other)
                if config.ensemble_mode == "average"
                else fuse_expert(pose, other, config.expert_map)
            )
    return tuple(fused)


def _reference_detect(det: Sequence, det_b: Sequence | None, config: PipelineConfig):
    frames = []
    for fi, frame in enumerate(det.frames):
        b_frame = det_b.frames[fi] if det_b is not None else None
        frames.append(_reference_detect_frame(frame, b_frame, config))
    return frames


# few distinct values, so spans are often zero, boxes often identical and scores tied,
# mixed with any floats; one input in four draws from huge values, which overflow an
# enlarged box or the union area of two boxes, and whose fused mean must still be exact
_VALUES = [0.0, -0.0, 1.0, 2.0, 4.0, 5.5, -3.0, 1e-300]
_HUGE = [0.0, 1.0, 1e300, -1e300, 1.7e308, -1.7e308]
_BOXES = [(0.0, 0.0, 4.0, 1.0), (0.0, 0.0, 2.0, 1.0), (1.0, 0.0, 3.0, 1.0), (0.0, 0.0, 1.0, 1.0)]


@st.composite
def _poses(draw, values) -> Pose:
    present = np.array(draw(st.lists(st.booleans(), min_size=15, max_size=15)))
    if draw(st.booleans()):  # 0 or 1 present joints
        present[:] = False
        present[draw(st.integers(0, 14))] = draw(st.booleans())
    xy = np.array(draw(st.lists(values, min_size=30, max_size=30)))
    if draw(st.booleans()):  # one value for every x: a zero span
        xy[::2] = draw(values)
    confidence = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=15, max_size=15))
    keypoints = Keypoints(xy.reshape(15, 2), confidence, present)
    score = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0, 1]))
    bbox = None
    if draw(st.booleans()):
        bbox = BBox(*draw(st.sampled_from(_BOXES)))
    track_id = draw(st.none() | st.integers(0, 5))
    return Pose(keypoints, score, bbox, track_id)


@st.composite
def _inputs(draw):
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        values = st.sampled_from(_HUGE)
    else:
        values = st.sampled_from(_VALUES) | st.floats(-1000, 1000)
    frames = tuple(
        Frame(index, 100, 100, tuple(draw(st.lists(_poses(values), min_size=n, max_size=n))))
        for index, n in enumerate(counts)
    )
    det = Sequence("s", frames)
    mode = draw(st.sampled_from(["none", "average", "expert"]))
    config = PipelineConfig(
        candidate_drop_threshold=draw(st.sampled_from([0.0, 0.3, 0.5])),
        nms_iou_threshold=draw(st.sampled_from([0.0, 0.5, 0.7, 1.0])),
        bbox_enlarge=draw(st.sampled_from([0.0, 0.2, 0.35, 1e300, 1.7e308])),
        ensemble_mode=mode,
        expert_map={j: draw(st.sampled_from(list(Route))) for j in JOINTS},
    )
    if mode == "none":
        return det, None, config
    b_counts = list(counts)
    if draw(st.integers(0, 4)) == 0:  # a pose-count mismatch in one frame
        k = draw(st.integers(0, len(counts) - 1))
        b_counts[k] += draw(st.sampled_from([-1, 1])) if b_counts[k] else 1
    det_b = Sequence(
        "s",
        tuple(
            Frame(f.index, 100, 100, tuple(draw(st.lists(_poses(values), min_size=n, max_size=n))))
            for f, n in zip(frames, b_counts)
        ),
    )
    return det, det_b, config


def _exact(poses) -> list:
    """Everything a pose holds, with floats spelled by ``repr`` so ``-0.0`` differs from ``0.0``."""
    return [
        (
            p.xy.tobytes(),
            p.confidence.tobytes(),
            p.present.tobytes(),
            repr(p.bbox),
            repr(p.det_score),
            p.track_id,
        )
        for p in poses
    ]


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def _outcome(run) -> tuple[tuple, list[str]]:
    """``run()``'s result or error, and the warnings the pipeline logger received meanwhile."""
    handler = _Messages()
    _log.addHandler(handler)
    try:
        result = ("ok", run())
    except ValueError as exc:  # PipelineContractError included
        result = ("error", type(exc), str(exc))
    finally:
        _log.removeHandler(handler)
    return result, handler.messages


@settings(max_examples=200)
@given(_inputs())
def test_detect_sequence_equals_the_frame_by_frame_reference(inputs):
    det, det_b, config = inputs
    routes = None if det_b is None else route_codes(config.ensemble_mode, config.expert_map)
    expected, expected_log = _outcome(lambda: _reference_detect(det, det_b, config))
    got, got_log = _outcome(
        lambda: [f.poses for f in pipeline._detect_sequence(det, det_b, config, routes).frames]
    )
    assert got_log == expected_log
    assert got[0] == expected[0]
    if got[0] == "error":
        assert got == expected
    else:
        assert got[1] == expected[1]  # Pose equality, frame by frame
        assert [_exact(f) for f in got[1]] == [_exact(f) for f in expected[1]]
