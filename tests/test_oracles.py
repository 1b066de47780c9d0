"""Each public one-pose rule equals its scalar oracle in ``oracles.py``, bit for bit.

The library computes box inference, fusion and the (reference) head size as
array passes, and its one-pose functions are one-row calls of them.  Values are
drawn from a few exact ones (equal coordinates make zero spans, ``-0.0``
tests signs) and from huge ones that overflow an enlarged box or a fused
mean, so that every error path is taken too.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from topdown import ensemble, geometry, metrics
from topdown.ensemble import Route
from topdown.metrics import PckhThreshold
from topdown.model import JOINTS, BBox, Keypoints, Pose, keypoint_arrays

_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.0, 5.5, 1e-300]) | st.floats(-1e3, 1e3)
_HUGE = st.sampled_from([0.0, 1.0, 1e300, -1e300, 1e308, 1.7e308, -1.7e308])
_ENLARGE = st.sampled_from([0.0, 0.2, 0.35, 1.0, 1e300, 1.7e308])


@st.composite
def _poses(draw, values=None) -> Pose:
    if values is None:
        values = draw(st.sampled_from([_VALUES, _HUGE]))
    present = np.array(draw(st.lists(st.booleans(), min_size=15, max_size=15)))
    if draw(st.integers(0, 3)) == 0:  # 0 or 1 present joints
        present[:] = False
        present[draw(st.integers(0, 14))] = draw(st.booleans())
    xy = np.array(draw(st.lists(values, min_size=30, max_size=30)))
    if draw(st.integers(0, 3)) == 0:  # one value for every x: a zero span
        xy[::2] = draw(values)
    confidence = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=15, max_size=15))
    bbox = None
    if draw(st.booleans()):
        bbox = BBox(0.0, 0.0, draw(st.sampled_from([1.0, 4.0])), 2.0)
    score = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return Pose(Keypoints(xy.reshape(15, 2), confidence, present), score, bbox)


def _exact(pose: Pose) -> tuple:
    """Everything a pose holds, with floats spelled by ``repr`` so ``-0.0`` differs from ``0.0``."""
    return (
        pose.xy.tobytes(),
        pose.confidence.tobytes(),
        pose.present.tobytes(),
        repr(pose.bbox),
        repr(pose.det_score),
        pose.track_id,
    )


def _outcome(call, spell=repr):
    try:
        return ("ok", spell(call()))
    except ValueError as exc:
        return ("error", type(exc), str(exc))


@settings(max_examples=150)
@given(_poses(), _ENLARGE)
def test_box_inference_equals_the_scalar_rule(pose, enlarge):
    assert _outcome(lambda: geometry.bbox_from_keypoints(pose, enlarge)) == _outcome(
        lambda: oracles.bbox_from_keypoints(pose, enlarge)
    )
    assert _outcome(lambda: geometry.with_box(pose, enlarge), _exact) == _outcome(
        lambda: oracles.with_box(pose, enlarge), _exact
    )


@settings(max_examples=150)
@given(
    st.sampled_from([_VALUES, _HUGE]).flatmap(lambda v: st.tuples(_poses(v), _poses(v))),
    st.fixed_dictionaries({j: st.sampled_from(list(Route)) for j in JOINTS}),
)
def test_fusion_equals_the_scalar_loop(pair, route_map):
    a, b = pair
    assert _outcome(lambda: ensemble.fuse_average(a, b), _exact) == _outcome(
        lambda: oracles.fuse_average(a, b), _exact
    )
    assert _outcome(lambda: ensemble.fuse_expert(a, b, route_map), _exact) == _outcome(
        lambda: oracles.fuse_expert(a, b, route_map), _exact
    )


@settings(max_examples=150)
@given(_poses(), st.sampled_from([1e-300, 0.5, 1.0, 3.0, 1e300]))
def test_head_size_equals_the_scalar_rule(pose, min_head_size):
    t = PckhThreshold(min_head_size=min_head_size)
    assert _outcome(lambda: metrics.head_size(pose, t)) == _outcome(
        lambda: oracles.head_size(pose, t)
    )


def _caused(call):
    """:func:`_outcome` of ``call``, spelled by ``repr``, with an error's cause too."""
    try:
        return ("ok", repr(call()))
    except ValueError as exc:
        cause = exc.__cause__
        return ("error", type(exc), str(exc), type(cause), str(cause))


@settings(max_examples=150)
@given(
    st.lists(_poses(), max_size=5),
    st.sampled_from([1e-300, 0.5, 1.0, 3.0, 1e300]),
    st.sampled_from([0.0, 0.3, 1.0, 1e300]),
)
def test_reference_head_sizes_equal_the_scalar_rule(poses, min_head_size, fraction):
    t = PckhThreshold(min_head_size=min_head_size, bbox_diag_fraction=fraction)
    for pose in poses:
        assert _caused(lambda: metrics.reference_head_size(pose, t)) == _caused(
            lambda: oracles.reference_head_size(pose, t)
        )
    # the array pass over many poses raises the error of the first in pose order
    xy, _, present = keypoint_arrays(poses)
    assert _caused(lambda: metrics._reference_head_sizes(poses, xy, present, t).tolist()) == (
        _caused(lambda: [oracles.reference_head_size(p, t) for p in poses])
    )


def test_reference_head_size_takes_the_math_hypot_diagonal():
    # np.hypot(0.225, 1.3) is one ulp below math.hypot(0.225, 1.3)
    assert np.hypot(0.225, 1.3) != math.hypot(0.225, 1.3)
    headless = Keypoints(np.zeros((15, 2)), np.zeros(15), np.zeros(15, dtype=bool))
    pose = Pose(headless, 1.0, BBox(0.0, 0.0, 0.225, 1.3))
    t = PckhThreshold(min_head_size=1e-300, bbox_diag_fraction=1.0)
    assert repr(metrics.reference_head_size(pose, t)) == repr(math.hypot(0.225, 1.3))
    assert repr(metrics.reference_head_size(pose, t)) == repr(oracles.reference_head_size(pose, t))
