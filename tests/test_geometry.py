"""Box inference, IoU, NMS and detection PR against brute-force oracles."""
from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import points_pose, template_pose
from topdown.geometry import (
    BBox,
    DegenerateGeometryError,
    bbox_from_keypoints,
    detection_pr,
    iou,
    iou_matrix,
    nms_boxes,
    prune_candidates,
)
from topdown.model import Joint


def test_bbox_from_keypoints_example():
    pose = points_pose({Joint.NOSE: (10, 10), Joint.LEFT_ANKLE: (30, 50)})
    box = bbox_from_keypoints(pose)
    assert (box.x1, box.y1, box.x2, box.y2) == (8.0, 6.0, 32.0, 54.0)


def test_bbox_enlarge_zero_is_raw_box():
    pose = points_pose({Joint.NOSE: (10, 10), Joint.LEFT_ANKLE: (30, 50)})
    box = bbox_from_keypoints(pose, enlarge=0.0)
    assert (box.x1, box.y1, box.x2, box.y2) == (10.0, 10.0, 30.0, 50.0)


def test_bbox_degenerate_inputs():
    with pytest.raises(DegenerateGeometryError):
        bbox_from_keypoints(points_pose({Joint.NOSE: (10, 10)}))
    with pytest.raises(DegenerateGeometryError):
        bbox_from_keypoints(
            points_pose({Joint.NOSE: (10, 10), Joint.HEAD_TOP: (10, 50)})
        )  # zero width


def _random_pose(rng: random.Random):
    n_present = rng.randint(3, 15)
    joints = rng.sample(list(Joint), n_present)
    points = {j: (rng.uniform(-500, 500), rng.uniform(-500, 500)) for j in joints}
    return points_pose(points), points


def test_bbox_contains_keypoints_1000_cases():
    rng = random.Random(0)
    checked = 0
    for _ in range(1000):
        pose, points = _random_pose(rng)
        try:
            box = bbox_from_keypoints(pose)
        except DegenerateGeometryError:
            continue
        eps = 1e-9 * max(abs(box.x1), abs(box.x2), abs(box.y1), abs(box.y2), 1.0)
        for x, y in points.values():
            assert box.x1 - eps <= x <= box.x2 + eps
            assert box.y1 - eps <= y <= box.y2 + eps
        checked += 1
    assert checked > 900


def test_bbox_translation_equivariance_1000_cases():
    rng = random.Random(1)
    for _ in range(1000):
        pose, points = _random_pose(rng)
        tx, ty = rng.uniform(-100, 100), rng.uniform(-100, 100)
        shifted = points_pose({j: (x + tx, y + ty) for j, (x, y) in points.items()})
        try:
            box = bbox_from_keypoints(pose)
        except DegenerateGeometryError:
            continue
        moved = bbox_from_keypoints(shifted)
        assert moved.x1 == pytest.approx(box.x1 + tx, abs=1e-8)
        assert moved.y1 == pytest.approx(box.y1 + ty, abs=1e-8)
        assert moved.x2 == pytest.approx(box.x2 + tx, abs=1e-8)
        assert moved.y2 == pytest.approx(box.y2 + ty, abs=1e-8)


def test_bbox_permutation_invariance():
    rng = random.Random(2)
    for _ in range(100):
        pose, points = _random_pose(rng)
        joints = list(points)
        coords = [points[j] for j in joints]
        rng.shuffle(coords)
        permuted = points_pose(dict(zip(joints, coords)))
        try:
            assert bbox_from_keypoints(pose) == bbox_from_keypoints(permuted)
        except DegenerateGeometryError:
            continue


# ---------------------------------------------------------------------------
# IoU


def test_iou_identity_and_disjoint():
    a = BBox(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, BBox(20, 20, 30, 30)) == 0.0


def test_iou_hand_computed_value():
    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)


def _random_box(rng: random.Random) -> BBox:
    x1 = rng.uniform(-100, 100)
    y1 = rng.uniform(-100, 100)
    return BBox(x1, y1, x1 + rng.uniform(0, 80), y1 + rng.uniform(0, 80))


def test_iou_symmetric_and_bounded_1000_cases():
    rng = random.Random(3)
    for _ in range(1000):
        a, b = _random_box(rng), _random_box(rng)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


# small integer corners make touching, nested, identical and zero-area boxes common
_coord = st.one_of(st.integers(-5, 5).map(float), st.floats(-100, 100))


@st.composite
def _boxes(draw):
    x1, y1 = draw(_coord), draw(_coord)
    w = draw(st.one_of(st.just(0.0), st.integers(0, 6).map(float), st.floats(0, 80)))
    h = draw(st.one_of(st.just(0.0), st.integers(0, 6).map(float), st.floats(0, 80)))
    return BBox(x1, y1, x1 + w, y1 + h)


@given(st.lists(_boxes(), max_size=6), st.lists(_boxes(), max_size=6))
def test_iou_matrix_equals_scalar_iou_cell_by_cell(rows, cols):
    def corners(boxes):
        return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)

    matrix = iou_matrix(corners(rows), corners(cols))
    assert matrix.shape == (len(rows), len(cols))
    for r, a in enumerate(rows):
        for c, b in enumerate(cols):
            assert matrix[r, c] == iou(a, b)


# corners k / 97 are inexact, so the areas and their sum round: a reordered
# union shows in the last bit
_inexact = st.integers(0, 10**4).map(lambda k: k / 97.0)


@st.composite
def _inexact_boxes(draw):
    x1, x2 = sorted((draw(_inexact), draw(_inexact)))
    y1, y2 = sorted((draw(_inexact), draw(_inexact)))
    return BBox(x1, y1, x2, y2)


@given(st.lists(_inexact_boxes(), min_size=1, max_size=6), st.lists(_inexact_boxes(), max_size=6))
def test_iou_matrix_equals_scalar_iou_bit_for_bit_on_inexact_corners(rows, cols):
    """Overlapping boxes are common (each box spans a random interval of one range)."""
    def corners(boxes):
        return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)

    matrix = iou_matrix(corners(rows), corners(cols))
    expected = [[iou(a, b) for b in cols] for a in rows]
    assert [[float.hex(v) for v in row] for row in matrix.tolist()] == [
        [float.hex(v) for v in row] for row in expected
    ]


# ---------------------------------------------------------------------------
# candidate pruning


def _scored_poses(scores):
    return [template_pose((200, 200), det_score=s) for s in scores]


def test_prune_candidates_examples():
    poses = _scored_poses([0.1, 0.5, 0.9])
    assert [p.det_score for p in prune_candidates(poses, 0.4)] == [0.5, 0.9]
    assert prune_candidates(poses, 0.0) == poses


@given(
    st.lists(st.floats(0, 1, allow_nan=False), max_size=12),
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_prune_candidates_antitone_in_threshold(scores, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    poses = _scored_poses(scores)
    kept_hi = {id(p) for p in prune_candidates(poses, hi)}
    kept_lo = {id(p) for p in prune_candidates(poses, lo)}
    assert kept_hi <= kept_lo


# ---------------------------------------------------------------------------
# NMS


def _pose_with_box(rng: random.Random):
    return template_pose(
        (rng.uniform(0, 400), rng.uniform(0, 400)),
        scale=rng.uniform(40, 120),
        det_score=rng.uniform(0, 1),
    )


def test_nms_identical_boxes_keeps_top_score():
    a = template_pose((200, 200), det_score=0.9)
    b = template_pose((200, 200), det_score=0.8)
    kept = nms_boxes([a, b], 0.5)
    assert kept == [a]


def test_nms_disjoint_keeps_all():
    a = template_pose((100, 100), det_score=0.3)
    b = template_pose((1000, 1000), det_score=0.9)
    assert set(id(p) for p in nms_boxes([a, b], 0.5)) == {id(a), id(b)}


def test_nms_requires_boxes():
    pose = template_pose((100, 100), with_bbox=False)
    with pytest.raises(ValueError):
        nms_boxes([pose], 0.5)


def test_nms_idempotent_and_valid_1000_cases():
    rng = random.Random(4)
    for _ in range(1000):
        poses = [_pose_with_box(rng) for _ in range(rng.randint(0, 8))]
        threshold = rng.uniform(0.1, 0.9)
        kept = nms_boxes(poses, threshold)
        # idempotence
        assert nms_boxes(kept, threshold) == kept
        # no kept pair overlaps beyond the threshold
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert iou(kept[i].bbox, kept[j].bbox) <= threshold
        # output is a subsequence of the score-sorted input
        order = [p.det_score for p in kept]
        assert order == sorted(order, reverse=True)
        assert all(p in poses for p in kept)


# ---------------------------------------------------------------------------
# detection PR


def test_detection_pr_perfect():
    boxes = [BBox(0, 0, 10, 10), BBox(50, 50, 70, 80)]
    result = detection_pr(boxes, [0.9, 0.8], boxes)
    assert (result.precision, result.recall) == (1.0, 1.0)
    assert (result.tp, result.fp, result.fn) == (2, 0, 0)


def test_detection_pr_one_tp_one_fp():
    gt = [BBox(0, 0, 10, 10)]
    dets = [BBox(0, 0, 10, 5), BBox(100, 100, 110, 110)]
    result = detection_pr(dets, [0.9, 0.8], gt)  # first det IoU = 0.5
    assert result.precision == 0.5
    assert result.recall == 1.0


def test_detection_pr_count_identities():
    rng = random.Random(5)
    for _ in range(200):
        dets = [_random_box(rng) for _ in range(rng.randint(0, 6))]
        gts = [_random_box(rng) for _ in range(rng.randint(0, 6))]
        r = detection_pr(dets, [0.0] * len(dets), gts)
        assert r.tp + r.fp == len(dets)
        assert r.tp + r.fn == len(gts)


def _max_matching_tp(dets, gts, threshold) -> int:
    """Exhaustive search over det-to-gt injections, maximizing matched pairs."""
    edges = [[iou(d, g) >= threshold for g in gts] for d in dets]
    best = 0

    def recurse(i: int, used: frozenset[int], matched: int) -> None:
        nonlocal best
        if matched + (len(dets) - i) <= best:
            return
        if i == len(dets):
            best = max(best, matched)
            return
        recurse(i + 1, used, matched)
        for j in range(len(gts)):
            if j not in used and edges[i][j]:
                recurse(i + 1, used | {j}, matched + 1)

    recurse(0, frozenset(), 0)
    return best


def test_detection_pr_matches_bruteforce_on_separated_scenes():
    """Greedy matching is exact when ground truths are well separated."""
    rng = random.Random(6)
    for _ in range(300):
        gts = []
        for k in range(rng.randint(1, 5)):
            x = 200.0 * k
            gts.append(BBox(x, 0, x + 80, 100))
        dets = []
        for k, gt in enumerate(gts):
            if rng.random() < 0.7:
                dx, dy = rng.uniform(-10, 10), rng.uniform(-10, 10)
                dets.append(
                    (BBox(gt.x1 + dx, gt.y1 + dy, gt.x2 + dx, gt.y2 + dy), rng.random())
                )
        for _ in range(rng.randint(0, 3)):
            x = rng.uniform(1500, 2500)
            dets.append((BBox(x, 0, x + 80, 100), rng.random()))
        rng.shuffle(dets)
        scores = [score for _, score in dets]
        dets = [box for box, _ in dets]
        result = detection_pr(dets, scores, gts, 0.4)
        assert result.tp == _max_matching_tp(dets, gts, 0.4)


def test_detection_pr_never_beats_bruteforce():
    rng = random.Random(7)
    for _ in range(300):
        dets = [_random_box(rng) for _ in range(rng.randint(0, 5))]
        gts = [_random_box(rng) for _ in range(rng.randint(0, 5))]
        result = detection_pr(dets, [0.0] * len(dets), gts, 0.4)
        assert result.tp <= _max_matching_tp(dets, gts, 0.4)
