"""Heatmap decoding, cross-map suppression and hardest-joint selection."""
from __future__ import annotations

import numpy as np
import pytest

from topdown.heatmaps import (
    Heatmap,
    HeatmapStack,
    argmax_cell,
    decode_argmax,
    decode_stack,
    load_stack_json,
    local_peaks,
    select_hardest_joints,
)
from topdown.model import JOINTS, Joint


def _one_hot(shape, cell, value=1.0):
    grid = np.zeros(shape)
    grid[cell] = value
    return grid


def test_decode_one_hot_example():
    hm = Heatmap(joint=Joint.NOSE, grid=_one_hot((8, 8), (3, 4)), stride=4.0)
    kp = decode_argmax(hm, origin=(0.0, 0.0))
    assert (kp.x, kp.y, kp.confidence) == (18.0, 14.0, 1.0)


def test_decode_uniform_zero_grid_takes_first_cell():
    hm = Heatmap(joint=Joint.NOSE, grid=np.zeros((4, 6)), stride=2.0)
    kp = decode_argmax(hm)
    assert (kp.x, kp.y, kp.confidence) == (1.0, 1.0, 0.0)


def test_decode_with_origin_offset():
    hm = Heatmap(joint=Joint.NOSE, grid=_one_hot((8, 8), (3, 4)), stride=4.0)
    kp = decode_argmax(hm, origin=(100.0, 50.0))
    assert (kp.x, kp.y) == (118.0, 64.0)


def test_quarter_shift_toward_larger_neighbour():
    grid = np.zeros((3, 3))
    grid[1, 1] = 1.0
    grid[1, 2] = 0.5  # right > left: shift +x
    grid[1, 0] = 0.2
    grid[0, 1] = 0.4  # up == down: no y shift
    grid[2, 1] = 0.4
    hm = Heatmap(joint=Joint.NOSE, grid=grid, stride=1.0)
    kp = decode_argmax(hm)
    assert kp.x == pytest.approx(1.75)
    assert kp.y == pytest.approx(1.5)
    unrefined = decode_argmax(hm, refine=False)
    assert (unrefined.x, unrefined.y) == (1.5, 1.5)


def test_decoded_cell_always_holds_global_max():
    rng = np.random.default_rng(0)
    for _ in range(300):
        grid = rng.uniform(0, 1, size=(rng.integers(1, 12), rng.integers(1, 12)))
        row, col = argmax_cell(grid)
        assert grid[row, col] == grid.max()
        # tie rule: the decoded cell is the lexicographically first argmax
        ties = np.argwhere(grid == grid.max())
        assert (row, col) == tuple(ties[np.lexsort((ties[:, 1], ties[:, 0]))][0])
        hm = Heatmap(joint=Joint.NOSE, grid=grid, stride=3.0)
        kp = decode_argmax(hm)
        assert kp.confidence == grid.max()
        # refinement never leaves the max cell's quarter neighbourhood
        assert abs(kp.x - 3.0 * (col + 0.5)) <= 0.25 * 3.0
        assert abs(kp.y - 3.0 * (row + 0.5)) <= 0.25 * 3.0


def test_local_peaks_cap_and_order():
    grid = np.zeros((10, 10))
    for value, cell in [(0.9, (1, 1)), (0.8, (5, 5)), (0.7, (8, 2)), (0.6, (2, 7))]:
        grid[cell] = value
    peaks = local_peaks(grid, cap=3)
    assert [(r, c) for r, c, _ in peaks] == [(1, 1), (5, 5), (8, 2)]
    flat = local_peaks(np.full((4, 4), 0.5), cap=5)
    assert len(flat) == 5
    assert flat[0][:2] == (0, 0)


def _distant_stack(stride=1.0, shape=(40, 40)):
    maps = []
    for i, joint in enumerate(JOINTS):
        cell = (2 + 2 * i, 3 + 2 * i)
        maps.append(Heatmap(joint=joint, grid=_one_hot(shape, cell), stride=stride))
    return HeatmapStack(maps=tuple(maps))


def test_stack_decode_equals_per_map_when_distant():
    stack = _distant_stack()
    decoded = decode_stack(stack, radius=2.0)
    expected = tuple(decode_argmax(m, stack.origin) for m in stack.maps)
    assert decoded.keypoints == expected
    assert decoded.fallbacks == ()


def test_stack_decode_collision_takes_second_peak():
    maps = []
    for i, joint in enumerate(JOINTS):
        if joint is Joint.NOSE:
            grid = _one_hot((20, 60), (2, 2), 1.0)
        elif joint is Joint.HEAD_TOP:
            grid = _one_hot((20, 60), (2, 2), 0.9)
            grid[10, 10] = 0.8
        else:
            grid = _one_hot((20, 60), (15, 3 + 3 * i), 0.95)
        maps.append(Heatmap(joint=joint, grid=grid, stride=1.0))
    decoded = decode_stack(HeatmapStack(maps=tuple(maps)), radius=3.0)
    nose = decoded.keypoints[Joint.NOSE.index]
    head_top = decoded.keypoints[Joint.HEAD_TOP.index]
    assert (nose.x, nose.y) == (2.5, 2.5)
    assert (head_top.x, head_top.y) == (10.5, 10.5)
    assert head_top.confidence == 0.8
    assert decoded.fallbacks == ()


def test_stack_decode_fallback_when_everything_collides():
    # a Chebyshev cone has exactly one local maximum, so each joint owns a
    # single candidate peak and every collision must end in the fallback
    cone = np.array(
        [[1.0 - 0.1 * max(abs(r - 3), abs(c - 3)) for c in range(6)] for r in range(6)]
    )
    maps = [
        Heatmap(joint=j, grid=cone * (1.0 - 0.01 * i), stride=1.0)
        for i, j in enumerate(JOINTS)
    ]
    decoded = decode_stack(HeatmapStack(maps=tuple(maps)), radius=4.0)
    assert len(decoded.keypoints) == len(JOINTS)
    # highest-scoring joint wins its peak; everyone else falls back to argmax
    assert decoded.fallbacks == tuple(JOINTS[1:])
    assert len({(kp.x, kp.y) for kp in decoded.keypoints}) == 1


def test_stack_decode_accepted_peaks_respect_radius():
    rng = np.random.default_rng(5)
    radius = 2.0
    for _ in range(25):
        maps = tuple(
            Heatmap(joint=j, grid=rng.uniform(0, 1, size=(8, 8)), stride=2.0)
            for j in JOINTS
        )
        decoded = decode_stack(HeatmapStack(maps=maps), radius=radius)
        fallbacks = set(decoded.fallbacks)
        accepted = [kp for kp in decoded.keypoints if kp.joint not in fallbacks]
        for i in range(len(accepted)):
            for j in range(i + 1, len(accepted)):
                dx = accepted[i].x - accepted[j].x
                dy = accepted[i].y - accepted[j].y
                assert (dx * dx + dy * dy) ** 0.5 >= radius


@pytest.mark.parametrize("refine", [True, False])
def test_stack_decode_radius_zero_equals_per_map_argmax(refine):
    rng = np.random.default_rng(1)
    for k in range(50):
        shape = (int(rng.integers(2, 10)), int(rng.integers(2, 10)))
        stride = float(rng.uniform(1, 6))
        if k % 2:  # few distinct scores, so peaks tie and plateaus form
            grids = [rng.integers(0, 3, size=shape) / 2 for _ in JOINTS]
        else:
            grids = [rng.uniform(0, 1, size=shape) for _ in JOINTS]
        maps = tuple(Heatmap(joint=j, grid=g, stride=stride) for j, g in zip(JOINTS, grids))
        stack = HeatmapStack(maps=maps, origin=(float(rng.uniform(-50, 50)), 0.0))
        decoded = decode_stack(stack, radius=0.0, refine=refine)
        assert decoded.keypoints == tuple(
            decode_argmax(m, stack.origin, refine=refine) for m in stack.maps
        )
        assert decoded.fallbacks == ()


def test_stack_validation():
    with pytest.raises(ValueError):
        HeatmapStack(maps=tuple(_distant_stack().maps[:3]))
    with pytest.raises(ValueError):
        Heatmap(joint=Joint.NOSE, grid=np.full((3, 3), 1.2))
    with pytest.raises(ValueError):
        Heatmap(joint=Joint.NOSE, grid=np.zeros((0, 3)))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_stride_origin_and_radius_are_refused(value):
    rule = "positive" if value == float("-inf") else "finite"
    with pytest.raises(ValueError, match=f"stride must be {rule}"):
        Heatmap(joint=Joint.NOSE, grid=np.zeros((2, 2)), stride=value)
    maps = _distant_stack().maps
    with pytest.raises(ValueError, match="origin must be finite"):
        HeatmapStack(maps=maps, origin=(0.0, value))
    if not value > 0.0:  # +inf is a radius that suppresses every other joint's peak
        with pytest.raises(ValueError, match="radius must be non-negative"):
            decode_stack(HeatmapStack(maps=maps), radius=value)


@pytest.mark.parametrize("value", ["x", True, 10**400])
def test_stride_origin_and_losses_are_finite_numbers(value):
    with pytest.raises(ValueError, match="stride must be"):
        Heatmap(joint=Joint.NOSE, grid=np.zeros((2, 2)), stride=value)
    with pytest.raises(ValueError, match="origin must be finite"):
        HeatmapStack(maps=_distant_stack().maps, origin=(value, 0.0))
    with pytest.raises(ValueError, match=r"loss\[3\] must be a finite number"):
        select_hardest_joints([1.0] * 3 + [value] + [1.0] * 11)


def test_stack_fixture_roundtrip():
    import json

    doc = {
        "stride": 2.0,
        "origin": [10.0, 20.0],
        "maps": {j.value: _one_hot((4, 4), (1, 2)).tolist() for j in JOINTS},
    }
    stack = load_stack_json(json.dumps(doc))
    assert stack.maps[0].stride == 2.0
    kp = decode_argmax(stack.maps[0], stack.origin)
    assert (kp.x, kp.y) == (10.0 + 2.0 * 2.5, 20.0 + 2.0 * 1.5)
    doc["maps"].pop("nose")
    with pytest.raises(ValueError):
        load_stack_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# hardest-joint selection


def test_select_hardest_sorted_case():
    losses = list(range(15, 0, -1))
    assert select_hardest_joints(losses, 7) == tuple(range(7))


def test_select_hardest_tie_break_prefers_lower_index():
    assert select_hardest_joints([1.0] * 15, 7) == tuple(range(7))


def test_select_hardest_scale_invariance():
    rng = np.random.default_rng(2)
    for _ in range(200):
        losses = list(rng.uniform(0, 10, size=15))
        scale = float(rng.uniform(0.01, 100))
        assert select_hardest_joints(losses, 7) == select_hardest_joints(
            [scale * v for v in losses], 7
        )


def test_select_hardest_contract():
    losses = list(np.random.default_rng(3).uniform(0, 5, size=15))
    for k in (1, 7, 15):
        chosen = select_hardest_joints(losses, k)
        assert len(chosen) == k
        rest = [losses[i] for i in range(15) if i not in chosen]
        assert all(losses[i] >= max(rest, default=0.0) for i in chosen) or not rest
    with pytest.raises(ValueError):
        select_hardest_joints(losses, 0)
    with pytest.raises(ValueError):
        select_hardest_joints(losses, 16)
    with pytest.raises(ValueError):
        select_hardest_joints(losses[:10], 7)
    with pytest.raises(ValueError):
        select_hardest_joints(losses[:14] + [-1.0], 7)
