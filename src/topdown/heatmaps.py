"""Heatmap decoding for single-candidate stacks.

Grids are (H, W) float arrays indexed (row, col), i.e. y before x.  Decoding
locates the global maximum, optionally applies a quarter-cell refinement
toward the larger in-axis neighbour, and maps cells to pixel coordinates via
``origin + stride * (cell + 0.5 + shift)``.

There is no single canonical definition of cross-map peak suppression; this
module pins a deterministic stand-in: joints are processed by descending peak
score and each falls back through its local maxima (then plain argmax) until
it finds a peak not colliding with an already-accepted peak of another joint.
With ``radius=0`` suppression is disabled and the result equals per-map
argmax decoding.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import (
    JOINTS,
    ContractError,
    Joint,
    Keypoint,
    is_real,
    parse_json,
    record_from_dict,
    require_real,
)


def _require_scores(grid: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``grid`` is a non-empty 2-D float grid of scores in [0, 1]."""
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError(f"grid must be a non-empty 2-D array, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid contains non-finite scores")
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise ValueError("grid scores must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Per-joint score grid with a pixel stride."""

    joint: Joint
    grid: np.ndarray
    stride: float = 1.0

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        _require_scores(grid)
        if isinstance(self.stride, bool) or not isinstance(self.stride, numbers.Real):
            raise ValueError(f"stride must be a number, got {self.stride!r}")
        if self.stride <= 0.0:
            raise ValueError(f"stride must be positive, got {self.stride!r}")
        if not is_real(self.stride):
            raise ValueError(f"stride must be finite, got {self.stride!r}")
        grid = grid.copy()
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True, eq=False)
class HeatmapStack:
    """One heatmap per joint, sharing shape and stride, plus the crop origin."""

    maps: tuple[Heatmap, ...]
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if len(self.maps) != len(JOINTS):
            raise ValueError(f"expected {len(JOINTS)} maps, got {len(self.maps)}")
        for slot, hm in zip(JOINTS, self.maps):
            if hm.joint is not slot:
                raise ValueError(f"map slot {slot.value} holds {hm.joint.value}")
        shapes = {hm.grid.shape for hm in self.maps}
        strides = {hm.stride for hm in self.maps}
        if len(shapes) > 1 or len(strides) > 1:
            raise ValueError("maps must share shape and stride")
        if len(self.origin) != 2 or not all(map(is_real, self.origin)):
            raise ValueError(f"origin must be finite numbers (x, y), got {self.origin!r}")

    def map_for(self, joint: Joint) -> Heatmap:
        return self.maps[joint.index]


def argmax_cell(grid: np.ndarray) -> tuple[int, int]:
    """Cell of the global maximum; ties resolve to the smallest row, then column."""
    flat = int(np.argmax(grid))  # argmax scans row-major, giving the tie rule for free
    return flat // grid.shape[1], flat % grid.shape[1]


def _quarter_shift(grid: np.ndarray, row: int, col: int) -> tuple[float, float]:
    """Quarter-cell offsets toward the larger in-axis neighbour.

    An axis shifts only when both neighbours are in bounds and strictly
    unequal, so edges and plateaus stay put.
    """
    h, w = grid.shape
    dx = dy = 0.0
    if 0 < col < w - 1:
        left, right = grid[row, col - 1], grid[row, col + 1]
        if right > left:
            dx = 0.25
        elif left > right:
            dx = -0.25
    if 0 < row < h - 1:
        up, down = grid[row - 1, col], grid[row + 1, col]
        if down > up:
            dy = 0.25
        elif up > down:
            dy = -0.25
    return dx, dy


def _cell_to_keypoint(
    hm: Heatmap,
    origin: tuple[float, float],
    row: int,
    col: int,
    refine: bool,
) -> Keypoint:
    dx, dy = _quarter_shift(hm.grid, row, col) if refine else (0.0, 0.0)
    try:
        return Keypoint(
            joint=hm.joint,
            x=origin[0] + hm.stride * (col + 0.5 + dx),
            y=origin[1] + hm.stride * (row + 0.5 + dy),
            confidence=float(hm.grid[row, col]),
        )
    except ValueError as exc:  # a stride or origin that puts the cell beyond the float range
        raise ContractError(str(exc)) from exc


def decode_argmax(
    hm: Heatmap, origin: tuple[float, float] = (0.0, 0.0), refine: bool = True
) -> Keypoint:
    """Decode the global-maximum cell of one heatmap to a pixel keypoint."""
    row, col = argmax_cell(hm.grid)
    return _cell_to_keypoint(hm, origin, row, col, refine)


def local_peaks(grid: np.ndarray, cap: int = 5) -> list[tuple[int, int, float]]:
    """Up to ``cap`` local maxima (8-neighbourhood, non-strict) as (row, col, score).

    Ordered by descending score, ties by (row, col); the global maximum is
    always first.
    """
    padded = np.full((grid.shape[0] + 2, grid.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = grid
    center = padded[1:-1, 1:-1]
    is_peak = np.ones(grid.shape, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            neighbour = padded[1 + dr : padded.shape[0] - 1 + dr,
                               1 + dc : padded.shape[1] - 1 + dc]
            is_peak &= center >= neighbour
    rows, cols = np.nonzero(is_peak)
    scores = grid[rows, cols]
    order = np.lexsort((cols, rows, -scores))[:cap]
    return [(int(rows[i]), int(cols[i]), float(scores[i])) for i in order]


def require_radius(radius: float) -> None:
    """Raise ``ValueError`` unless ``radius`` is a suppression radius: ``>= 0``, so not NaN."""
    if not radius >= 0.0:
        raise ValueError(f"radius must be non-negative, got {radius!r}")


@dataclass(frozen=True, slots=True)
class StackDecodeResult:
    """Decoded keypoints (one per joint) and the joints that needed the fallback."""

    keypoints: tuple[Keypoint, ...]
    fallbacks: tuple[Joint, ...]


def decode_stack(
    stack: HeatmapStack, radius: float = 0.0, refine: bool = True, max_peaks: int = 5
) -> StackDecodeResult:
    """Decode all joints while keeping distinct joints' peaks apart.

    Joints are processed by descending top-peak score (ties by joint order).
    A candidate peak is rejected when it lies strictly within ``radius``
    pixels of an already-accepted peak of a different joint; the joint then
    tries its next local maximum and, with all candidates rejected, falls back
    to its plain argmax decode.
    """
    require_radius(radius)
    candidates: dict[Joint, list[Keypoint]] = {}
    for hm in stack.maps:
        peaks = local_peaks(hm.grid, cap=max_peaks)
        candidates[hm.joint] = [
            _cell_to_keypoint(hm, stack.origin, r, c, refine) for r, c, _ in peaks
        ]
    order = sorted(
        JOINTS, key=lambda j: (-candidates[j][0].confidence, j.index)
    )
    accepted: dict[Joint, Keypoint] = {}
    fallbacks: list[Joint] = []
    for joint in order:
        chosen = None
        for candidate in candidates[joint]:
            collides = any(
                math.hypot(candidate.x - kp.x, candidate.y - kp.y) < radius
                for kp in accepted.values()
            )
            if not collides:
                chosen = candidate
                break
        if chosen is None:
            chosen = decode_argmax(stack.map_for(joint), stack.origin, refine)
            fallbacks.append(joint)
        accepted[joint] = chosen
    return StackDecodeResult(
        keypoints=tuple(accepted[j] for j in JOINTS),
        fallbacks=tuple(j for j in JOINTS if j in fallbacks),
    )


def select_hardest_joints(losses: list[float], k: int = 7) -> tuple[int, ...]:
    """Indices of the ``k`` largest losses, ties to the lower joint index.

    Exposes the hard-keypoint selection rule (7 of 15 by default) as a pure
    function; the returned indices are ascending.
    """
    if len(losses) != len(JOINTS):
        raise ValueError(f"expected {len(JOINTS)} losses, got {len(losses)}")
    if not 1 <= k <= len(losses):
        raise ValueError(f"k must be within [1, {len(losses)}], got {k}")
    for i, loss in enumerate(losses):
        require_real(loss, f"loss[{i}]")
        if loss < 0.0:
            raise ValueError(f"loss[{i}] must be non-negative, got {loss!r}")
    ranked = sorted(range(len(losses)), key=lambda i: (-losses[i], i))
    return tuple(sorted(ranked[:k]))


@dataclass(frozen=True)
class _Fixture:
    """The heatmap fixture document, read by :func:`~topdown.model.record_from_dict`."""

    maps: dict[Joint, list]
    stride: float = 1.0
    origin: tuple[float, ...] = (0.0, 0.0)


def load_stack_json(text: str) -> HeatmapStack:
    """Read the heatmap fixture format.

    Document shape::

        {"stride": float, "origin": [x, y],
         "maps": {"<joint>": [[row of W floats] x H], ...}}  # all 15 joints

    ``stride`` and ``origin`` may be left out.  An unknown key or joint is
    refused, and each fault starts with the path of its field; a grid whose
    shape differs from ``nose``'s is named by its joint, the first in slot order.
    """
    fixture = record_from_dict(_Fixture, parse_json(text))
    missing = [j.value for j in JOINTS if j not in fixture.maps]
    if missing:
        raise ValueError(f"maps: missing joints {missing}")
    maps = []
    for joint in JOINTS:
        cells = fixture.maps[joint]
        try:  # a grid of the wrong shape or type, or an int beyond the float range
            grid = np.asarray(cells, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"maps.{joint.value}: {exc}") from exc
        # numpy reads "0.5" as 0.5, true as 1.0 and null as NaN
        odd = [c for c in np.asarray(cells, dtype=object).flat if type(c) not in (int, float)]
        if odd:
            raise ValueError(f"maps.{joint.value}: a grid cell must be a number, got {odd[0]!r}")
        try:
            _require_scores(grid)
        except ValueError as exc:
            raise ValueError(f"maps.{joint.value}: {exc}") from exc
        maps.append(Heatmap(joint=joint, grid=grid, stride=fixture.stride))
    for hm in maps:
        if hm.grid.shape != maps[0].grid.shape:
            raise ValueError(f"maps.{hm.joint.value}: maps must share shape and stride")
    return HeatmapStack(maps=tuple(maps), origin=fixture.origin)
