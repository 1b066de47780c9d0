"""What the detection stage must keep, and the MOT counts that follow from it.

``synth.analytic_counts`` predicts keypoint counts from the generator's
provenance, but it assumes every detection reaches the tracker.  The
pipeline's detection stage first drops candidates below the candidate
threshold, candidates with no inferable box, and candidates that
``geometry.nms_boxes`` suppresses (a false pose overlapping another false pose
is the usual case).  :func:`detect_replay` replays that stage with the
library's own geometry functions; :func:`expected_counts` removes the dropped
candidates, with their provenance, before asking the oracle.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

from topdown import geometry, synth


@dataclass(frozen=True)
class DetectReplay:
    kept: tuple[int, ...]  # input indices of the surviving candidates, ascending
    below_threshold: int
    no_box: int
    suppressed: int

    @property
    def dropped(self) -> int:
        return self.below_threshold + self.no_box + self.suppressed


def _kept_positions(kept: list, candidates: list) -> list[int]:
    """Positions in ``candidates`` of what ``nms_boxes`` returned (indices or poses)."""
    if all(isinstance(k, numbers.Integral) for k in kept):
        return list(kept)
    position = {id(p): i for i, p in enumerate(candidates)}
    return [position[id(k)] for k in kept]


def detect_replay(poses, candidate_threshold: float, enlarge: float, nms_iou: float) -> DetectReplay:
    """Replay candidate pruning, box inference and NMS on one frame's poses."""
    survivors: list[int] = []
    boxed = []
    below = no_box = 0
    for i, pose in enumerate(poses):
        if pose.det_score < candidate_threshold:
            below += 1
            continue
        if pose.bbox is None:
            try:
                pose = replace(pose, bbox=geometry.bbox_from_keypoints(pose, enlarge))
            except geometry.DegenerateGeometryError:
                no_box += 1
                continue
        survivors.append(i)
        boxed.append(pose)
    kept = _kept_positions(geometry.nms_boxes(boxed, nms_iou), boxed)
    return DetectReplay(
        kept=tuple(sorted(survivors[k] for k in kept)),
        below_threshold=below,
        no_box=no_box,
        suppressed=len(boxed) - len(kept),
    )


def after_detection(out: synth.SynthOutput, config) -> synth.SynthOutput:
    """``out`` with the candidates the detection stage drops removed."""
    frames = []
    provenance = []
    for frame, sources in zip(out.det.frames, out.provenance):
        replay = detect_replay(
            frame.poses,
            config.candidate_drop_threshold,
            config.bbox_enlarge,
            config.nms_iou_threshold,
        )
        frames.append(replace(frame, poses=tuple(frame.poses[i] for i in replay.kept)))
        provenance.append(tuple(sources[i] for i in replay.kept))
    return replace(
        out, det=replace(out.det, frames=tuple(frames)), provenance=tuple(provenance)
    )


def expected_counts(
    out: synth.SynthOutput, config, thresholds: list[float]
) -> dict[float, synth.AnalyticCounts]:
    """Oracle keypoint counts per keypoint threshold, after the detection stage."""
    detected = after_detection(out, config)
    return {t: synth.analytic_counts(detected, t) for t in thresholds}
