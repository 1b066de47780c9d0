"""End-to-end pipeline: candidate pruning, NMS, fusion, tracking, scoring.

Stages run in order: drop low-likelihood candidates, infer missing boxes,
suppress overlapping boxes, optionally fuse a second model's predictions for
the surviving candidates, assign track ids, prune low-confidence keypoints,
then score single-frame AP and tracking metrics against ground truth.

Scoring builds one :class:`~topdown.metrics.PairTable` of the tracked
output against ground truth, matches each frame once, and both scores read
that matching.  Threshold sweeps yield AP/MOTA totals per keypoint threshold
and detection precision/recall per box threshold.  The keypoint threshold
acts only after tracking, so a keypoint sweep runs the pipeline once, at its
lowest value, and scores every other value from that run's pair table, with
the prediction keypoints pruned at the value as a presence mask; no pruned
sequences are built for them.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterable

from .ensemble import Route, default_expert_map, fuse, validate_expert_map
from .geometry import (
    DegenerateGeometryError,
    PRResult,
    detection_pr,
    nms_indices,
    prune_candidates,
    with_box,
)
from .metrics import (
    ApReport,
    MotReport,
    PairTable,
    PckhThreshold,
    evaluate_ap,
    evaluate_mot,
    match_sequences,
)
from .model import JOINTS, BBox, Frame, Joint, Pose, Sequence, pair_by_name, require_real
from .tracker import TrackerConfig, prune_sequence_keypoints, track_sequence

log = logging.getLogger(__name__)

SWEEP_AXES = ("bbox_threshold", "keypoint_threshold")


class PipelineContractError(ValueError):
    """Pipeline inputs violate a cross-file contract (alignment, pairing)."""


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """All thresholds and sub-configurations for one pipeline run."""

    candidate_drop_threshold: float = 0.0
    nms_iou_threshold: float = 0.7
    ensemble_mode: str = "none"
    expert_map: dict[Joint, Route] = field(default_factory=default_expert_map)
    keypoint_drop_threshold: float = 0.0
    bbox_enlarge: float = 0.20
    detection_iou_threshold: float = 0.4
    tracker: TrackerConfig = TrackerConfig()
    pckh: PckhThreshold = PckhThreshold()

    def __post_init__(self) -> None:
        for name in (
            "candidate_drop_threshold",
            "nms_iou_threshold",
            "keypoint_drop_threshold",
            "detection_iou_threshold",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value!r}")
        require_real(self.bbox_enlarge, "bbox_enlarge")
        if self.bbox_enlarge < 0.0:
            raise ValueError(f"bbox_enlarge must be non-negative, got {self.bbox_enlarge!r}")
        if self.ensemble_mode not in ("none", "average", "expert"):
            raise ValueError(f"unknown ensemble mode {self.ensemble_mode!r}")
        validate_expert_map(self.expert_map)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "candidate_drop_threshold": self.candidate_drop_threshold,
            "nms_iou_threshold": self.nms_iou_threshold,
            "ensemble_mode": self.ensemble_mode,
            "expert_map": {j.value: r.value for j, r in self.expert_map.items()},
            "keypoint_drop_threshold": self.keypoint_drop_threshold,
            "bbox_enlarge": self.bbox_enlarge,
            "detection_iou_threshold": self.detection_iou_threshold,
            "tracker": {
                "w_iou": self.tracker.w_iou,
                "w_pose": self.tracker.w_pose,
                "similarity_min": self.tracker.similarity_min,
                "retention_window": self.tracker.retention_window,
                "method": self.tracker.method,
                "kappa": self.tracker.kappa,
            },
            "pckh": {
                "factor": self.pckh.factor,
                "min_head_size": self.pckh.min_head_size,
                "bbox_diag_fraction": self.pckh.bbox_diag_fraction,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Build a config from a schema-1 document, as written by :meth:`to_dict`.

        Earlier schema-1 documents also carry ``keypoint_drop_threshold`` in
        their ``tracker`` section; the tracker never read it (keypoints are
        pruned with the top-level field), so it is dropped without effect.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        doc = dict(doc)
        schema = doc.pop("schema", 1)
        if schema != 1:
            raise ValueError(f"unsupported config schema {schema!r}")
        doc.pop("synth", None)  # generator section, consumed by the synth command
        try:
            if "expert_map" in doc:
                by_name = {j.value: j for j in JOINTS}
                doc["expert_map"] = {
                    by_name[name]: Route(route) for name, route in doc["expert_map"].items()
                }
            if "tracker" in doc:
                tracker = dict(doc["tracker"])
                tracker.pop("keypoint_drop_threshold", None)
                doc["tracker"] = TrackerConfig(**tracker)
            if "pckh" in doc:
                doc["pckh"] = PckhThreshold(**doc["pckh"])
            return cls(**doc)
        except (TypeError, KeyError, AttributeError) as exc:
            raise ValueError(f"bad pipeline config: {exc}") from exc


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """Tracked output, its reports, and the pair table they were scored from."""

    tracked: tuple[Sequence, ...]
    ap: ApReport
    mot: MotReport
    table: PairTable = field(compare=False, repr=False)


def _with_box(pose: Pose, enlarge: float) -> Pose | None:
    """:func:`~topdown.geometry.with_box`, or ``None`` when no box can be inferred."""
    try:
        return with_box(pose, enlarge)
    except DegenerateGeometryError:
        return None


def _detect_frame(
    frame: Frame, b_frame: Frame | None, config: PipelineConfig
) -> tuple[Pose, ...]:
    """Candidate pruning, box inference and NMS for one frame, plus fusion."""
    if b_frame is not None and len(b_frame.poses) != len(frame.poses):
        raise PipelineContractError(
            f"frame {frame.index}: second model has {len(b_frame.poses)} poses, "
            f"expected {len(frame.poses)}"
        )
    survivors: list[tuple[int, Pose]] = []
    for i, pose in enumerate(frame.poses):
        if pose.det_score < config.candidate_drop_threshold:
            continue
        boxed = _with_box(pose, config.bbox_enlarge)
        if boxed is None:
            log.warning("frame %d: dropping pose %d with no inferable box", frame.index, i)
            continue
        survivors.append((i, boxed))
    # survivors keep their input index so it can select the second model's pose
    selected = [
        survivors[k]
        for k in nms_indices([pose for _, pose in survivors], config.nms_iou_threshold)
    ]
    if b_frame is None or config.ensemble_mode == "none":
        return tuple(p for _, p in selected)
    fused = []
    for i, pose in selected:
        other = _with_box(b_frame.poses[i], config.bbox_enlarge)
        if other is None:
            log.warning("frame %d: second model pose %d has no box; using first model", frame.index, i)
            fused.append(pose)
        else:
            fused.append(fuse(pose, other, config.ensemble_mode, config.expert_map))
    return tuple(fused)


def run_pipeline(
    det_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    config: PipelineConfig = PipelineConfig(),
    det_b_seqs: list[Sequence] | None = None,
) -> PipelineResult:
    """Run detection post-processing, tracking and scoring end to end."""
    if det_b_seqs is not None and config.ensemble_mode == "none":
        raise PipelineContractError(
            "second model predictions supplied but ensemble_mode is 'none'"
        )
    if det_b_seqs is None and config.ensemble_mode != "none":
        log.warning("ensemble_mode %s configured without second model predictions", config.ensemble_mode)
    pair_by_name(det_seqs, gt_seqs, "ground truth", PipelineContractError)
    if det_b_seqs is None:
        pairs = [(det, None) for det in det_seqs]
    else:
        pairs = pair_by_name(
            det_seqs, det_b_seqs, "second model predictions", PipelineContractError
        )
    tracked = []
    for det, det_b in pairs:
        frames = []
        for fi, frame in enumerate(det.frames):
            b_frame = det_b.frames[fi] if det_b is not None else None
            frames.append(replace(frame, poses=_detect_frame(frame, b_frame, config)))
        processed = replace(det, frames=tuple(frames))
        tracked_seq = track_sequence(processed, config.tracker)
        tracked.append(
            prune_sequence_keypoints(tracked_seq, config.keypoint_drop_threshold)
        )
    return _score(tracked, gt_seqs, config.pckh)


def _score(
    tracked: list[Sequence], gt_seqs: list[Sequence], pckh: PckhThreshold
) -> PipelineResult:
    """AP and MOT of tracked sequences, from one pair table and one matching pass."""
    matching = match_sequences(tracked, gt_seqs, pckh)
    ap = evaluate_ap(tracked, gt_seqs, pckh, matching=matching)
    mot = evaluate_mot(tracked, gt_seqs, pckh, matching=matching)
    return PipelineResult(tracked=tuple(tracked), ap=ap, mot=mot, table=matching.table)


def _boxes(poses: Iterable[Pose], config: PipelineConfig) -> list[BBox]:
    """The poses' boxes, inferred when absent; a pose with no inferable box has none."""
    boxed = (_with_box(p, config.bbox_enlarge) for p in poses)
    return [p.bbox for p in boxed if p is not None]


def detection_pr_at(
    det_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    threshold: float,
    config: PipelineConfig = PipelineConfig(),
) -> PRResult:
    """Frame-wise detection precision/recall with candidates pruned at ``threshold``.

    Boxes come from the poses themselves (inferred from keypoints when
    absent); counts are summed over all frames of all aligned sequences.
    """
    tp = fp = fn = 0
    for det, gt in pair_by_name(det_seqs, gt_seqs, "ground truth", PipelineContractError):
        for det_frame, gt_frame in zip(det.frames, gt.frames):
            det_boxes = _boxes(prune_candidates(list(det_frame.poses), threshold), config)
            gt_boxes = _boxes(gt_frame.poses, config)
            result = detection_pr(det_boxes, gt_boxes, config.detection_iou_threshold)
            tp += result.tp
            fp += result.fp
            fn += result.fn
    return PRResult(tp=tp, fp=fp, fn=fn)


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One sweep point; exactly one of the metric pairs is populated."""

    value: float
    ap_total: float | None = None
    mota_total: float | None = None
    precision: float | None = None
    recall: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"value": self.value}
        for name in ("ap_total", "mota_total", "precision", "recall"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        return out


def sweep(
    det_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    config: PipelineConfig,
    axis: str,
    values: list[float],
) -> list[SweepRow]:
    """One row per threshold value along one axis, in the order the values were given.

    Every value must be finite and within [0, 1]; all are checked before any
    work starts.  A box-axis point prunes candidates and scores detection.
    A keypoint-axis sweep runs :func:`run_pipeline` once, at the lowest value,
    and scores each other value from that run's pair table, counting a
    tracked keypoint as present when it is present and not below the value
    (the mask :func:`~topdown.tracker.prune_keypoints` applies).  That gives
    the rows of a full run per value, because pruning is monotone: a keypoint
    below the lowest threshold is below every other one.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if len(values) < 2:
        raise ValueError(f"need at least 2 sweep values, got {len(values)}")
    for value in values:
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"sweep values must be finite and within [0, 1], got {value!r}")
    rows = []
    if axis == "bbox_threshold":
        for value in values:
            pr = detection_pr_at(det_seqs, gt_seqs, value, config)
            rows.append(
                SweepRow(value=value, precision=100.0 * pr.precision, recall=100.0 * pr.recall)
            )
        return rows
    lowest = min(values)
    base = run_pipeline(det_seqs, gt_seqs, replace(config, keypoint_drop_threshold=lowest))
    for value in values:
        if value == lowest:
            ap, mot = base.ap, base.mot
        else:
            matching = base.table.match(value)
            ap, mot = matching.ap_report(), matching.mot_report()
        rows.append(SweepRow(value=value, ap_total=ap.total, mota_total=mot.mota_total))
    return rows


def sweep_csv(axis: str, rows: list[SweepRow]) -> str:
    if axis == "keypoint_threshold":
        lines = ["threshold,AP,MOTA"]
        lines += [f"{r.value:.4f},{r.ap_total:.4f},{r.mota_total:.4f}" for r in rows]
    else:
        lines = ["threshold,precision,recall"]
        lines += [f"{r.value:.4f},{r.precision:.4f},{r.recall:.4f}" for r in rows]
    return "\n".join(lines) + "\n"
