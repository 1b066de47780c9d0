"""End-to-end pipeline: candidate pruning, NMS, fusion, tracking, scoring.

Stages run in order: drop low-likelihood candidates, infer missing boxes,
suppress overlapping boxes, optionally fuse a second model's predictions for
the surviving candidates, assign track ids, prune low-confidence keypoints,
then score single-frame AP and tracking metrics against ground truth.
Every stage reads the :class:`~topdown.model.Columns` of a sequence and
returns a sequence held as columns, so a run builds no ``Pose``, ``Frame``
or ``Keypoints`` between load and save.  Detection and fusion work on one
document at a time: the boxes of all box-less poses are inferred in one
array pass, and every pair of rows before the first pose-count mismatch is
fused in one more, under a route code resolved once per run.  Fusion cannot
fail, so one walk over the frames then prunes and suppresses each frame on
corner rows and raises what it meets in frame order; the kept rows, fused
where their pair has a box, are the columns of the detected sequence.
Tracking sets their track ids, keypoint pruning their presence flags, and
the pair table reads them.

:func:`run_pipeline` builds one :class:`~topdown.metrics.PairTable` of the
tracked output against ground truth, so errors in deriving a correctness
radius are raised by the run itself; its AP and MOT reports are computed from
one matching of that table the first time either is read, and kept.
Threshold sweeps yield AP/MOTA totals per keypoint threshold and detection
precision/recall per box threshold.  The keypoint threshold acts only after
tracking, so a keypoint sweep is the work of one run: it detects and tracks
once with nothing pruned, matches the one table once per value with the
prediction keypoints pruned at the value as a presence mask, and scores all
those matchings together (:func:`~topdown.metrics.ap_reports`,
:func:`~topdown.metrics.mot_reports`); no pruned sequences are built.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from . import metrics, model
from .ensemble import (
    Route,
    default_expert_map,
    fused_arrays,
    midpoint,
    route_codes,
    validate_expert_map,
)
from .geometry import PRResult, detection_pr, filled_corners, nms_indices
from .metrics import (
    ApReport,
    MotReport,
    PairTable,
    PckhThreshold,
    ap_reports,
    mot_reports,
)
from .model import BBox, Columns, ContractError, Joint, Sequence, pair_by_name, require_real
from .tracker import TrackerConfig, prune_sequence_keypoints, track_sequence

log = logging.getLogger(__name__)

SWEEP_AXES = ("bbox_threshold", "keypoint_threshold")


class PipelineContractError(ContractError):
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
            require_real(value, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value!r}")
        require_real(self.bbox_enlarge, "bbox_enlarge")
        if self.bbox_enlarge < 0.0:
            raise ValueError(f"bbox_enlarge must be non-negative, got {self.bbox_enlarge!r}")
        if self.ensemble_mode not in ("none", "average", "expert"):
            raise ValueError(
                f"ensemble_mode must be 'none', 'average' or 'expert', got {self.ensemble_mode!r}"
            )
        try:
            validate_expert_map(self.expert_map)
        except ValueError as exc:
            raise ValueError(f"expert_map: {exc}") from exc

    def to_dict(self) -> dict:
        return {"schema": 1, **model.record_to_dict(self)}

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
            raise ValueError(f"schema: unsupported config schema {schema!r}")
        doc.pop("synth", None)  # generator section, consumed by the synth command
        tracker = doc.get("tracker")
        if isinstance(tracker, dict):
            doc["tracker"] = {k: v for k, v in tracker.items() if k != "keypoint_drop_threshold"}
        return model.record_from_dict(cls, doc)


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """Tracked output and the pair table of it against ground truth.

    ``ap`` and ``mot`` are scored from one matching of the table the first
    time either is read, and kept; that read raises what scoring raises
    (ground truth without track ids, or with no present keypoint).
    """

    tracked: tuple[Sequence, ...]
    table: PairTable = field(compare=False, repr=False)
    _reports: tuple[ApReport, MotReport] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def ap(self) -> ApReport:
        return self._scored()[0]

    @property
    def mot(self) -> MotReport:
        return self._scored()[1]

    def _scored(self) -> tuple[ApReport, MotReport]:
        if self._reports is None:
            matching = [self.table.match()]
            reports = (ap_reports(matching)[0], mot_reports(matching)[0])
            object.__setattr__(self, "_reports", reports)
        return self._reports


def _detect_sequence(
    det: Sequence, det_b: Sequence | None, config: PipelineConfig, routes: np.ndarray | None
) -> Sequence:
    """Candidate pruning, box inference and NMS for every frame of ``det``, plus fusion.

    Per frame, poses below the candidate threshold are dropped, then poses
    with no inferable box (with a warning), and greedy NMS keeps the rest in
    visit order.  With a second model, each kept pose is fused with the pose
    at its input index (``routes`` from :func:`~topdown.ensemble.route_codes`),
    or passes through with a warning when that pose has no inferable box.
    Boxes are inferred for the whole document in one array pass, and the
    rows of the frames before the first pose-count mismatch are fused in one
    more; fusion cannot fail, so one walk over the frames then raises, warns
    and picks the kept rows in frame order.  The result is held as columns:
    the kept rows, each boxed.
    """
    c = det.columns()
    scores = c.det_score
    corners, boxed = filled_corners(c.box, c.boxed, c.xy, c.present, config.bbox_enlarge)
    boxes, boxed = corners.tolist(), boxed.tolist()
    aligned = len(c.counts)  # the frames before the first pose-count mismatch
    if det_b is not None:
        b = det_b.columns()
        aligned = next((k for k, n in enumerate(c.counts) if n != b.counts[k]), aligned)
        # these frames hold as many poses on both sides, so one row selects a pair
        n = sum(c.counts[:aligned])
        corners_b, boxed_b = filled_corners(
            b.box[:n], b.boxed[:n], b.xy[:n], b.present[:n], config.bbox_enlarge
        )
        fused = fused_arrays(
            (c.xy[:n], c.confidence[:n], c.present[:n]),
            (b.xy[:n], b.confidence[:n], b.present[:n]),
            routes,
        )
        fused_boxes = midpoint(corners[:n], corners_b)
        boxed_b = boxed_b.tolist()
    keep: list[int] = []  # the kept rows, frame by frame in visit order
    counts = []
    start = 0
    for fi, (index, count) in enumerate(zip(c.index, c.counts)):
        if fi == aligned:
            raise PipelineContractError(
                f"frame {index}: second model has {b.counts[fi]} poses, expected {count}"
            )
        candidates = []
        for i in range(start, start + count):
            if scores[i] < config.candidate_drop_threshold:
                continue
            if boxed[i]:
                candidates.append(i)
            else:
                log.warning("frame %d: dropping pose %d with no inferable box", index, i - start)
        kept = [
            candidates[k]
            for k in nms_indices(
                [boxes[i] for i in candidates],
                [scores[i] for i in candidates],
                config.nms_iou_threshold,
            )
        ]
        if det_b is not None:
            for s in kept:
                if not boxed_b[s]:
                    log.warning(
                        "frame %d: second model pose %d has no box; using first model",
                        index,
                        s - start,
                    )
        keep += kept
        counts.append(len(kept))
        start += count
    rows = np.array(keep, dtype=np.intp)
    xy, confidence, present = c.xy[rows], c.confidence[rows], c.present[rows]
    box = corners[rows]
    det_score = [scores[s] for s in keep]
    track_id = [c.track_id[s] for s in keep]
    if det_b is not None:
        # every kept row lies before the first mismatch, so it has a pair
        pairs = [k for k, s in enumerate(keep) if boxed_b[s]]
        for k in pairs:
            det_score[k] = 0.5 * (scores[keep[k]] + b.det_score[keep[k]])
            track_id[k] = None
        to, of = np.array(pairs, dtype=np.intp), rows[pairs]
        xy[to], confidence[to], present[to] = (array[of] for array in fused)
        box[to] = fused_boxes[of]
    columns = Columns(
        c.index,
        c.width,
        c.height,
        tuple(counts),
        xy,
        confidence,
        present,
        det_score,
        box,
        np.ones(len(keep), dtype=bool),
        track_id,
    )
    return Sequence.of_columns(det.name, columns)


def run_pipeline(
    det_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    config: PipelineConfig = PipelineConfig(),
    det_b_seqs: list[Sequence] | None = None,
) -> PipelineResult:
    """Run detection post-processing and tracking, and pair the output with ground truth.

    The reports are scored when first read (see :class:`PipelineResult`).
    """
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
    routes = None if det_b_seqs is None else route_codes(config.ensemble_mode, config.expert_map)
    tracked = []
    for det, det_b in pairs:
        processed = _detect_sequence(det, det_b, config, routes)
        tracked_seq = track_sequence(processed, config.tracker)
        tracked.append(
            prune_sequence_keypoints(tracked_seq, config.keypoint_drop_threshold)
        )
    return PipelineResult(tuple(tracked), metrics.pair_table(tracked, gt_seqs, config.pckh))


def _frame_boxes(seq: Sequence, enlarge: float) -> list[list[tuple[float, BBox]]]:
    """Each frame's ``(detection score, box)`` of every pose that has or gets a box."""
    c = seq.columns()
    corners, ok = filled_corners(c.box, c.boxed, c.xy, c.present, enlarge)
    boxes = iter([
        (score, BBox(*row)) if boxed else None
        for score, row, boxed in zip(c.det_score, corners.tolist(), ok.tolist())
    ])
    return [[box for box in islice(boxes, count) if box is not None] for count in c.counts]


def _detection_prs(
    det_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    thresholds: list[float],
    config: PipelineConfig,
) -> list[PRResult]:
    """:func:`detection_pr_at` at each threshold, from one box inference per sequence."""
    frames = []
    for det, gt in pair_by_name(det_seqs, gt_seqs, "ground truth", PipelineContractError):
        frames += zip(_frame_boxes(det, config.bbox_enlarge), _frame_boxes(gt, config.bbox_enlarge))

    def at(threshold: float) -> PRResult:
        prs = [
            detection_pr(
                [box for score, box in det_boxes if score >= threshold],
                [score for score, _ in det_boxes if score >= threshold],
                [box for _, box in gt_boxes],
                config.detection_iou_threshold,
            )
            for det_boxes, gt_boxes in frames
        ]
        return PRResult(sum(r.tp for r in prs), sum(r.fp for r in prs), sum(r.fn for r in prs))

    return [at(threshold) for threshold in thresholds]


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
    return _detection_prs(det_seqs, gt_seqs, [threshold], config)[0]


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One sweep point; exactly one of the metric pairs is populated."""

    value: float
    ap_total: float | None = None
    mota_total: float | None = None
    precision: float | None = None
    recall: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in model.record_to_dict(self).items() if v is not None}


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
    A keypoint-axis sweep runs :func:`run_pipeline` once, with nothing
    pruned, matches its pair table once per value, counting a tracked
    keypoint as present when :func:`~topdown.tracker.kept_keypoints` keeps
    it at the value (the rule pruning applies), and scores all the
    matchings in one pass.  That gives the rows of a full run per value:
    pruning acts after tracking, and nothing in the table but prediction
    presence depends on it.
    """
    if axis not in SWEEP_AXES:
        raise ContractError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if len(values) < 2:
        raise ContractError(f"need at least 2 sweep values, got {len(values)}")
    for value in values:
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ContractError(f"sweep values must be finite and within [0, 1], got {value!r}")
    rows = []
    if axis == "bbox_threshold":
        for value, pr in zip(values, _detection_prs(det_seqs, gt_seqs, values, config)):
            rows.append(
                SweepRow(value=value, precision=100.0 * pr.precision, recall=100.0 * pr.recall)
            )
        return rows
    base = run_pipeline(det_seqs, gt_seqs, replace(config, keypoint_drop_threshold=0.0))
    matchings = [base.table.match(value) for value in values]
    for value, ap, mot in zip(values, ap_reports(matchings), mot_reports(matchings)):
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
