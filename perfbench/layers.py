"""Per-layer metrics, derived from one traced operation.

Each metric names the probes it reads.  When one of them is absent (a later
change moved or deleted the function), or the derivation itself fails, the
metric is reported as absent with the reason instead of breaking the run.

Which end-to-end metric each layer should move, and on which workload, is
recorded in ``README.md`` next to this file.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracle import detect_replay
from tracing import OP_LAYERS, OpTrace

CLI = "topdown.cli.main"
LOAD = "topdown.model.load_sequence"
SAVE = "topdown.model.save_predictions"
RUN = "topdown.pipeline.run_pipeline"
FUSE = ("topdown.ensemble.fuse_average", "topdown.ensemble.fuse_expert")
TRACK = "topdown.tracker.track_sequence"
ASSIGN = "topdown.tracker.solve_assignment"
PRUNE = "topdown.tracker.prune_sequence_keypoints"
AP = "topdown.metrics.evaluate_ap"
MOT = "topdown.metrics.evaluate_mot"
MATCH = "topdown.metrics.match_poses_frame"
BOX = "topdown.geometry.bbox_from_keypoints"
IOU = "topdown.geometry.iou"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    needs: tuple[str, ...]
    derive: Callable[[OpTrace], float]


def _poses(seqs) -> int:
    return sum(len(frame.poses) for seq in seqs for frame in seq.frames)


def _present(seq) -> int:
    return sum(kp.present for frame in seq.frames for pose in frame.poses for kp in pose.keypoints)


def _first_arg(op: OpTrace, span):
    return next(iter(op.bind(span).arguments.values()))


def _detection(op: OpTrace) -> dict[str, int]:
    """Candidate accounting of every ``run_pipeline`` call in the operation.

    ``in`` and ``kept`` are read from the call's input and output; the drops
    come from replaying the detection stage with ``geometry.nms_boxes``, so
    ``in == kept + dropped`` holds only when the pipeline agrees with it.
    """
    if "detection" not in op.cache:
        totals = dict.fromkeys(("in", "kept", "threshold", "no_box", "nms"), 0)
        for span in op.named(RUN):
            bound = op.bind(span)
            det_seqs = bound.arguments["det_seqs"]
            config = bound.arguments["config"]
            totals["in"] += _poses(det_seqs)
            totals["kept"] += _poses(span.result.tracked)
            for seq in det_seqs:
                for frame in seq.frames:
                    replay = detect_replay(
                        frame.poses,
                        config.candidate_drop_threshold,
                        config.bbox_enlarge,
                        config.nms_iou_threshold,
                    )
                    totals["threshold"] += replay.below_threshold
                    totals["no_box"] += replay.no_box
                    totals["nms"] += replay.suppressed
        op.cache["detection"] = totals
    return op.cache["detection"]


def _dropped(op: OpTrace) -> int:
    d = _detection(op)
    return d["threshold"] + d["no_box"] + d["nms"]


def _layer_self(layer: str) -> LayerMetric:
    return LayerMetric(f"{layer}.self_s", "s", (), lambda op: op.layer_self_times()[layer])


PER_LAYER: tuple[LayerMetric, ...] = (
    # model: JSON parse/validate and serialise
    LayerMetric("model.load_s", "s", (LOAD,), lambda op: op.inclusive(LOAD)),
    LayerMetric("model.save_s", "s", (SAVE,), lambda op: op.inclusive(SAVE)),
    LayerMetric(
        "model.bytes_in", "bytes", (LOAD,),
        lambda op: sum(len(_first_arg(op, s)) for s in op.named(LOAD)),
    ),
    LayerMetric(
        "model.poses_loaded", "count", (LOAD,),
        lambda op: sum(_poses([s.result]) for s in op.named(LOAD)),
    ),
    # geometry: box inference, IoU, candidate pruning + NMS
    LayerMetric("geometry.box_infer_calls", "count", (BOX,), lambda op: op.calls[BOX]),
    LayerMetric("geometry.iou_calls", "count", (IOU,), lambda op: op.calls[IOU]),
    LayerMetric("geometry.candidates_in", "count", (RUN,), lambda op: _detection(op)["in"]),
    LayerMetric("geometry.candidates_kept", "count", (RUN,), lambda op: _detection(op)["kept"]),
    LayerMetric("geometry.candidates_dropped", "count", (RUN,), _dropped),
    LayerMetric(
        "geometry.dropped_threshold", "count", (RUN,), lambda op: _detection(op)["threshold"]
    ),
    LayerMetric("geometry.dropped_no_box", "count", (RUN,), lambda op: _detection(op)["no_box"]),
    LayerMetric("geometry.dropped_nms", "count", (RUN,), lambda op: _detection(op)["nms"]),
    LayerMetric(
        "geometry.keep_ratio", "ratio", (RUN,),
        lambda op: _detection(op)["kept"] / _detection(op)["in"],
    ),
    # ensemble: two-model fusion
    LayerMetric("ensemble.fuse_s", "s", FUSE, lambda op: op.inclusive(*FUSE)),
    LayerMetric(
        "ensemble.fused_poses", "count", FUSE, lambda op: sum(len(op.named(q)) for q in FUSE)
    ),
    LayerMetric("ensemble.fallbacks", "count", (), lambda op: op.fallbacks),
    # tracker: association, assignment, keypoint pruning
    LayerMetric("tracker.track_s", "s", (TRACK,), lambda op: op.inclusive(TRACK)),
    LayerMetric("tracker.assign_s", "s", (ASSIGN,), lambda op: op.inclusive(ASSIGN)),
    LayerMetric("tracker.assign_calls", "count", (ASSIGN,), lambda op: len(op.named(ASSIGN))),
    LayerMetric(
        "tracker.pairs_scored", "count", (ASSIGN,),
        lambda op: sum(int(np.size(_first_arg(op, s))) for s in op.named(ASSIGN)),
    ),
    LayerMetric(
        "tracker.tracks_created", "count", (TRACK,),
        lambda op: sum(
            len({p.track_id for f in s.result.frames for p in f.poses}) for s in op.named(TRACK)
        ),
    ),
    LayerMetric("tracker.prune_s", "s", (PRUNE,), lambda op: op.inclusive(PRUNE)),
    LayerMetric(
        "tracker.keypoints_pruned", "count", (PRUNE,),
        lambda op: sum(_present(_first_arg(op, s)) - _present(s.result) for s in op.named(PRUNE)),
    ),
    # metrics: AP and MOT scoring, per-frame pose matching
    LayerMetric("metrics.ap_s", "s", (AP,), lambda op: op.inclusive(AP)),
    LayerMetric("metrics.mot_s", "s", (MOT,), lambda op: op.inclusive(MOT)),
    LayerMetric("metrics.match_s", "s", (MATCH,), lambda op: op.inclusive(MATCH)),
    LayerMetric("metrics.match_calls", "count", (MATCH,), lambda op: len(op.named(MATCH))),
    LayerMetric(
        "metrics.pose_matches", "count", (MATCH,),
        lambda op: sum(len(s.result) for s in op.named(MATCH)),
    ),
    # pipeline: stage wiring; its self time is detection (pruning, boxes, NMS)
    LayerMetric("pipeline.run_s", "s", (RUN,), lambda op: op.inclusive(RUN)),
    LayerMetric("pipeline.detect_s", "s", (RUN,), lambda op: op.self_time(RUN)),
    LayerMetric("pipeline.track_calls", "count", (TRACK,), lambda op: len(op.named(TRACK))),
    # cli: argparse, config, file reads and report writes
    LayerMetric("cli.self_s", "s", (CLI,), lambda op: op.self_time(CLI)),
    *(_layer_self(layer) for layer in OP_LAYERS if layer != "cli"),
)


def derive(op: OpTrace) -> dict[str, float | str]:
    """Value of every per-layer metric for one operation, or the reason it is absent."""
    out: dict[str, float | str] = {}
    for metric in PER_LAYER:
        missing = [q for q in metric.needs if q in op.absent]
        if missing:
            out[metric.name] = f"probe absent: {op.absent[missing[0]]}"
            continue
        try:
            out[metric.name] = float(metric.derive(op))
        except Exception as exc:  # a refactor changed what the probe returns
            out[metric.name] = f"derivation failed: {type(exc).__name__}: {exc}"
    return out
