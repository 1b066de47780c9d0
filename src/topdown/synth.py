"""Deterministic synthetic sequence generator with provenance.

Persons follow lane-separated trajectories with a fixed 15-joint stick-figure
template (see ``data/skeleton.json``).  Detections are the ground-truth poses
with coordinate jitter and per-group confidence draws, poses dropped at
``p_miss``, and low-confidence false poses injected at ``fp_rate``.  Every
detection records its originating ground-truth id (or ``"fp"``), which makes
exact expected counts computable without going through the scoring path; the
generator is the oracle the rest of the test suite leans on.

False-pose centers are rejection-sampled away from live persons so the
provenance counts stay exact: a false pose can then never be the best match
for a real person.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Mapping

import numpy as np

from .geometry import box_error, infer_corners
from .model import (
    GROUPS,
    JOINTS,
    BBox,
    ContractError,
    EvalGroup,
    Frame,
    Joint,
    Keypoints,
    Pose,
    Sequence,
    joint_group,
    record_from_dict,
    record_to_dict,
    require_int,
    require_real,
)

_SKELETON_PATH = Path(__file__).parent / "data" / "skeleton.json"

Provenance = tuple[tuple[int | Literal["fp"], ...], ...]


def load_skeleton_template() -> dict[Joint, tuple[float, float]]:
    """Unit-height joint offsets around the person anchor."""
    doc = json.loads(_SKELETON_PATH.read_text())
    offsets = doc["offsets"]
    return {j: (float(offsets[j.value][0]), float(offsets[j.value][1])) for j in JOINTS}


@dataclass(frozen=True, slots=True)
class GroupConfidence:
    """Gaussian confidence model for one joint group, clamped to [0, 1]."""

    mean: float
    spread: float

    def __post_init__(self) -> None:
        require_real(self.mean, "mean")
        require_real(self.spread, "spread")
        if self.spread < 0.0:
            raise ValueError(f"spread must be non-negative, got {self.spread!r}")

    def survival(self, threshold: float) -> float:
        """P(confidence >= threshold) under the clamped model."""
        if self.spread == 0.0:
            return 1.0 if self.mean >= threshold else 0.0
        z = (threshold - self.mean) / self.spread
        return 0.5 * math.erfc(z / math.sqrt(2.0))


# Group means fitted so that pruning at 0.70 lands near the reference
# retention pattern (shoulders easiest, ankles hardest, ~67% kept overall).
DEFAULT_GROUP_CONFIDENCE: dict[EvalGroup, GroupConfidence] = {
    EvalGroup.SHOULDER: GroupConfidence(0.838, 0.15),
    EvalGroup.HEAD: GroupConfidence(0.803, 0.15),
    EvalGroup.ELBOW: GroupConfidence(0.771, 0.15),
    EvalGroup.HIP: GroupConfidence(0.762, 0.15),
    EvalGroup.KNEE: GroupConfidence(0.744, 0.15),
    EvalGroup.WRIST: GroupConfidence(0.733, 0.15),
    EvalGroup.ANKLE: GroupConfidence(0.717, 0.15),
}


@dataclass(frozen=True, slots=True)
class SynthSpec:
    """Everything the generator needs; output is a pure function of this."""

    n_persons: int = 3
    n_frames: int = 40
    width: int = 640
    height: int = 480
    trajectory: str = "linear"
    speed: float = 2.0
    scale: float = 100.0
    confidence: Mapping[EvalGroup, GroupConfidence] = field(
        default_factory=lambda: dict(DEFAULT_GROUP_CONFIDENCE)
    )
    jitter: float = 0.0
    p_miss: float = 0.0
    fp_rate: float = 0.0
    fp_confidence: GroupConfidence = GroupConfidence(0.5, 0.12)
    fp_clearance: float = 1.0
    occlusions: tuple[tuple[int, int, int], ...] = ()
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self) -> None:
        for name in ("n_persons", "n_frames", "width", "height", "seed"):
            require_int(getattr(self, name), name)
        # the generator does float arithmetic with the sizes and counts too
        for name in ("n_persons", "n_frames", "width", "height", "speed", "scale", "jitter",
                     "p_miss", "fp_rate", "fp_clearance"):
            require_real(getattr(self, name), name)
        for name in ("trajectory", "name"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        for i, occlusion in enumerate(self.occlusions):
            if len(occlusion) != 3:
                raise ValueError(f"occlusions[{i}] must be (person, start, end), got {occlusion!r}")
            for k, value in enumerate(occlusion):
                require_int(value, f"occlusions[{i}][{k}]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_persons < 0:
            raise ValueError("n_persons must be non-negative")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"width and height must be positive, got {self.width} x {self.height}")
        if self.trajectory not in ("linear", "sinusoidal"):
            raise ValueError(f"trajectory must be linear or sinusoidal, got {self.trajectory!r}")
        if not 0.0 <= self.p_miss <= 1.0:
            raise ValueError("p_miss must be within [0, 1]")
        if self.fp_rate < 0.0:
            raise ValueError("fp_rate must be non-negative")
        if self.jitter < 0.0:
            raise ValueError("jitter must be non-negative")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        missing = [g.value for g in GROUPS if g not in self.confidence]
        if missing:
            raise ValueError(f"confidence must cover every group, missing {missing}")

    def to_dict(self) -> dict:
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SynthSpec":
        return record_from_dict(cls, doc)


def noiseless_spec(**overrides) -> SynthSpec:
    """Spec with zero noise everywhere: detections equal ground truth minus ids."""
    noiseless_confidence = {g: GroupConfidence(1.0, 0.0) for g in GROUPS}
    base = dict(
        confidence=noiseless_confidence,
        jitter=0.0,
        p_miss=0.0,
        fp_rate=0.0,
    )
    base.update(overrides)
    return SynthSpec(**base)


def calibrated_benchmark_spec(
    n_persons: int = 4, n_frames: int = 120, seed: int = 7, **overrides
) -> SynthSpec:
    """The corrupted benchmark used for threshold-sensitivity reproductions."""
    base = dict(
        n_persons=n_persons,
        n_frames=n_frames,
        width=800,
        height=600,
        jitter=1.0,
        p_miss=0.05,
        fp_rate=2.0,
        fp_confidence=GroupConfidence(0.5, 0.12),
        seed=seed,
        name="calibrated-benchmark",
    )
    base.update(overrides)
    return SynthSpec(**base)


@dataclass(frozen=True, slots=True)
class SynthOutput:
    """Ground truth with ids, raw detections without ids, and their provenance."""

    gt: Sequence
    det: Sequence
    provenance: Provenance

    def provenance_to_json(self) -> str:
        return json.dumps(
            {
                "name": self.det.name,
                "frames": [
                    {"index": frame.index, "sources": list(sources)}
                    for frame, sources in zip(self.det.frames, self.provenance)
                ],
            },
            indent=2,
        )


@dataclass(frozen=True, slots=True)
class _Motion:
    x0: float
    vx: float
    lane: float
    vy: float
    band: float
    amplitude: float
    period: float
    phase: float


def _reflect(value: float, lo: float, hi: float) -> float:
    span = hi - lo
    if span <= 0.0:
        return lo
    m = (value - lo) % (2.0 * span)
    return lo + (m if m <= span else 2.0 * span - m)


def _plan_motion(spec: SynthSpec, rng: np.random.Generator) -> list[_Motion]:
    margin_x = 0.30 * spec.scale
    margin_y = 0.55 * spec.scale
    usable_h = max(spec.height - 2.0 * margin_y, 1.0)
    gap = usable_h / max(spec.n_persons, 1)
    motions = []
    for i in range(spec.n_persons):
        lane = margin_y + (i + 0.5) * gap
        x0 = float(rng.uniform(margin_x, max(spec.width - margin_x, margin_x + 1.0)))
        direction = 1.0 if rng.integers(0, 2) == 1 else -1.0
        vx = direction * spec.speed * float(rng.uniform(0.6, 1.4))
        vy = spec.speed * float(rng.uniform(-0.15, 0.15))
        motions.append(
            _Motion(
                x0=x0,
                vx=vx,
                lane=lane,
                vy=vy,
                band=0.3 * gap,
                amplitude=0.3 * gap,
                period=float(rng.uniform(20.0, 40.0)),
                phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
        )
    return motions


def _position(spec: SynthSpec, motion: _Motion, t: int) -> tuple[float, float]:
    margin_x = 0.30 * spec.scale
    x = _reflect(motion.x0 + motion.vx * t, margin_x, max(spec.width - margin_x, margin_x))
    if spec.trajectory == "sinusoidal":
        y = motion.lane + motion.amplitude * math.sin(
            2.0 * math.pi * t / motion.period + motion.phase
        )
    else:
        y = _reflect(
            motion.lane + motion.vy * t, motion.lane - motion.band, motion.lane + motion.band
        )
    return x, y


_ALL_PRESENT = np.ones(len(JOINTS), dtype=bool)


# a pose as drawn: (the frame's pose list it goes to, xy, confidences, det_score, track_id)
_Drawn = tuple[list[Pose], np.ndarray, np.ndarray, float, int | None]


def _build(drawn: list[_Drawn]) -> None:
    """Build each drawn pose with its inferred box and append it to its frame's poses.

    The boxes of all poses are inferred in one pass; errors come in drawing
    order, a pose's ``Keypoints`` error before its box error.
    """
    corners, ok = infer_corners(
        np.array([d[1] for d in drawn]).reshape(len(drawn), len(JOINTS), 2),
        np.ones((len(drawn), len(JOINTS)), dtype=bool),
    )
    for (poses, xy, confidences, det_score, track_id), row, boxed in zip(
        drawn, corners.tolist(), ok.tolist()
    ):
        try:
            keypoints = Keypoints(xy, confidences, _ALL_PRESENT)
        except ValueError as exc:  # a scale or jitter that carries a pose beyond the float range
            raise ContractError(str(exc)) from exc
        if not boxed:
            raise box_error(xy, _ALL_PRESENT, row)
        poses.append(Pose(keypoints, det_score, BBox(*row), track_id))


def _occluded(spec: SynthSpec, person: int, frame: int) -> bool:
    return any(p == person and start <= frame < end for p, start, end in spec.occlusions)


def generate(spec: SynthSpec) -> SynthOutput:
    """Produce aligned ground-truth and detection sequences, deterministically."""
    rng = np.random.default_rng(spec.seed)
    template = np.array(list(load_skeleton_template().values()))
    motions = _plan_motion(spec, rng)
    conf_means = np.array(
        [spec.confidence[joint_group(j)].mean for j in JOINTS], dtype=float
    )
    conf_spreads = np.array(
        [spec.confidence[joint_group(j)].spread for j in JOINTS], dtype=float
    )
    zero_offsets = np.zeros((len(JOINTS), 2))
    ones = np.ones(len(JOINTS))
    gt_frames: list[list[Pose]] = []
    det_frames: list[list[Pose]] = []
    drawn: list[_Drawn] = []
    provenance: list[tuple[int | Literal["fp"], ...]] = []
    margin_x = 0.30 * spec.scale
    margin_y = 0.55 * spec.scale
    for f in range(spec.n_frames):
        gt_poses: list[Pose] = []
        det_poses: list[Pose] = []
        sources: list[int | Literal["fp"]] = []
        live_centers: list[tuple[float, float]] = []
        for person in range(spec.n_persons):
            if _occluded(spec, person, f):
                continue
            center = _position(spec, motions[person], f)
            live_centers.append(center)
            placed = np.array(center) + template * spec.scale
            drawn.append((gt_poses, placed + zero_offsets, ones, 1.0, person))
            if rng.uniform() < spec.p_miss:
                continue
            offsets = rng.normal(0.0, spec.jitter, size=(len(JOINTS), 2))
            confidences = np.clip(rng.normal(conf_means, conf_spreads), 0.0, 1.0)
            drawn.append((det_poses, placed + offsets, confidences, float(np.mean(confidences)), None))
            sources.append(person)
        try:
            n_false = int(rng.poisson(spec.fp_rate))
        except ValueError as exc:  # a rate too large for numpy to draw from
            raise ContractError(f"fp_rate {spec.fp_rate!r}: {exc}") from exc
        for _ in range(n_false):
            clearance = spec.fp_clearance * spec.scale
            center = None
            for _attempt in range(200):
                candidate = (
                    float(rng.uniform(margin_x, max(spec.width - margin_x, margin_x + 1.0))),
                    float(rng.uniform(margin_y, max(spec.height - margin_y, margin_y + 1.0))),
                )
                if all(
                    math.hypot(candidate[0] - cx, candidate[1] - cy) >= clearance
                    for cx, cy in live_centers
                ):
                    center = candidate
                    break
            if center is None:
                center = candidate
            offsets = rng.normal(0.0, spec.jitter, size=(len(JOINTS), 2))
            confidences = np.clip(
                rng.normal(
                    np.full(len(JOINTS), spec.fp_confidence.mean),
                    np.full(len(JOINTS), spec.fp_confidence.spread),
                ),
                0.0,
                1.0,
            )
            xy = np.array(center) + template * spec.scale + offsets
            drawn.append((det_poses, xy, confidences, float(np.mean(confidences)), None))
            sources.append("fp")
        gt_frames.append(gt_poses)
        det_frames.append(det_poses)
        provenance.append(tuple(sources))
    _build(drawn)
    size = (spec.width, spec.height)
    return SynthOutput(
        gt=Sequence(spec.name, tuple(Frame(f, *size, tuple(p)) for f, p in enumerate(gt_frames))),
        det=Sequence(spec.name, tuple(Frame(f, *size, tuple(p)) for f, p in enumerate(det_frames))),
        provenance=tuple(provenance),
    )


@dataclass(frozen=True, slots=True)
class AnalyticCounts:
    """Expected keypoint-level counts derived purely from provenance."""

    tp: int
    fp: int
    fn: int


def analytic_counts(out: SynthOutput, drop_threshold: float = 0.0) -> AnalyticCounts:
    """Exact keypoint counts after pruning at ``drop_threshold``.

    Independent of the scoring path: a detection keypoint surviving the
    threshold counts toward its originating person's joints (true positive)
    or, for false poses, as a false positive; everything else a ground-truth
    pose presents is a miss.  Matches the scoring-path counts whenever jitter
    is far below the correctness radius and persons are well separated.
    """
    tp = fp = fn = 0
    for gt_frame, det_frame, sources in zip(out.gt.frames, out.det.frames, out.provenance):
        covered: dict[int, np.ndarray] = {}
        gt_by_id = {pose.track_id: pose for pose in gt_frame.poses}
        for pose, source in zip(det_frame.poses, sources):
            surviving = pose.present & (pose.confidence >= drop_threshold)
            if source == "fp":
                fp += int(surviving.sum())
                continue
            gt_present = gt_by_id[source].present
            covered[source] = surviving & gt_present
            fp += int((surviving & ~gt_present).sum())
        for pose in gt_frame.poses:
            got = covered.get(pose.track_id)
            n_got = 0 if got is None else int(got.sum())
            tp += n_got
            fn += int(pose.present.sum()) - n_got
    return AnalyticCounts(tp=tp, fp=fp, fn=fn)
