"""Per-joint-group scoring: average precision and CLEAR-style tracking metrics.

The correctness criterion is head-size relative: a predicted keypoint is
correct when it lies within ``factor * head_size`` of its ground-truth
location, with the head size measured between the top-head and bottom-head
keypoints.  Ground-truth poses without both head keypoints fall back to 0.3x
the box diagonal; this keypoint-distance surrogate (annotated head boxes are
not part of the data model) and every other constant live in
:class:`PckhThreshold`, so the protocol is complete, self-consistent and
reproducible with nothing but this module.

Reports expose raw counts next to the derived percentages so every number can
be recomputed from its parts.

Every score is read from one :class:`PairTable`, built once per call by
:func:`pair_table` over all aligned sequences (ordered by name):

- the keypoint columns (:class:`~topdown.model.Columns`) of every predicted
  and every ground-truth pose, numbered frame by frame, whose confidence and
  presence the table keeps, with the frame and track id of each pose;
- the correctness radius of each ground-truth pose, the boxes of head-less
  ones inferred in one pass;
- every same-frame (prediction, ground truth) pair as flat index arrays,
  with one ``(pairs, 15)`` array telling which joints lie within the radius
  and one holding the MOTP term ``1 - d / r`` of those joints.

:meth:`PairTable.match` assigns each frame's poses and returns a
:class:`Matching`.  :func:`ap_reports` and :func:`mot_reports` score a list
of matchings of one table in one array pass each: AP records, MOT counts and
id switches of matching ``v`` sit in segments offset by ``v``, with
per-joint tallies mapped to groups through one fixed joint -> group index
table; one matching goes through the same code.  A predicted keypoint counts
as present when :func:`topdown.tracker.kept_keypoints`, the rule pruning
applies, keeps it, so one table scores every value of a keypoint-threshold
sweep without building pruned sequences.  AP and MOT stay two functions
because AP needs no track ids.

The reports are the same bytes as the plain per-keypoint loops they
replace, so the table keeps these rules:

- **Hit test.** ``np.hypot`` can differ from ``math.hypot`` in the last
  bit, so every cell within a relative ``1e-9`` of its radius (or below
  it) is recomputed with ``math.hypot`` before it is compared.
- **MOTP.** Terms ``1 - d / r`` use the ``math.hypot`` distance and are
  added one ``+=`` at a time in the loop order: sequences by name, frames,
  matched pairs by prediction index, joints.
- **AP order.** Records keep insertion order (per frame: matched
  predictions by index, then unmatched ones), and a stable sort on
  ``-confidence`` breaks ties by it.  The weighted sum is the built-in
  ``sum`` in rank order.
- **Lazy radii.** A radius, and the "cannot derive a head size" error, is
  computed only for ground truth in frames that have a prediction.
- **Id switches** compare each hit with the previous hit of the same
  (sequence, ground-truth track, joint) in loop order, so two ground-truth
  poses of one frame that share a track id are taken in prediction order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import box_error, filled_corners
from .model import (
    GROUPS,
    JOINTS,
    Columns,
    ContractError,
    EvalGroup,
    Frame,
    Joint,
    Pose,
    Sequence,
    _box_rows,
    joint_group,
    pair_by_name,
    record_to_dict,
    require_real,
)
from .tracker import kept_keypoints

GROUP_COLUMNS: tuple[str, ...] = tuple(g.value for g in GROUPS) + ("Total",)

_N = len(JOINTS)
# the fixed joint -> group index table: one-hot rows, and the members of each group
_GROUP_ONEHOT = np.array(
    [[joint_group(j) is g for g in GROUPS] for j in JOINTS], dtype=np.int64
)
_GROUP_MEMBERS: tuple[tuple[int, ...], ...] = tuple(
    tuple(np.flatnonzero(_GROUP_ONEHOT[:, gi]).tolist()) for gi in range(len(GROUPS))
)
_TOP = Joint.HEAD_TOP.index
_BOTTOM = Joint.HEAD_BOTTOM.index
# np.hypot is within an ulp or two of math.hypot; cells this close to their
# radius (or below it) are decided by math.hypot.  The table also adds 1e-300
# so that the margin does not vanish for a subnormal radius.
_SLACK = 1e-9


class EvaluationError(ContractError):
    """Inputs violate an evaluation precondition."""


@dataclass(frozen=True, slots=True)
class PckhThreshold:
    """Distance-normalization constants for the correctness criterion."""

    factor: float = 0.5
    min_head_size: float = 1.0
    bbox_diag_fraction: float = 0.3

    def __post_init__(self) -> None:
        for name in ("factor", "min_head_size", "bbox_diag_fraction"):
            require_real(getattr(self, name), name)
        if self.factor <= 0.0:
            raise ValueError(f"factor must be positive, got {self.factor!r}")
        if self.min_head_size <= 0.0:
            raise ValueError(f"min_head_size must be positive, got {self.min_head_size!r}")
        if self.factor * self.min_head_size == 0.0:  # every radius is at least this product
            raise ValueError(
                f"factor * min_head_size must not underflow to 0, "
                f"got {self.factor!r} * {self.min_head_size!r}"
            )
        if self.bbox_diag_fraction < 0.0:
            raise ValueError(
                f"bbox_diag_fraction must be non-negative, got {self.bbox_diag_fraction!r}"
            )


def _head_sizes(x: np.ndarray, y: np.ndarray, t: PckhThreshold) -> np.ndarray:
    """The ``math.hypot`` head-keypoint distance of each ``(m, 15)`` row, at least ``min_head_size``."""
    with np.errstate(over="ignore"):  # an offset beyond the float range is inf, as in Python
        dx = x[:, _TOP] - x[:, _BOTTOM]
        dy = y[:, _TOP] - y[:, _BOTTOM]
    sizes = map(math.hypot, dx.tolist(), dy.tolist())
    return np.maximum(np.fromiter(sizes, float, len(x)), t.min_head_size)


def head_size(pose: Pose, t: PckhThreshold = PckhThreshold()) -> float:
    """Distance between the head keypoints, clamped below by ``min_head_size``."""
    if not (pose.present[_TOP] and pose.present[_BOTTOM]):
        raise EvaluationError("pose is missing a head keypoint")
    xy = pose.xy[None]
    return float(_head_sizes(xy[..., 0], xy[..., 1], t)[0])


def reference_head_size(pose: Pose, t: PckhThreshold = PckhThreshold()) -> float:
    """Head size with the documented fallback chain: :func:`_reference_head_sizes` on one pose.

    Order: head keypoints, then ``bbox_diag_fraction`` of the box diagonal
    (inferring the box from keypoints when absent).
    """
    return float(_reference_head_sizes([pose], pose.xy[None], pose.present[None], t)[0])


def _reference_head_sizes(
    poses: list[Pose], xy: np.ndarray, present: np.ndarray, t: PckhThreshold
) -> np.ndarray:
    """Reference head size of each of ``poses``; ``xy`` / ``present`` are their keypoint arrays."""
    return _reference_sizes(*_box_rows(poses), xy, present, t)


def _reference_sizes(
    box: np.ndarray, boxed: np.ndarray, xy: np.ndarray, present: np.ndarray, t: PckhThreshold
) -> np.ndarray:
    """Reference head size of each row of box and keypoint columns.

    Head keypoints give :func:`_head_sizes`; any other row gets
    ``bbox_diag_fraction`` of its box's ``math.hypot`` diagonal (the boxes
    of all such rows from one :func:`filled_corners` pass), at least
    ``min_head_size``.  The first of them with no inferable box raises.
    """
    sizes = np.empty(len(xy))
    head = present[:, _TOP] & present[:, _BOTTOM]
    sizes[head] = _head_sizes(xy[head, :, 0], xy[head, :, 1], t)
    rest = np.flatnonzero(~head)
    corners, ok = filled_corners(box[rest], boxed[rest], xy[rest], present[rest])
    if not ok.all():
        k = ok.tolist().index(False)
        raise EvaluationError(
            "cannot derive a head size: no head keypoints and no inferable box"
        ) from box_error(xy[rest[k]], present[rest[k]], corners[k])
    width, height = (corners[:, 2:] - corners[:, :2]).T.tolist()
    diagonals = np.fromiter(map(math.hypot, width, height), float, len(rest))
    with np.errstate(over="ignore"):  # a size beyond the float range is inf, as in Python
        sizes[rest] = np.maximum(t.bbox_diag_fraction * diagonals, t.min_head_size)
    return sizes


def _align(
    pred_seqs: list[Sequence], gt_seqs: list[Sequence]
) -> list[tuple[Sequence, Sequence]]:
    # walked by name: AP tie order and the MOTP float sum depend on the order
    preds = sorted(pred_seqs, key=lambda s: s.name)
    return pair_by_name(preds, gt_seqs, "ground truth", EvaluationError)


def _track_codes(ids) -> np.ndarray:
    """Track ids as integers that are equal when the ids are; ``None`` becomes -1."""
    codes: dict = {}
    return np.array(
        [-1 if tid is None else codes.setdefault(tid, len(codes)) for tid in ids],
        dtype=np.int64,
    )


@dataclass(frozen=True, eq=False)
class PairTable:
    """Every same-frame (prediction, ground truth) pose pair of aligned sequences.

    Built by :func:`pair_table`.  Poses are numbered frame by frame over the
    sequences in name order; ``pair_pred`` / ``pair_gt`` index them, pair
    rows running by frame, prediction, then ground truth.  ``blocks`` holds
    ``(first pair row, predictions, ground truths)`` of each frame with both.
    """

    pred_seqs: tuple[Sequence, ...]
    gt_seqs: tuple[Sequence, ...]
    t: PckhThreshold
    pred_frame: np.ndarray  # (n,) frame number of each prediction
    pred_confidence: np.ndarray  # (n, 15)
    pred_present: np.ndarray  # (n, 15)
    pred_track: np.ndarray  # (n,) track id codes
    gt_present: np.ndarray  # (m, 15)
    gt_track: np.ndarray  # (m,) codes of (sequence, track id)
    pair_pred: np.ndarray  # (pairs,)
    pair_gt: np.ndarray  # (pairs,)
    within: np.ndarray  # (pairs, 15) ground-truth joint present, prediction within radius
    motp_term: np.ndarray  # (pairs, 15) 1 - d / r where ``within``, else 0
    blocks: tuple[tuple[int, int, int], ...]

    def match(self, threshold: float | None = None) -> "Matching":
        """Assign each frame's poses with prediction keypoints pruned at ``threshold``.

        Cost per pair is one minus the fraction of the ground truth's present
        joints predicted within the radius; the minimum-cost assignment is
        kept, dropping pairs with no such joint.  ``None`` prunes nothing.
        """
        present = self.pred_present
        if threshold is not None:
            present = kept_keypoints(self.pred_confidence, present, threshold)
        hits = self.within & present[self.pair_pred]
        correct = hits.sum(axis=1)
        gt_count = self.gt_present.sum(axis=1)[self.pair_gt]
        cost = 1.0 - np.divide(
            correct, gt_count, out=np.zeros(len(correct)), where=gt_count > 0
        )
        picked = [np.empty(0, dtype=np.intp)]
        for first, n_pred, n_gt in self.blocks:
            block = cost[first:first + n_pred * n_gt].reshape(n_pred, n_gt)
            rows, cols = linear_sum_assignment(block)
            picked.append(first + rows * n_gt + cols)
        pairs = np.concatenate(picked)
        pairs = pairs[correct[pairs] > 0]
        return Matching(self, threshold, present, pairs, hits[pairs])


def _joined(columns: list[Columns], name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """The column ``name`` of every store in ``columns``, end to end."""
    return np.concatenate([getattr(c, name) for c in columns] + [np.empty((0, *shape), dtype)])


def _table(
    pred_seqs: tuple[Sequence, ...],
    gt_seqs: tuple[Sequence, ...],
    t: PckhThreshold,
    pairs: list[tuple[Columns, Columns]],
) -> PairTable:
    """The table of the aligned ``(predictions, ground truth)`` column pairs, in order."""
    preds = [p for p, _ in pairs]
    gts = [g for _, g in pairs]
    n_pred = np.array([n for p in preds for n in p.counts], dtype=np.intp)
    n_gt = np.array([n for g in gts for n in g.counts], dtype=np.intp)
    pred_lo = np.cumsum(n_pred) - n_pred
    gt_lo = np.cumsum(n_gt) - n_gt
    pred_xy = _joined(preds, "xy", (_N, 2))
    confidence = _joined(preds, "confidence", (_N,))
    pred_present = _joined(preds, "present", (_N,), bool)
    gt_xy = _joined(gts, "xy", (_N, 2))
    gt_present = _joined(gts, "present", (_N,), bool)

    scored = np.flatnonzero((n_pred > 0) & (n_gt > 0))
    sizes = n_pred[scored] * n_gt[scored]
    first = np.cumsum(sizes) - sizes
    local = np.arange(int(sizes.sum())) - np.repeat(first, sizes)
    width = np.repeat(n_gt[scored], sizes)
    pair_pred = np.repeat(pred_lo[scored], sizes) + local // width
    pair_gt = np.repeat(gt_lo[scored], sizes) + local % width

    # radii only for ground truth in frames with a prediction
    needed = np.flatnonzero(np.repeat(n_pred > 0, n_gt))
    radius = np.zeros(len(gt_xy))
    with np.errstate(over="ignore"):  # a radius or offset beyond the float range is inf
        radius[needed] = t.factor * _reference_sizes(
            _joined(gts, "box", (4,))[needed],
            _joined(gts, "boxed", (), bool)[needed],
            gt_xy[needed],
            gt_present[needed],
            t,
        )
        r = np.broadcast_to(radius[pair_gt][:, None], (len(pair_gt), _N))
        d = pred_xy[pair_pred] - gt_xy[pair_gt]
        dx, dy = d[..., 0], d[..., 1]
        near = gt_present[pair_gt] & (np.hypot(dx, dy) <= r + r * _SLACK + 1e-300)
    distance = np.fromiter(
        map(math.hypot, dx[near].tolist(), dy[near].tolist()), float, int(near.sum())
    )
    within = np.zeros_like(near)
    within[near] = distance <= r[near]
    motp_term = np.zeros(near.shape)
    with np.errstate(invalid="ignore"):  # inf / inf for coordinates near the float limit
        motp_term[near] = 1.0 - distance / r[near]

    return PairTable(
        pred_seqs=pred_seqs,
        gt_seqs=gt_seqs,
        t=t,
        pred_frame=np.repeat(np.arange(len(n_pred)), n_pred),
        pred_confidence=confidence,
        pred_present=pred_present,
        pred_track=_track_codes(chain.from_iterable(p.track_id for p in preds)),
        gt_present=gt_present,
        gt_track=_track_codes(
            None if tid is None else (s, tid)
            for s, g in enumerate(gts)
            for tid in g.track_id
        ),
        pair_pred=pair_pred,
        pair_gt=pair_gt,
        within=within,
        motp_term=motp_term,
        blocks=tuple(zip(first.tolist(), n_pred[scored].tolist(), n_gt[scored].tolist())),
    )


def pair_table(
    pred_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    t: PckhThreshold = PckhThreshold(),
) -> PairTable:
    """Align sequences by name and build the pair table of all their frames, once."""
    pairs = [(p.columns(), g.columns()) for p, g in _align(pred_seqs, gt_seqs)]
    return _table(tuple(pred_seqs), tuple(gt_seqs), t, pairs)


def match_poses_frame(
    preds: list[Pose], gts: list[Pose], t: PckhThreshold = PckhThreshold()
) -> list[tuple[int, int]]:
    """Pose-level matching for one frame, as :meth:`PairTable.match` does it.

    Returns (pred_index, gt_index) pairs sorted by pred_index.
    """
    if not preds or not gts:
        return []
    frames = [Columns.of_frames([Frame(0, 1, 1, tuple(poses))]) for poses in (preds, gts)]
    table = _table((), (), t, [tuple(frames)])
    pairs = table.match().pairs
    return list(zip(table.pair_pred[pairs].tolist(), table.pair_gt[pairs].tolist()))


@dataclass(frozen=True, eq=False)
class Matching:
    """Pose matches of every frame of a :class:`PairTable`, read by both scorers.

    ``present`` is the prediction presence after pruning at ``threshold``;
    ``pairs`` are the matched pair rows (by frame, then prediction index)
    and ``hits`` their joints that are present and within the radius.
    """

    table: PairTable
    threshold: float | None
    present: np.ndarray
    pairs: np.ndarray
    hits: np.ndarray


# ---------------------------------------------------------------------------
# average precision


@dataclass(frozen=True, slots=True)
class ApReport:
    """Average precision percentages per joint, per group and overall."""

    per_joint: dict[Joint, float]
    per_group: dict[EvalGroup, float]
    total: float

    def to_dict(self) -> dict:
        return record_to_dict(self)

    def to_csv(self) -> str:
        header = ",".join(GROUP_COLUMNS)
        values = [self.per_group[g] for g in GROUPS] + [self.total]
        return header + "\n" + ",".join(f"{v:.4f}" for v in values) + "\n"


def _envelope_aps(
    segment: np.ndarray, confidence: np.ndarray, hit: np.ndarray, n_gt: list[int]
) -> list[float]:
    """Interpolated average precision (percent) of each segment of records.

    Records are given in insertion order; within a segment they are ranked
    by confidence, ties keeping that order.  Each value is
    sum(delta_tp * envelope_precision) / n_gt, which is exact for a perfect
    predictor.  With no ground truth the value is vacuous: 100 when there are
    no predictions either, 0 otherwise.
    """
    order = np.lexsort((-confidence, segment))
    segment, hit = segment[order], hit[order]
    counts = np.bincount(segment, minlength=len(n_gt))
    start = np.cumsum(counts) - counts
    rank = np.arange(len(segment)) - start[segment]
    tp = np.cumsum(hit)
    tp -= np.concatenate(([0], tp))[start][segment]
    precision = np.zeros((len(n_gt), counts.max(initial=0)))
    precision[segment, rank] = tp / (rank + 1)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    weights = envelope[segment[hit], rank[hit]].tolist()
    out = []
    k = 0
    for records, hits, gt in zip(
        counts.tolist(), np.bincount(segment[hit], minlength=len(n_gt)).tolist(), n_gt
    ):
        weighted = sum(weights[k:k + hits])
        k += hits
        if gt == 0:
            out.append(100.0 if not records else 0.0)
        elif not records:
            out.append(0.0)
        else:
            out.append(100.0 * weighted / gt)
    return out


def _envelope_ap(records: list[tuple[float, bool]], n_gt: int) -> float:
    """:func:`_envelope_aps` of one segment of ``(confidence, hit)`` records."""
    confidence = np.array([c for c, _ in records], dtype=float)
    hit = np.array([h for _, h in records], dtype=bool)
    return _envelope_aps(np.zeros(len(records), dtype=np.intp), confidence, hit, [n_gt])[0]


def _table_of(matchings: list[Matching]) -> PairTable:
    """The one pair table that every matching of ``matchings`` was made from."""
    table = matchings[0].table
    if any(m.table is not table for m in matchings):
        raise ValueError("matchings scored together must come from one pair table")
    return table


def ap_reports(matchings: list[Matching]) -> list[ApReport]:
    """AP of each matching of one pair table, all in one :func:`_envelope_aps` pass.

    The records of matching ``v`` and joint ``j`` form segment ``v * 15 + j``,
    in the order a lone matching gives them (per frame: matched predictions
    by index, then unmatched ones), so each report is the one that matching
    gets on its own.
    """
    table = _table_of(matchings)
    n = len(table.pred_frame)
    present = np.concatenate([m.present for m in matchings])  # (values * n, 15)
    hits = np.zeros_like(present)
    unmatched = np.ones((len(matchings), n), dtype=bool)
    for v, m in enumerate(matchings):
        matched = table.pair_pred[m.pairs]
        unmatched[v, matched] = False
        hits[v * n + matched] = m.hits
    rank = np.argsort(table.pred_frame * 2 + unmatched, axis=1, kind="stable")
    rows = (rank + n * np.arange(len(matchings))[:, None]).ravel()
    joint, position = np.nonzero(present[rows].T)
    aps = _envelope_aps(
        position // n * _N + joint,  # empty when there are no predictions
        table.pred_confidence[rank.ravel()[position], joint],
        hits[rows[position], joint],
        table.gt_present.sum(axis=0).tolist() * len(matchings),
    )
    reports = []
    for v in range(len(matchings)):
        per_joint = aps[v * _N:(v + 1) * _N]
        per_group = [_mean([per_joint[j] for j in members]) for members in _GROUP_MEMBERS]
        reports.append(
            ApReport(
                per_joint=dict(zip(JOINTS, per_joint)),
                per_group=dict(zip(GROUPS, per_group)),
                total=_mean(per_joint),
            )
        )
    return reports


def evaluate_ap(
    pred_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    t: PckhThreshold = PckhThreshold(),
) -> ApReport:
    """Score keypoint predictions against aligned ground-truth sequences.

    Per joint, every predicted-present keypoint is a confidence-ranked
    prediction: a true positive when its pose matched a ground truth whose
    joint is present within the correctness radius, a false positive
    otherwise (including all keypoints of unmatched poses).  Ground-truth
    joints never claimed count as misses through the recall denominator.
    """
    return ap_reports([pair_table(pred_seqs, gt_seqs, t).match()])[0]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# tracking metrics


@dataclass(slots=True)
class MotCounts:
    """Raw keypoint-level tallies for one scoring bucket."""

    gt: int = 0
    matches: int = 0
    fp: int = 0
    fn: int = 0
    idsw: int = 0

    def mota(self) -> float | None:
        if self.gt == 0:
            return None
        return 100.0 * (1.0 - (self.fn + self.fp + self.idsw) / self.gt)


@dataclass(frozen=True, slots=True)
class MotReport:
    """Tracking accuracy per group plus overall localization and PR."""

    counts: dict[EvalGroup, MotCounts]
    total_counts: MotCounts
    mota: dict[EvalGroup, float | None]
    mota_total: float
    motp_total: float
    precision_total: float
    recall_total: float

    def to_dict(self) -> dict:
        doc = record_to_dict(self)
        doc["counts"] = doc.pop("counts")  # the counts come last
        doc["total_counts"] = doc.pop("total_counts")
        return doc

    def to_csv(self) -> str:
        header = ",".join(GROUP_COLUMNS + ("MOTP", "Prec", "Rec"))
        cells = [
            "nan" if self.mota[g] is None else f"{self.mota[g]:.4f}" for g in GROUPS
        ]
        cells += [
            f"{self.mota_total:.4f}",
            f"{self.motp_total:.4f}",
            f"{self.precision_total:.4f}",
            f"{self.recall_total:.4f}",
        ]
        return header + "\n" + ",".join(cells) + "\n"


def _require_track_ids(seq: Sequence, role: str) -> None:
    c = seq.columns()
    if None in c.track_id:
        frame = c.index[c.frame_of(c.track_id.index(None))]
        raise EvaluationError(
            f"{role} sequence {seq.name!r} frame {frame}: pose lacks a track id"
        )


def evaluate_mot(
    pred_seqs: list[Sequence],
    gt_seqs: list[Sequence],
    t: PckhThreshold = PckhThreshold(),
) -> MotReport:
    """CLEAR-style keypoint tracking metrics over aligned sequences.

    Keypoint correspondence is inherited from the per-frame pose matching and
    the correctness radius.  A matched keypoint whose predicted track id
    differs from the id last matched to the same (ground-truth track, joint)
    is an id switch.  Accuracy per group is
    ``100 * (1 - (fn + fp + idsw) / gt)``; localization quality is the mean of
    ``1 - d / radius`` over matched keypoints (0 when nothing matched), and
    precision/recall use the same keypoint counts.
    """
    # before the table is built, so a missing track id wins over a radius error
    for pred_seq, gt_seq in _align(pred_seqs, gt_seqs):
        _require_track_ids(pred_seq, "prediction")
        _require_track_ids(gt_seq, "ground-truth")
    return mot_reports([pair_table(pred_seqs, gt_seqs, t).match()])[0]


def mot_reports(matchings: list[Matching]) -> list[MotReport]:
    """CLEAR MOT of each matching of one pair table, all in one array pass.

    The id-switch keys (sequence, ground-truth track, joint) of matching
    ``v`` are offset by ``v`` strides, so one stable sort and one
    ``bincount`` over matching x joint count each matching's switches as it
    would count them alone.  MOTP is summed per matching, one ``+=`` at a
    time in loop order.
    """
    table = _table_of(matchings)
    if (table.pred_track < 0).any() or (table.gt_track < 0).any():
        for pred_seq, gt_seq in _align(list(table.pred_seqs), list(table.gt_seqs)):
            _require_track_ids(pred_seq, "prediction")
            _require_track_ids(gt_seq, "ground-truth")
    stride = (int(table.gt_track.max(initial=0)) + 1) * _N
    keys, ids = [], []
    for v, m in enumerate(matchings):
        # a hit continues the (sequence, ground-truth track, joint) of the previous hit
        key = table.gt_track[table.pair_gt[m.pairs]][:, None] * _N + np.arange(_N) + v * stride
        keys.append(key[m.hits])
        pred_ids = table.pred_track[table.pair_pred[m.pairs]][:, None]
        ids.append(np.broadcast_to(pred_ids, m.hits.shape)[m.hits])
    key, ids = np.concatenate(keys), np.concatenate(ids)
    order = np.argsort(key, kind="stable")
    key, ids = key[order], ids[order]
    switched = key[1:][(key[1:] == key[:-1]) & (ids[1:] != ids[:-1])]
    idsw = np.bincount(
        switched // stride * _N + switched % _N, minlength=len(matchings) * _N
    ).reshape(len(matchings), _N)
    gt = table.gt_present.sum(axis=0)
    reports = []
    for m, switches in zip(matchings, idsw):
        matches = m.hits.sum(axis=0)
        per_joint = np.stack([gt, matches, m.present.sum(axis=0) - matches, gt - matches, switches])
        per_group = (per_joint @ _GROUP_ONEHOT).T.tolist()
        counts = {g: MotCounts(*column) for g, column in zip(GROUPS, per_group)}
        motp_sum = 0.0
        for term in table.motp_term[m.pairs][m.hits].tolist():
            motp_sum += term
        reports.append(_mot_report(counts, motp_sum))
    return reports


def _mot_report(counts: dict[EvalGroup, MotCounts], motp_sum: float) -> MotReport:
    total = MotCounts(
        gt=sum(c.gt for c in counts.values()),
        matches=sum(c.matches for c in counts.values()),
        fp=sum(c.fp for c in counts.values()),
        fn=sum(c.fn for c in counts.values()),
        idsw=sum(c.idsw for c in counts.values()),
    )
    mota_total = total.mota()
    if mota_total is None:
        raise EvaluationError("no ground-truth keypoints to evaluate against")
    motp_total = 100.0 * motp_sum / total.matches if total.matches else 0.0
    precision_total = (
        100.0 * total.matches / (total.matches + total.fp)
        if total.matches + total.fp
        else 100.0
    )
    recall_total = (
        100.0 * total.matches / (total.matches + total.fn)
        if total.matches + total.fn
        else 100.0
    )
    return MotReport(
        counts=counts,
        total_counts=total,
        mota={g: counts[g].mota() for g in GROUPS},
        mota_total=mota_total,
        motp_total=motp_total,
        precision_total=precision_total,
        recall_total=recall_total,
    )
