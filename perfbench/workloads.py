"""The workloads: their fixtures, the command one operation runs, and its checks.

One operation is one in-process call of ``topdown.cli.main`` on JSON fixtures
that set-up generated from the run's seed.  A run's seed yields several
fixtures, one per sub-seed (:func:`fixture_seeds`), and the operations cycle
through them.  How long one short sequence takes depends on how many false
poses its sub-seed draws (on ``sweep``'s spec one sub-seed's sequence can
take about twice as long as another's); many fixtures average that out, and
short operations put a few hundred of them in each run, so that the run's
means cover the bursts of load that other tenants of a shared host bring.
After every operation the outputs are checked:

* MOTA recomputes from the reported counts to 1e-9;
* on ``sweep``, which writes no counts, each row's MOTA follows from
  ``synth.analytic_counts`` on the candidates the detection stage keeps (see
  ``oracle.py``) and a whole, non-negative number of id switches;
* the first operation's tracked output, scored again, reproduces its reports
  (a corrupted track id changes the id switches);
* every later operation writes byte-identical outputs.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from topdown import metrics, synth
from topdown.model import load_sequence, save_predictions
from topdown.pipeline import PipelineConfig

import oracle

MOTA_TOL = 1e-9
SWEEP_VALUES = (0.5, 0.6, 0.7, 0.8, 0.85)


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], synth.SynthSpec]  # sub-seed -> generator spec of model A
    flags: tuple[str, ...]
    fixtures: int  # sequences generated per run, each from its own sub-seed
    # keypoint thresholds at which the provenance oracle predicts exact counts
    thresholds: tuple[float, ...] = ()
    sweep: bool = False
    ensemble: bool = False  # adds a box-less, noisier model B aligned with A


def _sparse_spec(seed: int) -> synth.SynthSpec:
    # no oracle here: a fused joint routed to model B can land outside the
    # correctness radius (it does on seed 8 of 2 x 600), which provenance
    # cannot predict
    return synth.calibrated_benchmark_spec(n_persons=2, n_frames=30, fp_rate=0.5, seed=seed)


def _sweep_spec(seed: int) -> synth.SynthSpec:
    # 4 lanes over 600 px are 122 px apart, so the provenance oracle stays exact
    return synth.calibrated_benchmark_spec(n_persons=4, n_frames=10, seed=seed)


def fixture_seeds(workload: "Workload", seed: int) -> range:
    """The sub-seeds of a run's fixtures; distinct runs' seeds share none."""
    return range(seed * workload.fixtures, (seed + 1) * workload.fixtures)


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sparse_ensemble",
            spec=_sparse_spec,
            flags=("--ensemble-mode", "expert"),
            fixtures=12,
            ensemble=True,
        ),
        Workload(
            name="sweep",
            spec=_sweep_spec,
            flags=(
                "--axis", "keypoint_threshold",
                "--values", ",".join(str(v) for v in SWEEP_VALUES),
                "--jobs", "1",
            ),
            fixtures=32,
            thresholds=SWEEP_VALUES,
            sweep=True,
        ),
    )
}


@dataclass
class Fixture:
    det: Path
    gt: Path
    det_b: Path | None
    poses: int  # detection candidates in the det file, counted once per operation
    expected: dict[float, synth.AnalyticCounts] = field(default_factory=dict)


def _without_boxes(seq):
    return replace(
        seq,
        frames=tuple(
            replace(f, poses=tuple(replace(p, bbox=None) for p in f.poses)) for f in seq.frames
        ),
    )


def model_b_spec(spec: synth.SynthSpec) -> synth.SynthSpec:
    """Same seed and draws as model A, noisier and 0.03 less confident per group."""
    return replace(
        spec,
        jitter=1.5,
        confidence={
            g: synth.GroupConfidence(c.mean - 0.03, c.spread) for g, c in spec.confidence.items()
        },
    )


def write_fixture(workload: Workload, seed: int, root: Path) -> tuple[Fixture, synth.SynthOutput]:
    """Generate and write the input files of sub-seed ``seed`` under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    spec = workload.spec(seed)
    out = synth.generate(spec)
    det = out.det
    fixture = Fixture(det=root / "det.json", gt=root / "gt.json", det_b=None, poses=0)
    if workload.ensemble:
        b = synth.generate(model_b_spec(spec)).det
        if [len(f.poses) for f in b.frames] != [len(f.poses) for f in det.frames]:
            raise RuntimeError("model B is not aligned with model A pose for pose")
        det = _without_boxes(det)
        fixture.det_b = root / "det_b.json"
        fixture.det_b.write_text(save_predictions(_without_boxes(b)))
    fixture.det.write_text(save_predictions(det))
    fixture.gt.write_text(save_predictions(out.gt))
    fixture.poses = sum(len(f.poses) for f in det.frames)
    return fixture, out


def attach_oracle(workload: Workload, fixture: Fixture, out: synth.SynthOutput) -> None:
    if workload.thresholds:
        fixture.expected = oracle.expected_counts(out, PipelineConfig(), list(workload.thresholds))


def argv(workload: Workload, fixture: Fixture, out_dir: Path) -> list[str]:
    command = "sweep" if workload.sweep else "run"
    args = [command, "--det", str(fixture.det), "--gt", str(fixture.gt), "--out", str(out_dir)]
    if fixture.det_b is not None:
        args += ["--det-b", str(fixture.det_b)]
    return args + list(workload.flags)


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class Outcome:
    ap_total: float
    mota_total: float
    digest: str


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _mota(counts: dict) -> float:
    return 100.0 * (1.0 - (counts["fn"] + counts["fp"] + counts["idsw"]) / counts["gt"])


def check_mota_recomputes(mot: dict) -> None:
    pairs = [(mot["total_counts"], mot["mota_total"])]
    pairs += [(mot["counts"][g], mot["mota"][g]) for g in mot["counts"]]
    for counts, mota in pairs:
        if counts["gt"] == 0:
            if mota is not None:
                raise CheckFailed(f"MOTA {mota} reported for a bucket without ground truth")
            continue
        if abs(_mota(counts) - mota) > MOTA_TOL:
            raise CheckFailed(f"MOTA {mota} does not recompute from counts {counts}")


def check_sweep_row(row: dict, value: float, expected: synth.AnalyticCounts) -> None:
    """The row's MOTA must follow from the oracle counts and a whole number of id switches."""
    if row.get("value") != value or "ap_total" not in row or "mota_total" not in row:
        raise CheckFailed(f"sweep row {row} is not the point {value}")
    gt = expected.tp + expected.fn
    idsw = gt * (1.0 - row["mota_total"] / 100.0) - expected.fn - expected.fp
    whole = round(idsw)
    counts = {"gt": gt, "fn": expected.fn, "fp": expected.fp, "idsw": whole}
    if whole < 0 or abs(_mota(counts) - row["mota_total"]) > MOTA_TOL:
        raise CheckFailed(
            f"sweep MOTA {row['mota_total']} at {value} implies {idsw} id switches "
            f"given the oracle counts {expected}"
        )


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def check_rescore(out_dir: Path, fixture: Fixture, ap: dict, mot: dict) -> None:
    """Score the written tracked output again; it must reproduce the written reports."""
    tracked = [load_sequence(p.read_text()) for p in sorted(out_dir.glob("tracked_*.json"))]
    gt = [load_sequence(fixture.gt.read_text())]
    if _canonical(metrics.evaluate_mot(tracked, gt).to_dict()) != _canonical(mot):
        raise CheckFailed("tracked output does not reproduce mot_report.json")
    if _canonical(metrics.evaluate_ap(tracked, gt).to_dict()) != _canonical(ap):
        raise CheckFailed("tracked output does not reproduce ap_report.json")


def check_output(
    workload: Workload, fixture: Fixture, out_dir: Path, reference: Outcome | None
) -> Outcome:
    """Validate one operation's outputs; ``reference`` is the first operation's outcome."""
    try:
        if workload.sweep:
            rows = json.loads((out_dir / "sweep.json").read_text())
            if len(rows) != len(workload.thresholds):
                raise CheckFailed(f"{len(rows)} sweep rows for {len(workload.thresholds)} values")
            for row, value in zip(rows, workload.thresholds):
                check_sweep_row(row, value, fixture.expected[value])
            ap_total = sum(r["ap_total"] for r in rows) / len(rows)
            mota_total = sum(r["mota_total"] for r in rows) / len(rows)
        else:
            ap = json.loads((out_dir / "ap_report.json").read_text())
            mot = json.loads((out_dir / "mot_report.json").read_text())
            check_mota_recomputes(mot)
            if reference is None:
                check_rescore(out_dir, fixture, ap, mot)
            ap_total, mota_total = ap["total"], mot["mota_total"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from exc
    outcome = Outcome(ap_total=ap_total, mota_total=mota_total, digest=digest(out_dir))
    if reference is not None and outcome.digest != reference.digest:
        raise CheckFailed("outputs differ from the first repetition of the same fixture")
    return outcome
