"""Tests of the benchmark itself, on shrunken versions of its workloads.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from topdown import cli, synth  # noqa: E402
from topdown.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from topdown.model import Sequence, save_predictions  # noqa: E402

SMALL = {
    "sparse_ensemble": lambda seed: synth.calibrated_benchmark_spec(
        n_persons=2, n_frames=20, fp_rate=0.5, seed=seed
    ),
    "sweep": lambda seed: synth.calibrated_benchmark_spec(n_persons=2, n_frames=12, seed=seed),
}
# the spec on which NMS suppresses a false pose, so an oracle ignoring NMS is wrong
NMS_SPEC = synth.calibrated_benchmark_spec(n_persons=4, n_frames=120, seed=0)
NMS_RUN = workloads.Workload(
    name="nms",
    spec=lambda seed: NMS_SPEC,
    flags=("--keypoint-threshold", "0.7"),
    fixtures=1,
    thresholds=(0.7,),
)


@pytest.fixture
def small(monkeypatch):
    for name, spec in SMALL.items():
        monkeypatch.setitem(
            workloads.WORKLOADS, name, replace(workloads.WORKLOADS[name], spec=spec, fixtures=2)
        )


def _bench(*args: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(small, workload, trace, kind):
    result = _bench("--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared(kind)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    if trace == "0":
        assert all(result["metrics"][m]["value"] > 0 for m in emitted)


def _swap_one_track_id(seq: Sequence) -> Sequence:
    """Exchange the ids of the first two poses in the middle frame."""
    frames = list(seq.frames)
    mid = len(frames) // 2
    poses = list(frames[mid].poses)
    poses[0], poses[1] = (
        replace(poses[0], track_id=poses[1].track_id),
        replace(poses[1], track_id=poses[0].track_id),
    )
    frames[mid] = replace(frames[mid], poses=tuple(poses))
    return replace(seq, frames=tuple(frames))


def test_a_swapped_track_id_fails_every_operation(small, monkeypatch):
    monkeypatch.setattr(cli, "save_predictions", lambda seq: save_predictions(_swap_one_track_id(seq)))
    result = _bench("--workload", "sparse_ensemble", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def _one_op(tmp_path: Path, workload: workloads.Workload, seed: int = 1):
    fixture, out = workloads.write_fixture(workload, seed, tmp_path / "fixtures")
    workloads.attach_oracle(workload, fixture, out)
    out_dir = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workloads.argv(workload, fixture, out_dir)) == 0
    return fixture, out_dir


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2))


def _swap_in_file(doc: dict) -> None:
    poses = doc["frames"][len(doc["frames"]) // 2]["poses"]
    poses[0]["track_id"], poses[1]["track_id"] = poses[1]["track_id"], poses[0]["track_id"]


def _bump_fp(doc: dict) -> None:
    doc["total_counts"]["fp"] += 1


def test_check_accepts_good_output_and_rejects_corrupted_output(small, tmp_path):
    workload = workloads.WORKLOADS["sparse_ensemble"]
    fixture, out_dir = _one_op(tmp_path, workload)
    reference = workloads.check_output(workload, fixture, out_dir, None)
    assert workloads.check_output(workload, fixture, out_dir, reference) == reference

    tracked = next(out_dir.glob("tracked_*.json"))
    _edit_json(tracked, _swap_in_file)
    with pytest.raises(workloads.CheckFailed, match="mot_report"):
        workloads.check_output(workload, fixture, out_dir, None)
    with pytest.raises(workloads.CheckFailed, match="first repetition"):
        workloads.check_output(workload, fixture, out_dir, reference)


def test_check_rejects_counts_that_do_not_add_up(small, tmp_path):
    workload = workloads.WORKLOADS["sparse_ensemble"]
    fixture, out_dir = _one_op(tmp_path, workload)
    _edit_json(out_dir / "mot_report.json", _bump_fp)
    with pytest.raises(workloads.CheckFailed, match="recompute"):
        workloads.check_output(workload, fixture, out_dir, None)


def test_check_rejects_a_sweep_mota_off_the_oracle(small, tmp_path):
    workload = workloads.WORKLOADS["sweep"]
    fixture, out_dir = _one_op(tmp_path, workload)
    workloads.check_output(workload, fixture, out_dir, None)

    def nudge(rows):
        rows[2]["mota_total"] += 1e-3

    _edit_json(out_dir / "sweep.json", nudge)
    with pytest.raises(workloads.CheckFailed, match="id switches"):
        workloads.check_output(workload, fixture, out_dir, None)


@pytest.mark.parametrize("threshold", [0.0, 0.7])
def test_oracle_accounts_for_nms_suppression(threshold):
    out = synth.generate(NMS_SPEC)
    config = PipelineConfig(keypoint_drop_threshold=threshold)
    report = run_pipeline([out.det], [out.gt], config).mot.total_counts
    expected = oracle.expected_counts(out, config, [threshold])[threshold]
    assert (report.matches, report.fp, report.fn) == (expected.tp, expected.fp, expected.fn)
    if threshold == 0.0:  # the suppressed false pose's keypoints would count as fp
        assert synth.analytic_counts(out, threshold).fp > expected.fp


def _traced_op(tmp_path: Path, workload: workloads.Workload, tracer: tracing.Tracer):
    fixture, out = workloads.write_fixture(workload, 0, tmp_path / "fixtures")
    argv = workloads.argv(workload, fixture, tmp_path / "out")
    tracer.begin_op(0)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.op_trace(0)


@pytest.mark.parametrize("workload", ["nms", "sparse_ensemble"])
def test_layer_self_times_partition_the_operation(small, tmp_path, workload):
    chosen = NMS_RUN if workload == "nms" else workloads.WORKLOADS[workload]
    op = _traced_op(tmp_path, chosen, tracing.Tracer())
    own = op.layer_self_times()
    assert set(own) == set(tracing.OP_LAYERS)
    assert all(t >= 0.0 for t in own.values())
    assert sum(own.values()) == pytest.approx(op.op_time(), rel=1e-9, abs=1e-12)
    assert op.op_time() > 0.0

    values = layers.derive(op)
    assert not [v for v in values.values() if isinstance(v, str)]
    assert values["geometry.candidates_in"] == (
        values["geometry.candidates_kept"] + values["geometry.candidates_dropped"]
    )
    if workload == "nms":
        assert values["geometry.dropped_nms"] >= 1
    else:
        assert values["ensemble.fused_poses"] == values["geometry.candidates_kept"]


def test_a_missing_function_makes_its_metrics_absent(small, tmp_path, monkeypatch):
    import topdown.tracker

    # the pipeline keeps its own binding, so the program still runs
    monkeypatch.delattr(topdown.tracker, "prune_sequence_keypoints")
    tracer = tracing.Tracer()
    assert "topdown.tracker.prune_sequence_keypoints" in tracer.absent
    values = layers.derive(_traced_op(tmp_path, workloads.WORKLOADS["sparse_ensemble"], tracer))
    assert values["tracker.prune_s"].startswith("probe absent")
    assert values["tracker.keypoints_pruned"].startswith("probe absent")
    assert isinstance(values["tracker.track_s"], float)


def test_probes_are_removed_after_uninstall():
    import topdown.pipeline

    before = topdown.pipeline.track_sequence
    tracer = tracing.Tracer()
    tracer.install()
    assert topdown.pipeline.track_sequence is not before
    tracer.uninstall()
    assert topdown.pipeline.track_sequence is before


def test_run_exits_nonzero_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    err = io.StringIO()
    out = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = run.main(["--workload", "sweep", "--seed", "0", "--seconds", "1"])
    assert code == 2 and out.getvalue() == ""
