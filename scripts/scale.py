#!/usr/bin/env python3
"""Time each pipeline stage, and the whole run, at fixed synthetic scales.

For each size (persons x frames) of ``calibrated_benchmark_spec`` at a fixed
seed, the stages are timed one after another on the outputs of the stage
before, each as the minimum of three repeats:

  load      ``load_sequence`` of the det and gt documents
  detect    candidate pruning, box inference and NMS
  track     ``track_sequence``
  pair      ``pair_table`` of the tracked output against ground truth
  score     one matching of that table, scored for AP and MOT
  save      ``save_predictions`` of the tracked output
  run       ``run_pipeline`` on the loaded sequences, its reports read once

The table goes to standard output, and ``BENCH_scale.json`` (with the host
stamp of ``perfbench/run.py``, and every repeat) to the output directory.

    python scripts/scale.py --out out/scale
"""
import argparse
import importlib.util
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from topdown import metrics, model, pipeline, synth, tracker

SIZES = ((4, 30), (4, 300), (16, 300))  # persons x frames
SEED = 1
REPEATS = 3
STAGES = ("load", "detect", "track", "pair", "score", "save", "run")


def _perfbench_stamp(seed: int) -> dict:
    """The host stamp perfbench writes: git sha, Python, numpy, scipy, nproc, seed."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.stamp(seed)


def _timed(fn):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def _stage_times(det_text: str, gt_text: str, config: pipeline.PipelineConfig) -> dict:
    """One repeat: each stage's wall time in seconds, stage by stage."""
    times = {}
    times["load"], (det, gt) = _timed(
        lambda: (model.load_sequence(det_text), model.load_sequence(gt_text))
    )
    times["detect"], detected = _timed(lambda: pipeline._detect_sequence(det, None, config, None))
    times["track"], tracked = _timed(lambda: tracker.track_sequence(detected, config.tracker))
    times["pair"], table = _timed(lambda: metrics.pair_table([tracked], [gt], config.pckh))

    def score():
        matching = [table.match()]
        return metrics.ap_reports(matching), metrics.mot_reports(matching)

    times["score"], _ = _timed(score)
    times["save"], _ = _timed(lambda: model.save_predictions(tracked))

    def run():
        result = pipeline.run_pipeline([det], [gt], config)
        return result.ap, result.mot

    times["run"], _ = _timed(run)
    return times


def measure(persons: int, frames: int) -> dict:
    out = synth.generate(
        synth.calibrated_benchmark_spec(n_persons=persons, n_frames=frames, seed=SEED)
    )
    det_text, gt_text = model.save_predictions(out.det), model.save_predictions(out.gt)
    config = pipeline.PipelineConfig()
    repeats = [_stage_times(det_text, gt_text, config) for _ in range(REPEATS)]
    return {
        "persons": persons,
        "frames": frames,
        "seed": SEED,
        "poses": len(out.det.all_poses()),
        "min_ms": {s: 1e3 * min(r[s] for r in repeats) for s in STAGES},
        "repeats_ms": {s: [1e3 * r[s] for r in repeats] for s in STAGES},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="out/scale", help="output directory")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [measure(persons, frames) for persons, frames in SIZES]
    print("size     poses  " + "  ".join(f"{s:>7}" for s in STAGES) + "   (ms, min of 3)")
    for row in rows:
        size = f"{row['persons']}x{row['frames']}"
        cells = "  ".join(f"{row['min_ms'][s]:7.2f}" for s in STAGES)
        print(f"{size:7s} {row['poses']:6d}  {cells}")
    record = {"stamp": _perfbench_stamp(SEED), "repeats": REPEATS, "sizes": rows}
    path = out_dir / "BENCH_scale.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
