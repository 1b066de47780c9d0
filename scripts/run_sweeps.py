#!/usr/bin/env python3
"""Reproduce the qualitative sensitivity experiments on synthetic data.

Runs three studies against the calibrated benchmark and prints their tables:
  1. keypoint-drop-threshold sweep (AP falls monotonically, MOTA peaks inside)
  2. box-drop-threshold sweep (recall falls, precision rises)
  3. keypoint retention per group at several drop thresholds

CSV copies land in the output directory.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from topdown import pipeline, synth
from topdown.model import GROUPS, EvalGroup
from topdown.tracker import retention_stats

RETENTION_ORDER = [
    EvalGroup.SHOULDER,
    EvalGroup.HEAD,
    EvalGroup.ELBOW,
    EvalGroup.HIP,
    EvalGroup.KNEE,
    EvalGroup.WRIST,
    EvalGroup.ANKLE,
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/sweeps", help="output directory")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    bench = synth.generate(synth.calibrated_benchmark_spec(seed=args.seed))
    config = pipeline.PipelineConfig()

    print("== keypoint drop threshold vs AP / MOTA ==")
    values = [0.5, 0.6, 0.7, 0.8, 0.85]
    rows = pipeline.sweep([bench.det], [bench.gt], config, "keypoint_threshold", values)
    text = pipeline.sweep_csv("keypoint_threshold", rows)
    (out_dir / "keypoint_sweep.csv").write_text(text)
    print(text)

    print("== box drop threshold vs detection precision / recall ==")
    values = [round(0.1 * i, 1) for i in range(1, 10)]
    rows = pipeline.sweep([bench.det], [bench.gt], config, "bbox_threshold", values)
    text = pipeline.sweep_csv("bbox_threshold", rows)
    (out_dir / "bbox_sweep.csv").write_text(text)
    print(text)

    print("== keypoint retention after pruning (percent kept) ==")
    clean = synth.generate(
        synth.calibrated_benchmark_spec(
            n_persons=5, n_frames=800, seed=args.seed + 4, fp_rate=0.0, p_miss=0.0
        )
    )
    lines = ["threshold," + ",".join(g.value for g in RETENTION_ORDER) + ",Total"]
    for threshold in (0.70, 0.75, 0.85):
        table = retention_stats([clean.det], threshold)
        cells = [f"{table.per_group[g]:.1f}" for g in RETENTION_ORDER]
        lines.append(f"{threshold:.2f}," + ",".join(cells) + f",{table.total:.1f}")
    text = "\n".join(lines) + "\n"
    (out_dir / "retention.csv").write_text(text)
    print(text)
    print(f"CSV tables written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
