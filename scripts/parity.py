#!/usr/bin/env python3
"""Write every output of a fixed command matrix, plus a ``MANIFEST.sha256``.

Two checkouts whose manifests are identical produce the same bytes on every
command of the matrix, so a change that must not alter outputs is checked by
running this script once per checkout (``--src`` selects the ``src/`` tree
to import) and comparing the manifests with ``diff``::

    python scripts/parity.py --out /tmp/new --count 50
    python scripts/parity.py --out /tmp/old --count 50 --src ../old-checkout/src
    diff /tmp/old/MANIFEST.sha256 /tmp/new/MANIFEST.sha256

Inputs come from two generator specs, the ones the benchmark fixtures use,
each at sub-seeds ``first .. first+count-1``:

- ``sparse``: 2 persons x 30 frames, false-pose rate 0.5, model A box-less;
- ``sweep``: 4 persons x 10 frames, boxes kept.

Model B (for fusion) is the same spec with jitter 1.5 and every group's mean
confidence 0.03 lower.  Per sub-seed the matrix is: ``synth`` of both
models; ``run`` plain and with ``--det-b`` in expert and average mode;
``run --config`` with ``--det-b`` and a config that sets every section
(thresholds, expert mode with all three routes in ``expert_map``, a
``tracker`` with per-joint ``kappa``, the greedy solver and the legacy
``keypoint_drop_threshold`` key, ``pckh``, and model A's spec as its
``synth`` section), and ``synth`` of that config's section, so the
config and spec readers are covered;
``sweep`` on each axis over unsorted values with a repeat; ``eval --mode
ap|mot`` on each tracked output; ``bbox-infer`` on model A's detections
without boxes; ``ensemble --mode expert|average`` of models A and B.  So
every command that writes a sequence document is covered, with box
inference, fusion and the writer.  The box-less copy that ``bbox-infer``
reads spells the ``x`` of every keypoint as an integer (rounded), which the
loader reads as a float, so integer numbers in a document are covered.
That copy also holds, on its first pose, a
``det_score`` of ``5e-05``, an ``x`` of ``3e-05`` and a confidence of
``1e-05`` on the first keypoint: values orjson would spell differently from
``json``, so its ``bbox-infer`` output is written with holes in three
columns, filled in with ``json``'s spelling after orjson has encoded the
document, while the other outputs need no hole.  Commands run
in-process through ``topdown.cli.main`` with relative paths, and their
argv, exit code and stdout go to ``calls.log``, which the manifest covers
too.  Exits 1 when any command exits non-zero.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEYPOINT_VALUES = "0.7,0.5,0.85,0.6,0.5,0.8"
BOX_VALUES = "0.6,0.2,0.9,0.2"


def _spec_docs(synth, spec: str, seed: int) -> tuple[dict, dict]:
    """Generator spec documents of models A and B."""
    if spec == "sparse":
        a = synth.calibrated_benchmark_spec(n_persons=2, n_frames=30, fp_rate=0.5, seed=seed)
    else:
        a = synth.calibrated_benchmark_spec(n_persons=4, n_frames=10, seed=seed)
    doc_a = a.to_dict()
    doc_b = json.loads(json.dumps(doc_a))
    doc_b["jitter"] = 1.5
    for entry in doc_b["confidence"].values():
        entry["mean"] -= 0.03
    return doc_a, doc_b


def _config_doc(spec_doc: dict) -> dict:
    """A pipeline config document that sets every section."""
    joints = ["nose", "head_bottom", "head_top"] + [
        f"{side}_{part}"
        for part in ("shoulder", "elbow", "wrist", "hip", "knee", "ankle")
        for side in ("left", "right")
    ]
    return {
        "schema": 1,
        "candidate_drop_threshold": 0.05,
        "nms_iou_threshold": 0.6,
        "ensemble_mode": "expert",
        "expert_map": {name: ("a", "b", "avg")[k % 3] for k, name in enumerate(joints)},
        "keypoint_drop_threshold": 0.3,
        "bbox_enlarge": 0.25,
        "detection_iou_threshold": 0.5,
        "tracker": {
            "w_iou": 0.6,
            "w_pose": 1.4,
            "similarity_min": 0.25,
            "retention_window": 5,
            "method": "greedy",
            "kappa": [0.08 + 0.005 * k for k in range(len(joints))],
            "keypoint_drop_threshold": 0.5,  # legacy key, dropped on load
        },
        "pckh": {"factor": 0.6, "min_head_size": 2.0, "bbox_diag_fraction": 0.25},
        "synth": spec_doc,
    }


def _without_boxes(src: Path, dst: Path, marked: bool = False) -> str:
    """Copy sequence document ``src`` to ``dst`` with every pose's box removed.

    A ``marked`` copy also rounds the ``x`` of every keypoint to an integer,
    and gives its first pose a ``det_score`` of ``5e-05`` and, on the first
    keypoint, an ``x`` of ``3e-05`` and a confidence of ``1e-05``.
    """
    doc = json.loads(src.read_text())
    for frame in doc["frames"]:
        for pose in frame["poses"]:
            pose["bbox"] = None
            if marked:
                for keypoint in pose["keypoints"]:
                    keypoint["x"] = round(keypoint["x"])
    if marked:
        first = next(pose for frame in doc["frames"] for pose in frame["poses"])
        first["det_score"] = 5e-05
        first["keypoints"][0]["x"] = 3e-05
        first["keypoints"][0]["confidence"] = 1e-05
    dst.write_text(json.dumps(doc, indent=2))
    return str(dst)


class _Matrix:
    def __init__(self, main) -> None:
        self.main = main
        self.log: list[str] = []
        self.failed = 0

    def call(self, *argv: str) -> None:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(list(argv))
        self.log.append(f"$ topdown {' '.join(argv)}\nexit {code}\n{out.getvalue()}")
        if code != 0:
            self.failed += 1
            print(f"exit {code}: topdown {' '.join(argv)}\n{err.getvalue()}", file=sys.stderr)


def _run_seed(m: _Matrix, synth, spec: str, seed: int) -> None:
    base = Path(spec) / str(seed)
    base.mkdir(parents=True)
    spec_docs = _spec_docs(synth, spec, seed)
    for model, doc in zip("ab", spec_docs):
        (base / f"spec_{model}.json").write_text(json.dumps(doc, indent=2))
        m.call("synth", "--spec", str(base / f"spec_{model}.json"), "--out", str(base / model))
    det, gt = str(base / "a" / "det.json"), str(base / "a" / "gt.json")
    det_b = str(base / "b" / "det.json")
    boxless = _without_boxes(Path(det), base / "det_boxless.json")
    marked = _without_boxes(Path(det), base / "det_boxless_marked.json", marked=True)
    if spec == "sparse":
        det = boxless
    runs = {
        "run_plain": (),
        "run_expert": ("--det-b", det_b, "--ensemble-mode", "expert"),
        "run_average": ("--det-b", det_b, "--ensemble-mode", "average"),
    }
    for name, extra in runs.items():
        m.call("run", "--det", det, "--gt", gt, "--out", str(base / name), *extra)
    config = base / "config.json"
    config.write_text(json.dumps(_config_doc(spec_docs[0]), indent=2))
    m.call("run", "--config", str(config), "--det", det, "--gt", gt, "--det-b", det_b,
           "--out", str(base / "run_config"))
    m.call("synth", "--spec", str(config), "--out", str(base / "synth_config"))
    for axis, values in (("keypoint_threshold", KEYPOINT_VALUES), ("bbox_threshold", BOX_VALUES)):
        m.call("sweep", "--det", det, "--gt", gt, "--out", str(base / f"sweep_{axis}"),
               "--axis", axis, "--values", values)
    for name in runs:
        for tracked in sorted((base / name).glob("tracked_*.json")):
            for mode in ("ap", "mot"):
                m.call("eval", "--preds", str(tracked), "--gt", gt, "--mode", mode,
                       "--out", str(base / f"eval_{name}"))
    m.call("bbox-infer", "--input", marked, "--out", str(base / "bbox_infer"))
    for mode in ("expert", "average"):
        m.call("ensemble", "--a", det, "--b", det_b, "--mode", mode,
               "--out", str(base / f"ensemble_{mode}"))


def _manifest(root: Path) -> str:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel != "MANIFEST.sha256":
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="output directory (must not exist)")
    parser.add_argument("--src", default=str(ROOT / "src"), help="src/ tree to import from")
    parser.add_argument("--first", type=int, default=0, help="first sub-seed")
    parser.add_argument("--count", type=int, default=2, help="sub-seeds per spec")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    out.mkdir(parents=True)
    sys.path.insert(0, str(Path(args.src).resolve()))
    os.environ["TOPDOWN_LOG"] = "ERROR"
    from topdown import cli, synth

    os.chdir(out)
    matrix = _Matrix(cli.main)
    for spec in ("sparse", "sweep"):
        for seed in range(args.first, args.first + args.count):
            _run_seed(matrix, synth, spec, seed)
    Path("calls.log").write_text("\n".join(matrix.log))
    Path("MANIFEST.sha256").write_text(_manifest(out))
    print(f"{len(matrix.log)} commands, {matrix.failed} failed; manifest in {out}")
    return 1 if matrix.failed else 0


if __name__ == "__main__":
    sys.exit(main())
