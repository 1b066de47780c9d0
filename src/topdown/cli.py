"""Command-line front end.

Thin facade over the library: every subcommand is a direct wiring of the
module-level functions, so CLI output always equals the equivalent library
calls.  Outputs are written to a temporary file and renamed into place, so a
failing command never leaves partial files behind; every output name is
checked before the first is written.

One reader, :func:`_read`, reads every input file, so a file that cannot
be read or does not parse ends the command with one line
``input error: <path>: <reason>``.  A command takes only the flags it reads.

Exit codes: 0 success, 1 usage error (an unknown flag and an output that
cannot be written included), 2 input/parse error, 3 contract violation.  A
command whose standard output is closed early stops printing and exits 0.
``TOPDOWN_LOG`` sets the log level.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from . import heatmaps, metrics, model, pipeline, synth
from .ensemble import fuse_all, route_codes
from .geometry import DegenerateGeometryError, box_corners, box_error, with_corners
from .metrics import EvaluationError
from .model import Sequence, load_sequence, pair_by_name, save_predictions
from .pipeline import PipelineConfig, PipelineContractError
from .tracker import TrackingError

log = logging.getLogger("topdown")

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CONTRACT = 3


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """An input document that is not text or does not parse."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2; we reserve that
        raise _UsageError(message)


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a new temp file next to ``path``, then rename it into place.

    The temp file is created with mode 0666 less the process umask, the
    permissions a plain ``open`` would give the output, and is removed if
    the write or the rename fails.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"  # a str: pathlib would intern every name
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_outputs(files: list[tuple[Path, str]]) -> None:
    """Write each ``(path, text)`` with :func:`_write_atomic` (a usage error on failure).

    A path that is a directory is refused before anything is written; any
    other file-system error ends the command naming the path it hit.
    """
    for path, _ in files:
        if path.is_dir():
            raise _UsageError(f"--out: {path} is a directory")
    for path, text in files:
        try:
            _write_atomic(path, text)
        except OSError as exc:
            raise _UsageError(f"--out: {path}: {exc.strerror or exc}") from exc


def _check_out(out: str, directory: bool) -> None:
    """Refuse ``--out`` (a usage error) when something other than its kind of output is in place.

    An existing ``--out`` must be a directory when ``directory``, else not
    one; its nearest existing parent must be a directory.
    """
    path = Path(out)
    try:
        if path.exists() and path.is_dir() != directory:
            raise _UsageError(f"--out: {out} is {'not ' if directory else ''}a directory")
        parent = next((p for p in path.parents if p.exists()), Path("."))
    except OSError as exc:  # a name too long, say
        raise _UsageError(f"--out: {out}: {exc.strerror or exc}") from exc
    if not parent.is_dir():
        raise _UsageError(f"--out: {parent} is not a directory")


def _read(path: str | Path, parse: Callable[[str], Any], members: bool = False) -> Any:
    """``parse`` of the text of file ``path``; any fault is an ``_InputError("<path>: ...")``.

    With ``members`` the result is a list: the one document of a file, or
    one per ``*.json`` file of a directory, sorted, each fault naming its member.
    """
    try:
        p = Path(path)
        if members and p.is_dir():
            files = sorted(p.glob("*.json"))
            if not files:
                raise ValueError("no *.json files in directory")
            return [_read(f, parse) for f in files]
        doc = parse(p.read_text())
        return [doc] if members else doc
    except (OSError, ValueError) as exc:  # a missing file, a directory, not UTF-8, ...
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise _InputError(f"{path}: {reason}") from exc


def _json(text: str) -> Any:
    """The JSON document ``text``; deep nesting is invalid JSON too."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not valid JSON ({exc})") from exc


def _spec(text: str) -> synth.SynthSpec:
    """The generator spec of a spec document, or of a pipeline config's ``synth`` section."""
    doc = _json(text)
    if isinstance(doc, dict) and "synth" in doc:
        return model.record_from_dict(synth.SynthSpec, doc["synth"], "synth")
    return model.record_from_dict(synth.SynthSpec, doc)


def _load_sequences(path: str) -> list[Sequence]:
    """Load one sequence file, or every ``*.json`` in a directory (sorted)."""
    return _read(path, load_sequence, members=True)


def _load_config(args) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        config = _read(args.config, lambda text: PipelineConfig.from_dict(_json(text)))
    for flag, name in (
        ("candidate_threshold", "candidate_drop_threshold"),
        ("keypoint_threshold", "keypoint_drop_threshold"),
        ("nms_iou", "nms_iou_threshold"),
        ("ensemble_mode", "ensemble_mode"),
    ):
        value = getattr(args, flag, None)  # absent from a command that does not take the flag
        if value is not None:
            try:
                config = replace(config, **{name: value})
            except ValueError as exc:
                raise _UsageError(f"--{flag.replace('_', '-')}: {exc}") from exc
    return config


# Bytes in one file name on common file systems, and what the temp file of
# _write_atomic adds to a name (".", 8 random hex digits, ".tmp").
_NAME_MAX = 255
_TEMP_SUFFIX_LEN = 13


def _sequence_outputs(
    out_dir: Path, prefix: str, seqs: list[Sequence]
) -> list[tuple[Path, str]]:
    """``<out_dir>/<prefix><name>.json`` and the document of each sequence, in order.

    Every name is checked before any file is written: one holding a path
    separator or NUL would put its file outside ``out_dir``, and one too long
    or not encodable as a file name would fail after earlier files were written.
    """
    for seq in seqs:
        if "/" in seq.name or "\\" in seq.name or "\0" in seq.name:
            raise _InputError(
                f"sequence {seq.name!r}: a name with '/', '\\' or NUL cannot name an output file"
            )
        try:
            fits = len(os.fsencode(f"{prefix}{seq.name}.json")) + _TEMP_SUFFIX_LEN <= _NAME_MAX
        except UnicodeEncodeError:
            fits = False
        if not fits:
            raise _InputError(f"sequence {seq.name!r}: the name does not fit in a file name")
    return [(out_dir / f"{prefix}{seq.name}.json", save_predictions(seq)) for seq in seqs]


def _dump_reports(out_dir: Path, result: pipeline.PipelineResult) -> None:
    _write_outputs(
        _sequence_outputs(out_dir, "tracked_", result.tracked)
        + [
            (out_dir / "ap_report.json", json.dumps(result.ap.to_dict(), indent=2)),
            (out_dir / "ap_report.csv", result.ap.to_csv()),
            (out_dir / "mot_report.json", json.dumps(result.mot.to_dict(), indent=2)),
            (out_dir / "mot_report.csv", result.mot.to_csv()),
        ]
    )


def _emit_sequences(seqs: list[Sequence], out: str | None, prefix: str, what: str) -> None:
    """Write each sequence to ``<out>/<prefix><name>.json``, or print them all without ``out``."""
    if out:
        out_dir = Path(out)
        _write_outputs(_sequence_outputs(out_dir, prefix, seqs))
        print(f"{what} written to {out_dir}")
    else:
        for seq in seqs:
            print(save_predictions(seq))


def _cmd_run(args) -> int:
    config = _load_config(args)
    det_seqs = _load_sequences(args.det)
    gt_seqs = _load_sequences(args.gt)
    det_b = _load_sequences(args.det_b) if args.det_b else None
    result = pipeline.run_pipeline(det_seqs, gt_seqs, config, det_b)
    # scored on first read, so that a scoring error leaves no output behind
    ap, mot = result.ap, result.mot
    out_dir = Path(args.out)
    _dump_reports(out_dir, result)
    print(f"AP total: {ap.total:.4f}")
    print(f"MOTA total: {mot.mota_total:.4f}")
    print(f"reports written to {out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    det_seqs = _load_sequences(args.det)
    gt_seqs = _load_sequences(args.gt)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --values: {exc}") from exc
    if len(values) < 2:
        raise _UsageError("--values needs at least 2 comma-separated thresholds")
    rows = pipeline.sweep(det_seqs, gt_seqs, config, args.axis, values)
    csv_text = pipeline.sweep_csv(args.axis, rows)
    json_text = json.dumps([r.to_dict() for r in rows], indent=2)
    out_dir = Path(args.out)
    _write_outputs([(out_dir / "sweep.csv", csv_text), (out_dir / "sweep.json", json_text)])
    print(csv_text, end="")
    return 0


def _cmd_synth(args) -> int:
    spec = _read(args.spec, _spec)
    if args.seed is not None:
        try:
            spec = replace(spec, seed=args.seed)
        except ValueError as exc:
            raise _UsageError(f"--seed: {exc}") from exc
    out = synth.generate(spec)
    out_dir = Path(args.out)
    _write_outputs(
        [
            (out_dir / "gt.json", save_predictions(out.gt)),
            (out_dir / "det.json", save_predictions(out.det)),
            (out_dir / "provenance.json", out.provenance_to_json()),
        ]
    )
    print(f"synthetic sequences written to {out_dir}")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    preds = _load_sequences(args.preds)
    gts = _load_sequences(args.gt)
    if args.mode == "ap":
        report = metrics.evaluate_ap(preds, gts, config.pckh)
    else:
        report = metrics.evaluate_mot(preds, gts, config.pckh)
    text = json.dumps(report.to_dict(), indent=2)
    if args.out:
        out_dir = Path(args.out)
        _write_outputs(
            [
                (out_dir / f"{args.mode}_report.json", text),
                (out_dir / f"{args.mode}_report.csv", report.to_csv()),
            ]
        )
        print(f"report written to {out_dir}")
    else:
        print(text)
    return 0


def _cmd_decode(args) -> int:
    try:
        heatmaps.require_radius(args.radius)
    except ValueError as exc:
        raise _UsageError(f"--radius: {exc}") from exc
    stack = _read(args.maps, heatmaps.load_stack_json)
    decoded = heatmaps.decode_stack(stack, radius=args.radius, refine=not args.no_refine)
    doc = {
        "keypoints": [
            {"joint": kp.joint.value, "x": kp.x, "y": kp.y, "confidence": kp.confidence}
            for kp in decoded.keypoints
        ],
        "fallbacks": [j.value for j in decoded.fallbacks],
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        _write_outputs([(Path(args.out), text)])
    else:
        print(text)
    return 0


def _cmd_bbox_infer(args) -> int:
    try:
        enlarge = PipelineConfig(bbox_enlarge=args.enlarge).bbox_enlarge
    except ValueError as exc:
        raise _UsageError(f"--enlarge: {exc}") from exc
    out = [_boxed(seq, enlarge) for seq in _load_sequences(args.input)]
    _emit_sequences(out, args.out, "", "sequences")
    return 0


def _boxed(seq: Sequence, enlarge: float) -> Sequence:
    """``seq`` with a box inferred for each box-less pose; an error names the pose it cannot box."""
    poses = seq.all_poses()
    corners, ok = box_corners(poses, enlarge)
    if not ok.all():
        s = ok.tolist().index(False)
        frame, j = [(f, j) for f in seq.frames for j in range(len(f.poses))][s]
        exc = box_error(poses[s].xy, poses[s].present, corners[s])
        raise DegenerateGeometryError(
            f"sequence {seq.name!r}, frame {frame.index}, pose {j}: {exc}"
        ) from exc
    return seq.with_poses(map(with_corners, poses, corners.tolist()))


def _cmd_ensemble(args) -> int:
    config = _load_config(args)
    seqs_a = sorted(_load_sequences(args.a), key=lambda s: s.name)
    pairs = pair_by_name(
        seqs_a, _load_sequences(args.b), "model B predictions", PipelineContractError
    )
    routes = route_codes(args.mode, config.expert_map)
    fused_seqs = []
    for a, b in pairs:
        # the frames before the first pose-count mismatch are fused, then it raises,
        # so errors come in the order of a frame-by-frame walk
        counts = [(len(fa.poses), len(fb.poses)) for fa, fb in zip(a.frames, b.frames)]
        aligned = next((k for k, (na, nb) in enumerate(counts) if na != nb), len(counts))
        n = sum(na for na, _ in counts[:aligned])
        fused = fuse_all(a.all_poses()[:n], b.all_poses()[:n], routes)
        if aligned < len(counts):
            raise PipelineContractError(
                f"frame {a.frames[aligned].index}: pose counts differ "
                f"({counts[aligned][0]} vs {counts[aligned][1]})"
            )
        fused_seqs.append(a.with_poses(fused))
    _emit_sequences(fused_seqs, args.out, "fused_", "fused sequences")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="topdown", description="Pose-tracking pipeline and evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p, reads: str, *flags: str):
        p.add_argument("--config", help=f"pipeline config JSON (schema 1); {reads}")
        for flag in flags:
            p.add_argument(flag, dest=flag[2:].replace("-", "_"), type=float)

    run = sub.add_parser("run", help="full pipeline: prune, NMS, fuse, track, score")
    add_config(
        run, "flags override", "--candidate-threshold", "--keypoint-threshold", "--nms-iou"
    )
    run.add_argument("--det", required=True, help="predictions file or directory")
    run.add_argument("--det-b", dest="det_b", help="second model predictions for fusion")
    run.add_argument("--ensemble-mode", dest="ensemble_mode", choices=("none", "average", "expert"))
    run.add_argument("--gt", required=True, help="ground-truth file or directory")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="threshold sensitivity sweep")
    add_config(sweep, "flags override", "--candidate-threshold", "--nms-iou")
    sweep.add_argument("--det", required=True)
    sweep.add_argument("--gt", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--axis", required=True, choices=pipeline.SWEEP_AXES)
    sweep.add_argument("--values", required=True, help="comma-separated thresholds")
    # accepted for callers written when sweep points could run in worker processes
    sweep.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    sweep.set_defaults(func=_cmd_sweep)

    synth_cmd = sub.add_parser("synth", help="generate a synthetic gt/det pair")
    synth_cmd.add_argument("--spec", required=True, help="generator spec JSON")
    synth_cmd.add_argument("--seed", type=int, help="override the spec seed")
    synth_cmd.add_argument("--out", required=True)
    synth_cmd.set_defaults(func=_cmd_synth)

    eval_cmd = sub.add_parser("eval", help="score predictions against ground truth")
    add_config(eval_cmd, "only pckh is read")
    eval_cmd.add_argument("--preds", required=True)
    eval_cmd.add_argument("--gt", required=True)
    eval_cmd.add_argument("--mode", required=True, choices=("ap", "mot"))
    eval_cmd.add_argument("--out")
    eval_cmd.set_defaults(func=_cmd_eval)

    decode = sub.add_parser("decode", help="decode a heatmap fixture to keypoints")
    decode.add_argument("--maps", required=True, help="heatmap fixture JSON")
    decode.add_argument(
        "--radius", type=float, default=0.0, help="cross-map suppression radius (px); 0 for none"
    )
    decode.add_argument("--no-refine", action="store_true", help="disable sub-cell refinement")
    decode.add_argument("--out")
    decode.set_defaults(func=_cmd_decode)

    bbox = sub.add_parser("bbox-infer", help="fill missing pose boxes from keypoints")
    bbox.add_argument("--input", required=True)
    bbox.add_argument("--enlarge", type=float, default=0.20)
    bbox.add_argument("--out")
    bbox.set_defaults(func=_cmd_bbox_infer)

    ens = sub.add_parser("ensemble", help="fuse two models' predictions")
    add_config(ens, "only expert_map is read")
    ens.add_argument("--a", required=True, help="model A predictions")
    ens.add_argument("--b", required=True, help="model B predictions")
    ens.add_argument("--mode", required=True, choices=("average", "expert"))
    ens.add_argument("--out")
    ens.set_defaults(func=_cmd_ensemble)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("TOPDOWN_LOG", "WARNING").upper())
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None):  # checked before any input is read
            _check_out(args.out, directory=args.command != "decode")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: print nothing more, here or at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        PipelineContractError,
        EvaluationError,
        TrackingError,
        DegenerateGeometryError,
        ValueError,
    ) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
