"""Sequences held as columns: the run path builds no per-pose objects, and a
column-backed sequence reads, compares, pickles and saves as one built
through the types does."""
from __future__ import annotations

import contextlib
import gc
import io
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from topdown import cli, synth
from topdown.model import BBox, Frame, Keypoints, Pose, Sequence, load_sequence, save_predictions

SRC = str(Path(__file__).resolve().parents[1] / "src")
_BUILT = (Pose, Frame, Keypoints, BBox)


def _box_less(seq: Sequence) -> Sequence:
    return seq.with_poses(replace(p, bbox=None) for p in seq.all_poses())


def _write_fixtures(root: Path) -> dict[str, Path]:
    """A box-less two-model run fixture and a sweep fixture, shaped as the benchmark's."""
    spec = synth.calibrated_benchmark_spec(n_persons=2, n_frames=30, fp_rate=0.5, seed=7)
    out = synth.generate(spec)
    noisier = replace(
        spec,
        jitter=1.5,
        confidence={
            g: synth.GroupConfidence(c.mean - 0.03, c.spread) for g, c in spec.confidence.items()
        },
    )
    sweep = synth.generate(synth.calibrated_benchmark_spec(n_persons=4, n_frames=10, seed=7))
    docs = {
        "det": _box_less(out.det),
        "det_b": _box_less(synth.generate(noisier).det),
        "gt": out.gt,
        "sweep_det": sweep.det,
        "sweep_gt": sweep.gt,
    }
    paths = {}
    for name, seq in docs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(save_predictions(seq))
    return paths


def _built_during(monkeypatch, call) -> Counter:
    """How many ``Pose``, ``Frame``, ``Keypoints`` and ``BBox`` objects ``call`` makes.

    A ``__del__`` on each class counts every instance that dies, however it
    was made (``object.__new__`` included); the heap is searched for those
    still alive afterwards.
    """
    gc.collect()
    alive = {id(o) for o in gc.get_objects() if type(o) in _BUILT}
    died: Counter = Counter()
    for cls in _BUILT:
        monkeypatch.setattr(
            cls, "__del__", lambda self, name=cls.__name__: died.update([name]), raising=False
        )
    call()
    gc.collect()
    survivors = Counter(
        type(o).__name__ for o in gc.get_objects() if type(o) in _BUILT and id(o) not in alive
    )
    monkeypatch.undo()
    return died + survivors


def test_run_and_sweep_build_no_pose_frame_keypoints_or_box(tmp_path, monkeypatch):
    paths = _write_fixtures(tmp_path)
    run = [
        "run", "--det", str(paths["det"]), "--det-b", str(paths["det_b"]),
        "--gt", str(paths["gt"]), "--out", str(tmp_path / "run"), "--ensemble-mode", "expert",
    ]
    sweep = [
        "sweep", "--det", str(paths["sweep_det"]), "--gt", str(paths["sweep_gt"]),
        "--out", str(tmp_path / "sweep"), "--axis", "keypoint_threshold",
        "--values", "0.5,0.6,0.7,0.8,0.85",
    ]
    codes = []

    def main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))

    for argv in (run, sweep):
        assert _built_during(monkeypatch, lambda: main(argv)) == Counter()
    assert codes == [0, 0]
    # the counting sees objects: reading the frames of a loaded sequence builds them
    seq = load_sequence(paths["gt"].read_text())
    built = _built_during(monkeypatch, lambda: seq.frames)
    poses = sum(seq.columns().counts)
    assert built == Counter(Pose=poses, Keypoints=poses, BBox=poses, Frame=len(seq.frames))


def test_a_column_backed_sequence_acts_as_one_built_from_frames():
    built = synth.generate(synth.calibrated_benchmark_spec(n_persons=2, n_frames=4, seed=3)).gt
    text = save_predictions(built)
    loaded = load_sequence(text)
    assert loaded == built and built == loaded
    assert hash(loaded) == hash(built)
    assert repr(loaded) == repr(built)
    assert pickle.loads(pickle.dumps(load_sequence(text))) == built
    assert save_predictions(pickle.loads(pickle.dumps(load_sequence(text)))) == text
    renamed = replace(load_sequence(text), name="other")
    assert renamed.frames == built.frames and renamed.name == "other"
    first = replace(load_sequence(text), frames=built.frames[:1])
    assert first == Sequence(built.name, built.frames[:1])
    assert save_predictions(load_sequence(text)) == text


def test_an_api_built_int_score_still_saves_as_an_int():
    gt = synth.generate(synth.noiseless_spec(n_persons=1, n_frames=1, seed=0)).gt
    pose = gt.frames[0].poses[0]
    seq = Sequence("ints", (Frame(0, 640, 480, (replace(pose, det_score=1),)),))
    assert '"det_score": 1,' in save_predictions(seq)
    assert '"det_score": 1.0,' in save_predictions(load_sequence(save_predictions(seq)))


def test_inputs_are_read_as_utf8_under_the_c_locale(tmp_path):
    """JSON text is UTF-8 (RFC 8259), whatever the locale's encoding."""
    out = synth.generate(synth.noiseless_spec(n_persons=1, n_frames=2, seed=0))
    for name, seq in (("det", out.det), ("gt", out.gt)):
        text = save_predictions(seq).replace(f'"{seq.name}"', '"café"', 1)
        (tmp_path / f"{name}.json").write_bytes(text.encode("utf-8"))
    (tmp_path / "latin1.json").write_bytes("café".encode("latin-1"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env["PYTHONPATH"] = SRC
    env.pop("TOPDOWN_LOG", None)

    def evaluate(preds: str) -> subprocess.CompletedProcess:
        argv = ["eval", "--mode", "ap", "--preds", preds, "--gt", "gt.json"]
        return subprocess.run(
            [sys.executable, "-m", "topdown", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )

    good = evaluate("det.json")
    assert good.returncode == 0, good.stderr
    bad = evaluate("latin1.json")
    assert bad.returncode == 2
    assert bad.stderr.startswith("input error: latin1.json: 'utf-8' codec can't decode")
