"""The CLI keeps no state between calls, and the parity script's matrix runs clean."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from topdown import cli, synth
from topdown.model import save_predictions

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_consecutive_main_calls_give_the_outputs_of_fresh_processes(
    tmp_path, monkeypatch, capsys
):
    out = synth.generate(synth.calibrated_benchmark_spec(n_persons=3, n_frames=6, seed=4))
    inputs = {"det.json": save_predictions(out.det), "gt.json": save_predictions(out.gt)}
    sweep = ["sweep", "--det", "det.json", "--gt", "gt.json", "--out", "s"]
    calls = [
        ["run", "--det", "det.json", "--gt", "gt.json", "--out", "a", "--keypoint-threshold", "0.9"],
        ["run", "--det", "det.json", "--gt", "gt.json", "--out", "b"],
        [*sweep, "--axis", "nope", "--values", "0.5,0.7"],  # usage error
        [*sweep, "--axis", "keypoint_threshold", "--values", "0.7,0.5"],
    ]
    in_process, fresh = tmp_path / "in_process", tmp_path / "fresh"
    for root in (in_process, fresh):
        root.mkdir()
        for name, text in inputs.items():
            (root / name).write_text(text)

    monkeypatch.chdir(in_process)
    seen = []
    for argv in calls:
        code = cli.main(argv)
        seen.append((code, capsys.readouterr().out))

    # the default log level, so that stderr holds only what a command writes at it
    env = {k: v for k, v in os.environ.items() if k != "TOPDOWN_LOG"}
    env["PYTHONPATH"] = SRC
    expected = []
    errors = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "topdown", *argv],
            capture_output=True, text=True, env=env, cwd=fresh,
        )
        expected.append((proc.returncode, proc.stdout))
        errors.append(proc.stderr)
    assert [code for code, _ in seen] == [0, 0, 1, 0]
    assert seen == expected
    assert _files(in_process) == _files(fresh)
    # a successful command writes nothing but its result; a usage error writes one line
    assert [errors[k] for k in (0, 1, 3)] == ["", "", ""]
    assert len(errors[2].splitlines()) == 1
    assert errors[2].startswith("usage error: ")


def test_parity_script_matrix_is_deterministic_and_exits_zero(tmp_path):
    manifests = []
    for run in ("first", "second"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "parity.py"),
             "--out", str(tmp_path / run), "--count", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        log = (tmp_path / run / "calls.log").read_text()
        commands = log.count("$ topdown ")
        assert commands == log.count("\nexit 0\n") == 2 * 2 * 18
        manifests.append((tmp_path / run / "MANIFEST.sha256").read_text())
    assert manifests[0] == manifests[1]
    assert "calls.log" in manifests[0]
