"""Every CLI command on inputs holding a huge number: it succeeds quietly or fails in one line.

A value the schema accepts can still overflow in the arithmetic that follows
it (a box area, a keypoint step, a generated coordinate).  Whatever a
command is given, it either exits 0 printing nothing on standard error, or
exits 2 (input) or 3 (contract) with exactly one line and no output.  A
numpy warning raised inside ``topdown`` fails the test (``filterwarnings``
in ``pyproject.toml``).
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from topdown import cli, synth
from topdown.model import JOINT_NAMES, JOINTS, sequence_to_dict
from topdown.pipeline import PipelineConfig
from topdown.synth import noiseless_spec
from topdown.tracker import TrackerConfig

_HUGE = [1e300, -1e300, 1.7e308, -1.7e308, 10**400, -(10**400)]


def _documents() -> dict[str, object]:
    out = synth.generate(noiseless_spec(n_persons=2, n_frames=3, seed=4))
    det = sequence_to_dict(out.det)
    boxless = json.loads(json.dumps(det))
    for frame in boxless["frames"]:
        for pose in frame["poses"]:
            pose["bbox"] = None
    return {
        "config": PipelineConfig(tracker=TrackerConfig(kappa=(0.1,) * len(JOINTS))).to_dict(),
        "det": det,
        "boxless": boxless,
        "gt": sequence_to_dict(out.gt),
        "spec": noiseless_spec(n_persons=1, n_frames=2, occlusions=((0, 0, 1),)).to_dict(),
        "maps": {"stride": 2.0, "origin": [1.0, 0.0],
                 "maps": {j: [[0.5, 0.1], [0.2, 0.9]] for j in JOINT_NAMES}},
    }


_DOCS = _documents()

# each command's argument list; "{name}" is the file holding document ``name``
_COMMANDS = {
    "run": ["run", "--config", "{config}", "--det", "{det}", "--gt", "{gt}"],
    "run-fused": ["run", "--config", "{config}", "--det", "{boxless}", "--det-b", "{det}",
                  "--ensemble-mode", "average", "--gt", "{gt}"],
    "sweep-keypoint": ["sweep", "--config", "{config}", "--det", "{det}", "--gt", "{gt}",
                       "--axis", "keypoint_threshold", "--values", "0.5,0.7"],
    "sweep-box": ["sweep", "--config", "{config}", "--det", "{boxless}", "--gt", "{gt}",
                  "--axis", "bbox_threshold", "--values", "0.3,0.6"],
    "synth": ["synth", "--spec", "{spec}"],
    "eval-ap": ["eval", "--config", "{config}", "--preds", "{det}", "--gt", "{gt}",
                "--mode", "ap"],
    "eval-mot": ["eval", "--config", "{config}", "--preds", "{gt}", "--gt", "{gt}",
                 "--mode", "mot"],
    "decode": ["decode", "--maps", "{maps}"],
    "bbox-infer": ["bbox-infer", "--input", "{boxless}"],
    "ensemble": ["ensemble", "--config", "{config}", "--a", "{det}", "--b", "{boxless}",
                 "--mode", "expert"],
}


def _numbers(node, prefix=()):
    """The position of every number (not a bool) in a document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _numbers(child, prefix + (key,))
        elif isinstance(child, (int, float)) and not isinstance(child, bool):
            yield prefix + (key,)


_FIELDS = {name: list(_numbers(doc)) for name, doc in _DOCS.items()}


def _same_field(path: tuple, other: tuple) -> bool:
    """Whether two positions name one field, array indices aside (every pose's ``x``)."""
    return len(path) == len(other) and all(
        isinstance(a, int) and isinstance(b, int) or a == b for a, b in zip(path, other)
    )


def _put(doc, path: tuple, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@settings(max_examples=200)
@given(
    data=st.data(),
    command=st.sampled_from(sorted(_COMMANDS)),
    value=st.sampled_from(_HUGE),
    everywhere=st.booleans(),
)
def test_a_huge_number_in_any_field_succeeds_quietly_or_fails_in_one_line(
    data, command, value, everywhere
):
    argv = _COMMANDS[command]
    inputs = sorted({a[1:-1] for a in argv if a.startswith("{")})
    name = data.draw(st.sampled_from(inputs))
    path = data.draw(st.sampled_from(_FIELDS[name]))
    docs = json.loads(json.dumps(_DOCS))
    for at in _FIELDS[name] if everywhere else [path]:
        if _same_field(at, path):
            _put(docs[name], at, value)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for doc_name in inputs:
            (root / f"{doc_name}.json").write_text(json.dumps(docs[doc_name]))
        out = root / ("out.json" if command == "decode" else "out")
        args = [str(root / f"{a[1:-1]}.json") if a.startswith("{") else a for a in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*args, "--out", str(out)])
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
        else:
            assert code in (2, 3), err
            assert len(err.splitlines()) == 1 and err.endswith("\n"), err
            assert not out.exists()


def test_every_command_succeeds_on_the_unedited_documents(tmp_path):
    """So that a refusal in the fuzz above comes from its edit."""
    for name, doc in _DOCS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    for command, argv in _COMMANDS.items():
        out = tmp_path / command / ("out.json" if command == "decode" else "out")
        args = [str(tmp_path / f"{a[1:-1]}.json") if a.startswith("{") else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*args, "--out", str(out)]) == 0, command
