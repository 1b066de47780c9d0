"""Records as JSON: the one writer and reader of configs, generator specs and reports."""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topdown import cli, synth
from topdown.ensemble import Route
from topdown.metrics import PckhThreshold
from topdown.model import GROUPS, JOINTS, record_from_dict, record_to_dict, save_predictions
from topdown.pipeline import PipelineConfig, SweepRow
from topdown.synth import GroupConfidence, SynthSpec, noiseless_spec
from topdown.tracker import TrackerConfig

_unit = st.floats(0.0, 1.0)
_positive = st.floats(1e-3, 1e3)
_reals = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10, 10)

_tracker_configs = st.builds(
    TrackerConfig,
    w_iou=st.floats(0.0, 5.0),
    w_pose=st.floats(0.1, 5.0),
    similarity_min=_unit,
    retention_window=st.integers(1, 50),
    method=st.sampled_from(["greedy", "hungarian"]),
    kappa=_positive | st.tuples(*[_positive] * len(JOINTS)),
)
_configs = st.builds(
    PipelineConfig,
    candidate_drop_threshold=_unit,
    nms_iou_threshold=_unit,
    ensemble_mode=st.sampled_from(["none", "average", "expert"]),
    expert_map=st.fixed_dictionaries({j: st.sampled_from(list(Route)) for j in JOINTS}),
    keypoint_drop_threshold=_unit,
    bbox_enlarge=st.floats(0.0, 10.0),
    detection_iou_threshold=_unit,
    tracker=_tracker_configs,
    pckh=st.builds(
        PckhThreshold, factor=_positive, min_head_size=_positive, bbox_diag_fraction=_unit
    ),
)
_group_confidences = st.builds(GroupConfidence, mean=_reals, spread=st.floats(0.0, 1.0))
_specs = st.builds(
    SynthSpec,
    n_persons=st.integers(0, 20),
    n_frames=st.integers(1, 500),
    width=st.integers(1, 4000),
    height=st.integers(1, 4000),
    trajectory=st.sampled_from(["linear", "sinusoidal"]),
    speed=_reals,
    scale=_positive,
    confidence=st.fixed_dictionaries({g: _group_confidences for g in GROUPS}),
    jitter=st.floats(0.0, 10.0),
    p_miss=_unit,
    fp_rate=st.floats(0.0, 5.0),
    fp_confidence=_group_confidences,
    fp_clearance=_reals,
    occlusions=st.lists(st.tuples(*[st.integers(-5, 50)] * 3), max_size=3).map(tuple),
    seed=st.integers(0, 2**32),
    name=st.text(max_size=10),
)


@settings(max_examples=80)
@given(config=_configs)
def test_config_round_trips_through_its_document(config):
    doc = config.to_dict()
    assert PipelineConfig.from_dict(doc) == config
    assert PipelineConfig.from_dict(json.loads(json.dumps(doc))) == config


@settings(max_examples=80)
@given(spec=_specs)
def test_spec_round_trips_through_its_document(spec):
    doc = spec.to_dict()
    assert SynthSpec.from_dict(doc) == spec
    assert SynthSpec.from_dict(json.loads(json.dumps(doc))) == spec


def test_writer_keeps_field_order_and_writes_enums_by_value():
    config = PipelineConfig(tracker=TrackerConfig(kappa=tuple([0.05] * len(JOINTS))))
    doc = config.to_dict()
    assert list(doc) == ["schema"] + [f.name for f in fields(PipelineConfig)]
    assert list(doc["tracker"]) == [f.name for f in fields(TrackerConfig)]
    assert doc["tracker"]["kappa"] == [0.05] * len(JOINTS)
    assert doc["expert_map"] == {j.value: r.value for j, r in config.expert_map.items()}
    spec = noiseless_spec(occlusions=((0, 1, 2),))
    assert record_to_dict(spec)["confidence"]["Head"] == {"mean": 1.0, "spread": 0.0}
    assert record_to_dict(spec)["occlusions"] == [[0, 1, 2]]
    assert SweepRow(0.5, ap_total=1.0, mota_total=None).to_dict() == {"value": 0.5, "ap_total": 1.0}


@pytest.mark.parametrize(
    "cls, doc, message",
    [
        (PipelineConfig, {"expert_map": {"nose": "x"}},
         "expert_map.nose: 'x' is not a valid Route"),
        (PipelineConfig, {"expert_map": {"nosee": "a"}}, "expert_map.nosee: "),
        (PipelineConfig, {"expert_map": {"nose": "a"}}, "expert_map: expert map missing joints"),
        (PipelineConfig, {"tracker": {"kappa": [0.1] * 3 + [True] + [0.1] * 11}},
         "tracker.kappa[3] must be a finite number, got True"),
        (PipelineConfig, {"tracker": {"kappa": [0.1] * 3}}, "tracker.kappa needs 15 entries"),
        (PipelineConfig, {"tracker": 5}, "tracker: expected a JSON object, got int"),
        (PipelineConfig, {"tracker": {"note": 1}}, "tracker.note: unknown field"),
        (PipelineConfig, {"pckh": {"factor": 0}}, "pckh.factor must be positive"),
        (PipelineConfig, {"note": 1}, "note: unknown field"),
        (PipelineConfig, {"schema": 2}, "schema: "),
        (PipelineConfig, {"ensemble_mode": 5}, "ensemble_mode must be "),
        (SynthSpec, {"confidence": {"Head": {"mean": 0.8}}},
         "confidence.Head.spread: missing field"),
        (SynthSpec, {"confidence": 3}, "confidence: expected a JSON object, got int"),
        (SynthSpec, {"confidence": {"Head": 3}}, "confidence.Head: expected a JSON object"),
        (SynthSpec, {"confidence": {"Hed": {"mean": 0.8, "spread": 0.1}}}, "confidence.Hed: "),
        (SynthSpec, {"occlusions": 5}, "occlusions: expected a JSON array, got int"),
        (SynthSpec, {"occlusions": [5]}, "occlusions[0]: expected a JSON array, got int"),
        (SynthSpec, {"occlusions": [[0, 1]]}, "occlusions[0] must be (person, start, end)"),
        (SynthSpec, {"occlusions": [[0, "a", 1]]}, "occlusions[0][1] must be an integer"),
        (SynthSpec, {"fp_confidence": {"mean": 0.5, "spread": 0.1, "note": 1}},
         "fp_confidence.note: unknown field"),
        (SynthSpec, {"fp_confidence": {"mean": 0.5, "spread": -1}},
         "fp_confidence.spread must be non-negative"),
        (SynthSpec, {"trajectory": "teleport"}, "trajectory must be linear or sinusoidal"),
        (SynthSpec, [1], "expected a JSON object, got list"),
    ],
)
def test_reader_fault_message_starts_with_the_field_path(cls, doc, message):
    with pytest.raises(ValueError) as caught:
        cls.from_dict(doc)
    assert str(caught.value).startswith(message)


def test_reader_prefixes_the_path_it_is_given():
    with pytest.raises(ValueError, match=r"^synth\.fp_confidence\.note: unknown field$"):
        record_from_dict(SynthSpec, {"fp_confidence": {"mean": 0.5, "spread": 0.1, "note": 1}},
                         "synth")


# ---------------------------------------------------------------------------
# fuzz: a valid config, spec or heatmap document with one value replaced, removed or added

_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 5),
        st.floats(-4.0, 4.0),
        st.sampled_from([float("nan"), float("inf"), 1e308, 2**70]),
        st.text(max_size=4),
        st.sampled_from(["nose", "Head", "a", "avg", "greedy", "expert", "sinusoidal"]),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["mean", "spread", "nose", "Head", "x"]), inner, max_size=3),
    max_leaves=6,
)
_DELETE = object()
# small enough that a spec which loads generates in a few milliseconds
_BASE = {
    "config": PipelineConfig(tracker=TrackerConfig(kappa=tuple([0.1] * len(JOINTS)))).to_dict(),
    "spec": noiseless_spec(n_persons=1, n_frames=2, occlusions=((0, 0, 1),)).to_dict(),
    "maps": {"stride": 2.0, "origin": [1.0, 0.0],
             "maps": {j.value: [[0.5, 0.1], [0.2, 0.9]] for j in JOINTS}},
}


def _paths(node, prefix=()):
    """Every key and index position in a document, and a new key in each object."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    if isinstance(node, dict):
        yield prefix + ("note",)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


_FUZZ_PATHS = {kind: list(_paths(doc)) for kind, doc in _BASE.items()}


@pytest.fixture(scope="module")
def sequences(tmp_path_factory):
    root = tmp_path_factory.mktemp("sequences")
    out = synth.generate(noiseless_spec(n_persons=1, n_frames=2, seed=5))
    (root / "det.json").write_text(save_predictions(out.det))
    (root / "gt.json").write_text(save_predictions(out.gt))
    return root


@settings(max_examples=120)
@given(
    data=st.data(),
    kind=st.sampled_from(["config", "spec", "maps"]),
    value=_json_values | st.just(_DELETE),
)
def test_fuzz_config_and_spec_documents(sequences, data, kind, value):
    doc = json.loads(json.dumps(_BASE[kind]))
    path = data.draw(st.sampled_from(_FUZZ_PATHS[kind]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is not _DELETE:
        node[path[-1]] = value
    elif path[-1] != "note":
        del node[path[-1]]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "doc.json").write_text(json.dumps(doc))
        out = root / "out"
        if kind == "config":
            argv = ["run", "--config", str(root / "doc.json"), "--det", str(sequences / "det.json"),
                    "--gt", str(sequences / "gt.json")]
        elif kind == "spec":
            argv = ["synth", "--spec", str(root / "doc.json")]
        else:
            argv = ["decode", "--maps", str(root / "doc.json")]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out)])
        assert code in ((0, 2) if kind == "maps" else (0, 1, 2, 3)), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            assert not out.exists()
