"""``examples/layer_replay.py``: recorded front-end calls replay exactly.

The tool's per-call times only mean something if the replay does the
walk's work: every replayed return must equal the recorded one, and a
return that differs must stop it.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "examples" / "layer_replay.py"


@pytest.fixture(scope="module")
def layer_replay():
    spec = importlib.util.spec_from_file_location("layer_replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def recording(layer_replay):
    return layer_replay.record(1500, [("gcc", "bebop")])


def test_replay_returns_match_the_recording(layer_replay, recording):
    names = {name for _n, name, _a, _r in recording.calls}
    assert names == {"predict", "train", "state", "push_outcome",
                     "push_path", "lookup", "install"}
    times = layer_replay.replay(recording)
    assert sum(len(ns) for ns in times.values()) == len(recording.calls)


def test_recording_leaves_the_classes_unpatched(layer_replay, recording):
    for cls, names in layer_replay.METHODS:
        for name in names:
            assert "recorded" not in cls.__dict__[name].__qualname__
        assert "recorded" not in cls.__init__.__qualname__


def test_a_differing_return_stops_the_replay(layer_replay, recording):
    calls = recording.calls
    n = next(i for i, (_num, name, _a, out) in enumerate(calls)
             if name == "lookup" and out is not None)
    number, name, args, out = calls[n]
    calls[n] = (number, name, args, out + 4)
    try:
        with pytest.raises(AssertionError, match="BranchTargetBuffer.lookup"):
            layer_replay.replay(recording)
    finally:
        calls[n] = (number, name, args, out)


def test_per_call_table(layer_replay):
    table = layer_replay.per_call(1500, 1, [("swim", "baseline")])
    assert set(table) == {
        f"{cls.__name__}.{name}"
        for cls, names in layer_replay.METHODS for name in names
    }
    for row in table.values():
        assert row["calls"] > 0
        assert 0 <= row["median_us"] <= row["p90_us"]
