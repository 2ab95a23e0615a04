import json

import pytest

from _corpora import long_traces_corpus
from snapdetect.simulate import SimConfig, generate_trace
from snapdetect.tracefile import (
    EVENT_KEYS,
    MESSAGE_KEYS,
    TraceFormatError,
    load_trace,
    save_trace,
)


def test_roundtrip_is_exact(tmp_path):
    trace = generate_trace(
        SimConfig(nodes=3, instances_per_node=2, events_per_process=4, seed=9)
    )
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    assert load_trace(path) == trace


def test_long_traces_save_the_same_bytes_after_a_round_trip(tmp_path):
    """The benchmark's long traces (seeds 1-4) load equal and save byte for byte again."""
    for i, trace in enumerate(long_traces_corpus()):
        first, second = tmp_path / f"{i}.jsonl", tmp_path / f"{i}-again.jsonl"
        save_trace(trace, first)
        loaded = load_trace(first)
        assert loaded == trace
        save_trace(loaded, second)
        assert second.read_bytes() == first.read_bytes()


def test_missing_config_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "meta", "dropped_messages": 0}\n')
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_bad_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(TraceFormatError, match=":1:"):
        load_trace(path)


def test_unknown_record_type(tmp_path):
    trace = generate_trace(SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=1))
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    path.write_text(path.read_text() + '{"type": "surprise"}\n')
    with pytest.raises(TraceFormatError, match="unknown record type"):
        load_trace(path)


def _with_config(tmp_path, edit):
    """A saved trace whose config record has gone through ``edit``."""
    trace = generate_trace(SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=1))
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    edit(record)
    path.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    return path


@pytest.mark.parametrize("key", ["rooms", "nodes", "seed"])
def test_config_missing_key_is_named(tmp_path, key):
    # A missing key is an error even where SimConfig has a default.
    path = _with_config(tmp_path, lambda rec: rec.pop(key))
    with pytest.raises(TraceFormatError, match=f":1: .*{key}"):
        load_trace(path)


def test_config_unknown_key_is_named(tmp_path):
    path = _with_config(tmp_path, lambda rec: rec.update(colour="red"))
    with pytest.raises(TraceFormatError, match=":1: .*colour"):
        load_trace(path)


@pytest.mark.parametrize(
    "key, value",
    [("nodes", 1), ("error_rate", 1.5), ("message_delay_us", [5, 1]), ("message_delay_us", 5)],
)
def test_invalid_config_is_a_format_error(tmp_path, key, value):
    path = _with_config(tmp_path, lambda rec: rec.update({key: value}))
    with pytest.raises(TraceFormatError, match=f":1: .*{key}"):
        load_trace(path)


@pytest.mark.parametrize("lag_us", [-1, 0])
def test_delivery_before_send_is_named(tmp_path, lag_us):
    # At equal times the send replays first, so only deliver < send is bad.
    config = SimConfig(nodes=2, events_per_process=4, message_delay_us=(1_000, 5_000), seed=3)
    trace = generate_trace(config)
    assert trace.messages
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    k = next(i for i, l in enumerate(lines) if '"message"' in l)
    record = json.loads(lines[k])
    record["deliver_us"] = record["send_us"] + lag_us
    lines[k] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    if lag_us < 0:
        send = record["send_us"]
        want = f":{k + 1}: message 0: delivered at {send - 1} us, before its send at {send} us$"
        with pytest.raises(TraceFormatError, match=want):
            load_trace(path)
    else:
        assert load_trace(path).messages[0].deliver_us == record["send_us"]


def _with_record(tmp_path, record_type, edit):
    """A saved trace whose first ``record_type`` record has gone through ``edit``.

    Returns the path and the edited record's line number.
    """
    config = SimConfig(nodes=2, events_per_process=4, message_delay_us=(1_000, 5_000), seed=3)
    path = tmp_path / "trace.jsonl"
    save_trace(generate_trace(config), path)
    lines = path.read_text().splitlines()
    k = next(i for i, l in enumerate(lines) if json.loads(l)["type"] == record_type)
    record = json.loads(lines[k])
    edit(record)
    lines[k] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return path, k + 1


RECORD_KEYS = [("event", key) for key in EVENT_KEYS] + [("message", key) for key in MESSAGE_KEYS]


@pytest.mark.parametrize("record_type, key", RECORD_KEYS)
def test_missing_record_key_is_named(tmp_path, record_type, key):
    path, line = _with_record(tmp_path, record_type, lambda rec: rec.pop(key))
    with pytest.raises(TraceFormatError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}:{line}: {record_type} record: missing {key!r}"


@pytest.mark.parametrize("record_type, key", [("event", "id"), ("message", "from"), ("message", "to")])
@pytest.mark.parametrize("value", [[1], [0, 1, 2], "ab", [0, "1"], [True, 0]])
def test_id_that_is_not_two_ints_is_named(tmp_path, record_type, key, value):
    path, line = _with_record(tmp_path, record_type, lambda rec: rec.update({key: value}))
    with pytest.raises(TraceFormatError) as info:
        load_trace(path)
    want = f"{path}:{line}: {record_type} record: {key!r} must be two ints, got {value!r}"
    assert str(info.value) == want


@pytest.mark.parametrize("record_type, key", [("event", "start_us"), ("message", "send_us")])
@pytest.mark.parametrize("value", ["5", 5.0, False])
def test_time_that_is_not_an_int_is_named(tmp_path, record_type, key, value):
    path, line = _with_record(tmp_path, record_type, lambda rec: rec.update({key: value}))
    with pytest.raises(TraceFormatError) as info:
        load_trace(path)
    want = f"{path}:{line}: {record_type} record: {key!r} must be an int, got {value!r}"
    assert str(info.value) == want


@pytest.mark.parametrize(
    "reading", [{"user": "u0"}, "R101", {"user": "u0", "location": "R1", "true_location": "R1", "erroneous": True}]
)
def test_bad_reading_is_named(tmp_path, reading):
    path, line = _with_record(tmp_path, "event", lambda rec: rec.update(reading=reading))
    with pytest.raises(TraceFormatError) as info:
        load_trace(path)
    assert str(info.value).startswith(f"{path}:{line}: event record: bad reading")


def test_record_that_is_not_an_object_is_named(tmp_path):
    path = _with_config(tmp_path, lambda rec: None)
    path.write_text(path.read_text() + "[1, 2]\n")
    line = len(path.read_text().splitlines())
    with pytest.raises(TraceFormatError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}:{line}: record is not a JSON object"
