"""A generated trace's ``messages``: a view over its message columns, equal to the record tuple.

``wire_trace`` hands the trace a ``MessageRecords`` view in place of the
tuple of ``TraceMessage`` records, and the view builds that tuple on
first read.  It must compare, hash, print, index and slice as the tuple,
survive a trace file and a pickle, and stay unbuilt through ground truth,
every family's replay, a sweep cell, ``len`` and ``makespan_us``.
"""
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpora import drop_trace
from snapdetect import experiment, scenarios
from snapdetect.simulate import (
    DetectorFamily,
    MessageRecords,
    SimConfig,
    Trace,
    TraceMessage,
    generate_trace,
    ground_truth,
    run_trace,
)
from snapdetect.tracefile import load_trace, save_trace

CONFIGS = {
    "all-peers": SimConfig(nodes=3, instances_per_node=2, events_per_process=4, message_delay_us=(1_000, 5_000), seed=11),
    "fanout": SimConfig(nodes=4, events_per_process=5, message_delay_us=(1_000, 5_000), peer_fanout=2, seed=3),
    # Every delay lands past the last event's end, so no message is delivered.
    "no-delivery": SimConfig(nodes=2, events_per_process=3, message_delay_us=(10**9, 10**9), seed=1),
}


@pytest.fixture(params=CONFIGS)
def trace(request) -> Trace:
    trace = generate_trace(CONFIGS[request.param])
    assert type(trace.messages) is MessageRecords
    assert bool(trace.messages) == (request.param != "no-delivery")
    return trace


def test_view_equals_hashes_and_prints_as_its_tuple(trace):
    view = trace.messages
    records = tuple(view)
    assert all(type(m) is TraceMessage for m in records)
    assert len(view) == len(records) == len(trace.message_columns.send_us)
    assert view == records and records == view and not view != records
    assert hash(view) == hash(records)
    assert repr(view) == repr(records)
    again = MessageRecords(trace.ids, trace.message_columns)
    assert again == view and hash(again) == hash(view)
    assert view != records + (None,) and records + (None,) != view
    assert view.__eq__(list(records)) is NotImplemented and view != list(records)


def test_view_indexes_and_slices_as_its_tuple(trace):
    view, records = trace.messages, tuple(trace.messages)
    n = len(records)
    for i in range(-n, n):
        assert view[i] == records[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    for cut in (slice(None), slice(None, None, -1), slice(-3, None), slice(1, -1), slice(None, None, 2), slice(5, 2)):
        part = view[cut]
        assert type(part) is tuple and part == records[cut]
    assert list(reversed(view)) == list(reversed(records))


def test_view_survives_a_trace_file(trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert type(loaded.messages) is tuple
    assert loaded == trace and trace == loaded and hash(loaded) == hash(trace)


def test_view_survives_a_pickle(trace):
    again = pickle.loads(pickle.dumps(trace))
    assert again == trace and hash(again) == hash(trace) and repr(again) == repr(trace)


def test_runs_build_no_record(monkeypatch):
    def unbuilt(self):
        raise AssertionError("a message record was built")

    monkeypatch.setattr(MessageRecords, "_tuple", unbuilt)
    detectors = tuple(f.value for f in DetectorFamily)
    for config in CONFIGS.values():
        trace = generate_trace(config)
        ground_truth(trace)
        for family in DetectorFamily:
            run_trace(trace, family)
        assert len(trace.messages) == len(trace.message_columns.deliver_us)
        assert trace.makespan_us > 0
        assert experiment._job((config, config.nodes, detectors))


def record_makespan(trace: Trace) -> int:
    """The last end or delivery time, read from the records: the rule the columns replaced."""
    last = max(e.end_us for e in trace.events)
    if trace.messages:
        last = max(last, max(m.deliver_us for m in trace.messages))
    return last


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(2, 4),
    events=st.integers(1, 5),
    delay_hi=st.sampled_from([0, 2_000, 50_000, 10**9]),
    fanout=st.sampled_from([None, 1]),
    seed=st.integers(0, 2**16),
    keep=st.integers(0, 6),
)
def test_makespan_is_the_records_last_end_or_delivery(nodes, events, delay_hi, fanout, seed, keep):
    config = SimConfig(
        nodes=nodes, events_per_process=events, message_delay_us=(0, delay_hi), peer_fanout=fanout, seed=seed
    )
    trace = generate_trace(config)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
    hand = Trace(trace.events, trace.messages[:keep], config, trace.dropped_messages)  # a few messages, or none
    for t in (trace, loaded, hand):
        assert type(t.makespan_us) is int
        assert t.makespan_us == record_makespan(t)


def test_makespan_of_hand_built_traces():
    for trace in (drop_trace(), *map(scenarios.build_scenario, scenarios.FIXTURE_NAMES)):
        assert type(trace.makespan_us) is int and trace.makespan_us == record_makespan(trace)
