"""Malformed event identity is rejected once per trace.

An id that repeats, an ``id.process`` that is not the event's process,
or a process whose seqs are out of start order would make the families
disagree: the snapshot replay reads a process's latest start as its
highest seq.  An event that does not end after it starts has no span
for ground truth to overlap, yet the replays would take it silently.
``Trace.event_columns`` raises one ``ValueError`` naming the event, and
ground truth and every family read it first; ``load_trace`` raises it
with the event's line number.
"""
import re

import pytest

from _oracles import vector_point_stamps
from snapdetect import simulate
from snapdetect.detectors import EventId
from snapdetect.simulate import (
    DetectorFamily,
    SimConfig,
    Trace,
    TraceEvent,
    TraceMessage,
    generate_trace,
    ground_truth,
    run_trace,
    snapshot_intervals,
)
from snapdetect.tracefile import TraceFormatError, load_trace, save_trace

CONFIG = SimConfig(nodes=2, instances_per_node=1, events_per_process=2, seed=0)


def seq_out_of_start_order() -> Trace:
    """Process 0 starts seq 1 before seq 0; (0, 1) messages (1, 0)."""
    a, b, c = EventId(0, 1), EventId(0, 0), EventId(1, 0)
    events = (TraceEvent(a, 0, 0, 10), TraceEvent(b, 0, 20, 30), TraceEvent(c, 1, 0, 40))
    return Trace(events, (TraceMessage(a, c, 5, 25),), CONFIG)


def repeated_id() -> Trace:
    """(0, 0) on [0, 10) and again on [5, 20)."""
    events = (
        TraceEvent(EventId(0, 0), 0, 0, 10),
        TraceEvent(EventId(0, 0), 0, 5, 20),
        TraceEvent(EventId(1, 0), 1, 0, 40),
    )
    return Trace(events, (TraceMessage(EventId(1, 0), EventId(0, 0), 6, 8),), CONFIG)


def foreign_id() -> Trace:
    """(0, 1) runs on process 1."""
    events = (TraceEvent(EventId(0, 0), 0, 0, 30), TraceEvent(EventId(0, 1), 1, 10, 40))
    return Trace(events, (TraceMessage(EventId(0, 0), EventId(0, 1), 15, 20),), CONFIG)


def span_of(start: int, end: int, *extra: TraceEvent) -> Trace:
    """(1, 1) on [start, end), after events that a message joins, and ``extra``."""
    events = (
        TraceEvent(EventId(0, 0), 0, 0, 300_000),
        TraceEvent(EventId(1, 0), 1, 0, 100_000),
        TraceEvent(EventId(1, 1), 1, start, end),
        *extra,
    )
    return Trace(events, (TraceMessage(EventId(0, 0), EventId(1, 0), 10, 50),), CONFIG)


# (trace, index of the named event, message)
MALFORMED = {
    "seq-out-of-start-order": (
        seq_out_of_start_order,
        0,
        "event (0, 1): starts at 0 us, before event (0, 0) at 20 us",
    ),
    "repeated-id": (repeated_id, 1, "event (0, 0): id repeats"),
    "foreign-id": (foreign_id, 1, "event (0, 1): id names process 0, but it runs on 1"),
    "zero-span": (
        lambda: span_of(200_000, 200_000),
        2,
        "event (1, 1): ends at 200000 us, not after its start at 200000 us",
    ),
    "negative-span": (
        lambda: span_of(200_000, 150_000),
        2,
        "event (1, 1): ends at 150000 us, not after its start at 200000 us",
    ),
}

READERS = {
    "ground_truth": ground_truth,
    **{family.value: lambda t, f=family: run_trace(t, f) for family in DetectorFamily},
    "snapshot_intervals": snapshot_intervals,
    "vector_point_stamps": vector_point_stamps,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("case", MALFORMED)
def test_every_reader_rejects_malformed_identity(case, reader):
    make, _, message = MALFORMED[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        READERS[reader](make())


@pytest.mark.parametrize("case", MALFORMED)
def test_load_trace_names_the_line(case, tmp_path):
    make, index, message = MALFORMED[case]
    path = tmp_path / "trace.jsonl"
    save_trace(make(), path)
    line = 2 + index  # the config record is line 1, events follow in order
    with pytest.raises(TraceFormatError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}:{line}: {message}"


def test_equal_starts_in_seq_order_are_accepted():
    events = (
        TraceEvent(EventId(0, 0), 0, 0, 10),
        TraceEvent(EventId(0, 1), 0, 0, 20),
        TraceEvent(EventId(1, 0), 1, 5, 15),
    )
    trace = Trace(events, (), CONFIG)
    assert len(ground_truth(trace).concurrent_pairs) == 3


def test_an_empty_span_is_checked_last():
    """Alone it is named; beside an earlier fault, that fault's message stands."""
    with pytest.raises(ValueError, match=re.escape("event (1, 1): ends at 200000 us, not after")):
        run_trace(span_of(200_000, 200_000), DetectorFamily.VECTOR)
    repeat = TraceEvent(EventId(0, 0), 0, 5, 20)
    with pytest.raises(ValueError, match=f"^{re.escape('event (0, 0): id repeats')}$"):
        run_trace(span_of(200_000, 200_000, repeat), DetectorFamily.VECTOR)


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call of ``simulate.<name>`` from now on."""
    calls = []
    wrapped = getattr(simulate, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(simulate, name, counting)
    return calls


def replay_everything(trace: Trace) -> None:
    ground_truth(trace)
    for family in DetectorFamily:
        run_trace(trace, family)


def test_identity_is_checked_once_per_trace(monkeypatch):
    """A generated trace's handed columns go through the checks a loaded trace's do, once each."""
    events_checked = count_calls(monkeypatch, "_checked_events")
    messages_checked = count_calls(monkeypatch, "_checked_messages")
    looked_up = count_calls(monkeypatch, "_event_index")
    trace = generate_trace(SimConfig(nodes=3, events_per_process=3, message_delay_us=(1_000, 5_000), seed=7))
    assert trace.messages
    replay_everything(trace)
    assert [tuple(args[0]) for args in events_checked] == [trace.events]
    assert [args[0] for args in messages_checked] == [trace]
    assert looked_up == []  # the generator's indices are handed over, not searched for

    rebuilt = Trace(trace.events, trace.messages, trace.config, trace.dropped_messages)
    replay_everything(rebuilt)
    assert [tuple(args[0]) for args in events_checked[1:]] == [trace.events]
    assert [args[0] for args in messages_checked[1:]] == [rebuilt]
    assert len(looked_up) == 2  # senders, then receivers
