"""Trace records are named tuples that compare, hash and print as the frozen dataclasses did.

``TraceEvent`` and ``TraceMessage`` were frozen dataclasses with the same
fields in the same order.  A dataclass hashes as the tuple of its fields
and prints as ``Name(field=value, ...)``, so each record's hash and repr,
and with them a ``Trace``'s, must be what the dataclass gave.  What
changes is equality with other tuples: a record now equals a plain tuple
of its fields.
"""
import dataclasses
from typing import Optional

import pytest

from snapdetect.detectors import ContextReading, EventId
from snapdetect.simulate import SimConfig, Trace, TraceEvent, TraceMessage, generate_trace

DataclassEvent = dataclasses.make_dataclass(
    "TraceEvent",
    [
        ("id", EventId),
        ("process", int),
        ("start_us", int),
        ("end_us", int),
        ("reading", Optional[ContextReading], dataclasses.field(default=None)),
    ],
    frozen=True,
)
DataclassMessage = dataclasses.make_dataclass(
    "TraceMessage",
    [("from_event", EventId), ("to_event", EventId), ("send_us", int), ("deliver_us", int)],
    frozen=True,
)

CONFIG = SimConfig(nodes=3, instances_per_node=2, events_per_process=4, message_delay_us=(1_000, 5_000), seed=11)


@pytest.fixture(scope="module")
def trace() -> Trace:
    trace = generate_trace(CONFIG)
    assert trace.messages and all(e.reading is not None for e in trace.events)
    return trace


def as_dataclasses(trace: Trace) -> Trace:
    return Trace(
        tuple(DataclassEvent(*e) for e in trace.events),
        tuple(DataclassMessage(*m) for m in trace.messages),
        trace.config,
        trace.dropped_messages,
    )


def test_records_hash_and_print_as_the_dataclasses_did(trace):
    for record, cls in [(e, DataclassEvent) for e in trace.events] + [(m, DataclassMessage) for m in trace.messages]:
        old = cls(*record)
        assert repr(record) == repr(old)
        assert hash(record) == hash(old)
    assert repr(TraceEvent(EventId(0, 1), 0, 5, 9)) == repr(DataclassEvent(EventId(0, 1), 0, 5, 9))


def test_trace_hashes_and_prints_as_before(trace):
    old = as_dataclasses(trace)
    assert repr(trace) == repr(old)
    assert hash(trace) == hash(old)


def test_trace_equality_is_by_fields(trace):
    again = generate_trace(CONFIG)
    assert trace == again and hash(trace) == hash(again)
    m = trace.messages[-1]
    moved = trace.messages[:-1] + (m._replace(deliver_us=m.deliver_us + 1),)
    assert trace != Trace(trace.events, moved, trace.config, trace.dropped_messages)
    assert trace != Trace(trace.events, trace.messages, trace.config, trace.dropped_messages + 1)


def test_a_record_equals_the_plain_tuple_of_its_fields(trace):
    e, m = trace.events[0], trace.messages[0]
    assert e == (e.id, e.process, e.start_us, e.end_us, e.reading)
    assert m == (m.from_event, m.to_event, m.send_us, m.deliver_us)
    plain = Trace(
        tuple(map(tuple, trace.events)), tuple(map(tuple, trace.messages)), trace.config, trace.dropped_messages
    )
    assert plain == trace
    assert TraceEvent(EventId(0, 0), 0, 1, 2).reading is None
