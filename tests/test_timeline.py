"""The columnar replay timeline: order, validation and caching.

``simulate._timeline`` must give the order of ``_oracles.keyed_columns``
(the keyed tuple sort) on small hand-built traces whose times tie across
kind, process and sub, with events and messages listed in any order.  On
the same traces both replays must match their references.  A trace with
a message delivered before its send or at or after its receiver's end,
sent outside its sender's span or naming an event the trace lacks, or
with an event on a process outside the config, raises one ``ValueError``
in both replaying families, and ``load_trace`` names the record's line.
A delivery before its receiver starts is kept, and the snapshot family
drops it.  A trace builds its timeline once, however many families
replay it.
"""
import re

import pytest
from hypothesis import given, strategies as st

from _oracles import keyed_columns, per_peer_replay_snapshot, stamp_replay_vector, vector_arrays
from snapdetect import simulate
from snapdetect.detectors import EventId, pair_key
from snapdetect.metrics import OpCounters
from snapdetect.simulate import (
    DetectorFamily,
    SimConfig,
    Trace,
    TraceEvent,
    TraceMessage,
    _replay_snapshot,
    _replay_vector,
    _timeline,
    generate_trace,
    run_trace,
    snapshot_intervals,
    vector_point_stamps,
)
from snapdetect.tracefile import TraceFormatError, load_trace, save_trace

PROCS = 3
CONFIG = SimConfig(nodes=PROCS, instances_per_node=1, events_per_process=3, seed=0)
LAST_US = 3


@st.composite
def tied_traces(draw) -> Trace:
    """Up to 3 back-to-back events per process and 8 messages, at times 0..3.

    Each message is sent inside its sending event and delivered at or
    after the send and before its receiving event ends; events and
    messages are then shuffled.
    """
    events = []
    for p in range(PROCS):
        t = 0
        for s in range(draw(st.integers(0, 3))):
            if t >= LAST_US:
                break
            start = draw(st.integers(t, LAST_US - 1))
            t = draw(st.integers(start + 1, LAST_US))
            events.append(TraceEvent(EventId(p, s), p, start, t))
    messages = []
    if len(events) > 1:
        for _ in range(draw(st.integers(0, 8))):
            a = draw(st.sampled_from(events))
            send = draw(st.integers(a.start_us, a.end_us - 1))
            receivers = [b for b in events if b is not a and b.end_us > send]
            if receivers:
                b = draw(st.sampled_from(receivers))
                messages.append(TraceMessage(a.id, b.id, send, draw(st.integers(send, b.end_us - 1))))
    events, messages = draw(st.permutations(events)), draw(st.permutations(messages))
    return Trace(tuple(events), tuple(messages), CONFIG)


@given(tied_traces())
def test_timeline_matches_keyed_sort_under_ties(trace):
    assert [c.tolist() for c in _timeline(trace)] == keyed_columns(trace)


def replay_state(dets):
    return (
        set().union(*(d.check_consistency() for d in dets)),
        [(d.clock, d.dropped, {e: tuple(iv) for e, iv in d.intervals.items()}) for d in dets],
    )


@given(tied_traces())
def test_replays_match_references_under_ties(trace):
    want_counters, counters = OpCounters(), OpCounters()
    want_intervals, want_points = stamp_replay_vector(trace, want_counters)
    ids, lo, hi = _replay_vector(trace, counters)
    want_ids, want_lo, want_hi = vector_arrays(want_intervals)
    assert ids == want_ids
    # Lists, because with no events ``vector_arrays`` knows no slot count.
    assert (lo.tolist(), hi.tolist()) == (want_lo.tolist(), want_hi.tolist())
    assert counters == want_counters
    assert vector_point_stamps(trace).tolist() == [list(p.slots) for p in want_points]

    want_counters, counters = OpCounters(), OpCounters()
    want = replay_state(per_peer_replay_snapshot(trace, want_counters))
    assert replay_state(_replay_snapshot(trace, counters)) == want
    assert counters == want_counters


def late_trace(deliver_us: int = 40) -> Trace:
    """Two events; one message sent at 50 us and delivered at ``deliver_us``."""
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=0)
    a, b = EventId(0, 0), EventId(1, 0)
    events = (TraceEvent(a, 0, 0, 100), TraceEvent(b, 1, 0, 100))
    return Trace(events, (TraceMessage(a, b, 50, deliver_us),), config)


@pytest.mark.parametrize("deliver_us", [40, 49])
@pytest.mark.parametrize("family", [DetectorFamily.SNAPSHOT, DetectorFamily.VECTOR])
def test_delivery_before_send_is_rejected(family, deliver_us):
    want = rf"^message 0: delivered at {deliver_us} us, before its send at 50 us$"
    with pytest.raises(ValueError, match=want):
        run_trace(late_trace(deliver_us), family)


def ended_receiver_trace() -> Trace:
    """One message delivered at 70 us to an event that ended at 10 us."""
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=0)
    a, b = EventId(0, 0), EventId(1, 0)
    events = (TraceEvent(a, 0, 50, 100), TraceEvent(b, 1, 0, 10))
    return Trace(events, (TraceMessage(a, b, 60, 70),), config)


@pytest.mark.parametrize("family", [DetectorFamily.SNAPSHOT, DetectorFamily.VECTOR])
def test_delivery_after_its_receiver_ends_is_rejected(family):
    """Replayed, the snapshot family would report a pair that truth does not hold."""
    want = r"^message 0: delivered at 70 us, at or after its receiver \(1, 0\)'s end at 10 us$"
    with pytest.raises(ValueError, match=want):
        run_trace(ended_receiver_trace(), family)
    assert not run_trace(ended_receiver_trace(), DetectorFamily.PHYSICAL).detected_pairs


@pytest.mark.parametrize(("deliver_us", "dropped"), [(5, 1), (10, 0), (99, 0)])
def test_delivery_before_its_receiver_starts_is_a_snapshot_drop(deliver_us, dropped, tmp_path):
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=0)
    a, b = EventId(0, 0), EventId(1, 0)
    events = (TraceEvent(a, 0, 0, 100), TraceEvent(b, 1, 10, 100))
    trace = Trace(events, (TraceMessage(a, b, 1, deliver_us),), config)
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    assert load_trace(path) == trace
    assert run_trace(trace, DetectorFamily.SNAPSHOT).dropped == dropped


def test_physical_family_reads_no_messages():
    result = run_trace(late_trace(), DetectorFamily.PHYSICAL)
    assert result.detected_pairs == {pair_key(EventId(0, 0), EventId(1, 0))}


@pytest.mark.parametrize("family", [DetectorFamily.SNAPSHOT, DetectorFamily.VECTOR])
def test_point_outside_the_configured_processes_is_rejected(family):
    # Process 2 has a delivery but no event: the message names an event
    # the trace lacks.
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=0)
    a, b = EventId(0, 0), EventId(1, 0)
    events = (TraceEvent(a, 0, 0, 100), TraceEvent(b, 1, 0, 100))
    messages = (TraceMessage(a, EventId(2, 0), 10, 20), TraceMessage(b, a, 30, 40))
    want = r"^message 0: receiver \(2, 0\) is no event of the trace$"
    with pytest.raises(ValueError, match=want):
        run_trace(Trace(events, messages, config), family)


A, B = EventId(0, 0), EventId(1, 0)
SPANS = (TraceEvent(A, 0, 10, 100), TraceEvent(B, 1, 0, 100))


def malformed(*events: TraceEvent, message: TraceMessage | None = None) -> Trace:
    """``SPANS`` and ``events``, one good message, then ``message``."""
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=0)
    messages = (TraceMessage(B, A, 20, 30),) + ((message,) if message else ())
    return Trace(SPANS + events, messages, config)


# (trace, "event" or "message", index of the named record, error)
MALFORMED = {
    "unknown-sender": (
        malformed(message=TraceMessage(EventId(0, 1), B, 20, 30)),
        "message",
        1,
        "message 1: sender (0, 1) is no event of the trace",
    ),
    "unknown-receiver": (
        malformed(message=TraceMessage(A, EventId(1, 5), 20, 30)),
        "message",
        1,
        "message 1: receiver (1, 5) is no event of the trace",
    ),
    # Ids whose keys would wrap onto (0, 0)'s if they were not range-checked.
    "sender-seq-past-int32": (
        malformed(message=TraceMessage(EventId(0, 2**32), B, 20, 30)),
        "message",
        1,
        "message 1: sender (0, 4294967296) is no event of the trace",
    ),
    "receiver-process-past-int32": (
        malformed(message=TraceMessage(B, EventId(2**32, 0), 20, 30)),
        "message",
        1,
        "message 1: receiver (4294967296, 0) is no event of the trace",
    ),
    "sent-before-sender-starts": (
        malformed(message=TraceMessage(A, B, 9, 30)),
        "message",
        1,
        "message 1: sent at 9 us, outside its sender (0, 0)'s span [10, 100) us",
    ),
    "sent-at-sender-end": (
        malformed(message=TraceMessage(A, B, 100, 100)),
        "message",
        1,
        "message 1: sent at 100 us, outside its sender (0, 0)'s span [10, 100) us",
    ),
    "delivered-at-receiver-end": (
        malformed(message=TraceMessage(A, B, 20, 100)),
        "message",
        1,
        "message 1: delivered at 100 us, at or after its receiver (1, 0)'s end at 100 us",
    ),
    "delivered-after-receiver-end": (
        malformed(message=TraceMessage(B, A, 20, 2**40)),
        "message",
        1,
        f"message 1: delivered at {2**40} us, at or after its receiver (0, 0)'s end at 100 us",
    ),
    "process-past-config": (
        malformed(TraceEvent(EventId(2, 0), 2, 0, 50)),
        "event",
        2,
        "event (2, 0): process 2 is outside 0..1",
    ),
    "negative-process": (
        malformed(TraceEvent(EventId(-1, 0), -1, 0, 50)),
        "event",
        2,
        "event (-1, 0): process -1 is outside 0..1",
    ),
}

REPLAYS = {
    "snapshot": lambda t: run_trace(t, DetectorFamily.SNAPSHOT),
    "vector": lambda t: run_trace(t, DetectorFamily.VECTOR),
    "snapshot_intervals": snapshot_intervals,
    "vector_point_stamps": vector_point_stamps,
}


@pytest.mark.parametrize("replay", REPLAYS)
@pytest.mark.parametrize("case", MALFORMED)
def test_replays_reject_malformed_trace(case, replay):
    trace, _, _, message = MALFORMED[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        REPLAYS[replay](trace)


@pytest.mark.parametrize("case", MALFORMED)
def test_load_trace_names_the_line_of_a_malformed_record(case, tmp_path):
    trace, record, index, message = MALFORMED[case]
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    # The config record is line 1, then the events, then the messages.
    line = 2 + index + (len(trace.events) if record == "message" else 0)
    with pytest.raises(TraceFormatError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}:{line}: {message}"


def test_all_families_build_the_timeline_once(monkeypatch):
    built = []
    build = simulate._timeline

    def counting(trace):
        built.append(trace)
        return build(trace)

    monkeypatch.setattr(simulate, "_timeline", counting)
    config = SimConfig(nodes=3, events_per_process=3, message_delay_us=(1_000, 5_000), seed=7)
    trace = generate_trace(config)
    assert trace.messages
    for family in DetectorFamily:
        run_trace(trace, family)
    snapshot_intervals(trace)
    vector_point_stamps(trace)
    assert built == [trace]
    assert trace == generate_trace(config)  # the cache is no field of the trace
