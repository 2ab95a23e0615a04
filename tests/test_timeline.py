"""The columnar replay timeline: order, validation and caching.

``simulate._timeline`` must give the order of ``_oracles.keyed_columns``
(the keyed tuple sort) on small hand-built traces whose times tie across
kind, process and sub, with events and messages listed in any order.  On
the same traces both replays must match their references.  A message
delivered before its send is a ``ValueError`` for both replaying
families, and a trace builds its timeline once, however many families
replay it.
"""
import pytest
from hypothesis import given, strategies as st

from _oracles import keyed_columns, per_peer_replay_snapshot, stamp_replay_vector
from snapdetect import simulate
from snapdetect.detectors import EventId, pair_key, vector_arrays
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

PROCS = 3
CONFIG = SimConfig(nodes=PROCS, instances_per_node=1, events_per_process=3, seed=0)
LAST_US = 3


@st.composite
def tied_traces(draw) -> Trace:
    """Up to 3 back-to-back events per process and 8 messages, at times 0..3.

    Each message is sent inside its sending event and delivered at or
    after the send; events and messages are then shuffled.
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
            a, b = draw(st.permutations(events))[:2]
            send = draw(st.integers(a.start_us, a.end_us - 1))
            messages.append(TraceMessage(a.id, b.id, send, draw(st.integers(send, LAST_US))))
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
    want_intervals, want_points = stamp_replay_vector(trace, want_counters, True)
    ids, lo, hi, points = _replay_vector(trace, counters, True)
    want_ids, want_lo, want_hi = vector_arrays(want_intervals)
    assert ids == want_ids
    # Lists, because with no events ``vector_arrays`` knows no slot count.
    assert (lo.tolist(), hi.tolist()) == (want_lo.tolist(), want_hi.tolist())
    assert (points, counters) == (want_points, want_counters)

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


def test_physical_family_reads_no_messages():
    result = run_trace(late_trace(), DetectorFamily.PHYSICAL)
    assert result.detected_pairs == {pair_key(EventId(0, 0), EventId(1, 0))}


@pytest.mark.parametrize("family", [DetectorFamily.SNAPSHOT, DetectorFamily.VECTOR])
def test_point_outside_the_configured_processes_is_rejected(family):
    # Process 2 has a delivery but no event, so no stamp of its own would
    # index past the vector slots; only the replay's range check stops it.
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=0)
    a, b = EventId(0, 0), EventId(1, 0)
    events = (TraceEvent(a, 0, 0, 100), TraceEvent(b, 1, 0, 100))
    messages = (TraceMessage(a, EventId(2, 0), 10, 20), TraceMessage(b, a, 30, 40))
    with pytest.raises(IndexError):
        run_trace(Trace(events, messages, config), family)


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
