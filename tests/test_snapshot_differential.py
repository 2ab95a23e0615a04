"""The snapshot detector against a frozen copy of its replica-queue form.

Every trace is replayed through ``run_trace`` / ``snapshot_intervals``
and through ``_legacy_snapshot``; detected pairs, the four counters,
drops, violations and final intervals must all be identical.
"""
import itertools

from hypothesis import given, strategies as st

from _legacy_snapshot import LegacySnapshotDetector, legacy_snapshot
from snapdetect import scenarios
from snapdetect.detectors import EventId, MessageRecord, SnapshotDetector, violation_filter
from snapdetect.simulate import (
    DetectorFamily,
    SimConfig,
    Trace,
    TraceEvent,
    TraceMessage,
    generate_trace,
    run_trace,
    snapshot_intervals,
)
from snapdetect.stamps import DEFAULT_PARAMS, ClockParams

MS = 1000
DELAYS_US = ((1_000, 5_000), (100, 40_000), (250_000, 8_000_000))
SEEDS_PER_POINT = 5
PARAM_VARIANTS = (
    ClockParams(d=3),
    ClockParams(tick_after_merge=True),
    ClockParams(d=2, tick_after_merge=True),
)
PARAM_SEEDS = 40


def generated_corpus():
    """Seeded traces over nodes 2-7, instances 1-3, three delay regimes, fan-out None/1."""
    grid = itertools.product(range(2, 8), (1, 2, 3), DELAYS_US, (None, 1))
    for i, (nodes, instances, delay, fanout) in enumerate(grid):
        for k in range(SEEDS_PER_POINT):
            config = SimConfig(
                nodes=nodes,
                instances_per_node=instances,
                events_per_process=4,
                message_delay_us=delay,
                peer_fanout=fanout,
                seed=1 + i * SEEDS_PER_POINT + k,
            )
            yield generate_trace(config), DEFAULT_PARAMS


def params_corpus():
    """Dense traces replayed under non-default clock parameters."""
    for params, seed in itertools.product(PARAM_VARIANTS, range(PARAM_SEEDS)):
        config = SimConfig(
            nodes=2 + seed % 4,
            instances_per_node=1 + seed % 3,
            events_per_process=4,
            message_delay_us=DELAYS_US[seed % 2],
            peer_fanout=None if seed % 2 else 1,
            seed=1000 + seed,
        )
        yield generate_trace(config), params


def drop_trace() -> Trace:
    """One message lands before its receiving event starts; one stays on its process."""
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=2, seed=0)
    events = (
        TraceEvent(EventId(0, 0), 0, 0, 100 * MS),
        TraceEvent(EventId(1, 0), 1, 10 * MS, 40 * MS),
        TraceEvent(EventId(1, 1), 1, 60 * MS, 120 * MS),
    )
    messages = (
        TraceMessage(EventId(0, 0), EventId(1, 1), 20 * MS, 30 * MS),  # receiver not started
        TraceMessage(EventId(1, 0), EventId(1, 1), 30 * MS, 70 * MS),  # same process
        TraceMessage(EventId(0, 0), EventId(1, 1), 50 * MS, 80 * MS),
    )
    return Trace(events, messages, config)


def full_corpus():
    yield from generated_corpus()
    yield from params_corpus()
    for name in scenarios.FIXTURE_NAMES:
        yield scenarios.build_scenario(name), DEFAULT_PARAMS
    yield drop_trace(), DEFAULT_PARAMS


def test_corpus_matches_reference():
    traces = pairs = drops = 0
    for trace, params in full_corpus():
        want_pairs, want_counters, want_dropped, want_intervals = legacy_snapshot(trace, params)
        got = run_trace(trace, DetectorFamily.SNAPSHOT, params)
        where = (trace.config, params)
        assert got.detected_pairs == want_pairs, where
        assert got.counters == want_counters, where
        assert got.dropped == want_dropped, where
        assert got.violations == violation_filter(want_pairs, trace.readings()), where
        assert snapshot_intervals(trace, params) == want_intervals, where
        traces += 1
        pairs += len(want_pairs)
        drops += want_dropped
    assert traces >= 500 + len(PARAM_VARIANTS) * PARAM_SEEDS
    assert pairs > 0
    assert drops > 0


def _state(det):
    """Comparable detector state: clock, own intervals, drops, counters."""
    if isinstance(det, LegacySnapshotDetector):
        own = {r.event: (r.lo, r.hi) for r in det.iq[det.process]}
        return det.clock.tick, own, det.dropped, det.counters
    own = {e: tuple(iv) for e, iv in det.intervals.items()}
    return det.clock, own, det.dropped, det.counters


def test_unknown_sender_drop_matches_reference():
    # The replay driver announces every sender before its message lands,
    # so a sender nobody heard of only arrives through a direct call.
    old, new = LegacySnapshotDetector(1, 3), SnapshotDetector(1, 3)
    own, peer, stranger = EventId(1, 0), EventId(0, 0), EventId(2, 7)
    old.on_local_event(own)
    new.on_local_event(own)
    old.on_broadcast(0, peer, 2)
    new.on_broadcast(peer, 2)
    for m in (
        MessageRecord(stranger, own, send_stamp=5),
        MessageRecord(peer, own, send_stamp=1),  # on the receiver's inclusive lower bound
        MessageRecord(peer, EventId(1, 4), send_stamp=3),
    ):
        old.on_message(m)
        new.on_message(m)
    assert new.check_consistency() == old.check_consistency() != set()
    assert _state(new) == _state(old)
    assert new.dropped == 2


OPS = st.lists(
    st.tuples(
        st.sampled_from(["start", "announce", "send", "message"]),
        st.integers(0, 2),  # process of the peer or sender
        st.integers(0, 1),  # event seq
        st.integers(0, 6),  # stamp; ids and stamps are few, so they often meet
        st.integers(0, 1),  # receiving event seq
    ),
    max_size=40,
)


@given(OPS, st.sampled_from((DEFAULT_PARAMS,) + PARAM_VARIANTS))
def test_handler_sequences_match_reference(ops, params):
    old, new = LegacySnapshotDetector(1, 3, params), SnapshotDetector(1, 3, params)
    for op, p, seq, stamp, target in ops:
        if op == "start":
            e = EventId(1, seq)
            if e not in new.intervals:
                assert new.on_local_event(e) == old.on_local_event(e).stamp
        elif op == "announce" and p != 1:
            e = EventId(p, seq)
            if e in new.heard:
                old.on_send_stamp(p, e, stamp)
            else:
                old.on_broadcast(p, e, stamp)
            new.on_broadcast(e, stamp)
        elif op == "send":
            e = EventId(1, seq)
            if e in new.intervals:
                assert new.on_send(e) == old.on_send(e)
        elif op == "message" and p != 1:
            m = MessageRecord(EventId(p, seq), EventId(1, target), stamp)
            old.on_message(m)
            new.on_message(m)
        assert _state(new) == _state(old)
    assert new.check_consistency() == old.check_consistency()
    assert _state(new) == _state(old)
