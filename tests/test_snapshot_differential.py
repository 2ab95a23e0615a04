"""The snapshot detector against a frozen copy of its replica-queue form,
its replay against the per-peer driver it replaced, and both against a
brute-force oracle.

Every trace is replayed through ``run_trace`` / ``snapshot_intervals``
and through ``_legacy_snapshot``; detected pairs, the four counters,
drops, violations and final intervals must all be identical.  Pairs and
drops must also equal ``_oracles.replay_order_snapshot``, which reads
them off the replay order without running a clock.  ``_replay_snapshot``,
which folds announcements through the ``arrived`` column over plain
lists, must end with the pairs, counters, drops, intervals and clocks of
the detectors that ``_oracles.per_peer_replay_snapshot`` drives, and
fault on the same tick cap.  Four hand-built traces pin its outcome.
"""
import pytest
from hypothesis import given, strategies as st

from _corpora import drop_trace, long_traces_corpus, scale_dense_corpus, snapshot_corpus, vector_corpus
from _legacy_snapshot import LegacySnapshotDetector, MessageRecord, legacy_snapshot
from _oracles import per_peer_replay_snapshot, readings_of, replay_order_snapshot
from snapdetect import detectors, scenarios
from snapdetect.detectors import EventId, SnapshotDetector, StampOverflowError, id_pairs, violation_filter
from snapdetect.metrics import OpCounters
from snapdetect.simulate import (
    DetectorFamily,
    SimConfig,
    SnapshotReplay,
    Trace,
    TraceEvent,
    TraceMessage,
    _replay_snapshot,
    generate_trace,
    run_trace,
    snapshot_intervals,
)


def test_corpus_matches_reference():
    traces = pairs = drops = late = 0
    for trace in snapshot_corpus():
        want_pairs, want_counters, want_dropped, want_intervals = legacy_snapshot(trace)
        got = run_trace(trace, DetectorFamily.SNAPSHOT)
        where = trace.config
        assert got.detected_pairs == want_pairs, where
        assert got.counters == want_counters, where
        assert got.dropped == want_dropped, where
        assert got.violations == violation_filter(want_pairs, readings_of(trace)), where
        assert snapshot_intervals(trace) == want_intervals, where
        oracle_pairs, oracle_dropped, oracle_late = replay_order_snapshot(trace)
        assert got.detected_pairs == oracle_pairs, where
        assert got.dropped == oracle_dropped, where
        traces += 1
        pairs += len(want_pairs)
        drops += want_dropped
        late += oracle_late
    assert traces == 664
    assert pairs > 0
    assert drops > 0
    assert late > 0  # delivered messages the oracle rejects: receiver started after the send


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
    for sender, receiver, send_stamp in (
        (stranger, own, 5),
        (peer, own, 1),  # on the receiver's inclusive lower bound
        (peer, EventId(1, 4), 3),
    ):
        old.on_message(MessageRecord(sender, receiver, send_stamp))
        new.on_message(sender, receiver, send_stamp)
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


@given(OPS)
def test_handler_sequences_match_reference(ops):
    old, new = LegacySnapshotDetector(1, 3), SnapshotDetector(1, 3)
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
            sender, receiver = EventId(p, seq), EventId(1, target)
            old.on_message(MessageRecord(sender, receiver, stamp))
            new.on_message(sender, receiver, stamp)
        assert _state(new) == _state(old)
    assert new.check_consistency() == old.check_consistency()
    assert _state(new) == _state(old)


def replay_outcome(replay, trace):
    """Pairs, counters, drops, final intervals and final clocks of a replay.

    ``replay`` is ``_replay_snapshot``, whose columns are read as pairs, or
    a driver of ``SnapshotDetector``s.
    """
    counters = OpCounters()
    dets = replay(trace, counters)
    if isinstance(dets, SnapshotReplay):
        pairs = set(id_pairs(trace.ids, dets.first, dets.second))
        intervals = dict(zip(trace.ids, zip(dets.lo, dets.hi)))
        return pairs, counters, dets.dropped, intervals, dets.clock
    pairs = set().union(*(d.check_consistency() for d in dets))
    intervals = {e: tuple(iv) for d in dets for e, iv in d.intervals.items()}
    return pairs, counters, sum(d.dropped for d in dets), intervals, [d.clock for d in dets]


def test_replay_matches_per_peer_driver():
    traces = pairs = drops = 0
    for trace in (*snapshot_corpus(), *vector_corpus(), *scale_dense_corpus(), *long_traces_corpus()):
        want = replay_outcome(per_peer_replay_snapshot, trace)
        assert replay_outcome(_replay_snapshot, trace) == want, trace.config
        traces += 1
        pairs += len(want[0])
        drops += want[2]
    assert traces == 664 + 540 + 3 + 4
    assert pairs > 0
    assert drops > 0


def overflow_corpus():
    for name in scenarios.FIXTURE_NAMES:
        yield pytest.param(scenarios.build_scenario(name), id=f"scenario-{name}")
    yield pytest.param(drop_trace(), id="drop-trace")
    config = SimConfig(nodes=3, events_per_process=3, message_delay_us=(1_000, 5_000), seed=7)
    yield pytest.param(generate_trace(config), id="generated")


@pytest.mark.parametrize("trace", overflow_corpus())
def test_tick_cap_faults_like_per_peer_driver(trace, monkeypatch):
    # Under the instant broadcast the highest final clock is the number of
    # announcements, so a cap one below it must fault and the cap itself not.
    top = max(replay_outcome(_replay_snapshot, trace)[4])
    assert top > 0

    def faults(run) -> bool:
        try:
            run()
        except StampOverflowError:
            return True
        return False

    for cap in range(top + 1):
        monkeypatch.setattr(detectors, "MAX_TICK", cap)
        new = faults(lambda: run_trace(trace, DetectorFamily.SNAPSHOT))
        old = faults(lambda: per_peer_replay_snapshot(trace, OpCounters()))
        assert new == old == (cap < top), cap


def _two_process_trace(events, messages) -> Trace:
    """Events as ``(process, seq, start_us, end_us)`` and messages as ``(sender, receiver, send_us, deliver_us)``."""
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=2, seed=0)
    records = tuple(TraceEvent(EventId(p, s), p, start, end) for p, s, start, end in events)
    return Trace(records, tuple(TraceMessage(EventId(*a), EventId(*b), x, y) for a, b, x, y in messages), config)


A, B, C = EventId(0, 0), EventId(0, 1), EventId(1, 0)

# Each case: a trace and its hand-replayed pairs, drops, intervals, clocks
# and clock updates.  Every clock update is a fold, a tick or a merge.
HAND_REPLAYED = {
    # a -> b on process 0.  Announcements: a 1, c 2, b 3, the send 4.  b's
    # interval [3, 4) stretches to 5 past the stamp 4, so the pair passes.
    "same-process": (
        _two_process_trace(
            [(0, 0, 0, 100), (0, 1, 10, 60), (1, 0, 5, 50)],
            [((0, 0), (0, 1), 20, 30)],
        ),
        {(A, B)},
        0,
        {A: (1, 5), B: (3, 5), C: (2, 3)},
        [4, 4],
        4 + 4 + 1,  # folds: one before c's start, one before b's, process 1's last two at the end
    ),
    # drop_trace: (0, 0) -> (1, 1) lands before (1, 1) starts, so it is
    # dropped after the merge; the two later messages were sent before
    # (1, 1) started, so neither passes.
    "drop-trace": (
        drop_trace(),
        set(),
        1,
        {A: (1, 6), C: (2, 5), EventId(1, 1): (6, 7)},
        [6, 6],
        6 + 6 + 3,
    ),
    # a -> c lands just before c starts, with no announcement between the
    # two points, so c's start announcement (index 2) is not below the
    # delivery's arrived count (2): a drop after the merge.
    "delivered-just-before-start": (
        _two_process_trace([(0, 0, 0, 100), (1, 0, 30, 100)], [((0, 0), (1, 0), 10, 20)]),
        set(),
        1,
        {A: (1, 3), C: (3, 4)},
        [3, 3],
        3 + 3 + 1,
    ),
    # The send from a and c's start share a time; the start comes first in
    # replay order, so c's interval [2, 3) holds the stamp 3 once the
    # delivery stretches it to 4.
    "send-tied-with-start": (
        _two_process_trace([(0, 0, 0, 100), (1, 0, 20, 100)], [((0, 0), (1, 0), 20, 25)]),
        {(A, C)},
        0,
        {A: (1, 4), C: (2, 4)},
        [3, 3],
        3 + 3 + 1,
    ),
}


@pytest.mark.parametrize("case", HAND_REPLAYED)
def test_hand_replayed_traces(case):
    trace, pairs, dropped, intervals, clocks, updates = HAND_REPLAYED[case]
    got = replay_outcome(_replay_snapshot, trace)
    assert got == replay_outcome(per_peer_replay_snapshot, trace)
    got_pairs, counters, got_dropped, got_intervals, got_clocks = got
    assert (got_pairs, got_dropped, got_intervals, got_clocks) == (pairs, dropped, intervals, clocks)
    words = len(trace.events) + 2 * len(trace.messages)
    assert counters == OpCounters(
        clock_updates=updates,
        stamp_words_sent=words,
        pair_checks=len(trace.messages) - dropped,
        events_processed=words,
    )
