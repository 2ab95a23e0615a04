import pytest
from hypothesis import given, strategies as st

from snapdetect.detectors import (
    DuplicateEventError,
    EventId,
    MessageRecord,
    SnapshotDetector,
    pair_key,
)
from snapdetect.simulate import (
    DetectorFamily,
    SimConfig,
    Trace,
    TraceEvent,
    TraceMessage,
    run_trace,
    snapshot_intervals,
)
from snapdetect.stamps import (
    MAX_TICK,
    ClockParams,
    Interval,
    Order,
    SnapshotStamp,
    StampOverflowError,
    interval_compare,
    snapshot_merge,
    snapshot_tick,
)

MS = 1000


def fixture_config(**overrides):
    defaults = dict(nodes=2, instances_per_node=1, events_per_process=2, seed=0)
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestLocalEvent:
    def test_first_event_from_fresh_state(self):
        det = SnapshotDetector(0, 2)
        assert det.on_local_event(EventId(0, 0)) == 1
        assert det.clock == 1
        assert det.intervals == {EventId(0, 0): [1, 2]}

    def test_tick_continues_from_current_clock(self):
        det = SnapshotDetector(0, 2)
        det.clock = 4
        assert det.on_local_event(EventId(0, 1)) == 5
        assert det.intervals[EventId(0, 1)] == [5, 6]

    def test_two_local_events_produce_ordered_intervals(self):
        det = SnapshotDetector(0, 1)
        det.on_local_event(EventId(0, 0))
        det.on_local_event(EventId(0, 1))
        first, second = (
            Interval(SnapshotStamp(lo), SnapshotStamp(hi)) for lo, hi in det.intervals.values()
        )
        assert interval_compare(first, second) is Order.BEFORE

    def test_duplicate_event_rejected(self):
        det = SnapshotDetector(0, 2)
        det.on_local_event(EventId(0, 0))
        with pytest.raises(DuplicateEventError):
            det.on_local_event(EventId(0, 0))

    def test_foreign_event_rejected(self):
        det = SnapshotDetector(0, 2)
        with pytest.raises(ValueError):
            det.on_local_event(EventId(1, 0))
        with pytest.raises(ValueError):
            det.on_send(EventId(1, 0))
        with pytest.raises(ValueError):
            det.on_broadcast(EventId(0, 0), 1)

    def test_bad_process_rejected(self):
        with pytest.raises(IndexError):
            SnapshotDetector(2, 2)

    @pytest.mark.parametrize(
        "params, step",
        [
            (ClockParams(), lambda det: det.on_local_event(EventId(0, 1))),
            (ClockParams(d=5), lambda det: det.on_send(EventId(0, 0))),
            (ClockParams(tick_after_merge=True), lambda det: det.on_broadcast(EventId(1, 0), 3)),
        ],
    )
    def test_tick_past_max_tick_overflows(self, params, step):
        det = SnapshotDetector(0, 2, params)
        det.intervals[EventId(0, 0)] = [MAX_TICK - 1, MAX_TICK]
        det.clock = MAX_TICK
        with pytest.raises(StampOverflowError):
            step(det)


class TestClockRules:
    """The detector's int rules are ``snapshot_tick`` / ``snapshot_merge``."""

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except StampOverflowError:
            return "overflow"

    @given(
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, MAX_TICK),
        st.integers(0, MAX_TICK),
    )
    def test_int_rules_equal_stamp_rules(self, d, after_merge, clock, stamp):
        params = ClockParams(d=d, tick_after_merge=after_merge)

        def detector_at(c):
            det = SnapshotDetector(0, 2, params)
            det.clock = c
            return det

        def tick():
            det = detector_at(clock)
            return det.on_local_event(EventId(0, 0)), det.clock

        def merge():
            det = detector_at(clock)
            det.on_broadcast(EventId(1, 0), stamp)
            return det.clock

        want_tick = self.outcome(lambda: snapshot_tick(SnapshotStamp(clock), params).tick)
        assert self.outcome(tick) == (
            want_tick if want_tick == "overflow" else (want_tick, want_tick)
        )
        want_merge = self.outcome(
            lambda: snapshot_merge(SnapshotStamp(clock), SnapshotStamp(stamp), params).tick
        )
        assert self.outcome(merge) == want_merge


class TestBroadcast:
    def test_merge_lifts_local_clock(self):
        det = SnapshotDetector(1, 2)
        det.clock = 3
        det.on_broadcast(EventId(0, 0), 7)
        assert det.clock == 7
        assert det.heard == {EventId(0, 0)}

    def test_merge_keeps_higher_local_clock(self):
        det = SnapshotDetector(1, 2)
        det.clock = 9
        det.on_broadcast(EventId(0, 0), 2)
        assert det.clock == 9


class TestMessage:
    def make_receiver(self):
        det = SnapshotDetector(1, 2)
        det.on_local_event(EventId(1, 0))  # own interval [1, 2)
        det.on_broadcast(EventId(0, 0), 3)  # sender heard of at 3
        return det

    def test_delivery_queues_pair_and_extends_interval(self):
        det = self.make_receiver()
        det.on_message(MessageRecord(EventId(0, 0), EventId(1, 0), send_stamp=4))
        assert det.ee == [(EventId(1, 0), EventId(0, 0), 4)]
        assert det.intervals[EventId(1, 0)][1] >= 5  # hi is a running max, never shrinks
        assert det.clock == 4

    def test_unknown_sender_is_counted_as_drop(self):
        det = self.make_receiver()
        clock = det.clock
        det.on_message(MessageRecord(EventId(0, 9), EventId(1, 0), send_stamp=4))
        assert det.dropped == 1
        assert det.ee == []
        assert det.clock == clock  # a dropped message is never merged


class TestCheckConsistency:
    def primed(self, lo, hi, x):
        det = SnapshotDetector(1, 2)
        det.intervals[EventId(1, 0)] = [lo, hi]
        det.heard.add(EventId(0, 0))
        det.ee.append((EventId(1, 0), EventId(0, 0), x))
        return det

    def test_send_stamp_inside_interval_is_concurrent(self):
        det = self.primed(3, 8, 5)
        assert det.check_consistency() == {pair_key(EventId(0, 0), EventId(1, 0))}

    def test_upper_bound_is_strict(self):
        assert self.primed(3, 8, 8).check_consistency() == set()

    def test_lower_bound_is_inclusive(self):
        det = self.primed(3, 8, 3)
        assert det.check_consistency() == {pair_key(EventId(0, 0), EventId(1, 0))}

    def test_duplicate_pairs_collapse(self):
        det = self.primed(3, 8, 5)
        det.ee.append((EventId(1, 0), EventId(0, 0), 6))
        assert len(det.check_consistency()) == 1
        assert det.counters.pair_checks == 2

    def test_idempotent_at_quiescence(self):
        det = self.primed(3, 8, 5)
        first = det.check_consistency()
        assert det.check_consistency() == first
        assert det.ee == []
        assert det.counters.pair_checks == 1


class TestHandExecutedExchange:
    def test_three_process_exchange_reproduces_hand_stamps(self):
        # Hand-executed clock rules: event occurrences tick and broadcast,
        # a send ticks again, a receive merges.  Expected intervals below
        # were computed on paper by stepping the update rules.
        config = SimConfig(nodes=3, instances_per_node=1, events_per_process=1, seed=0)
        events = (
            TraceEvent(EventId(0, 0), 0, 0, 100 * MS),
            TraceEvent(EventId(1, 0), 1, 10 * MS, 120 * MS),
            TraceEvent(EventId(2, 0), 2, 20 * MS, 90 * MS),
        )
        # P0 ticks to 1; P1 merges then ticks to 2; P2 merges then ticks
        # to 3.  P0's send ticks its clock to 4, extending its interval.
        messages = (TraceMessage(EventId(0, 0), EventId(1, 0), 30 * MS, 40 * MS),)
        trace = Trace(events, messages, config)
        intervals = snapshot_intervals(trace)
        assert intervals[EventId(0, 0)] == (1, 5)
        assert intervals[EventId(1, 0)] == (2, 5)
        assert intervals[EventId(2, 0)] == (3, 4)
        result = run_trace(trace, DetectorFamily.SNAPSHOT)
        assert pair_key(EventId(0, 0), EventId(1, 0)) in result.detected_pairs

    def test_communicating_overlap_is_detected(self):
        # Send lands inside the receiver's lifespan and the receiver
        # started first, so the pair must come out of the final check.
        config = fixture_config()
        events = (
            TraceEvent(EventId(0, 0), 0, 0, 100 * MS),
            TraceEvent(EventId(1, 0), 1, 50 * MS, 150 * MS),
        )
        messages = (TraceMessage(EventId(0, 0), EventId(1, 0), 60 * MS, 80 * MS),)
        result = run_trace(Trace(events, messages, config), DetectorFamily.SNAPSHOT)
        assert result.detected_pairs == {pair_key(EventId(0, 0), EventId(1, 0))}

    def test_payload_size_is_constant_in_process_count(self):
        # The announcement attached to an occurrence carries one scalar
        # word regardless of how many processes participate.
        for procs in (2, 8, 20):
            det = SnapshotDetector(0, procs)
            det.on_local_event(EventId(0, 0))
            assert det.counters.stamp_words_sent == 1
