import random

import pytest

from _oracles import Interval, VectorStamp, brute_force_overlap, span_columns, vector_arrays, vector_pairs
from snapdetect.detectors import (
    ContextReading,
    EventId,
    pair_key,
    physical_detect,
    violation_filter,
)
from snapdetect.simulate import SimConfig, Trace, TraceEvent, generate_trace


def vec_interval(lo, hi):
    return Interval(VectorStamp(tuple(lo)), VectorStamp(tuple(hi)))


class TestVectorDetect:
    def test_mutual_endpoint_order_is_reported(self):
        # Each interval's start precedes the other's end: a genuine
        # message exchange in both directions.
        intervals = {
            EventId(0, 0): vec_interval([1, 0], [3, 2]),
            EventId(1, 0): vec_interval([0, 1], [2, 3]),
        }
        assert vector_pairs(*vector_arrays(intervals)) == {pair_key(EventId(0, 0), EventId(1, 0))}

    def test_one_directional_order_is_a_false_negative(self):
        # Only lo_j -> hi_k holds; the pair is truly concurrent but the
        # endpoint test stays silent.
        intervals = {
            EventId(0, 0): vec_interval([1, 0], [3, 0]),
            EventId(1, 0): vec_interval([0, 1], [2, 3]),
        }
        assert vector_pairs(*vector_arrays(intervals)) == set()

    def test_causally_ordered_intervals_not_reported(self):
        intervals = {
            EventId(0, 0): vec_interval([1, 0], [2, 0]),
            EventId(0, 1): vec_interval([3, 0], [4, 0]),
        }
        assert vector_pairs(*vector_arrays(intervals)) == set()

    def test_mixed_vector_lengths_rejected(self):
        intervals = {
            EventId(0, 0): vec_interval([1, 0], [2, 0]),
            EventId(1, 0): vec_interval([0, 1, 0], [0, 2, 0]),
        }
        with pytest.raises(ValueError):
            vector_arrays(intervals)


class TestPhysicalDetect:
    def test_overlap_reported(self):
        spans = [(EventId(0, 0), 10_000, 30_000), (EventId(1, 0), 20_000, 40_000)]
        assert physical_detect(*span_columns(spans)) == {pair_key(EventId(0, 0), EventId(1, 0))}

    def test_half_open_touch_not_reported(self):
        spans = [(EventId(0, 0), 10_000, 20_000), (EventId(1, 0), 20_000, 40_000)]
        assert physical_detect(*span_columns(spans)) == set()

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            physical_detect(*span_columns([(EventId(0, 0), 5, 5)]))

    def test_matches_brute_force_on_random_spans(self):
        rng = random.Random(11)
        for _ in range(50):
            events = []
            for p in range(3):
                t = rng.randint(0, 50)
                for s in range(6):
                    start = t + rng.randint(1, 20)
                    end = start + rng.randint(1, 30)
                    events.append(TraceEvent(EventId(p, s), p, start, end))
                    t = end
            trace = Trace(tuple(events), (), SimConfig(nodes=3, instances_per_node=1, seed=0))
            spans = [(e.id, e.start_us, e.end_us) for e in events]
            assert physical_detect(*span_columns(spans)) == brute_force_overlap(trace)

    def test_matches_oracle_on_generated_traces(self):
        for seed in range(20):
            trace = generate_trace(
                SimConfig(nodes=3, instances_per_node=2, events_per_process=4, seed=seed)
            )
            spans = [(e.id, e.start_us, e.end_us) for e in trace.events]
            assert physical_detect(*span_columns(spans)) == brute_force_overlap(trace)


def reading(user, location, true_location=None):
    true_location = location if true_location is None else true_location
    return ContextReading(
        user=user,
        location=location,
        true_location=true_location,
        erroneous=location != true_location,
    )


class TestViolationFilter:
    pair = pair_key(EventId(0, 0), EventId(1, 0))

    def test_same_user_different_locations(self):
        readings = {EventId(0, 0): reading("u1", "R101"), EventId(1, 0): reading("u1", "R102", "R101")}
        violations = violation_filter({self.pair}, readings)
        assert len(violations) == 1
        v = next(iter(violations))
        assert v.user == "u1" and set(v.locations) == {"R101", "R102"}

    def test_different_users_filtered_out(self):
        readings = {EventId(0, 0): reading("u1", "R101"), EventId(1, 0): reading("u2", "R102")}
        assert violation_filter({self.pair}, readings) == set()

    def test_same_location_filtered_out(self):
        readings = {EventId(0, 0): reading("u1", "R101"), EventId(1, 0): reading("u1", "R101")}
        assert violation_filter({self.pair}, readings) == set()

    def test_missing_reading_filtered_out(self):
        readings = {EventId(0, 0): reading("u1", "R101")}
        assert violation_filter({self.pair}, readings) == set()
