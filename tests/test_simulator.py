from dataclasses import replace

import pytest

from _oracles import (
    END,
    START,
    brute_force_overlap,
    causal_closure,
    readings_of,
    timeline_point_stamps,
    vector_lt,
    vector_point_stamps,
)
from snapdetect.detectors import EventId, pair_key
from snapdetect.metrics import score
from snapdetect.simulate import (
    ConfigError,
    DetectorFamily,
    SimConfig,
    Trace,
    TraceEvent,
    generate_trace,
    ground_truth,
    run_trace,
    snapshot_intervals,
)


def small_config(**overrides):
    defaults = dict(
        nodes=3,
        instances_per_node=2,
        events_per_process=4,
        message_delay_us=(500, 20_000),
        seed=1,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(nodes=1), "nodes"),
            (dict(error_rate=1.0), "error_rate"),
            (dict(event_lifespan_us=(50, 20)), "event_lifespan_us"),
            (dict(message_delay_us=(-1, 5)), "message_delay_us"),
            (dict(stay_mean_us=0), "stay_mean_us"),
            (dict(peer_fanout=0), "peer_fanout"),
        ],
    )
    def test_invalid_field_is_named(self, overrides, field):
        with pytest.raises(ConfigError) as exc:
            generate_trace(small_config(**overrides))
        assert exc.value.field == field

    # Validated only: a horizon this long makes generation loop for hours.
    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(event_lifespan_us=(2**62, 2**62)), "event_lifespan_us"),
            (dict(message_delay_us=(2**63, 2**64)), "message_delay_us"),
            (dict(start_jitter_us=2**63), "start_jitter_us"),
            (dict(inter_event_gap_us=(0, 2**61)), "inter_event_gap_us"),
        ],
    )
    def test_horizon_past_int64_is_named(self, overrides, field):
        with pytest.raises(ConfigError, match="exceeds 2\\*\\*63 - 1") as exc:
            small_config(**overrides).validate()
        assert exc.value.field == field

    def test_horizon_at_int64_max_validates(self):
        config = small_config(start_jitter_us=0, inter_event_gap_us=(0, 0), event_lifespan_us=(1, 1))
        room = 2**63 - 1 - config.events_per_process
        replace(config, message_delay_us=(0, room)).validate()
        with pytest.raises(ConfigError) as exc:
            replace(config, message_delay_us=(0, room + 1)).validate()
        assert exc.value.field == "message_delay_us"


class TestGeneration:
    def test_deterministic_for_fixed_seed(self):
        config = small_config()
        assert generate_trace(config) == generate_trace(config)

    def test_minimal_config_event_count(self):
        trace = generate_trace(
            SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=42)
        )
        assert len(trace.events) == 2

    def test_zero_error_rate_has_no_corruption(self):
        trace = generate_trace(small_config(error_rate=0.0))
        assert all(not e.reading.erroneous for e in trace.events)

    def test_error_rate_does_not_perturb_layout(self):
        low = generate_trace(small_config(error_rate=0.0))
        high = generate_trace(small_config(error_rate=0.9))
        assert [(e.id, e.start_us, e.end_us) for e in low.events] == [
            (e.id, e.start_us, e.end_us) for e in high.events
        ]

    def test_events_at_one_process_never_overlap(self):
        trace = generate_trace(small_config())
        by_proc = {}
        for e in trace.events:
            by_proc.setdefault(e.process, []).append(e)
        for events in by_proc.values():
            events.sort(key=lambda e: e.start_us)
            for a, b in zip(events, events[1:]):
                assert a.end_us <= b.start_us

    def test_message_sanity(self):
        trace = generate_trace(small_config())
        spans = {e.id: (e.start_us, e.end_us) for e in trace.events}
        assert trace.messages
        for m in trace.messages:
            assert m.deliver_us >= m.send_us
            start, end = spans[m.from_event]
            assert start <= m.send_us < end
            start, end = spans[m.to_event]
            assert start <= m.deliver_us < end

    def test_peer_fanout_limits_targets(self):
        trace = generate_trace(small_config(peer_fanout=1))
        per_event = {}
        for m in trace.messages:
            per_event[m.from_event] = per_event.get(m.from_event, 0) + 1
        assert per_event and all(n == 1 for n in per_event.values())


class TestGroundTruth:
    def test_matches_brute_force(self):
        for seed in range(20):
            trace = generate_trace(small_config(seed=seed))
            assert ground_truth(trace).concurrent_pairs == brute_force_overlap(trace)

    def test_pairs_are_canonical_and_irreflexive(self):
        truth = ground_truth(generate_trace(small_config()))
        for a, b in truth.concurrent_pairs:
            assert a < b

    def test_violations_need_same_user_and_differing_locations(self):
        truth = ground_truth(generate_trace(small_config(error_rate=0.5, seed=3)))
        readings = readings_of(generate_trace(small_config(error_rate=0.5, seed=3)))
        for v in truth.violations:
            a, b = v.pair
            assert readings[a].user == readings[b].user
            assert readings[a].location != readings[b].location


class TestReplay:
    def test_replay_is_deterministic(self):
        trace = generate_trace(small_config())
        for family in DetectorFamily:
            first = run_trace(trace, family)
            second = run_trace(trace, family)
            assert first.detected_pairs == second.detected_pairs
            assert first.counters == second.counters

    def test_physical_family_equals_ground_truth(self):
        trace = generate_trace(small_config())
        result = run_trace(trace, DetectorFamily.PHYSICAL)
        assert result.detected_pairs == ground_truth(trace).concurrent_pairs

    def test_snapshot_family_is_sound(self):
        for seed in range(20):
            trace = generate_trace(small_config(seed=seed))
            result = run_trace(trace, DetectorFamily.SNAPSHOT)
            assert result.detected_pairs <= ground_truth(trace).concurrent_pairs

    def test_vector_family_underreports_truth(self):
        for seed in range(20):
            trace = generate_trace(small_config(seed=seed))
            result = run_trace(trace, DetectorFamily.VECTOR)
            assert result.detected_pairs <= ground_truth(trace).concurrent_pairs


class TestCausalProperties:
    def test_scalar_intervals_respect_causal_order(self):
        # If one event's end causally reaches another's start, the scalar
        # intervals must never claim the reverse order.
        for seed in range(10):
            trace = generate_trace(small_config(seed=seed))
            closure = causal_closure(trace)
            intervals = snapshot_intervals(trace)
            for a in trace.events:
                for b in trace.events:
                    if a.id == b.id or (START, b.id) not in closure[(END, a.id)]:
                        continue
                    # Not AFTER: b's interval does not end at or before a's starts.
                    (a_lo, _), (_, b_hi) = intervals[a.id], intervals[b.id]
                    assert not b_hi <= a_lo

    def test_scalar_interval_order_does_not_imply_causality(self):
        # Counterexample: no messages flow, yet the second event's scalar
        # interval sits entirely after the first's.  Scalar interval order
        # does not imply causal order; the converse holds only for vector
        # stamps.
        e1, e2 = EventId(0, 0), EventId(1, 0)
        events = (TraceEvent(e1, 0, 0, 10_000), TraceEvent(e2, 1, 20_000, 30_000))
        config = SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=0)
        trace = Trace(events, (), config)
        closure = causal_closure(trace)
        intervals = snapshot_intervals(trace)
        (_, e1_hi), (e2_lo, _) = intervals[e1], intervals[e2]
        assert e1_hi <= e2_lo  # e1's interval is BEFORE e2's
        assert (START, e2) not in closure[(END, e1)]

    def test_vector_stamps_characterize_causality_exactly(self):
        for seed in range(10):
            trace = generate_trace(
                small_config(nodes=3, instances_per_node=1, events_per_process=2, seed=seed)
            )
            closure = causal_closure(trace)
            keyed = timeline_point_stamps(trace, vector_point_stamps(trace))
            assert len(keyed) == len(closure)
            for a in keyed:
                for b in keyed:
                    if a == b:
                        continue
                    assert (b in closure[a]) == vector_lt(keyed[a], keyed[b])


class TestDelayConvergence:
    def test_low_asynchrony_approaches_physical_accuracy(self):
        def mean_recall(family, delay_us):
            values = []
            for seed in range(8):
                trace = generate_trace(
                    small_config(message_delay_us=delay_us, seed=seed)
                )
                truth = ground_truth(trace)
                values.append(score(run_trace(trace, family).detected_pairs, truth).recall)
            return sum(values) / len(values)

        for family in (DetectorFamily.SNAPSHOT, DetectorFamily.VECTOR):
            fast = mean_recall(family, (0, 1_000))
            slow = mean_recall(family, (250_000, 8_000_000))
            assert fast > slow  # trend only; physical recall is 1.0 by construction
