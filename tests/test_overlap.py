"""The one wall-time overlap per trace, against the kernels it replaced.

``Trace.truth`` runs the overlap kernel ``overlap_columns`` and the
violation lift ``lift_violations`` once per trace; ``ground_truth`` and
the physical family both return it.  Its pairs, violations and the
physical family's counters must equal what the searchsorted kernel
replaced: the heap scan ``ground_truth`` and then ``physical_detect`` ran
(``_oracles.heap_scan_overlap``) and the boundary sweep before it
(``_oracles.boundary_sweep_overlap``), on the snapshot and vector corpora
and on the benchmark's traces.  The lift must equal ``violation_filter``
of the truth's pairs on every spec trace and on small traces whose events
carry no reading or one of two users in one of two rooms.
"""
import dataclasses

import pytest

from hypothesis import example, given, settings, strategies as st

from _corpora import long_traces_corpus, scale_dense_corpus, snapshot_corpus, spec_corpus, vector_corpus
from _oracles import boundary_sweep_overlap, brute_force_overlap, heap_scan_overlap, readings_of, span_columns
from snapdetect import simulate
from snapdetect.detectors import ContextReading, EventId, physical_detect, violation_filter
from snapdetect.metrics import OpCounters
from snapdetect.simulate import (
    DetectorFamily,
    SimConfig,
    Trace,
    TraceEvent,
    generate_trace,
    ground_truth,
    run_trace,
)


def spans_of(trace: Trace) -> list:
    return [(e.id, e.start_us, e.end_us) for e in trace.events]


def test_shared_overlap_matches_frozen_kernels():
    traces = pairs = violations = 0
    corpus = (*snapshot_corpus(), *vector_corpus(), *scale_dense_corpus(), *long_traces_corpus())
    for trace in corpus:
        # A fresh copy: the corpora are shared, and this must build its own truth.
        trace = dataclasses.replace(trace)
        swept = OpCounters(events_processed=len(trace.events))
        want = boundary_sweep_overlap(spans_of(trace), swept)
        assert heap_scan_overlap(spans_of(trace)) == want, trace.config
        truth = ground_truth(trace)
        assert truth.concurrent_pairs == want, trace.config
        assert truth.violations == violation_filter(want, readings_of(trace)), trace.config
        physical = run_trace(trace, DetectorFamily.PHYSICAL)
        assert physical.detected_pairs == want, trace.config
        assert physical.violations == truth.violations, trace.config
        assert physical.counters == swept, trace.config
        assert physical.dropped == 0
        traces += 1
        pairs += len(want)
        violations += len(truth.violations)
    assert traces == 664 + 540 + 3 + 4
    assert pairs > 0
    assert violations > 0


# Tiny integer spans: (start, length) with starts in 0..6 and lengths 1..4
# make equal starts, touching ends and nested spans common.
tiny_spans = st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), min_size=1, max_size=8)


@given(tiny_spans)
@example([(3, 2)])  # a single event
@example([(0, 3), (0, 2), (0, 3)])  # equal starts, one equal end
@example([(0, 2), (2, 2), (4, 1)])  # each end touches the next start
@example([(0, 6), (1, 2), (2, 1)])  # nested
def test_overlap_of_tiny_spans(shape):
    # Event k runs alone on process k, so any spans make a well-formed trace.
    events = tuple(
        TraceEvent(EventId(k, 0), k, start, start + length)
        for k, (start, length) in enumerate(shape)
    )
    config = SimConfig(nodes=max(2, len(events)), instances_per_node=1, seed=0)
    trace = Trace(events, (), config)
    want = brute_force_overlap(trace)
    counters, swept = OpCounters(), OpCounters()
    assert physical_detect(*span_columns(spans_of(trace)), counters) == want
    assert boundary_sweep_overlap(spans_of(trace), swept) == want
    assert counters == swept
    truth = ground_truth(trace)
    assert truth.concurrent_pairs == want
    assert truth.pair_checks == counters.pair_checks
    physical = run_trace(trace, DetectorFamily.PHYSICAL)
    assert physical.detected_pairs == want
    assert physical.counters == OpCounters(
        events_processed=len(events), pair_checks=counters.pair_checks
    )


def test_ground_truth_and_all_families_run_the_kernel_once(monkeypatch):
    calls = {"overlap_columns": 0, "lift_violations": 0, "violation_filter": 0}

    def counting(name):
        fn = getattr(simulate, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(simulate, name, counting(name))
    config = SimConfig(nodes=3, events_per_process=3, message_delay_us=(1_000, 5_000), seed=7)
    trace = generate_trace(config)
    truth = ground_truth(trace)
    assert truth.concurrent_pairs
    results = {family: run_trace(trace, family) for family in DetectorFamily}
    assert ground_truth(trace) is truth
    assert calls["overlap_columns"] == 1
    # Truth lifts its pairs once, on the kernel's columns; the physical
    # family lifts none of its own, and each other family lifts its own on
    # its index columns.  Every reading is a str, so no pair falls back to
    # the per-pair filter.
    assert calls["lift_violations"] == 3
    assert calls["violation_filter"] == 0
    physical = results[DetectorFamily.PHYSICAL]
    assert physical.detected_pairs is truth.concurrent_pairs
    assert physical.violations is truth.violations
    assert trace == generate_trace(config)  # the cache is no field of the trace


# Spans with distinct ids on up to three processes, listed in any order;
# lengths of 0 make empty spans.
any_spans = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 3)), st.integers(0, 6), st.integers(0, 4)),
    max_size=10,
    unique_by=lambda span: span[0],
)


@given(any_spans)
@example([])
@example([((1, 0), 0, 2), ((0, 1), 1, 2), ((0, 0), 1, 3)])  # ids out of order
@example([((1, 0), 2, 3), ((0, 1), 3, 0), ((1, 1), 3, 0), ((0, 0), 5, 0)])  # two empty at one start
def test_kernel_matches_heap_scan_in_any_order(shape):
    spans = [(EventId(*key), start, start + length) for key, start, length in shape]
    counters, scanned = OpCounters(), OpCounters()
    try:
        want = heap_scan_overlap(spans, scanned)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            physical_detect(*span_columns(spans), counters)
        assert str(info.value) == str(exc)  # the first empty span in (start, id) order
        return
    assert physical_detect(*span_columns(spans), counters) == want
    assert counters == scanned


def test_lift_matches_violation_filter_on_spec_traces():
    traces = violations = 0
    for trace in spec_corpus():
        truth = ground_truth(trace)
        assert truth.violations == violation_filter(truth.concurrent_pairs, readings_of(trace)), trace.config
        traces += 1
        violations += len(truth.violations)
    assert traces == 390
    assert violations > 0


def reading(user, location) -> ContextReading:
    return ContextReading(user=user, location=location, true_location=location, erroneous=False)


#: Readings an event may carry: none; one user in one room and in two;
#: a second user.
READINGS = (
    None,
    reading("u0", "R101"),
    reading("u0", "R102"),
    reading("u1", "R101"),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4), st.sampled_from(READINGS)), min_size=1, max_size=8)
)
@example([(0, 3, None), (1, 3, READINGS[1]), (2, 3, READINGS[2])])  # one user, two rooms, and no reading
@example([(0, 3, READINGS[1]), (1, 3, READINGS[3])])  # two users in one room
@example([(0, 3, READINGS[2]), (1, 3, READINGS[3]), (2, 3, READINGS[1])])  # one user in two rooms, another between
@example([(0, 3, None), (1, 3, None), (2, 3, READINGS[1])])  # two events without a reading
def test_lift_matches_violation_filter_on_odd_readings(shape):
    # Event k runs alone on process k, so any spans make a well-formed trace.
    events = tuple(
        TraceEvent(EventId(k, 0), k, start, start + length, r) for k, (start, length, r) in enumerate(shape)
    )
    trace = Trace(events, (), SimConfig(nodes=max(2, len(events)), instances_per_node=1, seed=0))
    pairs = brute_force_overlap(trace)
    truth = ground_truth(trace)
    assert truth.concurrent_pairs == pairs
    assert truth.violations == violation_filter(pairs, readings_of(trace))


@pytest.mark.parametrize(
    "user, location",
    [(1, "R101"), (True, "R101"), (["u0"], "R101"), ("u0", 1), ("u0", True)],
)
def test_reading_of_another_type_than_str_is_rejected_at_construction(user, location):
    """``1 == True``, and a list is unhashable: no such reading reaches the lift."""
    with pytest.raises(TypeError, match="must be a str"):
        reading(user, location)
