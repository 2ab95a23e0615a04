"""The merge-at-deliveries vector replay against its one-``VectorStamp``-per-point form.

``_oracles.stamp_replay_vector`` is the replay built on ``vector_tick``
and ``vector_merge`` that ``simulate._replay_vector`` replaced.  The ids
and the ``lo``/``hi`` stamp arrays (against ``vector_arrays`` of the
reference's intervals), the four counters and every point's stamp (the
rows of ``vector_point_stamps``) must be identical on seeded traces, on
dense traces and on the scenario fixtures, and on traces whose ``known``
rows are uint8, uint16 and uint32; both must fault on the same slot
overflow.  On the same corpus, ``simulate._timeline``'s sorted columns
must give the order of the keyed tuple sort they replaced.
"""
import numpy as np
import pytest

import _oracles
from _corpora import DELAYS_US, long_traces_corpus, scale_dense_corpus, vector_corpus
from _oracles import keyed_columns, stamp_replay_vector, vector_arrays, vector_pairs, vector_point_stamps
from snapdetect import detectors, scenarios, simulate
from snapdetect.detectors import EventId, StampOverflowError
from snapdetect.metrics import OpCounters
from snapdetect.simulate import (
    DetectorFamily,
    SimConfig,
    Trace,
    TraceEvent,
    TraceMessage,
    _replay_vector,
    _timeline,
    generate_trace,
    run_trace,
)

DENSE_SEEDS = 100


def dense_corpus():
    """Dense traces: nodes 2-7, instances 1-2, 1-5 ms and 0.1-40 ms delays."""
    for seed in range(DENSE_SEEDS):
        config = SimConfig(
            nodes=2 + seed % 6,
            instances_per_node=1 + seed % 2,
            events_per_process=4,
            message_delay_us=DELAYS_US[seed % 2],
            peer_fanout=None if seed % 3 else 1,
            seed=5000 + seed,
        )
        yield generate_trace(config)


def full_corpus():
    yield from vector_corpus()
    yield from dense_corpus()
    for name in scenarios.FIXTURE_NAMES:
        yield scenarios.build_scenario(name)


def assert_matches_reference(trace: Trace) -> tuple[int, int]:
    """Ids, ``lo``/``hi``, counters and point stamps equal the reference's; its pair count."""
    where = trace.config
    want_counters, counters = OpCounters(), OpCounters()
    want_intervals, want_points = stamp_replay_vector(trace, want_counters)
    want_ids, want_lo, want_hi = vector_arrays(want_intervals)
    ids, lo, hi = _replay_vector(trace, counters)
    assert ids == want_ids, where
    assert lo.dtype == hi.dtype == np.int64, where
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi), where
    assert counters == want_counters, where
    points = vector_point_stamps(trace)
    assert points.dtype == np.int64, where
    assert points.tolist() == [list(p.slots) for p in want_points], where
    return len(vector_pairs(want_ids, want_lo, want_hi))


def test_corpus_matches_reference():
    traces = deliveries = pairs = 0
    for trace in full_corpus():
        pairs += assert_matches_reference(trace)
        traces += 1
        deliveries += len(trace.messages)
    assert traces == 643
    assert deliveries > 0
    assert pairs > 0


def test_benchmark_shapes_match_reference():
    # Wide causal levels (scale_dense: about 24 rows a level at 20 nodes)
    # and long chains (long_traces: about one level per three deliveries).
    traces = (*scale_dense_corpus(), *long_traces_corpus())
    pairs = sum(map(assert_matches_reference, traces))
    assert len(traces) == 7
    assert sum(len(t.messages) for t in traces) > 30_000
    assert pairs > 0


def one_event_each(procs: int) -> tuple[SimConfig, list[EventId], tuple[TraceEvent, ...]]:
    """``procs`` processes with one event each, all open over [0, 10 ms)."""
    config = SimConfig(nodes=procs, instances_per_node=1, events_per_process=1, seed=0)
    ids = [EventId(p, 0) for p in range(procs)]
    return config, ids, tuple(TraceEvent(e, e.process, 0, 10_000) for e in ids)


def relay_trace(procs: int) -> Trace:
    """Process p relays to p + 1 after its own delivery: each delivery is its own causal level."""
    config, ids, events = one_event_each(procs)
    sends = tuple(TraceMessage(ids[p], ids[p + 1], 10 * p + 1, 10 * p + 5) for p in range(procs - 1))
    return Trace(events, sends, config)


def fan_out_trace(procs: int) -> Trace:
    """Process 0 sends once to each other process: every delivery shares causal level 1.

    A fan-in cannot share a level, since each delivery to one receiver
    merges into the row its previous delivery wrote.  The sends are
    delivered in reverse order, so each one's count in slot 0 differs.
    """
    config, ids, events = one_event_each(procs)
    sends = tuple(TraceMessage(ids[0], ids[p], 10 * p, 1_000 - 10 * p) for p in range(1, procs))
    return Trace(events, sends, config)


def overtaken_trace() -> Trace:
    """Process 0's second message to process 1 arrives first.

    At the first message's delivery process 1 already knows a later count
    of process 0 than the send's own, so the merge must keep it.
    """
    config, ids, events = one_event_each(2)
    sends = (TraceMessage(ids[0], ids[1], 10, 900), TraceMessage(ids[0], ids[1], 20, 100))
    return Trace(events, sends, config)


@pytest.mark.parametrize(
    "trace",
    [relay_trace(2), relay_trace(12), fan_out_trace(2), fan_out_trace(12), overtaken_trace()],
    ids=["relay-2", "relay-12", "fan-out-2", "fan-out-12", "overtaken"],
)
def test_hand_built_level_shapes_match_reference(trace):
    assert_matches_reference(trace)


def test_hand_built_shapes_stamp_as_expected():
    # The relay's last process has heard of every earlier relay.
    hi = vector_point_stamps(relay_trace(4))[-4:]
    assert hi.tolist() == [[3, 0, 0, 0], [2, 4, 0, 0], [2, 3, 4, 0], [2, 3, 3, 3]]
    # Process 1 keeps slot 0 at 3, the overtaking send's count, when the
    # send at count 2 arrives.
    points = vector_point_stamps(overtaken_trace())
    assert points.tolist() == [[1, 0], [0, 1], [2, 0], [3, 0], [3, 2], [3, 3], [4, 0], [3, 4]]


def test_timeline_matches_keyed_sort():
    traces = 0
    for trace in full_corpus():
        timeline = _timeline(trace)
        assert [c.dtype for c in timeline] == [np.int8, np.int32, np.int32]
        assert [c.tolist() for c in timeline] == keyed_columns(trace), trace.config
        traces += 1
    assert traces == 643


def chain_trace(messages: int) -> Trace:
    """Process 0 sends ``messages`` messages to process 1 within one event each.

    Each process then has ``messages + 2`` replay points.  The events last
    1 ms, or longer where the sends need it.
    """
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=0)
    a, b = EventId(0, 0), EventId(1, 0)
    end_us = max(1_000, 10 * messages + 10)
    events = (TraceEvent(a, 0, 0, end_us), TraceEvent(b, 1, 0, end_us))
    sends = tuple(TraceMessage(a, b, 10 * k + 1, 10 * k + 5) for k in range(messages))
    return Trace(events, sends, config)


ROW_WIDTHS = {
    # 70,002 points per process: past uint16.
    "chain-70000": (lambda: chain_trace(70_000), np.uint32),
    "scenario-a": (lambda: scenarios.build_scenario("a"), np.uint8),
    # The benchmark's 20-node trace: its largest count is 1,342.
    "scale-dense-20": (lambda: scale_dense_corpus()[-1], np.uint16),
}


@pytest.mark.parametrize("case", ROW_WIDTHS)
def test_rows_take_the_width_of_their_largest_count(case):
    """``known`` is as narrow as its counts allow, and the stamps read from it are the reference's int64 ones."""
    build, dtype = ROW_WIDTHS[case]
    trace = build()
    assert simulate._vector_rows(trace)[0].dtype == dtype
    assert_matches_reference(trace)


def overflow_corpus():
    yield pytest.param(chain_trace(0), id="no-messages")
    for name in scenarios.FIXTURE_NAMES:
        yield pytest.param(scenarios.build_scenario(name), id=f"scenario-{name}")
    config = SimConfig(nodes=3, events_per_process=3, message_delay_us=(1_000, 5_000), seed=7)
    yield pytest.param(generate_trace(config), id="generated")


def cap_ticks(monkeypatch, cap: int) -> None:
    """Lower ``MAX_TICK`` in every module that reads it, ``VectorStamp``'s included."""
    for module in (detectors, simulate, _oracles):
        monkeypatch.setattr(module, "MAX_TICK", cap)


@pytest.mark.parametrize("trace", overflow_corpus())
def test_second_tick_of_max_tick_overflows(trace, monkeypatch):
    # Every process with an event has at least its start and end points.
    run_trace(trace, DetectorFamily.VECTOR)
    cap_ticks(monkeypatch, 1)
    with pytest.raises(StampOverflowError):
        run_trace(trace, DetectorFamily.VECTOR)
    with pytest.raises(StampOverflowError):
        vector_point_stamps(trace)
    with pytest.raises(StampOverflowError):
        stamp_replay_vector(trace, OpCounters())


def test_tick_reaching_max_tick_is_kept(monkeypatch):
    # Five messages give each process seven points, so with a cap of 7 the
    # last tick lands exactly on it and a sixth message overflows.
    cap_ticks(monkeypatch, 7)
    ids, lo, hi = _replay_vector(chain_trace(5), OpCounters())
    want_ids, want_lo, want_hi = vector_arrays(stamp_replay_vector(chain_trace(5), OpCounters())[0])
    assert ids == want_ids == [EventId(0, 0), EventId(1, 0)]
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    assert hi.tolist() == [[7, 0], [6, 7]]
    with pytest.raises(StampOverflowError):
        _replay_vector(chain_trace(6), OpCounters())
    with pytest.raises(StampOverflowError):
        stamp_replay_vector(chain_trace(6), OpCounters())
