"""The int64-row vector replay against its one-``VectorStamp``-per-point form.

``_oracles.stamp_replay_vector`` is the replay built on ``vector_tick``
and ``vector_merge`` that ``simulate._replay_vector`` replaced.  Intervals,
the four counters and the full ``keep_points`` point list must be
identical on seeded traces, under a non-default tick and on the scenario
fixtures; both must fault on the same slot overflow.  On the same corpus,
``simulate._timeline``'s plain tuple sort must give the order of the
keyed sort it replaced.
"""
import itertools

import pytest

from _oracles import DELIVER, keyed_timeline, stamp_replay_vector
from snapdetect import scenarios
from snapdetect.detectors import EventId, vector_detect
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
from snapdetect.stamps import DEFAULT_PARAMS, MAX_TICK, ClockParams, StampOverflowError

NODES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
DELAYS_US = ((1_000, 5_000), (100, 40_000), SimConfig(nodes=2).message_delay_us)
SEEDS_PER_POINT = 9
PARAM_SEEDS = 100


def seeded_corpus():
    """540 seeded traces: nodes 2-20, three delay regimes, fan-out None/1."""
    grid = itertools.product(NODES, DELAYS_US, (None, 1))
    for i, (nodes, delay, fanout) in enumerate(grid):
        for k in range(SEEDS_PER_POINT):
            config = SimConfig(
                nodes=nodes,
                instances_per_node=1 + k % 2,
                events_per_process=max(1, 24 // nodes),
                message_delay_us=delay,
                peer_fanout=fanout,
                seed=1 + i * SEEDS_PER_POINT + k,
            )
            yield generate_trace(config), DEFAULT_PARAMS


def params_corpus():
    """Dense traces replayed with tick increment 3."""
    for seed in range(PARAM_SEEDS):
        config = SimConfig(
            nodes=2 + seed % 6,
            instances_per_node=1 + seed % 2,
            events_per_process=4,
            message_delay_us=DELAYS_US[seed % 2],
            peer_fanout=None if seed % 3 else 1,
            seed=5000 + seed,
        )
        yield generate_trace(config), ClockParams(d=3)


def full_corpus():
    yield from seeded_corpus()
    yield from params_corpus()
    for name in scenarios.FIXTURE_NAMES:
        yield scenarios.build_scenario(name), DEFAULT_PARAMS


def test_corpus_matches_reference():
    traces = deliveries = pairs = 0
    for trace, params in full_corpus():
        where = (trace.config, params)
        want_counters = OpCounters()
        want_intervals, want_points = stamp_replay_vector(trace, want_counters, params, True)
        for keep_points in (False, True):
            counters = OpCounters()
            intervals, points = _replay_vector(trace, counters, params, keep_points)
            assert intervals == want_intervals, where
            assert counters == want_counters, where
            assert points == (want_points if keep_points else []), where
        traces += 1
        deliveries += sum(p.kind == DELIVER for p in want_points)
        pairs += len(vector_detect(want_intervals))
    assert traces >= 500 + PARAM_SEEDS + len(scenarios.FIXTURE_NAMES)
    assert deliveries > 0
    assert pairs > 0


def test_timeline_matches_keyed_sort():
    traces = 0
    for trace, _ in full_corpus():
        assert _timeline(trace) == keyed_timeline(trace), trace.config
        traces += 1
    assert traces >= 500 + PARAM_SEEDS + len(scenarios.FIXTURE_NAMES)


def chain_trace(messages: int) -> Trace:
    """Process 0 sends ``messages`` messages to process 1 within one event each.

    Each process then has ``messages + 2`` replay points.
    """
    config = SimConfig(nodes=2, instances_per_node=1, events_per_process=1, seed=0)
    a, b = EventId(0, 0), EventId(1, 0)
    events = (TraceEvent(a, 0, 0, 1_000), TraceEvent(b, 1, 0, 1_000))
    sends = tuple(TraceMessage(a, b, 10 * k + 1, 10 * k + 5) for k in range(messages))
    return Trace(events, sends, config)


def overflow_corpus():
    yield pytest.param(chain_trace(0), id="no-messages")
    for name in scenarios.FIXTURE_NAMES:
        yield pytest.param(scenarios.build_scenario(name), id=f"scenario-{name}")
    config = SimConfig(nodes=3, events_per_process=3, message_delay_us=(1_000, 5_000), seed=7)
    yield pytest.param(generate_trace(config), id="generated")


@pytest.mark.parametrize("trace", overflow_corpus())
def test_second_tick_of_max_tick_overflows(trace):
    # Every process with an event has at least its start and end points.
    params = ClockParams(d=MAX_TICK)
    with pytest.raises(StampOverflowError):
        run_trace(trace, DetectorFamily.VECTOR, params)
    with pytest.raises(StampOverflowError):
        stamp_replay_vector(trace, OpCounters(), params)
    run_trace(trace, DetectorFamily.VECTOR, ClockParams(d=1))


def test_tick_reaching_max_tick_is_kept():
    # 2**63 - 1 is divisible by 7: five messages give each process seven
    # points, so the last tick lands exactly on MAX_TICK and one more overflows.
    params = ClockParams(d=MAX_TICK // 7)
    intervals, _ = _replay_vector(chain_trace(5), OpCounters(), params)
    assert intervals == stamp_replay_vector(chain_trace(5), OpCounters(), params)[0]
    assert intervals[EventId(0, 0)].hi.slots == (MAX_TICK, 0)
    assert intervals[EventId(1, 0)].hi.slots == (MAX_TICK - params.d, MAX_TICK)
    with pytest.raises(StampOverflowError):
        _replay_vector(chain_trace(6), OpCounters(), params)
    with pytest.raises(StampOverflowError):
        stamp_replay_vector(chain_trace(6), OpCounters(), params)
