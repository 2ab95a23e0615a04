"""Seeded trace corpora that more than one differential test replays."""
from __future__ import annotations

import functools
import itertools
from pathlib import Path

from snapdetect import scenarios
from snapdetect.experiment import config_for_point, load_spec
from snapdetect.detectors import EventId
from snapdetect.simulate import SimConfig, Trace, TraceEvent, TraceMessage, generate_trace

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.json"))
NODES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
DELAYS_US = ((1_000, 5_000), (100, 40_000), SimConfig(nodes=2).message_delay_us)
SEEDS_PER_POINT = 9

MS = 1000
SNAPSHOT_SEEDS_PER_POINT = 5
SNAPSHOT_DENSE_SEEDS = 120


@functools.cache
def vector_corpus() -> tuple[Trace, ...]:
    """540 seeded traces: nodes 2-20, three delay regimes, fan-out None/1.

    Generated once per test session; traces are immutable, so the vector
    replay and pair-scan tests share them.
    """
    traces = []
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
            traces.append(generate_trace(config))
    return tuple(traces)


def _snapshot_generated():
    """Seeded traces over nodes 2-7, instances 1-3, three delay regimes, fan-out None/1."""
    grid = itertools.product(range(2, 8), (1, 2, 3), DELAYS_US, (None, 1))
    for i, (nodes, instances, delay, fanout) in enumerate(grid):
        for k in range(SNAPSHOT_SEEDS_PER_POINT):
            config = SimConfig(
                nodes=nodes,
                instances_per_node=instances,
                events_per_process=4,
                message_delay_us=delay,
                peer_fanout=fanout,
                seed=1 + i * SNAPSHOT_SEEDS_PER_POINT + k,
            )
            yield generate_trace(config)


def _snapshot_dense():
    """Dense traces: nodes 2-5, instances 1-3, 1-5 ms and 0.1-40 ms delays."""
    for seed in range(SNAPSHOT_DENSE_SEEDS):
        config = SimConfig(
            nodes=2 + seed % 4,
            instances_per_node=1 + seed % 3,
            events_per_process=4,
            message_delay_us=DELAYS_US[seed % 2],
            peer_fanout=None if seed % 2 else 1,
            seed=1000 + seed,
        )
        yield generate_trace(config)


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


@functools.cache
def snapshot_corpus() -> tuple[Trace, ...]:
    """The 664-trace snapshot corpus, generated once per test session."""
    return (
        *_snapshot_generated(),
        *_snapshot_dense(),
        *(scenarios.build_scenario(name) for name in scenarios.FIXTURE_NAMES),
        drop_trace(),
    )


@functools.cache
def scale_dense_corpus() -> tuple[Trace, ...]:
    """Message-heavy traces: 5, 10 and 20 nodes, 1-5 ms, 20 events per process.

    The configs of the benchmark's ``scale_dense`` workload at its default
    seed, generated once per test session.
    """
    configs = (
        SimConfig(
            nodes=nodes,
            instances_per_node=2,
            events_per_process=20,
            message_delay_us=(1_000, 5_000),
            seed=3,
        )
        for nodes in (5, 10, 20)
    )
    return tuple(generate_trace(config) for config in configs)


def long_traces_corpus():
    """Long traces: 4 nodes x 2 instances x 150 events, fan-out 1, 1-5 ms.

    The configs of the benchmark's ``long_traces`` workload at its default
    seed (four traces from seed 1).
    """
    for seed in range(1, 5):
        config = SimConfig(
            nodes=4,
            instances_per_node=2,
            events_per_process=150,
            message_delay_us=(1_000, 5_000),
            peer_fanout=1,
            seed=seed,
        )
        yield generate_trace(config)


def spec_corpus():
    """The 390 traces of the checked-in specs, one per (point, seed) cell."""
    return map(generate_trace, spec_configs())


# Configs the generator is checked on: every spec cell, the benchmark's, and
# seeded grids over the draws' edge cases.

#: (lo, hi) delay spans of width 0, 1, 4,000, 7.75M, 2**31 and 2**32.
DELAY_SPANS = (
    (3_000, 3_000),
    (2_000, 2_001),
    (1_000, 5_000),
    SimConfig(nodes=2).message_delay_us,
    (10_000, 10_000 + 2**31),
    (5_000, 5_000 + 2**32),
)
FANOUTS = (None, 1, 3)
JITTERS = (0, SimConfig(nodes=2).start_jitter_us)
#: Short lifespans, and lifespans of 2**32 us or more, whose send draws
#: take two words each.
LIFESPANS = ((2_000, 12_000), (2**32, 2**32 + 50_000))
GENERATION_SEEDS_PER_POINT = 9
#: Lifespans on both sides of 2**32 us: one trace's sends mix one-word
#: and two-word draws.
STRADDLING_LIFESPAN = (2**32 - 40_000, 2**32 + 40_000)


def spec_configs():
    """The configs of the checked-in specs, one per (point, seed) cell."""
    for path in SPECS:
        spec = load_spec(path)
        for point in spec.points:
            for seed in spec.seeds:
                yield config_for_point(spec.base, spec.axis, point, seed)


def benchmark_configs():
    """The dense (5, 10, 20 nodes, seed 3) and long (seeds 1-4) benchmark traces."""
    for nodes in (5, 10, 20):
        yield SimConfig(
            nodes=nodes,
            instances_per_node=2,
            events_per_process=20,
            message_delay_us=(1_000, 5_000),
            seed=3,
        )
    for seed in range(1, 5):
        yield SimConfig(
            nodes=4,
            instances_per_node=2,
            events_per_process=150,
            message_delay_us=(1_000, 5_000),
            peer_fanout=1,
            seed=seed,
        )


def seeded_configs():
    """648 small configs over every lifespan, delay span, fan-out and jitter."""
    grid = itertools.product(LIFESPANS, DELAY_SPANS, FANOUTS, JITTERS)
    for i, (lifespan, delay, fanout, jitter) in enumerate(grid):
        for k in range(GENERATION_SEEDS_PER_POINT):
            yield SimConfig(
                nodes=2 + k % 4,
                instances_per_node=1 + k % 2,
                events_per_process=3 + k % 5,
                event_lifespan_us=lifespan,
                inter_event_gap_us=(0, 4_000),
                message_delay_us=delay,
                start_jitter_us=jitter,
                peer_fanout=fanout,
                seed=7 + i * GENERATION_SEEDS_PER_POINT + k,
            )




def wide_fanout_configs():
    """72 configs whose every event messages all of its 16, 17 or 39 peers.

    Lifespans short, of 2**32 us or more, and on both sides of 2**32, with
    four delay spans; fan-out None, and one past the peers, which also
    messages every peer.
    """
    shapes = ((9, 2), (17, 1), (20, 2))
    grid = itertools.product(shapes, (*LIFESPANS, STRADDLING_LIFESPAN), DELAY_SPANS[2:], (None, 64))
    for i, ((nodes, instances), lifespan, delay, fanout) in enumerate(grid):
        yield SimConfig(
            nodes=nodes,
            instances_per_node=instances,
            events_per_process=2 + i % 3,
            event_lifespan_us=lifespan,
            inter_event_gap_us=(0, 4_000),
            message_delay_us=delay,
            peer_fanout=fanout,
            seed=5_000 + i,
        )
