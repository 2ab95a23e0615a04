"""Seeded trace corpora that more than one differential test replays."""
from __future__ import annotations

import functools
import itertools

from snapdetect.simulate import SimConfig, Trace, generate_trace

NODES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
DELAYS_US = ((1_000, 5_000), (100, 40_000), SimConfig(nodes=2).message_delay_us)
SEEDS_PER_POINT = 9


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
