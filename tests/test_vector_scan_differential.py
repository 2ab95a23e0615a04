"""The range-search pair scan of ``vector_detect`` against its scalar loop.

``_oracles.scalar_vector_detect`` is the per-pair ``vector_lt`` loop.
Detected pairs and ``pair_checks`` must be identical on replayed traces,
on traces whose events nest on one process and on hand-built interval
maps that meet the scan's contract, with the default chunk size, with
one-pair chunks and with chunks of uneven size.  A row whose candidates
exceed the chunk size is split across chunks, none over it.  Input that
breaks the contract must raise ``ValueError`` naming the first offending
event.  Separate tests bound the scan's peak allocation.
"""
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _corpora import MS, scale_dense_corpus, vector_corpus
from _oracles import (
    Interval,
    VectorStamp,
    index_pairs,
    scalar_vector_detect,
    stamp_replay_vector,
    vector_arrays,
    vector_pairs,
)
from snapdetect import detectors
from snapdetect.detectors import MAX_TICK, EventId, vector_detect
from snapdetect.metrics import OpCounters
from snapdetect.simulate import (
    DetectorFamily,
    SimConfig,
    Trace,
    TraceEvent,
    TraceMessage,
    _replay_vector,
    run_trace,
)


def ragged_cells(n: int) -> int:
    """Chunk cells for two candidates of n slots, and one over: chunks end at uneven places."""
    return 2 * n + 1


def scan(intervals, cells):
    counters = OpCounters()
    with mock.patch.object(detectors, "VECTOR_SCAN_BLOCK_CELLS", cells):
        pairs = vector_pairs(*vector_arrays(intervals), counters)
    return pairs, counters.pair_checks


def oracle(intervals):
    counters = OpCounters()
    pairs = scalar_vector_detect(intervals, counters)
    return pairs, counters.pair_checks


def assert_same(intervals):
    expected = oracle(intervals)
    n = len(next(iter(intervals.values())).lo.slots) if intervals else 0
    for cells in (detectors.VECTOR_SCAN_BLOCK_CELLS, 1, ragged_cells(n)):
        assert scan(intervals, cells) == expected, f"block cells {cells}"
    return expected


def vec_interval(lo, hi):
    return Interval(VectorStamp(tuple(lo)), VectorStamp(tuple(hi)))


def test_replayed_traces_match_scalar_loop():
    traces = pairs = rejected = 0
    for trace in vector_corpus():
        ids, lo, hi = _replay_vector(trace, OpCounters())
        intervals = {e: vec_interval(a, b) for e, a, b in zip(ids, lo.tolist(), hi.tolist())}
        found, checks = assert_same(intervals)
        m = len(intervals)
        assert checks == m * (m - 1) // 2
        traces += 1
        pairs += len(found)
        rejected += checks - len(found)
    assert traces == 540
    assert pairs > 0 and rejected > 0


@st.composite
def interval_maps(draw):
    """Maps that meet the scan's contract, with few slot values.

    Processes 0-3, n slots above the largest, and each process's own
    ``lo`` slot non-decreasing along its seqs; equal stamps and
    ``lo == hi`` are common.  The values sit just above 0, around 2**15 or
    just below ``MAX_TICK``.
    """
    base = draw(st.sampled_from([0, 2**15 - 3, MAX_TICK - 4]))
    ids = sorted(
        draw(st.lists(st.builds(EventId, st.integers(0, 3), st.integers(0, 5)), unique=True, max_size=9))
    )
    top = max((e.process for e in ids), default=0)
    n = draw(st.integers(top + 1, top + 2))
    slots = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    los = [draw(slots) for _ in ids]
    for p in {e.process for e in ids}:
        rows = [k for k, e in enumerate(ids) if e.process == p]
        for k, own in zip(rows, sorted(los[k][p] for k in rows)):
            los[k][p] = own
    return {
        e: vec_interval([base + a for a in lo], [base + a + b for a, b in zip(lo, draw(slots))])
        for e, lo in zip(ids, los)
    }


_A, _B, _C = EventId(0, 0), EventId(0, 1), EventId(0, 2)
_D, _E = EventId(1, 0), EventId(1, 1)


@settings(max_examples=300, deadline=None)
@given(interval_maps())
@example({})
@example({_A: vec_interval([1], [1])})
@example({_A: vec_interval([1, 1], [1, 1]), _D: vec_interval([1, 1], [1, 1])})  # equal stamps, lo == hi
@example({_A: vec_interval([0], [2]), _B: vec_interval([1], [3])})  # one slot, concurrent
@example({_A: vec_interval([0], [1]), _B: vec_interval([1], [2]), _C: vec_interval([1], [1])})
@example(
    {
        _A: vec_interval([MAX_TICK - 1] * 2, [MAX_TICK] * 2),
        _D: vec_interval([MAX_TICK - 1] * 2, [MAX_TICK] * 2),
    }
)
# E nests in D: only D's end has heard of A's start, so K[., 0] falls along process 1.
@example(
    {
        _A: vec_interval([1, 0], [3, 2]),
        _D: vec_interval([0, 1], [2, 5]),
        _E: vec_interval([0, 2], [0, 3]),
    }
)
def test_interval_maps_match_scalar_loop(intervals):
    assert_same(intervals)


def nested_trace(seed: int) -> Trace:
    """Events that overlap on their own process, so ends come out of seq order.

    Each process's starts are in seq order, but an event may start before
    the previous one ends and end before it.  Messages join random events
    of different processes, sent inside the sender's span and delivered
    before the receiver ends.
    """
    rng = random.Random(seed)
    procs = rng.randint(2, 5)
    events = []
    for p in range(procs):
        t = rng.randint(0, 5) * MS
        for s in range(rng.randint(1, 6)):
            start = t + rng.randint(0, 6) * MS
            end = start + rng.randint(1, 40) * MS
            events.append(TraceEvent(EventId(p, s), p, start, end))
            t = start if rng.random() < 0.6 else end
    messages = []
    for _ in range(rng.randint(0, 40)):
        a, b = rng.sample(events, 2)
        if a.process == b.process:
            continue
        send = rng.randrange(a.start_us, a.end_us)
        if send < b.end_us:
            messages.append(TraceMessage(a.id, b.id, send, rng.randrange(send, b.end_us)))
    config = SimConfig(nodes=procs, instances_per_node=1, events_per_process=1, seed=seed)
    return Trace(tuple(events), tuple(messages), config)


def nested_ends(trace: Trace) -> bool:
    """Whether some event ends before an event of its process with a lower seq."""
    ends = {}
    for ev in sorted(trace.events):
        ends.setdefault(ev.process, []).append(ev.end_us)
    return any(b < a for run in ends.values() for a, b in zip(run, run[1:]))


def test_nested_events_match_scalar_loop():
    traces = nested = pairs = 0
    for seed in range(400):
        trace = nested_trace(seed)
        intervals, _ = stamp_replay_vector(trace, OpCounters())
        want, want_checks = oracle(intervals)
        result = run_trace(trace, DetectorFamily.VECTOR)
        assert result.detected_pairs == want, seed
        assert result.counters.pair_checks == want_checks, seed
        traces += 1
        nested += nested_ends(trace)
        pairs += len(want)
    assert nested > traces // 2
    assert pairs > 0


def chunked_scan(ids, lo, hi, cells: int) -> tuple[set, list[int]]:
    """The scan's pairs with ``cells`` per chunk, and its candidate pairs per chunk."""
    sizes = []
    real = detectors._strictly_below

    def spy(a, b):
        sizes.append(len(a))
        return real(a, b)

    with mock.patch.object(detectors, "VECTOR_SCAN_BLOCK_CELLS", cells):
        with mock.patch.object(detectors, "_strictly_below", spy):
            pairs = vector_pairs(ids, lo, hi)
    return pairs, sizes[::2]  # two calls per chunk


def chunk_sizes(trace: Trace, cells: int) -> list[int]:
    """Candidate pairs per chunk of ``trace``'s scan with ``cells`` per chunk."""
    return chunked_scan(*_replay_vector(trace, OpCounters()), cells)[1]


def test_chunk_mocks_split_each_process_rows():
    trace = scale_dense_corpus()[0]
    default = chunk_sizes(trace, detectors.VECTOR_SCAN_BLOCK_CELLS)
    one_pair = chunk_sizes(trace, 1)
    ragged = chunk_sizes(trace, ragged_cells(trace.config.n_processes))
    assert len(default) == 1
    assert sum(one_pair) == sum(ragged) == sum(default)
    # Far more chunks than processes, so some process's rows span several.
    assert len(one_pair) > len(ragged) > 2 * trace.config.n_processes
    assert len(set(ragged)) > 1


def test_a_row_over_the_block_is_split_across_chunks():
    """Event (0, 0) is concurrent with all 12 events of process 1: one row of 12 candidates."""
    intervals = {EventId(0, 0): vec_interval((1, 0), (2, 100))}
    for k in range(12):
        intervals[EventId(1, k)] = vec_interval((0, 2 * k + 1), (1, 2 * k + 2))
    want = {(EventId(0, 0), EventId(1, k)) for k in range(12)}
    assert oracle(intervals) == (want, 13 * 12 // 2)
    n = 2
    for cells in (1, n, ragged_cells(n), 5 * n):
        pairs, sizes = chunked_scan(*vector_arrays(intervals), cells)
        assert pairs == want, f"block cells {cells}"
        assert sum(sizes) == 12
        assert len(sizes) > 1
        assert max(sizes) * n <= max(cells, n), f"block cells {cells}: chunks of {sizes} pairs"


@pytest.mark.parametrize(
    "ids, offender",
    [
        ([EventId(0, 1), EventId(0, 0)], EventId(0, 0)),
        ([EventId(0, 0), EventId(0, 0)], EventId(0, 0)),
        ([EventId(0, 0), EventId(1, 0), EventId(0, 1)], EventId(0, 1)),
    ],
    ids=["seq", "repeat", "process"],
)
def test_unsorted_ids_are_rejected(ids, offender):
    stamps = np.ones((len(ids), 2), dtype=np.int64)
    with pytest.raises(ValueError, match=re.escape(f"event {offender} follows")):
        vector_detect(ids, stamps, stamps)


@pytest.mark.parametrize(
    "ids, offender",
    [
        ([EventId(-1, 0), EventId(0, 0)], EventId(-1, 0)),
        ([EventId(0, 0), EventId(1, 0), EventId(2, 0), EventId(3, 0)], EventId(2, 0)),
    ],
    ids=["negative", "past-n"],
)
def test_process_without_a_slot_is_rejected(ids, offender):
    stamps = np.ones((len(ids), 2), dtype=np.int64)
    with pytest.raises(ValueError, match=re.escape(f"event {offender}: process is not one of the 2 slots")):
        vector_detect(ids, stamps, stamps)


def test_own_start_slot_falling_is_rejected():
    ids = [EventId(0, 0), EventId(0, 1), EventId(0, 2), EventId(1, 0)]
    lo = np.array([[1, 0], [2, 0], [1, 5], [0, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match=re.escape(f"event {EventId(0, 2)}: own start slot 1 is below 2")):
        vector_detect(ids, lo, lo + 1)


def test_ids_must_match_the_stamp_rows():
    stamps = np.ones((2, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="1 ids for lo"):
        vector_detect([EventId(0, 0)], stamps, stamps)


def peak_scan(ids, lo, hi, cells):
    """The scan's pairs and its peak traced allocation, in bytes."""
    tracemalloc.start()
    try:
        with mock.patch.object(detectors, "VECTOR_SCAN_BLOCK_CELLS", cells):
            columns = vector_detect(ids, lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return index_pairs(ids, *columns), peak


# 1,600 events x 80 slots: the (m, m, n) comparison cube would be ~200 MB.
SCAN_M, SCAN_N = 1600, 80
SCAN_CAP_BYTES = 8 * 2**20
SCAN_IDS = [EventId(k // 20, k % 20) for k in range(SCAN_M)]


def test_scan_peak_allocation_is_bounded():
    # Start stamps 2k in every slot, ends 2k + 3: only neighbours are concurrent.
    intervals = {
        e: vec_interval((2 * k,) * SCAN_N, (2 * k + 3,) * SCAN_N) for k, e in enumerate(SCAN_IDS)
    }
    pairs, peak = peak_scan(*vector_arrays(intervals), detectors.VECTOR_SCAN_BLOCK_CELLS)
    assert pairs == {(SCAN_IDS[k], SCAN_IDS[k + 1]) for k in range(SCAN_M - 1)}
    assert peak < SCAN_CAP_BYTES, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("slot", [5, MAX_TICK], ids=["int16", "int64"])
@pytest.mark.parametrize("cells", [detectors.VECTOR_SCAN_BLOCK_CELLS, 7 * SCAN_M], ids=["default", "ragged"])
def test_equal_stamps_scan_peak_allocation_is_bounded(cells, slot):
    """Every lo and hi is one vector: all pairs pass ``<=``, none passes ``<``."""
    stamps = np.full((SCAN_M, SCAN_N), slot, dtype=np.int64)
    pairs, peak = peak_scan(SCAN_IDS, stamps, stamps.copy(), cells)
    assert pairs == set()
    assert peak < SCAN_CAP_BYTES, f"peak {peak / 2**20:.1f} MiB"
