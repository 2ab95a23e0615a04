"""The blocked numpy pair scan of ``vector_detect`` against its scalar loop.

``_oracles.scalar_vector_detect`` is the per-pair ``vector_lt`` loop the
scan replaced.  Detected pairs and ``pair_checks`` must be identical on
replayed traces and on hand-built interval maps, with the default block
size, with one-row blocks and with blocks whose row count leaves a
ragged last block.  A separate test bounds the scan's peak allocation.
"""
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from _corpora import vector_corpus
from _oracles import scalar_vector_detect
from snapdetect import detectors
from snapdetect.detectors import EventId, vector_detect
from snapdetect.metrics import OpCounters
from snapdetect.simulate import _replay_vector
from snapdetect.stamps import Interval, VectorStamp


def ragged_cells(intervals) -> int:
    """Block cells giving a row count that does not divide m (when m > 2)."""
    m = len(intervals)
    n = len(next(iter(intervals.values())).lo.slots) if intervals else 0
    rows = next((k for k in range(2, m) if m % k), 2)
    return rows * m * max(1, n)


def scan(intervals, cells):
    counters = OpCounters()
    with mock.patch.object(detectors, "VECTOR_SCAN_BLOCK_CELLS", cells):
        pairs = vector_detect(intervals, counters)
    return pairs, counters.pair_checks


def oracle(intervals):
    counters = OpCounters()
    pairs = scalar_vector_detect(intervals, counters)
    return pairs, counters.pair_checks


def assert_same(intervals):
    expected = oracle(intervals)
    for cells in (detectors.VECTOR_SCAN_BLOCK_CELLS, 1, ragged_cells(intervals)):
        assert scan(intervals, cells) == expected, f"block cells {cells}"
    return expected


def vec_interval(lo, hi):
    return Interval(VectorStamp(tuple(lo)), VectorStamp(tuple(hi)))


def test_replayed_traces_match_scalar_loop():
    traces = pairs = rejected = 0
    for trace in vector_corpus():
        intervals, _ = _replay_vector(trace, OpCounters())
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
    """Small slot values, so equal stamps and ``lo == hi`` are common."""
    n = draw(st.integers(1, 3))
    ids = draw(
        st.lists(st.builds(EventId, st.integers(0, 3), st.integers(0, 5)), unique=True, max_size=9)
    )
    slots = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    intervals = {}
    for e in ids:
        lo, grow = draw(slots), draw(slots)
        intervals[e] = vec_interval(lo, [a + b for a, b in zip(lo, grow)])
    return intervals


_A, _B, _C = EventId(0, 0), EventId(1, 0), EventId(1, 1)


@settings(max_examples=300, deadline=None)
@given(interval_maps())
@example({})
@example({_A: vec_interval([1], [1])})
@example({_A: vec_interval([1], [1]), _B: vec_interval([1], [1])})  # equal stamps, lo == hi
@example({_A: vec_interval([0], [2]), _B: vec_interval([1], [3])})  # one slot, concurrent
@example({_A: vec_interval([0], [1]), _B: vec_interval([1], [2]), _C: vec_interval([1], [1])})
def test_interval_maps_match_scalar_loop(intervals):
    assert_same(intervals)


def test_scan_peak_allocation_is_bounded():
    """1,600 events x 80 slots: the (m, m, n) comparison cube would be ~200 MB."""
    m, n = 1600, 80
    # Start stamps 2k in every slot, ends 2k + 3: only neighbours are concurrent.
    ids = [EventId(k // 20, k % 20) for k in range(m)]
    intervals = {e: vec_interval((2 * k,) * n, (2 * k + 3,) * n) for k, e in enumerate(ids)}
    cap_bytes = 8 * 2**20
    tracemalloc.start()
    try:
        pairs = vector_detect(intervals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs == {(ids[k], ids[k + 1]) for k in range(m - 1)}
    assert peak < cap_bytes, f"peak {peak / 2**20:.1f} MiB"
