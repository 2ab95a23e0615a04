"""The slot-major blocked pair scan of ``vector_detect`` against its scalar loop.

``_oracles.scalar_vector_detect`` is the per-pair ``vector_lt`` loop the
scan replaced.  Detected pairs and ``pair_checks`` must be identical on
replayed traces and on hand-built interval maps, with the default block
size, with one-row blocks and with blocks whose row count leaves a
ragged last block.  Separate tests bound the scan's peak allocation.
"""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _corpora import vector_corpus
from _oracles import Interval, VectorStamp, scalar_vector_detect, vector_arrays
from snapdetect import detectors
from snapdetect.detectors import MAX_TICK, EventId, vector_detect
from snapdetect.metrics import OpCounters
from snapdetect.simulate import _replay_vector


def ragged_cells(intervals) -> int:
    """Block cells giving a row count that does not divide m (when m > 2)."""
    m = len(intervals)
    rows = next((k for k in range(2, m) if m % k), 2)
    return rows * m


def scan(intervals, cells):
    counters = OpCounters()
    with mock.patch.object(detectors, "VECTOR_SCAN_BLOCK_CELLS", cells):
        pairs = vector_detect(*vector_arrays(intervals), counters)
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
    """Few slot values, so equal stamps and ``lo == hi`` are common.

    The values sit just above 0, around the int16 limit the scan narrows
    to, or just below ``MAX_TICK``.
    """
    n = draw(st.integers(1, 3))
    base = draw(st.sampled_from([0, 2**15 - 3, MAX_TICK - 4]))
    ids = draw(
        st.lists(st.builds(EventId, st.integers(0, 3), st.integers(0, 5)), unique=True, max_size=9)
    )
    slots = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    intervals = {}
    for e in ids:
        lo, grow = draw(slots), draw(slots)
        intervals[e] = vec_interval([base + a for a in lo], [base + a + b for a, b in zip(lo, grow)])
    return intervals


_A, _B, _C = EventId(0, 0), EventId(1, 0), EventId(1, 1)


@settings(max_examples=300, deadline=None)
@given(interval_maps())
@example({})
@example({_A: vec_interval([1], [1])})
@example({_A: vec_interval([1], [1]), _B: vec_interval([1], [1])})  # equal stamps, lo == hi
@example({_A: vec_interval([0], [2]), _B: vec_interval([1], [3])})  # one slot, concurrent
@example({_A: vec_interval([0], [1]), _B: vec_interval([1], [2]), _C: vec_interval([1], [1])})
@example({_A: vec_interval([MAX_TICK - 1], [MAX_TICK]), _B: vec_interval([MAX_TICK - 1], [MAX_TICK])})
def test_interval_maps_match_scalar_loop(intervals):
    assert_same(intervals)


def peak_scan(ids, lo, hi, cells):
    """The scan's pairs and its peak traced allocation, in bytes."""
    tracemalloc.start()
    try:
        with mock.patch.object(detectors, "VECTOR_SCAN_BLOCK_CELLS", cells):
            pairs = vector_detect(ids, lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return pairs, peak


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
