"""Concurrent-event detectors.

Three detector families read the same trace.  The snapshot and vector
families replay it in one order, the columnar timeline that
``simulate.Trace.timeline`` builds once per trace:

* ``SnapshotDetector`` -- one scalar snapshot clock per process; a
  communicating pair (b, c) is reported as concurrent when the send stamp
  x of b's message lands inside c's final logical interval:
  ``c.lo <= x < c.hi``.  The replay drives it through ``on_local_event``,
  ``on_send``, ``on_broadcasts`` and ``on_message(sender, receiver,
  send_stamp)``; a delivery is three plain arguments, not a record.
* ``vector_detect`` -- the vector-clock baseline: a quadratic pairwise
  scan reporting pairs whose interval endpoints are mutually ordered by
  happened-before (each start precedes the other's end).  It takes the
  stamps as int64 (m, n) arrays, as the vector replay produces them, and
  makes m(m-1)/2 logical checks (counted in ``pair_checks``).  They are
  evaluated slot-major in bounded row blocks: two bool accumulators are
  ANDed one slot at a time, and strictness (``a != b``) compares row ids that a
  ``lexsort`` of all stamp rows assigns, equal rows equal ids.
* ``physical_detect`` -- wall-clock interval overlap under synchronized
  physical clocks, via a sorted start scan.  It is the one overlap
  kernel: ``simulate.Trace.truth`` runs it once per trace, and both
  ground truth and the physical family read that result.

``violation_filter`` lifts detected concurrent pairs into context
violations under the constraint that one user cannot be read at two
different locations at the same time.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .metrics import OpCounters

PairKey = tuple["EventId", "EventId"]

#: Stamps are 64-bit non-negative integers.  Overflow is a hard fault,
#: never wraparound; desk-scale traces cannot approach this bound.
MAX_TICK = 2**63 - 1

#: Pairs (rows x columns) per row block of the vector pair scan.  The
#: scan is slot-major: its two accumulators start as the row-id
#: strictness masks and take one slot at a time, so its temporaries are
#: a few bool arrays of this many cells whatever m and n are (64 KB
#: each, which stays in cache).
VECTOR_SCAN_BLOCK_CELLS = 1 << 16


class EventId(NamedTuple):
    """Globally unique event identity: (process index, per-process seq).

    A tuple, so hashing and ordering run in C; the hash equals
    ``hash((process, seq))``.
    """

    process: int
    seq: int


def pair_key(a: EventId, b: EventId) -> PairKey:
    """Canonical unordered form of an event pair."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ContextReading:
    """A location reading attached to an event, possibly corrupted."""

    user: str
    location: str
    true_location: str
    erroneous: bool

    def __post_init__(self) -> None:
        if self.erroneous != (self.location != self.true_location):
            raise ValueError("erroneous flag inconsistent with locations")


@dataclass(frozen=True)
class Violation:
    """Two concurrent readings placing one user at two locations."""

    pair: PairKey
    user: str
    locations: tuple[str, str]


class StampOverflowError(OverflowError):
    """A logical tick left the 64-bit non-negative domain."""


class DuplicateEventError(ValueError):
    pass


class SnapshotDetector:
    """Per-process detector state over a scalar snapshot clock.

    Keeps only what can change a verdict: the clock as an int, the
    ``[lo, hi)`` interval of each of this process's own events (a mutable
    ``[lo, hi]`` list; hi only grows), the set of peer events it has heard
    of (a message from any other sender is dropped) and EE, the queue of
    communicating event pairs still to check.
    Exactly one logical thread may mutate an instance; all cross-process
    coupling goes through the notification driver.
    """

    def __init__(
        self,
        process: int,
        n_processes: int,
        counters: Optional[OpCounters] = None,
    ):
        if not 0 <= process < n_processes:
            raise IndexError(f"process {process} out of range")
        self.process = process
        self.clock = 0
        self.intervals: dict[EventId, list[int]] = {}
        self.heard: set[EventId] = set()
        self.ee: list[tuple[EventId, EventId, int]] = []
        self.out: set[PairKey] = set()
        self.dropped = 0
        self.counters = counters if counters is not None else OpCounters()

    # -- clock rules: a tick adds 1, a receive takes the max --------------

    def _tick(self) -> int:
        tick = self.clock + 1
        if tick > MAX_TICK:
            raise StampOverflowError(f"tick out of range: {tick}")
        self.clock = tick
        self.counters.clock_updates += 1
        return tick

    def _merge(self, stamp: int) -> None:
        if not 0 <= stamp <= MAX_TICK:
            raise StampOverflowError(f"tick out of range: {stamp}")
        if stamp > self.clock:
            self.clock = stamp
        self.counters.clock_updates += 1

    # -- notification handlers -----------------------------------------

    def on_local_event(self, e: EventId) -> int:
        """An event occurs at this process.

        Ticks the clock, opens the event's interval ``[tick, tick + 1)``
        and returns the tick, which the driver announces to every peer.
        """
        if e.process != self.process:
            raise ValueError(f"event {e} does not belong to process {self.process}")
        if e in self.intervals:
            raise DuplicateEventError(f"event {e} already recorded")
        tick = self._tick()
        self.intervals[e] = [tick, tick + 1]
        self.counters.events_processed += 1
        self.counters.stamp_words_sent += 1  # one scalar word, any n
        return tick

    def on_broadcast(self, e: EventId, stamp: int) -> None:
        """A peer announced peer event ``e`` at ``stamp`` (its start or a send).

        Notes ``e`` as heard of and merges the stamp into the clock.
        """
        if e.process == self.process:
            raise ValueError("broadcast from own process")
        self.heard.add(e)
        self._merge(stamp)

    def on_broadcasts(self, k: int, low: int, high: int) -> None:
        """Fold ``k`` peer announcements whose stamps lie in ``[low, high]``.

        ``high`` must be the largest of the k stamps.  The clock and
        counters end as after k ``on_broadcast`` calls, and
        ``StampOverflowError`` is raised when ``low`` or ``high`` is out
        of range; no event is noted as heard of.  With ``k == 0`` the
        stamps are not read.
        """
        if k < 0:
            raise ValueError(f"negative announcement count: {k}")
        if k == 0:
            return
        if not (0 <= low and high <= MAX_TICK):
            raise StampOverflowError(f"tick out of range: {low if low < 0 else high}")
        if high > self.clock:
            self.clock = high
        self.counters.clock_updates += k

    def on_send(self, e: EventId) -> int:
        """This process sends a message from live event ``e``.

        Ticks the clock first, extends the event's own interval past the
        new tick and returns the send stamp x to attach to the message.
        The driver also announces x to all peers (``on_broadcast`` or
        ``on_broadcasts``).
        """
        own = self.intervals.get(e)
        if own is None:
            raise ValueError(f"send from unknown local event {e}")
        x = self._tick()
        own[1] = max(own[1], x + 1)
        self.counters.events_processed += 1
        self.counters.stamp_words_sent += 2  # message stamp + its broadcast
        return x

    def on_message(self, sender: EventId, receiver: EventId, send_stamp: int) -> None:
        """A message from peer event ``sender`` is delivered to local event ``receiver``.

        ``send_stamp`` is the sender's tick at the send, carried inline so
        the receiver never depends on broadcast arrival order.  A message
        from an event to itself raises ``ValueError``.  A sender this
        process has not heard of is a drop.  Otherwise the clock merges the
        send stamp, the receiving event's interval is extended past it (the
        message was handled inside the event, so its end tick must exceed
        x) and the pair is queued in EE.  A receiving event that has not
        started yet is a drop too.
        """
        if sender == receiver:
            raise ValueError(f"message from event {sender} to itself")
        self.counters.events_processed += 1
        if sender not in self.heard and sender not in self.intervals:
            self.dropped += 1
            return
        self._merge(send_stamp)
        own = self.intervals.get(receiver)
        if own is None:
            self.dropped += 1
            return
        own[1] = max(own[1], send_stamp + 1)
        self.ee.append((receiver, sender, send_stamp))

    # -- detection -----------------------------------------------------

    def check_consistency(self) -> set[PairKey]:
        """Drain EE into the output set of detected concurrent pairs.

        A pair passes when the send stamp lies inside the receiver's
        final interval: ``lo <= x < hi``.  The output is deduplicated and
        the call is idempotent at quiescence.
        """
        self.counters.pair_checks += len(self.ee)
        for receiver, sender, x in self.ee:
            lo, hi = self.intervals[receiver]
            if lo <= x < hi:
                self.out.add(pair_key(receiver, sender))
        self.ee.clear()
        return set(self.out)


def _row_ids(stamps: np.ndarray) -> np.ndarray:
    """Ids of the rows of ``stamps`` (given slot-major, shape (n, rows)).

    Equal rows get equal ids, so ``a != b`` is one id comparison.
    """
    n, count = stamps.shape
    # Equal rows end up adjacent; with no slots every row is equal.
    order = np.lexsort(stamps) if n else np.arange(count)
    new = np.zeros(count, dtype=bool)
    new[:1] = True
    for k in range(n):
        col = stamps[k, order]
        new[1:] |= col[1:] != col[:-1]
    ids = np.empty(count, dtype=np.int32)
    ids[order] = np.cumsum(new, dtype=np.int32)
    return ids


def vector_detect(
    ids: Sequence[EventId],
    lo: np.ndarray,
    hi: np.ndarray,
    counters: Optional[OpCounters] = None,
) -> set[PairKey]:
    """Vector-clock baseline: report pairs with mutually ordered endpoints.

    ``lo`` and ``hi`` are int64 (m, n) arrays whose row i holds the
    stamps of event ``ids[i]``, with ``ids`` sorted, as the vector replay
    returns them.  A pair (i, j) is concurrent when ``lo_i < hi_j`` and
    ``lo_j < hi_i`` under the strict slot-wise order.
    Every one of the m(m-1)/2 pairs is checked (and counted in
    ``pair_checks``).  The checks run slot-major over row blocks of the
    upper triangle, each at most ``VECTOR_SCAN_BLOCK_CELLS`` pairs.  Two
    bool accumulators start as the strictness test (``a != b``), one
    comparison of row ids that give equal stamp rows equal ids, and take
    ``lo_i <= hi_j`` and ``lo_j <= hi_i`` one slot at a time.
    """
    m, n = lo.shape
    if counters is not None:
        counters.pair_checks += m * (m - 1) // 2
    # Slot-major: row k of loT/hiT is slot k of every stamp, contiguous.
    both = np.concatenate((lo.T, hi.T), axis=1)
    if both.size and -(2**15) <= both.min() and both.max() < 2**15:
        both = both.astype(np.int16)  # exact here, and compares ~4x faster
    row_id = _row_ids(both)
    loT, hiT = both[:, :m], both[:, m:]
    lo_id, hi_id = row_id[:m], row_id[m:]
    rows = max(1, VECTOR_SCAN_BLOCK_CELLS // max(1, m))
    # Cells (r, c < r) of a block's leading square lie below the diagonal.
    side = min(rows, m)
    upper = np.triu(np.ones((side, side), dtype=bool))
    found: set[PairKey] = set()
    for s in range(0, m - 1, rows):
        # Block [s, e) x (s, m): cell (r, c) is the pair (s + r, s + 1 + c).
        e = min(s + rows, m - 1)
        # fwd: lo_i < hi_j, back: lo_j < hi_i.  Each starts as a != b and
        # takes a <= b one slot at a time.
        fwd = lo_id[s:e, None] != hi_id[None, s + 1 :]
        back = lo_id[None, s + 1 :] != hi_id[s:e, None]
        cmp = np.empty_like(fwd)
        for k in range(n):
            np.less_equal(loT[k, s:e, None], hiT[k, None, s + 1 :], out=cmp)
            fwd &= cmp
            np.less_equal(loT[k, None, s + 1 :], hiT[k, s:e, None], out=cmp)
            back &= cmp
        fwd &= back
        fwd[:, : e - s] &= upper[: e - s, : e - s]
        # Row-major nonzero keeps the pairs in sorted (i < j) order.
        r, c = np.nonzero(fwd)
        found.update(
            (ids[i], ids[j]) for i, j in zip((r + s).tolist(), (c + s + 1).tolist())
        )
    return found


def physical_detect(
    spans: Iterable[tuple[EventId, int, int]],
    counters: Optional[OpCounters] = None,
) -> set[PairKey]:
    """Wall-clock overlap of half-open ``[start, end)`` spans.

    Sorted start scan: spans are taken by (start, id), and each is paired
    with the spans still active, kept in a heap by end; a span whose end
    is at or before the new start has left, so touching spans do not
    overlap.  Each pairing is one ``pair_checks``.  O(n log n + output).
    An empty span (``start >= end``) raises ``ValueError``.
    """
    found: set[PairKey] = set()
    active: list[tuple[int, EventId]] = []
    checks = 0
    for event, start, end in sorted(spans, key=lambda s: (s[1], s[0])):
        if start >= end:
            raise ValueError(f"empty span for {event}: [{start}, {end})")
        while active and active[0][0] <= start:
            heapq.heappop(active)
        checks += len(active)
        for _, other in active:
            found.add(pair_key(event, other))
        heapq.heappush(active, (end, event))
    if counters is not None:
        counters.pair_checks += checks
    return found


def violation_filter(
    pairs: Iterable[PairKey],
    readings: Mapping[EventId, ContextReading],
) -> set[Violation]:
    """Keep concurrent pairs that read one user at two different locations."""
    violations: set[Violation] = set()
    for a, b in pairs:
        ra = readings.get(a)
        rb = readings.get(b)
        if ra is None or rb is None:
            continue
        if ra.user != rb.user or ra.location == rb.location:
            continue
        a, b = pair_key(a, b)
        ra, rb = readings[a], readings[b]
        violations.add(Violation(pair=(a, b), user=ra.user, locations=(ra.location, rb.location)))
    return violations
