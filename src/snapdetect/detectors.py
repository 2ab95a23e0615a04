"""Concurrent-event detectors.

Three detector families read the same trace.  The snapshot and vector
families replay it in one order, the columnar timeline that
``simulate.Trace.timeline`` builds once per trace:

* ``SnapshotDetector`` -- one scalar snapshot clock per process; a
  communicating pair (b, c) is reported as concurrent when the send stamp
  x of b's message lands inside c's final logical interval:
  ``c.lo <= x < c.hi``.  Its handlers state the clock rules one call at
  a time; ``simulate._replay_snapshot`` applies them in one loop over the
  announcements, then settles the deliveries in numpy.
* ``vector_detect`` -- the vector-clock baseline: reports pairs whose
  interval endpoints are mutually ordered by happened-before (each start
  precedes the other's end).  It takes the stamps as int64 (m, n) arrays,
  as the vector replay produces them.  The modelled baseline decides all
  m(m-1)/2 pairs (counted in ``pair_checks``); the host finds the
  candidates by range search on each process's own slot and evaluates the
  full slot-wise predicate on those alone.
* ``overlap_columns`` -- wall-clock interval overlap under synchronized
  physical clocks: one ``searchsorted`` over the spans sorted by start
  finds each span's later partners.  It takes the spans as int64
  columns, as ``simulate.EventColumns`` holds them.  It is the one overlap
  kernel: ``simulate.Trace.truth`` runs it once per trace, and both ground
  truth and the physical family read that result.  ``physical_detect`` is
  the same kernel with the pairs as a plain set.

``vector_detect`` and ``overlap_columns`` return their pairs as two columns
of indices into their ids.  ``simulate.run_trace`` keeps every family's
pairs as a ``PairKeys``: a read-only set over one sorted int64 column of
pair keys over the trace's own ids, which builds the ``EventId`` pairs only
when it is iterated.  Two views over one ids list are compared and
combined key against key.

``violation_filter`` lifts detected concurrent pairs into context
violations under the constraint that one user cannot be read at two
different locations at the same time.  ``lift_violations`` gives the same
result on index columns: one numpy mask over the int32 codes of the
``str`` users and locations that ``ReadingCodes`` holds, as ``ContextReading``
admits no other; ``violation_filter`` is the reference it is tested against.
"""
from __future__ import annotations

from collections.abc import Collection, Iterator, Set
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .metrics import OpCounters

PairKey = tuple["EventId", "EventId"]

#: Stamps are 64-bit non-negative integers.  Overflow is a hard fault,
#: never wraparound; desk-scale traces cannot approach this bound.
MAX_TICK = 2**63 - 1

#: Slot comparisons (candidate pairs x slots) per chunk of the vector
#: pair scan.  A chunk's gathered stamp rows are int64 arrays of at most
#: this many cells (512 KB each), unless one pair alone has more slots.
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
    """A location reading attached to an event, possibly corrupted.

    Construction raises ``TypeError`` unless the user and both locations
    are exactly ``str`` and the flag exactly ``bool``.
    """

    user: str
    location: str
    true_location: str
    erroneous: bool

    def __post_init__(self) -> None:
        for name, kind in (("user", str), ("location", str), ("true_location", str), ("erroneous", bool)):
            value = getattr(self, name)
            if type(value) is not kind:
                raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")
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

    def __init__(self, process: int, n_processes: int, counters: Optional[OpCounters] = None):
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

    def on_send(self, e: EventId) -> int:
        """This process sends a message from live event ``e``.

        Ticks the clock, extends the event's own interval past the new tick
        and returns the send stamp x, which the driver sends and announces.
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


def _process_runs(
    ids: Sequence[EventId], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check ``vector_detect``'s contract; find each process's run of rows.

    Returns each row's process, a mask of the rows that start a run and
    each row's own start slot ``lo[j, p_j]``.  The check is O(m): ``ids``
    strictly increasing, each process a slot index and the own slot of
    ``lo`` non-decreasing along each run.  A breach raises ``ValueError``
    naming the first offending event.
    """
    m, n = lo.shape
    if hi.shape != lo.shape or len(ids) != m:
        raise ValueError(f"{len(ids)} ids for lo {lo.shape} and hi {hi.shape}")
    key = np.fromiter(chain.from_iterable(ids), dtype=np.int64, count=2 * m)
    proc, seq = key[::2], key[1::2]
    first = np.empty(m, dtype=bool)
    first[:1] = True
    np.not_equal(proc[1:], proc[:-1], out=first[1:])
    same = ~first[1:]
    bad = (proc[1:] < proc[:-1]) | (same & (seq[1:] <= seq[:-1]))
    if bad.any():
        k = bad.argmax() + 1
        raise ValueError(f"ids not sorted: event {ids[k]} follows {ids[k - 1]}")
    # Sorted, so the first and last processes bound the rest.
    if m and not (proc[0] >= 0 and proc[-1] < n):
        k = 0 if proc[0] < 0 else int((proc < n).sum())
        raise ValueError(f"event {ids[k]}: process is not one of the {n} slots")
    own = lo[np.arange(m), proc]
    bad = same & (own[1:] < own[:-1])
    if bad.any():
        k = bad.argmax() + 1
        raise ValueError(
            f"event {ids[k]}: own start slot {own[k]} is below {own[k - 1]} of {ids[k - 1]}"
        )
    return proc, first, own


def _strictly_below(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise strict slot-wise order: ``a <= b`` in every slot and ``a != b``."""
    return (a <= b).all(axis=1) & (a != b).any(axis=1)


def vector_detect(
    ids: Sequence[EventId],
    lo: np.ndarray,
    hi: np.ndarray,
    counters: Optional[OpCounters] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector-clock baseline: report pairs with mutually ordered endpoints.

    ``lo`` and ``hi`` are int64 (m, n) arrays whose row i holds the
    stamps of event ``ids[i]``.  A pair (i, j) is concurrent when
    ``lo_i < hi_j`` and ``lo_j < hi_i`` under the strict slot-wise order.
    Returns the concurrent pairs as the columns ``first`` and ``second``
    of rows, ``first[k] < second[k]``, so pair k is
    ``(ids[first[k]], ids[second[k]])`` in ``pair_key`` order; each pair
    appears once.  The modelled baseline decides all m(m-1)/2 pairs, and
    ``pair_checks`` counts those decisions; the host tests only candidate
    pairs.

    Contract, which every vector replay meets: ``ids`` are sorted with no
    repeats, each event's process p is a slot index (0 <= p < n), and
    column p of ``lo`` never decreases along p's events.  A breach raises
    ``ValueError`` naming the first offending event.

    The candidates come from each process's own slot.  Let a_j be
    ``lo[j, p_j]``.  For j on process q, ``lo_j <= hi_i`` needs
    a_j <= ``hi[i, q]``, which holds on a prefix of q's events, ending at
    K[i, q].  ``lo_i <= hi_j`` needs i < K[j, p_i], which holds on a
    suffix of q's events, from L[i, q]: the first where the running max
    of K[j, p_i] along q's events passes i.  So row i's candidates on q
    are j in [max(L, i + 1), K).  Both bounds are necessary, so the result
    is exact.  For a vector replay whose events do not nest on any process
    they are also sufficient: the candidates are the pairs found.  When
    they nest, ends leave seq order and a few extra candidates fail the
    predicate.  The full predicate runs on the
    candidates in chunks of at most ``VECTOR_SCAN_BLOCK_CELLS`` slot
    comparisons; a row's candidates may span several chunks, and only when
    n alone exceeds the block does a chunk hold one candidate over it.
    The searches key run
    indices, row indices and ranks, never raw stamps, so no key can
    overflow.  O(m n log m + candidates n).
    """
    m, n = lo.shape
    if counters is not None:
        counters.pair_checks += m * (m - 1) // 2
    proc, first, own = _process_runs(ids, lo, hi)
    starts = first.nonzero()[0]
    run = first.cumsum() - 1
    runs, width = len(starts), m + 1
    # upper[c, i] = K[i, q], q the process of run c.  a_j <= h iff
    # rank(a_j) <= rank(h), ranks counting the a values at or below, so
    # K is a prefix count of run c's a ranks, read off a (run, rank) table.
    ordered = np.sort(own)
    table = np.bincount(run * width + ordered.searchsorted(own, "right"), minlength=runs * width)
    table[::width] += starts
    table = table.reshape(runs, width).cumsum(axis=1, dtype=np.int32).ravel()
    rank = ordered.searchsorted(hi[:, proc[starts]].T, "right")
    rank += np.arange(0, runs * width, width)[:, None]
    upper = table[rank]
    del ordered, table, rank
    # Cells (i, c) with room for a candidate, in row order.
    i, c = (upper.T > np.maximum(np.arange(1, m + 1)[:, None], starts)).nonzero()
    if not len(i):
        return i, c
    # L from row run(i) of ``most``: K[j, p_i] along j, its running max
    # taken within each run c and keyed by (run(i), c), so the flat array
    # is sorted and one search finds every cell's first j past i.
    most = (np.arange(runs)[:, None] * runs + run) * width
    most += upper
    np.maximum.accumulate(most, axis=1, out=most)
    home = run[i]
    start = most.ravel().searchsorted((home * runs + c) * width + i, "right")
    start -= home * m
    np.maximum(start, i + 1, out=start)
    count = upper[c, i] - start
    del most, upper, home, c  # the chunks need only the candidate cells
    keep = count > 0
    i, start, count = i[keep], start[keep], count[keep]
    del keep
    # Cells of more than ``per`` candidates are split into pieces of at
    # most ``per``, then runs of pieces are chunked, each of at most
    # VECTOR_SCAN_BLOCK_CELLS slot comparisons (or one candidate, if n
    # alone exceeds it).
    per = max(1, VECTOR_SCAN_BLOCK_CELLS // n)
    pieces = (count - 1) // per + 1
    if (pieces > 1).any():
        cell = np.repeat(np.arange(len(count)), pieces)
        skip = (np.arange(len(cell)) - np.repeat(pieces.cumsum() - pieces, pieces)) * per
        i, start, count = i[cell], start[cell] + skip, np.minimum(count[cell] - skip, per)
        del cell, skip
    del pieces
    spent = np.concatenate(([0], (count * n).cumsum()))
    first, second = [i[:0]], [i[:0]]
    a, last = 0, len(count)
    while a < last:
        e = max(a + 1, int(spent.searchsorted(spent[a] + VECTOR_SCAN_BLOCK_CELLS, "right")) - 1)
        k = count[a:e]
        row = np.repeat(i[a:e], k)
        col = np.repeat(start[a:e] - k.cumsum() + k, k) + np.arange(len(row))
        hit = _strictly_below(lo[row], hi[col])
        hit &= _strictly_below(lo[col], hi[row])
        first.append(row[hit])
        second.append(col[hit])
        a = e
    return np.concatenate(first), np.concatenate(second)


def overlap_columns(
    ids: Sequence[EventId],
    start: np.ndarray,
    end: np.ndarray,
    counters: Optional[OpCounters] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Wall-clock overlap of half-open ``[start, end)`` spans, as index columns.

    ``start`` and ``end`` are int64 columns whose entry i is the span of
    ``ids[i]``; the ids may come in any order.  Returns the columns
    ``first`` and ``second`` of indices into ``ids``: pair k is
    ``(ids[first[k]], ids[second[k]])``, in ``pair_key`` order, and every
    overlapping pair appears once.  The spans are sorted by (start, id).  A
    later span starts no earlier than span j, so it overlaps j exactly when
    it starts before j ends: j's later partners are the positions j + 1 up
    to ``searchsorted(starts, end_j, "left")`` - 1, and touching spans stay
    apart.  Each pairing is one ``pair_checks``, so the count is the number
    of pairs found.  O(m log m + output).  An empty span (``start >= end``)
    raises ``ValueError`` naming the first in (start, id) order.
    """
    m = len(ids)
    if start.shape != (m,) or end.shape != (m,):
        raise ValueError(f"{m} ids for start {start.shape} and end {end.shape}")
    key = np.fromiter(chain.from_iterable(ids), dtype=np.int64, count=2 * m)
    proc, seq = key[::2], key[1::2]
    order = np.lexsort((seq, proc, start))
    starts, ends = start[order], end[order]
    empty = starts >= ends
    if empty.any():
        k = order[empty.argmax()]
        raise ValueError(f"empty span for {ids[k]}: [{start[k]}, {end[k]})")
    count = starts.searchsorted(ends, "left")
    count -= np.arange(1, m + 1)
    pairs = int(count.sum())
    if counters is not None:
        counters.pair_checks += pairs
    # Position j's partners, j + 1 onwards, as id ranks; the lower rank
    # comes first, so each pair is in ``pair_key`` form.
    by_id = np.lexsort((seq, proc))
    rank = by_id.argsort()[order]
    row = np.repeat(np.arange(m), count)
    col = np.repeat(np.arange(1, m + 1) - (count.cumsum() - count), count)
    col += np.arange(pairs)
    a, b = rank[row], rank[col]
    del row, col, rank, order, starts, ends, count
    return by_id[np.minimum(a, b)], by_id[np.maximum(a, b)]


def id_pairs(ids: Sequence[EventId], first: np.ndarray, second: np.ndarray) -> Iterable[PairKey]:
    """The pairs ``(ids[first[k]], ids[second[k]])``, read from lists copied off the columns.

    The iterator keeps no reference to the columns, so a caller can free
    them before it builds a set from the pairs.
    """
    pick = ids.__getitem__
    return zip(map(pick, first.tolist()), map(pick, second.tolist()))


def _on_keys(on_keys, fallback):
    """A ``PairKeys`` set operator: ``on_keys`` of two views' key columns over one ``ids``, else ``fallback``."""

    def operator(self: PairKeys, other):
        if isinstance(other, PairKeys) and other.ids is self.ids:
            return PairKeys(self.ids, self.index, *np.divmod(on_keys(self.keys, other.keys), len(self.ids)))
        return fallback(self, other)

    return operator


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The non-negative ``keys``, sorted, each once (``np.unique`` and ``np.union1d`` would import ``numpy.ma``)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


class PairKeys(Set):
    """A read-only set of event pairs, held as one sorted int64 key column.

    Built from index columns into ``ids``, as ``overlap_columns`` and
    ``vector_detect`` return them: the pair ``(ids[i], ids[j])`` is the key
    ``i * m + j``, m = ``len(ids)``, and ``keys`` holds the keys sorted.
    The columns hold no pair twice, and each pair is in ``pair_key`` form;
    iteration yields them in key order, which is sorted ``pair_key`` order
    when ``ids`` is sorted, as in every generated trace.  ``index`` is the
    id-to-index map of ``ids``, which a trace builds once and shares with
    every view over its ids.  ``len`` is the column's length.
    ``count_common`` searches another view over the same ``ids`` object
    key against key; ``in``, and ``count_common`` of any other collection,
    look each event up in ``index`` and search the keys.  ``==``, ``<=``
    and ``>=`` against any ``Set`` (and so ``<`` and ``>``) are one
    ``count_common`` call; two views over the same ``ids`` object compare
    their keys, and ``&``, ``|``, ``-`` and ``^`` combine them into a view.
    Iteration, and those operators against another set, build the pairs as
    they go, keep none, and return a ``frozenset``.  A reversed pair, or
    one naming an event outside ``ids``, is not in the set.  The hash is
    that of the equal ``frozenset``.
    """

    __slots__ = ("ids", "keys", "index")

    def __init__(
        self, ids: Sequence[EventId], index: Mapping[EventId, int], first: np.ndarray, second: np.ndarray
    ):
        keys = first.astype(np.int64) * len(ids) + second
        keys.sort()
        keys.flags.writeable = False
        self.ids = ids
        self.keys = keys
        self.index = index

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[PairKey]:
        first, second = np.divmod(self.keys, len(self.ids))
        pick = self.ids.__getitem__
        return zip(map(pick, first.tolist()), map(pick, second.tolist()))

    def __contains__(self, pair: object) -> bool:
        try:
            a, b = pair
        except (TypeError, ValueError):
            return False
        return self.count_common(((a, b),)) == 1

    def count_common(self, pairs: Collection[PairKey]) -> int:
        """How many of ``pairs`` are in this set; ``pairs`` holds no repeats."""
        if pairs is self:
            return len(self.keys)
        if not len(self.keys) or not len(pairs):
            return 0
        if isinstance(pairs, PairKeys) and pairs.ids is self.ids:
            query = pairs.keys
        else:
            flat = chain.from_iterable(pairs)
            at = np.fromiter(map(self.index.get, flat, repeat(-1)), dtype=np.int64, count=2 * len(pairs))
            first, second = at[::2], at[1::2]
            query = (first * len(self.ids) + second)[(first | second) >= 0]  # -1: not in ``ids``
        found = self.keys.take(self.keys.searchsorted(query), mode="clip") == query
        return int(np.count_nonzero(found))

    def _common(self, other: Set) -> int:
        """``count_common(other)``, where an element of ``other`` that is no 2-tuple is in no view."""
        pairs = isinstance(other, PairKeys) or set(map(type, other)) <= {tuple} and set(map(len, other)) <= {2}
        if not pairs:
            other = [p for p in other if isinstance(p, tuple) and len(p) == 2]
        return self.count_common(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        if isinstance(other, PairKeys) and other.ids is self.ids:
            return bool(np.array_equal(self.keys, other.keys))
        return len(self) == len(other) and self._common(other) == len(self)

    def __le__(self, other: Set) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        return len(self) <= len(other) and self._common(other) == len(self)

    def __ge__(self, other: Set) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        return len(self) >= len(other) and self._common(other) == len(other)

    @classmethod
    def _from_iterable(cls, pairs: Iterable[PairKey]) -> frozenset[PairKey]:
        return frozenset(pairs)

    __and__ = _on_keys(lambda a, b: a[np.isin(a, b, assume_unique=True)], Set.__and__)
    __or__ = _on_keys(lambda a, b: sorted_unique(np.concatenate((a, b))), Set.__or__)
    __sub__ = _on_keys(lambda a, b: a[np.isin(a, b, assume_unique=True, invert=True)], Set.__sub__)
    __xor__ = _on_keys(lambda a, b: np.setxor1d(a, b, assume_unique=True), Set.__xor__)

    __hash__ = Set._hash


def physical_detect(
    ids: Sequence[EventId],
    start: np.ndarray,
    end: np.ndarray,
    counters: Optional[OpCounters] = None,
) -> set[PairKey]:
    """Wall-clock overlap of half-open ``[start, end)`` spans: the pairs of ``overlap_columns``."""
    return set(id_pairs(ids, *overlap_columns(ids, start, end, counters)))


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


class ReadingCodes(NamedTuple):
    """Events' readings with the int32 codes ``lift_violations`` compares.

    ``readings[i]`` is the reading of event i, or None.  ``user[i]`` and
    ``place[i]`` code its user and location, one non-negative int32 per
    distinct ``str``; an event with no reading has -1 in both.  Build it
    with ``of``, once per list of readings.
    """

    readings: Sequence[Optional[ContextReading]]
    user: np.ndarray
    place: np.ndarray

    @classmethod
    def of(cls, readings: Sequence[Optional[ContextReading]]) -> ReadingCodes:
        m = len(readings)
        user = np.full(m, -1, dtype=np.int32)
        place = np.full(m, -1, dtype=np.int32)
        codes: dict[str, int] = {}
        for i, r in enumerate(readings):
            if r is not None:
                user[i] = codes.setdefault(r.user, len(codes))
                place[i] = codes.setdefault(r.location, len(codes))
        return cls(readings, user, place)


def lift_violations(
    ids: Sequence[EventId],
    codes: ReadingCodes,
    first: np.ndarray,
    second: np.ndarray,
) -> set[Violation]:
    """``violation_filter`` of the pairs ``(ids[first[k]], ids[second[k]])``, lifted on the columns.

    ``codes`` holds the reading of each of ``ids``, and each pair is in
    ``pair_key`` order, as ``overlap_columns`` and ``vector_detect`` give
    them.  A pair is a violation exactly when its user codes are equal and
    its location codes differ; no reading's user code is -1, so a pair
    that touches an event without a reading never is.  One numpy mask
    finds those pairs, and a ``Violation`` is built for the hits alone.
    """
    readings, user, place = codes
    hit = user[first] == user[second]
    hit &= place[first] != place[second]
    found = set()
    for a, b in zip(first[hit].tolist(), second[hit].tolist()):
        ra, rb = readings[a], readings[b]
        found.add(Violation(pair=(ids[a], ids[b]), user=ra.user, locations=(ra.location, rb.location)))
    return found
