"""Concurrent-event detectors.

Three detector families consume the same per-process stream of
local-event / send / receive notifications:

* ``SnapshotDetector`` -- one scalar snapshot clock per process; a
  communicating pair (b, c) is reported as concurrent when the send stamp
  x of b's message lands inside c's final logical interval:
  ``c.lo <= x < c.hi``.
* ``vector_detect`` -- the vector-clock baseline: a quadratic pairwise
  scan reporting pairs whose interval endpoints are mutually ordered by
  happened-before (each start precedes the other's end).
* ``physical_detect`` -- wall-clock interval overlap under synchronized
  physical clocks, via a boundary sweep.

``violation_filter`` lifts detected concurrent pairs into context
violations under the constraint that one user cannot be read at two
different locations at the same time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .metrics import OpCounters
from .stamps import (
    ClockParams,
    DEFAULT_PARAMS,
    Interval,
    MAX_TICK,
    StampOverflowError,
    vector_lt,
)

PairKey = tuple["EventId", "EventId"]


@dataclass(frozen=True, order=True)
class EventId:
    """Globally unique event identity: (process index, per-process seq)."""

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


@dataclass(frozen=True)
class MessageRecord:
    """A delivered point-to-point message.

    ``send_stamp`` is the sender's scalar tick at send time, carried
    inline so the receiver never depends on broadcast arrival order.
    """

    from_event: EventId
    to_event: EventId
    send_stamp: int
    payload: Optional[ContextReading] = None

    def __post_init__(self) -> None:
        if self.from_event == self.to_event:
            raise ValueError("message from an event to itself")


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
        params: ClockParams = DEFAULT_PARAMS,
        counters: Optional[OpCounters] = None,
    ):
        if not 0 <= process < n_processes:
            raise IndexError(f"process {process} out of range")
        self.process = process
        self.params = params
        self.clock = 0
        self.intervals: dict[EventId, list[int]] = {}
        self.heard: set[EventId] = set()
        self.ee: list[tuple[EventId, EventId, int]] = []
        self.out: set[PairKey] = set()
        self.dropped = 0
        self.counters = counters if counters is not None else OpCounters()

    # -- clock rules (``snapshot_tick`` / ``snapshot_merge`` on ints) ------

    def _tick(self) -> int:
        tick = self.clock + self.params.d
        if tick > MAX_TICK:
            raise StampOverflowError(f"tick out of range: {tick}")
        self.clock = tick
        self.counters.clock_updates += 1
        return tick

    def _merge(self, stamp: int) -> None:
        if not 0 <= stamp <= MAX_TICK:
            raise StampOverflowError(f"tick out of range: {stamp}")
        merged = stamp if stamp > self.clock else self.clock
        if self.params.tick_after_merge:
            merged += self.params.d
            if merged > MAX_TICK:
                raise StampOverflowError(f"tick out of range: {merged}")
        self.clock = merged
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

        Ticks the clock first, extends the event's own interval past the
        new tick and returns the send stamp x to attach to the message.
        The driver also announces x to all peers (``on_broadcast``).
        """
        own = self.intervals.get(e)
        if own is None:
            raise ValueError(f"send from unknown local event {e}")
        x = self._tick()
        own[1] = max(own[1], x + 1)
        self.counters.events_processed += 1
        self.counters.stamp_words_sent += 2  # message stamp + its broadcast
        return x

    def on_message(self, m: MessageRecord) -> None:
        """A message is delivered to local event ``m.to_event``.

        A sender this process has not heard of is a drop.  Otherwise the
        clock merges the send stamp, the receiving event's interval is
        extended past it (the message was handled inside the event, so
        its end tick must exceed x) and the pair is queued in EE.  A
        receiving event that has not started yet is a drop too.
        """
        self.counters.events_processed += 1
        if m.from_event not in self.heard and m.from_event not in self.intervals:
            self.dropped += 1
            return
        x = m.send_stamp
        self._merge(x)
        own = self.intervals.get(m.to_event)
        if own is None:
            self.dropped += 1
            return
        own[1] = max(own[1], x + 1)
        self.ee.append((m.to_event, m.from_event, x))

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


def vector_detect(
    intervals: Mapping[EventId, Interval],
    counters: Optional[OpCounters] = None,
) -> set[PairKey]:
    """Vector-clock baseline: report pairs with mutually ordered endpoints.

    A pair (j, k) is concurrent when ``lo_j`` happened-before ``hi_k``
    and ``lo_k`` happened-before ``hi_j`` under the vector partial order.
    Quadratic pairwise scan over all intervals.
    """
    items = sorted(intervals.items())
    lengths = {len(iv.lo.slots) for _, iv in items}
    if len(lengths) > 1:
        raise ValueError(f"mixed vector lengths: {sorted(lengths)}")
    found: set[PairKey] = set()
    for i in range(len(items)):
        ei, vi = items[i]
        for j in range(i + 1, len(items)):
            ej, vj = items[j]
            if counters is not None:
                counters.pair_checks += 1
            if vector_lt(vi.lo, vj.hi) and vector_lt(vj.lo, vi.hi):
                found.add(pair_key(ei, ej))
    return found


def physical_detect(
    spans: Iterable[tuple[EventId, int, int]],
    counters: Optional[OpCounters] = None,
) -> set[PairKey]:
    """Wall-clock overlap of half-open ``[start, end)`` spans.

    Boundary sweep: walk start/end boundaries in time order and pair each
    starting span with the active set.  O(n log n + output).
    """
    boundaries: list[tuple[int, int, EventId, int]] = []
    for event, start, end in spans:
        if start >= end:
            raise ValueError(f"empty span for {event}: [{start}, {end})")
        # Ends sort before starts at equal times: half-open touch is no overlap.
        boundaries.append((start, 1, event, end))
        boundaries.append((end, 0, event, end))
    boundaries.sort()
    active: set[EventId] = set()
    found: set[PairKey] = set()
    for _, kind, event, _end in boundaries:
        if kind == 0:
            active.discard(event)
        else:
            for other in active:
                if counters is not None:
                    counters.pair_checks += 1
                found.add(pair_key(event, other))
            active.add(event)
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
