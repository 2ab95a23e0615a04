"""Frozen reference copy of the replica-queue snapshot detector.

This is the snapshot detector as it stood before it was cut down to an
int clock, its own intervals, the set of heard-of peer events and the
EE queue.  It keeps per-peer event queues (EQ), per-peer interval
replicas (IQ) and one frozen ``SnapshotStamp`` per clock update.  The
differential test replays traces through both and requires identical
pairs, counters, drops and intervals.  Do not optimise or edit it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from _oracles import SnapshotStamp, keyed_timeline, snapshot_merge, snapshot_tick
from snapdetect.detectors import DuplicateEventError, EventId, PairKey, pair_key
from snapdetect.metrics import OpCounters
from snapdetect.simulate import _DELIVER, _SEND, _START, Trace


@dataclass(frozen=True)
class MessageRecord:
    from_event: EventId
    to_event: EventId
    send_stamp: int

    def __post_init__(self) -> None:
        if self.from_event == self.to_event:
            raise ValueError("message from an event to itself")


@dataclass(frozen=True)
class BroadcastPayload:
    origin: int
    event: EventId
    stamp: int


@dataclass
class IntervalRecord:
    event: EventId
    lo: int
    hi: int

    def valid(self) -> bool:
        return self.lo < self.hi


class LegacySnapshotDetector:
    def __init__(
        self,
        process: int,
        n_processes: int,
        counters: Optional[OpCounters] = None,
    ):
        if not 0 <= process < n_processes:
            raise IndexError(f"process {process} out of range")
        self.process = process
        self.n_processes = n_processes
        self.clock = SnapshotStamp(0)
        self.eq: list[list[tuple[EventId, int]]] = [[] for _ in range(n_processes)]
        self.iq: list[list[IntervalRecord]] = [[] for _ in range(n_processes)]
        self.ee: list[tuple[EventId, EventId, int]] = []
        self.out: set[PairKey] = set()
        self.dropped = 0
        self.counters = counters if counters is not None else OpCounters()
        self._intervals: dict[EventId, IntervalRecord] = {}

    def _tick(self) -> int:
        self.clock = snapshot_tick(self.clock)
        self.counters.clock_updates += 1
        return self.clock.tick

    def _merge(self, stamp: int) -> None:
        self.clock = snapshot_merge(self.clock, SnapshotStamp(stamp))
        self.counters.clock_updates += 1

    def _record(self, origin: int, e: EventId, lo: int, hi: int) -> IntervalRecord:
        if e in self._intervals:
            raise DuplicateEventError(f"event {e} already recorded")
        rec = IntervalRecord(e, lo, hi)
        self.iq[origin].append(rec)
        self._intervals[e] = rec
        return rec

    def on_local_event(self, e: EventId) -> BroadcastPayload:
        if e.process != self.process:
            raise ValueError(f"event {e} does not belong to process {self.process}")
        tick = self._tick()
        self.eq[self.process].append((e, tick))
        self._record(self.process, e, tick, tick + 1)
        self.counters.events_processed += 1
        self.counters.stamp_words_sent += 1
        return BroadcastPayload(self.process, e, tick)

    def on_broadcast(self, origin: int, e: EventId, stamp: int) -> None:
        if origin == self.process:
            raise ValueError("broadcast from own process")
        self.eq[origin].append((e, stamp))
        if e not in self._intervals:
            self._record(origin, e, stamp, stamp + 1)
        self._merge(stamp)

    def on_send(self, e: EventId) -> int:
        rec = self._intervals.get(e)
        if rec is None or e.process != self.process:
            raise ValueError(f"send from unknown local event {e}")
        x = self._tick()
        self.eq[self.process].append((e, x))
        rec.hi = max(rec.hi, x + 1)
        self.counters.events_processed += 1
        self.counters.stamp_words_sent += 2
        return x

    def on_send_stamp(self, origin: int, e: EventId, stamp: int) -> None:
        rec = self._intervals.get(e)
        if rec is None:
            rec = self._record(origin, e, stamp, stamp + 1)
        else:
            rec.hi = max(rec.hi, stamp + 1)
        self.eq[origin].append((e, stamp))
        self._merge(stamp)

    def on_message(self, m: MessageRecord) -> None:
        self.counters.events_processed += 1
        sender = self._intervals.get(m.from_event)
        if sender is None:
            self.dropped += 1
            return
        x = m.send_stamp
        self.eq[m.from_event.process].append((m.from_event, x))
        sender.hi = max(sender.hi, x + 1)
        self._merge(x)
        own = self._intervals.get(m.to_event)
        if own is None:
            self.dropped += 1
            return
        own.hi = max(own.hi, x + 1)
        self.ee.append((m.to_event, m.from_event, x))

    def check_consistency(self) -> set[PairKey]:
        while self.ee:
            receiver, sender, x = self.ee.pop(0)
            self.counters.pair_checks += 1
            rec_r = self._intervals.get(receiver)
            rec_s = self._intervals.get(sender)
            if rec_r is None or rec_s is None:
                continue
            if not (rec_r.valid() and rec_s.valid()):
                continue
            if rec_r.lo <= x < rec_r.hi:
                self.out.add(pair_key(receiver, sender))
        return set(self.out)


def legacy_replay(trace: Trace, counters: OpCounters) -> list[LegacySnapshotDetector]:
    procs = trace.config.n_processes
    dets = [LegacySnapshotDetector(p, procs, counters) for p in range(procs)]
    send_stamps: dict[int, int] = {}
    for _t, kind, proc, sub, payload in keyed_timeline(trace):
        if kind == _START:
            announce = dets[proc].on_local_event(payload.id)
            for q in range(procs):
                if q != proc:
                    dets[q].on_broadcast(announce.origin, announce.event, announce.stamp)
        elif kind == _SEND:
            x = dets[proc].on_send(payload.from_event)
            send_stamps[sub] = x
            for q in range(procs):
                if q != proc:
                    dets[q].on_send_stamp(proc, payload.from_event, x)
        elif kind == _DELIVER:
            record = MessageRecord(payload.from_event, payload.to_event, send_stamps[sub])
            dets[proc].on_message(record)
    return dets


def legacy_snapshot(trace: Trace) -> tuple[set[PairKey], OpCounters, int, dict[EventId, tuple[int, int]]]:
    """Detected pairs, counters, drops and final own-process intervals."""
    counters = OpCounters()
    dets = legacy_replay(trace, counters)
    detected: set[PairKey] = set()
    for d in dets:
        detected |= d.check_consistency()
    intervals = {rec.event: (rec.lo, rec.hi) for d in dets for rec in d.iq[d.process]}
    return detected, counters, sum(d.dropped for d in dets), intervals
