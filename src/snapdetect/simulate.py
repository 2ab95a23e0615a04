"""Deterministic discrete-event simulation of asynchronous processes.

Generates location-reading workloads over ``nodes * instances_per_node``
processes, wires messages between concurrently-live events with random
delays, computes wall-time ground truth, and replays traces through any
of the three detector families.

All times are integer microseconds since trace start; all randomness
flows from one root seed through named per-stream derivations, so e.g.
changing the error rate never perturbs the event layout.
"""
from __future__ import annotations

import bisect
import enum
import hashlib
import heapq
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .detectors import (
    ContextReading,
    EventId,
    MessageRecord,
    PairKey,
    SnapshotDetector,
    Violation,
    pair_key,
    physical_detect,
    vector_detect,
    violation_filter,
)
from .metrics import OpCounters
from .stamps import ClockParams, DEFAULT_PARAMS, Interval, VectorStamp, vector_merge, vector_tick

#: Delay resamples tried per message before it is dropped at generation.
MESSAGE_RETRIES = 3


class ConfigError(ValueError):
    """Invalid simulation parameter; ``field`` names the offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class SimConfig:
    """Workload parameters.  Ranges are inclusive, times in microseconds."""

    nodes: int
    instances_per_node: int = 2
    events_per_process: int = 50
    event_lifespan_us: tuple[int, int] = (20_000, 50_000)
    message_delay_us: tuple[int, int] = (250_000, 8_000_000)
    inter_event_gap_us: tuple[int, int] = (5_000, 15_000)
    start_jitter_us: int = 20_000
    error_rate: float = 0.1
    stay_mean_us: int = 60_000_000
    users: int = 0  # 0 = one user per node
    rooms: int = 8
    peer_fanout: Optional[int] = None  # None = message every peer process
    seed: int = 0

    @property
    def n_processes(self) -> int:
        return self.nodes * self.instances_per_node

    @property
    def n_users(self) -> int:
        return self.users if self.users > 0 else max(2, self.nodes)

    def validate(self) -> None:
        if not 2 <= self.nodes <= 1000:
            raise ConfigError("nodes", f"must be in 2..1000, got {self.nodes}")
        if self.instances_per_node < 1:
            raise ConfigError("instances_per_node", "must be >= 1")
        if self.events_per_process < 1:
            raise ConfigError("events_per_process", "must be >= 1")
        for name in ("event_lifespan_us", "message_delay_us", "inter_event_gap_us"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ConfigError(name, f"range empty or negative: [{lo}, {hi}]")
        lo, _ = self.event_lifespan_us
        if lo < 1:
            raise ConfigError("event_lifespan_us", "events need a positive lifespan")
        if not 0.0 <= self.error_rate < 1.0:
            raise ConfigError("error_rate", f"must be in [0, 1), got {self.error_rate}")
        if self.stay_mean_us <= 0:
            raise ConfigError("stay_mean_us", "must be positive")
        if self.start_jitter_us < 0:
            raise ConfigError("start_jitter_us", "must be non-negative")
        if self.rooms < 2:
            raise ConfigError("rooms", "need at least 2 rooms")
        if self.peer_fanout is not None and self.peer_fanout < 1:
            raise ConfigError("peer_fanout", "must be >= 1 or null")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class TraceEvent:
    id: EventId
    process: int
    start_us: int
    end_us: int
    reading: Optional[ContextReading] = None


@dataclass(frozen=True)
class TraceMessage:
    from_event: EventId
    to_event: EventId
    send_us: int
    deliver_us: int


@dataclass(frozen=True)
class Trace:
    events: tuple[TraceEvent, ...]
    messages: tuple[TraceMessage, ...]
    config: SimConfig
    dropped_messages: int = 0

    def readings(self) -> dict[EventId, ContextReading]:
        return {e.id: e.reading for e in self.events if e.reading is not None}

    def spans(self) -> dict[EventId, tuple[int, int]]:
        return {e.id: (e.start_us, e.end_us) for e in self.events}

    def makespan_us(self) -> int:
        last = max(e.end_us for e in self.events)
        if self.messages:
            last = max(last, max(m.deliver_us for m in self.messages))
        return last


@dataclass(frozen=True)
class GroundTruth:
    concurrent_pairs: frozenset[PairKey]
    violations: frozenset[Violation]


def _stream(seed: int, name: str) -> random.Random:
    """Child RNG for one sampling stream, derived from the root seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _rand_range(rng: random.Random, bounds: tuple[int, int]) -> int:
    return rng.randint(bounds[0], bounds[1])


class _Trajectories:
    """Exponential-stay room trajectories, one per user."""

    def __init__(self, rng: random.Random, n_users: int, rooms: int, mean_us: int, horizon_us: int):
        self._rooms = [f"R{101 + i}" for i in range(rooms)]
        self._starts: list[list[int]] = []
        self._where: list[list[str]] = []
        for _ in range(n_users):
            starts, where = [0], [rng.choice(self._rooms)]
            t = 0
            while t <= horizon_us:
                t += int(rng.expovariate(1.0 / mean_us)) + 1
                starts.append(t)
                where.append(rng.choice(self._rooms))
            self._starts.append(starts)
            self._where.append(where)

    def location(self, user: int, at_us: int) -> str:
        i = bisect.bisect_right(self._starts[user], at_us) - 1
        return self._where[user][i]

    def wrong_room(self, rng: random.Random, true_room: str) -> str:
        others = [r for r in self._rooms if r != true_room]
        return rng.choice(others)


def generate_trace(config: SimConfig) -> Trace:
    """Deterministic workload for one (config, seed) point."""
    config.validate()
    layout = _stream(config.seed, "layout")
    msg_rng = _stream(config.seed, "messages")
    delay_rng = _stream(config.seed, "delays")
    err_rng = _stream(config.seed, "errors")
    user_rng = _stream(config.seed, "users")

    procs = config.n_processes
    per_proc: list[list[tuple[int, int]]] = []
    for p in range(procs):
        t = layout.randint(0, config.start_jitter_us)
        spans = []
        for _ in range(config.events_per_process):
            start = t + _rand_range(layout, config.inter_event_gap_us)
            end = start + _rand_range(layout, config.event_lifespan_us)
            spans.append((start, end))
            t = end
        per_proc.append(spans)

    horizon = max(end for spans in per_proc for _, end in spans)
    traj = _Trajectories(user_rng, config.n_users, config.rooms, config.stay_mean_us, horizon)

    events: list[TraceEvent] = []
    for p in range(procs):
        for s, (start, end) in enumerate(per_proc[p]):
            user = user_rng.randrange(config.n_users)
            true_loc = traj.location(user, start)
            if err_rng.random() < config.error_rate:
                reading = ContextReading(
                    user=f"u{user}",
                    location=traj.wrong_room(err_rng, true_loc),
                    true_location=true_loc,
                    erroneous=True,
                )
            else:
                reading = ContextReading(
                    user=f"u{user}", location=true_loc, true_location=true_loc, erroneous=False
                )
            events.append(TraceEvent(EventId(p, s), p, start, end, reading))

    # Per-process start indexes for live-event lookup.
    starts_by_proc = [[start for start, _ in spans] for spans in per_proc]

    def live_event(q: int, at_us: int) -> Optional[EventId]:
        i = bisect.bisect_right(starts_by_proc[q], at_us) - 1
        if i < 0:
            return None
        start, end = per_proc[q][i]
        if start <= at_us < end:
            return EventId(q, i)
        return None

    messages: list[TraceMessage] = []
    dropped = 0
    for ev in events:
        p = ev.process
        peers = [q for q in range(procs) if q != p]
        if config.peer_fanout is not None and config.peer_fanout < len(peers):
            peers = sorted(msg_rng.sample(peers, config.peer_fanout))
        for q in peers:
            send_us = msg_rng.randint(ev.start_us, ev.end_us - 1)
            for _ in range(MESSAGE_RETRIES):
                deliver_us = send_us + _rand_range(delay_rng, config.message_delay_us)
                target = live_event(q, deliver_us)
                if target is not None:
                    messages.append(TraceMessage(ev.id, target, send_us, deliver_us))
                    break
            else:
                dropped += 1

    return Trace(tuple(events), tuple(messages), config, dropped)


def ground_truth(trace: Trace) -> GroundTruth:
    """Wall-time overlap pairs plus the violations among them.

    Sorted start scan with an end-time heap; half-open spans, so touching
    intervals do not overlap.
    """
    pairs: set[PairKey] = set()
    active: list[tuple[int, EventId]] = []
    for ev in sorted(trace.events, key=lambda e: (e.start_us, e.id)):
        while active and active[0][0] <= ev.start_us:
            heapq.heappop(active)
        for _, other in active:
            pairs.add(pair_key(ev.id, other))
        heapq.heappush(active, (ev.end_us, ev.id))
    violations = violation_filter(pairs, trace.readings())
    return GroundTruth(frozenset(pairs), frozenset(violations))


class DetectorFamily(enum.Enum):
    SNAPSHOT = "snapshot"
    VECTOR = "vector"
    PHYSICAL = "physical"


@dataclass(frozen=True)
class RunResult:
    family: DetectorFamily
    detected_pairs: frozenset[PairKey]
    violations: frozenset[Violation]
    counters: OpCounters
    dropped: int
    degraded: bool
    sim_wall_ms: float


# Replay point kinds, in tie-break order at equal times.
_START, _SEND, _DELIVER, _END = 0, 1, 2, 3


def _timeline(trace: Trace) -> list[tuple[int, int, int, int, object]]:
    """Deterministic total replay order.

    Entries are ``(time_us, kind, process, sub, payload)``; ties in wall
    time break by kind, then process, then per-process sequence.
    """
    entries: list[tuple[int, int, int, int, object]] = []
    for ev in trace.events:
        entries.append((ev.start_us, _START, ev.process, ev.id.seq, ev))
        entries.append((ev.end_us, _END, ev.process, ev.id.seq, ev))
    for idx, m in enumerate(trace.messages):
        entries.append((m.send_us, _SEND, m.from_event.process, idx, m))
        entries.append((m.deliver_us, _DELIVER, m.to_event.process, idx, m))
    entries.sort(key=lambda e: e[:4])
    return entries


def _replay_snapshot(
    trace: Trace, counters: OpCounters, params: ClockParams
) -> list[SnapshotDetector]:
    procs = trace.config.n_processes
    dets = [SnapshotDetector(p, procs, params, counters) for p in range(procs)]
    peers = [[d.on_broadcast for d in dets if d.process != p] for p in range(procs)]
    send_stamps: dict[int, int] = {}
    for _t, kind, proc, sub, payload in _timeline(trace):
        if kind == _START:
            e = payload.id
            tick = dets[proc].on_local_event(e)
            for hear in peers[proc]:
                hear(e, tick)
        elif kind == _SEND:
            e = payload.from_event
            x = send_stamps[sub] = dets[proc].on_send(e)
            for hear in peers[proc]:
                hear(e, x)
        elif kind == _DELIVER:
            record = MessageRecord(payload.from_event, payload.to_event, send_stamps[sub])
            dets[proc].on_message(record)
    return dets


def _run_snapshot(
    trace: Trace, counters: OpCounters, params: ClockParams
) -> tuple[set[PairKey], int]:
    dets = _replay_snapshot(trace, counters, params)
    detected: set[PairKey] = set()
    for d in dets:
        detected |= d.check_consistency()
    return detected, sum(d.dropped for d in dets)


def snapshot_intervals(
    trace: Trace, params: ClockParams = DEFAULT_PARAMS
) -> dict[EventId, tuple[int, int]]:
    """Final scalar interval of each event, as seen by its owning process."""
    dets = _replay_snapshot(trace, OpCounters(), params)
    return {e: (lo, hi) for d in dets for e, (lo, hi) in d.intervals.items()}


@dataclass(frozen=True)
class VectorPoint:
    """One stamped replay point; exposed so causality can be audited."""

    kind: int  # _START/_SEND/_DELIVER/_END
    process: int
    time_us: int
    event: Optional[EventId]
    message_index: Optional[int]
    stamp: VectorStamp


def _replay_vector(
    trace: Trace,
    counters: OpCounters,
    params: ClockParams,
    keep_points: bool = False,
) -> tuple[dict[EventId, Interval], list[VectorPoint]]:
    procs = trace.config.n_processes
    clocks = [VectorStamp.zero(procs) for _ in range(procs)]
    lo: dict[EventId, VectorStamp] = {}
    hi: dict[EventId, VectorStamp] = {}
    send_stamps: dict[int, VectorStamp] = {}
    points: list[VectorPoint] = []

    def note(kind: int, proc: int, t: int, event=None, msg=None) -> None:
        if keep_points:
            points.append(VectorPoint(kind, proc, t, event, msg, clocks[proc]))

    for t, kind, proc, sub, payload in _timeline(trace):
        if kind == _START:
            clocks[proc] = vector_tick(clocks[proc], proc, params)
            counters.clock_updates += 1
            counters.events_processed += 1
            lo[payload.id] = clocks[proc]
            note(kind, proc, t, event=payload.id)
        elif kind == _SEND:
            clocks[proc] = vector_tick(clocks[proc], proc, params)
            counters.clock_updates += 1
            counters.events_processed += 1
            counters.stamp_words_sent += procs
            send_stamps[sub] = clocks[proc]
            note(kind, proc, t, event=payload.from_event, msg=sub)
        elif kind == _DELIVER:
            clocks[proc] = vector_merge(clocks[proc], send_stamps[sub], proc, params)
            counters.clock_updates += 1
            counters.events_processed += 1
            note(kind, proc, t, event=payload.to_event, msg=sub)
        else:
            clocks[proc] = vector_tick(clocks[proc], proc, params)
            counters.clock_updates += 1
            hi[payload.id] = clocks[proc]
            note(kind, proc, t, event=payload.id)
    intervals = {e: Interval(lo[e], hi[e]) for e in lo}
    return intervals, points


def vector_point_stamps(trace: Trace, params: ClockParams = DEFAULT_PARAMS) -> list[VectorPoint]:
    """Vector stamps of every replay point, for causality audits."""
    intervals, points = _replay_vector(trace, OpCounters(), params, keep_points=True)
    return points


def run_trace(
    trace: Trace,
    family: DetectorFamily,
    params: ClockParams = DEFAULT_PARAMS,
    max_drops: int = 0,
) -> RunResult:
    """Replay a trace through one detector family and collect its output."""
    counters = OpCounters()
    dropped = 0
    if family is DetectorFamily.SNAPSHOT:
        detected, dropped = _run_snapshot(trace, counters, params)
    elif family is DetectorFamily.VECTOR:
        intervals, _ = _replay_vector(trace, counters, params)
        detected = vector_detect(intervals, counters)
    else:
        counters.events_processed += len(trace.events)
        detected = physical_detect(
            [(e.id, e.start_us, e.end_us) for e in trace.events], counters
        )
    violations = violation_filter(detected, trace.readings())
    return RunResult(
        family=family,
        detected_pairs=frozenset(detected),
        violations=frozenset(violations),
        counters=counters,
        dropped=dropped,
        degraded=dropped > max_drops,
        sim_wall_ms=trace.makespan_us() / 1000.0,
    )
