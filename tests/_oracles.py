"""Independent brute-force oracles used only by the test suite.

The first section is the stamp algebra the replays' int forms are checked
against: frozen scalar and vector stamps with their tick-by-1 and
merge-by-max rules, vector ``[lo, hi)`` intervals and ``vector_arrays``,
which turns a map of them into ``detectors.vector_detect``'s input.
"""
from __future__ import annotations

import bisect
import heapq
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from snapdetect.detectors import (
    MAX_TICK,
    ContextReading,
    EventId,
    SnapshotDetector,
    StampOverflowError,
    id_pairs,
    pair_key,
    physical_detect,
    vector_detect,
    violation_filter,
)
from snapdetect.metrics import OpCounters
from snapdetect.simulate import (
    MESSAGE_RETRIES,
    DetectorFamily,
    RunResult,
    SimConfig,
    Trace,
    TraceEvent,
    TraceMessage,
    _replay_snapshot,
    _replay_vector,
    _stamps,
    _stream,
    _Trajectories,
    _vector_rows,
)

# Point kinds, matching the replay tie-break order.
START, SEND, DELIVER, END = 0, 1, 2, 3


@dataclass(frozen=True)
class SnapshotStamp:
    tick: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.tick <= MAX_TICK:
            raise StampOverflowError(f"tick out of range: {self.tick}")


@dataclass(frozen=True)
class VectorStamp:
    slots: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s < 0 or s > MAX_TICK for s in self.slots):
            raise StampOverflowError(f"slot out of range: {self.slots}")

    @classmethod
    def zero(cls, n: int) -> "VectorStamp":
        return cls((0,) * n)

    def __len__(self) -> int:
        return len(self.slots)


def snapshot_tick(clock: SnapshotStamp) -> SnapshotStamp:
    """Advance a scalar clock by 1 for a local occurrence or a send."""
    return SnapshotStamp(clock.tick + 1)


def snapshot_merge(local: SnapshotStamp, incoming: SnapshotStamp) -> SnapshotStamp:
    """Fold an incoming scalar stamp into the local clock: a plain max."""
    return SnapshotStamp(max(local.tick, incoming.tick))


def vector_tick(clock: VectorStamp, owner: int) -> VectorStamp:
    """Increment the owner's slot by 1; other slots are unchanged."""
    if not 0 <= owner < len(clock.slots):
        raise IndexError(f"owner {owner} out of range for {len(clock.slots)} slots")
    slots = list(clock.slots)
    slots[owner] += 1
    return VectorStamp(tuple(slots))


def vector_merge(local: VectorStamp, incoming: VectorStamp, owner: int) -> VectorStamp:
    """Slot-wise max of both stamps, then tick the owner's slot."""
    if len(local.slots) != len(incoming.slots):
        raise ValueError(
            f"vector length mismatch: {len(local.slots)} vs {len(incoming.slots)}"
        )
    merged = tuple(max(a, b) for a, b in zip(local.slots, incoming.slots))
    return vector_tick(VectorStamp(merged), owner)


def vector_leq(a: VectorStamp, b: VectorStamp) -> bool:
    """Slot-wise partial order: a <= b in every slot."""
    if len(a.slots) != len(b.slots):
        raise ValueError(
            f"vector length mismatch: {len(a.slots)} vs {len(b.slots)}"
        )
    return all(x <= y for x, y in zip(a.slots, b.slots))


def vector_lt(a: VectorStamp, b: VectorStamp) -> bool:
    """Strict slot-wise order: a <= b everywhere and a != b.

    For point events stamped by the vector rules this holds exactly when
    the first causally precedes the second.
    """
    return vector_leq(a, b) and a.slots != b.slots


@dataclass(frozen=True)
class Interval:
    """An event's ``[lo, hi)`` vector interval; ``lo <= hi`` slot-wise."""

    lo: VectorStamp
    hi: VectorStamp

    def __post_init__(self) -> None:
        if not vector_leq(self.lo, self.hi):
            raise ValueError("vector interval endpoints not slot-wise ordered")


def vector_arrays(intervals) -> tuple[list[EventId], np.ndarray, np.ndarray]:
    """``vector_detect``'s input from a map of vector intervals.

    Returns the ids in sorted order and their ``lo`` and ``hi`` slots as
    two int64 (m, n) arrays, row i for ``ids[i]``.  ``VectorStamp``
    validates slots to ``0..MAX_TICK``, so int64 holds them exactly.
    """
    items = sorted(intervals.items())
    lengths = {len(iv.lo.slots) for _, iv in items}
    if len(lengths) > 1:
        raise ValueError(f"mixed vector lengths: {sorted(lengths)}")
    m = len(items)
    n = lengths.pop() if lengths else 0
    lo = np.array([iv.lo.slots for _, iv in items], dtype=np.int64).reshape(m, n)
    hi = np.array([iv.hi.slots for _, iv in items], dtype=np.int64).reshape(m, n)
    return [e for e, _ in items], lo, hi


def readings_of(trace: Trace) -> dict:
    """Each event's reading by id, as ``violation_filter`` reads them; events with none are left out."""
    return {e.id: e.reading for e in trace.events if e.reading is not None}


def index_pairs(ids, first, second) -> set:
    """The pairs of index columns into ``ids`` as a set, once checked.

    Each pair must be in ``pair_key`` order and appear once, as
    ``overlap_columns`` and ``vector_detect`` promise.
    """
    pairs = set(id_pairs(ids, first, second))
    assert len(pairs) == len(first) == len(second), "a pair repeats"
    assert all(a < b for a, b in pairs), "a pair is out of pair_key order"
    return pairs


def vector_pairs(ids, lo, hi, counters: OpCounters | None = None) -> set:
    """``vector_detect``'s pairs as a set of ``EventId`` pairs."""
    return index_pairs(ids, *vector_detect(ids, lo, hi, counters))


def brute_force_overlap(trace: Trace) -> set:
    """O(n^2) double loop over half-open wall spans."""
    pairs = set()
    evs = trace.events
    for i in range(len(evs)):
        for j in range(i + 1, len(evs)):
            a, b = evs[i], evs[j]
            if max(a.start_us, b.start_us) < min(a.end_us, b.end_us):
                pairs.add(pair_key(a.id, b.id))
    return pairs


def span_columns(spans) -> tuple[list[EventId], np.ndarray, np.ndarray]:
    """``detectors.physical_detect``'s input from ``(id, start, end)`` spans.

    Returns the ids in the spans' order and their starts and ends as two
    int64 columns.
    """
    spans = list(spans)
    ids = [event for event, _, _ in spans]
    start = np.array([s for _, s, _ in spans], dtype=np.int64)
    end = np.array([e for _, _, e in spans], dtype=np.int64)
    return ids, start, end


def heap_scan_overlap(spans, counters: OpCounters | None = None) -> set:
    """Wall-time overlap of ``(id, start, end)`` spans by a sorted start scan.

    Spans are taken by (start, id), and each is paired with the spans
    still active, kept in a heap by end.  ``simulate.ground_truth`` ran
    this scan, and then ``detectors.physical_detect`` did, before the
    kernel took one ``searchsorted`` per trace; kept as a reference, with
    its ``pair_checks`` count and its ``ValueError`` for an empty span.
    """
    found = set()
    active = []
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


def boundary_sweep_overlap(spans, counters: OpCounters | None = None) -> set:
    """Wall-time overlap of ``(id, start, end)`` spans by a boundary sweep.

    The kernel ``detectors.physical_detect`` ran before it took the heap
    scan (``heap_scan_overlap``); kept as a reference, with its
    ``pair_checks`` count.
    """
    boundaries = []
    for event, start, end in spans:
        if start >= end:
            raise ValueError(f"empty span for {event}: [{start}, {end})")
        # Ends sort before starts at equal times: half-open touch is no overlap.
        boundaries.append((start, 1, event, end))
        boundaries.append((end, 0, event, end))
    boundaries.sort()
    active = set()
    found = set()
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


def scalar_vector_detect(intervals, counters: OpCounters | None = None) -> set:
    """The vector baseline's pair scan as one ``vector_lt`` call pair per pair.

    The loop ``vector_detect`` replaced; kept as its reference.
    """
    items = sorted(intervals.items())
    lengths = {len(iv.lo.slots) for _, iv in items}
    if len(lengths) > 1:
        raise ValueError(f"mixed vector lengths: {sorted(lengths)}")
    found = set()
    for i in range(len(items)):
        ei, vi = items[i]
        for j in range(i + 1, len(items)):
            ej, vj = items[j]
            if counters is not None:
                counters.pair_checks += 1
            if vector_lt(vi.lo, vj.hi) and vector_lt(vj.lo, vi.hi):
                found.add(pair_key(ei, ej))
    return found


def set_run_trace(trace: Trace, family: DetectorFamily) -> RunResult:
    """``run_trace`` as it was when every family kept a set of ``EventId`` pairs.

    The snapshot replay's index columns are read as pairs; the vector scan's
    rows are read off its sorted ids; the physical family's pairs are
    ``physical_detect``'s.  Each family's violations are
    ``violation_filter`` of its pairs over ``readings_of(trace)``, and its
    pairs are kept as a ``frozenset``.  The reference the key-column path
    replaced.
    """
    counters = OpCounters()
    dropped = 0
    if family is DetectorFamily.PHYSICAL:
        columns = trace.event_columns
        detected = physical_detect([e.id for e in trace.events], columns.start_us, columns.end_us, counters)
        counters.events_processed += len(trace.events)
    elif family is DetectorFamily.SNAPSHOT:
        replay = _replay_snapshot(trace, counters)
        detected = set(id_pairs(trace.ids, replay.first, replay.second))
        dropped = replay.dropped
    else:
        ids, lo, hi = _replay_vector(trace, counters)
        detected = vector_pairs(ids, lo, hi, counters)
    violations = violation_filter(detected, readings_of(trace))
    return RunResult(frozenset(detected), frozenset(violations), counters, dropped)


def replay_order_snapshot(trace: Trace) -> tuple[set, int, int]:
    """Snapshot pairs and drops read off the replay order, with no clock.

    Under the instant broadcast a message from b to c is dropped when c
    has not started before the delivery, and otherwise reported exactly
    when c started before the send.  Each point is keyed by the replay
    tie-break ``(time_us, kind, process, sub)``; no timeline is built.
    Returns the pairs, the drops and the delivered messages not reported.
    """
    starts = {ev.id: (ev.start_us, START, ev.process, ev.id.seq) for ev in trace.events}
    pairs, dropped, late = set(), 0, 0
    for idx, m in enumerate(trace.messages):
        start = starts[m.to_event]
        if not start < (m.deliver_us, DELIVER, m.to_event.process, idx):
            dropped += 1
        elif start < (m.send_us, SEND, m.from_event.process, idx):
            pairs.add(pair_key(m.to_event, m.from_event))
        else:
            late += 1
    return pairs, dropped, late


def closed_form_snapshot(trace: Trace) -> tuple[set, int, OpCounters]:
    """The snapshot family's pairs, drops and counters at broadcast delay 0, in closed form.

    With n processes, e events and m messages (every message of a trace
    was delivered when it was generated), the pairs and drops are
    ``replay_order_snapshot``'s, and with no replay:
    - ``pair_checks`` = m - dropped: each message not dropped is queued
      and checked once;
    - ``clock_updates`` = n(e + m) + m: every start and send ticks once
      and is announced to the n - 1 peers, each of which folds it once,
      and every delivery merges once, also one whose receiver has not
      started (its sender always has);
    - ``stamp_words_sent`` = ``events_processed`` = e + 2m: a start emits
      one word and a send two (its stamp and its broadcast), and every
      start, send and delivery is processed once.
    """
    pairs, dropped, _late = replay_order_snapshot(trace)
    n, e, m = trace.config.n_processes, len(trace.events), len(trace.messages)
    counters = OpCounters(
        clock_updates=n * (e + m) + m,
        stamp_words_sent=e + 2 * m,
        pair_checks=m - dropped,
        events_processed=e + 2 * m,
    )
    return pairs, dropped, counters


def keyed_timeline(trace: Trace) -> list[tuple]:
    """The replay order sorted on ``(time_us, kind, process, sub)`` alone.

    Entries are ``(time_us, kind, process, sub, payload)`` with the event
    or message as payload.  The keyed sort that ``simulate._timeline``'s
    columns replaced; kept as their reference.  The reference replays in
    this module walk it, so they do not depend on the code they check.
    """
    entries = []
    for ev in trace.events:
        entries.append((ev.start_us, START, ev.process, ev.id.seq, ev))
        entries.append((ev.end_us, END, ev.process, ev.id.seq, ev))
    for idx, m in enumerate(trace.messages):
        entries.append((m.send_us, SEND, m.from_event.process, idx, m))
        entries.append((m.deliver_us, DELIVER, m.to_event.process, idx, m))
    entries.sort(key=lambda e: e[:4])
    return entries


def keyed_columns(trace: Trace) -> list[list[int]]:
    """``keyed_timeline`` as the lists ``kind``, ``process``, ``item``, as in ``simulate.Timeline``.

    ``item`` is the payload's index in ``trace.events`` (start, end) or
    ``trace.messages`` (send, delivery).  ``(kind, item)`` is unique per
    point, so the three lists fix the whole order.
    """
    index = {id(ev): i for i, ev in enumerate(trace.events)}
    columns: list[list[int]] = [[], [], []]
    for _t, kind, proc, sub, payload in keyed_timeline(trace):
        item = sub if kind in (SEND, DELIVER) else index[id(payload)]
        for column, value in zip(columns, (kind, proc, item)):
            column.append(value)
    return columns


def stamp_replay_vector(trace: Trace, counters: OpCounters):
    """The vector replay as one frozen ``VectorStamp`` per point.

    The loop ``simulate._replay_vector`` replaced, built on the
    ``vector_tick`` and ``vector_merge`` rules; kept as its reference.
    Returns each event's ``Interval`` and each point's stamp, in
    ``keyed_timeline`` order.
    """
    procs = trace.config.n_processes
    clocks = [VectorStamp.zero(procs) for _ in range(procs)]
    lo, hi, send_stamps, points = {}, {}, {}, []
    for _t, kind, proc, sub, payload in keyed_timeline(trace):
        if kind == START:
            clocks[proc] = vector_tick(clocks[proc], proc)
            counters.events_processed += 1
            lo[payload.id] = clocks[proc]
        elif kind == SEND:
            clocks[proc] = vector_tick(clocks[proc], proc)
            counters.events_processed += 1
            counters.stamp_words_sent += procs
            send_stamps[sub] = clocks[proc]
        elif kind == DELIVER:
            clocks[proc] = vector_merge(clocks[proc], send_stamps[sub], proc)
            counters.events_processed += 1
        else:
            clocks[proc] = vector_tick(clocks[proc], proc)
            hi[payload.id] = clocks[proc]
        counters.clock_updates += 1
        points.append(clocks[proc])
    intervals = {e: Interval(lo[e], hi[e]) for e in lo}
    return intervals, points


def vector_point_stamps(trace: Trace) -> np.ndarray:
    """Vector stamps of every replay point, for causality audits.

    An int64 (points, n_processes) array whose row i is the stamp of
    ``trace.timeline`` point i, built by ``simulate._stamps`` from the
    replay's own ``known`` rows, merged one causal level at a time, and
    each point's renumbered row (``simulate._vector_rows``).
    """
    known, row, count = _vector_rows(trace)
    return _stamps(known, row, count, trace.timeline.process)


def timeline_point_stamps(trace: Trace, stamps: np.ndarray) -> dict:
    """Rows of a per-point stamp array keyed as ``point_nodes`` keys points.

    Row i belongs to ``trace.timeline`` point i, whose kind and item say
    which: ``(kind, event id)`` for a start or end, ``(kind, message
    index)`` for a send or delivery.  Each row becomes a ``VectorStamp``.
    """
    timeline = trace.timeline
    keyed = {}
    for kind, item, slots in zip(timeline.kind.tolist(), timeline.item.tolist(), stamps.tolist()):
        ref = trace.events[item].id if kind in (START, END) else item
        keyed[(kind, ref)] = VectorStamp(tuple(slots))
    return keyed


def per_peer_replay_snapshot(trace: Trace, counters: OpCounters) -> list[SnapshotDetector]:
    """The snapshot replay with one ``on_broadcast`` call per peer per tick.

    The driver ``simulate._replay_snapshot`` replaced, first with lazy
    folds and then with one loop over plain lists that folds through the
    ``arrived`` column; kept as its reference.
    """
    procs = trace.config.n_processes
    dets = [SnapshotDetector(p, procs, counters) for p in range(procs)]
    peers = [[d.on_broadcast for d in dets if d.process != p] for p in range(procs)]
    send_stamps: dict[int, int] = {}
    for _t, kind, proc, sub, payload in keyed_timeline(trace):
        if kind == START:
            e = payload.id
            tick = dets[proc].on_local_event(e)
            for hear in peers[proc]:
                hear(e, tick)
        elif kind == SEND:
            e = payload.from_event
            x = send_stamps[sub] = dets[proc].on_send(e)
            for hear in peers[proc]:
                hear(e, x)
        elif kind == DELIVER:
            dets[proc].on_message(payload.from_event, payload.to_event, send_stamps[sub])
    return dets


def point_nodes(trace: Trace) -> list[tuple]:
    """Every causal point of a trace: starts, sends, delivers, ends.

    A node is ``(kind, ref)`` where ref is the event id for start/end
    and the message index for send/deliver.
    """
    nodes = []
    for ev in trace.events:
        nodes.append((START, ev.id))
        nodes.append((END, ev.id))
    for idx in range(len(trace.messages)):
        nodes.append((SEND, idx))
        nodes.append((DELIVER, idx))
    return nodes


def _node_position(trace: Trace, node: tuple) -> tuple:
    kind, ref = node
    if kind in (START, END):
        ev = next(e for e in trace.events if e.id == ref)
        t = ev.start_us if kind == START else ev.end_us
        return (ev.process, t, kind, ref.seq)
    m = trace.messages[ref]
    if kind == SEND:
        return (m.from_event.process, m.send_us, kind, ref)
    return (m.to_event.process, m.deliver_us, kind, ref)


def causal_edges(trace: Trace) -> dict:
    """Program-order plus send->deliver edges, built straight from the trace."""
    nodes = point_nodes(trace)
    by_proc: dict[int, list] = {}
    for node in nodes:
        pos = _node_position(trace, node)
        by_proc.setdefault(pos[0], []).append((pos[1:], node))
    edges: dict[tuple, set] = {node: set() for node in nodes}
    for seq in by_proc.values():
        seq.sort()
        for (_, a), (_, b) in zip(seq, seq[1:]):
            edges[a].add(b)
    for idx in range(len(trace.messages)):
        edges[(SEND, idx)].add((DELIVER, idx))
    return edges


def reachable_from(edges: dict, source: tuple) -> set:
    seen = set()
    stack = [source]
    while stack:
        node = stack.pop()
        for nxt in edges[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def causal_closure(trace: Trace) -> dict:
    """node -> set of strictly later nodes, by brute-force DFS."""
    edges = causal_edges(trace)
    return {node: reachable_from(edges, node) for node in edges}


def list_wrong_room(rng, rooms: list[str], true_room: str) -> str:
    """A wrong room as a ``choice`` from the list of every other room.

    The rule ``_Trajectories.wrong_room`` replaced with one ``randrange``
    that skips the true room; kept as its reference.
    """
    return rng.choice([r for r in rooms if r != true_room])


def randint_generate_trace(config: SimConfig, tally: Counter | None = None) -> Trace:
    """Trace generation with one ``randint`` call per layout, send and delay draw.

    The loop ``simulate.generate_trace`` replaced; kept as its reference.
    With ``tally``, it also counts each message attempt's fate:
    ``hopeless`` (its earliest delivery is at or after the receiver's
    last end), ``hit_try_1`` to ``hit_try_3`` and ``dropped``.
    """
    config.validate()
    layout = _stream(config.seed, "layout")
    msg_rng = _stream(config.seed, "messages")
    delay_rng = _stream(config.seed, "delays")
    err_rng = _stream(config.seed, "errors")
    user_rng = _stream(config.seed, "users")
    tally = Counter() if tally is None else tally

    procs = config.n_processes
    per_proc = []
    for p in range(procs):
        t = layout.randint(0, config.start_jitter_us)
        spans = []
        for _ in range(config.events_per_process):
            start = t + layout.randint(*config.inter_event_gap_us)
            end = start + layout.randint(*config.event_lifespan_us)
            spans.append((start, end))
            t = end
        per_proc.append(spans)

    horizon = max(end for spans in per_proc for _, end in spans)
    traj = _Trajectories(user_rng, config.n_users, config.rooms, config.stay_mean_us, horizon)

    events = []
    for p in range(procs):
        for s, (start, end) in enumerate(per_proc[p]):
            user = user_rng.randrange(config.n_users)
            true_loc = traj.location(user, start)
            if err_rng.random() < config.error_rate:
                reading = ContextReading(
                    user=f"u{user}",
                    location=list_wrong_room(err_rng, traj.rooms, true_loc),
                    true_location=true_loc,
                    erroneous=True,
                )
            else:
                reading = ContextReading(
                    user=f"u{user}", location=true_loc, true_location=true_loc, erroneous=False
                )
            events.append(TraceEvent(EventId(p, s), p, start, end, reading))

    starts_by_proc = [[start for start, _ in spans] for spans in per_proc]

    def live_event(q, at_us):
        i = bisect.bisect_right(starts_by_proc[q], at_us) - 1
        if i < 0:
            return None
        start, end = per_proc[q][i]
        if start <= at_us < end:
            return EventId(q, i)
        return None

    messages = []
    dropped = 0
    for ev in events:
        p = ev.process
        peers = [q for q in range(procs) if q != p]
        if config.peer_fanout is not None and config.peer_fanout < len(peers):
            peers = sorted(msg_rng.sample(peers, config.peer_fanout))
        for q in peers:
            send_us = msg_rng.randint(ev.start_us, ev.end_us - 1)
            if send_us + config.message_delay_us[0] >= per_proc[q][-1][1]:
                tally["hopeless"] += 1
            for attempt in range(1, MESSAGE_RETRIES + 1):
                deliver_us = send_us + delay_rng.randint(*config.message_delay_us)
                target = live_event(q, deliver_us)
                if target is not None:
                    messages.append(TraceMessage(ev.id, target, send_us, deliver_us))
                    tally[f"hit_try_{attempt}"] += 1
                    break
            else:
                dropped += 1
                tally["dropped"] += 1

    return Trace(tuple(events), tuple(messages), config, dropped)


def three_axis_config_for_point(base: SimConfig, axis: str, point, seed: int) -> SimConfig:
    """``experiment.config_for_point`` as it was with three hand-written axes.

    Kept as the reference the field-derived axes are checked against; it
    coerces with ``int`` and ``float`` and reads a range point's first two
    items, so it agrees only on valid points.
    """
    if axis == "nodes":
        return replace(base, nodes=int(point), seed=seed)
    if axis == "delay_ms":
        if isinstance(point, (list, tuple)):
            delay = (int(round(point[0] * 1000)), int(round(point[1] * 1000)))
        else:
            delay = (int(round(point * 1000)), int(round(point * 1000)))
        return replace(base, message_delay_us=delay, seed=seed)
    if axis == "error_rate":
        return replace(base, error_rate=float(point), seed=seed)
    raise ValueError(f"unknown axis {axis!r}")
