"""Independent brute-force oracles used only by the test suite."""
from __future__ import annotations

from snapdetect.detectors import pair_key
from snapdetect.metrics import OpCounters
from snapdetect.simulate import Trace, VectorPoint, _timeline
from snapdetect.stamps import Interval, VectorStamp, vector_lt, vector_merge, vector_tick

# Point kinds, matching the replay tie-break order.
START, SEND, DELIVER, END = 0, 1, 2, 3


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


def stamp_replay_vector(trace: Trace, counters: OpCounters, params, keep_points: bool = False):
    """The vector replay as one frozen ``VectorStamp`` per point.

    The loop ``simulate._replay_vector`` replaced, built on the
    ``vector_tick`` and ``vector_merge`` rules; kept as its reference.
    """
    procs = trace.config.n_processes
    clocks = [VectorStamp.zero(procs) for _ in range(procs)]
    lo, hi, send_stamps, points = {}, {}, {}, []

    def note(kind, proc, t, event=None, msg=None):
        if keep_points:
            points.append(VectorPoint(kind, proc, t, event, msg, clocks[proc]))

    for t, kind, proc, sub, payload in _timeline(trace):
        if kind == START:
            clocks[proc] = vector_tick(clocks[proc], proc, params)
            counters.clock_updates += 1
            counters.events_processed += 1
            lo[payload.id] = clocks[proc]
            note(kind, proc, t, event=payload.id)
        elif kind == SEND:
            clocks[proc] = vector_tick(clocks[proc], proc, params)
            counters.clock_updates += 1
            counters.events_processed += 1
            counters.stamp_words_sent += procs
            send_stamps[sub] = clocks[proc]
            note(kind, proc, t, event=payload.from_event, msg=sub)
        elif kind == DELIVER:
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
