"""Deterministic discrete-event simulation of asynchronous processes.

Generates location-reading workloads over ``nodes * instances_per_node``
processes, wires messages between concurrently-live events with random
delays, computes wall-time ground truth, and replays traces through any
of the three detector families.

All times are integer microseconds since trace start; all randomness
flows from one root seed through named per-stream derivations, so e.g.
changing the error rate never perturbs the event layout.  Message wiring
runs as columns over every attempt of a trace: send times and delays are
read in bulk from their streams' MT19937 words, exactly as
``random.Random.randint`` reads them, and an array search over the
receiver's events settles each attempt whose outcome no delay can change.
"""
from __future__ import annotations

import array
import bisect
import enum
import functools
import hashlib
import itertools
import random
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .detectors import (
    MAX_TICK,
    ContextReading,
    EventId,
    PairKey,
    SnapshotDetector,
    StampOverflowError,
    Violation,
    physical_detect,
    vector_detect,
    violation_filter,
)
from .metrics import OpCounters

#: Delay resamples tried per message before it is dropped at generation.
MESSAGE_RETRIES = 3
#: 32-bit words one bulk draw takes from a stream: enough to amortise the
#: draw, few enough that a stream's unread words stay a few KB.
CHUNK_WORDS = 1 << 10


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


#: The config schema: every serialised form of a ``SimConfig`` is built
#: from this list.  A field whose default is a tuple is an inclusive
#: ``[lo, hi]`` range; a ``_us`` field is a time in microseconds.
CONFIG_FIELDS = fields(SimConfig)
#: Every field but the seed, by its sweep-spec key: a spec gives times in
#: milliseconds, so a ``_us`` field is written ``_ms`` there.
SPEC_FIELDS = {
    f.name[:-3] + "_ms" if f.name.endswith("_us") else f.name: f
    for f in CONFIG_FIELDS
    if f.name != "seed"
}


def is_range(f) -> bool:
    return isinstance(f.default, tuple)


def config_record(config: SimConfig, schema=CONFIG_FIELDS) -> dict:
    """The ``schema`` fields of ``config`` by name, ranges as ``[lo, hi]`` lists."""
    return {
        f.name: list(getattr(config, f.name)) if is_range(f) else getattr(config, f.name)
        for f in schema
    }


def config_from_record(record: dict) -> SimConfig:
    """Inverse of ``config_record``; the result is validated.

    Every field must be present, defaults included, and no other key may
    be; ``ConfigError`` names the offending key.
    """
    unknown = record.keys() - {f.name for f in CONFIG_FIELDS}
    if unknown:
        raise ConfigError(min(unknown), "unknown field")
    values = {}
    for f in CONFIG_FIELDS:
        if f.name not in record:
            raise ConfigError(f.name, "missing")
        value = record[f.name]
        if is_range(f):
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError(f.name, f"expected [lo, hi], got {value!r}")
            value = tuple(value)
        values[f.name] = value
    config = SimConfig(**values)
    config.validate()
    return config


class TraceEvent(NamedTuple):
    id: EventId
    process: int
    start_us: int
    end_us: int
    reading: Optional[ContextReading] = None


class TraceMessage(NamedTuple):
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

    @functools.cached_property
    def makespan_us(self) -> int:
        """The last end or delivery time, computed on first use and kept with the trace."""
        last = max(e.end_us for e in self.events)
        if self.messages:
            last = max(last, max(m.deliver_us for m in self.messages))
        return last

    @functools.cached_property
    def event_columns(self) -> EventColumns:
        """The checked event columns, built on first use and kept with the trace.

        Ground truth and every family's replay read them first, so a
        malformed event identity is rejected once per trace.
        """
        return _event_columns(self.events)

    @functools.cached_property
    def timeline(self) -> Timeline:
        """The replay order, built on first use and kept with the trace."""
        return _timeline(self)

    @functools.cached_property
    def truth(self) -> GroundTruth:
        """Wall-time overlap and its violations, built on first use and kept with the trace.

        ``physical_detect`` runs here and nowhere else in a run, and
        ``violation_filter`` lifts its pairs: ``ground_truth`` and the
        physical family both return this result.
        """
        self.event_columns  # rejects a malformed event identity
        counters = OpCounters()
        pairs = physical_detect([(e.id, e.start_us, e.end_us) for e in self.events], counters)
        violations = violation_filter(pairs, self.readings())
        return GroundTruth(frozenset(pairs), frozenset(violations), counters.pair_checks)


@dataclass(frozen=True)
class GroundTruth:
    """Wall-time overlap pairs, the violations among them, and the checks made.

    ``pair_checks`` is what the overlap kernel counted; the physical
    family reports it as its own.
    """

    concurrent_pairs: frozenset[PairKey]
    violations: frozenset[Violation]
    pair_checks: int


class EventColumns(NamedTuple):
    """A trace's events as columns, in ``trace.events`` order.

    ``process`` and ``seq`` are int32, ``start_us`` and ``end_us`` int64.
    """

    process: np.ndarray
    seq: np.ndarray
    start_us: np.ndarray
    end_us: np.ndarray


class EventIdentityError(ValueError):
    """An event identity the replays cannot trust.

    ``index`` is the event's place in ``trace.events``.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class MessageError(ValueError):
    """A message the replays cannot trust.

    ``index`` is the message's place in ``trace.messages``.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _event_columns(events) -> EventColumns:
    """The columns of ``events``, once their identities are checked.

    Raises ``EventIdentityError`` naming the first event whose
    ``id.process`` is not its ``process``, then the first whose id
    repeats, then the first that starts before an event of its process
    with a lower seq.  The snapshot replay's heard-of test reads a
    process's latest start as its highest seq, so the last is as wrong
    as the others.
    """
    e = len(events)
    process = np.fromiter((ev.process for ev in events), np.int32, e)
    seq = np.fromiter((ev.id.seq for ev in events), np.int32, e)
    start = np.fromiter((ev.start_us for ev in events), np.int64, e)
    end = np.fromiter((ev.end_us for ev in events), np.int64, e)
    named = np.fromiter((ev.id.process for ev in events), np.int64, e)
    foreign = np.flatnonzero(named != process)
    if foreign.size:
        i = int(foreign[0])
        ev = events[i]
        raise EventIdentityError(
            i, f"event {tuple(ev.id)}: id names process {ev.id.process}, but it runs on {ev.process}"
        )
    # Each process's events by seq; the sort is stable, so of two events
    # with one id the later-listed comes second.
    order = np.lexsort((seq, process))
    later, earlier = order[1:], order[:-1]
    same = process[later] == process[earlier]
    repeats = same & (seq[later] == seq[earlier])
    if repeats.any():
        i = int(later[repeats].min())
        raise EventIdentityError(i, f"event {tuple(events[i].id)}: id repeats")
    early = np.flatnonzero(same & (start[later] < start[earlier]))
    if early.size:
        k = early[np.argmin(later[early])]
        a, b = events[later[k]], events[earlier[k]]
        raise EventIdentityError(
            int(later[k]),
            f"event {tuple(a.id)}: starts at {a.start_us} us,"
            f" before event {tuple(b.id)} at {b.start_us} us",
        )
    return EventColumns(process, seq, start, end)


def _stream(seed: int, name: str) -> random.Random:
    """Child RNG for one sampling stream, derived from the root seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _randint(bits, lo: int, hi: int) -> int:
    """``randint(lo, hi)`` on the stream whose ``getrandbits`` is ``bits``.

    ``random.Random.randint``'s own rejection draw, without the argument
    handling of ``randrange``: the same values from the same words.
    """
    n = hi - lo + 1
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return lo + r


class _Words(random.Random):
    """One stream's MT19937 words, drawn ``CHUNK_WORDS`` at a time and read in order.

    ``source.getrandbits(32 * c)`` is the stream's next ``c`` words, least
    significant first.  ``getrandbits`` reads them as CPython's does: for
    ``k <= 32`` one word shifted right by ``32 - k``; for wider ``k``,
    ``ceil(k / 32)`` words, least significant first, the last shifted right
    to fit.  So ``sample``, ``randint`` and every other ``random.Random``
    method, all of which draw through ``getrandbits``, give what they give
    on ``source``.
    """

    def __init__(self, source: random.Random):
        super().__init__(0)  # the inherited generator state is never read
        self._source = source
        self._words: list[int] = []
        self._pos = 0  # the next unread word

    def _refill(self) -> None:
        """Replace the words, all read, with the source's next ``CHUNK_WORDS``."""
        self._words = _chunk(self._source, CHUNK_WORDS).tolist()
        self._pos = 0

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        value = 0
        for i in range((k + 31) // 32):
            if self._pos == len(self._words):
                self._refill()
            word = self._words[self._pos]
            self._pos += 1
            value |= word >> max(0, 32 * (i + 1) - k) << 32 * i
        return value

    def below(self, n: int, count: int) -> list[int]:
        """The next ``count`` values of ``randint(0, n - 1)``.

        For ``k = n.bit_length() <= 32`` a draw is the next word shifted
        right by ``32 - k`` and kept when below ``n``: randint's rejection
        loop, one list read per word.
        """
        k = n.bit_length()
        if k > 32:
            return [_randint(self.getrandbits, 0, n - 1) for _ in range(count)]
        shift = 32 - k
        words, pos, end = self._words, self._pos, len(self._words)
        out = []
        while count:
            if pos == end:
                self._pos = pos
                self._refill()
                words, pos, end = self._words, self._pos, len(self._words)
            r = words[pos] >> shift
            pos += 1
            if r < n:
                out.append(r)
                count -= 1
        self._pos = pos
        return out


def _chunk(rng: random.Random, words: int) -> np.ndarray:
    """The next ``words`` 32-bit words of ``rng``, in the order its draws read them."""
    return np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), "<u4")


def _randints(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.randint(0, n - 1)``, as an array.

    For ``k = n.bit_length() <= 32`` a draw is one word shifted right by
    ``32 - k`` and kept when below ``n``, so the values kept from each
    chunk of at most ``CHUNK_WORDS`` words are randint's rejection loop
    over it, and they are uint32.  Wider draws take several words each;
    they go one at a time and are Python ints in an object array, so no
    span is too wide.  Words drawn past the last value kept are lost, so
    ``rng`` must serve no later draw.
    """
    k = n.bit_length()
    if k > 32:
        bits = rng.getrandbits
        return np.array([_randint(bits, 0, n - 1) for _ in range(count)], dtype=object)
    parts = [np.empty(0, np.uint32)]
    while count:
        drawn = _chunk(rng, min(CHUNK_WORDS, (count << k) // n + 1)) >> (32 - k)
        kept = drawn[drawn < n][:count]
        parts.append(kept)
        count -= len(kept)
    return np.concatenate(parts)


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
    layout_bits = layout.getrandbits
    gap_lo, gap_hi = config.inter_event_gap_us
    life_lo, life_hi = config.event_lifespan_us
    per_proc: list[list[tuple[int, int]]] = []
    for p in range(procs):
        t = _randint(layout_bits, 0, config.start_jitter_us)
        spans = []
        for _ in range(config.events_per_process):
            start = t + _randint(layout_bits, gap_lo, gap_hi)
            end = start + _randint(layout_bits, life_lo, life_hi)
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

    # Every message attempt as a column entry, in the order the attempts
    # are made: event by event, each event's peers in ascending order.
    words = _Words(msg_rng)
    peers_of = [[q for q in range(procs) if q != p] for p in range(procs)]
    fanout = config.peer_fanout
    receivers = array.array("q")
    offsets = array.array("q")  # each send time, less its event's start
    for ev in events:
        peers = peers_of[ev.process]
        if fanout is not None and fanout < len(peers):
            peers = sorted(words.sample(peers, fanout))
        receivers.extend(peers)
        offsets.extend(words.below(ev.end_us - ev.start_us, len(peers)))
    per_event = len(receivers) // len(events)  # every event messages as many peers
    receiver = np.frombuffer(receivers, dtype=np.int64)
    span_us = np.array(per_proc, dtype=np.int64)  # (process, seq, [start, end])
    starts, ends = span_us[..., 0], span_us[..., 1]
    starts_by_proc, ends_by_proc = starts.tolist(), ends.tolist()
    send = np.frombuffer(offsets, dtype=np.int64) + np.repeat(starts.ravel(), per_event)

    # Each attempt's delivery window, [send + lo, send + hi], with times
    # past the horizon clipped to horizon + 1: no event is live there, and
    # the sums stay inside int64.
    delay_lo, delay_hi = config.message_delay_us
    cap = horizon + 1
    lo, hi = min(delay_lo, cap), min(delay_hi, cap)
    low = np.minimum(send, cap - lo) + lo
    high = np.minimum(send, cap - hi) + hi
    seq, inside, missed = _window_outcomes(starts, ends, receiver, low, high)

    # An attempt uses one delay if it lands on its first try, else all
    # MESSAGE_RETRIES, so each attempt's first delay is a cumulative sum.
    # Only the attempts whose outcome depends on the delays drawn are
    # tried, one delay at a time, and each one that lands early moves the
    # first delay of every later attempt back.
    used = np.where(inside, 1, MESSAGE_RETRIES)
    delays = _randints(delay_rng, delay_hi - delay_lo + 1, int(used.sum()))
    first = np.cumsum(used) - used
    landed: list[int] = []
    landed_us: list[int] = []
    landed_seq: list[int] = []
    saved = 0  # delays left unused by the attempts tried so far
    uncertain = np.flatnonzero(~(inside | missed))
    tried = zip(
        uncertain.tolist(), first[uncertain].tolist(), send[uncertain].tolist(), receiver[uncertain].tolist()
    )
    for i, at, send_us, q in tried:
        at -= saved
        q_starts, q_ends = starts_by_proc[q], ends_by_proc[q]
        for tries, delay in enumerate(delays[at : at + MESSAGE_RETRIES].tolist(), 1):
            deliver_us = send_us + delay_lo + delay
            j = bisect.bisect_right(q_starts, deliver_us) - 1
            if j >= 0 and deliver_us < q_ends[j]:
                landed.append(i)
                landed_us.append(deliver_us)
                landed_seq.append(j)
                used[i] = tries
                saved += MESSAGE_RETRIES - tries
                break
    first = np.cumsum(used) - used

    delivered = inside.copy()
    delivered[landed] = True
    deliver = np.zeros(len(send), dtype=np.int64)
    deliver[inside] = low[inside] + delays[first[inside]]  # inside, low is send + delay_lo
    deliver[landed] = landed_us
    seq[landed] = landed_seq
    kept = np.flatnonzero(delivered)
    ids = [ev.id for ev in events]  # event (p, s) is ids[p * events_per_process + s]
    fields = zip(
        map(ids.__getitem__, (kept // per_event).tolist()),
        map(ids.__getitem__, (receiver[kept] * config.events_per_process + seq[kept]).tolist()),
        send[kept].tolist(),
        deliver[kept].tolist(),
    )
    # tuple.__new__ skips the NamedTuple constructor's Python frame.
    messages = map(tuple.__new__, itertools.repeat(TraceMessage), fields)
    dropped = len(send) - len(kept)
    return Trace(tuple(events), tuple(messages), config, dropped)


def _window_outcomes(
    starts: np.ndarray, ends: np.ndarray, receiver: np.ndarray, low: np.ndarray, high: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each delivery window ``[low, high]`` falls among its receiver's events.

    ``starts`` and ``ends`` are (processes, events) arrays, each row in
    start order with no two events of a row overlapping.  Returns, per
    window, the seq of the receiver's last event starting at or before
    ``low`` (-1 if none), whether the window lies inside that event, so
    that every delay delivers into it, and whether it meets no event, so
    that every delay misses.
    """
    procs, per_proc = starts.shape
    seq = np.empty(len(low), dtype=np.intp)
    by_receiver = np.argsort(receiver, kind="stable")
    bounds = np.cumsum(np.bincount(receiver, minlength=procs))[:-1]
    for q, at in enumerate(np.split(by_receiver, bounds)):
        seq[at] = np.searchsorted(starts[q], low[at], "right") - 1
    found = seq >= 0
    end = ends[receiver, np.maximum(seq, 0)]
    after = np.minimum(seq + 1, per_proc - 1)
    inside = found & (high < end)
    missed = (~found | (low >= end)) & ((seq + 1 == per_proc) | (starts[receiver, after] > high))
    return seq, inside, missed


def ground_truth(trace: Trace) -> GroundTruth:
    """Wall-time overlap pairs plus the violations among them: ``trace.truth``.

    Half-open spans, so touching intervals do not overlap.
    """
    return trace.truth


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
    sim_wall_ms: float


# Replay point kinds, in tie-break order at equal times.
_START, _SEND, _DELIVER, _END = 0, 1, 2, 3


class Timeline(NamedTuple):
    """A trace's replay points as parallel columns, in replay order.

    Point i happens at ``time_us[i]`` (int64) on ``process[i]``, and
    ``kind[i]`` (int8) is ``_START``, ``_SEND``, ``_DELIVER`` or ``_END``.
    ``sub[i]`` is the event's seq for a start or end and the message index
    for a send or delivery; ``item[i]`` is the point's index into
    ``trace.events`` (start, end) or ``trace.messages`` (send, delivery).
    The index columns are int32.
    """

    time_us: np.ndarray
    kind: np.ndarray
    process: np.ndarray
    sub: np.ndarray
    item: np.ndarray


def _timeline(trace: Trace) -> Timeline:
    """Deterministic total replay order, as ``Trace.timeline`` keeps it.

    Ties in wall time break by kind, then process, then ``sub``.  The four
    keys are unique per point, so the order does not depend on how
    ``trace.events`` and ``trace.messages`` are listed.  Both replays index
    their state by process, so an event whose process is outside
    ``0..n_processes - 1`` raises ``EventIdentityError``; the messages are
    checked by ``_message_columns``.
    """
    columns = trace.event_columns
    owner, seq = columns.process, columns.seq
    procs = trace.config.n_processes
    outside = np.flatnonzero((owner < 0) | (owner >= procs))
    if outside.size:
        i = int(outside[0])
        ev = trace.events[i]
        raise EventIdentityError(
            i, f"event {tuple(ev.id)}: process {ev.process} is outside 0..{procs - 1}"
        )
    sent, delivered, sender, receiver = _message_columns(trace)
    e, n = len(seq), len(sent)
    event = np.arange(e, dtype=np.int32)
    msg = np.arange(n, dtype=np.int32)
    time_us = np.concatenate((columns.start_us, columns.end_us, sent, delivered))
    kind = np.repeat(np.array([_START, _END, _SEND, _DELIVER], dtype=np.int8), (e, e, n, n))
    process = np.concatenate((owner, owner, owner[sender], owner[receiver]))
    sub = np.concatenate((seq, seq, msg, msg))
    item = np.concatenate((event, event, msg, msg))
    order = np.lexsort((sub, process, kind, time_us))
    return Timeline(time_us[order], kind[order], process[order], sub[order], item[order])


def _message_columns(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each message's send and delivery time (int64) and its sender's and receiver's event index.

    Each message field is read once.  The replays read a send's stamp at
    its delivery, so ``MessageError`` names the first message whose sender
    or receiver is no event of the trace, then the first sent outside its
    sender's ``[start, end)``, then the first delivered before its send
    (``deliver_us < send_us``; at equal times the send comes first), then
    the first delivered at or after its receiver's end, which the snapshot
    replay would fold into an event that is over.  A delivery before its
    receiver starts is allowed: the snapshot family counts it as a drop.
    """
    columns, messages = trace.event_columns, trace.messages
    procs, n = trace.config.n_processes, len(messages)
    sent = np.fromiter((m.send_us for m in messages), np.int64, n)
    delivered = np.fromiter((m.deliver_us for m in messages), np.int64, n)
    sender = _event_index(columns, procs, (m.from_event for m in messages), n)
    receiver = _event_index(columns, procs, (m.to_event for m in messages), n)
    unknown = np.flatnonzero((sender < 0) | (receiver < 0))
    if unknown.size:
        i = int(unknown[0])
        m = messages[i]
        role, ref = ("sender", m.from_event) if sender[i] < 0 else ("receiver", m.to_event)
        raise MessageError(i, f"message {i}: {role} {tuple(ref)} is no event of the trace")
    astray = np.flatnonzero((sent < columns.start_us[sender]) | (sent >= columns.end_us[sender]))
    if astray.size:
        i = int(astray[0])
        ev = trace.events[sender[i]]
        raise MessageError(
            i,
            f"message {i}: sent at {messages[i].send_us} us, outside its sender"
            f" {tuple(ev.id)}'s span [{ev.start_us}, {ev.end_us}) us",
        )
    late = np.flatnonzero(delivered < sent)
    if late.size:
        i = int(late[0])
        raise MessageError(
            i,
            f"message {i}: delivered at {messages[i].deliver_us} us,"
            f" before its send at {messages[i].send_us} us",
        )
    ended = np.flatnonzero(delivered >= columns.end_us[receiver])
    if ended.size:
        i = int(ended[0])
        ev = trace.events[receiver[i]]
        raise MessageError(
            i,
            f"message {i}: delivered at {messages[i].deliver_us} us,"
            f" at or after its receiver {tuple(ev.id)}'s end at {ev.end_us} us",
        )
    return sent, delivered, sender, receiver


def _event_index(columns: EventColumns, procs: int, ids, n: int) -> np.ndarray:
    """Where each of the ``n`` ``ids`` is in the events, or -1 where no event has it.

    An id is keyed as ``process << 32`` plus its seq's low 32 bits.  Event
    seqs are int32 and event processes lie in ``0..procs - 1``, so event
    keys are unique and below the int64 maximum, which ends the search.
    """

    def key(process: np.ndarray, seq: np.ndarray) -> np.ndarray:
        return process.astype(np.int64) << 32 | seq.astype(np.int64) & 0xFFFFFFFF

    keys = key(columns.process, columns.seq)
    order = np.argsort(keys)
    ranked = np.append(keys[order], np.iinfo(np.int64).max)
    pairs = np.fromiter(itertools.chain.from_iterable(ids), np.int64, 2 * n).reshape(n, 2)
    process, seq = pairs[:, 0], pairs[:, 1]
    fits = (0 <= process) & (process < procs) & (-(2**31) <= seq) & (seq < 2**31)
    want = np.where(fits, key(process, seq), -1)
    at = np.searchsorted(ranked, want)
    return np.where(ranked[at] == want, np.append(order, -1)[at], -1)


def _replay_snapshot(trace: Trace, counters: OpCounters) -> list[SnapshotDetector]:
    """Replay a trace with every start and send tick broadcast instantly.

    An announcement is not pushed to the n - 1 peers.  The driver counts
    announcements and keeps their running min and max; before process p
    ticks or takes a delivery, and once at the end, p folds the
    ``announced - cursor[p]`` it has not seen in one ``on_broadcasts``
    call.  That equals one ``on_broadcast`` each: p folds before it
    announces, so none of its own announcements is pending, and after a
    fold its clock covers every stamp before its cursor, so the pending
    stamps' max can be read as the running max.  Broadcast is FIFO per
    sender, so p has heard of sender (q, s) exactly when ``started[q]``,
    the highest seq q has started, is at least s.  End points change no
    snapshot state, so the driver walks only the other points.
    """
    procs = trace.config.n_processes
    dets = [SnapshotDetector(p, procs, counters) for p in range(procs)]
    announced = 0
    low, high = MAX_TICK, 0  # running min and max of the announced stamps
    cursor = [0] * procs
    started = [-1] * procs
    events, messages = trace.events, trace.messages
    send_stamps = [0] * len(messages)  # each send's stamp, once replayed
    timeline = trace.timeline
    live = timeline.kind != _END
    points = zip(
        timeline.kind[live].tolist(),
        timeline.process[live].tolist(),
        timeline.item[live].tolist(),
    )
    for kind, proc, i in points:
        d = dets[proc]
        if announced > cursor[proc]:
            d.on_broadcasts(announced - cursor[proc], low, high)
            cursor[proc] = announced
        if kind == _START:
            e = events[i].id
            x = d.on_local_event(e)
            started[proc] = e.seq
        elif kind == _SEND:
            x = send_stamps[i] = d.on_send(messages[i].from_event)
        else:
            m = messages[i]
            sender = m.from_event
            q = sender.process
            if q != proc and started[q] >= sender.seq:
                d.heard.add(sender)
            d.on_message(sender, m.to_event, send_stamps[i])
            continue
        announced += 1
        cursor[proc] = announced
        if x < low:
            low = x
        if x > high:
            high = x
    for p, d in enumerate(dets):
        d.on_broadcasts(announced - cursor[p], low, high)
    return dets


def _run_snapshot(trace: Trace, counters: OpCounters) -> tuple[set[PairKey], int]:
    dets = _replay_snapshot(trace, counters)
    detected: set[PairKey] = set()
    for d in dets:
        detected |= d.check_consistency()
    return detected, sum(d.dropped for d in dets)


def snapshot_intervals(trace: Trace) -> dict[EventId, tuple[int, int]]:
    """Final scalar interval of each event, as seen by its owning process."""
    dets = _replay_snapshot(trace, OpCounters())
    return {e: (lo, hi) for d in dets for e, (lo, hi) in d.intervals.items()}


def _replay_vector(
    trace: Trace, counters: OpCounters
) -> tuple[list[EventId], np.ndarray, np.ndarray]:
    """Replay a trace on vector clocks: the ``lo`` and ``hi`` stamp of every event.

    Returns the sorted event ids and their ``lo`` and ``hi`` stamps as int64
    (m, n) arrays, row i for ``ids[i]``: ``vector_detect``'s input.
    """
    known, row, count = _vector_rows(trace)
    timeline = trace.timeline
    kind, process, item = timeline.kind, timeline.process, timeline.item
    n_msgs = len(trace.messages)
    counters.clock_updates += len(kind)
    counters.events_processed += len(trace.events) + 2 * n_msgs
    counters.stamp_words_sent += trace.config.n_processes * n_msgs
    ids = sorted({ev.id for ev in trace.events})
    where = {e: i for i, e in enumerate(ids)}
    rank = np.array([where[ev.id] for ev in trace.events], dtype=np.intp)

    def endpoint_stamps(endpoint: int) -> np.ndarray:
        points = np.flatnonzero(kind == endpoint)
        at = np.empty(len(ids), dtype=np.intp)  # each id's point, in id order
        at[rank[item[points]]] = points
        return _stamps(known, row[at], count[at], process[at])

    return ids, endpoint_stamps(_START), endpoint_stamps(_END)


def _vector_rows(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vector clocks of a replay, as ``known`` rows and, per point, a row and a count.

    A point's stamp is its row of ``known`` with its process's slot set to
    its count (``_stamps``).  Between two deliveries a process's clock
    changes only in its own slot, which always equals the count of its
    points so far: every point ticks it by one, and a merge never raises it
    past that count, since no other clock has seen a later point of the
    process.  So rows of ``known`` are written only at deliveries.  Row p
    starts as p's zero clock; the k-th delivery of the replay writes row
    ``procs + k``, the slot-wise max of the receiver's current row and the
    sender's row at the send, with the sender's slot raised to the send's
    count.  Every slot is some process's count, so the largest count
    bounds them all and int64 is exact.  The shortcut needs each process
    to own its slot.

    Counts and rows are array operations over the timeline columns
    (``_counts_and_rows``); only the merges loop, one per delivery, in
    replay order.
    """
    procs = trace.config.n_processes
    timeline = trace.timeline
    kind, process, item = timeline.kind, timeline.process, timeline.item
    n_msgs = len(trace.messages)
    top = int(np.bincount(process, minlength=procs).max(initial=0))
    if top > MAX_TICK:
        raise StampOverflowError(f"slot out of range: {top}")

    deliver = kind == _DELIVER
    count, row, prior = _counts_and_rows(process, deliver, procs)
    sends = np.flatnonzero(kind == _SEND)
    send_at = np.empty(n_msgs, dtype=np.intp)  # each message's send point
    send_at[item[sends]] = sends
    sent = send_at[item[deliver]]  # _timeline puts every send before its delivery
    span = procs + n_msgs
    known = np.zeros((span, procs), dtype=np.int64)
    merges = zip(
        range(procs, span),
        prior.tolist(),
        row[sent].tolist(),
        process[sent].tolist(),
        count[sent].tolist(),
    )
    for w, a, b, q, c in merges:
        merged = known[w]
        np.maximum(known[a], known[b], out=merged)
        if merged[q] < c:
            merged[q] = c
    return known, row, count


def _counts_and_rows(
    process: np.ndarray, deliver: np.ndarray, procs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point of a timeline, its count and its row of ``known``.

    A point's count is its rank among its process's points, from 1.  The
    k-th delivery writes row ``procs + k``, and a point's row is its
    process's latest delivery row up to it, or row p before p's first
    delivery.  Rows grow along the replay, so that is a running max over
    each process's points.  Also returns the row each delivery's process
    had before it, which the delivery merges into.  All three are int32.
    """
    count = np.empty(len(process), dtype=np.int32)
    row = np.where(deliver, procs + np.cumsum(deliver, dtype=np.int32) - 1, process)
    prior = np.empty_like(row)
    for p in range(procs):
        at = np.flatnonzero(process == p)  # p's points, in replay order
        count[at] = np.arange(1, len(at) + 1)
        rows = np.maximum.accumulate(row[at])
        row[at] = rows
        prior[at[1:]] = rows[:-1]
        prior[at[:1]] = p
    return count, row, prior[deliver]


def _stamps(known: np.ndarray, rows: np.ndarray, counts: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Stamps of the points at ``rows`` of ``known``: each row with its owner's slot set to its count."""
    out = known[rows]
    out[np.arange(len(rows)), owner] = counts
    return out


def vector_point_stamps(trace: Trace) -> np.ndarray:
    """Vector stamps of every replay point, for causality audits.

    An int64 (points, n_processes) array whose row i is the stamp of
    ``trace.timeline`` point i.
    """
    known, row, count = _vector_rows(trace)
    return _stamps(known, row, count, trace.timeline.process)


def run_trace(trace: Trace, family: DetectorFamily) -> RunResult:
    """Replay a trace through one detector family and collect its output."""
    counters = OpCounters()
    dropped = 0
    if family is DetectorFamily.PHYSICAL:
        # Wall-time overlap is ground truth, computed once per trace.
        truth = trace.truth
        counters.events_processed += len(trace.events)
        counters.pair_checks += truth.pair_checks
        detected, violations = truth.concurrent_pairs, truth.violations
    else:
        if family is DetectorFamily.SNAPSHOT:
            detected, dropped = _run_snapshot(trace, counters)
        else:
            ids, lo, hi = _replay_vector(trace, counters)
            detected = vector_detect(ids, lo, hi, counters)
        violations = violation_filter(detected, trace.readings())
    return RunResult(
        family=family,
        detected_pairs=frozenset(detected),
        violations=frozenset(violations),
        counters=counters,
        dropped=dropped,
        sim_wall_ms=trace.makespan_us / 1000.0,
    )
