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
``random.Random.randint`` reads them (an all-peers trace's sends through
numpy word windows), and an array search over the receiver's events
settles each attempt whose outcome no delay can change.  A generated trace
is handed the columns it was made from, each through the check that a
loaded trace's columns pass once its message endpoints are looked up in
``Trace.id_index``.  A generated trace's ``messages`` is a read-only
``MessageRecords`` view over the message columns, equal to the tuple of
``TraceMessage`` records and built into that tuple on first read; the
replays, ground truth and scores read only the columns and the length.

Generation runs in two stages.  ``generate_layout`` draws everything that
does not read ``message_delay_us``: the events, their readings and every
message attempt's send time and receiver.  ``wire_trace`` draws the delays
and makes the trace.  Configs with one ``layout_key`` share one layout.
"""
from __future__ import annotations

import array
import bisect
import enum
import functools
import hashlib
import itertools
import operator
import random
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, get_type_hints

import numpy as np

from . import detectors
from .detectors import (
    MAX_TICK,
    ContextReading,
    EventId,
    PairKeys,
    ReadingCodes,
    StampOverflowError,
    Violation,
    lift_violations,
    overlap_columns,
    physical_detect,  # noqa: F401  (perfbench/tracing.py wraps it in this module)
    sorted_unique,
    vector_detect,
    violation_filter,  # noqa: F401  (perfbench/tracing.py wraps it in this module)
)
from .metrics import OpCounters

#: Delay resamples tried per message before it is dropped at generation.
MESSAGE_RETRIES = 3
#: 32-bit words one bulk draw takes from a stream: enough to amortise the
#: draw, few enough that a stream's unread words stay a few KB.
CHUNK_WORDS = 1 << 10
#: Room stays the user trajectories may need over the worst-case horizon
#: (about a second of generation and tens of MB); a config that needs
#: more is rejected rather than left to stall.
MAX_TRAJECTORY_STAYS = 1 << 20
#: Rooms a config may name: each trace builds one name and one code per room.
MAX_ROOMS = 1 << 16
#: Message attempts (events x peers messaged per event) one trace may make:
#: each takes a few int64 column entries, so this bounds generation at a
#: few GB; a config that needs more is rejected before any allocation.
MAX_MESSAGE_ATTEMPTS = 1 << 24


class ConfigError(ValueError):
    """Invalid simulation parameter; ``field`` names the offender, ``reason`` says what is wrong."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.reason = message


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
        for name, kinds, expected in _FIELD_TYPES:
            value = getattr(self, name)
            kind = tuple(map(type, value)) if type(value) is tuple else type(value)
            if kind not in kinds:
                raise ConfigError(name, f"expected {expected}, got {value!r}")
            if type(value) is tuple and not 0 <= value[0] <= value[1]:
                raise ConfigError(name, f"range empty or negative: [{value[0]}, {value[1]}]")
        if not 2 <= self.nodes <= 1000:
            raise ConfigError("nodes", f"must be in 2..1000, got {self.nodes}")
        if self.instances_per_node < 1:
            raise ConfigError("instances_per_node", "must be >= 1")
        if self.events_per_process < 1:
            raise ConfigError("events_per_process", "must be >= 1")
        if self.event_lifespan_us[0] < 1:
            raise ConfigError("event_lifespan_us", "events need a positive lifespan")
        if not 0.0 <= self.error_rate < 1.0:
            raise ConfigError("error_rate", f"must be in [0, 1), got {self.error_rate}")
        if self.stay_mean_us <= 0:
            raise ConfigError("stay_mean_us", "must be positive")
        if self.start_jitter_us < 0:
            raise ConfigError("start_jitter_us", "must be non-negative")
        if self.users < 0:
            raise ConfigError("users", f"must be >= 0 (0 = one user per node), got {self.users}")
        if not 2 <= self.rooms <= MAX_ROOMS:
            raise ConfigError("rooms", f"must be in 2..{MAX_ROOMS}, got {self.rooms}")
        if self.peer_fanout is not None and self.peer_fanout < 1:
            raise ConfigError("peer_fanout", "must be >= 1 or null")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "must be an unsigned 64-bit integer")
        # Times are int64 column entries: the latest possible end plus the
        # longest delay must fit.  The largest term is named.
        reach = (
            self.start_jitter_us,
            self.events_per_process * self.inter_event_gap_us[1],
            self.events_per_process * self.event_lifespan_us[1],
            self.message_delay_us[1],
        )
        names = ("start_jitter_us", "inter_event_gap_us", "event_lifespan_us", "message_delay_us")
        if sum(reach) > MAX_TICK:
            name = names[reach.index(max(reach))]
            raise ConfigError(name, f"worst-case horizon plus delay {sum(reach)} us exceeds 2**63 - 1")
        # Each user's trajectory draws about one stay per stay_mean_us of
        # the horizon.  The larger factor of the product is named: the
        # users, or the largest term of the horizon.
        horizon = sum(reach[:3])
        per_user = horizon // self.stay_mean_us + 1
        if self.n_users * per_user > MAX_TRAJECTORY_STAYS:
            if self.n_users > per_user:
                name = "users" if self.users > 0 else "nodes"
            else:
                name = names[reach.index(max(reach[:3]))]
            raise ConfigError(
                name,
                f"{self.n_users} users x {per_user} stays ({horizon} us worst-case horizon,"
                f" {self.stay_mean_us} us mean stay) exceed {MAX_TRAJECTORY_STAYS} trajectory stays",
            )
        # Every event messages ``peers`` processes, fewer than there are.
        # The larger factor of the product is named: the events per
        # process, or the larger factor of the processes.
        procs = self.n_processes
        peers = procs - 1 if self.peer_fanout is None else min(self.peer_fanout, procs - 1)
        attempts = procs * self.events_per_process * peers
        if attempts > MAX_MESSAGE_ATTEMPTS:
            if self.events_per_process > procs:
                name = "events_per_process"
            else:
                name = "nodes" if self.nodes >= self.instances_per_node else "instances_per_node"
            raise ConfigError(
                name,
                f"{procs} processes x {self.events_per_process} events x {peers} peers"
                f" = {attempts} message attempts exceed {MAX_MESSAGE_ATTEMPTS}",
            )


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


#: The types each annotation accepts (for a range, its items' types) and how
#: errors name them: a float field takes an int too, and a bool is no int.
_ACCEPTS = {
    int: ({int}, "an int"),
    float: ({int, float}, "a number"),
    tuple[int, int]: ({(int, int)}, "[lo, hi] ints"),
    Optional[int]: ({int, type(None)}, "an int or null"),
}
#: (field, kinds, expected) for every field, read from the annotations once.
_FIELD_TYPES = tuple((name, *_ACCEPTS[hint]) for name, hint in get_type_hints(SimConfig).items())


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
    missing = [f.name for f in CONFIG_FIELDS if f.name not in record]
    if missing:
        raise ConfigError(missing[0], "missing")
    config = SimConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in record.items()})
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


class MessageRecords(Sequence):
    """A generated trace's messages: a read-only view equal to their ``TraceMessage`` tuple.

    It holds the trace's ``ids`` and its ``MessageColumns``.  ``len`` and
    ``bool`` read the columns.  The first iteration, index or slice,
    comparison, hash or repr builds the tuple of records, which the view
    then keeps, and it compares, hashes and prints as that tuple.  Against
    anything that is neither a tuple nor a view, ``==`` is
    ``NotImplemented``.
    """

    __slots__ = ("_ids", "_columns", "_records")

    def __init__(self, ids: list[EventId], columns: MessageColumns):
        self._ids, self._columns, self._records = ids, columns, None

    def _tuple(self) -> tuple[TraceMessage, ...]:
        if self._records is None:
            ids, (send_us, deliver_us, sender, receiver) = self._ids, self._columns
            parts = zip(
                map(ids.__getitem__, sender.tolist()),
                map(ids.__getitem__, receiver.tolist()),
                send_us.tolist(),
                deliver_us.tolist(),
            )
            # tuple.__new__ skips the NamedTuple constructor's Python frame.
            self._records = tuple(map(tuple.__new__, itertools.repeat(TraceMessage), parts))
        return self._records

    def __len__(self) -> int:
        return len(self._columns.send_us)

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other):
        if isinstance(other, MessageRecords):
            other = other._tuple()
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


@dataclass(frozen=True)
class Trace:
    events: tuple[TraceEvent, ...]
    messages: Sequence[TraceMessage]
    config: SimConfig
    dropped_messages: int = 0

    @functools.cached_property
    def makespan_us(self) -> int:
        """The largest event end, computed on first use and kept with the trace.

        No delivery is later: ``_checked_messages`` rejects one at or after its receiver's end.
        """
        return int(self.event_columns.end_us.max())

    @functools.cached_property
    def event_columns(self) -> EventColumns:
        """The checked event columns, built on first use and kept with the trace.

        Ground truth and every family's replay read them first, so a
        malformed event identity is rejected once per trace.  A generated
        trace is handed its generator's columns, checked the same way.
        """
        return _event_columns(self.events)

    @functools.cached_property
    def message_columns(self) -> MessageColumns:
        """The checked message columns, built on first use and kept with the trace.

        The timeline reads them, so a message the replays cannot trust is
        rejected once per trace.  A generated trace is handed its
        generator's columns, checked the same way.
        """
        return _message_columns(self)

    @functools.cached_property
    def ids(self) -> list[EventId]:
        """Each event's id, in ``events`` order: the ids of every family's ``PairKeys``."""
        return [e.id for e in self.events]

    @functools.cached_property
    def id_index(self) -> dict[EventId, int]:
        """Where each id is in ``ids``, built on first use and shared by every ``PairKeys``."""
        self.event_columns  # rejects a repeated id, which would collapse here
        return dict(zip(self.ids, range(len(self.ids))))

    @functools.cached_property
    def id_order(self) -> np.ndarray:
        """The index in ``events`` of each event, in id order: the vector scan's rows (read-only)."""
        columns = self.event_columns  # each id's parts, checked against the events
        return _read_only(np.lexsort((columns.seq, columns.process)))

    @functools.cached_property
    def reading_codes(self) -> ReadingCodes:
        """Each event's reading and its codes, in ``events`` order, for ``lift_violations``."""
        return ReadingCodes.of([e.reading for e in self.events])

    @functools.cached_property
    def timeline(self) -> Timeline:
        """The replay order, built on first use and kept with the trace."""
        return _timeline(self)

    @functools.cached_property
    def truth(self) -> GroundTruth:
        """Wall-time overlap and its violations, built on first use and kept with the trace.

        The overlap kernel ``overlap_columns`` runs here and nowhere else in
        a run, and ``lift_violations`` lifts its pairs on the same index
        columns: ``ground_truth`` and the physical family both return this
        result.  The pairs are kept as a ``PairKeys`` over ``ids``, one
        int64 key per pair, so no ``EventId`` pair is built unless a caller
        iterates them.
        """
        columns = self.event_columns  # rejects a malformed event identity
        counters = OpCounters()
        first, second = overlap_columns(self.ids, columns.start_us, columns.end_us, counters)
        violations = lift_violations(self.ids, self.reading_codes, first, second)
        return GroundTruth(PairKeys(self.ids, self.id_index, first, second), frozenset(violations), counters.pair_checks)


@dataclass(frozen=True)
class GroundTruth:
    """Wall-time overlap pairs, the violations among them, and the checks made.

    ``pair_checks`` is what the overlap kernel counted; the physical
    family reports it as its own.
    """

    concurrent_pairs: PairKeys
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


class MessageColumns(NamedTuple):
    """A trace's messages as columns, in ``trace.messages`` order.

    ``send_us`` and ``deliver_us`` are int64 times; ``sender`` and
    ``receiver`` are each message's event indices into ``trace.events``
    (intp).
    """

    send_us: np.ndarray
    deliver_us: np.ndarray
    sender: np.ndarray
    receiver: np.ndarray


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
    """The columns of ``events``, read from the records and checked by ``_checked_events``.

    Before any check, a value that does not fit its column is named.
    """

    def bad(i: int, what: str) -> EventIdentityError:
        return _event_error(events, i, what)

    process = _column(events, "process", np.int32, bad)
    seq = _column(events, "id.seq", np.int32, bad)
    start = _column(events, "start_us", np.int64, bad)
    end = _column(events, "end_us", np.int64, bad)
    named = _column(events, "id.process", np.int64, bad)
    return _checked_events(events, EventColumns(process, seq, start, end), named)


def _event_error(events, i: int, what: str) -> EventIdentityError:
    return EventIdentityError(i, f"event {tuple(events[i].id)}: {what}")


def _checked_events(events, columns: EventColumns, named: np.ndarray) -> EventColumns:
    """``columns``, the columns of ``events``, once their identities are checked.

    ``named`` is each event's ``id.process``.  Raises
    ``EventIdentityError`` naming the first event whose ``id.process`` is
    not its ``process``, then the first whose id repeats, then the first
    that starts before an event of its process with a lower seq.  The
    snapshot replay's heard-of test reads a process's latest start as its
    highest seq, so the last is as wrong as the others.  ``events`` is
    read only to name an offender.
    """
    process, seq, start, _ = columns
    foreign = np.flatnonzero(named != process)
    if foreign.size:
        i = int(foreign[0])
        what = f"id names process {events[i].id.process}, but it runs on {events[i].process}"
        raise _event_error(events, i, what)
    # Each process's events by seq; the sort is stable, so of two events
    # with one id the later-listed comes second.
    order = np.lexsort((seq, process))
    later, earlier = order[1:], order[:-1]
    same = process[later] == process[earlier]
    repeats = same & (seq[later] == seq[earlier])
    if repeats.any():
        raise _event_error(events, int(later[repeats].min()), "id repeats")
    early = np.flatnonzero(same & (start[later] < start[earlier]))
    if early.size:
        k = early[np.argmin(later[early])]
        a, b = events[later[k]], events[earlier[k]]
        what = f"starts at {a.start_us} us, before event {tuple(b.id)} at {b.start_us} us"
        raise _event_error(events, int(later[k]), what)
    return columns


def _column(records, field: str, dtype, bad) -> np.ndarray:
    """Each record's ``field``, an attribute path, as a ``dtype`` column.

    ``bad(i, what)`` is the error naming record i; it is raised for the
    first record whose value does not fit ``dtype``.  Only then are the
    values scanned in Python.
    """
    values = operator.attrgetter(field)
    try:
        return np.fromiter(map(values, records), dtype, len(records))
    except OverflowError:
        bounds = np.iinfo(dtype)
        for i, value in enumerate(map(values, records)):
            if not bounds.min <= value <= bounds.max:
                raise bad(i, f"{field} {value} does not fit {bounds.dtype}") from None
        raise


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
    significant first.  They are read through one iterator over the current
    chunk, refilled when it runs dry.  ``getrandbits`` reads them as
    CPython's does: for ``k <= 32`` one word shifted right by ``32 - k``;
    for wider ``k``, ``ceil(k / 32)`` words, least significant first, the
    last shifted right to fit.  So ``sample``, ``randint`` and every other
    ``random.Random`` method, all of which draw through ``getrandbits``,
    give what they give on ``source``, and they interleave with ``below``
    exactly as on ``source``.
    """

    def __init__(self, source: random.Random):
        super().__init__(0)  # the inherited generator state is never read
        self._source = source
        self._words = iter(())

    def _refill(self) -> None:
        """Replace the words, all read, with the source's next ``CHUNK_WORDS``."""
        self._words = iter(_chunk(self._source, CHUNK_WORDS).tolist())

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        value = 0
        for i in range((k + 31) // 32):
            word = next(self._words, None)
            if word is None:
                self._refill()
                word = next(self._words)
            value |= word >> max(0, 32 * (i + 1) - k) << 32 * i
        return value

    def below(self, n: int, count: int, out: array.array) -> int:
        """Append the next ``count`` draws of ``randint(0, n - 1)`` to ``out``; return their shift.

        For ``k = n.bit_length() <= 32``, randint keeps a word exactly
        when ``word >> (32 - k) < n``, that is when ``word < n << (32 - k)``.
        So the kept words are a C-level ``filter`` over the word iterator,
        and ``out`` gets the words themselves: each value is its word
        shifted right by the returned ``32 - k``, which the caller applies.
        Wider draws take several words each; they go one at a time through
        ``getrandbits``, and ``out`` gets the values, with shift 0.
        """
        k = n.bit_length()
        if k > 32:
            out.extend(_randint(self.getrandbits, 0, n - 1) for _ in range(count))
            return 0
        kept = (n << 32 - k).__gt__
        want = len(out) + count
        out.extend(itertools.islice(filter(kept, self._words), count))
        while len(out) < want:
            self._refill()
            out.extend(itertools.islice(filter(kept, self._words), want - len(out)))
        return 32 - k

    def below_each(self, spans: list[int], count: int) -> np.ndarray:
        """``count`` draws of ``randint(0, n - 1)`` for each n of ``spans`` in turn, as int64 values.

        Each draw reads the words ``below`` reads.  Each run of spans of at
        most 32 bits goes through ``_window``, whatever ``count`` is; each
        wider span goes through ``below``, whose values need no shift.
        """
        parts = [np.empty(0, np.int64)]
        for wide, run in itertools.groupby(spans, lambda n: n.bit_length() > 32):
            if not wide:
                parts.append(self._window(list(run), count))
                continue
            drawn = array.array("q")
            for n in run:
                self.below(n, count, drawn)
            parts.append(np.frombuffer(drawn, np.int64))
        return np.concatenate(parts)

    def _window(self, spans: list[int], count: int) -> np.ndarray:
        """``below_each`` for ``spans`` of at most 32 bits each, over the words as one numpy column.

        The unread words of the chunk and as many of the source's as the
        spans are expected to need form one uint32 column.  For each span a
        cursor moves past its ``count``-th word below the span's threshold
        ``n << (32 - k)``: one compare and one ``flatnonzero`` over a window
        of ``4 * count`` words, widened in the rare case that it holds
        fewer (each word is kept with probability above 1/2).  One mask,
        each word against its own span's threshold, then keeps exactly the
        words ``below`` keeps, in order.  The words past the cursor go back
        to the buffer unread.
        """
        widths = [n.bit_length() for n in spans]
        thresholds = np.array([n << 32 - k for n, k in zip(spans, widths)], np.uint32)
        words = np.fromiter(self._words, np.uint32)
        expected = int(count * (2.0**32 / thresholds).sum()) + 4 * count
        words = np.concatenate((words, _chunk(self._source, max(0, expected - len(words)))))
        ends = []
        at, last = 0, count - 1
        for t in thresholds:  # uint32 scalars, so each compare stays uint32
            width = 4 * count
            hits = (words[at : at + width] < t).nonzero()[0]
            while len(hits) <= last:
                width *= 2
                if at + width > len(words):
                    words = np.concatenate((words, _chunk(self._source, at + width - len(words))))
                hits = (words[at : at + width] < t).nonzero()[0]
            at += int(hits[last]) + 1
            ends.append(at)
        self._words = iter(words[at:].tolist())
        words = words[:at]
        words = words[words < np.repeat(thresholds, np.diff(ends, prepend=0))]
        return words.astype(np.int64) >> np.repeat(32 - np.array(widths, np.int64), count)


def _chunk(rng: random.Random, words: int) -> np.ndarray:
    """The next ``words`` 32-bit words of ``rng``, in the order its draws read them."""
    return np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), "<u4")


def _randints(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.randint(0, n - 1)``, as an array.

    For ``k = n.bit_length() <= 32`` a draw is one word shifted right by
    ``32 - k`` and kept when below ``n``, so the values kept from each
    chunk of at most ``CHUNK_WORDS << 6`` words are randint's rejection
    loop over it, and they are uint32.  Wider draws take several words
    each; they go one at a time and are Python ints in an object array, so
    no span is too wide.  Words drawn past the last value kept are lost,
    so ``rng`` must serve no later draw.
    """
    k = n.bit_length()
    if k > 32:
        bits = rng.getrandbits
        return np.array([_randint(bits, 0, n - 1) for _ in range(count)], dtype=object)
    parts = [np.empty(0, np.uint32)]
    while count:
        drawn = _chunk(rng, min(CHUNK_WORDS << 6, (count << k) // n + 1)) >> (32 - k)
        kept = drawn[drawn < n][:count]
        parts.append(kept)
        count -= len(kept)
    return np.concatenate(parts)


class _Trajectories:
    """Exponential-stay room trajectories, one per user."""

    def __init__(self, rng: random.Random, n_users: int, rooms: int, mean_us: int, horizon_us: int):
        self.rooms = [f"R{101 + i}" for i in range(rooms)]
        self._starts: list[list[int]] = []
        self._where: list[list[str]] = []
        for _ in range(n_users):
            starts, where = [0], [rng.choice(self.rooms)]
            t = 0
            while t <= horizon_us:
                t += int(rng.expovariate(1.0 / mean_us)) + 1
                starts.append(t)
                where.append(rng.choice(self.rooms))
            self._starts.append(starts)
            self._where.append(where)

    def location(self, user: int, at_us: int) -> str:
        i = bisect.bisect_right(self._starts[user], at_us) - 1
        return self._where[user][i]

    def wrong_room(self, rng: random.Random, true_index: int) -> str:
        """A room other than ``rooms[true_index]``, uniformly.

        One ``randrange`` below the other rooms' count, skipping the true
        room: the draw ``rng.choice`` makes from the list of the others.
        """
        k = rng.randrange(len(self.rooms) - 1)
        return self.rooms[k + (k >= true_index)]


class Layout(NamedTuple):
    """What ``generate_trace`` draws before it reads ``message_delay_us``.

    ``key`` is the ``layout_key`` of the config it was laid out for;
    ``wire_trace`` makes, from it, the trace of any config with that key.
    ``events`` are the trace's records.  ``starts`` and ``ends`` are the
    events' (processes, events per process) spans; ``send`` and
    ``receiver`` are each message attempt's send time and receiving
    process, ``per_event`` attempts per event, in the order the attempts
    are made.  ``caches`` holds the event-only ``Trace`` caches
    (``EVENT_CACHES``) that every trace wired from the layout is handed.
    Every array is read-only, so those traces can share them.
    """

    key: tuple
    events: tuple[TraceEvent, ...]
    starts: np.ndarray
    ends: np.ndarray
    send: np.ndarray
    receiver: np.ndarray
    per_event: int
    caches: dict


#: The cached ``Trace`` properties that read nothing but the events.
EVENT_CACHES = ("ids", "event_columns", "reading_codes", "id_index", "id_order", "truth")


#: Every ``SimConfig`` field but ``message_delay_us``, the one the layout stage does not read.
_LAYOUT_FIELDS = operator.attrgetter(*(f.name for f in CONFIG_FIELDS if f.name != "message_delay_us"))


def layout_key(config: SimConfig) -> tuple:
    """``config``'s fields with ``message_delay_us`` left out: configs with one key share one layout."""
    return _LAYOUT_FIELDS(config)


def generate_trace(config: SimConfig) -> Trace:
    """Deterministic workload for one (config, seed) point.

    The trace is handed the columns it was made from: its event and
    message columns, each through the check that a loaded trace gets, its
    reading codes and its ids.  Its ``messages`` is a ``MessageRecords``
    view, built into records only when read.
    """
    return wire_trace(generate_layout(config), config)


def generate_layout(config: SimConfig) -> Layout:
    """The layout stage of ``generate_trace(config)``.

    It validates ``config`` and draws the layout, users, errors and
    messages streams: the events, their readings and every message
    attempt's send time and receiver.
    """
    config.validate()
    layout = _stream(config.seed, "layout")
    msg_rng = _stream(config.seed, "messages")
    err_rng = _stream(config.seed, "errors")
    user_rng = _stream(config.seed, "users")

    procs = config.n_processes
    per_proc_events = config.events_per_process
    layout_bits = layout.getrandbits
    gap_lo, gap_hi = config.inter_event_gap_us
    life_lo, life_hi = config.event_lifespan_us
    per_proc: list[list[tuple[int, int]]] = []
    for p in range(procs):
        t = _randint(layout_bits, 0, config.start_jitter_us)
        spans = []
        for _ in range(per_proc_events):
            start = t + _randint(layout_bits, gap_lo, gap_hi)
            end = start + _randint(layout_bits, life_lo, life_hi)
            spans.append((start, end))
            t = end
        per_proc.append(spans)

    horizon = max(end for spans in per_proc for _, end in spans)
    traj = _Trajectories(user_rng, config.n_users, config.rooms, config.stay_mean_us, horizon)

    # The users stream serves the trajectories, then one user per event.
    user_codes = _randints(user_rng, config.n_users, procs * per_proc_events)
    users = user_codes.tolist()
    room_code = {room: i for i, room in enumerate(traj.rooms)}
    shared: dict[tuple[int, str, str], ContextReading] = {}  # one reading per distinct value
    events: list[TraceEvent] = []
    readings: list[ContextReading] = []
    places = array.array("i")  # each reading's location, as its room's index
    for p in range(procs):
        for s, (start, end) in enumerate(per_proc[p]):
            user = users[len(events)]
            true_loc = traj.location(user, start)
            wrong = err_rng.random() < config.error_rate
            loc = traj.wrong_room(err_rng, room_code[true_loc]) if wrong else true_loc
            reading = shared.get((user, loc, true_loc))
            if reading is None:
                reading = shared[user, loc, true_loc] = ContextReading(
                    user=f"u{user}", location=loc, true_location=true_loc, erroneous=loc != true_loc
                )
            readings.append(reading)
            places.append(room_code[loc])
            # tuple.__new__ skips the NamedTuple constructors' Python frames.
            event_id = tuple.__new__(EventId, (p, s))
            events.append(tuple.__new__(TraceEvent, (event_id, p, start, end, reading)))
    # Every event has a reading: its user and room indices code its values.
    codes = ReadingCodes(readings, user_codes.astype(np.int32), np.frombuffer(places, np.int32))

    span_us = _read_only(np.array(per_proc, dtype=np.int64))  # (process, seq, [start, end])
    starts, ends = span_us[..., 0], span_us[..., 1]
    process = np.repeat(np.arange(procs, dtype=np.int32), per_proc_events)
    seqs = np.tile(np.arange(per_proc_events, dtype=np.int32), procs)
    columns = _checked_events(events, EventColumns(process, seqs, starts.ravel(), ends.ravel()), process)

    # Every message attempt as a column entry, in the order the attempts
    # are made: event by event, each event's peers in ascending order.
    # Peer j of an event on process p is process j, or j + 1 from p on.
    words = _Words(msg_rng)
    spans = (columns.end_us - columns.start_us).tolist()
    fanout = config.peer_fanout
    if fanout is None or fanout >= procs - 1:
        per_event = procs - 1
        peer = np.tile(np.arange(per_event), len(events))
        offset = words.below_each(spans, per_event)
    else:
        # The peer sample reads the message stream between events' sends.
        per_event = fanout
        picked = array.array("q")
        drawn = array.array("q")  # each send time less its event's start, shifted left
        shifts = array.array("q")  # per event, the right shift that undoes it
        population = range(procs - 1)
        for n in spans:
            picked.extend(sorted(words.sample(population, fanout)))
            shifts.append(words.below(n, fanout, drawn))
        peer = np.frombuffer(picked, dtype=np.int64)
        offset = np.frombuffer(drawn, dtype=np.int64) >> np.repeat(np.frombuffer(shifts, dtype=np.int64), fanout)
    receiver = peer + (peer >= np.repeat(process, per_event))
    send = offset + np.repeat(columns.start_us, per_event)
    _read_only(*columns, receiver, send, *codes[1:])
    ids = [ev.id for ev in events]  # event (p, s) is ids[p * events_per_process + s]
    caches = {"ids": ids, "event_columns": columns, "reading_codes": codes}
    return Layout(layout_key(config), tuple(events), starts, ends, send, receiver, per_event, caches)


def wire_trace(layout: Layout, config: SimConfig) -> Trace:
    """The wiring stage of ``generate_trace(config)``: the trace, made from ``layout``.

    ``layout`` must have been laid out for a config of ``config``'s
    ``layout_key``; only the delays stream is drawn here.  The trace is
    handed the layout's caches and its own message columns, and its
    ``messages`` is a ``MessageRecords`` view over those columns.
    """
    config.validate()
    if layout_key(config) != layout.key:
        raise ValueError("the layout was laid out for a config of another layout_key")
    delay_rng = _stream(config.seed, "delays")
    starts, ends, send, receiver = layout.starts, layout.ends, layout.send, layout.receiver
    horizon = int(ends.max())

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
    starts_by_proc, ends_by_proc = starts.tolist(), ends.tolist()
    # Tried attempts read their delays through one view of the array, with
    # no numpy slice per attempt.  Delays over a span of 2**32 or more are
    # Python ints; they are below the span, so they fit int64.
    window = memoryview(delays.astype(np.int64) if delays.dtype == object else delays)
    for i, at, send_us, q in tried:
        at -= saved
        q_starts, q_ends = starts_by_proc[q], ends_by_proc[q]
        for tries, delay in enumerate(window[at : at + MESSAGE_RETRIES], 1):
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
    sent = MessageColumns(
        send[kept], deliver[kept], kept // layout.per_event, receiver[kept] * config.events_per_process + seq[kept]
    )
    messages = MessageRecords(layout.caches["ids"], sent)
    trace = Trace(layout.events, messages, config, len(send) - len(kept))
    vars(trace).update(layout.caches)
    vars(trace)["message_columns"] = _checked_messages(trace, layout.caches["event_columns"], sent)
    return trace


def with_caches(layout: Layout, trace: Trace) -> Layout:
    """``layout`` holding every event-only cache that ``trace``, wired from it, has built."""
    built = vars(trace)
    return layout._replace(caches={name: built[name] for name in EVENT_CACHES if name in built})


def _read_only(*arrays: np.ndarray) -> np.ndarray:
    """Make each of ``arrays`` read-only; return the first."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0]


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
    # Keys of 16 bits or fewer take numpy's O(n) radix sort, in the same order.
    by_receiver = np.argsort(receiver.astype(np.min_scalar_type(procs - 1)), kind="stable")
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
    """One family's output.

    Every family's pairs are a ``PairKeys`` over the trace's ``ids``, the
    ids of ground truth's, so ``score`` counts hits key against key; the
    physical family's are ground truth's own.
    """

    detected_pairs: PairKeys
    violations: frozenset[Violation]
    counters: OpCounters
    dropped: int


# Replay point kinds, in tie-break order at equal times.
_START, _SEND, _DELIVER, _END = 0, 1, 2, 3


class Timeline(NamedTuple):
    """A trace's replay points as parallel columns, in replay order.

    Point i happens on ``process[i]``, and ``kind[i]`` (int8) is
    ``_START``, ``_SEND``, ``_DELIVER`` or ``_END``; ``item[i]`` is the
    point's index into ``trace.events`` (start, end) or ``trace.messages``
    (send, delivery).  ``process`` and ``item`` are int32.  The times and
    seqs that order the points are sort keys only, so they are not kept.
    """

    kind: np.ndarray
    process: np.ndarray
    item: np.ndarray


def _timeline(trace: Trace) -> Timeline:
    """Deterministic total replay order, as ``Trace.timeline`` keeps it.

    Ties in wall time break by kind, then process, then ``sub``: an
    event's seq, a message's index.  The four keys are unique per point,
    so the order does not depend on how ``trace.events`` and
    ``trace.messages`` are listed; ``_replay_order`` sorts them as one
    packed int64 key where that fits.  Both replays index their state by
    process, so an event whose process is outside ``0..n_processes - 1``
    raises ``EventIdentityError``; the messages are checked by
    ``_checked_messages``, once per trace, when ``trace.message_columns``
    is built or handed over.
    """
    columns = trace.event_columns
    owner, seq = columns.process, columns.seq
    procs = trace.config.n_processes
    outside = np.flatnonzero((owner < 0) | (owner >= procs))
    if outside.size:
        i = int(outside[0])
        raise _event_error(trace.events, i, f"process {trace.events[i].process} is outside 0..{procs - 1}")
    sent, delivered, sender, receiver = trace.message_columns
    e, n = len(seq), len(sent)
    event = np.arange(e, dtype=np.int32)
    msg = np.arange(n, dtype=np.int32)
    time_us = np.concatenate((columns.start_us, columns.end_us, sent, delivered))
    kind = np.repeat(np.array([_START, _END, _SEND, _DELIVER], dtype=np.int8), (e, e, n, n))
    process = np.concatenate((owner, owner, owner[sender], owner[receiver]))
    sub = np.concatenate((seq, seq, msg, msg))
    item = np.concatenate((event, event, msg, msg))
    order = _replay_order(time_us, kind, process, sub, procs)
    return Timeline(kind[order], process[order], item[order])


def _replay_order(
    time_us: np.ndarray, kind: np.ndarray, process: np.ndarray, sub: np.ndarray, procs: int
) -> np.ndarray:
    """The order of ``np.lexsort((sub, process, kind, time_us))``, from one int64 key where it fits.

    The key is ``((time_us * kinds + kind) * procs + process) * width + sub``.
    A seq may be negative, so ``sub`` is first shifted up by its lowest
    value where that is below 0; ``width`` is its span, which is
    ``max(max seq + 1, messages)`` when no seq is negative.  Each point's
    key is its own, so one unstable argsort gives the lexsort's order.
    Whether every key fits int64 is checked in Python ints from the
    smallest and largest time, as a loaded trace may hold negative or
    near-2**63 times; a trace whose keys do not fit is lexsorted.
    """
    kinds = _END - _START + 1
    low, high = int(sub.min(initial=0)), int(sub.max(initial=-1))
    width = high - low + 1
    stride = kinds * procs * width  # keys of one microsecond
    first, last = int(time_us.min(initial=0)), int(time_us.max(initial=0))
    bounds = np.iinfo(np.int64)
    if not (bounds.min <= first * stride and last * stride + stride - 1 <= bounds.max):
        return np.lexsort((sub, process, kind, time_us))
    key = time_us * kinds
    key += kind
    key *= procs
    key += process
    key *= width
    key += np.subtract(sub, low, dtype=np.int64)
    return np.argsort(key)


def _message_columns(trace: Trace) -> MessageColumns:
    """``trace``'s message columns, read from its records and checked by ``_checked_messages``.

    Each message field is read once, and ``MessageError`` first names
    the first message with a time that does not fit int64.  A sender or
    receiver that is no event of the trace gets the index -1, which the
    check names.
    """
    messages, columns = trace.messages, trace.event_columns
    read = MessageColumns(
        _column(messages, "send_us", np.int64, _message_error),
        _column(messages, "deliver_us", np.int64, _message_error),
        _event_index(trace, "from_event"),
        _event_index(trace, "to_event"),
    )
    return _checked_messages(trace, columns, read)


def _checked_messages(trace: Trace, events: EventColumns, columns: MessageColumns) -> MessageColumns:
    """``columns``, the columns of ``trace.messages``, once the replays can trust them.

    ``events`` is ``trace``'s event columns.  The replays read a send's
    stamp at its delivery, so ``MessageError`` names the first message
    whose sender or receiver is no event of the trace (index -1), then
    the first sent from an event to itself, then the first sent outside
    its sender's ``[start, end)``, then the first delivered before its
    send (``deliver_us < send_us``; at equal times the send comes first),
    then the first delivered at or after its receiver's end, which the
    snapshot replay would fold into an event that is over.  A delivery
    before its receiver starts is allowed: the snapshot family counts it
    as a drop.  The records are read only to name an offender.
    """
    messages = trace.messages
    sent, delivered, sender, receiver = columns
    unknown = np.flatnonzero((sender < 0) | (receiver < 0))
    if unknown.size:
        i = int(unknown[0])
        m = messages[i]
        role, ref = ("sender", m.from_event) if sender[i] < 0 else ("receiver", m.to_event)
        raise _message_error(i, f"{role} {tuple(ref)} is no event of the trace")
    own = np.flatnonzero(sender == receiver)
    if own.size:
        i = int(own[0])
        raise _message_error(i, f"sent from {tuple(messages[i].from_event)} to itself")
    astray = np.flatnonzero((sent < events.start_us[sender]) | (sent >= events.end_us[sender]))
    if astray.size:
        i = int(astray[0])
        ev = trace.events[sender[i]]
        span = f"[{ev.start_us}, {ev.end_us}) us"
        raise _message_error(i, f"sent at {messages[i].send_us} us, outside its sender {tuple(ev.id)}'s span {span}")
    late = np.flatnonzero(delivered < sent)
    if late.size:
        i = int(late[0])
        what = f"delivered at {messages[i].deliver_us} us, before its send at {messages[i].send_us} us"
        raise _message_error(i, what)
    ended = np.flatnonzero(delivered >= events.end_us[receiver])
    if ended.size:
        i = int(ended[0])
        ev = trace.events[receiver[i]]
        when = f"delivered at {messages[i].deliver_us} us"
        raise _message_error(i, f"{when}, at or after its receiver {tuple(ev.id)}'s end at {ev.end_us} us")
    return columns


def _message_error(i: int, what: str) -> MessageError:
    return MessageError(i, f"message {i}: {what}")


def _event_index(trace: Trace, role: str) -> np.ndarray:
    """Where each message's ``role`` id is in ``trace.events``, or -1 where no event has it.

    The ids are looked up in ``trace.id_index``, the map every ``PairKeys``
    of the trace shares, so an endpoint is found exactly when it equals an
    event's id.  An event on a process outside the config is found too:
    ``_timeline`` rejects it before it reads the messages.
    """
    ends = map(operator.attrgetter(role), trace.messages)
    return np.fromiter(map(trace.id_index.get, ends, itertools.repeat(-1)), np.intp, len(trace.messages))


class SnapshotReplay(NamedTuple):
    """A replay's per-event ``lo``/``hi``, per-process clocks, pairs as ``pair_key``-order columns and drops."""

    lo: list[int]
    hi: list[int]
    clock: list[int]
    first: np.ndarray
    second: np.ndarray
    dropped: int


def _arrived(timeline: Timeline) -> np.ndarray:
    """Per point, the start and send announcements every process has heard before it (instant broadcast)."""
    announce = timeline.kind <= _SEND
    return np.cumsum(announce) - announce


def _replay_snapshot(trace: Trace, counters: OpCounters) -> SnapshotReplay:
    """Replay a trace's start and send points, each tick announced to every peer; then its deliveries.

    The loop visits the announcements only; the a-th is at ``arrived`` a.
    Before p ticks there it folds announcements ``cursor[p]`` to ``a - 1``
    into its clock (their max is ``peak``) and steps past its own.  The
    folds a process would take at a delivery it takes at its next
    announcement or in the final fold; ``peak`` only grows, so the clocks
    and the fold count are the same.  A delivery's merge cannot move a
    clock: ``_timeline`` puts every send before its delivery, so the
    receiver has folded the send's stamp by then.

    Event e is heard of, or started, at point k when its start's
    announcement index is below ``arrived[k]``.  After the loop, a
    delivery from an event not heard of is dropped unmerged, one to an
    event not started after the merge; the rest queue in EE.  Each event's
    ``hi`` is one more than the largest of its start stamp, its send stamps
    and its queued deliveries' stamps, and a queued delivery passes when
    its stamp x lies in its receiver's ``[lo, hi)``.  A tick past
    ``detectors.MAX_TICK`` (read at call time) raises ``StampOverflowError``.
    """
    procs, events, n_msgs = trace.config.n_processes, len(trace.events), len(trace.messages)
    kind, process, item = trace.timeline
    arrived, start = _arrived(trace.timeline), kind == _START
    heard_at = arrived[start][np.argsort(item[start])]  # each event's start announcement
    _, _, sender, receiver = trace.message_columns
    lo, stamp, clock, cursor = [0] * events, [0] * n_msgs, [0] * procs, [0] * procs
    peak, folds = 0, 0  # peak: the largest stamp announced so far
    announce = kind <= _SEND
    points = zip(kind[announce].tolist(), process[announce].tolist(), item[announce].tolist())
    for a, (k, p, i) in enumerate(points):
        if a > cursor[p]:
            folds += a - cursor[p]
            if peak > clock[p]:
                clock[p] = peak
        x = clock[p] = clock[p] + 1
        if k == _START:
            lo[i] = x
        else:
            stamp[i] = x
        if x > peak:
            peak = x
        cursor[p] = a + 1
    if peak > detectors.MAX_TICK:
        raise StampOverflowError(f"tick out of range: {detectors.MAX_TICK + 1}")
    deliver = np.flatnonzero(kind == _DELIVER)
    at, msg = arrived[deliver], item[deliver]
    heard = heard_at[sender[msg]] < at
    queue = msg[heard & (heard_at[receiver[msg]] < at)]  # in replay order
    announced, unheard = events + n_msgs, n_msgs - int(np.count_nonzero(heard))
    # The last folds; then a tick or a merge is one clock update, and a start announces one word, a send two.
    counters.clock_updates += folds + announced * procs - sum(cursor) + announced + n_msgs - unheard
    counters.events_processed += events + 2 * n_msgs
    counters.stamp_words_sent += events + 2 * n_msgs
    counters.pair_checks += len(queue)
    stamp, lo = np.array(stamp, dtype=np.int64), np.array(lo, dtype=np.int64)
    x, r, s = stamp[queue], receiver[queue], sender[queue]
    hi = lo + 1
    np.maximum.at(hi, np.concatenate((sender, r)), np.concatenate((stamp, x)) + 1)
    hit = (lo[r] <= x) & (x < hi[r])
    order, rank = trace.id_order, np.argsort(trace.id_order)  # rank: each event's place in id order
    a, b = rank[r[hit]], rank[s[hit]]
    keys = sorted_unique(np.minimum(a, b).astype(np.int64) * events + np.maximum(a, b))
    clock = [max(c, peak) for c in clock]  # the last folds
    first, second = order[keys // events], order[keys % events]
    return SnapshotReplay(lo.tolist(), hi.tolist(), clock, first, second, n_msgs - len(queue))


def snapshot_intervals(trace: Trace) -> dict[EventId, tuple[int, int]]:
    """Final scalar interval of each event, as seen by its owning process."""
    return dict(zip(trace.ids, zip(*_replay_snapshot(trace, OpCounters())[:2])))


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
    order = trace.id_order
    ids = list(map(trace.ids.__getitem__, order.tolist()))
    rank = np.empty_like(order)  # each event's row, in ``trace.events`` order
    rank[order] = np.arange(len(order))

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
    starts as p's zero clock; each delivery writes one row, the slot-wise
    max of the receiver's current row and the sender's row at the send,
    with the sender's slot raised to the send's count.  Every slot is some
    process's count, so the largest count bounds them all, and ``known``
    has the narrowest unsigned dtype that holds it (uint8 up to 255 points
    on a process, uint16 up to 65,535); ``_stamps`` widens the rows it
    reads to int64.  The shortcut needs each process to own its slot.

    A merge reads only rows of a lower causal level: a delivery's level is
    one more than the larger of its two inputs' levels, and row p's is 0
    (Mattern 1989).  So the rows are renumbered in stable level order,
    each level is one slice of ``known``, and a level's merges are two
    numpy calls, not one loop step per delivery.  Counts and replay-order
    rows come from ``_counts_and_rows``; the returned rows are renumbered.
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
    heard = row[sent]  # the sender's row at each send
    depth = [0] * procs  # each row's causal level, in replay order
    for a, b in zip(prior.tolist(), heard.tolist()):
        da, db = depth[a], depth[b]
        depth.append((da if da > db else db) + 1)
    level = np.array(depth, dtype=np.min_scalar_type(n_msgs))  # narrow keys take the radix sort
    span = procs + n_msgs
    order = np.argsort(level, kind="stable")  # each new row's replay-order row
    renum = np.empty(span, dtype=np.int32)
    renum[order] = np.arange(span, dtype=np.int32)
    merge = order[procs:] - procs  # the deliveries, in new row order
    into, taken = renum[prior[merge]], renum[heard[merge]]
    known = np.zeros((span, procs), dtype=np.min_scalar_type(top))
    at = sent[merge]  # seed each delivery's row with the send's count in the sender's slot
    known[np.arange(procs, span), process[at]] = count[at]
    cuts = np.cumsum(np.bincount(level)[1:]).tolist()  # each level's end in ``merge``
    for s, e in itertools.pairwise([0, *cuts]):
        out = known[procs + s : procs + e]
        np.maximum(out, known.take(into[s:e], axis=0), out=out)
        np.maximum(out, known.take(taken[s:e], axis=0), out=out)
    return known, renum[row], count


def _counts_and_rows(
    process: np.ndarray, deliver: np.ndarray, procs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point of a timeline, its count and its row of ``known``.

    A point's count is its rank among its process's points, from 1.  Rows
    are in replay order here: the k-th delivery's is ``procs + k``, and a
    point's row is its process's latest delivery row up to it, or row p
    before p's first delivery.  Rows grow along the replay, so that is a
    running max over each process's points.  Also returns the row each
    delivery's process had before it, which the delivery merges into.  All
    three are int32.

    One stable sort groups the points by process, in replay order within
    each; the running max then runs over the whole sorted column, with
    each row offset by its process times ``span``, a bound on the rows,
    so no max passes from one process to the next.
    """
    n = len(process)
    row = np.where(deliver, procs + np.cumsum(deliver, dtype=np.int32) - 1, process).astype(np.int32)
    order = np.argsort(process.astype(np.min_scalar_type(procs - 1)), kind="stable")  # radix for narrow keys
    owner = process[order]
    head = np.empty(n, dtype=bool)  # each process's first point
    head[:1] = True
    np.not_equal(owner[1:], owner[:-1], out=head[1:])
    at = np.arange(n, dtype=np.int32)
    count = np.empty(n, dtype=np.int32)
    count[order] = at - np.maximum.accumulate(np.where(head, at, 0)) + 1
    span = np.int64(procs) + n
    offset = owner * span
    rows = np.maximum.accumulate(row[order] + offset) - offset
    before = np.empty(n, dtype=np.int32)
    before[1:] = rows[:-1]
    before[head] = owner[head]
    row[order] = rows
    prior = np.empty(n, dtype=np.int32)
    prior[order] = before
    return count, row, prior[deliver]


def _stamps(known: np.ndarray, rows: np.ndarray, counts: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Stamps of the points at ``rows`` of ``known``: each row, as int64, with its owner's slot set to its count."""
    out = known[rows].astype(np.int64)
    out[np.arange(len(rows)), owner] = counts
    return out


def run_trace(trace: Trace, family: DetectorFamily) -> RunResult:
    """Replay a trace through one detector family and collect its output.

    Every family's pairs come out as index columns into ``trace.ids``;
    its violations are lifted on them, and its pairs kept as a
    ``PairKeys`` over ``trace.ids``.
    """
    counters = OpCounters()
    if family is DetectorFamily.PHYSICAL:
        # Wall-time overlap is ground truth, computed once per trace.
        truth = trace.truth
        counters.events_processed += len(trace.events)
        counters.pair_checks += truth.pair_checks
        return RunResult(truth.concurrent_pairs, truth.violations, counters, 0)
    if family is DetectorFamily.SNAPSHOT:
        _, _, _, first, second, dropped = _replay_snapshot(trace, counters)
    else:
        ids, lo, hi = _replay_vector(trace, counters)
        first, second = vector_detect(ids, lo, hi, counters)
        order = trace.id_order  # the scan's rows are in id order
        first, second = order[first], order[second]
        dropped = 0
    violations = lift_violations(trace.ids, trace.reading_codes, first, second)
    pairs = PairKeys(trace.ids, trace.id_index, first, second)
    return RunResult(pairs, frozenset(violations), counters, dropped)
