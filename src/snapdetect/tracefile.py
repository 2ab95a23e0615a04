"""Line-delimited JSON trace files.

One JSON object per line: a leading ``config`` record, then ``event`` and
``message`` records, then a trailing ``meta`` record.  Round-trips are
exact (all times are integer microseconds).  ``load_trace`` rejects a
malformed file with a ``TraceFormatError`` that names the line, including
a second ``config`` or ``meta`` record and a ``meta`` record whose
``dropped_messages`` is not a non-negative int.
"""
from __future__ import annotations

import json
from pathlib import Path

from .detectors import ContextReading, EventId
from .simulate import (
    ConfigError,
    EventIdentityError,
    MessageError,
    Trace,
    TraceEvent,
    TraceMessage,
    config_from_record,
    config_record,
)


class TraceFormatError(ValueError):
    pass


#: The required keys of an event and a message record, in the order a
#: malformed one is diagnosed; ``id``, ``from`` and ``to`` are
#: ``[process, seq]`` pairs, the rest ints.
EVENT_KEYS = ("id", "process", "start_us", "end_us")
MESSAGE_KEYS = ("from", "to", "send_us", "deliver_us")
_ID_KEYS = {"id", "from", "to"}


#: Decodes one JSON value from the start of a string; ``load_trace``
#: checks that it spans the whole line, as ``json.loads`` does.
_decode = json.JSONDecoder().raw_decode
#: Builds a named tuple from a plain tuple, skipping its constructor's
#: Python frame.
_new = tuple.__new__


def _event(rec: dict, readings: dict, path: Path, lineno: int) -> TraceEvent:
    """An event record as a ``TraceEvent``.

    One unpack and one type chain accept a well-formed record; only a
    record they reject is diagnosed key by key (``_malformed``), so a
    large file pays little for the check.  A ``reading`` is optional;
    ``readings`` holds the file's readings so far (see ``_reading``).
    """
    try:
        (p, s), process, start, end = rec["id"], rec["process"], rec["start_us"], rec["end_us"]
        ok = type(p) is type(s) is type(process) is type(start) is type(end) is int
    except (KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise _malformed(rec, EVENT_KEYS, path, lineno)
    reading = rec.get("reading")
    if reading is not None:
        reading = _reading(reading, readings, path, lineno)
    return _new(TraceEvent, (_new(EventId, (p, s)), process, start, end, reading))


def _reading(value, readings: dict, path: Path, lineno: int) -> ContextReading:
    """The ``ContextReading`` of a reading record, one object per distinct reading.

    A reading is reused only for a record with the same keys, values and
    JSON value types, so ``"erroneous": 1`` is never read as an earlier
    ``true`` (``1 == True``) and skips no check.  Any other record is built
    afresh, and a ``TraceFormatError`` naming the line rejects a bad one:
    not an object, a key missing or unknown, a user or location not a
    string, or an ``erroneous`` not a boolean or at odds with the locations.
    """
    try:
        key = (tuple(value.items()), tuple(map(type, value.values())))
        reading = readings.get(key)
    except (AttributeError, TypeError):
        key = reading = None
    if reading is not None:
        return reading
    try:
        reading = ContextReading(**value)
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"{path}:{lineno}: event record: bad reading {value!r}: {exc}"
        ) from exc
    readings[key] = reading  # only a record of str and bool values gets here, so it has a key
    return reading


def _message(rec: dict, path: Path, lineno: int) -> TraceMessage:
    """A message record as a ``TraceMessage``, checked as ``_event`` checks events."""
    try:
        (p, s), (q, r), send, deliver = rec["from"], rec["to"], rec["send_us"], rec["deliver_us"]
        ok = type(p) is type(s) is type(q) is type(r) is type(send) is type(deliver) is int
    except (KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise _malformed(rec, MESSAGE_KEYS, path, lineno)
    return _new(TraceMessage, (_new(EventId, (p, s)), _new(EventId, (q, r)), send, deliver))


def _malformed(rec: dict, keys: tuple[str, ...], path: Path, lineno: int) -> TraceFormatError:
    """The error naming the first of ``keys`` that ``rec`` lacks or has malformed."""
    where = f"{path}:{lineno}: {rec['type']} record"
    for key in keys:
        if key not in rec:
            return TraceFormatError(f"{where}: missing {key!r}")
        value = rec[key]
        if key in _ID_KEYS:
            if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
                return TraceFormatError(f"{where}: {key!r} must be two ints, got {value!r}")
        elif type(value) is not int:
            return TraceFormatError(f"{where}: {key!r} must be an int, got {value!r}")
    raise AssertionError(f"{where} is well formed")


def save_trace(trace: Trace, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        config = {"type": "config", **config_record(trace.config)}
        fh.write(json.dumps(config, sort_keys=True) + "\n")
        for ev in trace.events:
            rec = {
                "type": "event",
                "id": [ev.id.process, ev.id.seq],
                "process": ev.process,
                "start_us": ev.start_us,
                "end_us": ev.end_us,
                "reading": None
                if ev.reading is None
                else {
                    "user": ev.reading.user,
                    "location": ev.reading.location,
                    "true_location": ev.reading.true_location,
                    "erroneous": ev.reading.erroneous,
                },
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for m in trace.messages:
            rec = {
                "type": "message",
                "from": [m.from_event.process, m.from_event.seq],
                "to": [m.to_event.process, m.to_event.seq],
                "send_us": m.send_us,
                "deliver_us": m.deliver_us,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.write(
            json.dumps({"type": "meta", "dropped_messages": trace.dropped_messages}) + "\n"
        )


def load_trace(path: str | Path) -> Trace:
    path = Path(path)
    config = config_line = meta_line = None
    events: list[TraceEvent] = []
    event_lines: list[int] = []
    messages: list[TraceMessage] = []
    message_lines: list[int] = []
    readings: dict = {}
    dropped = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, stop = _decode(line)
                if stop < len(line):  # the error json.loads raises
                    at = len(line) - len(line[stop:].lstrip(" \t\n\r"))
                    raise json.JSONDecodeError("Extra data", line, at)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise TraceFormatError(f"{path}:{lineno}: record is not a JSON object")
            kind = rec.get("type")
            if kind == "event":
                event_lines.append(lineno)
                events.append(_event(rec, readings, path, lineno))
            elif kind == "message":
                message_lines.append(lineno)
                messages.append(_message(rec, path, lineno))
            elif kind == "config":
                if config_line is not None:
                    raise TraceFormatError(
                        f"{path}:{lineno}: second config record (the first is on line {config_line})"
                    )
                config_line = lineno
                del rec["type"]
                try:
                    config = config_from_record(rec)
                except ConfigError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: config {exc}") from exc
            elif kind == "meta":
                if meta_line is not None:
                    raise TraceFormatError(
                        f"{path}:{lineno}: second meta record (the first is on line {meta_line})"
                    )
                meta_line = lineno
                dropped = rec.get("dropped_messages", 0)
                if type(dropped) is not int or dropped < 0:
                    raise TraceFormatError(
                        f"{path}:{lineno}: meta record: 'dropped_messages' must be"
                        f" a non-negative int, got {dropped!r}"
                    )
            else:
                raise TraceFormatError(f"{path}:{lineno}: unknown record type {kind!r}")
    if config is None:
        raise TraceFormatError(f"{path}: missing config record")
    if not events:
        raise TraceFormatError(f"{path}: trace has no events")
    trace = Trace(tuple(events), tuple(messages), config, dropped)
    try:
        trace.timeline  # checks events and messages as the replays need them
    except EventIdentityError as exc:
        raise TraceFormatError(f"{path}:{event_lines[exc.index]}: {exc}") from exc
    except MessageError as exc:
        raise TraceFormatError(f"{path}:{message_lines[exc.index]}: {exc}") from exc
    return trace
