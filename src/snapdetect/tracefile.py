"""Line-delimited JSON trace files.

One JSON object per line: a leading ``config`` record, then ``event`` and
``message`` records, then a trailing ``meta`` record.  Round-trips are
exact (all times are integer microseconds).
"""
from __future__ import annotations

import json
from pathlib import Path

from .detectors import ContextReading, EventId
from .simulate import (
    ConfigError,
    EventIdentityError,
    Trace,
    TraceEvent,
    TraceMessage,
    config_from_record,
    config_record,
)


class TraceFormatError(ValueError):
    pass


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
    config = None
    events: list[TraceEvent] = []
    event_lines: list[int] = []
    messages: list[TraceMessage] = []
    dropped = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            kind = rec.get("type")
            if kind == "config":
                del rec["type"]
                try:
                    config = config_from_record(rec)
                except ConfigError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: config {exc}") from exc
            elif kind == "event":
                event_lines.append(lineno)
                reading = rec.get("reading")
                events.append(
                    TraceEvent(
                        id=EventId(*rec["id"]),
                        process=rec["process"],
                        start_us=rec["start_us"],
                        end_us=rec["end_us"],
                        reading=None
                        if reading is None
                        else ContextReading(
                            user=reading["user"],
                            location=reading["location"],
                            true_location=reading["true_location"],
                            erroneous=reading["erroneous"],
                        ),
                    )
                )
            elif kind == "message":
                message = TraceMessage(
                    from_event=EventId(*rec["from"]),
                    to_event=EventId(*rec["to"]),
                    send_us=rec["send_us"],
                    deliver_us=rec["deliver_us"],
                )
                # The replays read a send's stamp at its delivery; at equal
                # times the send is replayed first.
                if message.deliver_us < message.send_us:
                    raise TraceFormatError(
                        f"{path}:{lineno}: message delivered before it is sent: "
                        f"deliver_us {message.deliver_us} < send_us {message.send_us}"
                    )
                messages.append(message)
            elif kind == "meta":
                dropped = rec.get("dropped_messages", 0)
            else:
                raise TraceFormatError(f"{path}:{lineno}: unknown record type {kind!r}")
    if config is None:
        raise TraceFormatError(f"{path}: missing config record")
    if not events:
        raise TraceFormatError(f"{path}: trace has no events")
    trace = Trace(tuple(events), tuple(messages), config, dropped)
    try:
        trace.event_columns  # checks event identities, once per trace
    except EventIdentityError as exc:
        raise TraceFormatError(f"{path}:{event_lines[exc.index]}: {exc}") from exc
    return trace
