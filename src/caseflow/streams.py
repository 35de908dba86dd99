"""Event-stream plumbing: reading, stripping case ids, timed replay."""

from __future__ import annotations

import csv
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path


class StreamFormatError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class ReplayError(Exception):
    """Raised when the sink fails; position is the index of the offending event."""

    def __init__(self, position: int, cause: BaseException):
        super().__init__(f"sink failed at event {position}: {cause}")
        self.position = position
        self.cause = cause


@dataclass(frozen=True, slots=True)
class UncorrelatedEvent:
    timestamp: datetime
    activity: str
    lifecycle: str | None = None
    resource: str | None = None
    case_id: int | str | None = None


_FALLBACK_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M")


def parse_timestamp(text: str) -> datetime:
    raw = text.strip()
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        pass
    # tolerate unpadded month/day/hour, as produced by some exporters
    normalized = raw.replace("T", " ", 1)
    for fmt in _FALLBACK_FORMATS:
        try:
            return datetime.strptime(normalized, fmt)
        except ValueError:
            continue
    raise StreamFormatError("BAD_TIMESTAMP", f"cannot parse timestamp {text!r}")


def format_timestamp(ts: datetime) -> str:
    """Whole seconds, and the UTC offset of an offset timestamp."""
    return ts.isoformat(sep=" ", timespec="seconds")


def floor_to_second(ts: datetime) -> datetime:
    # a whole second is its own floor; returning it saves a copy per event
    return ts if ts.microsecond == 0 else ts.replace(microsecond=0)


def _ceil_seconds(delta: timedelta) -> int:
    """A timedelta rounded up to whole seconds, in integer arithmetic."""
    return delta.days * 86400 + delta.seconds + (delta.microseconds > 0)


def whole_seconds_between(start: datetime, end: datetime) -> int:
    """Signed difference in whole seconds, both ends floored to the second:
    floor(end) - start rounded up, as floor(end) is whole."""
    return _ceil_seconds(floor_to_second(end) - start)


def _coerce_case_id(value) -> int | str | None:
    if value is None:
        return None
    text = str(value).strip()
    if not text:
        return None
    # isdecimal, not isdigit: int() rejects digits such as '²'
    return int(text) if text.isdecimal() else text


def _event_from_record(record: dict, position: int) -> UncorrelatedEvent:
    ts = record.get("timestamp")
    activity = record.get("activity")
    if ts is None or activity is None or not str(activity).strip():
        raise StreamFormatError("BAD_ROW", f"row {position}: needs timestamp and activity")
    lifecycle = record.get("lifecycle")
    lifecycle = str(lifecycle).strip().lower() or None if lifecycle is not None else None
    resource = record.get("resource")
    resource = str(resource).strip() or None if resource is not None else None
    return UncorrelatedEvent(
        timestamp=ts if isinstance(ts, datetime) else parse_timestamp(str(ts)),
        activity=str(activity).strip(),
        lifecycle=lifecycle,
        resource=resource,
        case_id=_coerce_case_id(record.get("case_id")),
    )


def _records(handle, fmt: str):
    """(position, record) per row: CSV rows by line, the header being line
    1; JSON lines by line, blank ones skipped but counted."""
    if fmt == "csv":
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return
        missing = {"timestamp", "activity"} - set(reader.fieldnames)
        if missing:
            raise StreamFormatError("MISSING_COLUMN", f"missing column(s) {sorted(missing)}")
        yield from enumerate(reader, start=2)
    elif fmt == "jsonl":
        for position, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamFormatError("BAD_ROW", f"line {position}: {exc}") from exc
            yield position, record
    else:
        raise StreamFormatError("UNKNOWN_FORMAT", f"unknown stream format {fmt!r}")


def iter_events(handle, fmt: str = "csv"):
    """Yield the events of an open text stream one row at a time, in file
    order, reading no further ahead than the row being yielded."""
    naive = None
    for position, record in _records(handle, fmt):
        event = _event_from_record(record, position)
        # naive and offset timestamps do not compare, so a stream must keep to one kind
        is_naive = event.timestamp.utcoffset() is None
        if naive is None:
            naive = is_naive
        elif is_naive != naive:
            first, this = ("naive", "offset") if naive else ("offset", "naive")
            raise StreamFormatError(
                "MIXED_TIMEZONES",
                f"row {position}: {this} timestamp in a stream whose first timestamp is {first}",
            )
        yield event


def read_events(source, fmt: str = "csv") -> tuple[UncorrelatedEvent, ...]:
    """Read an event stream from a path or open text stream.

    Events are returned in timestamp order; arrival order is kept among
    equal timestamps. An out-of-order source is sorted with a warning
    rather than rejected.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            return read_events(handle, fmt=fmt)

    events = list(iter_events(source, fmt))
    if any(a.timestamp > b.timestamp for a, b in zip(events, events[1:])):
        warnings.warn("event stream out of order; sorting by timestamp", RuntimeWarning, stacklevel=2)
        events.sort(key=lambda e: e.timestamp)
    return tuple(events)


def _csv_event_writer(out):
    """Write the event CSV header to out; return a writer of one event's row."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["timestamp", "activity", "lifecycle", "resource", "case_id"])

    def write(ev) -> None:
        writer.writerow([
            format_timestamp(ev.timestamp),
            ev.activity,
            ev.lifecycle or "",
            ev.resource or "",
            "" if ev.case_id is None else ev.case_id,
        ])
    return write


def events_to_csv(events) -> str:
    buffer = io.StringIO()
    write = _csv_event_writer(buffer)
    for ev in events:
        write(ev)
    return buffer.getvalue()


def strip_case_ids(events) -> tuple[tuple[UncorrelatedEvent, ...], list[int | str | None]]:
    """The events without case ids, and their ids in order: labels[i] is
    the id of events[i], as score() reads its truth labels."""
    events = tuple(events)  # read once, so a generator gives both
    return tuple(replace(ev, case_id=None) for ev in events), [ev.case_id for ev in events]


@dataclass
class ReplayReport:
    delivered: int = 0
    wall_seconds: float = 0.0


def replay(events, sink, speedup: float = math.inf) -> ReplayReport:
    """Feed events to sink, pacing inter-event gaps by the stream's own
    timestamps divided by speedup. Each delivery is scheduled against the
    replay start, so a slow sink eats into later waits instead of shifting
    the whole schedule. Infinite speedup delivers as fast as possible.

    Events are drawn from the iterable one at a time, so a generator is
    read only as fast as the sink consumes it.
    """
    if speedup <= 0:
        raise ValueError("speedup must be positive")
    report = ReplayReport()
    start_wall = time.monotonic()
    start_ts = None
    for i, ev in enumerate(events):
        if math.isfinite(speedup):
            if start_ts is None:
                start_ts = ev.timestamp
            target = start_wall + (ev.timestamp - start_ts).total_seconds() / speedup
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        try:
            sink(ev)
        except Exception as exc:
            report.wall_seconds = time.monotonic() - start_wall
            raise ReplayError(i, exc) from exc
        report.delivered += 1
    report.wall_seconds = time.monotonic() - start_wall
    return report
