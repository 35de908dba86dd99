"""Event-stream plumbing: reading, stripping case ids, timed replay.

Reading builds each event straight from its row's values, CSV and JSON lines
alike, and an error in a row names the line of the file where the row ends.
"""

from __future__ import annotations

import csv
import io
import math
import time
import warnings
from dataclasses import dataclass, replace
from datetime import datetime
from operator import itemgetter
from pathlib import Path


class StreamFormatError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


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


def whole_seconds_between(start: datetime, end: datetime) -> int:
    """Signed difference in whole seconds, both ends floored to the second:
    floor(end) - start rounded up, as floor(end) is whole."""
    delta = floor_to_second(end) - start
    return delta.days * 86400 + delta.seconds + (delta.microseconds > 0)


# the columns of an event row, in the order _event takes their values
_COLUMNS = ("timestamp", "activity", "lifecycle", "resource", "case_id")
# _event builds an event through its slots, named like the columns
_new = object.__new__
_set_timestamp, _set_activity, _set_lifecycle, _set_resource, _set_case_id = (
    getattr(UncorrelatedEvent, name).__set__ for name in _COLUMNS)


def _event(timestamp, activity, lifecycle, resource, case_id) -> UncorrelatedEvent:
    """One row's event from its _COLUMNS values, each a str or None: the
    coercions that CSV and JSON lines share. A blank value is None."""
    if timestamp is None or activity is None or not (activity := activity.strip()):
        raise StreamFormatError("BAD_ROW", "needs timestamp and activity")
    case_id = case_id and case_id.strip() or None
    # the slots' own setters, as the frozen dataclass's __init__ sets each
    # field through object.__setattr__, at over half again the cost
    event = _new(UncorrelatedEvent)
    _set_timestamp(event, parse_timestamp(timestamp))
    _set_activity(event, activity)
    _set_lifecycle(event, lifecycle and lifecycle.strip().lower() or None)
    _set_resource(event, resource and resource.strip() or None)
    # isdecimal, not isdigit: int() rejects digits such as '²'
    _set_case_id(event, int(case_id) if case_id and case_id.isdecimal() else case_id)
    return event


def _rows(handle, fmt: str):
    """(line, values) per row, values in _COLUMNS order. CSV reads as a
    DictReader: blank rows skipped, absent columns and a short row's missing
    cells None, a repeated name its last column. A JSON line is an object,
    its values read as text; blank lines are skipped."""
    if fmt == "csv":
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return
        index = {name: i for i, name in enumerate(header)}
        missing = {"timestamp", "activity"} - index.keys()
        if missing:
            raise StreamFormatError("MISSING_COLUMN", f"missing column(s) {sorted(missing)}")
        width = len(header)
        pad = [None] * width
        # absent columns read the cell past the header's last, always None
        pick = itemgetter(*(index.get(name, width) for name in _COLUMNS))
        for row in filter(None, reader):  # a blank row is []
            if len(row) != width:
                row = (row + pad)[:width]
            row.append(None)
            yield reader.line_num, pick(row)
    elif fmt == "jsonl":
        import json  # here, so that reading CSV does not load it

        for position, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamFormatError("BAD_ROW", f"row {position}: {exc}") from exc
            if not isinstance(record, dict):
                raise StreamFormatError("BAD_ROW", f"row {position}: a JSON line must be an object")
            yield position, [None if (v := record.get(k)) is None else str(v) for k in _COLUMNS]
    else:
        raise StreamFormatError("UNKNOWN_FORMAT", f"unknown stream format {fmt!r}")


def iter_events(handle, fmt: str = "csv"):
    """Yield the events of an open text stream one row at a time, in file
    order, reading no further ahead than the row being yielded. An error in
    a row names its line."""
    naive = None
    for position, values in _rows(handle, fmt):
        try:
            event = _event(*values)
            # naive and offset timestamps do not compare, so a stream must keep to one kind
            is_naive = event.timestamp.utcoffset() is None
            if naive is None:
                naive = is_naive
            elif is_naive is not naive:
                kinds = ("offset", "naive")
                raise StreamFormatError("MIXED_TIMEZONES", f"{kinds[is_naive]} timestamp in a "
                                        f"stream whose first timestamp is {kinds[naive]}")
        except StreamFormatError as exc:
            raise StreamFormatError(exc.code, f"row {position}: {exc.message}") from None
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
    read only as fast as the sink consumes it. A sink failure is raised as
    a ReplayError; a failure of the iterable itself passes through as it is.
    """
    if not speedup > 0:  # NaN too
        raise ValueError("speedup must be positive")
    paced = math.isfinite(speedup)
    start_wall = time.monotonic()
    start_ts = None
    delivered = 0
    for ev in events:
        if paced:
            if start_ts is None:
                start_ts = ev.timestamp
            target = start_wall + (ev.timestamp - start_ts).total_seconds() / speedup
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        try:
            sink(ev)
        except Exception as exc:
            raise ReplayError(delivered, exc) from exc
        delivered += 1
    return ReplayReport(delivered, time.monotonic() - start_wall)
