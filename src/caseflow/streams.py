"""Event-stream plumbing: reading, stripping case ids, timed replay.

Reading builds each event straight from its row's values, CSV and JSON lines
alike, and an error in a row names the line of the file where the row ends.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from contextlib import suppress
from datetime import datetime
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import CaseflowError


class StreamFormatError(CaseflowError, ValueError):
    """An event stream, or a row of one, that cannot be read."""


class UncorrelatedEvent(NamedTuple):
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
    if raw.endswith(("Z", "z")):  # UTC; fromisoformat reads Z from Python 3.11 on, and z never
        with suppress(ValueError):
            return datetime.fromisoformat(raw[:-1] + "+00:00")
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


# the columns of an event row, in the order of UncorrelatedEvent's fields
_COLUMNS = ("timestamp", "activity", "lifecycle", "resource", "case_id")
# iter_events builds each event as _new(UncorrelatedEvent, fields in declared
# order), which skips the named tuple's own __new__, written in Python
_new = tuple.__new__


def _csv_rows(lines, columns, required, error, bad_row):
    """(line, values) per row of CSV lines, values in columns order, read as a DictReader reads
    them: blank rows skipped, and unlike DictReader before the header too, as are lines of only
    whitespace there; absent columns and a short row's missing cells None, a repeated name its
    last column. A required column that is absent is error's MISSING_COLUMN, and a line the csv
    module rejects (a cell over csv.field_size_limit(), a bare carriage return) error's bad_row."""
    head = []
    for line in (lines := iter(lines)):
        head.append(line if line.strip() else "")  # a blank row, counted in line numbers
        if head[-1]:
            break
    reader = csv.reader(chain(head, lines))
    rows = filter(None, reader)  # a blank row is []
    try:
        header = next(rows, None)
        if header is None:
            return
        index = {name: i for i, name in enumerate(header)}
        if missing := required - index.keys():
            raise error("MISSING_COLUMN", f"missing column(s) {sorted(missing)}")
        width = len(header)
        pad = [None] * width
        # absent columns read the cell past the header's last, always None
        pick = itemgetter(*(index.get(name, width) for name in columns))
        for row in rows:
            if len(row) != width:
                row = (row + pad)[:width]
            row.append(None)
            yield reader.line_num, pick(row)
    except csv.Error as exc:
        raise error(bad_row, f"row {reader.line_num}: {exc}") from None


def _json_rows(lines):
    """A JSON line is an object, its values read as text; blank lines are skipped."""
    import json  # here, so that reading CSV does not load it

    for position, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or a number over the int digit limit
            raise StreamFormatError("BAD_ROW", f"row {position}: {exc}") from exc
        if not isinstance(record, dict):
            raise StreamFormatError("BAD_ROW", f"row {position}: a JSON line must be an object")
        yield position, [None if (v := record.get(k)) is None else str(v) for k in _COLUMNS]


def _rows(handle):
    """(line, values) per row, values in _COLUMNS order. The first non-blank line, read
    again in front of the rest, picks the format: JSON lines if it starts with '{', else CSV."""
    head = []
    for line in (lines := iter(handle)):
        head.append(line)
        if line.strip():
            break
    if head and head[-1].lstrip().startswith("{"):
        return _json_rows(chain(head, lines))
    return _csv_rows(chain(head, lines), _COLUMNS, {"timestamp", "activity"}, StreamFormatError,
                     "BAD_ROW")


def iter_events(handle):
    """Yield the events of an open text stream, CSV or JSON lines as its first non-blank line
    says, one row at a time, in file order, reading no further ahead than the row being
    yielded. An error in a row names its line; bytes it cannot decode are a BAD_ENCODING."""
    naive = None
    try:
        for position, (timestamp, activity, lifecycle, resource, case_id) in _rows(handle):
            # each value is a str or None, and a blank one is None
            try:
                if timestamp is None or activity is None or not (activity := activity.strip()):
                    raise StreamFormatError("BAD_ROW", "needs timestamp and activity")
                ts = parse_timestamp(timestamp)
                # naive and offset timestamps do not compare, so a stream must keep to one kind
                is_naive = ts.utcoffset() is None
                if naive is None:
                    naive = is_naive
                elif is_naive is not naive:
                    kinds = ("offset", "naive")
                    raise StreamFormatError("MIXED_TIMEZONES", f"{kinds[is_naive]} timestamp in a "
                                            f"stream whose first timestamp is {kinds[naive]}")
                case_id = case_id and case_id.strip() or None
                try:  # isdecimal, not isdigit: int() rejects digits such as '²'
                    case_id = int(case_id) if case_id and case_id.isdecimal() else case_id
                except ValueError:  # more digits than sys.get_int_max_str_digits()
                    raise StreamFormatError("BAD_ROW", f"case id of {len(case_id)} digits "
                                                       "is too long") from None
            except StreamFormatError as exc:
                raise StreamFormatError(exc.code, f"row {position}: {exc.message}") from None
            yield _new(UncorrelatedEvent, (
                ts, activity, lifecycle and lifecycle.strip().lower() or None,
                resource and resource.strip() or None, case_id,
            ))
    except UnicodeDecodeError as exc:
        # exc.start counts from the start of the chunk the text layer was
        # decoding, which ends where its binary buffer now stands
        where = ""
        with suppress(AttributeError, OSError):  # no buffer, or one that cannot tell
            where = f" at offset {handle.buffer.tell() - len(exc.object) + exc.start}"
        raise StreamFormatError("BAD_ENCODING", f"byte {exc.object[exc.start]:#04x}{where} is "
                                                f"not valid {exc.encoding} ({exc.reason})") from None


def read_events(source) -> tuple[UncorrelatedEvent, ...]:
    """Read a CSV or JSON-lines event stream from a path or open text stream.

    Events are returned in timestamp order; arrival order is kept among
    equal timestamps. An out-of-order source is sorted with a warning
    rather than rejected.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig") as handle:
            return read_events(handle)

    events = list(iter_events(source))
    if any(a.timestamp > b.timestamp for a, b in zip(events, events[1:])):
        warnings.warn("event stream out of order; sorting by timestamp", RuntimeWarning, stacklevel=2)
        events.sort(key=lambda e: e.timestamp)
    return tuple(events)


def _csv_event_writer(out):
    """Write the event CSV header to out; return a writer of one event's row."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_COLUMNS)

    def write(ev) -> None:
        writer.writerow([
            format_timestamp(ev.timestamp),
            ev.activity,
            ev.lifecycle or "",
            ev.resource or "",
            "" if ev.case_id is None else ev.case_id,
        ])
    return write


def strip_case_ids(events) -> tuple[tuple[UncorrelatedEvent, ...], list[int | str | None]]:
    """The events without case ids, and their ids in order: labels[i] is
    the id of events[i], as score() reads its truth labels."""
    events = tuple(events)  # read once, so a generator gives both
    return tuple(ev._replace(case_id=None) for ev in events), [ev.case_id for ev in events]


class ReplayReport(NamedTuple):
    delivered: int = 0
    wall_seconds: float = 0.0


def replay(events, sink, speedup: float = math.inf) -> ReplayReport:
    """Feed events to sink, pacing inter-event gaps by the stream's own
    timestamps divided by speedup. Each delivery is scheduled against the
    replay start, so a slow sink eats into later waits instead of shifting
    the whole schedule. Infinite speedup delivers as fast as possible.

    Events are drawn from the iterable one at a time, so a generator is
    read only as fast as the sink consumes it. A failure of the sink or of
    the iterable passes through as it is.
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
        sink(ev)
        delivered += 1
    return ReplayReport(delivered, time.monotonic() - start_wall)
