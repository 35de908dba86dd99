"""In-memory store of correlated event instances, one writer at a time.

The store keeps the materialized instances in one list, which the case views
read, and the indexes its two searches read while an event weighs candidate
cases: a time index of recent occurrences per activity, whose entries are the
anchors of the dependency search, and per live case one record: the case's
first occurrence of each activity (member checks), for each dependency
alternative a fully trusted instance confirmed, the latest anchor that
confirmed it (spend checks), and the case's open started events awaiting their
completion (the pairing search). Only this module knows their layout.

add is the only writer, and it needs no mode. An instance at full trust
spends the dependency alternatives of its allocations, each up to its
allocation's anchor, so the search skips a non-reusable alternative only
for anchors at or before that one; an instance below full trust spends
nothing. A started instance waits as its case's newest open start of its
activity; any other instance closes its case's oldest open start of its
activity, if there is one.

The store forgets by one distance, its reach R: the widest window plus the
second an unfloored timestamp can lie past its floor. Nothing older than R
before an event can reach it: such anchors lie before the search's lower
edge, and such open started events are past every window. So each add trims
its activity's index to R before the newest entry, and a case's first
instance retires the cases last touched more than R before, open started
events and all, by deleting their records. The searches change nothing. The
instances themselves are kept for instances(), case_view() and export_log()
unless keep_instances is false; then memory is bounded by the cases still
open.

ExportWriter renders instances as export CSV while they arrive, holding back
only the rows of the current instant; export_log is that writer run over the
kept instances. It writes rows as plain text and leaves to csv.writer only
the batches with a field that CSV may quote, so the bytes are csv.writer's; it
formats a timestamp once per minute and UTC offset.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from collections import defaultdict
from collections.abc import KeysView
from datetime import datetime, timedelta
from typing import NamedTuple

from .streams import floor_to_second, format_timestamp

KIND_AVG = "avg"
KIND_RANGE = "range"

# the dependency set of every pairing allocation, one object for them all
_NO_MEMBERS = frozenset()

# the searches build allocations as _new(Allocation, fields in declared
# order), which skips the named tuple's own __new__, written in Python
_new = tuple.__new__


class Allocation(NamedTuple):
    """One way an event can belong to a case: the dependency alternative it
    satisfies there, the anchor instant that enabled it, and the implied
    duration classified as the average or one of the remaining window values.
    """

    case_id: int
    dependency_set: frozenset[str]
    anchor: datetime
    duration: int
    kind: str


class CorrelatedEventInstance(NamedTuple):
    """One correlated event in one case, or one noise event (case_id None).

    ingest builds one per event; as a named tuple, like every record of the
    package, it is built and hashed in C, immutable and compared by value.
    """

    timestamp: datetime
    activity: str
    case_id: int | None
    trust: float | None
    lifecycle: str | None = None
    resource: str | None = None
    allocations: tuple[Allocation, ...] = ()
    raw_trust: float | None = None
    noise_reason: str | None = None
    seq: int = -1

    def is_noise(self) -> bool:
        return self.noise_reason is not None


class CaseRecord:
    """The store's record of one live case: the dependency search reads its
    first occurrences and its spent alternatives, the pairing search its
    open starts. A plain slotted class, as its fields change while the case
    lives, which a named tuple's cannot."""

    __slots__ = ("last", "first_seen", "spent", "open")

    def __init__(self, last: datetime):
        self.last = last  # when the case last got an instance
        # activity -> the case's first occurrence of it
        self.first_seen: dict[str, datetime] = {}
        # (activity, dependency set) -> the latest anchor through which a
        # fully trusted instance of the activity confirmed the set
        self.spent: dict[tuple[str, frozenset[str]], datetime] = {}
        # activity -> the times of the case's open started events of it,
        # oldest first; an activity leaves when its queue drains
        self.open: defaultdict[str, list[datetime]] = defaultdict(list)


class CaseStore:
    """Callers add instances in timestamp order; the store does not check it,
    and the time index, the per-case records and the export are only right
    if they do. reach is the distance R past which the store forgets.

    Each kept instance is stored once, in arrival order, and case_ids() and
    case_view() read that one list. With keep_instances false the store
    keeps no instance, only counts them: instances(), noise(), case_ids(),
    case_view() and export_log() then see none.
    """

    def __init__(self, reach: timedelta, *, keep_instances: bool = True):
        self._reach = reach
        self._keep = keep_instances
        self._count = 0  # instances added, kept or not
        self._noise_count = 0
        self._instances: list[CorrelatedEventInstance] = []
        self._live: dict[int, CaseRecord] = {}
        self._time_index: defaultdict[str, list[tuple[datetime, int]]] = defaultdict(list)
        self._last_case = 0  # the latest case id handed out

    def __len__(self) -> int:
        return self._count

    def new_case_id(self) -> int:
        self._last_case += 1
        return self._last_case

    def add(self, instance: CorrelatedEventInstance) -> None:
        """Store an instance and apply its effects on its case: at trust 100
        it spends the non-empty dependency set of each allocation up to the
        allocation's anchor; started, it waits as an open start, and stays
        out of the time index and first occurrences, as no search reads it as
        an anchor or member; otherwise it closes its activity's oldest open
        start in its case, if any."""
        ts, activity, case_id, trust, lifecycle, _, allocations, _, noise_reason, _ = instance
        self._count += 1
        if self._keep:
            self._instances.append(instance)
        if noise_reason is not None:
            self._noise_count += 1
            return
        case = self._live.get(case_id)
        if case is None:
            # only a case's first instance adds per-case state
            self._retire_cases_before(ts - self._reach)
            case = self._live[case_id] = CaseRecord(ts)
        else:
            case.last = ts
        if trust >= 100.0 - 1e-9:
            spent = case.spent
            for _, dep_set, anchor, _, _ in allocations:
                if dep_set:
                    key = (activity, dep_set)
                    until = spent.get(key)
                    if until is None or until < anchor:
                        spent[key] = anchor
        open_starts = case.open
        if lifecycle == "started":
            open_starts[activity].append(ts)
            return
        if open_starts:  # skip the lookup in the many cases without one
            queue = open_starts.get(activity)
            if queue:
                del queue[0]
                if not queue:
                    del open_starts[activity]
        case.first_seen.setdefault(activity, ts)
        entries = self._time_index[activity]
        entries.append((ts, case_id))
        edge = ts - self._reach
        if entries[0][0] < edge:
            # (t,) sorts before every (t, case_id)
            del entries[:bisect_left(entries, (edge,))]

    def _retire_cases_before(self, cutoff: datetime) -> None:
        """Forget the record of each case last touched before cutoff."""
        for case_id in [c for c, case in self._live.items() if case.last < cutoff]:
            del self._live[case_id]

    def case_ids(self) -> list[int]:
        return sorted({inst.case_id for inst in self._instances} - {None})

    def case_view(self, case_id: int) -> list[CorrelatedEventInstance]:
        """The case's kept instances in arrival order; [] for an id with none."""
        return [inst for inst in self._instances if inst.case_id == case_id]

    def instances(self) -> list[CorrelatedEventInstance]:
        return list(self._instances)

    def noise(self) -> list[CorrelatedEventInstance]:
        return [inst for inst in self._instances if inst.noise_reason is not None]

    def noise_count(self) -> int:
        return self._noise_count

    # the searches

    def dependency_allocations(self, ts, mn, avg, max_span, anchorings) -> KeysView[Allocation]:
        """Each allocation of an event at ts through one of its anchorings, each
        (members, spend key or None, anchor member, the other members), whose
        duration lies in its window mn..max_span of average avg: a set-like
        view, once each, in the anchorings' order, each one's anchors oldest first."""
        ts0 = floor_to_second(ts)
        # anchors from lo on lie at most max whole seconds before the event,
        # earlier ones more; anchors after the event fail the min check
        lo = ts0 - max_span
        index, cases = self._time_index, self._live
        # a dict as an ordered set: same-instant occurrences of one member in
        # one case index the same (anchor, case) twice
        out: dict[Allocation, None] = {}
        for dep_set, spend_key, member, others in anchorings:
            entries = index.get(member)
            if entries is None:
                continue
            # entries from lo on lie within the reach, so their cases are live
            for anchor, case_id in entries[bisect_left(entries, (lo,)):]:
                # ts0 - anchor rounded up to whole seconds; ts0 is whole
                delta = ts0 - anchor
                duration = delta.days * 86400 + delta.seconds + (delta.microseconds > 0)
                if duration < mn:
                    continue
                case = cases[case_id]
                if spend_key is not None:
                    until = case.spent.get(spend_key)
                    if until is not None and anchor <= until:
                        continue
                # the other members need only have occurred by the anchor
                for x in others:
                    first = case.first_seen.get(x)
                    if first is None or first > anchor:
                        break
                else:
                    out[_new(Allocation, (
                        case_id, dep_set, anchor, duration, KIND_AVG if duration == avg else KIND_RANGE
                    ))] = None
        return out.keys()

    def pairing_allocations(self, ts, activity, mn, mx, avg) -> set[Allocation]:
        """Each pairing of a completion of activity at ts with a live case's
        oldest open start of it, in the window mn..mx of average avg."""
        ts0 = floor_to_second(ts)
        out: set[Allocation] = set()
        for case_id, case in self._live.items():
            starts = case.open.get(activity)
            if not starts:
                continue
            started = starts[0]
            # ts0 - started rounded up to whole seconds; ts0 is whole
            delta = ts0 - started
            duration = delta.days * 86400 + delta.seconds + (delta.microseconds > 0)
            if mn <= duration <= mx:
                out.add(_new(Allocation, (
                    case_id, _NO_MEMBERS, started, duration, KIND_AVG if duration == avg else KIND_RANGE
                )))
        return out

    def export_log(self, threshold: float = 0.0) -> str:
        """Render stored instances at or above the trust threshold as CSV,
        in the order ExportWriter gives."""
        buffer = io.StringIO()
        writer = ExportWriter(buffer, threshold)
        writer.write(self._instances)
        writer.close()
        return buffer.getvalue()


class ExportWriter:
    """Writes correlated instances as export CSV rows while they arrive.

    Rows keep instances at or above the trust threshold; noise rows, having
    no trust, survive only a zero threshold. They are ordered by timestamp,
    noise after proper instances at the same instant, then by case id. Given
    instances in timestamp order, the writer needs to hold back only the
    current instant's rows, which it sorts once the instant is over; rows go
    out in batches, on flush() and on close().

    A batch is rendered as plain text, each row its six fields joined by
    commas. A batch with a field that CSV may quote (one holding a comma, a
    quote, a line break or a NUL) goes through csv.writer instead, so the
    bytes are csv.writer's on every Python version. A timestamp inside the
    minute of the last one formatted, at the same UTC offset, reuses that
    minute's text.
    """

    _BATCH = 500  # rows held before each write to the stream

    def __init__(self, out, threshold: float = 0.0):
        self._out = out
        self._csv = csv.writer(out, lineterminator="\n")
        out.write("case_id,timestamp,activity,trust,lifecycle,resource\n")
        self._threshold = threshold
        self._instant: datetime | None = None
        self._held: list[CorrelatedEventInstance] = []
        self._rows: list[tuple] = []
        # the last minute formatted: its UTC offset, the span from the instant
        # that started it to the minute's end, and its text around the second;
        # empty until the first instant
        self._offset: timedelta | None = None
        self._lo, self._hi = datetime.max, datetime.min
        self._prefix = self._suffix = ""

    def write(self, instances) -> None:
        """Take instances in timestamp order, the instances of one event in
        case order, as Correlator.ingest returns them."""
        held = self._held
        threshold = self._threshold
        for inst in instances:
            ts, _, _, trust, _, _, _, _, noise_reason, _ = inst
            if ts != self._instant:
                if held:
                    self._release()
                self._instant = ts
            if noise_reason is not None:
                if threshold <= 0:
                    held.append(inst)
            elif trust >= threshold:
                held.append(inst)

    def flush(self) -> None:
        """Write the rows of every instant that is over, then flush the
        stream. The current instant's rows stay held."""
        self._write_rows()
        self._out.flush()

    def close(self) -> None:
        """Write every row still held. The stream stays open."""
        if self._held:
            self._release()
        self.flush()

    def _release(self) -> None:
        held = self._held
        if len(held) > 1:
            # a stable sort: equal keys keep their arrival order
            held.sort(key=_tie_order)
        instant = self._instant
        offset = instant.utcoffset()
        # the offset first: naive and offset instants do not order
        if offset == self._offset and self._lo <= instant <= self._hi:
            text = self._prefix + _SECONDS[instant.second] + self._suffix
        else:
            text = format_timestamp(instant)
            # the span from this instant to its minute's last second: two
            # replace() calls to the minute's own bounds cost more than a
            # format_timestamp() call
            hi = instant + _TO_LAST_SECOND[instant.second]
            if hi.utcoffset() == offset:  # a zone may change offset within a minute
                self._lo, self._hi = instant, hi
                self._offset, self._prefix, self._suffix = offset, text[:17], text[19:]
        rows = self._rows
        for ts, activity, case_id, trust, lifecycle, resource, _, _, _, _ in held:
            rows.append((
                "" if case_id is None else case_id,
                # an equal instant prints alike unless written at another offset
                text if ts.utcoffset() == offset else format_timestamp(ts),
                activity,
                "" if trust is None else f"{trust:.2f}",
                lifecycle or "",
                resource or "",
            ))
        held.clear()
        if len(rows) >= self._BATCH:
            self._write_rows()

    def _write_rows(self) -> None:
        rows = self._rows
        text = "".join(map(_ROW.__mod__, rows))
        if _is_plain(text, len(rows)):
            self._out.write(text)
        else:
            self._csv.writerows(rows)
        rows.clear()


_ROW = "%s,%s,%s,%s,%s,%s\n"
_SECONDS = [f"{second:02d}" for second in range(60)]
_TO_LAST_SECOND = [timedelta(seconds=59 - second) for second in range(60)]


def _is_plain(text: str, rows: int) -> bool:
    """Whether text, that many rows rendered by _ROW, is what csv.writer would
    write: no field holds a comma, a line break or a quote, which it may quote,
    nor a NUL, which it cannot write before Python 3.11."""
    return (text.count(",") == 5 * rows and text.count("\n") == rows
            and '"' not in text and "\r" not in text and "\0" not in text)


def _tie_order(inst: CorrelatedEventInstance) -> tuple[bool, int]:
    return inst.noise_reason is not None, inst.case_id or 0
