"""In-memory store of correlated event instances, one writer at a time.

The store keeps the materialized instances, the per-case views, and the
indexes the correlator queries while weighing candidate cases: a time index
of recent occurrences per activity (anchor lookups), and per case a record of
its first occurrence of each activity (member checks) and of the dependency
alternatives a fully trusted instance confirmed, beside the open started
events awaiting their completion.

add is the only writer, and it needs no mode. An instance at full trust
spends the dependency alternatives of its allocations; a started instance
waits as its case's newest open start of its activity; any other instance
closes its case's oldest open start of its activity, if there is one.

The store forgets by one distance, its reach R: the widest window plus the
second an unfloored timestamp can lie past its floor. Nothing older than R
before an event can reach it: such anchors lie before the search's lower
edge, and such open started events are past every window. So each add trims
its activity's index to R before the newest entry, and a case's first
instance retires the cases last touched more than R before, with their open
started events. Queries change nothing. The instances themselves are kept
for instances(), case_view() and export_log() unless keep_instances is
false; then memory is bounded by the cases still open.

ExportWriter renders instances as export CSV while they arrive, holding back
only the rows of the current instant; export_log is that writer run over the
kept instances.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import NamedTuple

from .streams import format_timestamp


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

    A named tuple, not a dataclass, as ingest builds one per event: it is
    built and hashed in C, and stays immutable and compared by value.
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


@dataclass(slots=True)
class _Case:
    last: datetime  # when the case last got an instance
    first_seen: dict[str, datetime] = field(default_factory=dict)
    spent: dict[str, set[frozenset[str]]] = field(default_factory=dict)  # confirmed alternatives


_GONE = _Case(datetime.min)  # the record of a retired or unknown case; never written


class CaseStore:
    """Callers add instances in timestamp order; the store does not check it,
    and the time index, the per-case records and the export are only right
    if they do. reach is the distance R past which the store forgets.

    With keep_instances false the store keeps no instance, only counts them:
    instances(), noise(), case_ids(), case_view() and export_log() then see
    none.
    """

    def __init__(self, reach: timedelta, *, keep_instances: bool = True):
        self._reach = reach
        self._keep = keep_instances
        self._count = 0  # instances added, when they are not kept
        self._noise_count = 0
        self._cases: dict[int, list[CorrelatedEventInstance]] = {}
        self._instances: list[CorrelatedEventInstance] = []
        self._live: dict[int, _Case] = {}
        self._time_index: dict[str, list[tuple[datetime, int]]] = {}
        # activity -> case id -> the times of its open started events, oldest
        # first; a case leaves when its queue drains
        self._open_starts: dict[str, dict[int, list[datetime]]] = {}
        self._next_case = 1

    def __len__(self) -> int:
        return len(self._instances) if self._keep else self._count

    def new_case_id(self) -> int:
        case_id = self._next_case
        self._next_case += 1
        if self._keep:
            self._cases[case_id] = []
        return case_id

    def add(self, instance: CorrelatedEventInstance) -> None:
        """Store an instance and apply its effects on its case: at trust 100
        it spends the non-empty dependency sets of its allocations; started,
        it waits as an open start, and stays out of the time index and first
        occurrences, as no search reads it as an anchor or member; otherwise
        it closes its activity's oldest open start in its case, if any."""
        if self._keep:
            self._instances.append(instance)
        else:
            self._count += 1
        if instance.noise_reason is not None:
            self._noise_count += 1
            return
        case_id = instance.case_id
        if self._keep:
            self._cases[case_id].append(instance)
        ts = instance.timestamp
        case = self._live.get(case_id)
        if case is None:
            # only a case's first instance adds per-case state
            self._retire_cases_before(ts - self._reach)
            case = self._live[case_id] = _Case(ts)
        else:
            case.last = ts
        activity = instance.activity
        if instance.trust >= 100.0 - 1e-9:
            confirmed = [a.dependency_set for a in instance.allocations if a.dependency_set]
            if confirmed:
                case.spent.setdefault(activity, set()).update(confirmed)
        if instance.lifecycle == "started":
            self._open_starts.setdefault(activity, {}).setdefault(case_id, []).append(ts)
            return
        starts = self._open_starts.get(activity)
        queue = starts and starts.get(case_id)
        if queue:
            del queue[0]
            if not queue:
                del starts[case_id]
        case.first_seen.setdefault(activity, ts)
        entries = self._time_index.setdefault(activity, [])
        entries.append((ts, case_id))
        edge = ts - self._reach
        if entries[0][0] < edge:
            # (t,) sorts before every (t, case_id)
            del entries[:bisect_left(entries, (edge,))]

    def _retire_cases_before(self, cutoff: datetime) -> None:
        """Forget the per-case state of each case last touched before cutoff."""
        for case_id in [c for c, case in self._live.items() if case.last < cutoff]:
            del self._live[case_id]
            for starts in self._open_starts.values():
                starts.pop(case_id, None)

    def case_ids(self) -> list[int]:
        return sorted(self._cases)

    def case_view(self, case_id: int) -> list[CorrelatedEventInstance]:
        return list(self._cases[case_id])

    def instances(self) -> list[CorrelatedEventInstance]:
        return list(self._instances)

    def noise(self) -> list[CorrelatedEventInstance]:
        return [inst for inst in self._instances if inst.noise_reason is not None]

    def noise_count(self) -> int:
        return self._noise_count

    # anchor lookups

    def occurrences_since(self, activity: str, lo: datetime) -> list[tuple[datetime, int]]:
        """(timestamp, case id) of each indexed occurrence of activity from lo
        on; those more than the reach before the newest are gone."""
        entries = self._time_index.get(activity, [])
        return entries[bisect_left(entries, (lo,)):]

    def has_occurrence_at_or_before(self, case_id: int, activity: str, ts: datetime) -> bool:
        first = self._live.get(case_id, _GONE).first_seen.get(activity)
        return first is not None and first <= ts

    # started/completed pairing

    def open_starts(self, activity: str) -> dict[int, list[datetime]]:
        """Case id -> the times of its open started events of activity,
        oldest first. The stored map itself, not a copy: callers only read it."""
        return self._open_starts.get(activity, {})

    # confirmed dependency alternatives, for loop-repeat exclusion

    def certain_alternatives(self, case_id: int, activity: str) -> set[frozenset[str]] | frozenset:
        """The stored set itself, not a copy: callers only read it."""
        return self._live.get(case_id, _GONE).spent.get(activity, frozenset())

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
    current instant's rows, which it sorts once the instant is over.
    """

    _BATCH = 500  # rows formatted before each write to the stream

    def __init__(self, out, threshold: float = 0.0):
        self._writer = csv.writer(out, lineterminator="\n")
        self._writer.writerow(["case_id", "timestamp", "activity", "trust", "lifecycle", "resource"])
        self._threshold = threshold
        self._instant: datetime | None = None
        self._held: list[CorrelatedEventInstance] = []
        self._rows: list[list] = []

    def write(self, instances) -> None:
        """Take instances in timestamp order, the instances of one event in
        case order, as Correlator.ingest returns them."""
        held = self._held
        threshold = self._threshold
        for inst in instances:
            if inst.timestamp != self._instant:
                self._release()
                self._instant = inst.timestamp
            if inst.noise_reason is not None:
                if threshold <= 0:
                    held.append(inst)
            elif inst.trust is not None and inst.trust >= threshold:
                held.append(inst)

    def close(self) -> None:
        """Write every row still held. The stream stays open."""
        self._release()
        self._writer.writerows(self._rows)
        self._rows.clear()

    def _release(self) -> None:
        held = self._held
        if not held:
            return
        if len(held) > 1:
            # a stable sort: equal keys keep their arrival order
            held.sort(key=_tie_order)
        rows = self._rows
        text, formatted = None, None
        for inst in held:
            # instances of one event share their timestamp object
            if inst.timestamp is not formatted:
                formatted = inst.timestamp
                text = format_timestamp(formatted)
            rows.append([
                "" if inst.case_id is None else inst.case_id,
                text,
                inst.activity,
                "" if inst.trust is None else f"{inst.trust:.2f}",
                inst.lifecycle or "",
                inst.resource or "",
            ])
        held.clear()
        if len(rows) >= self._BATCH:
            self._writer.writerows(rows)
            rows.clear()


def _tie_order(inst: CorrelatedEventInstance) -> tuple[bool, int]:
    return inst.noise_reason is not None, inst.case_id or 0
