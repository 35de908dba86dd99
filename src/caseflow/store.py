"""In-memory store of correlated event instances, one writer at a time.

The store keeps the materialized instances, the per-case views, and the
indexes the correlator queries while weighing candidate cases: a time index
of recent occurrences per activity (anchor lookups, retiring those too old
to anchor anything), the first occurrence per case and activity (member
checks), open started events awaiting their completion, and the dependency
alternatives already confirmed by a fully trusted instance.

Cases retire: once the correlator finds that no later event can reach a
case, the store drops the case's per-case state (last touch, first
occurrences, confirmed alternatives, open started events). The instances
themselves are kept for instances(), case_view() and export_log() unless the
store is built with keep_instances false, when it only counts them; then
memory is bounded by the cases still open, not by the length of the stream.

ExportWriter renders instances as export CSV while they arrive, holding back
only the rows of the current instant; export_log is that writer run over the
kept instances.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime

from .streams import format_timestamp


@dataclass(frozen=True, slots=True)
class Allocation:
    """One way an event can belong to a case: the dependency alternative it
    satisfies there, the anchor instant that enabled it, and the implied
    duration classified as the average or one of the remaining window values.
    """

    case_id: int
    dependency_set: frozenset[str]
    anchor: datetime
    duration: int
    kind: str


@dataclass(frozen=True, slots=True)
class CorrelatedEventInstance:
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


_NOTHING: dict = {}  # the per-case state of a retired or unknown case; never written


class CaseStore:
    """Callers add instances in timestamp order; the store does not check it,
    and the time index, the first-occurrence map and the export are only
    right if they do.

    With keep_instances false the store keeps no instance, only counts them:
    instances(), noise(), case_ids(), case_view() and export_log() then see
    none.
    """

    def __init__(self, *, keep_instances: bool = True):
        self._keep = keep_instances
        self._count = 0  # instances added, when they are not kept
        self._noise_count = 0
        self._cases: dict[int, list[CorrelatedEventInstance]] = {}
        self._instances: list[CorrelatedEventInstance] = []
        # per case: when it last got an instance, the first occurrence of
        # each activity, and the alternatives confirmed per activity
        self._last_touch: dict[int, datetime] = {}
        self._first_seen: dict[int, dict[str, datetime]] = {}
        self._certain_alts: dict[int, dict[str, set[frozenset[str]]]] = {}
        self._time_index: dict[str, list[tuple[datetime, int]]] = {}
        # activity -> case id -> its open started events, oldest first; a
        # case leaves when its queue drains
        self._open_started: dict[str, dict[int, list[CorrelatedEventInstance]]] = {}
        self._next_case = 1

    def __len__(self) -> int:
        return len(self._instances) if self._keep else self._count

    def new_case_id(self) -> int:
        case_id = self._next_case
        self._next_case += 1
        if self._keep:
            self._cases[case_id] = []
        self._first_seen[case_id] = {}
        self._certain_alts[case_id] = {}
        return case_id

    def add(self, instance: CorrelatedEventInstance, anchorable: bool = True) -> None:
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
        self._last_touch[case_id] = ts
        if anchorable:
            self._first_seen[case_id].setdefault(instance.activity, ts)
            self._time_index.setdefault(instance.activity, []).append((ts, case_id))

    def retire_cases_before(self, cutoff: datetime) -> None:
        """Forget the per-case state of every case whose last instance is
        older than cutoff. Callers pick a cutoff past which no later event
        can reach a case; the case's kept instances stay.
        """
        stale = [case_id for case_id, last in self._last_touch.items() if last < cutoff]
        if not stale:
            return
        for case_id in stale:
            del self._last_touch[case_id]
            del self._first_seen[case_id]
            del self._certain_alts[case_id]
        for queues in self._open_started.values():
            if queues:
                for case_id in stale:
                    queues.pop(case_id, None)

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

    def occurrences_since(
        self, activity: str, lo: datetime, retire_before: datetime
    ) -> list[tuple[datetime, int]]:
        """(timestamp, case id) of each occurrence of activity from lo on, once
        those before retire_before have left the index for good. Timestamps
        only grow, so callers pass the earliest instant they can still reach.
        """
        entries = self._time_index.setdefault(activity, [])
        # (t,) sorts before every (t, case_id)
        del entries[:bisect_left(entries, (retire_before,))]
        return entries[bisect_left(entries, (lo,)):]

    def has_occurrence_at_or_before(self, case_id: int, activity: str, ts: datetime) -> bool:
        first = self._first_seen.get(case_id, _NOTHING).get(activity)
        return first is not None and first <= ts

    # started/completed pairing

    def push_open_started(self, instance: CorrelatedEventInstance) -> None:
        queues = self._open_started.setdefault(instance.activity, {})
        queues.setdefault(instance.case_id, []).append(instance)

    def peek_open_started(self, case_id: int, activity: str) -> CorrelatedEventInstance | None:
        queue = self._open_started.get(activity, {}).get(case_id)
        return queue[0] if queue else None

    def pop_open_started(self, case_id: int, activity: str) -> CorrelatedEventInstance | None:
        queues = self._open_started.get(activity, {})
        queue = queues.get(case_id)
        if queue is None:
            return None
        if len(queue) == 1:
            del queues[case_id]
        return queue.pop(0)

    def cases_with_open_started(self, activity: str) -> list[int]:
        return sorted(self._open_started.get(activity, ()))

    # confirmed dependency alternatives, for loop-repeat exclusion

    def register_certain(self, case_id: int, activity: str, dependency_sets) -> None:
        alts = self._certain_alts[case_id]
        spent = alts.get(activity)
        if spent is None:
            alts[activity] = set(dependency_sets)
        else:
            spent.update(dependency_sets)

    def certain_alternatives(self, case_id: int, activity: str) -> set[frozenset[str]] | frozenset:
        """The stored set itself, not a copy: callers only read it."""
        return self._certain_alts.get(case_id, _NOTHING).get(activity, frozenset())

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
