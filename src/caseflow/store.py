"""In-memory store of correlated event instances, one writer at a time.

The store keeps every materialized instance, the per-case views, and the
indexes the correlator queries while weighing candidate cases: a time index
of recent occurrences per activity (anchor lookups, retiring those too old
to anchor anything), the first occurrence per case and activity (member
checks), open started events awaiting their completion, and the dependency
alternatives already confirmed by a fully trusted instance.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime

from .streams import format_timestamp


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


class CaseStore:
    """Callers add instances in timestamp order; the store does not check it,
    and the time index and first-occurrence map are only right if they do.
    """

    def __init__(self):
        self._cases: dict[int, list[CorrelatedEventInstance]] = {}
        self._instances: list[CorrelatedEventInstance] = []
        self._noise: list[CorrelatedEventInstance] = []
        self._first_seen: dict[tuple[int, str], datetime] = {}
        self._time_index: dict[str, list[tuple[datetime, int]]] = {}
        # activity -> case id -> its open started events, oldest first; a
        # case leaves when its queue drains
        self._open_started: dict[str, dict[int, list[CorrelatedEventInstance]]] = {}
        self._certain_alts: dict[tuple[int, str], set[frozenset[str]]] = {}
        self._next_case = 1

    def __len__(self) -> int:
        return len(self._instances)

    def new_case_id(self) -> int:
        case_id = self._next_case
        self._next_case += 1
        self._cases[case_id] = []
        return case_id

    def add(self, instance: CorrelatedEventInstance, anchorable: bool = True) -> None:
        self._instances.append(instance)
        if instance.is_noise():
            self._noise.append(instance)
            return
        self._cases[instance.case_id].append(instance)
        if anchorable:
            self._first_seen.setdefault((instance.case_id, instance.activity), instance.timestamp)
            self._time_index.setdefault(instance.activity, []).append(
                (instance.timestamp, instance.case_id)
            )

    def case_ids(self) -> list[int]:
        return sorted(self._cases)

    def case_view(self, case_id: int) -> list[CorrelatedEventInstance]:
        return list(self._cases[case_id])

    def instances(self) -> list[CorrelatedEventInstance]:
        return list(self._instances)

    def noise(self) -> list[CorrelatedEventInstance]:
        return list(self._noise)

    def noise_count(self) -> int:
        return len(self._noise)

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
        first = self._first_seen.get((case_id, activity))
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
        bucket = self._certain_alts.setdefault((case_id, activity), set())
        bucket.update(dependency_sets)

    def certain_alternatives(self, case_id: int, activity: str) -> set[frozenset[str]] | frozenset:
        """The stored set itself, not a copy: callers only read it."""
        return self._certain_alts.get((case_id, activity), frozenset())

    def export_log(self, threshold: float = 0.0) -> str:
        """Render stored instances at or above the trust threshold as CSV.

        Noise rows, having no trust, survive only a zero threshold. Rows are
        ordered by timestamp, noise after proper instances at the same
        instant, then by case id.
        """
        selected = []
        for inst in self._instances:
            if inst.is_noise():
                if threshold <= 0:
                    selected.append(inst)
            elif inst.trust is not None and inst.trust >= threshold:
                selected.append(inst)
        selected.sort(
            key=lambda i: (i.timestamp, 1 if i.is_noise() else 0, i.case_id if i.case_id is not None else 0)
        )
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["case_id", "timestamp", "activity", "trust", "lifecycle", "resource"])
        for inst in selected:
            writer.writerow([
                "" if inst.case_id is None else inst.case_id,
                format_timestamp(inst.timestamp),
                inst.activity,
                "" if inst.trust is None else f"{inst.trust:.2f}",
                inst.lifecycle or "",
                inst.resource or "",
            ])
        return buffer.getvalue()
