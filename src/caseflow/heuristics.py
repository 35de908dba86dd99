"""Per-activity duration heuristics: the (min, max) execution windows.

A window says how long an activity takes from the moment it became possible
to the moment it is recorded, in whole seconds. The average duration and the
remaining range are derived values used when weighing candidate cases.
"""

from __future__ import annotations

import csv
import io
import warnings
from bisect import bisect_left

from .errors import CaseflowError
from .streams import _csv_rows, whole_seconds_between


class HeuristicError(CaseflowError, ValueError):
    """A duration window that cannot be accepted, loaded or measured."""


class HeuristicTable:
    """Validated activity -> (min, max) duration windows, seconds, inclusive."""

    def __init__(self, entries: dict[str, tuple[int, int]]):
        self._entries: dict[str, tuple[int, int]] = {}
        for activity, (mn, mx) in entries.items():
            if not (isinstance(mn, int) and isinstance(mx, int)):
                raise HeuristicError("NON_INTEGER", f"{activity}: durations must be whole seconds")
            if mn <= 0:
                raise HeuristicError("NONPOSITIVE", f"{activity}: min must be positive, got {mn}")
            if mn > mx:
                raise HeuristicError("MIN_GT_MAX", f"{activity}: min {mn} exceeds max {mx}")
            self._entries[activity] = (mn, mx)

    def __contains__(self, activity: str) -> bool:
        return activity in self._entries

    def activities(self) -> frozenset[str]:
        return frozenset(self._entries)

    def items(self):
        return self._entries.items()

    def window(self, activity: str) -> tuple[int, int]:
        try:
            return self._entries[activity]
        except KeyError:
            raise HeuristicError("UNKNOWN_ACTIVITY", f"no heuristic for {activity!r}") from None

    def avg(self, activity: str) -> int:
        mn, mx = self.window(activity)
        return (mn + mx + 1) // 2


def load_heuristics(text: str) -> HeuristicTable:
    """Parse `activity,min,max` CSV. Input of only blank lines yields an empty table."""
    entries: dict[str, tuple[int, int]] = {}
    columns = ("activity", "min", "max")
    rows = _csv_rows(io.StringIO(text), columns, set(columns), HeuristicError, "MALFORMED_ROW")
    for line, (activity, mn, mx) in rows:
        try:
            mn, mx = int(mn.strip()), int(mx.strip())
        except (AttributeError, ValueError):  # AttributeError: a short row's missing cell, None
            raise HeuristicError("MALFORMED_ROW", f"row {line}: min/max must be integers") from None
        if not (activity and (activity := activity.strip())):
            raise HeuristicError("MALFORMED_ROW", f"row {line}: empty activity")
        if activity in entries:
            raise HeuristicError("DUPLICATE_ACTIVITY", f"{activity} appears twice")
        entries[activity] = (mn, mx)
    return HeuristicTable(entries)


def save_heuristics(table: HeuristicTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["activity", "min", "max"])
    for activity in sorted(table.activities()):
        mn, mx = table.window(activity)
        writer.writerow([activity, mn, mx])
    return buffer.getvalue()


def extract_heuristics(events, td=None) -> HeuristicTable:
    """Measure duration windows from a stream that already carries case ids.

    With start/complete lifecycle pairs the duration of an activity is simply
    completed minus started, matched first-in-first-out per case. A
    completions-only log needs the task dependencies instead: each occurrence
    is timed from the latest moment its dependencies were satisfied in that
    case. Durations that are not positive are dropped with a warning; events
    without a case id are skipped silently.
    """
    events = sorted(events, key=lambda e: e.timestamp)
    if not events:
        return HeuristicTable({})
    paired = any(ev.lifecycle == "started" for ev in events)
    durations: dict[str, list[int]] = {}

    def record(activity: str, seconds: int) -> None:
        if seconds <= 0:
            warnings.warn(
                f"dropping non-positive duration {seconds}s for {activity}",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        durations.setdefault(activity, []).append(seconds)

    if paired:
        open_started: dict[tuple, list] = {}
        for ev in events:
            if ev.case_id is None:
                continue
            key = (ev.case_id, ev.activity)
            if ev.lifecycle == "started":
                open_started.setdefault(key, []).append(ev.timestamp)
            else:
                queue = open_started.get(key)
                if not queue:
                    warnings.warn(
                        f"completion of {ev.activity} without a matching start; skipped",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                record(ev.activity, whole_seconds_between(queue.pop(0), ev.timestamp))
    else:
        if td is None:
            raise HeuristicError(
                "MISSING_TD",
                "a completions-only stream needs task dependencies to measure durations",
            )
        seen: dict[tuple, dict[str, list]] = {}
        known = td.activities()
        for ev in events:
            if ev.case_id is None:
                continue
            if ev.activity not in known:
                warnings.warn(f"unknown activity {ev.activity!r}; skipped", RuntimeWarning, stacklevel=2)
                continue
            history = seen.setdefault(ev.case_id, {})
            anchors = []
            for alternative in td.alternatives(ev.activity):
                latest = []
                for member in alternative:
                    # each member's times are in order, as the events are
                    times = history.get(member, ())
                    i = bisect_left(times, ev.timestamp)  # times[:i] are strictly before
                    if not i:
                        break
                    latest.append(times[i - 1])
                else:
                    anchors.append(max(latest))
            if anchors:
                record(ev.activity, whole_seconds_between(max(anchors), ev.timestamp))
            history.setdefault(ev.activity, []).append(ev.timestamp)

    return HeuristicTable({a: (min(ds), max(ds)) for a, ds in durations.items()})
