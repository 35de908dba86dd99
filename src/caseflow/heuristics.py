"""Per-activity duration heuristics: the (min, max) execution windows.

A window says how long an activity takes from the moment it became possible
to the moment it is recorded, in whole seconds. The average duration and the
remaining range are derived values used when weighing candidate cases.
"""

from __future__ import annotations

import csv
import io
import warnings

from .streams import whole_seconds_between


class HeuristicError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


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

    def __len__(self) -> int:
        return len(self._entries)

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
    """Parse `activity,min,max` CSV. Empty input yields an empty table."""
    if not text.strip():
        return HeuristicTable({})
    reader = csv.DictReader(io.StringIO(text))
    missing = {"activity", "min", "max"} - set(reader.fieldnames or ())
    if missing:
        raise HeuristicError("MISSING_COLUMN", f"missing column(s) {sorted(missing)}")
    entries: dict[str, tuple[int, int]] = {}
    for i, row in enumerate(reader):
        activity = (row.get("activity") or "").strip()
        try:
            mn = int((row.get("min") or "").strip())
            mx = int((row.get("max") or "").strip())
        except ValueError:
            raise HeuristicError("MALFORMED_ROW", f"row {i + 2}: min/max must be integers") from None
        if not activity:
            raise HeuristicError("MALFORMED_ROW", f"row {i + 2}: empty activity")
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
    case. Durations that are not positive are dropped with a warning, as are
    events without a case id.
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
                    prior = [t for t in history.get(member, ()) if t < ev.timestamp]
                    if not prior:
                        break
                    latest.append(prior[-1])
                else:
                    anchors.append(max(latest))
            if anchors:
                record(ev.activity, whole_seconds_between(max(anchors), ev.timestamp))
            history.setdefault(ev.activity, []).append(ev.timestamp)

    return HeuristicTable({a: (min(ds), max(ds)) for a, ds in durations.items()})
