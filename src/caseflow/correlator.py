"""Assigns each arriving unlabeled event to one or more candidate cases.

Every way an event can extend a stored case is an allocation: the case, the
dependency alternative it satisfies there, the anchor occurrence that enabled
it, and the implied duration. The event is materialized once per candidate
case, and each instance carries a trust score aggregating the probabilities
of its allocations given how many allocations the event produced in total.
An event with no allocation at all is kept as noise.
"""

from __future__ import annotations

from datetime import timedelta

from .store import Allocation, CaseStore, CorrelatedEventInstance
from .streams import _ceil_seconds, floor_to_second

KIND_AVG = "avg"
KIND_RANGE = "range"

MODE_PAIRED = "paired"
MODE_COMPLETED = "completed"

# the plan of a windowless start activity, whose events only open cases
_OPENS_ONLY = (0, 0, 0, timedelta(0), ())


class CorrelationError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def instance_probability(m: int, kind: str, activity: str, table) -> float:
    """Probability that one allocation out of m is the true assignment.

    A lone allocation is certain. With competition, a duration equal to the
    activity's average is favored: it gets the whole average share plus an
    equal split of the residue, while each remaining window value shares its
    own slice among the competitors.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if m == 1:
        return 1.0
    if kind == KIND_AVG:
        return (m + 1) / (m * m)
    if kind == KIND_RANGE:
        mn, mx = table.window(activity)
        size = mx - mn  # the window's values besides the average, which lies in it
        if size == 0:
            raise CorrelationError(
                "DEGENERATE_RANGE",
                f"{activity}: window has no values besides the average",
            )
        return (m - 1 / size) / (m * m)
    raise ValueError(f"unknown allocation kind {kind!r}")


class Correlator:
    """Single-pass correlator over a timestamp-ordered event stream.

    The stream's first event fixes the mode: a `started` lifecycle selects
    paired operation, where started events are allocated through task
    dependencies and completions close their earliest open counterpart;
    anything else selects completions-only operation, where every event is
    allocated through task dependencies directly.

    As the stream advances, the store forgets the cases no later event can
    reach. With keep_instances false it also keeps no instance, so memory
    stays bounded by the cases still open.
    """

    def __init__(self, td, table, *, keep_instances: bool = True):
        self.td = td
        self.table = table
        self._require_windows(a for a in td.activities() if td.alternatives(a))
        # activity -> (min, max, average, max as a timedelta, alternatives),
        # each alternative (members, reusable); an alternative whose members
        # can all re-occur in a loop may be satisfied again, anything else is
        # spent once confirmed
        self._plan: dict[str, tuple] = {}
        for activity in td.activities():
            if activity not in table:
                self._plan[activity] = _OPENS_ONLY
                continue
            mn, mx = table.window(activity)
            alternatives = tuple(
                (dep_set, all(td.is_loop_entry(x) for x in dep_set))
                for dep_set in td.alternatives(activity)
            )
            self._plan[activity] = (mn, mx, table.avg(activity), timedelta(seconds=mx), alternatives)
        # nothing older than the widest window, plus the second an unfloored
        # timestamp can lie past its floor, can reach a later event
        reach = max((plan[1] for plan in self._plan.values()), default=0) + 1
        self.store = CaseStore(timedelta(seconds=reach), keep_instances=keep_instances)
        self._mode: str | None = None
        self._seq = 0
        self._last_ts = None

    @property
    def mode(self) -> str | None:
        return self._mode

    def ingest(self, event) -> list[CorrelatedEventInstance]:
        """Process one event, returning its stored instances by case order."""
        last = self._last_ts
        if last is not None:
            try:
                if event.timestamp < last:
                    raise CorrelationError(
                        "OUT_OF_ORDER", f"{event.timestamp} arrived after {last}"
                    )
            except TypeError:
                raise CorrelationError(
                    "MIXED_TIMEZONES",
                    f"{event.timestamp} cannot follow {last}: "
                    "naive and offset timestamps do not compare",
                ) from None
        self._last_ts = event.timestamp
        if self._mode is None:
            if event.lifecycle == "started":
                # completions pair with their start, so every window is read
                self._require_windows(self.td.activities())
                self._mode = MODE_PAIRED
            else:
                self._mode = MODE_COMPLETED

        seq = self._seq
        self._seq += 1

        plan = self._plan.get(event.activity)
        if plan is None:
            return [self._stash_noise(event, seq, "unknown-activity")]
        self._check_lifecycle(event)

        pairs = self._mode == MODE_PAIRED and event.lifecycle != "started"
        by_case: dict[int, list[Allocation]] = {}
        if not pairs and not plan[4]:
            # no alternatives: the event opens a case, its one allocation-free instance
            by_case[self.store.new_case_id()] = []
            m = 1
        else:
            search = self._pairing_allocations if pairs else self._dependency_allocations
            allocations = search(event, plan)
            if not allocations:
                return [self._stash_noise(event, seq, "no-allocation")]
            for alloc in allocations:
                by_case.setdefault(alloc.case_id, []).append(alloc)
            m = len(allocations)

        store = self.store
        instances = []
        for case_id in sorted(by_case):
            allocs = by_case[case_id]
            if len(allocs) > 1:
                allocs.sort(
                    key=lambda a: (a.anchor, a.duration, a.kind, tuple(sorted(a.dependency_set)))
                )
            raw = 100.0 if m == 1 else 100.0 * sum(
                instance_probability(m, a.kind, event.activity, self.table) for a in allocs
            )
            inst = CorrelatedEventInstance(
                timestamp=event.timestamp,
                activity=event.activity,
                case_id=case_id,
                trust=min(100.0, raw),
                lifecycle=event.lifecycle,
                resource=event.resource,
                allocations=tuple(allocs),
                raw_trust=raw,
                seq=seq,
            )
            instances.append(inst)
            store.add(inst)
        return instances

    def candidate_allocations(self, event) -> set[Allocation]:
        """Every allocation the event would produce against the current store.

        Pure query: the store is not changed. Events of activities without
        dependencies open fresh cases instead of allocating, so they yield
        nothing here.
        """
        plan = self._plan.get(event.activity)
        if plan is None:
            return set()
        if self._mode == MODE_PAIRED and event.lifecycle != "started":
            return self._pairing_allocations(event, plan)
        return self._dependency_allocations(event, plan)

    # internals

    def _require_windows(self, activities) -> None:
        missing = sorted(a for a in activities if a not in self.table)
        if missing:
            raise CorrelationError(
                "MISSING_HEURISTIC", f"no duration window for: {', '.join(missing)}"
            )

    def _stash_noise(self, event, seq: int, reason: str) -> CorrelatedEventInstance:
        inst = CorrelatedEventInstance(
            timestamp=event.timestamp,
            activity=event.activity,
            case_id=None,
            trust=None,
            lifecycle=event.lifecycle,
            resource=event.resource,
            noise_reason=reason,
            seq=seq,
        )
        self.store.add(inst)
        return inst

    def _check_lifecycle(self, event) -> None:
        if self._mode == MODE_COMPLETED:
            if event.lifecycle == "started":
                raise CorrelationError(
                    "MIXED_LIFECYCLE",
                    "stream opened without lifecycle pairing; started events not allowed",
                )
        elif event.lifecycle not in ("started", "completed"):
            raise CorrelationError(
                "MIXED_LIFECYCLE",
                f"paired stream needs started/completed lifecycles, got {event.lifecycle!r}",
            )

    def _dependency_allocations(self, event, plan) -> set[Allocation]:
        activity = event.activity
        ts0 = floor_to_second(event.timestamp)
        mn, _, avg, max_span, alternatives = plan
        # anchors from lo on lie at most max whole seconds before the event,
        # earlier ones more; anchors after the event fail the min check
        lo = ts0 - max_span
        store = self.store
        out: set[Allocation] = set()
        for dep_set, reusable in alternatives:
            # the anchor is an occurrence of some member, the other members
            # need only have occurred by then
            for member in dep_set:
                for anchor, case_id in store.occurrences_since(member, lo):
                    duration = _ceil_seconds(ts0 - anchor)
                    if duration < mn:
                        continue
                    if not reusable and dep_set in store.certain_alternatives(case_id, activity):
                        continue
                    if len(dep_set) > 1 and not all(
                        store.has_occurrence_at_or_before(case_id, x, anchor) for x in dep_set
                    ):
                        continue
                    out.add(
                        Allocation(
                            case_id=case_id,
                            dependency_set=dep_set,
                            anchor=anchor,
                            duration=duration,
                            kind=KIND_AVG if duration == avg else KIND_RANGE,
                        )
                    )
        return out

    def _pairing_allocations(self, event, plan) -> set[Allocation]:
        activity = event.activity
        ts0 = floor_to_second(event.timestamp)
        mn, mx, avg, _, _ = plan
        out: set[Allocation] = set()
        for case_id, starts in self.store.open_starts(activity).items():
            started = starts[0]
            duration = _ceil_seconds(ts0 - started)
            if mn <= duration <= mx:
                out.add(
                    Allocation(
                        case_id=case_id,
                        dependency_set=frozenset(),
                        anchor=started,
                        duration=duration,
                        kind=KIND_AVG if duration == avg else KIND_RANGE,
                    )
                )
        return out
