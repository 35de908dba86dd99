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
from .streams import floor_to_second, whole_seconds_between

KIND_AVG = "avg"
KIND_RANGE = "range"

MODE_PAIRED = "paired"
MODE_COMPLETED = "completed"

# the plan of a windowless start activity, whose events only open cases
_OPENS_ONLY = (0, 0, 0, timedelta(0), ())

# ingest builds its records as _new(record type, fields in declared order),
# which skips the named tuples' own __new__, written in Python
_new = tuple.__new__


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
        # activity -> (min, max, average, max as a timedelta, anchorings).
        # An anchoring is one member of a dependency alternative as the
        # anchor: (members, spend key, member, the other members). An
        # alternative whose members can all re-occur in a loop may be
        # satisfied again and has no spend key; anything else, once
        # confirmed, is spent for the anchors up to the one that confirmed
        # it, under the key (activity, members).
        self._plan: dict[str, tuple] = {}
        for activity in td.activities():
            if activity not in table:
                self._plan[activity] = _OPENS_ONLY
                continue
            mn, mx = table.window(activity)
            anchorings = tuple(
                (dep_set, None if all(map(td.is_loop_entry, dep_set)) else (activity, dep_set),
                 member, tuple(dep_set - {member}))
                for dep_set in td.alternatives(activity)
                for member in dep_set
            )
            self._plan[activity] = (mn, mx, table.avg(activity), timedelta(seconds=mx), anchorings)
        # a case's allocations through one anchor are ordered by their sorted
        # members; ranking every dependency set once spares sorting per event
        dep_sets = {frozenset()}.union(*(td.alternatives(a) for a in td.activities()))
        self._rank = {dep_set: i for i, dep_set in enumerate(sorted(dep_sets, key=sorted))}
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
        ts = event.timestamp
        last = self._last_ts
        if last is not None:
            try:
                if ts < last:
                    raise CorrelationError("OUT_OF_ORDER", f"{ts} arrived after {last}")
            except TypeError:
                raise CorrelationError(
                    "MIXED_TIMEZONES",
                    f"{ts} cannot follow {last}: naive and offset timestamps do not compare",
                ) from None
        self._last_ts = ts
        if self._mode is None:
            if event.lifecycle == "started":
                # completions pair with their start, so every window is read
                self._require_windows(self.td.activities())
                self._mode = MODE_PAIRED
            else:
                self._mode = MODE_COMPLETED

        seq = self._seq
        self._seq += 1

        activity = event.activity
        plan = self._plan.get(activity)
        if plan is None:
            return [self._stash_noise(event, seq, "unknown-activity")]
        self._check_lifecycle(event)

        store = self.store
        lifecycle = event.lifecycle
        if self._mode == MODE_PAIRED and lifecycle != "started":
            allocations = self._pairing_allocations(event, plan)
        elif plan[4]:
            allocations = self._dependency_allocations(event, plan)
        else:
            # no alternatives: the event opens a case, its one allocation-free instance
            inst = _new(CorrelatedEventInstance, (
                ts, activity, store.new_case_id(), 100.0, lifecycle, event.resource, (), 100.0, None, seq,
            ))
            store.add(inst)
            return [inst]
        m = len(allocations)
        if not m:
            return [self._stash_noise(event, seq, "no-allocation")]
        if m == 1:
            # a lone allocation is certain
            (alloc,) = allocations
            inst = _new(CorrelatedEventInstance, (
                ts, activity, alloc[0], 100.0, lifecycle, event.resource, (alloc,), 100.0, None, seq,
            ))
            store.add(inst)
            return [inst]

        # instance_probability of each kind, in its own expressions; a
        # zero-size window has no range allocation, as every duration in it
        # is the average
        mn, mx = plan[0], plan[1]
        probability = {KIND_AVG: (m + 1) / (m * m)}
        if mx > mn:
            probability[KIND_RANGE] = (m - 1 / (mx - mn)) / (m * m)
        by_case: dict[int, list[Allocation]] = {}
        for alloc in allocations:
            by_case.setdefault(alloc[0], []).append(alloc)
        rank = self._rank
        instances = []
        for case_id in sorted(by_case):
            allocs = by_case[case_id]
            if len(allocs) == 1:
                raw = 100.0 * probability[allocs[0][4]]
            else:
                # by anchor, then members: in one event and case, the anchor
                # decides the duration and the kind
                allocs.sort(key=lambda a: (a[2], rank[a[1]]))
                raw = 100.0 * sum([probability[a[4]] for a in allocs])
            inst = _new(CorrelatedEventInstance, (
                ts, activity, case_id, min(100.0, raw), lifecycle,
                event.resource, tuple(allocs), raw, None, seq,
            ))
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
        inst = _new(CorrelatedEventInstance, (
            event.timestamp, event.activity, None, None, event.lifecycle, event.resource, (), None,
            reason, seq,
        ))
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
        ts0 = floor_to_second(event.timestamp)
        mn, _, avg, max_span, anchorings = plan
        # anchors from lo on lie at most max whole seconds before the event,
        # earlier ones more; anchors after the event fail the min check
        lo = ts0 - max_span
        store = self.store
        cases = store.live_cases()
        # a set: same-instant occurrences of one member in one case index
        # the same (anchor, case) twice
        out: set[Allocation] = set()
        for dep_set, spend_key, member, others in anchorings:
            for anchor, case_id in store.occurrences_since(member, lo):
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
                    out.add(_new(Allocation, (
                        case_id, dep_set, anchor, duration, KIND_AVG if duration == avg else KIND_RANGE
                    )))
        return out

    def _pairing_allocations(self, event, plan) -> set[Allocation]:
        activity, ts = event.activity, event.timestamp
        mn, mx, avg, _, _ = plan
        out: set[Allocation] = set()
        for case_id, case in self.store.live_cases().items():
            starts = case.open.get(activity)
            if not starts:
                continue
            started = starts[0]
            duration = whole_seconds_between(started, ts)
            if mn <= duration <= mx:
                out.add(_new(Allocation, (
                    case_id, frozenset(), started, duration, KIND_AVG if duration == avg else KIND_RANGE
                )))
        return out
