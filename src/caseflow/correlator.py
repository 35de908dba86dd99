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
from .streams import floor_to_second

KIND_AVG = "avg"
KIND_RANGE = "range"

MODE_PAIRED = "paired"
MODE_COMPLETED = "completed"

# the plan of a windowless start activity, whose events only open cases
_OPENS_ONLY = (0, 0, 0, timedelta(0), ())
# the dependency set of every pairing allocation, one object for them all
_NO_MEMBERS = frozenset()

# ingest builds its records as _new(record type, fields in declared order),
# which skips the named tuples' own __new__, written in Python
_new = tuple.__new__


class CorrelationError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def kind_probabilities(m: int, mn: int, mx: int) -> dict[str, float]:
    """Probability that one of m > 1 competing allocations is the true
    assignment, by kind, for an activity whose window is mn..mx.

    A duration equal to the activity's average is favored: it gets the whole
    average share plus an equal split of the residue, while each remaining
    window value shares its own slice among the competitors. A zero-size
    window has no range kind, as every duration in it is the average.
    """
    probability = {KIND_AVG: (m + 1) / (m * m)}
    if mx > mn:  # mx - mn values besides the average, which lies in the window
        probability[KIND_RANGE] = (m - 1 / (mx - mn)) / (m * m)
    return probability


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
        # an event's allocations go by case, anchor, then sorted members;
        # ranking every dependency set once spares sorting members per event
        dep_sets = {_NO_MEMBERS}.union(*(td.alternatives(a) for a in td.activities()))
        rank = {dep_set: i for i, dep_set in enumerate(sorted(dep_sets, key=sorted))}
        self._order = lambda a: (a[0], a[2], rank[a[1]])
        # (activity, m) -> kind_probabilities of the activity's window
        self._probability: dict[tuple[str, int], dict[str, float]] = {}
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

        store = self.store
        lifecycle = event.lifecycle
        if self._mode == MODE_PAIRED and lifecycle != "started":
            if lifecycle != "completed":
                raise CorrelationError(
                    "MIXED_LIFECYCLE", f"paired stream needs started/completed lifecycles, got {lifecycle!r}")
            allocations = self._pairing_allocations(event, plan)
        elif lifecycle == "started" and self._mode == MODE_COMPLETED:
            raise CorrelationError(
                "MIXED_LIFECYCLE", "stream opened without lifecycle pairing; started events not allowed")
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

        probability = self._probability.get((activity, m))
        if probability is None:
            probability = self._probability[activity, m] = kind_probabilities(m, plan[0], plan[1])
        # one run per case, in case order; within a case by anchor, then
        # members: in one event and case, the anchor decides the duration and
        # the kind
        ordered = sorted(allocations, key=self._order)
        instances = []
        i = 0
        while i < m:
            case_id = ordered[i][0]
            j = i + 1
            while j < m and ordered[j][0] == case_id:
                j += 1
            allocs = tuple(ordered[i:j])
            if j == i + 1:
                # one of m > 1 allocations scores at most 75
                trust = raw = 100.0 * probability[allocs[0][4]]
            else:
                raw = 100.0 * sum([probability[a[4]] for a in allocs])
                trust = min(100.0, raw)
            inst = _new(CorrelatedEventInstance, (
                ts, activity, case_id, trust, lifecycle, event.resource, allocs, raw, None, seq,
            ))
            instances.append(inst)
            store.add(inst)
            i = j
        return instances

    def candidate_allocations(self, event) -> set[Allocation]:
        """Every allocation the event would produce against the current store.

        Pure query: the store is not changed. An event of an activity without
        dependencies opens a fresh case instead of allocating, so it yields
        nothing here, unless it is a completion in a paired stream: that
        pairs with its case's open start like any other completion.
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
        activity = event.activity
        ts0 = floor_to_second(event.timestamp)
        mn, mx, avg, _, _ = plan
        out: set[Allocation] = set()
        for case_id, case in self.store.live_cases().items():
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
