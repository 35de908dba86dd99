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
    """

    def __init__(self, td, table):
        missing = sorted(td.activities() - table.activities())
        if missing:
            raise CorrelationError(
                "MISSING_HEURISTIC", f"no duration window for: {', '.join(missing)}"
            )
        self.td = td
        self.table = table
        self.store = CaseStore()
        # how far back an occurrence of each member can still anchor: the
        # widest window among the activities it enables, plus the second an
        # unfloored event timestamp can lie past its floor
        self._horizon: dict[str, timedelta] = {}
        for activity in td.activities():
            reach = timedelta(seconds=table.window(activity)[1] + 1)
            for member in frozenset().union(*td.alternatives(activity)):
                self._horizon[member] = max(reach, self._horizon.get(member, reach))
        # activity -> (min, max, average, max as a timedelta, alternatives),
        # each alternative (members, ((member, horizon), ...), reusable); an
        # alternative whose members can all re-occur in a loop may be
        # satisfied again, anything else is spent once confirmed
        self._plan: dict[str, tuple] = {}
        for activity in td.activities():
            mn, mx = table.window(activity)
            alternatives = tuple(
                (dep_set, tuple((x, self._horizon[x]) for x in dep_set),
                 all(td.is_loop_entry(x) for x in dep_set))
                for dep_set in td.alternatives(activity)
            )
            self._plan[activity] = (mn, mx, table.avg(activity), timedelta(seconds=mx), alternatives)
        self._mode: str | None = None
        self._seq = 0
        self._last_ts = None

    @property
    def mode(self) -> str | None:
        return self._mode

    def ingest(self, event) -> list[CorrelatedEventInstance]:
        """Process one event, returning its stored instances by case order."""
        if self._last_ts is not None and event.timestamp < self._last_ts:
            raise CorrelationError(
                "OUT_OF_ORDER", f"{event.timestamp} arrived after {self._last_ts}"
            )
        self._last_ts = event.timestamp
        if self._mode is None:
            self._mode = MODE_PAIRED if event.lifecycle == "started" else MODE_COMPLETED

        seq = self._seq
        self._seq += 1

        plan = self._plan.get(event.activity)
        if plan is None:
            return [self._stash_noise(event, seq, "unknown-activity")]
        self._check_lifecycle(event)

        is_started = event.lifecycle == "started"
        pairs = self._mode == MODE_PAIRED and not is_started
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

        # only dependency members are ever looked up as anchors or members
        anchorable = not is_started and event.activity in self._horizon
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
            self.store.add(inst, anchorable=anchorable)
            if is_started:
                self.store.push_open_started(inst)
            elif pairs:
                self.store.pop_open_started(case_id, inst.activity)
            if inst.trust >= 100.0 - 1e-9:
                confirmed = {a.dependency_set for a in allocs if a.dependency_set}
                if confirmed:
                    self.store.register_certain(case_id, inst.activity, confirmed)
        return instances

    def candidate_allocations(self, event) -> set[Allocation]:
        """Every allocation the event would produce against the current store.

        Pure query: the store is not changed, except that index entries too
        old to anchor this or any later event are retired. Events of
        activities without dependencies open fresh cases instead of
        allocating, so they yield nothing here.
        """
        plan = self._plan.get(event.activity)
        if plan is None:
            return set()
        if self._mode == MODE_PAIRED and event.lifecycle != "started":
            return self._pairing_allocations(event, plan)
        return self._dependency_allocations(event, plan)

    # internals

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
        ts = event.timestamp
        ts0 = floor_to_second(ts)
        mn, _, avg, max_span, alternatives = plan
        # anchors from lo on lie at most max whole seconds before the event,
        # earlier ones more; anchors after the event fail the min check
        lo = ts0 - max_span
        store = self.store
        out: set[Allocation] = set()
        for dep_set, members, reusable in alternatives:
            # the anchor is an occurrence of some member, the other members
            # need only have occurred by then
            for member, horizon in members:
                for anchor, case_id in store.occurrences_since(member, lo, ts - horizon):
                    duration = _ceil_seconds(ts0 - anchor)
                    if duration < mn:
                        continue
                    if not reusable and dep_set in store.certain_alternatives(case_id, activity):
                        continue
                    if len(members) > 1 and not all(
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
        for case_id in self.store.cases_with_open_started(activity):
            started = self.store.peek_open_started(case_id, activity)
            duration = _ceil_seconds(ts0 - started.timestamp)
            if mn <= duration <= mx:
                out.add(
                    Allocation(
                        case_id=case_id,
                        dependency_set=frozenset(),
                        anchor=started.timestamp,
                        duration=duration,
                        kind=KIND_AVG if duration == avg else KIND_RANGE,
                    )
                )
        return out
