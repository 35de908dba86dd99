"""Assigns each arriving unlabeled event to one or more candidate cases.

Every way an event can extend a stored case is an allocation: the case, the
dependency alternative it satisfies there, the anchor occurrence that enabled
it, and the implied duration. The store's two searches find them over its
own records; this module compiles the model into what they take, checks each
event's order, mode and lifecycle, and scores. The event is materialized once
per candidate case, and each instance carries a trust score aggregating the
probabilities of its allocations given how many allocations the event
produced in total. An event with no allocation at all is kept as noise.
"""

from __future__ import annotations

from collections.abc import Set
from datetime import timedelta
from itertools import groupby
from operator import itemgetter

from .errors import CaseflowError
from .store import KIND_AVG, KIND_RANGE, Allocation, CaseStore, CorrelatedEventInstance

MODE_PAIRED = "paired"
MODE_COMPLETED = "completed"

# the plan of a windowless start activity, whose events only open cases
_OPENS_ONLY = (0, 0, 0, timedelta(0), ())

# ingest builds its records as _new(record type, fields in declared order),
# which skips the named tuples' own __new__, written in Python
_new = tuple.__new__

# ingest sorts an event's allocations by case, then anchor; the sort is
# stable, so allocations that share both keep the search's order, by their
# sorted members
_case_and_anchor = itemgetter(0, 2)
_case = itemgetter(0)


class CorrelationError(CaseflowError):
    """An event the correlator cannot take, or windows that miss a modeled activity."""


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
        # anchor: (members, spend key, member, the other members), by the
        # alternative's sorted members, the order the search keeps. An
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
                for dep_set in sorted(td.alternatives(activity), key=sorted)
                for member in dep_set
            )
            self._plan[activity] = (mn, mx, table.avg(activity), timedelta(seconds=mx), anchorings)
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
        """Process one event, returning its stored instances by case order. One it rejects
        changes nothing: no check faults a first event, so only the mode is set before them."""
        # unpacked once, as a named tuple's field reads cost more than locals
        ts, activity, lifecycle, resource, _ = event
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
        if self._mode is None:
            if lifecycle == "started":
                # completions pair with their start, so every window is read
                self._require_windows(self.td.activities())
                self._mode = MODE_PAIRED
            else:
                self._mode = MODE_COMPLETED
        paired_completion = self._mode == MODE_PAIRED and lifecycle != "started"
        plan = self._plan.get(activity)
        if plan is not None:
            if paired_completion and lifecycle != "completed":
                raise CorrelationError("MIXED_LIFECYCLE", f"paired stream needs started/completed "
                                       f"lifecycles, got {lifecycle!r} for {activity} at {ts}")
            if lifecycle == "started" and self._mode == MODE_COMPLETED:
                raise CorrelationError("MIXED_LIFECYCLE", f"stream opened without lifecycle pairing; "
                                       f"started events not allowed, got {activity} at {ts}")
        self._last_ts = ts
        seq = self._seq
        self._seq += 1
        if plan is None:
            return [self._stash_noise(event, seq, "unknown-activity")]

        store = self.store
        mn, mx, avg, max_span, anchorings = plan
        if paired_completion:
            allocations = store.pairing_allocations(ts, activity, mn, mx, avg)
        elif anchorings:
            allocations = store.dependency_allocations(ts, mn, avg, max_span, anchorings)
        else:
            # no alternatives: the event opens a case, its one allocation-free instance
            inst = _new(CorrelatedEventInstance, (
                ts, activity, store.new_case_id(), 100.0, lifecycle, resource, (), 100.0, None, seq,
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
                ts, activity, alloc[0], 100.0, lifecycle, resource, (alloc,), 100.0, None, seq,
            ))
            store.add(inst)
            return [inst]

        probability = self._probability.get((activity, m))
        if probability is None:
            probability = self._probability[activity, m] = kind_probabilities(m, mn, mx)
        # one run per case, in case order; within a case by anchor, then
        # members: in one event and case, the anchor decides the duration and
        # the kind
        instances = []
        for case_id, run in groupby(sorted(allocations, key=_case_and_anchor), _case):
            allocs = tuple(run)
            if len(allocs) == 1:
                # one of m > 1 allocations scores at most 75
                trust = raw = 100.0 * probability[allocs[0][4]]
            else:
                raw = 0.0
                for a in allocs:  # left to right: from Python 3.12, sum() rounds otherwise
                    raw += probability[a[4]]
                raw *= 100.0
                trust = min(100.0, raw)
            inst = _new(CorrelatedEventInstance, (
                ts, activity, case_id, trust, lifecycle, resource, allocs, raw, None, seq,
            ))
            instances.append(inst)
            store.add(inst)
        return instances

    def candidate_allocations(self, event) -> Set[Allocation]:
        """Every allocation the event would produce against the current store, as
        a set-like view in the search's order, or a set for a paired completion.

        Pure query: the store is not changed. An event of an activity without
        dependencies opens a fresh case instead of allocating, so it yields
        nothing here, unless it is a completion in a paired stream: that
        pairs with its case's open start like any other completion.
        """
        plan = self._plan.get(event.activity)
        if plan is None:
            return set()
        mn, mx, avg, max_span, anchorings = plan
        if self._mode == MODE_PAIRED and event.lifecycle != "started":
            return self.store.pairing_allocations(event.timestamp, event.activity, mn, mx, avg)
        return self.store.dependency_allocations(event.timestamp, mn, avg, max_span, anchorings)

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
