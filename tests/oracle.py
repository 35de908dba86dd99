"""Independent re-implementations used to cross-check the engine.

Deliberately naive: allocations are found by enumerating every combination
of stored member occurrences per case (a raw product scan over case views),
and trust is recomputed with exact fractions. Spent alternatives and open
starts are derived from the case views too, not read from the store's own
records. The case views come from one read of the store's instances per
call, grouped by case id in store order. Nothing here shares code with the
package's own anchor enumeration.
"""

from fractions import Fraction
from itertools import product

from caseflow.correlator import KIND_AVG, KIND_RANGE
from caseflow.store import Allocation
from caseflow.streams import whole_seconds_between


def _case_views(store) -> dict:
    """case id -> the case's instances in store order, from one instances() read."""
    views: dict[int, list] = {}
    for inst in store.instances():
        if not inst.is_noise():
            views.setdefault(inst.case_id, []).append(inst)
    return views


def brute_force_allocations(correlator, event):
    """All allocations for event, by exhaustive product over case views."""
    td, table, store = correlator.td, correlator.table, correlator.store
    if event.activity not in td.activities():
        return set()
    if correlator.mode == "paired" and event.lifecycle != "started":
        return _brute_force_pairings(correlator, event)

    mn, mx = table.window(event.activity)
    avg = table.avg(event.activity)
    out = set()
    for case_id, view in _case_views(store).items():
        occurrences: dict[str, list] = {}
        # a fully trusted instance of the activity spends the sets it used,
        # for every anchor up to the latest anchor that confirmed each
        spent_until: dict = {}
        for inst in view:
            if inst.activity == event.activity and inst.trust >= 100 - 1e-9:
                for a in inst.allocations:
                    spent_until[a.dependency_set] = max(
                        a.anchor, spent_until.get(a.dependency_set, a.anchor)
                    )
            if correlator.mode == "paired" and inst.lifecycle == "started":
                continue
            occurrences.setdefault(inst.activity, []).append(inst.timestamp)
        for dep_set in td.alternatives(event.activity):
            members = sorted(dep_set)
            if any(x not in occurrences for x in members):
                continue
            reusable = all(td.is_loop_entry(x) for x in members)
            until = None if reusable else spent_until.get(dep_set)
            for choice in product(*(occurrences[x] for x in members)):
                anchor = max(choice)
                if until is not None and anchor <= until:
                    continue
                duration = whole_seconds_between(anchor, event.timestamp)
                if mn <= duration <= mx:
                    out.add(Allocation(
                        case_id=case_id,
                        dependency_set=dep_set,
                        anchor=anchor,
                        duration=duration,
                        kind=KIND_AVG if duration == avg else KIND_RANGE,
                    ))
    return out


def _brute_force_pairings(correlator, event):
    table, store = correlator.table, correlator.store
    mn, mx = table.window(event.activity)
    avg = table.avg(event.activity)
    out = set()
    for case_id, view in _case_views(store).items():
        # each completion closed one start, oldest first, so the open one is
        # the start after as many as the case has completions
        same = [i for i in view if i.activity == event.activity]
        starts = [i.timestamp for i in same if i.lifecycle == "started"]
        closed = len(same) - len(starts)
        if closed >= len(starts):
            continue
        started = starts[closed]
        duration = whole_seconds_between(started, event.timestamp)
        if mn <= duration <= mx:
            out.add(Allocation(
                case_id=case_id,
                dependency_set=frozenset(),
                anchor=started,
                duration=duration,
                kind=KIND_AVG if duration == avg else KIND_RANGE,
            ))
    return out


def probability_fraction(m: int, kind: str, activity: str, table) -> Fraction:
    if m == 1:
        return Fraction(1)
    if kind == KIND_AVG:
        return Fraction(m + 1, m * m)
    mn, mx = table.window(activity)
    # the window's values besides the average, counted from the window
    # itself rather than taken as the engine's mx - mn
    r = len(set(range(mn, mx + 1)) - {table.avg(activity)})
    return Fraction(m * r - 1, r * m * m)


def expected_trusts(allocations, activity, table) -> dict[int, Fraction]:
    """Per-case trust implied by a set of allocations, exact arithmetic."""
    m = len(allocations)
    trusts: dict[int, Fraction] = {}
    for alloc in allocations:
        p = probability_fraction(m, alloc.kind, activity, table)
        trusts[alloc.case_id] = trusts.get(alloc.case_id, Fraction(0)) + p
    return {c: min(Fraction(100), 100 * t) for c, t in trusts.items()}
