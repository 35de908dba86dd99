"""Task-dependency derivation: the once-per-model preprocessing step.

For every observable activity this computes the alternative sets of
predecessor activities that must all have been seen in a case before the
activity itself may occur there, then flags the activities whose occurrence
may legitimately re-enable earlier work (loop entries).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import _reachable


class DependencyError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class TaskDependencies:
    """Mapping activity -> alternatives, where each alternative is a set of
    activities that jointly enable it. Start activities have no alternatives.
    """

    deps: dict[str, frozenset[frozenset[str]]]
    loop_entries: frozenset[str]

    def activities(self) -> frozenset[str]:
        return frozenset(self.deps)

    def alternatives(self, activity: str) -> frozenset[frozenset[str]]:
        try:
            return self.deps[activity]
        except KeyError:
            raise DependencyError("UNKNOWN_ACTIVITY", f"no activity {activity!r}") from None

    def is_loop_entry(self, activity: str) -> bool:
        return activity in self.loop_entries

    def to_json_dict(self) -> dict:
        deps = {
            a: sorted(sorted(s) for s in alts)
            for a, alts in sorted(self.deps.items())
        }
        return {"deps": deps, "loop_entries": sorted(self.loop_entries)}


def non_cartesian_product(families) -> set[frozenset[str]]:
    """All sets formed by choosing one element from each family.

    Unlike the plain Cartesian product the choices are collapsed into sets,
    so picking the same element twice or in a different order does not
    produce a new result.
    """
    families = list(families)
    for fam in families:
        if not fam:
            raise DependencyError("EMPTY_PRODUCER", "a synchronizing place has no producer")
    return {frozenset(choice) for choice in itertools.product(*families)}


def build_raw_dependencies(net) -> dict[str, set[frozenset[str]]]:
    """Per-transition alternatives over transition ids, silents included.

    One input place: each producer of that place is its own alternative
    (exclusive choice). Several input places: the alternatives are the
    non-Cartesian product across the producers of each place (the transition
    synchronizes on all of them). A transition fed only by the source place
    gets no alternatives and acts as a start.
    """
    raw: dict[str, set[frozenset[str]]] = {}
    for t in net.transitions:
        pre_places = sorted(net.preset(t.tid))
        if len(pre_places) == 1:
            raw[t.tid] = {frozenset({x}) for x in net.preset(pre_places[0])}
        elif len(pre_places) > 1:
            raw[t.tid] = non_cartesian_product([net.preset(p) for p in pre_places])
        else:
            raise DependencyError("EMPTY_PRESET", f"transition {t.tid!r} has no input place")
    return raw


def eliminate_silent(raw: dict[str, set[frozenset[str]]], is_silent) -> dict[str, set[frozenset[str]]]:
    """Replace silent members of dependency-sets by the silents' own
    dependencies, one resulting set per alternative, until none remain.

    Chains of silent transitions are resolved to a fixpoint. A cycle among
    silent transitions, or a silent with no dependencies of its own sitting
    inside a dependency-set, leaves the dependency unresolvable and raises.
    """
    resolved: dict[str, frozenset[frozenset[str]]] = {}
    in_progress: set[str] = set()

    def silent_alternatives(x):
        if x in resolved:
            return resolved[x]
        if x in in_progress:
            raise DependencyError("SILENT_CYCLE", f"silent transition {x!r} depends on itself")
        alts = raw.get(x)
        if not alts:
            raise DependencyError(
                "SILENT_EMPTY_DEPS",
                f"silent transition {x!r} has no dependencies to substitute",
            )
        in_progress.add(x)
        out = set()
        for s in alts:
            out |= expand(s)
        in_progress.discard(x)
        resolved[x] = frozenset(out)
        return resolved[x]

    def expand(members):
        silents = sorted(x for x in members if is_silent(x))
        if not silents:
            return {frozenset(members)}
        x = silents[0]
        rest = frozenset(members) - {x}
        out = set()
        for alt in silent_alternatives(x):
            out |= expand(rest | alt)
        return out

    result: dict[str, set[frozenset[str]]] = {}
    for t, alts in raw.items():
        if is_silent(t):
            continue
        out = set()
        for s in alts:
            out |= expand(s)
        result[t] = out
    return result


def find_loop_entries(td: TaskDependencies) -> frozenset[str]:
    """Dependency activities whose firing can re-enable an earlier activity.

    An activity x is a loop entry when some activity t with at least two
    alternatives lists x in one of them and the dependency edge x -> t lies
    on a cycle. Since the edge exists, that is exactly when t reaches x
    again along dependency edges (x == t counts).
    """
    enables: dict[str, set[str]] = {}
    for t, alts in td.deps.items():
        for s in alts:
            for x in s:
                enables.setdefault(x, set()).add(t)

    entries = set()
    for t, alts in td.deps.items():
        if len(alts) < 2:
            continue
        reached = _reachable([t], lambda node: enables.get(node, ()))
        entries.update(x for s in alts for x in s if x in reached)
    return frozenset(entries)


def build_task_dependencies(net) -> TaskDependencies:
    """Derive TaskDependencies for a structurally valid workflow net.

    Start activities (those fed only by the source place) cannot re-occur
    within a case: a valid workflow net never re-marks its source place, so
    every occurrence of a start activity legitimately opens a fresh case.
    """
    raw = build_raw_dependencies(net)
    observable = eliminate_silent(raw, net.is_silent)
    deps = {
        net.label_of(tid): frozenset(frozenset(net.label_of(x) for x in s) for s in alts)
        for tid, alts in observable.items()
    }
    td = TaskDependencies(deps=deps, loop_entries=frozenset())
    return TaskDependencies(deps=deps, loop_entries=find_loop_entries(td))
