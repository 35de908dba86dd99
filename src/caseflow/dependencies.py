"""Task-dependency derivation: the once-per-model preprocessing step.

For every observable activity this computes the alternative sets of
predecessor activities that must all have been seen in a case before the
activity itself may occur there, then flags the activities whose occurrence
may legitimately re-enable earlier work (loop entries).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import CaseflowError
from .model import _reachable


class DependencyError(CaseflowError, ValueError):
    """A net whose task dependencies cannot be derived, or an unknown activity."""


class TaskDependencies(NamedTuple):
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
        resolved[x] = frozenset(expand(alts))
        in_progress.discard(x)
        return resolved[x]

    def expand(alternatives):
        # an alternative's observable members joined with each pick of its silents' alternatives
        out = set()
        for s in alternatives:
            silents = sorted(filter(is_silent, s))
            if not silents:
                out.add(frozenset(s))
                continue
            kept = s.difference(silents)
            for pick in itertools.product(*map(silent_alternatives, silents)):
                out.add(kept.union(*pick))
        return out

    return {t: expand(alts) for t, alts in raw.items() if not is_silent(t)}


def find_loop_entries(deps: dict[str, frozenset[frozenset[str]]]) -> frozenset[str]:
    """Dependency activities whose firing can re-enable an earlier activity.

    An activity x is a loop entry when some activity t with at least two
    alternatives lists x in one of them and the dependency edge x -> t lies
    on a cycle. Since the edge exists, that is exactly when t reaches x
    again along dependency edges (x == t counts).
    """
    enables: dict[str, set[str]] = {t: set() for t in deps}
    for t, alts in deps.items():
        for s in alts:
            for x in s:
                enables.setdefault(x, set()).add(t)

    entries = set()
    for t, alts in deps.items():
        if len(alts) < 2:
            continue
        reached = _reachable([t], enables.__getitem__)  # each node reached is a key of deps
        entries.update(x for s in alts for x in s if x in reached)
    return frozenset(entries)


def build_task_dependencies(net) -> TaskDependencies:
    """Derive TaskDependencies for a structurally valid workflow net.

    Start activities (those fed only by the source place) cannot re-occur
    within a case: a valid workflow net never re-marks its source place, so
    every occurrence of a start activity legitimately opens a fresh case.
    """
    raw = build_raw_dependencies(net)
    labels = {t.tid: t.label for t in net.transitions}
    silent = {t.tid for t in net.transitions if t.silent}
    observable = eliminate_silent(raw, silent.__contains__)
    deps = {
        labels[tid]: frozenset(frozenset(map(labels.__getitem__, s)) for s in alts)
        for tid, alts in observable.items()
    }
    return TaskDependencies(deps=deps, loop_entries=find_loop_entries(deps))
