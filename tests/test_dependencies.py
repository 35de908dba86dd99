"""Dependency derivation: alternatives, silent elimination, loop entries."""

import random

import pytest

from caseflow import DependencyError, build_task_dependencies
from caseflow.dependencies import (
    TaskDependencies,
    build_raw_dependencies,
    eliminate_silent,
    find_loop_entries,
    non_cartesian_product,
)
from caseflow.model import parse_simple_net


def fs(*xs):
    return frozenset(xs)


def test_non_cartesian_product_collapses_duplicate_choices():
    out = non_cartesian_product([{"x", "y"}, {"x"}])
    assert out == {fs("x"), fs("x", "y")}


def test_non_cartesian_product_single_family():
    assert non_cartesian_product([{"a", "b"}]) == {fs("a"), fs("b")}


def test_non_cartesian_product_rejects_empty_family():
    with pytest.raises(DependencyError) as err:
        non_cartesian_product([{"a"}, set()])
    assert err.value.code == "EMPTY_PRODUCER"


def test_raw_dependencies_distinguish_choice_and_synchronization():
    # one input place with two producers: exclusive alternatives
    # two input places: one alternative synchronizing on both producers
    net = parse_simple_net(
        """
        place p0
        place p1
        place p2
        place p3
        place p4
        transition ta A
        transition tb B
        transition tc C
        transition td D
        arc p0 ta
        arc ta p1
        arc ta p2
        arc p1 tb
        arc p2 tc
        arc tb p3
        arc tc p3
        arc tb p4
        arc p3 td
        arc p4 td
        """
    )
    raw = build_raw_dependencies(net)
    assert raw["ta"] == set()
    assert raw["tb"] == {fs("ta")}
    assert raw["td"] == {fs("tb"), fs("tb", "tc")}


def test_raw_dependencies_require_an_input_place():
    net = parse_simple_net("place p0\ntransition tx X\narc tx p0")
    with pytest.raises(DependencyError) as err:
        build_raw_dependencies(net)
    assert err.value.code == "EMPTY_PRESET"


def test_synchronizing_on_a_producerless_place_is_an_error():
    net = parse_simple_net(
        """
        place p0
        place pa
        place pb
        place p1
        transition tz Z
        transition tand W
        arc p0 tz
        arc tz pa
        arc pa tand
        arc pb tand
        arc tand p1
        """
    )
    with pytest.raises(DependencyError) as err:
        build_raw_dependencies(net)
    assert err.value.code == "EMPTY_PRODUCER"


def silent_prefix(x):
    return x.startswith("s")


def test_eliminate_silent_substitutes_alternatives():
    raw = {
        "x": {fs("s1")},
        "s1": {fs("a"), fs("b")},
        "a": set(),
        "b": set(),
    }
    out = eliminate_silent(raw, silent_prefix)
    assert out["x"] == {fs("a"), fs("b")}
    assert "s1" not in out


def test_eliminate_silent_resolves_chains_and_mixed_sets():
    raw = {
        "x": {fs("s1", "c")},
        "y": {fs("s2", "s3", "e")},
        "s1": {fs("s2")},
        "s2": {fs("a"), fs("b")},
        "s3": {fs("c"), fs("d")},
        "a": set(),
        "b": set(),
        "c": set(),
        "d": set(),
        "e": set(),
    }
    out = eliminate_silent(raw, silent_prefix)
    assert out["x"] == {fs("a", "c"), fs("b", "c")}
    # every pick of one alternative per silent member
    assert out["y"] == {fs("a", "c", "e"), fs("a", "d", "e"), fs("b", "c", "e"), fs("b", "d", "e")}


def test_eliminate_silent_detects_cycles():
    raw = {
        "x": {fs("s1")},
        "s1": {fs("s2")},
        "s2": {fs("s1")},
    }
    with pytest.raises(DependencyError) as err:
        eliminate_silent(raw, silent_prefix)
    assert err.value.code == "SILENT_CYCLE"


def test_eliminate_silent_rejects_silent_without_dependencies():
    raw = {"x": {fs("s1")}, "s1": set()}
    with pytest.raises(DependencyError) as err:
        eliminate_silent(raw, silent_prefix)
    assert err.value.code == "SILENT_EMPTY_DEPS"


def test_alternatives_unknown_activity():
    td = TaskDependencies(deps={"A": frozenset()}, loop_entries=frozenset())
    with pytest.raises(DependencyError) as err:
        td.alternatives("Z")
    assert err.value.code == "UNKNOWN_ACTIVITY"


def test_loop_entries_empty_for_acyclic_model():
    deps = {
        "A": frozenset(),
        "B": fs(fs("A")),
        "C": fs(fs("A"), fs("B")),
    }
    assert find_loop_entries(deps) == frozenset()


def test_loop_entry_requires_at_least_two_alternatives():
    # B -> C -> B is a cycle, but C is the only alternative of B, so a
    # repeated C cannot be explained as a loop re-entry.
    deps = {
        "A": frozenset(),
        "B": fs(fs("C")),
        "C": fs(fs("A"), fs("B")),
    }
    assert find_loop_entries(deps) == {"B"}


def test_loop_entries_match_a_transitive_closure_on_random_maps():
    # reference: close the x -> t edges (x in an alternative of t) and mark
    # x when it is in one of at least two alternatives of t and t and x
    # reach each other
    rng = random.Random(2020)
    for _ in range(2000):
        names = [f"a{i}" for i in range(rng.randint(1, 12))]
        deps = {
            t: frozenset(
                frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))
                for _ in range(rng.randint(0, 3))
            )
            for t in names
        }
        reach = {(x, t) for t, alts in deps.items() for s in alts for x in s}
        for k in names:
            for i in names:
                for j in names:
                    if (i, k) in reach and (k, j) in reach:
                        reach.add((i, j))
        expected = {
            x
            for t, alts in deps.items() if len(alts) >= 2
            for s in alts for x in s
            if x == t or ((x, t) in reach and (t, x) in reach)
        }
        assert find_loop_entries(deps) == expected, deps


def test_clinic_dependencies(clinic_td):
    expected = {
        "A": frozenset(),
        "B": fs(fs("A"), fs("N")),
        "C": fs(fs("B")),
        "D": fs(fs("B")),
        "E": fs(fs("D"), fs("H")),
        "F": fs(fs("E")),
        "G": fs(fs("E")),
        "H": fs(fs("F")),
        "I": fs(fs("C")),
        "J": fs(fs("C")),
        "L": fs(fs("G"), fs("I", "J")),
        "M": fs(fs("L")),
        "N": fs(fs("L")),
    }
    assert dict(clinic_td.deps) == expected
    assert clinic_td.loop_entries == {"D", "G", "H", "I", "J", "N"}


def test_to_json_dict_is_sorted_and_plain(clinic_td):
    doc = clinic_td.to_json_dict()
    assert list(doc["deps"]) == sorted(doc["deps"])
    assert doc["deps"]["L"] == [["G"], ["I", "J"]]
    assert doc["deps"]["A"] == []
    assert doc["loop_entries"] == ["D", "G", "H", "I", "J", "N"]


def test_silent_elimination_spans_branches_of_the_clinic_net(clinic_net):
    td = build_task_dependencies(clinic_net)
    # the synchronizing silent step between I/J and L disappears, leaving
    # the joint alternative on L itself
    assert fs("I", "J") in td.alternatives("L")
    for alts in td.deps.values():
        for s in alts:
            assert "tau" not in s
