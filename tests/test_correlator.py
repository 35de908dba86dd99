"""Correlator behavior on small hand-checked streams."""

import random
from dataclasses import replace
from datetime import datetime, timedelta

import pytest

import oracle
import simulate
from caseflow import (
    CorrelationError,
    Correlator,
    HeuristicTable,
    UncorrelatedEvent,
    build_task_dependencies,
    strip_case_ids,
)
from caseflow.correlator import instance_probability
from caseflow.dependencies import TaskDependencies
from caseflow.model import parse_simple_net


def ev(second, activity, lifecycle=None, minute=55):
    return UncorrelatedEvent(
        timestamp=datetime(2019, 6, 16, 11, minute, second),
        activity=activity,
        lifecycle=lifecycle,
    )


def feed(correlator, events):
    out = []
    for event in events:
        out.append(correlator.ingest(event))
    return out


def test_missing_heuristics_are_rejected_up_front(clinic_td):
    partial = HeuristicTable({"A": (1, 1), "B": (1, 4)})
    with pytest.raises(CorrelationError) as err:
        Correlator(clinic_td, partial)
    assert err.value.code == "MISSING_HEURISTIC"
    assert "C" in str(err.value)


def test_instance_probability_values(clinic_table):
    assert instance_probability(1, "range", "B", clinic_table) == 1.0
    assert instance_probability(2, "avg", "B", clinic_table) == pytest.approx(3 / 4)
    # B has window 1..4, so three values besides the average
    assert instance_probability(2, "range", "B", clinic_table) == pytest.approx(5 / 12)
    # E has window 1..7, six values besides the average
    assert instance_probability(3, "range", "E", clinic_table) == pytest.approx(17 / 54)
    assert instance_probability(3, "avg", "E", clinic_table) == pytest.approx(4 / 9)


def test_instance_probability_rejects_bad_arguments(clinic_table):
    with pytest.raises(ValueError):
        instance_probability(0, "avg", "B", clinic_table)
    with pytest.raises(ValueError):
        instance_probability(2, "mode", "B", clinic_table)
    with pytest.raises(CorrelationError) as err:
        instance_probability(2, "range", "F", clinic_table)
    assert err.value.code == "DEGENERATE_RANGE"
    # a single allocation never consults the window
    assert instance_probability(1, "range", "F", clinic_table) == 1.0


def test_start_activity_opens_fresh_cases(clinic_correlator, clinic_td, clinic_table):
    (first,), (second,) = feed(clinic_correlator, [ev(1, "A"), ev(2, "A")])
    assert (first.case_id, first.trust) == (1, 100.0)
    assert (second.case_id, second.trust) == (2, 100.0)
    for opening in (first, second):
        assert opening.allocations == ()
        assert opening.raw_trust == 100.0
    assert clinic_correlator.mode == "completed"
    assert clinic_correlator.store.case_ids() == [1, 2]

    # paired: a started A opens a case and waits in the open-started queue
    # until its completion pairs with it
    corr = Correlator(clinic_td, clinic_table)
    (started,) = corr.ingest(ev(1, "A", "started"))
    assert (started.case_id, started.trust, started.raw_trust) == (1, 100.0, 100.0)
    assert started.allocations == ()
    assert corr.store.peek_open_started(1, "A") is started
    (completed,) = corr.ingest(ev(2, "A", "completed"))
    assert (completed.case_id, completed.trust) == (1, 100.0)
    assert [a.anchor for a in completed.allocations] == [started.timestamp]
    assert corr.store.peek_open_started(1, "A") is None


def test_shared_event_is_materialized_once_per_case(clinic_correlator):
    results = feed(clinic_correlator, [ev(1, "A"), ev(2, "A"), ev(3, "B")])
    instances = results[-1]
    assert [i.case_id for i in instances] == [1, 2]
    # two competing allocations, both off-average durations
    for inst in instances:
        assert inst.trust == pytest.approx(100 * 5 / 12)
        assert inst.raw_trust == inst.trust
        assert len(inst.allocations) == 1
        assert inst.seq == 2


def test_event_outside_every_window_is_noise(clinic_correlator):
    results = feed(clinic_correlator, [ev(1, "A"), ev(6, "B")])
    (noise,) = results[-1]
    assert noise.is_noise()
    assert noise.noise_reason == "no-allocation"
    assert noise.case_id is None and noise.trust is None
    assert clinic_correlator.store.noise_count() == 1


def test_window_bounds_are_inclusive(clinic_correlator):
    results = feed(clinic_correlator, [ev(1, "A"), ev(5, "B")])
    (inst,) = results[-1]
    assert inst.trust == 100.0
    assert inst.allocations[0].duration == 4


def test_unknown_activity_is_noise_even_with_odd_lifecycle(clinic_correlator):
    feed(clinic_correlator, [ev(1, "A")])
    (noise,) = clinic_correlator.ingest(ev(2, "Z", lifecycle="started"))
    assert noise.noise_reason == "unknown-activity"
    assert clinic_correlator.store.noise_count() == 1


def test_out_of_order_ingest_is_an_error(clinic_correlator):
    clinic_correlator.ingest(ev(5, "A"))
    with pytest.raises(CorrelationError) as err:
        clinic_correlator.ingest(ev(4, "A"))
    assert err.value.code == "OUT_OF_ORDER"


def test_started_event_after_completions_only_opening(clinic_correlator):
    clinic_correlator.ingest(ev(1, "A"))
    with pytest.raises(CorrelationError) as err:
        clinic_correlator.ingest(ev(2, "B", lifecycle="started"))
    assert err.value.code == "MIXED_LIFECYCLE"


def test_paired_stream_rejects_missing_lifecycle(clinic_correlator):
    clinic_correlator.ingest(ev(1, "A", lifecycle="started"))
    assert clinic_correlator.mode == "paired"
    with pytest.raises(CorrelationError) as err:
        clinic_correlator.ingest(ev(2, "B"))
    assert err.value.code == "MIXED_LIFECYCLE"


def test_paired_stream_pairs_completions_with_earliest_start(clinic_td, clinic_table):
    corr = Correlator(clinic_td, clinic_table)
    results = feed(
        corr,
        [
            ev(0, "A", "started"),
            ev(1, "A", "completed"),
            ev(1, "A", "started"),
            ev(2, "A", "completed"),
            ev(4, "A", "started"),
            ev(5, "A", "completed"),
            ev(5, "B", "started"),
            ev(6, "B", "completed"),
        ],
    )
    for i, case_id in ((0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (5, 3)):
        (inst,) = results[i]
        assert (inst.case_id, inst.trust) == (case_id, 100.0)

    started_b = results[6]
    assert [(i.case_id, i.lifecycle) for i in started_b] == [(1, "started"), (2, "started")]
    assert started_b[0].trust == pytest.approx(100 * 5 / 12)  # four seconds after A, off average
    assert started_b[1].trust == pytest.approx(75.0)  # three seconds, the average

    completed_b = results[7]
    assert [i.case_id for i in completed_b] == [1, 2]
    for inst in completed_b:
        assert inst.trust == pytest.approx(100 * 5 / 12)
        assert inst.allocations[0].dependency_set == frozenset()
        assert inst.allocations[0].duration == 1


def test_paired_completions_consume_their_start(clinic_td, clinic_table):
    corr = Correlator(clinic_td, clinic_table)
    feed(corr, [ev(0, "A", "started"), ev(1, "A", "completed")])
    # the only open started A is gone, so another completion has no partner
    (noise,) = corr.ingest(ev(2, "A", "completed"))
    assert noise.noise_reason == "no-allocation"


def test_started_events_do_not_anchor_dependencies(clinic_td, clinic_table):
    corr = Correlator(clinic_td, clinic_table)
    feed(corr, [ev(0, "A", "started"), ev(2, "B", "started")])
    # A never completed: B finds no anchor occurrence, despite the open case
    (noise,) = corr.store.noise()
    assert noise.activity == "B"
    assert noise.noise_reason == "no-allocation"


def test_confirmed_alternative_is_spent_outside_loops(clinic_correlator):
    results = feed(clinic_correlator, [ev(1, "A"), ev(2, "B"), ev(3, "D"), ev(4, "D")])
    (first_d,) = results[2]
    assert first_d.trust == 100.0
    (second_d,) = results[3]
    # B is not a loop entry, so a second D cannot be explained the same way
    assert second_d.noise_reason == "no-allocation"


def test_loop_entry_alternatives_stay_reusable(clinic_correlator):
    results = feed(
        clinic_correlator,
        [ev(1, "A"), ev(2, "B"), ev(3, "C"), ev(5, "I"), ev(7, "J"), ev(9, "L"), ev(10, "L")],
    )
    (first_l,) = results[5]
    assert first_l.trust == 100.0
    assert first_l.allocations[0].dependency_set == {"I", "J"}
    (second_l,) = results[6]
    # I and J are both loop entries; their joint alternative may recur
    assert second_l.trust == 100.0
    assert not second_l.is_noise()


def test_synchronized_anchors_collapse_duplicate_allocations(clinic_correlator):
    results = feed(
        clinic_correlator,
        [ev(1, "A"), ev(2, "A"), ev(3, "B"), ev(4, "C"), ev(6, "I"), ev(7, "I"), ev(8, "J"), ev(10, "L")],
    )
    instances = results[-1]
    assert [i.case_id for i in instances] == [1, 2]
    for inst in instances:
        # either I occurrence pairs with the same J, which is the later of
        # the two and hence the anchor both times: one allocation, not two
        assert len(inst.allocations) == 1
        assert inst.allocations[0].anchor == datetime(2019, 6, 16, 11, 55, 8)
        assert inst.allocations[0].dependency_set == {"I", "J"}


def test_trust_is_capped_with_raw_value_preserved():
    net = parse_simple_net(
        """
        place p0
        place p1
        place p2
        place p3
        transition tx X
        transition tp P
        transition tq Q
        transition ty Y
        arc p0 tx
        arc tx p1
        arc p1 tp
        arc p1 tq
        arc tp p2
        arc tq p2
        arc p2 ty
        arc ty p3
        """
    )
    td = build_task_dependencies(net)
    table = HeuristicTable({"X": (1, 1), "P": (1, 3), "Q": (1, 3), "Y": (1, 3)})
    corr = Correlator(td, table)
    feed(corr, [ev(0, "X"), ev(2, "P"), ev(2, "Q")])
    (inst,) = corr.ingest(ev(4, "Y"))
    assert inst.trust == 100.0
    assert inst.raw_trust == pytest.approx(150.0)
    assert len(inst.allocations) == 2


def test_candidate_allocations_is_a_pure_query(clinic_correlator):
    feed(clinic_correlator, [ev(1, "A"), ev(2, "A")])
    probe = ev(3, "B")
    before = len(clinic_correlator.store)
    first = clinic_correlator.candidate_allocations(probe)
    second = clinic_correlator.candidate_allocations(probe)
    assert first == second
    assert len(first) == 2
    assert len(clinic_correlator.store) == before


def test_sequence_numbers_count_every_event(clinic_correlator):
    results = feed(clinic_correlator, [ev(1, "A"), ev(2, "Z"), ev(3, "A"), ev(4, "B")])
    seqs = [instances[0].seq for instances in results]
    assert seqs == [0, 1, 2, 3]
    # both instances of the shared event carry the same sequence number
    assert {i.seq for i in results[-1]} == {3}


def test_retirement_keeps_anchors_the_widest_dependent_can_reach():
    # A enables both B (window 1..1) and C (window 1..9)
    after_a = frozenset({frozenset({"A"})})
    td = TaskDependencies(
        deps={"A": frozenset(), "B": after_a, "C": after_a}, loop_entries=frozenset()
    )
    corr = Correlator(td, HeuristicTable({"A": (1, 1), "B": (1, 1), "C": (1, 9)}))
    half = timedelta(microseconds=500_000)
    first_a = UncorrelatedEvent(timestamp=ev(0, "A").timestamp + half, activity="A")
    feed(corr, [first_a, ev(5, "A"), ev(6, "B")])
    # B's query came 5.5 s after the first A, far beyond B's own window; the
    # first A must still anchor C 9 whole seconds later
    late_c = UncorrelatedEvent(timestamp=ev(9, "C").timestamp + half, activity="C")
    assert {(a.case_id, a.duration) for a in corr.candidate_allocations(late_c)} == {(1, 9), (2, 4)}


def test_activities_that_enable_nothing_stay_out_of_the_time_index(
    clinic_net, clinic_table, clinic_td
):
    # M enables no activity of the clinic net, so no query ever reads it
    log = simulate.simulate_log(clinic_net, clinic_table, random.Random(3), 20, weights={"M": 3})
    assert any(event.activity == "M" for event in log)
    stream, _ = strip_case_ids(log)
    corr = Correlator(clinic_td, clinic_table)
    feed(corr, stream)
    assert corr.store.occurrences_since("M", datetime.min, datetime.min) == []


def long_log(clinic_net, table, scale=1):
    # the log spans some 50 times the widest window (11 s), so the index
    # retires occurrences all along; cases start 5-15 s apart and overlap, so
    # one case's short-window query (N after L) runs while another case still
    # needs the same member for a wider window (M after L)
    log = simulate.simulate_log(
        clinic_net, table, random.Random(2), 60,
        gap_range=(5 * scale, 15 * scale), weights={"M": 3, "G": 3},
    )
    return strip_case_ids(log)[0]


def assert_allocations_match_brute_force(td, table, stream):
    corr = Correlator(td, table)
    for event in stream:
        assert corr.candidate_allocations(event) == oracle.brute_force_allocations(corr, event)
        corr.ingest(event)


@pytest.mark.parametrize("scale", [1, 3600])
def test_allocations_match_brute_force_over_a_long_log(clinic_net, clinic_table, clinic_td, scale):
    table = HeuristicTable({a: (mn * scale, mx * scale) for a, (mn, mx) in clinic_table.items()})
    assert_allocations_match_brute_force(clinic_td, table, long_log(clinic_net, table, scale))


def test_allocations_match_brute_force_with_subsecond_timestamps(clinic_net, clinic_table, clinic_td):
    # whole-second durations of sub-second instants: the window's lower edge
    # must be taken from the floored event time, not the raw one
    jitter = random.Random(7)
    stream = sorted(
        (
            replace(e, timestamp=e.timestamp + timedelta(microseconds=jitter.randrange(1_000_000)))
            for e in long_log(clinic_net, clinic_table)
        ),
        key=lambda e: e.timestamp,
    )
    assert_allocations_match_brute_force(clinic_td, clinic_table, stream)


def test_window_edge_counts_whole_seconds_of_subsecond_instants():
    # B follows A by 1 to 3 whole seconds and arrives at T + 0.7 s
    after_a = frozenset({frozenset({"A"})})
    td = TaskDependencies(deps={"A": frozenset(), "B": after_a}, loop_entries=frozenset())
    corr = Correlator(td, HeuristicTable({"A": (1, 1), "B": (1, 3)}))
    t = ev(10, "B").timestamp

    def at(offset, activity):
        return UncorrelatedEvent(timestamp=t + timedelta(seconds=offset), activity=activity)

    # case 1's A at T - 3.2 s lies 4 whole seconds back (second 6 to 10),
    # case 2's A at T - 2.8 s lies 3 (second 7 to 10)
    feed(corr, [at(-3.2, "A"), at(-2.8, "A")])
    (inst,) = corr.ingest(at(0.7, "B"))
    assert inst.case_id == 2
    assert [a.duration for a in inst.allocations] == [3]


class LookupCounter:
    """Stands in for an object, counting every attribute looked up on it."""

    def __init__(self, target):
        self.target = target
        self.lookups = 0

    def __getattr__(self, name):
        self.lookups += 1
        return getattr(self.target, name)


def test_ingest_consults_no_dependency_after_construction(clinic_net, clinic_table, clinic_td):
    td = LookupCounter(clinic_td)
    corr = Correlator(td, clinic_table)
    assert td.lookups > 0
    td.lookups = 0
    log = simulate.simulate_log(clinic_net, clinic_table, random.Random(5), 30, weights={"M": 3})
    feed(corr, strip_case_ids(log)[0])
    assert len(corr.store.case_ids()) == 30
    assert td.lookups == 0
