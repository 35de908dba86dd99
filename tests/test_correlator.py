"""Correlator behavior on small hand-checked streams."""

import io
import pickle
import random
from datetime import datetime, timedelta, timezone

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
from caseflow.correlator import kind_probabilities
from caseflow.dependencies import TaskDependencies
from caseflow.model import parse_simple_net
from caseflow.store import ExportWriter


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


def time_index(store, activity):
    """The store's index of activity: what it holds, not what a search finds."""
    return store._time_index.get(activity, [])


def test_missing_heuristics_are_rejected_up_front(clinic_td):
    partial = HeuristicTable({"A": (1, 1), "B": (1, 4)})
    with pytest.raises(CorrelationError) as err:
        Correlator(clinic_td, partial)
    assert err.value.code == "MISSING_HEURISTIC"
    assert "C" in str(err.value)


def test_kind_probabilities_values(clinic_table):
    # B has window 1..4, so three values besides the average
    b = kind_probabilities(2, *clinic_table.window("B"))
    assert b == pytest.approx({"avg": 3 / 4, "range": 5 / 12})
    # E has window 1..7, six values besides the average
    e = kind_probabilities(3, *clinic_table.window("E"))
    assert e == pytest.approx({"avg": 4 / 9, "range": 17 / 54})
    # F's window is one value, the average, so no allocation is of kind range
    mn, mx = clinic_table.window("F")
    assert mn == mx
    assert kind_probabilities(2, mn, mx).keys() == {"avg"}


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
    # a completion in any window finds the open start, and only that
    assert [(a.case_id, a.anchor) for a in corr.store.pairing_allocations(
        ev(2, "A").timestamp, "A", 0, 10**9, None)] == [(1, started.timestamp)]
    (completed,) = corr.ingest(ev(2, "A", "completed"))
    assert (completed.case_id, completed.trust) == (1, 100.0)
    assert [a.anchor for a in completed.allocations] == [started.timestamp]
    assert corr.store.pairing_allocations(ev(3, "A").timestamp, "A", 0, 10**9, None) == set()


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


def test_naive_then_offset_ingest_is_a_correlation_error(clinic_correlator):
    clinic_correlator.ingest(ev(5, "A"))
    offset = UncorrelatedEvent(
        timestamp=datetime(2019, 6, 16, 11, 55, 6, tzinfo=timezone.utc), activity="A"
    )
    with pytest.raises(CorrelationError) as err:
        clinic_correlator.ingest(offset)
    assert err.value.code == "MIXED_TIMEZONES"


def test_started_event_after_completions_only_opening(clinic_correlator):
    clinic_correlator.ingest(ev(1, "A"))
    with pytest.raises(CorrelationError) as err:
        clinic_correlator.ingest(ev(2, "B", lifecycle="started"))
    assert err.value.code == "MIXED_LIFECYCLE"
    assert str(err.value) == ("MIXED_LIFECYCLE: stream opened without lifecycle pairing; started "
                              "events not allowed, got B at 2019-06-16 11:55:02")


def test_paired_stream_rejects_missing_lifecycle(clinic_correlator):
    clinic_correlator.ingest(ev(1, "A", lifecycle="started"))
    assert clinic_correlator.mode == "paired"
    with pytest.raises(CorrelationError) as err:
        clinic_correlator.ingest(ev(2, "B"))
    assert err.value.code == "MIXED_LIFECYCLE"
    assert str(err.value) == ("MIXED_LIFECYCLE: paired stream needs started/completed lifecycles, "
                              "got None for B at 2019-06-16 11:55:02")
    with pytest.raises(CorrelationError) as err:
        clinic_correlator.ingest(ev(3, "B", lifecycle="suspended"))
    assert str(err.value) == ("MIXED_LIFECYCLE: paired stream needs started/completed lifecycles, "
                              "got 'suspended' for B at 2019-06-16 11:55:03")


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


def test_a_case_goes_twice_round_the_loop_without_noise(clinic_correlator):
    # A, then B D E G L N twice; {B} for D, {E} for G and {L} for N hold no
    # loop entry, so the first pass spends them, but only for the anchors
    # up to the one that confirmed them
    stream = [ev(1, "A"), ev(2, "B"), ev(3, "D"), ev(4, "E"), ev(5, "G"), ev(7, "L"), ev(8, "N"),
              ev(9, "B"), ev(10, "D"), ev(11, "E"), ev(14, "G"), ev(17, "L"), ev(18, "N")]
    results = feed(clinic_correlator, stream)
    assert clinic_correlator.store.noise_count() == 0
    assert [[(i.case_id, i.trust) for i in r] for r in results] == [[(1, 100.0)]] * len(stream)


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


def test_activities_that_enable_nothing_stay_within_the_reach_in_the_time_index(
    clinic_net, clinic_table, clinic_td
):
    # M enables no activity of the clinic net, so no query ever reads it; the
    # index still forgets its entries more than R = 12 s (L's 11 s window and
    # the second past a floor) before the newest
    log = simulate.simulate_log(clinic_net, clinic_table, random.Random(3), 20, weights={"M": 3})
    assert any(event.activity == "M" for event in log)
    stream, _ = strip_case_ids(log)
    corr = Correlator(clinic_td, clinic_table)
    widest = timedelta(0)
    for event in stream:
        corr.ingest(event)
        entries = time_index(corr.store, "M")
        if entries:
            widest = max(widest, entries[-1][0] - entries[0][0])
    assert timedelta(0) < widest <= timedelta(seconds=12)


def test_a_self_loop_index_stays_within_the_reach_while_its_case_stays_open():
    # B follows A or itself; with 1 s windows the reach is 2 s, so B's index
    # holds the newest B and the two before it at most
    td = TaskDependencies(
        deps={"A": frozenset(), "B": frozenset({frozenset({"A"}), frozenset({"B"})})},
        loop_entries=frozenset({"B"}),
    )
    corr = Correlator(td, HeuristicTable({"A": (1, 1), "B": (1, 1)}))
    t = ev(0, "A").timestamp
    corr.ingest(UncorrelatedEvent(timestamp=t, activity="A"))
    for second in range(1, 1001):
        b = UncorrelatedEvent(timestamp=t + timedelta(seconds=second), activity="B")
        (inst,) = corr.ingest(b)
        assert (inst.case_id, inst.trust) == (1, 100.0)
        assert len(time_index(corr.store, "B")) <= 3


def test_a_completions_stream_needs_no_window_for_its_start_activity(
    clinic_td, clinic_table, clinic_events
):
    # A opens every clinic case and nothing enables it, so only pairing reads its window
    without_a = HeuristicTable({a: w for a, w in clinic_table.items() if a != "A"})
    with_a, windowless = Correlator(clinic_td, clinic_table), Correlator(clinic_td, without_a)
    feed(with_a, clinic_events)
    feed(windowless, clinic_events)
    assert windowless.store.export_log() == with_a.store.export_log()


def test_a_paired_stream_needs_the_start_activity_window(clinic_td, clinic_table):
    without_a = HeuristicTable({a: w for a, w in clinic_table.items() if a != "A"})
    corr = Correlator(clinic_td, without_a)
    with pytest.raises(CorrelationError) as err:
        corr.ingest(ev(1, "A", "started"))
    assert err.value.code == "MISSING_HEURISTIC"
    assert str(err.value) == "MISSING_HEURISTIC: no duration window for: A"


@pytest.mark.parametrize("without, taken, rejected, code, following", [
    # a start in a completions-only stream, a minute ahead of the events after it
    ((), [ev(0, "A"), ev(1, "A")], ev(0, "B", "started", minute=56), "MIXED_LIFECYCLE",
     [ev(3, "B"), ev(4, "B"), ev(5, "C")]),
    # a completion without a lifecycle in a paired stream
    ((), [ev(0, "A", "started"), ev(1, "A", "completed")], ev(30, "B"), "MIXED_LIFECYCLE",
     [ev(2, "B", "started"), ev(4, "B", "completed")]),
    # a first start whose window is missing, then a completions-only stream that needs none
    (("A",), [], ev(5, "A", "started"), "MISSING_HEURISTIC", [ev(0, "A"), ev(2, "B")]),
], ids=["start-in-completions", "no-lifecycle-in-paired", "windowless-first-start"])
def test_a_rejected_event_leaves_the_correlator_as_it_was(
    clinic_td, clinic_table, without, taken, rejected, code, following
):
    table = HeuristicTable({a: w for a, w in clinic_table.items() if a not in without})
    seen, unseen = Correlator(clinic_td, table), Correlator(clinic_td, table)
    feed(seen, taken)
    feed(unseen, taken)
    with pytest.raises(CorrelationError) as err:
        seen.ingest(rejected)
    assert err.value.code == code
    # the same instances, seqs included, as if the rejected event had never come
    assert feed(seen, following) == feed(unseen, following)


@pytest.mark.parametrize("start, opening, end", [(0, 10, 10), (0.5, 10.6, 10.9)])
def test_retirement_keeps_open_started_events_a_start_window_can_reach(start, opening, end):
    # A's own window, read only when its completion pairs, is wider than any
    # window of an activity A enables. A second case opens just before the
    # completion, which retires what is out of reach by then; the completion
    # still comes 10 whole seconds after the first start.
    after_a = frozenset({frozenset({"A"})})
    td = TaskDependencies(deps={"A": frozenset(), "B": after_a}, loop_entries=frozenset())
    corr = Correlator(td, HeuristicTable({"A": (1, 10), "B": (1, 2)}))
    t = ev(0, "A").timestamp

    def at(offset, lifecycle):
        return UncorrelatedEvent(
            timestamp=t + timedelta(seconds=offset), activity="A", lifecycle=lifecycle
        )

    feed(corr, [at(start, "started"), at(opening, "started")])
    (completed,) = corr.ingest(at(end, "completed"))
    assert (completed.case_id, completed.trust) == (1, 100.0)
    assert completed.allocations[0].duration == 10


@pytest.mark.parametrize("n_cases, paired", [
    pytest.param(300, False, id="300"),
    pytest.param(1200, False, id="1200"),
    pytest.param(300, True, id="paired-300"),
    pytest.param(1200, True, id="paired-1200"),
])
def test_retired_cases_leave_the_store(clinic_net, clinic_table, clinic_td, n_cases, paired):
    log = simulate.simulate_log(
        clinic_net, clinic_table, random.Random(4), n_cases, weights={"M": 3, "G": 3},
        paired=paired,
    )
    stream = strip_case_ids(log)[0]
    corr = Correlator(clinic_td, clinic_table, keep_instances=False)
    store = corr.store
    # a case's first instance retires the cases last touched more than 12 s
    # before (L's 11 s window and the second past a floor), open starts and
    # all, so every case kept was touched within 12 s of the latest opening
    reach = timedelta(seconds=12)
    opened, peak = None, 0
    for event in stream:
        corr.ingest(event)
        # the clinic net's one case-opening activity; a completed A pairs
        if event.activity == "A" and event.lifecycle != "completed":
            opened = event.timestamp
        live = store._live
        assert all(case.last >= opened - reach for case in live.values())
        peak = max(peak, len(live))
    # the same bound at every log size; a paired case takes about twice as
    # long, so twice as many overlap
    assert peak <= (20 if paired else 10)
    assert len(store) >= len(stream)
    assert store.instances() == [] and store.case_ids() == []


@pytest.mark.parametrize("paired", [False, True], ids=["completions", "paired"])
def test_a_correlator_pickled_between_events_resumes_where_it_stopped(
        clinic_net, clinic_table, clinic_td, paired):
    log = simulate.simulate_log(
        clinic_net, clinic_table, random.Random(6), 200, weights={"M": 3, "G": 3},
        paired=paired,
    )
    stream = strip_case_ids(log)[0]

    def export(pause_at):
        # one writer for the whole run, the correlator swapped for its copy
        out = io.StringIO()
        writer = ExportWriter(out)
        corr = Correlator(clinic_td, clinic_table, keep_instances=False)
        for position, event in enumerate(stream):
            if position == pause_at:
                corr = pickle.loads(pickle.dumps(corr))
            writer.write(corr.ingest(event))
        writer.close()
        return out.getvalue()

    assert export(len(stream) // 2) == export(None)


def long_log(clinic_net, table, scale=1, paired=False):
    # the log spans some 50 times the widest window (11 s), so the index
    # retires occurrences all along; cases start 5-15 s apart and overlap, so
    # one case's short-window query (N after L) runs while another case still
    # needs the same member for a wider window (M after L). Paired, the store
    # retires cases with their open starts all along too
    log = simulate.simulate_log(
        clinic_net, table, random.Random(2), 60,
        gap_range=(5 * scale, 15 * scale), weights={"M": 3, "G": 3}, paired=paired,
    )
    return strip_case_ids(log)[0]


def assert_allocations_match_brute_force(td, table, stream):
    corr = Correlator(td, table)
    for event in stream:
        assert corr.candidate_allocations(event) == oracle.brute_force_allocations(corr, event)
        corr.ingest(event)


@pytest.mark.parametrize("scale, paired", [
    pytest.param(1, False, id="1"),
    pytest.param(3600, False, id="3600"),
    pytest.param(1, True, id="paired-1"),
    pytest.param(3600, True, id="paired-3600"),
])
def test_allocations_match_brute_force_over_a_long_log(
    clinic_net, clinic_table, clinic_td, scale, paired
):
    table = HeuristicTable({a: (mn * scale, mx * scale) for a, (mn, mx) in clinic_table.items()})
    stream = long_log(clinic_net, table, scale, paired)
    assert_allocations_match_brute_force(clinic_td, table, stream)


def test_allocations_match_brute_force_with_subsecond_timestamps(clinic_net, clinic_table, clinic_td):
    # whole-second durations of sub-second instants: the window's lower edge
    # must be taken from the floored event time, not the raw one
    jitter = random.Random(7)
    stream = sorted(
        (
            e._replace(timestamp=e.timestamp + timedelta(microseconds=jitter.randrange(1_000_000)))
            for e in long_log(clinic_net, clinic_table)
        ),
        key=lambda e: e.timestamp,
    )
    assert_allocations_match_brute_force(clinic_td, clinic_table, stream)


@pytest.mark.parametrize("log", ["running example", "simulated"])
def test_raw_trust_is_exactly_the_sum_of_instance_probabilities(
    log, clinic_net, clinic_table, clinic_td, clinic_events
):
    # the paper's two expressions, written out here rather than taken from
    # the engine; ingest must give these floats, summed in the allocations'
    # order, and certainty for a lone allocation
    stream = clinic_events if log == "running example" else long_log(clinic_net, clinic_table)
    corr = Correlator(clinic_td, clinic_table)
    shared = 0
    for event in stream:
        instances = corr.ingest(event)
        m = sum(len(inst.allocations) for inst in instances)
        for inst in instances:
            if not inst.allocations:
                # noise, or the allocation-free opening of a case
                assert inst.raw_trust == (None if inst.is_noise() else 100.0)
                continue
            if m == 1:
                expected = 100.0
            else:
                mn, mx = clinic_table.window(event.activity)
                expected = 0.0
                for a in inst.allocations:  # left to right, as sum() may not from Python 3.12
                    expected += (m + 1) / (m * m) if a.kind == "avg" else (m - 1 / (mx - mn)) / (m * m)
                expected *= 100.0
            assert inst.raw_trust == expected, (event, inst)
            assert inst.trust == min(100.0, expected)
            shared += m > len(inst.allocations) > 1
    # the engine's own summation path ran: a case with several of the
    # event's competing allocations
    assert shared


def ingest_three_cases_and_then_l():
    """The results of a stream where L follows {G}, {H} or {I, J}, each of
    which follows A: A opens case 1 at 0 s, case 2 at 8 s and case 3 at
    20 s, and every other event before L, the last, fits one case alone."""
    after_a = frozenset({frozenset({"A"})})
    td = TaskDependencies(
        deps={"A": frozenset(), "G": after_a, "H": after_a, "I": after_a, "J": after_a,
              "L": frozenset({frozenset({"G"}), frozenset({"H"}), frozenset({"I", "J"})})},
        loop_entries=frozenset(),
    )
    window = (1, 4)
    corr = Correlator(td, HeuristicTable({"G": window, "H": window, "I": window, "J": window, "L": (1, 45)}))
    return feed(corr, [ev(0, "A"), ev(1, "I"), ev(2, "J"), ev(3, "G"), ev(4, "H"), ev(8, "A"),
                       ev(10, "G"), ev(20, "A"), ev(21, "I"), ev(21, "J"), ev(21, "G"), ev(27, "L")])


def test_an_events_instances_and_allocations_keep_their_order():
    *before, instances = ingest_three_cases_and_then_l()
    assert [[(i.case_id, i.trust) for i in r] for r in before] == [
        [(case_id, 100.0)] for case_id in (1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3)
    ]
    g, h, ij = frozenset({"G"}), frozenset({"H"}), frozenset({"I", "J"})

    def at(second):
        return ev(second, "L").timestamp

    # instances by case id; a case's allocations by anchor, then by sorted
    # members: case 1 goes against the members' order, case 3 shares one anchor
    assert [
        (i.case_id, [(a.dependency_set, a.anchor, a.duration, a.kind) for a in i.allocations])
        for i in instances
    ] == [
        (1, [(ij, at(2), 25, "range"), (g, at(3), 24, "range"), (h, at(4), 23, "avg")]),
        (2, [(g, at(10), 17, "range")]),
        (3, [(g, at(21), 6, "range"), (ij, at(21), 6, "range")]),
    ]
    # six competing allocations in L's window 1..45, whose average is 23
    avg, range_ = 7 / 36, (6 - 1 / 44) / 36
    # added left to right in the allocations' order
    assert [i.raw_trust for i in instances] == [
        100.0 * (range_ + range_ + avg), 100.0 * range_, 100.0 * (range_ + range_),
    ]
    # case 1 added in its members' order comes out one step higher, so the
    # float pins the order
    assert instances[0].raw_trust == 52.65151515151515
    assert 100.0 * (range_ + avg + range_) == 52.65151515151516
    assert [i.trust for i in instances] == [i.raw_trust for i in instances]


def test_pairing_allocations_share_one_empty_dependency_set(clinic_net, clinic_table, clinic_td):
    corr = Correlator(clinic_td, clinic_table)
    feed(corr, long_log(clinic_net, clinic_table, paired=True))
    # every completion's allocations are pairings with no members; a set of
    # its own for each would cost a stored object per completed instance
    assert len({
        id(a.dependency_set) for inst in corr.store.instances() for a in inst.allocations
        if not a.dependency_set
    }) == 1


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
