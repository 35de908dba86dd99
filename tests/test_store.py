"""Store behavior: ordering, indexes, effects of add, log export."""

import io
from datetime import datetime, timedelta, timezone, tzinfo

import pytest

from caseflow.store import Allocation, CaseStore, CorrelatedEventInstance, ExportWriter


# wider than any test's span, so nothing is forgotten unless a test asks
REACH = timedelta(minutes=5)


def ts(second, minute=0):
    return datetime(2021, 3, 1, 9, minute, second)


def inst(second, activity, case_id, trust=100.0, **kw):
    return CorrelatedEventInstance(
        timestamp=ts(second), activity=activity, case_id=case_id, trust=trust, **kw
    )


def noise_inst(second, activity, reason="no-allocation"):
    return CorrelatedEventInstance(
        timestamp=ts(second), activity=activity, case_id=None, trust=None, noise_reason=reason
    )


def found(store, member, at, span):
    """(anchor, case id) of each occurrence of member that an event at `at`
    finds within span seconds before it, through member alone, never spent."""
    anchorings = ((frozenset({member}), None, member, ()),)
    allocations = store.dependency_allocations(at, 0, None, timedelta(seconds=span), anchorings)
    return sorted((a.anchor, a.case_id) for a in allocations)


def paired(store, activity, at):
    """(case id, start) of each open start of activity that a completion at
    `at` pairs with, in any window."""
    allocations = store.pairing_allocations(at, activity, 0, 10**9, None)
    return sorted((a.case_id, a.anchor) for a in allocations)


def live(store):
    """The store's records of live cases: what it holds, not what a search finds."""
    return store._live


def time_index(store, activity):
    """The store's index of activity: what it holds, not what a search finds."""
    return store._time_index.get(activity, [])


def test_case_ids_are_dense_and_sorted():
    store = CaseStore(REACH)
    assert store.new_case_id() == 1
    assert store.new_case_id() == 2
    assert store.new_case_id() == 3
    # a case is listed once it has a kept instance
    assert store.case_ids() == []
    store.add(inst(1, "A", 3))
    store.add(inst(2, "A", 1))
    assert store.case_ids() == [1, 3]
    assert store.case_view(2) == []


def test_instances_and_case_views_accumulate():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    store.add(inst(1, "A", c1))
    store.add(inst(2, "A", c2))
    store.add(inst(3, "B", c1, trust=50.0))
    assert len(store) == 3
    assert [i.activity for i in store.case_view(c1)] == ["A", "B"]
    assert [i.activity for i in store.case_view(c2)] == ["A"]
    assert store.case_view(99) == []


def test_noise_is_kept_apart_from_cases():
    store = CaseStore(REACH)
    store.new_case_id()
    store.add(inst(1, "A", 1))
    store.add(noise_inst(2, "Z", reason="unknown-activity"))
    assert len(store) == 2
    assert store.noise_count() == 1
    assert store.noise()[0].activity == "Z"
    assert found(store, "Z", ts(3), 3) == []


def test_occurrence_index_and_window_queries():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    for second, case_id in ((1, c1), (3, c1), (4, c2), (5, c1), (7, c1)):
        store.add(inst(second, "B", case_id, trust=40.0))
    assert found(store, "B", ts(10), 7) == [
        (ts(3), c1), (ts(4), c2), (ts(5), c1), (ts(7), c1)
    ]
    assert found(store, "B", ts(10), 2) == []
    assert [t for t, _ in found(store, "B", ts(10), 10)] == [
        ts(1), ts(3), ts(4), ts(5), ts(7)
    ]
    # each case records its first occurrence of the activity
    assert live(store)[c1].first_seen == {"B": ts(1)}
    assert live(store)[c2].first_seen == {"B": ts(4)}


def test_non_anchorable_instances_stay_out_of_the_indexes():
    store = CaseStore(REACH)
    c1 = store.new_case_id()
    started = inst(1, "A", c1, lifecycle="started")
    store.add(started)
    assert found(store, "A", ts(2), 2) == []
    assert live(store)[c1].first_seen == {}
    assert store.case_view(c1) == [started]


def test_time_index_keeps_the_window_edge_and_subsecond_occurrences():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    subsecond = ts(0) + timedelta(microseconds=300_000)
    store.add(inst(0, "B", c1))
    store.add(CorrelatedEventInstance(timestamp=subsecond, activity="B", case_id=c2, trust=100.0))
    # an event at second 5 whose window ends at 5 s looks back to second 0,
    # where the one occurrence lies, and finds the other 5 whole seconds back
    lo = ts(5) - timedelta(seconds=5)
    assert lo == ts(0)
    assert found(store, "B", ts(5), 5) == [(ts(0), c1), (subsecond, c2)]


def test_time_index_retires_occurrences_older_than_the_horizon():
    store = CaseStore(timedelta(seconds=1))
    c1, c2 = store.new_case_id(), store.new_case_id()
    store.add(inst(1, "B", c1))
    store.add(inst(2, "B", c2))
    assert time_index(store, "B") == [(ts(1), c1), (ts(2), c2)]
    store.add(inst(3, "B", c1))
    # retired for good by the add: a wider window later does not bring them back
    assert time_index(store, "B") == [(ts(2), c2), (ts(3), c1)]
    assert found(store, "B", ts(3), 60) == [(ts(2), c2), (ts(3), c1)]
    # the per-case member check still sees a case's earliest occurrence
    assert live(store)[c1].first_seen["B"] == ts(1)


def test_open_started_queue_is_first_in_first_out():
    store = CaseStore(REACH)
    c1 = store.new_case_id()
    store.add(inst(1, "B", c1, lifecycle="started"))
    store.add(inst(2, "B", c1, lifecycle="started"))
    case = live(store)[c1]
    assert case.open == {"B": [ts(1), ts(2)]}
    assert paired(store, "B", ts(3)) == [(c1, ts(1))]
    # a completion closes the oldest open start
    store.add(inst(3, "B", c1, lifecycle="completed"))
    assert case.open == {"B": [ts(2)]}
    assert paired(store, "B", ts(4)) == [(c1, ts(2))]
    store.add(inst(4, "B", c1, lifecycle="completed"))
    assert case.open == {}
    assert paired(store, "B", ts(5)) == []
    # with nothing open, a completion closes nothing
    store.add(inst(5, "B", c1, lifecycle="completed"))
    assert case.open == {}


def test_drained_queues_leave_the_open_started_cases():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    store.add(inst(1, "B", c1, lifecycle="started"))
    store.add(inst(2, "B", c2, lifecycle="started"))
    store.add(inst(3, "C", c1, lifecycle="started"))
    one, two = live(store)[c1], live(store)[c2]
    assert (one.open, two.open) == ({"B": [ts(1)], "C": [ts(3)]}, {"B": [ts(2)]})
    # a drained queue leaves its case's record; other queues stay
    store.add(inst(4, "B", c1, lifecycle="completed"))
    assert (one.open, two.open) == ({"C": [ts(3)]}, {"B": [ts(2)]})
    store.add(inst(5, "B", c2, lifecycle="completed"))
    assert two.open == {}
    store.add(inst(6, "B", c1, lifecycle="started"))
    assert one.open == {"C": [ts(3)], "B": [ts(6)]}


def test_a_retired_case_takes_its_open_starts_along():
    store = CaseStore(timedelta(seconds=2))
    c1, c2 = store.new_case_id(), store.new_case_id()
    store.add(inst(1, "B", c1, lifecycle="started"))
    assert live(store)[c1].open == {"B": [ts(1)]}
    # c2's first instance, more than the reach after c1 was last touched
    store.add(inst(4, "A", c2))
    assert list(live(store)) == [c2]
    assert paired(store, "B", ts(4)) == []


def alloc(case_id, *members, anchor=0):
    return Allocation(
        case_id=case_id, dependency_set=frozenset(members), anchor=ts(anchor), duration=1, kind="avg"
    )


def test_records_compare_by_value_and_are_immutable():
    a, b = alloc(1, "D", "H"), alloc(1, "H", "D")
    assert a == b and hash(a) == hash(b)
    assert {a, b} == {a}
    assert alloc(2, "D", "H") != a
    record = inst(1, "A", 1, allocations=(a,))
    assert record == inst(1, "A", 1, allocations=(b,))
    for target, name in ((a, "case_id"), (record, "trust")):
        with pytest.raises(AttributeError):
            setattr(target, name, 0)
    assert (record.lifecycle, record.resource, record.raw_trust, record.noise_reason) == (
        None, None, None, None
    )
    assert record.seq == -1 and not record.is_noise()
    assert noise_inst(2, "Z").is_noise() and inst(1, "A", 1).allocations == ()


def test_spent_alternatives_accumulate_per_case_and_activity():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    store.add(inst(1, "A", c1))
    store.add(inst(1, "A", c2))

    def spent(case_id):
        return live(store)[case_id].spent

    D, H, B = frozenset({"D"}), frozenset({"H"}), frozenset({"B"})
    # a fully trusted instance spends each set its allocations satisfy, up to
    # the allocation's anchor
    store.add(inst(2, "E", c1, allocations=(alloc(c1, "D", anchor=1),)))
    store.add(inst(3, "E", c1, allocations=(alloc(c1, "H", anchor=2),)))
    assert spent(c1) == {("E", D): ts(1), ("E", H): ts(2)}
    # a later confirmation moves the set's anchor on, never back
    store.add(inst(4, "E", c1, allocations=(alloc(c1, "D", anchor=3), alloc(c1, "D", anchor=2))))
    assert spent(c1)[("E", D)] == ts(3)
    # below full trust nothing is spent
    store.add(inst(5, "L", c1, trust=99.0, allocations=(alloc(c1, "K", anchor=4),)))
    assert ("L", frozenset({"K"})) not in spent(c1)
    # a pairing allocation's empty set is never spent
    store.add(inst(5, "B", c2, lifecycle="started"))
    store.add(inst(6, "B", c2, lifecycle="completed", allocations=(alloc(c2, anchor=5),)))
    assert spent(c2) == {}
    # a started instance at full trust spends too
    store.add(inst(7, "C", c2, lifecycle="started", allocations=(alloc(c2, "B", anchor=6),)))
    assert spent(c2) == {("C", B): ts(6)}
    assert 3 not in live(store)


def export_rows(store, threshold=0.0):
    return store.export_log(threshold).splitlines()


def test_export_log_orders_and_formats_rows():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    store.add(inst(1, "A", c2, trust=100.0, resource="Noah"))
    store.add(inst(1, "A", c1, trust=33.339, lifecycle="completed"))
    store.add(noise_inst(1, "Z"))
    store.add(inst(2, "B", c1, trust=50.0))
    rows = export_rows(store)
    assert rows[0] == "case_id,timestamp,activity,trust,lifecycle,resource"
    assert rows[1] == "1,2021-03-01 09:00:01,A,33.34,completed,"
    assert rows[2] == "2,2021-03-01 09:00:01,A,100.00,,Noah"
    assert rows[3] == ",2021-03-01 09:00:01,Z,,,"
    assert rows[4] == "1,2021-03-01 09:00:02,B,50.00,,"


def test_export_log_threshold_filters_noise_and_low_trust():
    store = CaseStore(REACH)
    c1 = store.new_case_id()
    store.add(inst(1, "A", c1, trust=100.0))
    store.add(noise_inst(2, "Z"))
    store.add(inst(3, "B", c1, trust=41.67))
    assert len(export_rows(store, 0.0)) == 4
    # any positive threshold drops noise rows, which carry no trust
    assert len(export_rows(store, 0.0001)) == 3
    assert len(export_rows(store, 41.67)) == 3
    assert len(export_rows(store, 41.68)) == 2
    assert len(export_rows(store, 100.0)) == 2


def test_export_log_empty_store_is_header_only():
    assert CaseStore(REACH).export_log() == "case_id,timestamp,activity,trust,lifecycle,resource\n"


def test_export_writer_flush_writes_the_instants_that_are_over():
    out = io.StringIO()
    writer = ExportWriter(out)
    header = "case_id,timestamp,activity,trust,lifecycle,resource\n"
    writer.write([inst(1, "A", 2), inst(1, "A", 1, trust=50.0)])
    writer.flush()
    # the instant of second 1 may still get rows, so nothing is written yet
    assert out.getvalue() == header
    writer.write([noise_inst(2, "Z")])
    writer.write([inst(2, "B", 1)])
    writer.flush()
    second_1 = "1,2021-03-01 09:00:01,A,50.00,,\n2,2021-03-01 09:00:01,A,100.00,,\n"
    assert out.getvalue() == header + second_1
    writer.close()
    second_2 = "1,2021-03-01 09:00:02,B,100.00,,\n,2021-03-01 09:00:02,Z,,,\n"
    assert out.getvalue() == header + second_1 + second_2


def test_export_prints_an_equal_instant_at_each_row_s_own_offset():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    at_plus_2 = datetime(2021, 3, 1, 11, 0, 1, tzinfo=timezone(timedelta(hours=2)))
    store.add(CorrelatedEventInstance(at_plus_2, "A", c2, 100.0))
    store.add(CorrelatedEventInstance(at_plus_2.astimezone(timezone.utc), "A", c1, 100.0))
    assert export_rows(store)[1:] == [
        "1,2021-03-01 09:00:01+00:00,A,100.00,,",
        "2,2021-03-01 11:00:01+02:00,A,100.00,,",
    ]


def test_export_formats_each_second_across_minute_ends():
    stamps = [datetime(2021, 3, 1, 9, 0, 59, 500_000), datetime(2021, 3, 1, 9, 1, 0, 200_000),
              datetime(2021, 3, 1, 9, 1, 59, 900_000), datetime(2021, 3, 1, 9, 2)]
    out = io.StringIO()
    writer = ExportWriter(out)
    for ts in stamps:
        writer.write([CorrelatedEventInstance(ts, "A", 1, 100.0)])
    writer.close()
    assert [row.split(",")[1] for row in out.getvalue().splitlines()[1:]] == [
        "2021-03-01 09:00:59", "2021-03-01 09:01:00", "2021-03-01 09:01:59", "2021-03-01 09:02:00"]


class HalfMinuteZone(tzinfo):
    """UTC+2 in the first half of each minute and UTC+1 in the second."""

    def utcoffset(self, dt):
        return timedelta(hours=2 if dt.second < 30 else 1)

    def dst(self, dt):
        return None


def test_export_formats_anew_where_a_zone_changes_offset_within_a_minute():
    # the first instant's minute cannot be reused: the zone leaves UTC+2
    # before the minute ends, and an instant at +02:00 an hour later lies
    # before that minute's end in UTC
    first = datetime(2021, 3, 1, 9, 0, 10, tzinfo=HalfMinuteZone())
    later = datetime(2021, 3, 1, 10, 0, 20, tzinfo=timezone(timedelta(hours=2)))
    out = io.StringIO()
    writer = ExportWriter(out)
    writer.write([CorrelatedEventInstance(first, "A", 1, 100.0)])
    writer.write([CorrelatedEventInstance(later, "B", 1, 100.0)])
    writer.close()
    assert out.getvalue().splitlines()[1:] == [
        "1,2021-03-01 09:00:10+02:00,A,100.00,,",
        "1,2021-03-01 10:00:20+02:00,B,100.00,,",
    ]
