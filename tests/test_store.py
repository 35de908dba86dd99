"""Store behavior: ordering, indexes, effects of add, log export."""

from datetime import datetime, timedelta

import pytest

from caseflow.store import Allocation, CaseStore, CorrelatedEventInstance


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


def test_case_ids_are_dense_and_sorted():
    store = CaseStore(REACH)
    assert store.new_case_id() == 1
    assert store.new_case_id() == 2
    assert store.new_case_id() == 3
    assert store.case_ids() == [1, 2, 3]
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
    with pytest.raises(KeyError):
        store.case_view(99)


def test_noise_is_kept_apart_from_cases():
    store = CaseStore(REACH)
    store.new_case_id()
    store.add(inst(1, "A", 1))
    store.add(noise_inst(2, "Z", reason="unknown-activity"))
    assert len(store) == 2
    assert store.noise_count() == 1
    assert store.noise()[0].activity == "Z"
    assert store.occurrences_since("Z", ts(0)) == []


def test_occurrence_index_and_window_queries():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    for second, case_id in ((1, c1), (3, c1), (4, c2), (5, c1), (7, c1)):
        store.add(inst(second, "B", case_id, trust=40.0))
    assert store.occurrences_since("B", ts(3)) == [
        (ts(3), c1), (ts(4), c2), (ts(5), c1), (ts(7), c1)
    ]
    assert store.occurrences_since("B", ts(8)) == []
    assert [t for t, _ in store.occurrences_since("B", ts(0))] == [
        ts(1), ts(3), ts(4), ts(5), ts(7)
    ]
    assert store.has_occurrence_at_or_before(c1, "B", ts(1))
    assert not store.has_occurrence_at_or_before(c1, "B", ts(0))
    assert not store.has_occurrence_at_or_before(c1, "Z", ts(9))


def test_non_anchorable_instances_stay_out_of_the_indexes():
    store = CaseStore(REACH)
    c1 = store.new_case_id()
    started = inst(1, "A", c1, lifecycle="started")
    store.add(started)
    assert store.occurrences_since("A", ts(0)) == []
    assert not store.has_occurrence_at_or_before(c1, "A", ts(9))
    assert store.case_view(c1) == [started]


def test_time_index_keeps_the_window_edge_and_subsecond_occurrences():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    subsecond = ts(0) + timedelta(microseconds=300_000)
    store.add(inst(0, "B", c1))
    store.add(CorrelatedEventInstance(timestamp=subsecond, activity="B", case_id=c2, trust=100.0))
    # an event at second 5 whose window ends at 4 s looks back to ts - max - 1
    lo = ts(5) - timedelta(seconds=5)
    assert lo == ts(0)
    assert store.occurrences_since("B", lo) == [(ts(0), c1), (subsecond, c2)]


def test_time_index_retires_occurrences_older_than_the_horizon():
    store = CaseStore(timedelta(seconds=1))
    c1, c2 = store.new_case_id(), store.new_case_id()
    store.add(inst(1, "B", c1))
    store.add(inst(2, "B", c2))
    assert store.occurrences_since("B", ts(0)) == [(ts(1), c1), (ts(2), c2)]
    store.add(inst(3, "B", c1))
    # retired for good by the add: a wider window later does not bring them back
    assert store.occurrences_since("B", ts(0)) == [(ts(2), c2), (ts(3), c1)]
    # the per-case member check still sees a case's earliest occurrence
    assert store.has_occurrence_at_or_before(c1, "B", ts(1))


def test_open_started_queue_is_first_in_first_out():
    store = CaseStore(REACH)
    c1 = store.new_case_id()
    store.add(inst(1, "B", c1, lifecycle="started"))
    store.add(inst(2, "B", c1, lifecycle="started"))
    assert store.open_starts("B") == {c1: [ts(1), ts(2)]}
    # a completion closes the oldest open start
    store.add(inst(3, "B", c1, lifecycle="completed"))
    assert store.open_starts("B") == {c1: [ts(2)]}
    store.add(inst(4, "B", c1, lifecycle="completed"))
    assert store.open_starts("B") == {}
    # with nothing open, a completion closes nothing
    store.add(inst(5, "B", c1, lifecycle="completed"))
    assert store.open_starts("B") == {}


def test_drained_queues_leave_the_open_started_cases():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    store.add(inst(1, "B", c1, lifecycle="started"))
    store.add(inst(2, "B", c2, lifecycle="started"))
    store.add(inst(3, "C", c1, lifecycle="started"))
    assert store.open_starts("B") == {c1: [ts(1)], c2: [ts(2)]}
    store.add(inst(4, "B", c1, lifecycle="completed"))
    assert store.open_starts("B") == {c2: [ts(2)]}
    assert store.open_starts("C") == {c1: [ts(3)]}
    store.add(inst(5, "B", c2, lifecycle="completed"))
    assert store.open_starts("B") == {}
    store.add(inst(6, "B", c1, lifecycle="started"))
    assert store.open_starts("B") == {c1: [ts(6)]}


def alloc(case_id, *members):
    return Allocation(
        case_id=case_id, dependency_set=frozenset(members), anchor=ts(0), duration=1, kind="avg"
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


def test_certain_alternatives_accumulate_per_case_and_activity():
    store = CaseStore(REACH)
    c1, c2 = store.new_case_id(), store.new_case_id()
    store.add(inst(1, "A", c1))
    store.add(inst(1, "A", c2))
    # a fully trusted instance spends the sets its allocations satisfy
    store.add(inst(2, "E", c1, allocations=(alloc(c1, "D"),)))
    store.add(inst(3, "E", c1, allocations=(alloc(c1, "H"),)))
    assert store.certain_alternatives(c1, "E") == {frozenset({"D"}), frozenset({"H"})}
    # below full trust nothing is spent
    store.add(inst(4, "L", c1, trust=99.0, allocations=(alloc(c1, "K"),)))
    assert store.certain_alternatives(c1, "L") == set()
    # a pairing allocation's empty set is never spent
    store.add(inst(5, "B", c2, lifecycle="started"))
    store.add(inst(6, "B", c2, lifecycle="completed", allocations=(alloc(c2),)))
    assert store.certain_alternatives(c2, "B") == set()
    # a started instance at full trust spends too
    store.add(inst(7, "C", c2, lifecycle="started", allocations=(alloc(c2, "B"),)))
    assert store.certain_alternatives(c2, "C") == {frozenset({"B"})}
    assert store.certain_alternatives(c2, "E") == set()
    assert store.certain_alternatives(3, "E") == set()


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
