"""Invariant checks over generated inputs."""

import csv
import io
import math
import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simulate
from caseflow import (
    HeuristicTable,
    UncorrelatedEvent,
    build_task_dependencies,
    read_events,
    strip_case_ids,
)
from caseflow.correlator import instance_probability
from caseflow.dependencies import non_cartesian_product
from caseflow.model import validate
from caseflow.store import CaseStore, CorrelatedEventInstance, ExportWriter
from caseflow.streams import (
    events_to_csv,
    floor_to_second,
    format_timestamp,
    parse_timestamp,
    whole_seconds_between,
)

families_strategy = st.lists(
    st.sets(st.sampled_from("abcdef"), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
)


@given(families_strategy)
def test_non_cartesian_product_structure(families):
    out = non_cartesian_product(families)
    union = set().union(*families)
    assert out
    for combo in out:
        assert combo
        assert len(combo) <= len(families)
        assert combo <= union
        for fam in families:
            assert combo & fam


@given(families_strategy, st.sampled_from("abcdef"))
def test_non_cartesian_product_grows_with_its_families(families, extra):
    base = non_cartesian_product(families)
    widened = [set(fam) for fam in families]
    widened[0].add(extra)
    assert base <= non_cartesian_product(widened)


window_strategy = st.tuples(st.integers(1, 50), st.integers(0, 50)).map(
    lambda t: (t[0], t[0] + t[1])
)


@given(window_strategy)
def test_average_and_range_partition_the_window(window):
    mn, mx = window
    table = HeuristicTable({"X": (mn, mx)})
    avg = table.avg("X")
    assert mn <= avg <= mx
    assert avg == math.ceil((mn + mx) / 2)
    # so the window holds mx - mn values besides the average
    assert len(set(range(mn, mx + 1)) - {avg}) == mx - mn


@given(st.integers(1, 12), window_strategy)
def test_instance_probability_is_a_probability(m, window):
    mn, mx = window
    table = HeuristicTable({"X": (mn, mx)})
    p_avg = instance_probability(m, "avg", "X", table)
    assert 0 < p_avg <= 1
    if m == 1:
        assert p_avg == 1.0
    if mx > mn:  # range is empty otherwise
        p_range = instance_probability(m, "range", "X", table)
        assert 0 < p_range <= 1
        if m > 1:
            assert p_avg > p_range


instance_rows = st.lists(
    st.tuples(
        st.integers(0, 50),            # second
        st.sampled_from("ABC"),        # activity
        st.integers(1, 4),             # case id
        st.floats(0, 100),             # trust
        st.booleans(),                 # noise?
    ),
    max_size=30,
)


def build_store(rows):
    store = CaseStore(timedelta(minutes=1))
    for _ in range(4):
        store.new_case_id()
    for second, activity, case_id, trust, is_noise in sorted(rows, key=lambda r: r[0]):
        ts = datetime(2021, 3, 1, 9, 0) + timedelta(seconds=second)
        if is_noise:
            inst = CorrelatedEventInstance(ts, activity, None, None, noise_reason="no-allocation")
        else:
            inst = CorrelatedEventInstance(ts, activity, case_id, trust)
        store.add(inst)
    return store


@given(instance_rows, st.floats(0, 100), st.floats(0, 100))
def test_export_rows_shrink_as_the_threshold_rises(rows, t1, t2):
    lo, hi = sorted((t1, t2))
    store = build_store(rows)
    at_lo = set(store.export_log(lo).splitlines()[1:])
    at_hi = set(store.export_log(hi).splitlines()[1:])
    assert at_hi <= at_lo


@given(instance_rows)
def test_noise_rows_survive_only_the_zero_threshold(rows):
    store = build_store(rows)
    noise_rows = [r for r in store.export_log(0.0).splitlines()[1:] if r.startswith(",")]
    assert len(noise_rows) == store.noise_count()
    assert not [r for r in store.export_log(0.5).splitlines()[1:] if r.startswith(",")]


# text that CSV must quote: commas, quotes and line breaks, stripped and non-empty
odd_text = st.text(alphabet=st.sampled_from('ab z,"\'\né'), min_size=1).map(str.strip).filter(bool)
whole_seconds = st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1)).map(
    lambda ts: ts.replace(microsecond=0)
)

csv_events_strategy = st.lists(
    st.tuples(
        whole_seconds,
        odd_text,
        st.one_of(st.none(), st.sampled_from(["started", "completed"]), odd_text.map(str.lower)),
        st.one_of(st.none(), odd_text),
        st.one_of(st.none(), st.integers(0, 10**9), odd_text.filter(lambda s: not s.isdecimal())),
    ),
    max_size=12,
).map(lambda rows: tuple(UncorrelatedEvent(*row) for row in sorted(rows, key=lambda r: r[0])))


@given(csv_events_strategy)
def test_events_read_back_from_their_csv(events):
    assert read_events(io.StringIO(events_to_csv(events))) == events


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),                      # second
            odd_text,                               # activity
            st.one_of(st.none(), st.integers(1, 3)),  # case id; None is noise
            st.floats(0, 100),                      # trust
            st.one_of(st.none(), odd_text),         # lifecycle
            st.one_of(st.none(), odd_text),         # resource
        ),
        max_size=20,
    )
)
def test_export_reads_back_as_each_instance_s_fields(rows):
    store = CaseStore(timedelta(minutes=1))
    for _ in range(3):
        store.new_case_id()
    for second, activity, case_id, trust, lifecycle, resource in sorted(rows, key=lambda r: r[0]):
        ts = datetime(2021, 3, 1, 9, 0) + timedelta(seconds=second)
        noise_reason = "no-allocation" if case_id is None else None
        store.add(CorrelatedEventInstance(ts, activity, case_id, None if noise_reason else trust,
                                          lifecycle, resource, noise_reason=noise_reason))
    ordered = sorted(store.instances(), key=lambda i: (i.timestamp, i.is_noise(), i.case_id or 0))
    expected = [
        ["" if i.case_id is None else str(i.case_id), format_timestamp(i.timestamp), i.activity,
         "" if i.trust is None else f"{i.trust:.2f}", i.lifecycle or "", i.resource or ""]
        for i in ordered
    ]
    assert list(csv.reader(io.StringIO(store.export_log(0.0))))[1:] == expected


def reference_export(out, instances, threshold):
    """Write the export to out as csv.writer renders it, row by row: each
    instant's kept rows, noise last, then by case id, with the instant's
    text unless a row is at another offset."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["case_id", "timestamp", "activity", "trust", "lifecycle", "resource"])
    groups = []
    for inst in instances:
        if groups and inst.timestamp == groups[-1][0]:
            groups[-1][1].append(inst)
        else:
            groups.append((inst.timestamp, [inst]))
    for instant, group in groups:
        kept = [i for i in group if (threshold <= 0 if i.is_noise() else i.trust >= threshold)]
        for i in sorted(kept, key=lambda i: (i.is_noise(), i.case_id or 0)):
            at_instant = i.timestamp.utcoffset() == instant.utcoffset()
            writer.writerow([
                "" if i.case_id is None else i.case_id,
                format_timestamp(instant if at_instant else i.timestamp),
                i.activity,
                "" if i.trust is None else f"{i.trust:.2f}",
                i.lifecycle or "",
                i.resource or "",
            ])


class SmallBatchWriter(ExportWriter):
    _BATCH = 2  # so that a few rows make several batches, plain and quoted ones mixed


# text fields: CSV quotes ',', '"' and '\n', and '\r' from Python 3.13 on
export_text = st.text(alphabet=st.sampled_from('ab z,"\r\néß€'), min_size=1)
export_offsets = [timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                  timezone(timedelta(hours=-3)), timezone(timedelta(seconds=-30))]
export_starts = st.one_of(
    # the last second of a minute, an hour, a day or a year, and any instant
    st.sampled_from([datetime(2020, 12, 31, 23, 59, 58, 900_000), datetime(2021, 3, 1, 9, 59, 59),
                     datetime(1999, 12, 31, 23, 58, 1)]),
    st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1)),
)
export_steps = st.lists(
    st.tuples(
        # microseconds after the last instance, mostly within a minute either
        # way: the writer renders instances given out of order as they come
        st.one_of(st.just(0), st.integers(-90_000_000, 90_000_000),
                  st.integers(1, 3 * 86_400_000_000)),
        st.sampled_from(export_offsets),            # offset, if the stream has offsets
        st.one_of(st.none(), st.integers(1, 5)),    # case id; None is noise
        st.one_of(st.just(100.0), st.floats(0, 100)),  # trust
        st.one_of(st.sampled_from(["A", "Register patient"]), export_text),  # activity
        st.one_of(st.none(), st.just("completed"), export_text),  # lifecycle
        st.one_of(st.none(), st.just("nurse-3"), export_text),    # resource
        st.booleans(),                               # flush after it
    ),
    max_size=25,
)


@settings(max_examples=300)
@given(export_starts, st.booleans(), export_steps, st.sampled_from([0.0, 60.0]),
       st.sampled_from([ExportWriter, SmallBatchWriter]))
def test_export_writer_renders_rows_as_csv_writer_does(start, aware, steps, threshold, kind):
    instant = start.replace(tzinfo=timezone.utc) if aware else start
    instances, flushes = [], []
    for micros, offset, case_id, trust, activity, lifecycle, resource, flush in steps:
        instant += timedelta(microseconds=micros)
        # an aware stream writes one instant at several offsets
        ts = instant.astimezone(offset) if aware else instant
        noise = "no-allocation" if case_id is None else None
        instances.append(CorrelatedEventInstance(ts, activity, case_id, None if noise else trust,
                                                 lifecycle, resource, noise_reason=noise))
        flushes.append(flush)

    out = io.StringIO()
    writer = kind(out, threshold)
    for inst, flush in zip(instances, flushes):
        writer.write([inst])
        if flush:
            writer.flush()
    writer.close()
    expected = io.StringIO()
    reference_export(expected, instances, threshold)
    assert out.getvalue() == expected.getvalue()


@pytest.mark.parametrize("kind", [ExportWriter, SmallBatchWriter])
def test_export_writer_writes_a_nul_as_csv_writer_does(kind):
    # csv.writer cannot write a NUL before Python 3.11: both then stop at its row
    ts = datetime(2021, 3, 1, 9, 0)
    instances = [CorrelatedEventInstance(ts + timedelta(seconds=i), activity, 1, 100.0)
                 for i, activity in enumerate(["A", "B", "C\0D", "E"])]

    def rendered(write):
        out = io.StringIO()
        try:
            write(out)
        except csv.Error as exc:
            return out.getvalue(), str(exc)
        return out.getvalue(), None

    def export(out):
        writer = kind(out)
        writer.write(instances)
        writer.close()

    assert rendered(export) == rendered(lambda out: reference_export(out, instances, 0.0))


@given(
    st.datetimes(
        min_value=datetime(2000, 1, 1),
        max_value=datetime(2100, 1, 1),
    ).map(lambda ts: ts.replace(microsecond=0))
)
def test_timestamp_format_parse_round_trip(ts):
    assert parse_timestamp(format_timestamp(ts)) == ts


@given(
    st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1)),
    st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1)),
)
def test_whole_seconds_ignore_subsecond_parts(a, b):
    assert whole_seconds_between(a, b) == whole_seconds_between(
        a.replace(microsecond=0), b.replace(microsecond=0)
    )
    assert whole_seconds_between(a, b) == -whole_seconds_between(b, a)


offsets = st.integers(-23 * 60 + 1, 23 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)
any_timestamps = st.datetimes(
    min_value=datetime(2000, 1, 1),
    max_value=datetime(2100, 1, 1),
    timezones=st.one_of(st.none(), offsets),
)


@given(st.one_of(any_timestamps, any_timestamps.map(lambda ts: ts.replace(microsecond=0))))
def test_floor_to_second_drops_only_the_subsecond_part(ts):
    floored = floor_to_second(ts)
    assert floored == ts.replace(microsecond=0)
    assert floored.utcoffset() == ts.utcoffset()


@given(
    st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1)),
    st.one_of(
        st.integers(-2_000_000, 2_000_000),
        st.integers(-5 * 86_400_000_000, 5 * 86_400_000_000),
    ).map(lambda us: timedelta(microseconds=us)),
)
def test_whole_seconds_are_the_two_floor_difference(start, span):
    end = start + span
    two_floor = int((end.replace(microsecond=0) - start.replace(microsecond=0)).total_seconds())
    assert whole_seconds_between(start, end) == two_floor


events_strategy = st.lists(
    st.tuples(
        st.integers(0, 20),
        st.sampled_from("AB"),
        st.one_of(st.none(), st.integers(1, 3), st.just("ext-9")),
    ),
    max_size=20,
).map(
    lambda rows: tuple(
        UncorrelatedEvent(
            timestamp=datetime(2021, 3, 1, 9, 0) + timedelta(seconds=s),
            activity=a,
            case_id=c,
        )
        for s, a, c in sorted(rows, key=lambda r: r[0])
    )
)


@given(events_strategy)
def test_strip_then_relabel_round_trips(events):
    stripped, labels = strip_case_ids(events)
    assert all(e.case_id is None for e in stripped)
    assert labels == [e.case_id for e in events]
    assert tuple(replace(e, case_id=c) for e, c in zip(stripped, labels)) == events


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_generated_nets_yield_observable_dependencies(seed):
    rng = random.Random(seed)
    net = simulate.random_net(rng)
    assert validate(net).ok()
    td = build_task_dependencies(net)
    assert td.activities() == net.observable_labels()
    silent = {t.label for t in net.transitions if t.silent}
    for alts in td.deps.values():
        for dep_set in alts:
            assert dep_set
            assert not (dep_set & silent)
            assert dep_set <= td.activities()
    assert td.loop_entries <= td.activities()
    assert td.to_json_dict() == build_task_dependencies(net).to_json_dict()
