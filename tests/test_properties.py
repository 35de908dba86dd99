"""Invariant checks over generated inputs."""

import math
import random
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

import simulate
from caseflow import (
    HeuristicTable,
    UncorrelatedEvent,
    build_task_dependencies,
    strip_case_ids,
)
from caseflow.correlator import instance_probability
from caseflow.dependencies import non_cartesian_product
from caseflow.model import validate
from caseflow.store import CaseStore, CorrelatedEventInstance
from caseflow.streams import (
    GroundTruth,
    _ceil_seconds,
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
    rng = table.range_of("X")
    assert mn <= avg <= mx
    assert avg == math.ceil((mn + mx) / 2)
    assert avg not in rng
    assert rng | {avg} == set(range(mn, mx + 1))
    assert len(rng) == mx - mn


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
    assert _ceil_seconds(end.replace(microsecond=0) - start) == two_floor
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
    stripped, truth = strip_case_ids(events)
    assert truth.relabel(stripped) == events
    assert GroundTruth.from_events(events).sequence_labels(events) == [e.case_id for e in events]


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
