"""Invariant checks over generated inputs."""

import csv
import io
import math
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simulate
from caseflow import (
    Correlator,
    HeuristicTable,
    UncorrelatedEvent,
    build_task_dependencies,
    read_events,
    strip_case_ids,
)
from caseflow.correlator import kind_probabilities
from caseflow.dependencies import non_cartesian_product
from caseflow.evaluation import ConfusionCounts, align_cases, f_score, score
from caseflow.model import parse_pnml, validate
from caseflow.store import CaseStore, CorrelatedEventInstance, ExportWriter
from caseflow.streams import (
    floor_to_second,
    format_timestamp,
    parse_timestamp,
    whole_seconds_between,
)
from simulate import events_to_csv

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


@given(st.integers(2, 12), window_strategy)
def test_kind_probabilities_are_probabilities(m, window):
    mn, mx = window
    probability = kind_probabilities(m, mn, mx)
    # range is empty unless the window holds values besides the average
    assert probability.keys() == ({"avg", "range"} if mx > mn else {"avg"})
    assert 0 < probability["avg"] <= 1
    if mx > mn:
        assert 0 < probability["range"] < probability["avg"]


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


# per event: its true id and the (case id, trust) of each instance, none for a noise
# instance; few trusts, so that ties are common
scored_events = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(1, 4), st.sampled_from("abcd")),
        st.dictionaries(st.integers(1, 5), st.sampled_from([25.0, 50.0, 75.0, 100.0]), max_size=3),
    ),
    max_size=8,
)


def tally_event_by_event(events, mode, threshold):
    """score's tallies, counted one event at a time against align_cases."""
    picks = []
    for true, trusts in events:
        if mode == "threshold":
            chosen = [case for case, trust in trusts.items() if trust >= threshold]
        else:
            chosen = [min(trusts, key=lambda case: (-trusts[case], case))] if trusts else []
        picks.append((true, chosen))
    mapping = align_cases([(case, true) for true, chosen in picks for case in chosen])
    tp = fp = fn = 0
    for true, chosen in picks:
        if not chosen and true is not None:
            fn += 1
        for case in chosen:
            if true is not None and mapping.get(case) == true:
                tp += 1
            else:
                fp += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


@given(scored_events, st.sampled_from([("max_trust", None), ("threshold", 0.0),
                                       ("threshold", 50.0), ("threshold", 100.0)]), st.randoms())
def test_score_counts_as_event_by_event(events, selection, rng):
    mode, threshold = selection
    ts = datetime(2021, 3, 1, 9, 0)
    instances = [
        CorrelatedEventInstance(ts, "X", case, trust, seq=seq)
        for seq, (_, trusts) in enumerate(events) for case, trust in trusts.items()
    ] + [
        CorrelatedEventInstance(ts, "X", None, None, noise_reason="no-allocation", seq=seq)
        for seq, (_, trusts) in enumerate(events) if not trusts
    ]
    rng.shuffle(instances)
    labels = [true for true, _ in events]
    expected = tally_event_by_event(events, mode, threshold)
    # a one-shot iterable is read once, as a list is
    assert score(instances, labels, mode=mode, threshold=threshold) == expected
    assert score(iter(instances), labels, mode=mode, threshold=threshold) == expected


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
    assert tuple(e._replace(case_id=c) for e, c in zip(stripped, labels)) == events


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


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_generated_nets_read_back_from_each_pnml_form(seed):
    net = simulate.random_net(random.Random(seed))
    td = build_task_dependencies(net)
    arcs = simulate.arcs(net)
    for form in simulate.PNML_FORMS:
        parsed = parse_pnml(simulate.net_to_pnml(net, form))
        assert parsed.places == net.places, form
        assert parsed.transitions == net.transitions, form  # ids, labels, silent flags
        assert simulate.arcs(parsed) == arcs, form
        assert build_task_dependencies(parsed) == td, form
        for node in parsed.places | {t.tid for t in parsed.transitions}:
            pre, post = parsed.preset(node), parsed.postset(node)
            assert type(pre) is frozenset and type(post) is frozenset
            assert pre == {src for src, dst in arcs if dst == node}, (form, node)
            assert post == {dst for src, dst in arcs if src == node}, (form, node)


def correlate_spaced_cases(seed, paired, n_cases):
    """The instances and true labels of n_cases simulated on random_net(seed),
    windows drawn as the brute-force acceptance test draws them, each case
    started more than the reach (the widest window + 1 s) after the previous
    case's last event."""
    rng = random.Random(seed)
    net = simulate.random_net(rng)
    windows = {}
    for activity in sorted(net.observable_labels()):
        mn = rng.randint(1, 3)
        windows[activity] = (mn, mn + rng.randint(0, 4))
    table = HeuristicTable(windows)
    gap = timedelta(seconds=max(mx for _, mx in windows.values()) + 2)
    log, start = [], simulate.BASE_TS
    for case_id in range(1, n_cases + 1):
        case = simulate.simulate_case(net, table, rng, case_id, start, paired=paired)
        log.extend(case)
        start = max(event.timestamp for event in case) + gap
    log.sort(key=lambda event: event.timestamp)
    stream, labels = strip_case_ids(log)
    correlator = Correlator(build_task_dependencies(net), table)
    for event in stream:
        correlator.ingest(event)
    return correlator.store.instances(), labels


# trust is not pinned at 100: an event whose allocations all lie in its one
# case can still score below it, as the formula's m counts allocations
@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_a_lone_generated_case_comes_out_as_one_case(seed, paired):
    instances, _ = correlate_spaced_cases(seed, paired, 1)
    assert not any(inst.is_noise() for inst in instances)
    assert len({inst.case_id for inst in instances}) == 1


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_generated_cases_spaced_beyond_the_reach_come_out_whole(seed, paired):
    instances, labels = correlate_spaced_cases(seed, paired, 5)
    assert not any(inst.is_noise() for inst in instances)
    assert len({inst.case_id for inst in instances}) == 5
    assert f_score(score(instances, labels, mode="max_trust")) == 1.0
