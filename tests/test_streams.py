"""Stream reading, ground truth round trips, timed replay."""

import io
from datetime import datetime, timedelta, timezone

import pytest

from caseflow import (
    ReplayError,
    StreamFormatError,
    UncorrelatedEvent,
    read_events,
    replay,
    strip_case_ids,
)
from caseflow.streams import (
    GroundTruth,
    events_to_csv,
    format_timestamp,
    parse_timestamp,
    whole_seconds_between,
)


def ev(second, activity, case_id=None, micro=0):
    return UncorrelatedEvent(
        timestamp=datetime(2019, 6, 16, 11, 55, second, micro),
        activity=activity,
        case_id=case_id,
    )


@pytest.mark.parametrize(
    "text",
    [
        "2019-06-16 11:55:01",
        "2019-06-16T11:55:01",
        "2019-6-16 11:55:01",  # unpadded month, as some exporters write it
        " 2019-06-16 11:55:01 ",
    ],
)
def test_parse_timestamp_accepted_shapes(text):
    assert parse_timestamp(text) == datetime(2019, 6, 16, 11, 55, 1)


def test_parse_timestamp_minute_precision_and_micros():
    assert parse_timestamp("2019-06-16 11:55") == datetime(2019, 6, 16, 11, 55)
    assert parse_timestamp("2019-06-16 11:55:01.250000") == datetime(2019, 6, 16, 11, 55, 1, 250000)


def test_parse_timestamp_rejects_garbage():
    with pytest.raises(StreamFormatError) as err:
        parse_timestamp("yesterday at noon")
    assert err.value.code == "BAD_TIMESTAMP"


def test_format_timestamp_round_trip():
    ts = datetime(2019, 6, 16, 11, 55, 1)
    assert parse_timestamp(format_timestamp(ts)) == ts
    assert format_timestamp(ts) == "2019-06-16 11:55:01"
    assert format_timestamp(ts.replace(microsecond=250000)) == "2019-06-16 11:55:01"


def test_format_timestamp_keeps_the_utc_offset():
    ts = datetime(2019, 6, 16, 13, 55, 1, tzinfo=timezone(timedelta(hours=2)))
    assert format_timestamp(ts) == "2019-06-16 13:55:01+02:00"
    assert parse_timestamp(format_timestamp(ts)) == ts
    events = (UncorrelatedEvent(ts, "A"), UncorrelatedEvent(ts.astimezone(timezone.utc), "B"))
    assert read_events(io.StringIO(events_to_csv(events))) == events


def test_whole_seconds_floor_before_differencing():
    a = datetime(2021, 3, 1, 9, 0, 1, 900000)
    b = datetime(2021, 3, 1, 9, 0, 3, 100000)
    # 1.2s apart, but both floor to whole seconds first
    assert whole_seconds_between(a, b) == 2
    assert whole_seconds_between(b, a) == -2
    assert whole_seconds_between(a, a) == 0


def test_read_events_csv_coercions():
    text = (
        "timestamp,activity,lifecycle,resource,case_id\n"
        "2019-6-16 11:55:01,A,Started,Noah,3\n"
        "2019-6-16 11:55:02,B,,,order-7\n"
        "2019-6-16 11:55:03,C,,,\n"
        "2019-6-16 11:55:04,D,,,007\n"
        "2019-6-16 11:55:05,E,,,²\n"
    )
    events = read_events(io.StringIO(text))
    assert events[0].lifecycle == "started"
    assert events[0].resource == "Noah"
    assert events[0].case_id == 3
    assert events[1].case_id == "order-7"
    assert events[1].lifecycle is None
    assert events[2].case_id is None
    assert events[3].case_id == 7
    # a digit that int() rejects stays a string id
    assert events[4].case_id == "²"


def test_read_events_minimal_columns_and_empty_file():
    events = read_events(io.StringIO("timestamp,activity\n2019-6-16 11:55:01,A\n"))
    assert len(events) == 1
    assert read_events(io.StringIO("")) == ()


def test_read_events_missing_column():
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO("timestamp,who\n2019-6-16 11:55:01,x\n"))
    assert err.value.code == "MISSING_COLUMN"


def test_read_events_blank_activity_is_a_bad_row():
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO("timestamp,activity\n2019-6-16 11:55:01,\n"))
    assert err.value.code == "BAD_ROW"


def test_read_events_unknown_format():
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(""), fmt="xes")
    assert err.value.code == "UNKNOWN_FORMAT"


def test_read_events_jsonl():
    text = (
        '{"timestamp": "2019-06-16 11:55:01", "activity": "A", "case_id": "2"}\n'
        "\n"
        '{"timestamp": "2019-06-16 11:55:02", "activity": "B"}\n'
    )
    events = read_events(io.StringIO(text), fmt="jsonl")
    assert [e.activity for e in events] == ["A", "B"]
    assert events[0].case_id == 2


def test_read_events_jsonl_bad_line():
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO("{not json}\n"), fmt="jsonl")
    assert err.value.code == "BAD_ROW"


def test_read_events_rejects_naive_and_offset_timestamps_in_one_stream():
    mixed = "timestamp,activity\n2019-06-16 11:55:01,A\n2019-06-16T11:55:03+00:00,A\n"
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(mixed))
    assert err.value.code == "MIXED_TIMEZONES"
    assert "row 3" in str(err.value)
    # jsonl rows are numbered by line, blank lines included
    mixed = (
        '{"timestamp": "2019-06-16T11:55:01+02:00", "activity": "A"}\n'
        "\n"
        '{"timestamp": "2019-06-16 11:55:03", "activity": "A"}\n'
    )
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(mixed), fmt="jsonl")
    assert err.value.code == "MIXED_TIMEZONES"
    assert "row 3" in str(err.value)
    # one kind throughout reads as before, offsets compared as instants
    offsets = "timestamp,activity\n2019-06-16T11:55:03+00:00,B\n2019-06-16T13:55:01+02:00,A\n"
    with pytest.warns(RuntimeWarning, match="out of order"):
        events = read_events(io.StringIO(offsets))
    assert [e.activity for e in events] == ["A", "B"]


def test_read_events_sorts_disordered_input_with_warning():
    text = (
        "timestamp,activity\n"
        "2019-6-16 11:55:05,B\n"
        "2019-6-16 11:55:01,A\n"
    )
    with pytest.warns(RuntimeWarning, match="out of order"):
        events = read_events(io.StringIO(text))
    assert [e.activity for e in events] == ["A", "B"]


def test_read_events_keeps_arrival_order_at_equal_timestamps():
    text = (
        "timestamp,activity\n"
        "2019-6-16 11:55:01,X\n"
        "2019-6-16 11:55:01,Y\n"
    )
    events = read_events(io.StringIO(text))
    assert [e.activity for e in events] == ["X", "Y"]


def test_events_to_csv_round_trip(clinic_events):
    text = events_to_csv(clinic_events)
    again = read_events(io.StringIO(text))
    assert again == clinic_events


def test_strip_then_relabel_is_identity():
    original = (ev(1, "A", 1), ev(1, "A", 2), ev(2, "B", "x"), ev(3, "B", None))
    stripped, truth = strip_case_ids(original)
    assert all(e.case_id is None for e in stripped)
    assert truth.relabel(stripped) == original


def test_ground_truth_distinguishes_same_instant_occurrences():
    original = (ev(1, "A", 7), ev(1, "A", 8))
    truth = GroundTruth.from_events(original)
    assert truth.sequence_labels(original) == [7, 8]


def test_replay_fast_path_counts_and_times_deliveries():
    events = [ev(1, "A"), ev(2, "B"), ev(9, "C")]
    seen = []
    report = replay(events, seen.append)
    assert report.delivered == 3
    assert seen == events
    assert 0 <= report.wall_seconds < 1.0


def test_replay_empty_stream():
    report = replay([], lambda e: None)
    assert report.delivered == 0


def test_replay_paces_by_stream_time_over_speedup():
    events = [ev(0, "A"), ev(2, "B")]
    report = replay(events, lambda e: None, speedup=20)
    # two stream-seconds at 20x is a tenth of a wall second
    assert report.wall_seconds >= 0.09
    assert report.wall_seconds < 1.0


def test_replay_rejects_nonpositive_speedup():
    with pytest.raises(ValueError):
        replay([ev(1, "A")], lambda e: None, speedup=0)


def test_replay_draws_events_only_as_the_sink_takes_them():
    def source(k):
        for second in range(k):
            yield ev(second, "A")
        raise RuntimeError("source failed")

    seen = []
    with pytest.raises(RuntimeError, match="source failed"):
        replay(source(3), seen.append)
    assert [e.timestamp.second for e in seen] == [0, 1, 2]


def test_replay_wraps_sink_failures_with_position():
    def sink(event):
        if event.activity == "B":
            raise RuntimeError("boom")

    with pytest.raises(ReplayError) as err:
        replay([ev(1, "A"), ev(2, "B")], sink)
    assert err.value.position == 1
    assert "boom" in str(err.value)
