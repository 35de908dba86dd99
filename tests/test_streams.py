"""Stream reading, ground truth round trips, timed replay."""

import csv
import io
import json
import sys
from datetime import datetime, timedelta, timezone

import pytest

from caseflow import (
    StreamFormatError,
    UncorrelatedEvent,
    read_events,
    replay,
    strip_case_ids,
)
from caseflow.streams import (
    format_timestamp,
    iter_events,
    parse_timestamp,
    whole_seconds_between,
)
from simulate import events_to_csv


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


@pytest.mark.parametrize("text", ["2019-06-16T11:55:01Z", "2019-06-16 11:55:01z",
                                  "2019-06-16T11:55:01.250Z", " 2019-06-16T11:55:01Z "])
def test_parse_timestamp_reads_a_trailing_z_as_utc(text):
    # Python 3.10's fromisoformat reads no Z, and no version reads z
    parsed = parse_timestamp(text)
    assert parsed.replace(microsecond=0) == datetime(2019, 6, 16, 11, 55, 1, tzinfo=timezone.utc)
    assert parsed.utcoffset() == timedelta(0)
    assert format_timestamp(parsed) == "2019-06-16 11:55:01+00:00"
    with pytest.raises(StreamFormatError):
        parse_timestamp("2019-06-16T11:55:61Z")


def test_parse_timestamp_reads_the_iso_forms_of_3_11_from_3_11_on():
    # only Python 3.11's fromisoformat reads an offset without a colon or a
    # fraction of 1, 2, 4 or 5 digits, and no fallback format reads either
    offset, fraction = "2019-06-16T11:55:01+0200", "2019-06-16T11:55:01.5"
    if sys.version_info >= (3, 11):
        assert parse_timestamp(offset).utcoffset() == timedelta(hours=2)
        assert parse_timestamp(fraction) == datetime(2019, 6, 16, 11, 55, 1, 500_000)
    else:
        for text in (offset, fraction):
            with pytest.raises(StreamFormatError) as err:
                parse_timestamp(text)
            assert err.value.code == "BAD_TIMESTAMP"


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


def test_read_events_jsonl():
    text = (
        '{"timestamp": "2019-06-16 11:55:01", "activity": "A", "case_id": "2"}\n'
        "\n"
        '{"timestamp": "2019-06-16 11:55:02", "activity": "B"}\n'
    )
    events = read_events(io.StringIO(text))
    assert [e.activity for e in events] == ["A", "B"]
    assert events[0].case_id == 2


def test_read_events_jsonl_bad_line():
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO("{not json}\n"))
    assert err.value.code == "BAD_ROW"
    assert "row 1" in str(err.value)


def test_read_events_jsonl_line_that_is_not_an_object_is_a_bad_row():
    for line in ("[1, 2]", "null", '"2019-06-16 11:55:01,A"', "7"):
        text = '{"timestamp": "2019-06-16 11:55:01", "activity": "A"}\n' + line + "\n"
        with pytest.raises(StreamFormatError) as err:
            read_events(io.StringIO(text))
        assert err.value.code == "BAD_ROW"
        assert "row 2" in str(err.value)


def test_the_first_non_blank_line_picks_the_format():
    row = '{"timestamp": "2019-06-16 11:55:01", "activity": "A"}'
    # the blank lines read to find it are read again, and counted
    assert read_events(io.StringIO(f"\n \n\t{row}\n")) == (ev(1, "A"),)
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(f"\n{row}\n\n{{bad}}\n"))
    assert str(err.value).startswith("BAD_ROW: row 4: ")
    # a first line that is not an object is a CSV header
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(f"[1, 2]\n{row}\n"))
    assert str(err.value) == "MISSING_COLUMN: missing column(s) ['activity', 'timestamp']"
    # a CSV header, too, is the first non-blank line, and the lines before it are counted
    assert read_events(io.StringIO("\n\ntimestamp,activity\n2019-06-16 11:55:01,A\n")) == (ev(1, "A"),)
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO("\ntimestamp,activity\nbad,A\n"))
    assert str(err.value) == "BAD_TIMESTAMP: row 3: cannot parse timestamp 'bad'"


@pytest.mark.parametrize("blank", [" ", "\t", " \t "])
def test_lines_of_only_whitespace_may_come_before_a_csv_header(blank):
    text = f"{blank}\n\n{blank}\ntimestamp,activity\n2019-06-16 11:55:01,A\n"
    assert read_events(io.StringIO(text)) == (ev(1, "A"),)
    # row numbers count them
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(f"{blank}\ntimestamp,activity\nbad,A\n"))
    assert str(err.value) == "BAD_TIMESTAMP: row 3: cannot parse timestamp 'bad'"
    # after the header, such a line is a row as before
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(f"timestamp,activity\n{blank}\n2019-06-16 11:55:01,A\n"))
    assert str(err.value) == "BAD_ROW: row 2: needs timestamp and activity"


@pytest.mark.parametrize("text", [
    "timestamp,activity\n2019-06-16 11:55:01,A\n2019-06-16 11:55:02,B\n",
    '\n{"timestamp": "2019-06-16 11:55:01", "activity": "A"}\n'
    '{"timestamp": "2019-06-16 11:55:02", "activity": "B"}\n',
], ids=["csv", "jsonl"])
def test_iter_events_reads_no_further_ahead_than_the_row_it_yields(text):
    pulled = []

    def lines():
        for line in io.StringIO(text):
            pulled.append(line)
            yield line

    events = iter_events(lines())
    assert (next(events), len(pulled)) == (ev(1, "A"), 2)
    assert (next(events), len(pulled)) == (ev(2, "B"), 3)


def test_read_events_csv_errors_name_the_line_of_the_file():
    # a blank line and a quoted field over two lines come before line 6
    text = (
        "timestamp,activity,resource\n"
        "2019-06-16 11:55:01,A,\n"
        "\n"
        '2019-06-16 11:55:02,B,"Noah\nvan Dijk"\n'
        "2019-06-16 11:55:03,\n"
    )
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(text))
    assert str(err.value) == "BAD_ROW: row 6: needs timestamp and activity"
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(text.replace("2019-06-16 11:55:03,", "bad,C")))
    assert str(err.value) == "BAD_TIMESTAMP: row 6: cannot parse timestamp 'bad'"
    jsonl = '{"timestamp": "2019-06-16 11:55:01", "activity": "A"}\n\n{"timestamp": "bad", "activity": "A"}\n'
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(jsonl))
    assert str(err.value) == "BAD_TIMESTAMP: row 3: cannot parse timestamp 'bad'"


def test_a_cell_over_the_csv_field_limit_is_a_bad_row_on_its_line():
    text = "timestamp,activity\n2019-06-16 11:55:01,A\n2019-06-16 11:55:02," + "B" * 200_000 + "\n"
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(text))
    assert err.value.code == "BAD_ROW"
    assert err.value.message == f"row 3: field larger than field limit ({csv.field_size_limit()})"


INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="int() reads a decimal string of any length")
def test_a_case_id_over_the_integer_digit_limit_is_a_bad_row():
    # an id at the limit is still an integer; one digit more, int() refuses it
    limit = INT_MAX_STR_DIGITS
    csv_text = "timestamp,activity,case_id\n2019-06-16 11:55:01,A,{}\n"
    assert read_events(io.StringIO(csv_text.format("7" * limit)))[0].case_id == int("7" * limit)
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO(csv_text.format("7" * (limit + 1))))
    assert str(err.value) == f"BAD_ROW: row 2: case id of {limit + 1} digits is too long"
    # as a JSON string the id is read as in CSV; as a JSON number, json refuses it
    jsonl = '{{"timestamp": "2019-06-16 11:55:01", "activity": "A", "case_id": {}}}\n'
    for case_id in (f'"{"7" * (limit + 1)}"', "7" * (limit + 1)):
        with pytest.raises(StreamFormatError) as err:
            read_events(io.StringIO(jsonl.format(case_id)))
        assert str(err.value).startswith("BAD_ROW: row 1: ")


def test_a_bare_carriage_return_in_memory_is_a_bad_row_on_its_line():
    # a file opened in text mode reads it as a line break; in-memory text does not
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO("timestamp,activity\n2019-06-16 11:55:01,A\rB\n"))
    assert err.value.code == "BAD_ROW"
    assert err.value.message.startswith("row 2: new-line character seen in unquoted field")


@pytest.mark.parametrize("columns", ["required", "all"])
def test_a_csv_row_and_a_json_line_read_as_the_keyword_built_event(columns):
    if columns == "required":
        row = {"timestamp": "2019-06-16 11:55:01", "activity": "A"}
        expected = UncorrelatedEvent(timestamp=datetime(2019, 6, 16, 11, 55, 1), activity="A")
    else:
        row = {"timestamp": "2019-06-16 11:55:01", "activity": "A", "lifecycle": "Started",
               "resource": "Noah", "case_id": "3"}
        expected = UncorrelatedEvent(timestamp=datetime(2019, 6, 16, 11, 55, 1), activity="A",
                                     lifecycle="started", resource="Noah", case_id=3)
    csv_text = ",".join(row) + "\n" + ",".join(row.values()) + "\n"
    for text in (csv_text, json.dumps(row) + "\n"):
        (event,) = read_events(io.StringIO(text))
        assert type(event) is UncorrelatedEvent
        assert event == expected
        assert event._replace(case_id=None) == UncorrelatedEvent(
            expected.timestamp, expected.activity, expected.lifecycle, expected.resource)
        assert strip_case_ids([event]) == ((event._replace(case_id=None),), [expected.case_id])


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_read_events_reports_an_undecodable_byte_by_its_offset_in_the_file(tmp_path, fmt):
    # past the first chunk the text layer decodes, so the decoder's own
    # position would count from that chunk's start, not the file's
    row = ('{"timestamp": "2019-06-16 11:55:01", "activity": "A"}\n' if fmt == "jsonl"
           else "2019-06-16 11:55:01,A\n")
    head = ("" if fmt == "jsonl" else "timestamp,activity\n") + row * 1000
    path = tmp_path / "stream"
    path.write_bytes(head.encode() + b"\xff\n")
    with pytest.raises(StreamFormatError) as err:
        read_events(path)
    assert err.value.code == "BAD_ENCODING"
    assert str(err.value) == (f"BAD_ENCODING: byte 0xff at offset {len(head)} is not valid utf-8 "
                              "(invalid start byte)")


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_read_events_from_a_path_drops_a_byte_order_mark(tmp_path, fmt):
    text = ("timestamp,activity\n2019-06-16 11:55:01,A\n2019-06-16 11:55:02,B\n" if fmt == "csv"
            else '{"timestamp": "2019-06-16 11:55:01", "activity": "A"}\n'
                 '{"timestamp": "2019-06-16 11:55:02", "activity": "B"}\n')
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    assert read_events(marked) == read_events(plain) == (ev(1, "A"), ev(2, "B"))


@pytest.mark.parametrize("rows", [1, 1000], ids=["first-chunk", "later-chunk"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_byte_order_mark_counts_in_an_undecodable_byte_s_offset(tmp_path, fmt, rows):
    row = ('{"timestamp": "2019-06-16 11:55:01", "activity": "A"}\n' if fmt == "jsonl"
           else "2019-06-16 11:55:01,A\n")
    head = ("" if fmt == "jsonl" else "timestamp,activity\n") + row * rows
    path = tmp_path / "stream"
    path.write_bytes(BOM + head.encode() + b"\xff\n")
    with pytest.raises(StreamFormatError) as err:
        read_events(path)
    assert str(err.value) == (f"BAD_ENCODING: byte 0xff at offset {len(BOM) + len(head)} is not "
                              "valid utf-8 (invalid start byte)")


def test_read_events_csv_columns_read_as_a_dict_reader_reads_them():
    text = (
        "activity,timestamp,activity,case_id\n"
        "X,2019-06-16 11:55:01,A,4,surplus\n"  # a repeated name reads its last column
        "\n"
        "X,2019-06-16 11:55:02,B\n"  # a short row's missing cells are None
    )
    events = read_events(io.StringIO(text))
    assert events == (
        UncorrelatedEvent(datetime(2019, 6, 16, 11, 55, 1), "A", case_id=4),
        UncorrelatedEvent(datetime(2019, 6, 16, 11, 55, 2), "B"),
    )
    with pytest.raises(StreamFormatError) as err:
        read_events(io.StringIO("activity,timestamp,activity\nA,2019-06-16 11:55:01\n"))
    assert str(err.value) == "BAD_ROW: row 2: needs timestamp and activity"


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
        read_events(io.StringIO(mixed))
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
    stripped, labels = strip_case_ids(original)
    assert all(e.case_id is None for e in stripped)
    assert labels == [e.case_id for e in original]
    assert tuple(e._replace(case_id=c) for e, c in zip(stripped, labels)) == original
    assert strip_case_ids(iter(original)) == (stripped, labels)


def test_ground_truth_distinguishes_same_instant_occurrences():
    # two occurrences of one activity at one instant keep their own ids
    original = (ev(1, "A", 7), ev(1, "A", 8))
    stripped, labels = strip_case_ids(original)
    assert stripped[0] == stripped[1]
    assert labels == [7, 8]


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


def test_replay_rejects_a_nan_speedup():
    delivered = []
    with pytest.raises(ValueError):
        replay([ev(1, "A")], delivered.append, speedup=float("nan"))
    assert delivered == []


def test_replay_draws_events_only_as_the_sink_takes_them():
    def source(k):
        for second in range(k):
            yield ev(second, "A")
        raise RuntimeError("source failed")

    seen = []
    with pytest.raises(RuntimeError, match="source failed"):
        replay(source(3), seen.append)
    assert [e.timestamp.second for e in seen] == [0, 1, 2]


def test_a_sink_failure_passes_through_replay_as_it_is():
    # as a failure of the iterable does
    failure = KeyError("boom")
    delivered = []

    def sink(event):
        if event.activity == "B":
            raise failure
        delivered.append(event)

    with pytest.raises(KeyError) as err:
        replay([ev(1, "A"), ev(1, "B"), ev(2, "C")], sink)
    assert err.value is failure
    assert [e.activity for e in delivered] == ["A"]


def test_paced_replay_reports_sink_and_source_failures_as_the_fast_path_does():
    failure = KeyError("boom")
    delivered = []

    def sink(event):
        if event.activity == "B":
            raise failure
        delivered.append(event)

    with pytest.raises(KeyError) as err:
        replay([ev(1, "A"), ev(1, "B"), ev(2, "C")], sink, speedup=1e6)
    assert err.value is failure
    assert [e.activity for e in delivered] == ["A"]

    def source():
        yield ev(1, "A")
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        replay(source(), lambda event: None, speedup=1e6)
