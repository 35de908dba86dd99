"""Duration windows: table validation, CSV round trip, extraction from logs."""

import csv
import random
import warnings
from datetime import datetime, timedelta

import pytest

import simulate
from caseflow import HeuristicError, HeuristicTable, UncorrelatedEvent, load_heuristics
from caseflow.heuristics import extract_heuristics, save_heuristics
from caseflow.streams import whole_seconds_between


def ev(second, activity, case_id=None, lifecycle=None, minute=55):
    return UncorrelatedEvent(
        timestamp=datetime(2019, 6, 16, 11, minute, second),
        activity=activity,
        lifecycle=lifecycle,
        case_id=case_id,
    )


def test_window_avg_and_range(clinic_table):
    assert clinic_table.window("B") == (1, 4)
    assert clinic_table.avg("B") == 3
    assert clinic_table.window("J") == (3, 4)
    assert clinic_table.avg("J") == 4
    # a one-second window collapses onto its average
    assert clinic_table.window("F") == (2, 2)
    assert clinic_table.avg("F") == 2


def test_membership(clinic_table):
    assert "B" in clinic_table
    assert "Z" not in clinic_table
    assert len(clinic_table.activities()) == 13


def test_window_unknown_activity(clinic_table):
    with pytest.raises(HeuristicError) as err:
        clinic_table.window("Z")
    assert err.value.code == "UNKNOWN_ACTIVITY"


@pytest.mark.parametrize(
    "entries,code",
    [
        ({"A": (0, 3)}, "NONPOSITIVE"),
        ({"A": (-1, 3)}, "NONPOSITIVE"),
        ({"A": (4, 3)}, "MIN_GT_MAX"),
        ({"A": (1.5, 3)}, "NON_INTEGER"),
    ],
)
def test_table_rejects_bad_windows(entries, code):
    with pytest.raises(HeuristicError) as err:
        HeuristicTable(entries)
    assert err.value.code == code


def test_load_empty_text_gives_empty_table():
    assert load_heuristics("").activities() == frozenset()
    assert load_heuristics("  \n ").activities() == frozenset()
    assert load_heuristics(" \t\n\r \n\u3000").activities() == frozenset()


def test_blank_lines_may_come_before_the_header():
    table = load_heuristics("\n\nactivity,min,max\nA,1,2\n")
    assert table.window("A") == (1, 2)
    with pytest.raises(HeuristicError, match="row 4: min/max must be integers"):
        load_heuristics("\n\nactivity,min,max\nA,x,2\n")


def test_lines_of_only_whitespace_may_come_before_the_header():
    assert load_heuristics(" \n\t\nactivity,min,max\nA,1,2\n").window("A") == (1, 2)
    with pytest.raises(HeuristicError, match="row 3: min/max must be integers"):
        load_heuristics(" \t\nactivity,min,max\nA,x,2\n")


@pytest.mark.parametrize(
    "text,code",
    [
        ("activity,min\nA,1\n", "MISSING_COLUMN"),
        ("activity,min,max\nA,x,3\n", "MALFORMED_ROW"),
        ("activity,min,max\n,1,3\n", "MALFORMED_ROW"),
        ("activity,min,max\nA,1,3\nA,2,4\n", "DUPLICATE_ACTIVITY"),
    ],
)
def test_load_rejects_bad_csv(text, code):
    with pytest.raises(HeuristicError) as err:
        load_heuristics(text)
    assert err.value.code == code


def test_malformed_row_reports_its_position():
    with pytest.raises(HeuristicError, match="row 3:"):
        load_heuristics("activity,min,max\nA,1,3\nB,oops,4\n")
    # the line of the file, counting a blank one
    with pytest.raises(HeuristicError, match="row 4:"):
        load_heuristics("activity,min,max\nA,1,5\n\nB,x,5\n")


def test_a_cell_over_the_csv_field_limit_is_a_malformed_row_on_its_line():
    with pytest.raises(HeuristicError) as err:
        load_heuristics("activity,min,max\nA,1,2\n" + "B" * 200_000 + ",1,2\n")
    assert err.value.code == "MALFORMED_ROW"
    assert err.value.message == f"row 3: field larger than field limit ({csv.field_size_limit()})"


def test_a_bare_carriage_return_is_a_malformed_row_on_its_line():
    with pytest.raises(HeuristicError) as err:
        load_heuristics("activity,min,max\nA,1\r2,3\n")
    assert err.value.code == "MALFORMED_ROW"
    assert err.value.message.startswith("row 2: new-line character seen in unquoted field")


@pytest.mark.parametrize(
    "text",
    [
        "activity,min,max\n\nA,1,3\n\n\nB,2,4\n\n",  # blank lines
        "max,note,activity,min\n3,x,A,1\n4,,B,2\n",  # reordered and extra columns
        "activity,min,max,extra\nA,1,3,7,8\nB,2,4\n",  # cells past the header, a short extra
        "activity,min,max,max\nA,1,9,3\nB,2,0,4\n",  # a repeated name: its last column
        "activity,min,max\n  A , 1,3 \n\tB\t,\t2\t, 4\n",  # spaces around values
    ],
)
def test_load_reads_rows_by_column_name(text):
    assert dict(load_heuristics(text).items()) == {"A": (1, 3), "B": (2, 4)}


@pytest.mark.parametrize(
    "text,message",
    [
        ("activity,min,max\nA,1,3\nB,2\n", "row 3: min/max must be integers"),
        ("activity,min,max\nA,1,3\n\nB\n", "row 4: min/max must be integers"),
        ("min,max,activity\n1,3,A\n2,4\n", "row 3: empty activity"),
    ],
)
def test_load_names_the_line_of_a_short_row(text, message):
    with pytest.raises(HeuristicError) as err:
        load_heuristics(text)
    assert err.value.code == "MALFORMED_ROW"
    assert err.value.message == message


def test_save_load_round_trip(clinic_table):
    text = save_heuristics(clinic_table)
    again = load_heuristics(text)
    assert dict(again.items()) == dict(clinic_table.items())
    lines = text.splitlines()
    assert lines[0] == "activity,min,max"
    assert lines[1:] == sorted(lines[1:])


def test_extract_from_paired_stream():
    events = [
        ev(0, "A", 1, "started"),
        ev(1, "A", 1, "completed"),
        ev(1, "A", 2, "started"),
        ev(2, "A", 2, "completed"),
        ev(4, "A", 3, "started"),
        ev(5, "A", 3, "completed"),
        ev(5, "B", 1, "started"),
        ev(6, "B", 1, "completed"),
        ev(7, "A", None, "started"),  # no case id: skipped, or A would reach 6 s
        ev(13, "A", None, "completed"),
    ]
    table = extract_heuristics(events)
    assert table.window("A") == (1, 1)
    assert table.window("B") == (1, 1)


def test_paired_extraction_matches_first_in_first_out():
    events = [
        ev(0, "A", 1, "started"),
        ev(1, "A", 1, "started"),
        ev(2, "A", 1, "completed"),
        ev(5, "A", 1, "completed"),
    ]
    table = extract_heuristics(events)
    assert table.window("A") == (2, 4)


def test_paired_extraction_skips_unmatched_completion():
    events = [ev(0, "A", 1, "started"), ev(1, "B", 1, "completed"), ev(2, "A", 1, "completed")]
    with pytest.warns(RuntimeWarning, match="without a matching start"):
        table = extract_heuristics(events)
    assert "B" not in table
    assert table.window("A") == (2, 2)


def test_nonpositive_durations_are_dropped_with_warning():
    events = [
        ev(0, "A", 1, "started"),
        ev(0, "A", 1, "completed"),
        ev(3, "B", 1, "started"),
        ev(4, "B", 1, "completed"),
    ]
    with pytest.warns(RuntimeWarning, match="non-positive duration"):
        table = extract_heuristics(events)
    assert "A" not in table
    assert table.window("B") == (1, 1)


def test_completions_only_requires_dependencies():
    with pytest.raises(HeuristicError) as err:
        extract_heuristics([ev(0, "A", 1)])
    assert err.value.code == "MISSING_TD"


CASE2 = [
    (2, "A"), (3, "B"), (4, "C"), (6, "B"), (7, "D"), (8, "J"), (11, "I"),
    (13, "E"), (14, "E"), (15, "F"), (16, "L"), (17, "G"), (18, "H"),
    (19, "E"), (20, "G"), (21, "L"), (22, "L"), (23, "N"), (24, "B"),
    (25, "M"), (26, "C"), (27, "I"), (28, "M"), (29, "J"), (31, "L"),
    (32, "M"),
]


def test_extract_from_completions_only_stream(clinic_td):
    events = [ev(s, a, case_id=2) for s, a in CASE2]
    table = extract_heuristics(events, clinic_td)
    expected = {
        "B": (1, 4),
        "C": (1, 2),
        "D": (1, 1),
        "E": (1, 7),
        "F": (1, 1),
        "G": (1, 3),
        "H": (3, 3),
        "I": (1, 7),
        "J": (3, 4),
        "L": (1, 5),
        "M": (1, 6),
        "N": (1, 1),
    }
    assert dict(table.items()) == expected
    # start activities never wait on predecessors, so they yield no window
    assert "A" not in table


def test_completions_only_skips_unknown_activities(clinic_td):
    events = [ev(2, "A", 1), ev(3, "Z", 1), ev(4, "B", 1)]
    with pytest.warns(RuntimeWarning, match="unknown activity"):
        table = extract_heuristics(events, clinic_td)
    # Z never enters the history, so B anchors on A two seconds back
    assert table.window("B") == (2, 2)
    assert "Z" not in table


def test_events_without_case_ids_are_ignored(clinic_td):
    events = [ev(2, "A", 1), ev(3, "B", None), ev(5, "B", 1)]
    table = extract_heuristics(events, clinic_td)
    assert table.window("B") == (3, 3)


def test_extract_empty_stream(clinic_td):
    assert extract_heuristics([], clinic_td).activities() == frozenset()


def scanned_windows(events, td):
    """The completions-only windows, each member's latest earlier occurrence
    found by scanning its whole history in the case."""
    seen, durations = {}, {}
    for ev in sorted(events, key=lambda e: e.timestamp):
        history = seen.setdefault(ev.case_id, {})
        anchors = []
        for alternative in td.alternatives(ev.activity):
            latest = []
            for member in alternative:
                prior = [t for t in history.get(member, ()) if t < ev.timestamp]
                if not prior:
                    break
                latest.append(prior[-1])
            else:
                anchors.append(max(latest))
        if anchors:
            seconds = whole_seconds_between(max(anchors), ev.timestamp)
            if seconds > 0:
                durations.setdefault(ev.activity, []).append(seconds)
        history.setdefault(ev.activity, []).append(ev.timestamp)
    return {a: (min(ds), max(ds)) for a, ds in durations.items()}


@pytest.mark.parametrize("seed, grain", [(1, 1), (2, 1), (3, 5), (4, 30)])
def test_completions_only_windows_equal_a_scan_of_each_history(clinic_net, clinic_table,
                                                               clinic_td, seed, grain):
    # F and N repeat the loops E-F-H and L-N-B; a coarser grain floors many
    # occurrences in one case onto one timestamp, where only a strictly
    # earlier member may anchor
    log = simulate.simulate_log(clinic_net, clinic_table, random.Random(seed), 40,
                                weights={"F": 6, "N": 3})
    step = timedelta(seconds=grain)
    log = [e._replace(timestamp=datetime.min + (e.timestamp - datetime.min) // step * step)
           for e in log]
    assert max(sum(e.case_id == c for e in log) for c in range(1, 41)) >= 100
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # floored durations of 0 are dropped
        table = extract_heuristics(log, clinic_td)
    assert dict(table.items()) == scanned_windows(log, clinic_td)
