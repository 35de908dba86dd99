"""Duration windows: table validation, CSV round trip, extraction from logs."""

from datetime import datetime

import pytest

from caseflow import HeuristicError, HeuristicTable, UncorrelatedEvent, load_heuristics
from caseflow.heuristics import extract_heuristics, save_heuristics


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
    assert len(clinic_table) == 13


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
    assert len(load_heuristics("")) == 0
    assert len(load_heuristics("  \n ")) == 0


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
    with pytest.raises(HeuristicError, match="row 3"):
        load_heuristics("activity,min,max\nA,1,3\nB,oops,4\n")


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
    assert len(extract_heuristics([], clinic_td)) == 0
