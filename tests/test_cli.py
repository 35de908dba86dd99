"""End-to-end command behavior through the click runner."""

import json

import pytest
from click.testing import CliRunner

from caseflow import load_heuristics
from caseflow.cli import main

TOY_NET = """
place p0
place p1
place p2
transition ta A
transition tb B
arc p0 ta
arc ta p1
arc p1 tb
arc tb p2
"""

TWO_SOURCE_NET = TOY_NET + "place extra\narc extra tb\n"

SELF_EVAL_LOG = (
    "timestamp,activity,case_id\n"
    "2021-03-01 09:00:00,A,1\n"
    "2021-03-01 09:00:03,B,1\n"
    "2021-03-01 09:05:00,A,2\n"
    "2021-03-01 09:05:03,B,2\n"
)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def model_args(data_dir):
    return ("--model", str(data_dir / "clinic.net"))


def correlate_args(data_dir):
    return model_args(data_dir) + (
        "--heuristics", str(data_dir / "heuristics.csv"),
        "--input", str(data_dir / "stream.csv"),
    )


def test_analyze_emits_dependency_json(runner, data_dir, clinic_td):
    result = invoke(runner, "analyze", *model_args(data_dir))
    assert result.exit_code == 0
    assert json.loads(result.stdout) == clinic_td.to_json_dict()


def test_analyze_pnml_format_is_sniffed(runner, data_dir, clinic_td):
    result = invoke(runner, "analyze", "--model", str(data_dir / "clinic.pnml"))
    assert result.exit_code == 0
    assert json.loads(result.stdout) == clinic_td.to_json_dict()


def test_analyze_acyclic_net_has_no_loop_entries(runner, tmp_path):
    model = tmp_path / "toy.net"
    model.write_text(TOY_NET)
    result = invoke(runner, "analyze", "--model", str(model))
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["loop_entries"] == []
    assert doc["deps"] == {"A": [], "B": [["A"]]}


def test_analyze_rejects_invalid_net(runner, tmp_path):
    model = tmp_path / "two_sources.net"
    model.write_text(TWO_SOURCE_NET)
    result = invoke(runner, "analyze", "--model", str(model))
    assert result.exit_code == 2
    assert "UNIQUE_SOURCE" in result.stderr


def test_analyze_requires_a_model(runner):
    result = invoke(runner, "analyze")
    assert result.exit_code == 2
    assert "model file is required" in result.stderr


def test_analyze_writes_output_file(runner, data_dir, tmp_path, clinic_td):
    out = tmp_path / "td.json"
    result = invoke(runner, "analyze", *model_args(data_dir), "--output", str(out))
    assert result.exit_code == 0
    assert result.stdout == ""
    assert json.loads(out.read_text()) == clinic_td.to_json_dict()


def test_correlate_running_example(runner, data_dir):
    result = invoke(runner, "correlate", *correlate_args(data_dir))
    assert result.exit_code == 0
    assert "noise events: 0" in result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "case_id,timestamp,activity,trust,lifecycle,resource"
    assert len(lines) == 67  # 66 stored instances
    certain = [line for line in lines[1:] if line.split(",")[3] == "100.00"]
    assert [c.split(",")[0] + c.split(",")[2] for c in certain] == ["1A", "2A", "3A", "3B", "3D"]


def test_correlate_threshold_matches_external_filtering(runner, data_dir):
    full = invoke(runner, "correlate", *correlate_args(data_dir), "--threshold", "0")
    at_60 = invoke(runner, "correlate", *correlate_args(data_dir), "--threshold", "60")
    lines = full.stdout.splitlines()
    kept = [lines[0]] + [
        line for line in lines[1:]
        if line.split(",")[3] and float(line.split(",")[3]) >= 60
    ]
    assert at_60.stdout.splitlines() == kept


def test_correlate_empty_stream(runner, data_dir, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp,activity\n")
    result = invoke(
        runner, "correlate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(empty),
    )
    assert result.exit_code == 0
    assert result.stdout == "case_id,timestamp,activity,trust,lifecycle,resource\n"
    assert "noise events: 0" in result.stderr


def test_correlate_counts_unmodeled_activity_as_noise(runner, data_dir, tmp_path):
    stream = tmp_path / "stream.csv"
    stream.write_text(
        "timestamp,activity\n2021-03-01 09:00:00,A\n2021-03-01 09:00:01,ZZZ\n"
    )
    result = invoke(
        runner, "correlate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(stream),
    )
    assert result.exit_code == 0
    assert "noise events: 1" in result.stderr
    noise_rows = [l for l in result.stdout.splitlines()[1:] if l.startswith(",")]
    assert len(noise_rows) == 1 and ",ZZZ,," in noise_rows[0]


def test_correlate_rejects_naive_and_offset_timestamps_in_one_stream(runner, data_dir, tmp_path):
    stream = tmp_path / "stream.csv"
    stream.write_text(
        "timestamp,activity\n2019-06-16 11:55:01,A\n2019-06-16T11:55:03+00:00,A\n"
    )
    result = invoke(
        runner, "correlate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(stream),
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: MIXED_TIMEZONES: row 3")


def test_correlate_rejects_out_of_range_threshold(runner, data_dir):
    result = invoke(runner, "correlate", *correlate_args(data_dir), "--threshold", "250")
    assert result.exit_code == 2
    assert "threshold" in result.stderr


def test_correlate_requires_heuristics_covering_the_model(runner, data_dir, tmp_path):
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("activity,min,max\nA,1,1\n")
    result = invoke(
        runner, "correlate", *model_args(data_dir),
        "--heuristics", str(sparse), "--input", str(data_dir / "stream.csv"),
    )
    assert result.exit_code == 2
    assert "MISSING_HEURISTIC" in result.stderr


def test_evaluate_recovers_a_well_separated_log(runner, data_dir, tmp_path):
    log = tmp_path / "labeled.csv"
    log.write_text(SELF_EVAL_LOG)
    result = invoke(
        runner, "evaluate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--truth", str(log),
    )
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["tp"] == 4 and report["fp"] == 0 and report["fn"] == 0
    for field in ("precision", "recall", "f_score"):
        assert report[field] == 1.0
    assert set(report["latency_ms"]) == {"mean", "p99", "max"}


def test_evaluate_report_fields_stay_in_unit_range(runner, data_dir, tmp_path):
    # two simultaneous cases of the same shape cannot be told apart, so the
    # scores drop below 1 but must stay in [0, 1]
    log = tmp_path / "labeled.csv"
    log.write_text(
        "timestamp,activity,case_id\n"
        "2021-03-01 09:00:00,A,1\n"
        "2021-03-01 09:00:00,A,2\n"
        "2021-03-01 09:00:03,B,1\n"
        "2021-03-01 09:00:03,B,2\n"
    )
    result = invoke(
        runner, "evaluate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--truth", str(log),
    )
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    for field in ("precision", "recall", "f_score"):
        assert 0.0 <= report[field] <= 1.0


def test_evaluate_missing_truth_file(runner, data_dir, tmp_path):
    result = invoke(
        runner, "evaluate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"),
        "--truth", str(tmp_path / "nope.csv"),
    )
    assert result.exit_code == 2
    assert "cannot read input" in result.stderr


def test_evaluate_threshold_mode_needs_a_threshold(runner, data_dir, tmp_path):
    log = tmp_path / "labeled.csv"
    log.write_text(SELF_EVAL_LOG)
    result = invoke(
        runner, "evaluate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"),
        "--truth", str(log), "--mode", "threshold",
    )
    assert result.exit_code == 2
    assert "needs --threshold" in result.stderr


def test_extract_heuristics_from_labeled_log(runner, data_dir, tmp_path):
    seconds = [
        (2, "A"), (3, "B"), (4, "C"), (6, "B"), (7, "D"), (8, "J"), (11, "I"),
        (13, "E"), (14, "E"), (15, "F"), (16, "L"), (17, "G"), (18, "H"),
        (19, "E"), (20, "G"), (21, "L"), (22, "L"), (23, "N"), (24, "B"),
        (25, "M"), (26, "C"), (27, "I"), (28, "M"), (29, "J"), (31, "L"),
        (32, "M"),
    ]
    log = tmp_path / "case2.csv"
    log.write_text(
        "timestamp,activity,case_id\n"
        + "".join(f"2019-06-16 11:55:{s:02d},{a},2\n" for s, a in seconds)
    )
    result = invoke(
        runner, "extract-heuristics", "--input", str(log), *model_args(data_dir)
    )
    assert result.exit_code == 0
    table = load_heuristics(result.stdout)
    assert table.window("B") == (1, 4)
    assert table.window("E") == (1, 7)
    assert table.window("H") == (3, 3)
    # a single case cannot see every alternative, so windows may come out
    # narrower than the curated table, and F even lands outside it: its lone
    # occurrence here sits one second after E, not the curated two
    assert table.window("F") == (1, 1)
    assert "A" not in table


def test_extract_heuristics_empty_log(runner, tmp_path):
    log = tmp_path / "empty.csv"
    log.write_text("timestamp,activity,case_id\n")
    result = invoke(runner, "extract-heuristics", "--input", str(log))
    assert result.exit_code == 0
    assert result.stdout == "activity,min,max\n"


def test_extract_heuristics_without_timestamps(runner, tmp_path):
    log = tmp_path / "bad.csv"
    log.write_text("when,activity\nnow,A\n")
    result = invoke(runner, "extract-heuristics", "--input", str(log))
    assert result.exit_code == 2
    assert "MISSING_COLUMN" in result.stderr


def test_config_file_supplies_defaults(runner, data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"model = {data_dir / 'clinic.net'}\n"
        f"heuristics = {data_dir / 'heuristics.csv'}\n"
        f"input = {data_dir / 'stream.csv'}\n"
        "threshold = 60  # keep only confident rows\n"
    )
    via_config = invoke(runner, "correlate", "--config", str(cfg))
    via_flags = invoke(runner, "correlate", *correlate_args(data_dir), "--threshold", "60")
    assert via_config.exit_code == 0
    assert via_config.stdout == via_flags.stdout


def test_explicit_flag_overrides_config(runner, data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"model = {data_dir / 'clinic.net'}\n"
        f"heuristics = {data_dir / 'heuristics.csv'}\n"
        f"input = {data_dir / 'stream.csv'}\n"
        "threshold = 60\n"
    )
    overridden = invoke(runner, "correlate", "--config", str(cfg), "--threshold", "0")
    unfiltered = invoke(runner, "correlate", *correlate_args(data_dir))
    assert overridden.stdout == unfiltered.stdout
    assert len(overridden.stdout.splitlines()) == 67


def test_config_rejects_malformed_lines(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a line without equals\n")
    result = invoke(runner, "analyze", "--config", str(cfg))
    assert result.exit_code == 2
    assert "expected key=value" in result.stderr


def test_config_values_are_type_checked_like_flags(runner, data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threshold = abc\n")
    result = invoke(runner, "correlate", *correlate_args(data_dir), "--config", str(cfg))
    assert result.exit_code == 2
    assert "threshold" in result.stderr


def test_config_model_format_must_be_a_known_choice(runner, data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = {data_dir / 'clinic.net'}\nmodel_format = xml\n")
    result = invoke(runner, "analyze", "--config", str(cfg))
    assert result.exit_code == 2
    assert "model-format" in result.stderr


def test_evaluate_takes_the_labeled_log_from_config_input(runner, data_dir, tmp_path):
    log = tmp_path / "labeled.csv"
    log.write_text(SELF_EVAL_LOG)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {log}\nformat = csv\n")
    common = (*model_args(data_dir), "--heuristics", str(data_dir / "heuristics.csv"))
    via_config = invoke(runner, "evaluate", *common, "--config", str(cfg))
    via_truth = invoke(runner, "evaluate", *common, "--truth", str(log))
    assert via_config.exit_code == 0 and via_truth.exit_code == 0
    reports = [json.loads(r.stdout) for r in (via_config, via_truth)]
    for report in reports:
        del report["latency_ms"]
    assert reports[0] == reports[1]


def test_replay_echoes_in_delivery_order(runner, data_dir, clinic_events):
    from caseflow.streams import events_to_csv

    result = invoke(runner, "replay", "--input", str(data_dir / "stream.csv"))
    assert result.exit_code == 0
    assert result.stdout == events_to_csv(clinic_events)
    assert "delivered 30 events" in result.stderr
