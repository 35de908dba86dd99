"""End-to-end command behavior, run in this process through the argparse front end."""

import gc
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import threading
import time
import warnings
from datetime import datetime
from pathlib import Path

import pytest

import caseflow
import cli_runner
import simulate
from caseflow import (
    Correlator,
    build_task_dependencies,
    load_heuristics,
    read_events,
    strip_case_ids,
)
from caseflow.cli import _Parser
from caseflow.evaluation import build_report, score
from caseflow.model import parse_simple_net
from simulate import events_to_csv

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


def model_args(data_dir):
    return ("--model", str(data_dir / "clinic.net"))


def correlate_args(data_dir):
    return model_args(data_dir) + (
        "--heuristics", str(data_dir / "heuristics.csv"),
        "--input", str(data_dir / "stream.csv"),
    )


def test_analyze_emits_dependency_json(data_dir, clinic_td):
    result = cli_runner.invoke("analyze", *model_args(data_dir))
    assert result.exit_code == 0
    assert json.loads(result.stdout) == clinic_td.to_json_dict()


def test_analyze_pnml_format_is_sniffed(data_dir, clinic_td):
    result = cli_runner.invoke("analyze", "--model", str(data_dir / "clinic.pnml"))
    assert result.exit_code == 0
    assert json.loads(result.stdout) == clinic_td.to_json_dict()


def test_analyze_acyclic_net_has_no_loop_entries(tmp_path):
    model = tmp_path / "toy.net"
    model.write_text(TOY_NET)
    result = cli_runner.invoke("analyze", "--model", str(model))
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["loop_entries"] == []
    assert doc["deps"] == {"A": [], "B": [["A"]]}


def test_analyze_rejects_invalid_net(tmp_path):
    model = tmp_path / "two_sources.net"
    model.write_text(TWO_SOURCE_NET)
    result = cli_runner.invoke("analyze", "--model", str(model))
    assert result.exit_code == 2
    assert "UNIQUE_SOURCE" in result.stderr


def test_analyze_writes_output_file(data_dir, tmp_path, clinic_td):
    out = tmp_path / "td.json"
    result = cli_runner.invoke("analyze", *model_args(data_dir), "--output", str(out))
    assert result.exit_code == 0
    assert result.stdout == ""
    assert json.loads(out.read_text()) == clinic_td.to_json_dict()


def test_analyze_reports_an_unwritable_output(data_dir, tmp_path):
    result = cli_runner.invoke("analyze", *model_args(data_dir),
                               "--output", str(tmp_path / "missing" / "x.json"))
    assert result.exit_code == 2
    assert result.stderr.startswith("error: cannot write output")


def test_output_through_a_symlink_replaces_the_file_it_points_to(data_dir, tmp_path):
    plain = cli_runner.invoke("analyze", *model_args(data_dir))
    (tmp_path / "files").mkdir()
    (tmp_path / "links").mkdir()
    target = tmp_path / "files" / "td.json"
    target.write_text("old\n")
    link = tmp_path / "links" / "td.json"
    link.symlink_to(Path("..", "files", "td.json"))
    result = cli_runner.invoke("analyze", *model_args(data_dir), "--output", str(link))
    assert result.exit_code == 0, result.stderr
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text() == plain.stdout
    # the temporary file was made beside the file, and is gone
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "files", "files/td.json", "links", "links/td.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="makes a FIFO")
def test_output_to_a_fifo_is_written_in_place(data_dir, tmp_path):
    plain = cli_runner.invoke("correlate", *correlate_args(data_dir))
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()  # opening either end of a FIFO waits for the other end
    result = cli_runner.invoke("correlate", *correlate_args(data_dir), "--output", str(fifo))
    reader.join(timeout=20)
    assert result.exit_code == 0, result.stderr
    assert received == [plain.stdout]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_correlate_running_example(data_dir):
    result = cli_runner.invoke("correlate", *correlate_args(data_dir))
    assert result.exit_code == 0
    assert "noise events: 0" in result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "case_id,timestamp,activity,trust,lifecycle,resource"
    assert len(lines) == 67  # 66 stored instances
    certain = [line for line in lines[1:] if line.split(",")[3] == "100.00"]
    assert [c.split(",")[0] + c.split(",")[2] for c in certain] == ["1A", "2A", "3A", "3B", "3D"]


def test_correlate_threshold_matches_external_filtering(data_dir):
    full = cli_runner.invoke("correlate", *correlate_args(data_dir), "--threshold", "0")
    at_60 = cli_runner.invoke("correlate", *correlate_args(data_dir), "--threshold", "60")
    lines = full.stdout.splitlines()
    kept = [lines[0]] + [
        line for line in lines[1:]
        if line.split(",")[3] and float(line.split(",")[3]) >= 60
    ]
    assert at_60.stdout.splitlines() == kept


def test_correlate_empty_stream(data_dir, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp,activity\n")
    result = cli_runner.invoke(
        "correlate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(empty),
    )
    assert result.exit_code == 0
    assert result.stdout == "case_id,timestamp,activity,trust,lifecycle,resource\n"
    assert "noise events: 0" in result.stderr


def test_correlate_counts_unmodeled_activity_as_noise(data_dir, tmp_path):
    stream = tmp_path / "stream.csv"
    stream.write_text(
        "timestamp,activity\n2021-03-01 09:00:00,A\n2021-03-01 09:00:01,ZZZ\n"
    )
    result = cli_runner.invoke(
        "correlate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(stream),
    )
    assert result.exit_code == 0
    assert "noise events: 1" in result.stderr
    noise_rows = [l for l in result.stdout.splitlines()[1:] if l.startswith(",")]
    assert len(noise_rows) == 1 and ",ZZZ,," in noise_rows[0]


def test_correlate_rejects_naive_and_offset_timestamps_in_one_stream(data_dir, tmp_path):
    stream = tmp_path / "stream.csv"
    stream.write_text(
        "timestamp,activity\n2019-06-16 11:55:01,A\n2019-06-16T11:55:03+00:00,A\n"
    )
    result = cli_runner.invoke(
        "correlate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(stream),
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: MIXED_TIMEZONES: row 3")


def test_correlate_rejects_a_json_line_that_is_not_an_object(data_dir, tmp_path):
    stream = tmp_path / "stream.jsonl"
    stream.write_text('{"timestamp": "2019-06-16 11:55:01", "activity": "A"}\n[1, 2]\n')
    result = cli_runner.invoke(
        "correlate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(stream),
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: BAD_ROW: row 2")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() reads a decimal string of any length")
def test_correlate_rejects_a_case_id_over_the_integer_digit_limit(data_dir, tmp_path):
    stream = tmp_path / "stream.csv"
    stream.write_text("timestamp,activity,case_id\n2019-06-16 11:55:01,A,"
                      + "7" * (sys.get_int_max_str_digits() + 1) + "\n")
    result = cli_runner.invoke(
        "correlate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(stream),
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: BAD_ROW: row 2") and result.stderr.count("\n") == 1


def test_a_stream_format_flag_or_key_is_an_error(data_dir):
    # the stream's first non-blank line picks CSV or JSON lines, so no option names it
    result = cli_runner.invoke("correlate", *correlate_args(data_dir), "--format", "csv")
    assert result.exit_code == 2
    assert "unrecognized arguments: --format csv" in result.stderr


def test_correlate_rejects_out_of_range_threshold(data_dir):
    result = cli_runner.invoke("correlate", *correlate_args(data_dir), "--threshold", "250")
    assert result.exit_code == 2
    assert "threshold" in result.stderr


def test_correlate_requires_heuristics_covering_the_model(data_dir, tmp_path):
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("activity,min,max\nA,1,1\n")
    result = cli_runner.invoke(
        "correlate", *model_args(data_dir),
        "--heuristics", str(sparse), "--input", str(data_dir / "stream.csv"),
    )
    assert result.exit_code == 2
    assert "MISSING_HEURISTIC" in result.stderr


TOY_WINDOWS = "activity,min,max\nA,1,1\nB,1,3\n"

# ties at one instant: two cases and noise at second 2, where the second B's
# rows must sort among the first's; then two distinct instants within second
# 5, printed alike, with noise at the first
TIED_STREAM = (
    "timestamp,activity\n"
    "2021-03-01 09:00:00,A\n"
    "2021-03-01 09:00:00,A\n"
    "2021-03-01 09:00:02,B\n"
    "2021-03-01 09:00:02,Z\n"
    "2021-03-01 09:00:02,B\n"
    "2021-03-01 09:00:05.250,A\n"
    "2021-03-01 09:00:05.250,Z\n"
    "2021-03-01 09:00:05.750,A\n"
    "2021-03-01 09:00:08.100,B\n"
)


def toy_args(tmp_path, stream_text):
    for name, text in (("toy.net", TOY_NET), ("toy.csv", TOY_WINDOWS), ("in.csv", stream_text)):
        (tmp_path / name).write_text(text)
    return ("--model", str(tmp_path / "toy.net"), "--heuristics", str(tmp_path / "toy.csv"),
            "--input", str(tmp_path / "in.csv"))


def test_correlate_streams_the_export_log_rows_in_order(tmp_path):
    corr = Correlator(build_task_dependencies(parse_simple_net(TOY_NET)),
                      load_heuristics(TOY_WINDOWS))
    for event in read_events(io.StringIO(TIED_STREAM)):
        corr.ingest(event)
    assert corr.store.export_log(0.0).splitlines()[1:] == [
        "1,2021-03-01 09:00:00,A,100.00,,",
        "2,2021-03-01 09:00:00,A,100.00,,",
        "1,2021-03-01 09:00:02,B,75.00,,",
        "1,2021-03-01 09:00:02,B,75.00,,",
        "2,2021-03-01 09:00:02,B,75.00,,",
        "2,2021-03-01 09:00:02,B,75.00,,",
        ",2021-03-01 09:00:02,Z,,,",
        "3,2021-03-01 09:00:05,A,100.00,,",
        ",2021-03-01 09:00:05,Z,,,",
        "4,2021-03-01 09:00:05,A,100.00,,",
        "3,2021-03-01 09:00:08,B,37.50,,",
        "4,2021-03-01 09:00:08,B,37.50,,",
    ]
    args = toy_args(tmp_path, TIED_STREAM)
    for threshold in ("0", "60"):
        out = tmp_path / f"out{threshold}.csv"
        to_stdout = cli_runner.invoke("correlate", *args, "--threshold", threshold)
        to_file = cli_runner.invoke("correlate", *args, "--threshold", threshold,
                                    "--output", str(out))
        expected = corr.store.export_log(float(threshold))
        assert to_stdout.stdout == expected
        assert to_file.exit_code == 0 and out.read_text() == expected
        assert to_stdout.stderr == to_file.stderr == "noise events: 2\n"


def test_correlate_rejects_a_disordered_stream_and_keeps_the_output(tmp_path):
    out = tmp_path / "out.csv"
    out.write_bytes(b"an earlier export\n")
    disordered = "timestamp,activity\n2021-03-01 09:00:05,A\n2021-03-01 09:00:01,A\n"
    result = cli_runner.invoke("correlate", *toy_args(tmp_path, disordered), "--output", str(out))
    assert result.exit_code == 2
    assert "OUT_OF_ORDER" in result.stderr
    assert out.read_bytes() == b"an earlier export\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out.csv", "toy.csv", "toy.net"]


@pytest.mark.parametrize("broken_pipe", [False, True])
def test_correlate_writes_the_resolved_rows_before_a_mid_stream_error(
    data_dir, tmp_path, clinic_td, clinic_table, clinic_events, monkeypatch, broken_pipe
):
    # event 12 goes back in time; event 11's instant is not over, the ten before are
    lines = (data_dir / "stream.csv").read_text().splitlines(keepends=True)
    lines[12] = "2019-6-16 11:55:00,E\n"
    (tmp_path / "in.csv").write_text("".join(lines))
    corr = Correlator(clinic_td, clinic_table)
    for event in clinic_events[:10]:
        corr.ingest(event)
    expected = corr.store.export_log(0.0)
    if broken_pipe:  # a stdout that fails takes the rows, but not the error's place
        def broken(self):
            raise BrokenPipeError(32, "Broken pipe")
        monkeypatch.setattr("caseflow.cli.ExportWriter.flush", broken)
        expected = expected.splitlines(keepends=True)[0]
    result = cli_runner.invoke("correlate", *model_args(data_dir),
                               "--heuristics", str(data_dir / "heuristics.csv"),
                               "--input", str(tmp_path / "in.csv"))
    assert result.exit_code == 2
    assert result.stderr == ("error: OUT_OF_ORDER: "
                             "2019-06-16 11:55:00 arrived after 2019-06-16 11:55:11\n")
    assert result.stdout == expected


def correlate_with_a_failing_writer(tmp_path, monkeypatch, cause):
    def broken(self, instances):
        raise cause
    monkeypatch.setattr("caseflow.cli.ExportWriter.write", broken)
    return cli_runner.invoke("correlate",
                             *toy_args(tmp_path, "timestamp,activity\n2021-03-01 09:00:00,A\n"))


def test_a_sink_failure_from_an_os_error_is_an_error_exit(tmp_path, monkeypatch):
    result = correlate_with_a_failing_writer(tmp_path, monkeypatch,
                                             OSError(28, "No space left on device"))
    assert (result.exit_code, result.stderr) == (
        2, "error: [Errno 28] No space left on device\n")


def test_a_broken_pipe_in_the_sink_exits_quietly(tmp_path, monkeypatch):
    # as any other broken pipe ends, so that `caseflow correlate | head` stays quiet
    result = correlate_with_a_failing_writer(tmp_path, monkeypatch,
                                             BrokenPipeError(32, "Broken pipe"))
    assert (result.exit_code, result.stderr) == (1, "")


def test_a_sink_failure_from_a_bug_is_not_an_error_exit(tmp_path, monkeypatch):
    # only a package error or an OSError is the input's or the system's fault
    with pytest.raises(KeyError, match="internal"):
        correlate_with_a_failing_writer(tmp_path, monkeypatch, KeyError("internal"))


def test_an_interrupt_during_correlation_aborts(tmp_path, monkeypatch):
    # Ctrl-C inside the loop is no CaseflowError, so it reaches main as itself and aborts
    def interrupted(self, event):
        raise KeyboardInterrupt
    monkeypatch.setattr("caseflow.cli.Correlator.ingest", interrupted)
    result = cli_runner.invoke("correlate",
                               *toy_args(tmp_path, "timestamp,activity\n2021-03-01 09:00:00,A\n"))
    assert (result.exit_code, result.stderr) == (1, "\nAborted!\n")


BAD_TIMESTAMP = "error: BAD_TIMESTAMP: row 2: cannot parse timestamp 'noon'\n"

# name: (files written beside the toy model and windows, as text or as raw
# bytes, arguments, exact standard error); {tmp} stands for the directory that
# holds the files
ERROR_EXITS = {
    "unreadable-model": (
        {}, "analyze --model {tmp}/no.net",
        "error: cannot read model: [Errno 2] No such file or directory: '{tmp}/no.net'\n",
    ),
    "net-error": ({"bad.net": "place p0\nfrobnicate p0\n"}, "analyze --model {tmp}/bad.net",
                  "error: UNKNOWN_DIRECTIVE: line 2: unknown directive 'frobnicate'\n"),
    "invalid-net": (
        {"bad.net": TWO_SOURCE_NET + "transition tc A\narc p1 tc\narc tc p2\n"},
        "analyze --model {tmp}/bad.net",
        "error: UNIQUE_SOURCE: expected one source place, found 2: ['extra', 'p0']\n"
        "error: DUPLICATE_LABEL: label 'A' also used by transition 'ta' (tc)\n",
    ),
    "dependency-error": (
        {"bad.net": "place p0\nplace p1\nplace p2\ntransition ta A\ntransition tb B\n"
                    "arc p0 ta\narc ta p1\narc p0 tb\narc p1 tb\narc tb p2\n"},
        "analyze --model {tmp}/bad.net",
        "error: EMPTY_PRODUCER: a synchronizing place has no producer\n",
    ),
    "unreadable-heuristics": (
        {"in.csv": "timestamp,activity\n"},
        "correlate --model {tmp}/toy.net --heuristics {tmp}/no.csv --input {tmp}/in.csv",
        "error: cannot read heuristics: [Errno 2] No such file or directory: '{tmp}/no.csv'\n",
    ),
    "min-gt-max": ({"bad.csv": "activity,min,max\nA,1,1\nB,3,1\n", "in.csv": "timestamp,activity\n"},
                   "correlate --model {tmp}/toy.net --heuristics {tmp}/bad.csv --input {tmp}/in.csv",
                   "error: MIN_GT_MAX: B: min 3 exceeds max 1\n"),
    "correlate-missing-heuristic": (
        {"sparse.csv": "activity,min,max\nA,1,1\n", "in.csv": "timestamp,activity\n"},
        "correlate --model {tmp}/toy.net --heuristics {tmp}/sparse.csv --input {tmp}/in.csv",
        "error: MISSING_HEURISTIC: no duration window for: B\n",
    ),
    "evaluate-missing-heuristic": (
        {"sparse.csv": "activity,min,max\nA,1,1\n", "in.csv": SELF_EVAL_LOG},
        "evaluate --model {tmp}/toy.net --heuristics {tmp}/sparse.csv --input {tmp}/in.csv",
        "error: MISSING_HEURISTIC: no duration window for: B\n",
    ),
    "replay-bad-timestamp": ({"in.csv": "timestamp,activity\nnoon,A\n"},
                             "replay --input {tmp}/in.csv", BAD_TIMESTAMP),
    "evaluate-bad-timestamp": (
        {"in.csv": "timestamp,activity,case_id\nnoon,A,1\n"},
        "evaluate --model {tmp}/toy.net --heuristics {tmp}/toy.csv --input {tmp}/in.csv",
        BAD_TIMESTAMP,
    ),
    "extract-bad-timestamp": ({"in.csv": "timestamp,activity,case_id\nnoon,A,1\n"},
                              "extract-heuristics --input {tmp}/in.csv", BAD_TIMESTAMP),
    "evaluate-mixed-lifecycle": (
        {"in.csv": "timestamp,activity,lifecycle,case_id\n"
                   "2021-03-01 09:00:00,A,completed,1\n2021-03-01 09:00:01,B,started,1\n"},
        "evaluate --model {tmp}/toy.net --heuristics {tmp}/toy.csv --input {tmp}/in.csv",
        "error: MIXED_LIFECYCLE: stream opened without lifecycle pairing; started events not "
        "allowed, got B at 2021-03-01 09:00:01\n",
    ),
    "extract-missing-td": (
        {"in.csv": SELF_EVAL_LOG}, "extract-heuristics --input {tmp}/in.csv",
        "error: MISSING_TD: a completions-only stream needs task dependencies to measure durations\n",
    ),
    "undecodable-model": (
        {"bad.net": b"place p0\n\xff"}, "analyze --model {tmp}/bad.net",
        "error: cannot read model: 'utf-8' codec can't decode byte 0xff in position 9: "
        "invalid start byte\n",
    ),
    "undecodable-heuristics": (
        {"bad.csv": b"activity,min,max\nA,1,\xff", "in.csv": "timestamp,activity\n"},
        "correlate --model {tmp}/toy.net --heuristics {tmp}/bad.csv --input {tmp}/in.csv",
        "error: cannot read heuristics: 'utf-8' codec can't decode byte 0xff in position 21: "
        "invalid start byte\n",
    ),
    "undecodable-input": (
        {"in.csv": b"timestamp,activity\n2021-03-01 09:00:00,A\n\xff\n"},
        "correlate --model {tmp}/toy.net --heuristics {tmp}/toy.csv --input {tmp}/in.csv",
        "error: BAD_ENCODING: byte 0xff at offset 41 is not valid utf-8 (invalid start byte)\n",
    ),
    # a cell longer than csv.field_size_limit(), 131,072 characters by default
    "oversized-input-cell": (
        {"in.csv": "timestamp,activity\n2021-03-01 09:00:00,A\n2021-03-01 09:00:01," + "A" * 200_000},
        "correlate --model {tmp}/toy.net --heuristics {tmp}/toy.csv --input {tmp}/in.csv",
        "error: BAD_ROW: row 3: field larger than field limit (131072)\n",
    ),
    "oversized-heuristics-cell": (
        {"big.csv": "activity,min,max\nA,1,1\n" + "B" * 200_000 + ",1,1\n",
         "in.csv": "timestamp,activity\n"},
        "correlate --model {tmp}/toy.net --heuristics {tmp}/big.csv --input {tmp}/in.csv",
        "error: MALFORMED_ROW: row 3: field larger than field limit (131072)\n",
    ),
    # the byte-order mark is not text, but its three bytes count in the offset
    "undecodable-input-after-a-byte-order-mark": (
        {"in.csv": b"\xef\xbb\xbftimestamp,activity\n2021-03-01 09:00:00,A\n\xff\n"},
        "correlate --model {tmp}/toy.net --heuristics {tmp}/toy.csv --input {tmp}/in.csv",
        "error: BAD_ENCODING: byte 0xff at offset 44 is not valid utf-8 (invalid start byte)\n",
    ),
}


@pytest.mark.parametrize("files, args, stderr", ERROR_EXITS.values(), ids=ERROR_EXITS)
def test_error_exits_print_their_exact_message(tmp_path, files, args, stderr):
    for name, text in {"toy.net": TOY_NET, "toy.csv": TOY_WINDOWS, **files}.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    result = cli_runner.invoke(*[arg.format(tmp=tmp_path) for arg in args.split()])
    assert (result.exit_code, result.stderr) == (2, stderr.format(tmp=tmp_path))


BOM = b"\xef\xbb\xbf"


def with_bom(path: Path, tmp_path: Path) -> Path:
    """A copy of path that begins with a UTF-8 byte-order mark."""
    copy = tmp_path / f"bom-{path.name}"
    copy.write_bytes(BOM + path.read_bytes())
    return copy


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("model", ["clinic.net", "clinic.pnml"])
def test_a_byte_order_mark_changes_no_input(data_dir, tmp_path, model, fmt):
    # spreadsheet exports begin their UTF-8 text with a byte-order mark
    stream = data_dir / "stream.csv"
    if fmt == "jsonl":
        stream = tmp_path / "stream.jsonl"
        stream.write_text("".join(
            json.dumps({"timestamp": str(event.timestamp), "activity": event.activity}) + "\n"
            for event in read_events(data_dir / "stream.csv")))
    files = (data_dir / model, data_dir / "heuristics.csv", stream)
    results = []
    for model_file, heuristics, input_file in (files, [with_bom(f, tmp_path) for f in files]):
        results.append(cli_runner.invoke("correlate", "--model", str(model_file), "--heuristics",
                                         str(heuristics), "--input", str(input_file)))
    plain, marked = results
    assert plain.exit_code == 0 and plain.stdout.count("\n") > 20
    assert (marked.exit_code, marked.stdout, marked.stderr) == (0, plain.stdout, plain.stderr)


def test_correlate_exports_offset_timestamps_with_their_offsets(tmp_path):
    offsets = (
        "timestamp,activity\n"
        "2021-03-01T11:00:00+02:00,A\n"
        "2021-03-01T09:00:01+00:00,A\n"
        "2021-03-01T11:00:02+02:00,B\n"
    )
    result = cli_runner.invoke("correlate", *toy_args(tmp_path, offsets))
    assert result.exit_code == 0
    assert [row.split(",")[1] for row in result.stdout.splitlines()[1:]] == [
        "2021-03-01 11:00:00+02:00",
        "2021-03-01 09:00:01+00:00",
        "2021-03-01 11:00:02+02:00",
        "2021-03-01 11:00:02+02:00",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an out-of-order warning would fail here
        again = read_events(io.StringIO(result.stdout))
    sent = read_events(io.StringIO(offsets))
    assert [e.timestamp for e in again] == [sent[0].timestamp, sent[1].timestamp,
                                            sent[2].timestamp, sent[2].timestamp]


def package_env() -> dict[str, str]:
    """This environment, with the package this test imported first on the path."""
    src = str(Path(caseflow.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# Runs the CLI, then prints the peak resident set of the child's own image,
# in KiB, as the last word on standard error.
PEAK_RSS_PROGRAM = """\
import runpy, sys
try:
    runpy.run_module("caseflow", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        print(*[line.split()[1] for line in status if line.startswith("VmHWM:")], file=sys.stderr)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
def test_correlate_peak_memory_does_not_grow_with_the_log(data_dir, tmp_path, clinic_net,
                                                        clinic_table):
    env = package_env()
    peaks = []
    for n_cases in (1200, 4800):
        log = simulate.simulate_log(clinic_net, clinic_table, random.Random(n_cases), n_cases,
                                    weights={"M": 3, "G": 3})
        stream = tmp_path / "stream.csv"
        stream.write_text(events_to_csv(strip_case_ids(log)[0]))
        del log
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PROGRAM, "correlate",
             "--model", str(data_dir / "clinic.pnml"),
             "--heuristics", str(data_dir / "heuristics.csv"),
             "--input", str(stream), "--output", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stderr.split()[-1]))
    # neither the store, the export nor the replay keeps anything per event
    assert abs(peaks[1] - peaks[0]) <= 512, f"peak RSS {peaks[0]} then {peaks[1]} KiB"


def run_python(program: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that runs program on the package this test imported."""
    return subprocess.run([sys.executable, "-c", program], env=package_env(),
                          capture_output=True, text=True, timeout=60)


def test_importing_the_cli_does_not_load_json():
    # only analyze, evaluate and the JSON-lines reader need json; if the
    # interpreter loaded it already, there is nothing to see
    program = ("import sys; loaded = 'json' in sys.modules; import caseflow.cli; "
               "print(loaded or 'json' not in sys.modules)")
    proc = run_python(program)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_importing_the_cli_does_not_load_click():
    # the front end is argparse, so no start-up pays for click's import
    proc = run_python("import sys, caseflow.cli; print('click' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_importing_the_package_does_not_load_dataclasses():
    # every record is a named tuple, so no process pays for the decorator's
    # code generation at start-up; if the interpreter loaded it already,
    # there is nothing to see
    program = ("import sys; loaded = 'dataclasses' in sys.modules; import caseflow, "
               "caseflow.evaluation; print(loaded or 'dataclasses' not in sys.modules)")
    proc = run_python(program)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_importing_the_cli_does_not_load_evaluation():
    # scoring code loads in evaluate only, and through caseflow's lazy names
    proc = run_python("import sys, caseflow.cli; print('caseflow.evaluation' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_the_console_entry_freezes_its_start_up_heap():
    proc = run_python("""\
import gc, sys
from caseflow.cli import run
sys.argv = ["caseflow", "--help"]
try:
    run()
finally:
    print(gc.get_freeze_count() > 0, file=sys.stderr)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: caseflow")
    assert proc.stderr == "True\n"


def test_the_cli_group_leaves_the_callers_heap_unfrozen(data_dir):
    # only the console entry freezes; a process that invokes main keeps its heap
    before = gc.get_freeze_count()
    result = cli_runner.invoke("correlate", *correlate_args(data_dir))
    assert result.exit_code == 0
    assert gc.get_freeze_count() == before


# Prints, for the last event of test_correlator's ordering scenario, each
# instance's raw trust and its allocations in their order.
ORDERING_PROGRAM = """\
from test_correlator import ingest_three_cases_and_then_l
for inst in ingest_three_cases_and_then_l()[-1]:
    print(inst.case_id, repr(inst.raw_trust), [(sorted(a.dependency_set), str(a.anchor)) for a in inst.allocations])
"""


def test_allocation_order_does_not_follow_the_hash_seed(data_dir, tmp_path, clinic_net, clinic_table):
    # a frozenset iterates in an order that varies with the interpreter's hash
    # seed, so only fresh interpreters see whether any order leans on it
    log = simulate.simulate_log(clinic_net, clinic_table, random.Random(5), 200,
                                gap_range=(5, 15), weights={"M": 3, "G": 3})
    stream = tmp_path / "stream.csv"
    stream.write_text(events_to_csv(strip_case_ids(log)[0]))
    outputs = set()
    for seed in ("0", "1", "2"):
        env = package_env()
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)
        runs = [subprocess.run(command, env=env, capture_output=True, text=True, timeout=60) for command in (
            [sys.executable, "-c", ORDERING_PROGRAM],
            [sys.executable, "-m", "caseflow", "correlate", *model_args(data_dir),
             "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(stream), "--threshold", "0"],
        )]
        for run in runs:
            assert run.returncode == 0, run.stderr
        outputs.add(tuple(run.stdout for run in runs))
    assert len(outputs) == 1
    (scenario, export), = outputs
    assert len(scenario.splitlines()) == 3 and export.count("\n") > len(log)


def paced_replay_args(data_dir):
    return ("--input", str(data_dir / "stream.csv"), "--speedup", "1000")


def run_into_full(entry: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    """A fresh interpreter running entry with stdout on /dev/full."""
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        return subprocess.run([sys.executable, *entry], env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60)


def assert_one_error_line(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.endswith("\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="writes to /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["analyze", "correlate", "replay"])
def test_a_failed_write_to_stdout_is_an_error_exit(data_dir, command, unbuffered):
    # buffered, the write fails when stdout is flushed, which must not be left
    # to the interpreter's exit; unbuffered, it fails at the first write. Paced
    # replay flushes each row as it goes, so its write fails inside the loop
    args = {"analyze": model_args(data_dir), "correlate": correlate_args(data_dir),
            "replay": paced_replay_args(data_dir)}[command]
    proc = run_into_full(["-m", "caseflow", command, *args], unbuffered)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


CONSOLE_ENTRY = ["-c", "from caseflow.cli import run; run()"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="writes to /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("entry", [["-m", "caseflow"], CONSOLE_ENTRY], ids=["module", "console"])
def test_a_failed_write_of_the_group_help_is_an_error_exit(entry, unbuffered):
    # argparse writes the top-level help while it parses, before any subcommand runs
    assert_one_error_line(run_into_full([*entry, "--help"], unbuffered))


def run_with_stdout_closed(entry: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter running entry with descriptor 1 closed, so that
    its sys.stdout is None."""
    return subprocess.run([sys.executable, *entry], env=package_env(), stderr=subprocess.PIPE,
                          text=True, timeout=60, preexec_fn=lambda: os.close(1))


@pytest.mark.parametrize("entry", [["-m", "caseflow"], CONSOLE_ENTRY], ids=["module", "console"])
def test_a_closed_stdout_fails_only_a_run_that_writes_to_it(data_dir, tmp_path, clinic_td, entry):
    output = tmp_path / "out.json"
    proc = run_with_stdout_closed([*entry, "analyze", *model_args(data_dir), "--output", str(output)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(output.read_text()) == clinic_td.to_json_dict()
    for args in (["analyze", *model_args(data_dir)], ["--help"], ["correlate", "--help"]):
        proc = run_with_stdout_closed([*entry, *args])
        assert_one_error_line(proc)
        assert proc.stderr == "error: cannot write output: standard output is closed\n"


def run_into_closed_pipe(entry: list[str]) -> tuple[int, str]:
    """Exit status and stderr of a fresh interpreter running entry with stdout
    on a pipe whose read end is closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *entry], env=package_env(),
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("entry", [["-m", "caseflow"], CONSOLE_ENTRY], ids=["module", "console"])
def test_the_group_help_into_a_closed_pipe_exits_quietly(entry):
    assert run_into_closed_pipe([*entry, "--help"]) == (1, "")


def test_paced_replay_into_a_closed_pipe_exits_quietly(data_dir):
    # the first row's flush, inside replay's loop, meets the broken pipe
    assert run_into_closed_pipe(["-m", "caseflow", "replay", *paced_replay_args(data_dir)]) == (1, "")


def test_evaluate_recovers_a_well_separated_log(data_dir, tmp_path):
    log = tmp_path / "labeled.csv"
    log.write_text(SELF_EVAL_LOG)
    result = cli_runner.invoke(
        "evaluate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(log),
    )
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["tp"] == 4 and report["fp"] == 0 and report["fn"] == 0
    for field in ("precision", "recall", "f_score"):
        assert report[field] == 1.0
    assert set(report["latency_ms"]) == {"mean", "p99", "max"}


def test_evaluate_report_fields_stay_in_unit_range(data_dir, tmp_path):
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
    result = cli_runner.invoke(
        "evaluate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(log),
    )
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    for field in ("precision", "recall", "f_score"):
        assert 0.0 <= report[field] <= 1.0


def test_evaluate_warns_once_per_undefined_ratio(data_dir, tmp_path):
    # an activity the model lacks is noise, so nothing is picked: no precision and no F;
    # a fresh interpreter, as pytest would record the warnings instead of printing them
    log = tmp_path / "labeled.csv"
    log.write_text("timestamp,activity,case_id\n2021-03-01 09:00:00,Z,1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "caseflow", "evaluate", *model_args(data_dir),
         "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(log)],
        env=package_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.findall(r"(\S+) undefined", proc.stderr) == ["precision", "f-score"], proc.stderr
    assert proc.stderr == "".join(f"warning: {what} undefined (zero denominator); reporting 0\n"
                                  for what in ("precision", "f-score"))


def test_a_warning_is_one_line_as_an_error_is(tmp_path):
    # a fresh interpreter, as pytest would record the warning instead of printing it
    log = tmp_path / "disordered.csv"
    log.write_text("timestamp,activity\n2021-03-01 09:00:05,A\n2021-03-01 09:00:01,A\n")
    proc = subprocess.run([sys.executable, "-m", "caseflow", "replay", "--input", str(log)],
                          env=package_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"warning: event stream out of order; sorting by timestamp\n"
                        r"delivered 2 events in \d+\.\d{3}s\n", proc.stderr), proc.stderr


def test_evaluate_missing_truth_file(data_dir, tmp_path):
    result = cli_runner.invoke(
        "evaluate", *model_args(data_dir),
        "--heuristics", str(data_dir / "heuristics.csv"),
        "--input", str(tmp_path / "nope.csv"),
    )
    assert result.exit_code == 2
    assert "cannot read input" in result.stderr


@pytest.mark.parametrize("threshold", [None, 0.0, 60.0])
def test_evaluate_scores_like_the_library(data_dir, tmp_path, clinic_td, clinic_table,
                                          clinic_net, threshold):
    # without --threshold each event's most trusted row counts; with it, every
    # row that `correlate --threshold` exports, less the noise rows
    log = tmp_path / "labeled.csv"
    log.write_text(events_to_csv(simulate.simulate_log(clinic_net, clinic_table,
                                                       random.Random(11), 40)))
    stream, labels = strip_case_ids(read_events(log))
    corr = Correlator(clinic_td, clinic_table)
    for event in stream:
        corr.ingest(event)
    mode = "max_trust" if threshold is None else "threshold"
    expected = build_report(score(corr.store.instances(), labels, mode=mode, threshold=threshold))
    flags = () if threshold is None else ("--threshold", str(threshold))
    result = cli_runner.invoke("evaluate", *model_args(data_dir),
                               "--heuristics", str(data_dir / "heuristics.csv"),
                               "--input", str(log), *flags)
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.stdout)
    del report["latency_ms"], expected["latency_ms"]
    assert report == expected


def test_extract_heuristics_from_labeled_log(data_dir, tmp_path):
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
    result = cli_runner.invoke(
        "extract-heuristics", "--input", str(log), *model_args(data_dir)
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


def test_correlate_takes_the_windows_extracted_from_a_completions_log(
    data_dir, tmp_path, clinic_net, clinic_table
):
    # A opens every case and follows nothing, so extraction measures no window for it
    log = simulate.simulate_log(clinic_net, clinic_table, random.Random(60), 60)
    labeled, windows = tmp_path / "labeled.csv", tmp_path / "windows.csv"
    labeled.write_text(events_to_csv(log))
    (tmp_path / "in.csv").write_text(events_to_csv(strip_case_ids(log)[0]))
    extracted = cli_runner.invoke("extract-heuristics", "--input", str(labeled),
                                  *model_args(data_dir), "--output", str(windows))
    assert extracted.exit_code == 0
    assert "A" not in load_heuristics(windows.read_text())
    result = cli_runner.invoke("correlate", *model_args(data_dir), "--heuristics", str(windows),
                               "--input", str(tmp_path / "in.csv"))
    assert result.exit_code == 0, result.stderr
    # every event gives a row, or one per candidate case
    assert len(result.stdout.splitlines()) > len(log)


def test_extract_heuristics_from_a_paired_log_needs_no_model(tmp_path):
    # started/completed pairs time each activity by themselves, so --model is optional
    log = tmp_path / "paired.csv"
    log.write_text("timestamp,activity,lifecycle,case_id\n"
                   "2021-03-01 09:00:00,A,started,1\n2021-03-01 09:00:04,A,completed,1\n"
                   "2021-03-01 09:00:05,B,started,1\n2021-03-01 09:00:07,B,completed,1\n")
    result = cli_runner.invoke("extract-heuristics", "--input", str(log))
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout == "activity,min,max\nA,4,4\nB,2,2\n"


def test_extract_heuristics_empty_log(tmp_path):
    log = tmp_path / "empty.csv"
    log.write_text("timestamp,activity,case_id\n")
    result = cli_runner.invoke("extract-heuristics", "--input", str(log))
    assert result.exit_code == 0
    assert result.stdout == "activity,min,max\n"


def test_extract_heuristics_without_timestamps(tmp_path):
    log = tmp_path / "bad.csv"
    log.write_text("when,activity\nnow,A\n")
    result = cli_runner.invoke("extract-heuristics", "--input", str(log))
    assert result.exit_code == 2
    assert "MISSING_COLUMN" in result.stderr


@pytest.mark.parametrize("flag", ["--truth", "--mode", "--model-format", "--speedup", "--silent-labels",
                                  "--config"])
def test_flags_decided_by_the_input_are_not_options(data_dir, flag):
    # correlate flushes a live input by itself; pacing is replay's; the model marks its
    # silent transitions; flags are the only settings
    commands = {"--speedup": ["correlate"],
                "--silent-labels": ["analyze", "correlate", "evaluate", "extract-heuristics"],
                "--config": list(REQUIRED_FLAGS)}
    args = {"analyze": model_args(data_dir), "replay": ("--input", str(data_dir / "stream.csv")),
            "extract-heuristics": model_args(data_dir) + ("--input", str(data_dir / "stream.csv"))}
    for command in commands.get(flag, ["evaluate"]):
        result = cli_runner.invoke(command, *args.get(command, correlate_args(data_dir)), flag, "x")
        assert result.exit_code == 2, command
        assert f"unrecognized arguments: {flag} x" in result.stderr, command


NUMERIC_FLAGS = {"correlate": ("--threshold",), "evaluate": ("--threshold",),
                 "replay": ("--speedup",)}
REQUIRED_FLAGS = {"analyze": ("--model",), "correlate": ("--model", "--heuristics", "--input"),
                  "replay": ("--input",), "evaluate": ("--model", "--heuristics", "--input"),
                  "extract-heuristics": ("--input",)}


@pytest.mark.parametrize("command", list(REQUIRED_FLAGS))
def test_usage_errors_exit_2_and_name_the_flag(tmp_path, command):
    # an unknown flag, -h (only --help is help), an abbreviation of a real flag, and a value
    # that is not a number; each comes before any file is read, so none of these need exist
    required = [arg for flag in REQUIRED_FLAGS[command] for arg in (flag, str(tmp_path / "none"))]
    numeric = NUMERIC_FLAGS.get(command, ())
    runs = [(flag, None, (flag, "x")) for flag in ("--no-such-flag", "-h", "--out")]
    runs += [("--thresh", None, ("--thresh", "50"))] if "--threshold" in numeric else []
    runs += [(flag, "'abc'", (flag, "abc")) for flag in numeric]
    for flag, value, args in runs:
        result = cli_runner.invoke(command, *required, *args)
        assert (result.exit_code, result.stdout) == (2, ""), args
        # the flag as a whole word, not inside the usage's --output or --threshold
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", result.stderr), (args, result.stderr)
        assert value is None or value in result.stderr, (args, result.stderr)
    # the subcommand's own parser writes its help
    result = cli_runner.invoke(command, "--help")
    assert result.exit_code == 0, result.stderr
    assert result.stdout.startswith(f"usage: caseflow {command} "), result.stdout


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in REQUIRED_FLAGS.items()
                                           for flag in flags])
def test_a_missing_required_flag_is_a_usage_error(tmp_path, command, flag):
    # the others point at no file, as argparse stops before any is read
    others = [arg for other in REQUIRED_FLAGS[command] if other != flag
              for arg in (other, str(tmp_path / "none"))]
    result = cli_runner.invoke(command, *others)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.endswith(f"error: the following arguments are required: {flag}\n"), \
        result.stderr


def test_an_unknown_flag_before_a_subcommand_is_a_usage_error_even_with_help():
    for args in (("--foo", "analyze", "--help"), ("--foo", "analyze", "--model", "x")):
        result = cli_runner.invoke(*args)
        assert (result.exit_code, result.stdout) == (2, ""), args
        assert "unrecognized arguments: --foo" in result.stderr, (args, result.stderr)


def test_no_subcommand_is_a_usage_error():
    result = cli_runner.invoke()
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.lower().startswith("usage: "), result.stderr


def test_a_run_builds_only_its_subcommands_parser(data_dir, monkeypatch):
    built = []

    def counted(self, **kwargs):
        built.append(kwargs["prog"])
        init(self, **kwargs)

    init = _Parser.__init__
    monkeypatch.setattr(_Parser, "__init__", counted)
    result = cli_runner.invoke("analyze", "--model", str(data_dir / "clinic.pnml"))
    assert result.exit_code == 0, result.stderr
    assert built == ["caseflow analyze"]


def test_replay_echoes_in_delivery_order(data_dir, clinic_events):
    result = cli_runner.invoke("replay", "--input", str(data_dir / "stream.csv"))
    assert result.exit_code == 0
    assert result.stdout == events_to_csv(clinic_events)
    assert "delivered 30 events" in result.stderr


def test_replay_writes_each_row_before_the_next_pause(data_dir, clinic_events,
                                                      monkeypatch):
    # what has reached standard output when each pause begins; so slow a
    # replay makes every later second a pause, however slow the host
    seen = []
    monkeypatch.setattr("caseflow.streams.time.sleep",
                        lambda seconds: seen.append(sys.stdout.buffer.getvalue().decode()))
    result = cli_runner.invoke("replay", "--input", str(data_dir / "stream.csv"),
                               "--speedup", "0.01")
    assert result.exit_code == 0
    first = clinic_events[0].timestamp
    assert seen == [events_to_csv(clinic_events[:i])
                    for i, event in enumerate(clinic_events) if event.timestamp > first]


def caseflow_process(*args: str, **popen) -> subprocess.Popen:
    """python -m caseflow with these arguments, on the package this test imported."""
    return subprocess.Popen([sys.executable, "-m", "caseflow", *args], env=package_env(),
                            stderr=subprocess.PIPE, **popen)


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="reads /dev/stdin")
def test_correlate_writes_each_instant_of_a_live_input_once_a_later_one_arrives(data_dir,
                                                                                clinic_events):
    # the export of the whole file, each row with the instant it belongs to
    export = cli_runner.invoke("correlate", *correlate_args(data_dir)).stdout.splitlines(True)
    instants = [datetime.fromisoformat(row.split(",")[1]) for row in export[1:]]
    received = []
    with caseflow_process("correlate", *correlate_args(data_dir)[:-1], "/dev/stdin",
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        reader = threading.Thread(target=lambda: [received.append(row) for row in proc.stdout],
                                  daemon=True)
        reader.start()
        try:
            proc.stdin.write("timestamp,activity\n")
            for i, event in enumerate(clinic_events):
                proc.stdin.write(f"{event.timestamp},{event.activity}\n")
                proc.stdin.flush()
                if i and event.timestamp != clinic_events[i - 1].timestamp:
                    # the pipe stays open, so only a flush can have sent the earlier instants
                    over = export[:1] + [row for row, t in zip(export[1:], instants)
                                         if t < event.timestamp]
                    deadline = time.monotonic() + 20
                    while len(received) < len(over) and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert received == over, f"after the first event at {event.timestamp}"
        finally:
            proc.stdin.close()
            reader.join(timeout=60)
        errors = proc.stderr.read()
    assert (proc.returncode, reader.is_alive(), received) == (0, False, export), errors


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="reads /dev/stdin")
@pytest.mark.parametrize("log", ["stream", "paired"])
def test_replay_piped_into_correlate_exports_the_files_bytes(data_dir, tmp_path, clinic_net,
                                                             clinic_table, log):
    # pacing is replay's alone; piped into correlate, it changes no byte of the export
    path = data_dir / "stream.csv"
    if log == "paired":
        path = tmp_path / "paired.csv"
        path.write_text(events_to_csv(strip_case_ids(simulate.simulate_log(
            clinic_net, clinic_table, random.Random(8), 40, paired=True))[0]))
    args = ("correlate", *correlate_args(data_dir)[:-1])
    direct = caseflow_process(*args, str(path), stdout=subprocess.PIPE)
    replay = caseflow_process("replay", "--speedup", "1e9", "--input", str(path),
                              stdout=subprocess.PIPE)
    piped = caseflow_process(*args, "/dev/stdin", stdin=replay.stdout, stdout=subprocess.PIPE)
    replay.stdout.close()  # the pipe's one reader is correlate
    outputs = [proc.communicate(timeout=60) for proc in (direct, piped, replay)]
    assert [proc.returncode for proc in (direct, piped, replay)] == [0, 0, 0], outputs
    assert outputs[1][0] == outputs[0][0] and outputs[0][0].count(b"\n") > 30


@pytest.mark.parametrize("command", ["replay"])
@pytest.mark.parametrize("speedup", ["0", "-1", "nan"])
def test_nonpositive_speedup_is_rejected_as_a_usage_error(data_dir, command, speedup):
    args = ("--input", str(data_dir / "stream.csv"))
    result = cli_runner.invoke(command, *args, "--speedup", speedup)
    assert result.exit_code == 2
    assert f"argument --speedup: {float(speedup)} is not in the range x>0" in result.stderr
    assert cli_runner.invoke(command, *args, "--speedup", "inf").exit_code == 0


@pytest.mark.parametrize("command", ["correlate", "evaluate"])
def test_nan_threshold_is_rejected_as_a_usage_error(data_dir, tmp_path, command):
    log = tmp_path / "labeled.csv"
    log.write_text(SELF_EVAL_LOG)
    args = (*model_args(data_dir), "--heuristics", str(data_dir / "heuristics.csv"), "--input", str(log))
    result = cli_runner.invoke(command, *args, "--threshold", "nan")
    assert result.exit_code == 2
    assert "argument --threshold: nan is not in the range 0<=x<=100" in result.stderr
    assert cli_runner.invoke(command, *args, "--threshold", "60").exit_code == 0
