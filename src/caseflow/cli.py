"""Command-line front end.

Subcommands cover the whole pipeline: analyze a model into task
dependencies, correlate an event stream, replay a log at speed, evaluate
correlation quality against a labeled log, and extract duration heuristics
from one. Every option can also come from a key=value config file; explicit
flags win over the file.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from .correlator import CorrelationError, Correlator
from .dependencies import DependencyError, build_task_dependencies
from .evaluation import build_report, score
from .heuristics import (
    HeuristicError,
    extract_heuristics,
    load_heuristics,
    save_heuristics,
)
from .model import DEFAULT_SILENT_LABELS, NetError, parse_pnml, parse_simple_net, validate
from .streams import (
    ReplayError,
    StreamFormatError,
    events_to_csv,
    read_events,
    replay,
    strip_case_ids,
)


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


# config keys are parameter names, except these two whose flags name them differently
_CONFIG_RENAMES = {"input": "input_path", "format": "stream_format"}


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Load a key=value file into the command's defaults, so click converts
    and validates its values like flags, and explicit flags still win."""
    if path is None:
        return
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot read config: {exc}")
    cfg: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(f"{path}:{i}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        cfg[_CONFIG_RENAMES.get(key, key)] = value.strip().strip("\"'")
    ctx.default_map = cfg


def _options(*decorators):
    """Apply several click.option decorators as one, in the order listed."""
    def apply(f):
        for decorator in reversed(decorators):
            f = decorator(f)
        return f
    return apply


_model_options = _options(
    click.option("--model", type=str, default=None, help="Workflow model file."),
    click.option("--model-format", type=click.Choice(["pnml", "net"]), default=None),
    click.option("--silent-labels", default=None, help="Comma-separated silent transition labels."),
)
_stream_options = _options(
    click.option("--input", "input_path", type=str, default=None, help="Event stream."),
    click.option("--format", "stream_format", type=click.Choice(["csv", "jsonl"]), default="csv"),
)
_output_options = _options(
    click.option("--output", type=str, default=None, help="Write here instead of stdout."),
    click.option("--config", type=str, callback=_read_config, is_eager=True,
                 expose_value=False, help="key=value defaults file."),
)
_heuristics_option = click.option("--heuristics", type=str, default=None,
                                  help="Duration windows CSV.")
_speedup_option = click.option("--speedup", type=float, default=math.inf,
                               help="Replay speed factor; inf is no pacing.")


def _load_td(model, model_format, silent_labels):
    """Parse and validate the model, then derive its task dependencies."""
    if model is None:
        _fail("a model file is required (--model or config)")
    try:
        text = Path(model).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot read model: {exc}")
    if silent_labels is None:
        labels = DEFAULT_SILENT_LABELS
    else:
        labels = frozenset(x.strip() for x in silent_labels.split(",") if x.strip())
    if model_format is None:
        model_format = "pnml" if model.endswith(".pnml") or text.lstrip().startswith("<") else "net"
    parse = parse_pnml if model_format == "pnml" else parse_simple_net
    try:
        net = parse(text, silent_labels=labels)
    except NetError as exc:
        _fail(str(exc))
    diagnostics = validate(net)
    if not diagnostics.ok():
        for error in diagnostics.errors:
            where = f" ({error.node})" if error.node else ""
            click.echo(f"error: {error.code}: {error.message}{where}", err=True)
        sys.exit(2)
    try:
        return build_task_dependencies(net)
    except DependencyError as exc:
        _fail(str(exc))


def _load_table(path):
    if path is None:
        _fail("a heuristics file is required (--heuristics or config)")
    try:
        return load_heuristics(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        _fail(f"cannot read heuristics: {exc}")
    except HeuristicError as exc:
        _fail(str(exc))


def _read_stream(path, fmt):
    if path is None:
        _fail("an input stream is required (--input or config)")
    try:
        return read_events(path, fmt=fmt)
    except OSError as exc:
        _fail(f"cannot read input: {exc}")
    except StreamFormatError as exc:
        _fail(str(exc))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
    else:
        Path(output).write_text(text, encoding="utf-8")


@click.group(context_settings={"show_default": True})
def main():
    """Correlate unlabeled event streams to cases using a workflow model."""


@main.command()
@_model_options
@_output_options
def analyze(model, model_format, silent_labels, output):
    """Derive task dependencies and loop entries from a workflow model."""
    td = _load_td(model, model_format, silent_labels)
    _emit(json.dumps(td.to_json_dict(), indent=2, sort_keys=True) + "\n", output)


@main.command()
@_model_options
@_heuristics_option
@_stream_options
@click.option("--threshold", type=click.FloatRange(0, 100), default=0.0,
              help="Minimum trust to keep.")
@_speedup_option
@_output_options
def correlate(model, model_format, silent_labels, heuristics, input_path, stream_format,
              threshold, speedup, output):
    """Correlate an unlabeled stream and export the result as CSV."""
    td = _load_td(model, model_format, silent_labels)
    table = _load_table(heuristics)
    events = _read_stream(input_path, stream_format)
    try:
        correlator = Correlator(td, table)
        replay(events, correlator.ingest, speedup=speedup)
    except (CorrelationError, ReplayError) as exc:
        _fail(str(exc))
    _emit(correlator.store.export_log(threshold), output)
    click.echo(f"noise events: {correlator.store.noise_count()}", err=True)


@main.command("replay")
@_stream_options
@_speedup_option
@_output_options
def replay_command(input_path, stream_format, speedup, output):
    """Replay a stream at speed, echoing events in delivery order."""
    events = _read_stream(input_path, stream_format)
    delivered = []
    try:
        report = replay(events, delivered.append, speedup=speedup)
    except ReplayError as exc:
        _fail(str(exc))
    _emit(events_to_csv(delivered), output)
    click.echo(f"delivered {report.delivered} events in {report.wall_seconds:.3f}s", err=True)


@main.command()
@_model_options
@_heuristics_option
@click.option("--truth", type=str, default=None,
              help="Labeled log; its case ids are the truth. --input is an alias.")
@_stream_options
@click.option("--mode", type=click.Choice(["max_trust", "threshold"]), default="max_trust")
@click.option("--threshold", type=click.FloatRange(0, 100), default=None,
              help="Minimum trust to select, for threshold mode.")
@_output_options
def evaluate(model, model_format, silent_labels, heuristics, truth, input_path,
             stream_format, mode, threshold, output):
    """Strip a labeled log, re-correlate it, and score the result."""
    td = _load_td(model, model_format, silent_labels)
    table = _load_table(heuristics)
    labeled = _read_stream(truth or input_path, stream_format)
    if mode == "threshold" and threshold is None:
        _fail("threshold mode needs --threshold")
    stream, _ = strip_case_ids(labeled)
    truth_labels = [ev.case_id for ev in labeled]
    try:
        correlator = Correlator(td, table)
        report = replay(stream, correlator.ingest)
        counts = score(correlator.store.instances(), truth_labels, mode=mode, threshold=threshold)
    except (CorrelationError, ReplayError, ValueError) as exc:
        _fail(str(exc))
    payload = build_report(counts, report.latencies)
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


@main.command("extract-heuristics")
@_stream_options
@_model_options
@_output_options
def extract_heuristics_command(input_path, stream_format, model, model_format,
                               silent_labels, output):
    """Measure per-activity duration windows from a labeled log."""
    events = _read_stream(input_path, stream_format)
    td = None if model is None else _load_td(model, model_format, silent_labels)
    try:
        table = extract_heuristics(events, td=td)
    except HeuristicError as exc:
        _fail(str(exc))
    _emit(save_heuristics(table), output)


if __name__ == "__main__":
    main()
