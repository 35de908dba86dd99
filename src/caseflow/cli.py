"""Command-line front end.

Subcommands cover the whole pipeline: analyze a model into task
dependencies, correlate an event stream, replay a log at speed, evaluate
correlation quality against a labeled log, and extract duration heuristics
from one. Every option can also come from a key=value config file; explicit
flags win over the file.
"""

from __future__ import annotations

import gc
import math
import os
import re
import sys
import time
from contextlib import contextmanager, suppress
from pathlib import Path

import click

from .correlator import Correlator
from .dependencies import build_task_dependencies
from .errors import CaseflowError
from .heuristics import extract_heuristics, load_heuristics, save_heuristics
from .model import DEFAULT_SILENT_LABELS, parse_pnml, parse_simple_net, validate
from .store import ExportWriter
from .streams import (
    ReplayError,
    _csv_event_writer,
    iter_events,
    read_events,
    replay,
    strip_case_ids,
)


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _read_text(path: str, what: str) -> str:
    try:  # utf-8-sig drops the byte-order mark that spreadsheet exports begin with
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {what}: {exc}")


# a config line up to its comment: '#' at the start of the line or after
# whitespace starts one, but not inside a quoted span; a lone quote is text
_UNCOMMENTED = re.compile(r"""(?:[^"'#]|"[^"]*"|'[^']*'|["']|(?<=\S)#)*""")


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Load a key=value file into the command's defaults, so click converts
    and validates its values like flags, and explicit flags still win. A key
    is a long flag name with '_' for '-'; '#' after whitespace starts a
    comment, unless it is quoted."""
    if path is None:
        return
    text = _read_text(path, "config")
    names = {opt.opts[0].lstrip("-").replace("-", "_"): opt.name for opt in ctx.command.params}
    cfg: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = _UNCOMMENTED.match(raw).group().strip()
        if not line:
            continue
        if "=" not in line:
            _fail(f"{path}:{i}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in names:
            _fail(f"{path}:{i}: unknown key {key!r}")
        cfg[names[key]] = value.strip().strip("\"'")
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
    click.option("--silent-labels", default=",".join(sorted(DEFAULT_SILENT_LABELS)),
                 help="Comma-separated silent transition labels."),
)
_input_option = click.option("--input", "input_path", type=str, default=None, help="Events: CSV or JSON lines.")
_output_options = _options(
    click.option("--output", type=str, default=None, help="Write here instead of stdout."),
    click.option("--config", type=str, callback=_read_config, is_eager=True,
                 expose_value=False, help="key=value defaults file."),
)
_heuristics_option = click.option("--heuristics", type=str, default=None,
                                  help="Duration windows CSV.")


def _not_nan(ctx: click.Context, param: click.Parameter, value: float | None) -> float | None:
    # FloatRange lets NaN through, as it compares false with the bounds
    if value is not None and math.isnan(value):
        raise click.BadParameter(f"{value} is not in the range {param.type._describe_range()}.")
    return value


_speedup_option = click.option("--speedup", type=click.FloatRange(min=0, min_open=True),
                               default=math.inf, callback=_not_nan,
                               help="Replay speed factor; inf is no pacing.")


def _load_td(model, silent_labels):
    """Parse and validate the model, then derive its task dependencies."""
    if model is None:
        _fail("a model file is required (--model or config)")
    text = _read_text(model, "model")
    labels = frozenset(x.strip() for x in silent_labels.split(",") if x.strip())
    pnml = model.endswith(".pnml") or text.lstrip().startswith("<")
    parse = parse_pnml if pnml else parse_simple_net
    net = parse(text, silent_labels=labels)
    diagnostics = validate(net)
    if not diagnostics.ok():
        for error in diagnostics.errors:
            where = f" ({error.node})" if error.node else ""
            click.echo(f"error: {error.code}: {error.message}{where}", err=True)
        sys.exit(2)
    return build_task_dependencies(net)


def _load_table(path):
    if path is None:
        _fail("a heuristics file is required (--heuristics or config)")
    return load_heuristics(_read_text(path, "heuristics"))


def _open(path, mode: str, what: str, encoding: str = "utf-8"):
    try:
        return open(path, mode, encoding=encoding)
    except OSError as exc:
        _fail(f"cannot {what}: {exc}")


def _open_input(path):
    if path is None:
        _fail("an input stream is required (--input or config)")
    return _open(path, "r", "read input", "utf-8-sig")


def _read_stream(path):
    with _open_input(path) as handle:
        return read_events(handle)


def _stdout():
    if sys.stdout is None:  # descriptor 1 was closed at start-up
        _fail("cannot write output: standard output is closed")
    return sys.stdout


@contextmanager
def _output_stream(output: str | None):
    """Standard output, or --output: a FIFO, a device or any other non-regular file in place,
    else a temporary file beside it (beside a symlink's file) that replaces it only if the
    block exits normally, so a failed run leaves the file untouched."""
    if output is None:
        yield _stdout()
        return
    if os.path.exists(output) and not os.path.isfile(output):
        with _open(output, "w", "write output") as handle:
            yield handle
        return
    target = Path(os.path.realpath(output))
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    handle = _open(temporary, "x", "write output")
    try:
        with handle:
            yield handle
        os.replace(temporary, target)
    finally:
        temporary.unlink(missing_ok=True)


class _Main(click.Group):
    """Reports a package error from any subcommand as `error: CODE: message`, exit 2,
    and so a failed read or write, and a sink failure caused by either; any other
    cause is a bug. A broken pipe, in the sink or not, passes through to click. Parsing
    is guarded too, as the group's own help is written while its arguments are parsed."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        return self._guarded(super().parse_args, ctx, args)

    def invoke(self, ctx: click.Context):
        return self._guarded(super().invoke, ctx)

    def _guarded(self, call, *args):
        try:
            result = call(*args)
            if sys.stdout is not None:  # so that a buffered write fails here, not at exit
                sys.stdout.flush()
            return result
        except (CaseflowError, ReplayError, OSError) as exc:
            cause = exc.cause if isinstance(exc, ReplayError) else exc
            if isinstance(cause, BrokenPipeError):
                raise cause from None  # click ends it with a quiet exit 1
            if not isinstance(cause, (CaseflowError, OSError)):
                raise
            try:
                if sys.stdout is not None:
                    sys.stdout.flush()
            except OSError:  # drop what cannot be written, so that exit does not fail on it again
                with suppress(OSError):
                    sys.stdout.close()
            _fail(str(exc))
        except click.exceptions.Exit as exc:
            if exc.exit_code == 0:  # help, written by click.echo, which drops it if stdout is closed
                _stdout()
            raise


@click.group(cls=_Main, context_settings={"show_default": True})
def main():
    """Correlate unlabeled event streams to cases using a workflow model."""


@main.command()
@_model_options
@_output_options
def analyze(model, silent_labels, output):
    """Derive task dependencies and loop entries from a workflow model."""
    import json  # here and, with evaluation, in evaluate only, so correlate loads neither

    td = _load_td(model, silent_labels)
    with _output_stream(output) as out:
        out.write(json.dumps(td.to_json_dict(), indent=2, sort_keys=True) + "\n")


@main.command()
@_model_options
@_heuristics_option
@_input_option
@click.option("--threshold", type=click.FloatRange(0, 100), default=0.0, callback=_not_nan,
              help="Minimum trust to keep.")
@_speedup_option
@_output_options
def correlate(model, silent_labels, heuristics, input_path, threshold, speedup, output):
    """Correlate an unlabeled stream and export the result as CSV.

    Each input row is read, correlated and written in one pass: an event's
    rows go out once its instant is over, flushed then under pacing. The
    stream must be in timestamp order. A regular --output file is replaced
    only when the whole stream correlated.
    """
    td = _load_td(model, silent_labels)
    table = _load_table(heuristics)
    with _open_input(input_path) as source:
        correlator = Correlator(td, table, keep_instances=False)
        with _output_stream(output) as out:
            writer = ExportWriter(out, threshold)
            paced = math.isfinite(speedup)

            def correlate_one(event):
                writer.write(correlator.ingest(event))
                if paced:
                    writer.flush()

            try:
                replay(iter_events(source), correlate_one, speedup=speedup)
            except (CaseflowError, ReplayError):  # the rows resolved so far go out first
                with suppress(OSError):  # a failing stdout must not mask the error
                    writer.flush()
                raise
            writer.close()
    click.echo(f"noise events: {correlator.store.noise_count()}", err=True)


@main.command("replay")
@_input_option
@_speedup_option
@_output_options
def replay_command(input_path, speedup, output):
    """Replay a stream at speed, echoing events in delivery order."""
    events = _read_stream(input_path)
    with _output_stream(output) as out:
        write_row = _csv_event_writer(out)

        def echo(event):
            write_row(event)
            if math.isfinite(speedup):
                out.flush()

        report = replay(events, echo, speedup=speedup)
    click.echo(f"delivered {report.delivered} events in {report.wall_seconds:.3f}s", err=True)


@main.command()
@_model_options
@_heuristics_option
@_input_option
@click.option("--threshold", type=click.FloatRange(0, 100), default=None, callback=_not_nan,
              help="Score rows at or above this trust; without it, each event's most trusted row.")
@_output_options
def evaluate(model, silent_labels, heuristics, input_path, threshold, output):
    """Strip a labeled log, re-correlate it, and score the result."""
    import json

    from .evaluation import build_report, score

    td = _load_td(model, silent_labels)
    table = _load_table(heuristics)
    stream, truth_labels = strip_case_ids(_read_stream(input_path))
    mode = "max_trust" if threshold is None else "threshold"
    latencies = []

    def timed_ingest(event):
        before = time.perf_counter()
        correlator.ingest(event)
        latencies.append(time.perf_counter() - before)

    correlator = Correlator(td, table)
    replay(stream, timed_ingest)
    counts = score(correlator.store.instances(), truth_labels, mode=mode, threshold=threshold)
    payload = build_report(counts, latencies)
    with _output_stream(output) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@main.command("extract-heuristics")
@_input_option
@_model_options
@_output_options
def extract_heuristics_command(input_path, model, silent_labels, output):
    """Measure per-activity duration windows from a labeled log."""
    events = _read_stream(input_path)
    td = None if model is None else _load_td(model, silent_labels)
    table = extract_heuristics(events, td=td)
    with _output_stream(output) as out:
        out.write(save_heuristics(table))


def run():
    """The console entry: freezes what the imports built, which lives until
    exit, so that no collection walks it, not even at exit; then runs main.
    main itself freezes nothing, so a process that calls it is not frozen."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
