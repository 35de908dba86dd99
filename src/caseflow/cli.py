"""Command-line front end.

Subcommands cover the whole pipeline: analyze a model into task
dependencies, correlate an event stream, replay a log at speed, evaluate
correlation quality against a labeled log, and extract duration heuristics
from one. Flags are the only settings; each subcommand's --help marks the
ones it requires.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path

from .correlator import Correlator
from .dependencies import build_task_dependencies
from .errors import CaseflowError
from .heuristics import extract_heuristics, load_heuristics, save_heuristics
from .model import parse_pnml, parse_simple_net, validate
from .store import ExportWriter
from .streams import _csv_event_writer, iter_events, read_events, replay, strip_case_ids


def _echo(text: str) -> None:
    if sys.stderr is not None:  # descriptor 2 was closed at start-up
        print(text, file=sys.stderr)


def _fail(message: str):
    _echo(f"error: {message}")
    sys.exit(2)


def _read_text(path: str, what: str) -> str:
    try:  # utf-8-sig drops the byte-order mark that spreadsheet exports begin with
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {what}: {exc}")


def _float_in(describe: str, within):
    """An argparse type: a float for which within holds, which NaN never does."""
    def convert(text: str) -> float:
        value = float(text)
        if not within(value):
            raise argparse.ArgumentTypeError(f"{value} is not in the range {describe}")
        return value
    convert.__name__ = "float"  # argparse names the type so when float() fails
    return convert


# each option as its long flag name, with '_' for '-', and its add_argument keywords
_MODEL = {"model": dict(required=True,
                        help="Workflow model file; it marks which transitions are silent.")}
_HEURISTICS = {"heuristics": dict(required=True, help="Duration windows CSV.")}
_INPUT = {"input": dict(dest="input_path", metavar="INPUT", required=True,
                        help="Events: CSV or JSON lines.")}
_OUTPUT = {"output": dict(help="Write here instead of stdout.")}


def _load_td(model):
    """Parse and validate the model, then derive its task dependencies."""
    text = _read_text(model, "model")
    pnml = model.endswith(".pnml") or text.lstrip().startswith("<")
    parse = parse_pnml if pnml else parse_simple_net
    net = parse(text)
    diagnostics = validate(net)
    if not diagnostics.ok():
        for error in diagnostics.errors:
            where = f" ({error.node})" if error.node else ""
            _echo(f"error: {error.code}: {error.message}{where}")
        sys.exit(2)
    return build_task_dependencies(net)


def _open(path, mode: str, what: str, encoding: str = "utf-8"):
    try:
        return open(path, mode, encoding=encoding)
    except OSError as exc:
        _fail(f"cannot {what}: {exc}")


def _read_stream(path):
    with _open(path, "r", "read input", "utf-8-sig") as handle:
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


def analyze(model, output):
    """Derive task dependencies and loop entries from a workflow model."""
    import json  # here and, with evaluation, in evaluate only, so correlate loads neither

    td = _load_td(model)
    with _output_stream(output) as out:
        out.write(json.dumps(td.to_json_dict(), indent=2, sort_keys=True) + "\n")


def correlate(model, heuristics, input_path, threshold, output):
    """Correlate an unlabeled stream and export the result as CSV.

    Each input row is read, correlated and written in one pass: an event's
    rows go out once its instant is over, flushed then if the input is not a
    regular file, such as a pipe. The stream must be in timestamp order. A
    regular --output file is replaced only when the whole stream correlated.
    """
    td = _load_td(model)
    table = load_heuristics(_read_text(heuristics, "heuristics"))
    with _open(input_path, "r", "read input", "utf-8-sig") as source:
        correlator = Correlator(td, table, keep_instances=False)
        with _output_stream(output) as out:
            writer = ExportWriter(out, threshold)
            live = not os.path.isfile(input_path)
            try:
                for event in iter_events(source):
                    writer.write(correlator.ingest(event))
                    if live:
                        writer.flush()
            except CaseflowError:  # the rows resolved so far go out first
                with suppress(OSError):  # a failing stdout must not mask the error
                    writer.flush()
                raise
            writer.close()
    _echo(f"noise events: {correlator.store.noise_count()}")


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
    _echo(f"delivered {report.delivered} events in {report.wall_seconds:.3f}s")


def evaluate(model, heuristics, input_path, threshold, output):
    """Strip a labeled log, re-correlate it, and score the result."""
    import json

    from .evaluation import build_report, score

    td = _load_td(model)
    table = load_heuristics(_read_text(heuristics, "heuristics"))
    stream, truth_labels = strip_case_ids(_read_stream(input_path))
    mode = "max_trust" if threshold is None else "threshold"
    correlator = Correlator(td, table)
    latencies = []
    for event in stream:
        before = time.perf_counter()
        correlator.ingest(event)
        latencies.append(time.perf_counter() - before)
    counts = score(correlator.store.instances(), truth_labels, mode=mode, threshold=threshold)
    payload = build_report(counts, latencies)
    with _output_stream(output) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def extract_heuristics_command(input_path, model, output):
    """Measure per-activity duration windows from a labeled log."""
    events = _read_stream(input_path)
    td = None if model is None else _load_td(model)
    table = extract_heuristics(events, td=td)
    with _output_stream(output) as out:
        out.write(save_heuristics(table))


_THRESHOLD = _float_in("0<=x<=100", lambda x: 0 <= x <= 100)
# each subcommand's function and options
_COMMANDS = {
    "analyze": (analyze, {**_MODEL, **_OUTPUT}),
    "correlate": (correlate, {**_MODEL, **_HEURISTICS, **_INPUT, "threshold": dict(
        type=_THRESHOLD, default=0.0, help="Minimum trust to keep (default: %(default)s)."), **_OUTPUT}),
    "replay": (replay_command, {**_INPUT, "speedup": dict(
        type=_float_in("x>0", lambda x: x > 0), default=math.inf,
        help="Replay speed factor; inf is no pacing (default: %(default)s)."), **_OUTPUT}),
    "evaluate": (evaluate, {**_MODEL, **_HEURISTICS, **_INPUT, "threshold": dict(
        type=_THRESHOLD, help="Score rows at or above this trust; without it, each event's "
                              "most trusted row."), **_OUTPUT}),
    "extract-heuristics": (extract_heuristics_command, {**_INPUT, "model": dict(
        help="Workflow model file; a completions-only log needs it."), **_OUTPUT}),
}


class _Parser(argparse.ArgumentParser):
    """Takes --help but not -h, and no abbreviated flag; writes help as a command writes
    its output, so that a failed write is an error exit."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def print_help(self, file=None):
        out = _stdout()
        out.write(self.format_help())
        out.flush()


def _parser(name: str | None = None) -> argparse.ArgumentParser:
    """The named subcommand's parser, the one a run builds; without a name, the caseflow
    parser, for help and usage errors only, whose subcommands carry just their help lines."""
    if name is not None:
        function, options = _COMMANDS[name]
        parser = _Parser(prog=f"caseflow {name}", description=function.__doc__)
        for key, spec in options.items():
            parser.add_argument("--" + key.replace("_", "-"), **spec)
        return parser
    parser = _Parser(prog="caseflow",
                     description="Correlate unlabeled event streams to cases using a workflow model.")
    # the names usage errors give; with no --help of their own, which a flag before one would reach
    choices = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)
    for name, (function, _) in _COMMANDS.items():
        choices.add_parser(name, add_help=False, help=function.__doc__.split("\n")[0])
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run a command line, sys.argv's by default, building only its subcommand's parser (one
    that names none gets help or a usage error). A package error is reported as `error: CODE:
    message`, exit 2, as is a failed read or write; anything else is a bug and raises as itself.
    A broken pipe is a quiet exit 1. Parsing is guarded: --help writes to stdout."""
    try:
        argv = sys.argv[1:] if argv is None else argv
        if not argv or argv[0] not in _COMMANDS:
            _parser().parse_args(argv)  # writes help or a usage error, and exits
        name, *argv = argv
        args = _parser(name).parse_args(argv)
        with warnings.catch_warnings():  # a warning is one line, as an error is
            warnings.showwarning = lambda message, *_: _echo(f"warning: {message}")
            _COMMANDS[name][0](**vars(args))
        if sys.stdout is not None:  # so that a buffered write fails here, not at exit
            sys.stdout.flush()
    except (CaseflowError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # as when the output goes to `head`
            # the interpreter flushes stdout at exit, which must not fail on it again
            with suppress(AttributeError, OSError, ValueError):  # no stdout, or no descriptor
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:  # drop what cannot be written, so that exit does not fail on it again
            with suppress(OSError):
                sys.stdout.close()
        _fail(str(exc))
    except KeyboardInterrupt:
        _echo("\nAborted!")
        sys.exit(1)


def run():
    """The console entry: freezes what the imports built, which lives until
    exit, so that no collection walks it, not even at exit; then runs main.
    main itself freezes nothing, so a process that calls it is not frozen."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
