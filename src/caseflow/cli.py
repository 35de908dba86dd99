"""Command-line front end.

Subcommands cover the whole pipeline: analyze a model into task
dependencies, correlate an event stream, replay a log at speed, evaluate
correlation quality against a labeled log, and extract duration heuristics
from one. Every option can also come from a key=value config file; explicit
flags win over the file.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
import time
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


# a config line up to its comment: '#' at the start of the line or after
# whitespace starts one, but not inside a quoted span; a lone quote is text
_UNCOMMENTED = re.compile(r"""(?:[^"'#]|"[^"]*"|'[^']*'|["']|(?<=\S)#)*""")


def _read_config(path: str, options: dict[str, dict]) -> dict[str, str]:
    """A key=value file's values by destination, as text, for the command's defaults, so that
    argparse converts and checks a value like a flag's when no flag replaces it. A key is a
    long flag name with '_' for '-'; '#' after whitespace starts a comment, unless it is quoted."""
    values = {}
    for i, raw in enumerate(_read_text(path, "config").splitlines(), start=1):
        line = _UNCOMMENTED.match(raw).group().strip()
        if not line:
            continue
        if "=" not in line:
            _fail(f"{path}:{i}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in options:
            _fail(f"{path}:{i}: unknown key {key!r}")
        values[options[key].get("dest", key)] = value.strip().strip("\"'")
    return values


def _float_in(describe: str, within):
    """An argparse type: a float for which within holds, which NaN never does."""
    def convert(text: str) -> float:
        value = float(text)
        if not within(value):
            raise argparse.ArgumentTypeError(f"{value} is not in the range {describe}")
        return value
    convert.__name__ = "float"  # argparse names the type so when float() fails
    return convert


# each option as its config key, the long flag name with '_' for '-', and its add_argument keywords
_MODEL = {"model": dict(help="Workflow model file; it marks which transitions are silent.")}
_HEURISTICS = {"heuristics": dict(help="Duration windows CSV.")}
_INPUT = {"input": dict(dest="input_path", metavar="INPUT", help="Events: CSV or JSON lines.")}
_OUTPUT = {"output": dict(help="Write here instead of stdout."),
           "config": dict(help="key=value defaults file.")}


def _load_td(model):
    """Parse and validate the model, then derive its task dependencies."""
    if model is None:
        _fail("a model file is required (--model or config)")
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
    table = _load_table(heuristics)
    with _open_input(input_path) as source:
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
    table = _load_table(heuristics)
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
    "extract-heuristics": (extract_heuristics_command, {**_INPUT, **_MODEL, **_OUTPUT}),
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
        function, options = _COMMANDS[name]
        parser = _parser(name)
        args = parser.parse_args(argv)
        if args.config is not None:  # the file's values become defaults, so a flag still wins
            parser.set_defaults(**_read_config(args.config, options))
            args = parser.parse_args(argv)
        kwargs = vars(args)
        del kwargs["config"]
        function(**kwargs)
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
