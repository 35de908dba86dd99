"""Runs the command line in this process, as a console would run it."""

import io
import sys
from typing import NamedTuple

from caseflow.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(*args: str) -> Result:
    """caseflow with these arguments, its standard output and error captured as UTF-8
    text; a SystemExit becomes the exit code, and any other exception propagates."""
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2)]
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = streams
    code = 0
    try:
        main(list(args))
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        sys.stdout, sys.stderr = saved
    out, err = (stream.flush() or stream.buffer.getvalue().decode() for stream in streams)
    return Result(code, out, err)
