"""Streaming case correlation for unlabeled process events.

Given a workflow net and per-activity duration windows, the package assigns
case ids to events that arrive without one, scores how trustworthy each
assignment is, and evaluates the result against labeled logs.

The names below are the library surface; everything else imports from its
submodule (`caseflow.model`, `caseflow.store`, ...). The scoring names load
`caseflow.evaluation` on first use, so `caseflow correlate` does not.
"""

from .correlator import CorrelationError, Correlator
from .dependencies import DependencyError, build_task_dependencies
from .heuristics import HeuristicError, HeuristicTable, load_heuristics
from .model import NetError, parse_pnml
from .streams import (
    StreamFormatError,
    UncorrelatedEvent,
    read_events,
    replay,
    strip_case_ids,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationError",
    "Correlator",
    "DependencyError",
    "HeuristicError",
    "HeuristicTable",
    "NetError",
    "StreamFormatError",
    "UncorrelatedEvent",
    "build_task_dependencies",
    "f_score",
    "latency_report",
    "load_heuristics",
    "parse_pnml",
    "read_events",
    "replay",
    "score",
    "strip_case_ids",
    "__version__",
]


def __getattr__(name: str):
    if name in ("f_score", "latency_report", "score"):
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
