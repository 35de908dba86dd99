"""Streaming case correlation for unlabeled process events.

Given a workflow net and per-activity duration windows, the package assigns
case ids to events that arrive without one, scores how trustworthy each
assignment is, and evaluates the result against labeled logs.

The names below are the library surface; everything else imports from its
submodule (`caseflow.model`, `caseflow.store`, ...).
"""

from .correlator import CorrelationError, Correlator
from .dependencies import DependencyError, build_task_dependencies
from .evaluation import f_score, latency_report, score
from .heuristics import HeuristicError, HeuristicTable, load_heuristics
from .model import NetError, parse_pnml
from .streams import (
    ReplayError,
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
    "ReplayError",
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
