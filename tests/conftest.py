"""Shared fixtures: the clinic model, its heuristics, and the running stream."""

from pathlib import Path

import pytest

from caseflow import (
    Correlator,
    HeuristicTable,
    build_task_dependencies,
    load_heuristics,
    parse_pnml,
    read_events,
)
from caseflow.dependencies import TaskDependencies
from caseflow.model import WorkflowNet

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def clinic_net() -> WorkflowNet:
    return parse_pnml((DATA / "clinic.pnml").read_text())


@pytest.fixture(scope="session")
def clinic_td(clinic_net) -> TaskDependencies:
    return build_task_dependencies(clinic_net)


@pytest.fixture(scope="session")
def clinic_table() -> HeuristicTable:
    return load_heuristics((DATA / "heuristics.csv").read_text())


@pytest.fixture(scope="session")
def clinic_events():
    return read_events(DATA / "stream.csv")


@pytest.fixture()
def clinic_correlator(clinic_td, clinic_table) -> Correlator:
    return Correlator(clinic_td, clinic_table)


def ingest_all(correlator: Correlator, events):
    for event in events:
        correlator.ingest(event)
    return correlator.store
