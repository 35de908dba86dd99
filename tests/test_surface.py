"""The package's public names: `__all__`, what `__init__` binds or loads on
demand, the README, the names the correlator module defines, the methods
of the store and the heuristic table, and the error types' one base."""

import pickle
import re
import types
from pathlib import Path

import pytest

import caseflow
from caseflow import (
    CorrelationError,
    DependencyError,
    HeuristicError,
    HeuristicTable,
    NetError,
    StreamFormatError,
    correlator,
)
from caseflow.cli import _parser
from caseflow.errors import CaseflowError
from caseflow.store import CaseStore

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_matches_the_package_namespace_and_the_readme_example():
    exported = set(caseflow.__all__)
    for name in exported:
        getattr(caseflow, name)
    bound = {
        name
        for name, value in vars(caseflow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound <= exported, sorted(bound - exported)

    snippet = re.search(r"^from caseflow import \((.*?)\)", README.read_text(), re.M | re.S)
    assert snippet is not None, "README has no `from caseflow import (...)` example"
    names = {n.strip() for n in snippet.group(1).split(",") if n.strip()}
    assert names and names <= exported, sorted(names - exported)


def test_scoring_names_load_from_the_evaluation_module():
    from caseflow import score

    import caseflow.evaluation as evaluation

    assert score is evaluation.score
    for name in ("f_score", "latency_report", "score"):
        assert getattr(caseflow, name) is getattr(evaluation, name)
    assert not hasattr(caseflow, "build_report")  # only the names in __all__


def test_readme_cli_examples_use_only_real_flags():
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            for command in line.split("|"):  # each command of a pipeline
                if command.strip().startswith("caseflow "):
                    commands.append(command.split())
    assert commands, "README has no `caseflow ...` example"
    for _, name, *args in commands:
        try:  # argparse names on stderr a flag it does not know, or a value it rejects
            _parser(name).parse_args(args)
        except SystemExit:
            pytest.fail(f"caseflow {name} {' '.join(args)} does not parse")


def public_names(cls) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("_")}


def test_store_and_table_expose_only_their_reads():
    # the store runs both searches over its own records, which nothing else
    # reads, and scoring reads a window's size from window, not a set of its values
    assert public_names(CaseStore) == {
        "new_case_id", "add", "case_ids", "case_view", "instances", "noise", "noise_count",
        "dependency_allocations", "pairing_allocations", "export_log",
    }
    assert public_names(HeuristicTable) == {"activities", "items", "window", "avg"}


def test_correlator_defines_one_scoring_function():
    # kind_probabilities is the one place the trust formula lives; the names
    # the module imports carry their own module, its constants none
    defined = {
        name
        for name, value in vars(correlator).items()
        if not name.startswith("_")
        and getattr(value, "__module__", correlator.__name__) == correlator.__name__
    }
    assert defined == {
        "KIND_AVG", "KIND_RANGE", "MODE_PAIRED", "MODE_COMPLETED", "CorrelationError",
        "Correlator", "kind_probabilities",
    }


@pytest.mark.parametrize("cls, value_error", [
    (NetError, True), (DependencyError, True), (HeuristicError, True), (StreamFormatError, True),
    (CorrelationError, False),
])
def test_each_error_type_is_a_bodiless_caseflow_error(cls, value_error):
    # CaseflowError alone builds the `CODE: message` text; each type keeps
    # the ValueError base it had, so `except ValueError` catches what it did
    err = cls("SOME_CODE", "what went wrong")
    assert isinstance(err, CaseflowError)
    assert isinstance(err, ValueError) is value_error
    assert (str(err), err.code, err.message) == ("SOME_CODE: what went wrong", "SOME_CODE",
                                                 "what went wrong")
    assert "__init__" not in vars(cls)
    back = pickle.loads(pickle.dumps(err))
    assert (type(back), str(back), back.code, back.message) == (cls, str(err), err.code,
                                                                 err.message)

