"""The package's public names: `__all__`, what `__init__` binds, the README,
and the methods of the store and the heuristic table."""

import re
import types
from pathlib import Path

import caseflow
from caseflow import HeuristicTable
from caseflow.cli import main
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


def test_readme_cli_examples_use_only_real_flags():
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("caseflow "):
                commands.append(line.split())
    assert commands, "README has no `caseflow ...` example"
    for _, name, *args in commands:
        command = main.commands[name]
        flags = {opt for param in command.params for opt in param.opts}
        unknown = [arg for arg in args if arg.startswith("--") and arg not in flags]
        assert not unknown, f"caseflow {name}: {unknown}"


def public_names(cls) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("_")}


def test_store_and_table_expose_only_their_reads():
    # the searches read cases through occurrences_since and live_cases alone,
    # and scoring reads a window's size from window, not a set of its values
    assert public_names(CaseStore) == {
        "new_case_id", "add", "case_ids", "case_view", "instances", "noise", "noise_count",
        "occurrences_since", "live_cases", "export_log",
    }
    assert public_names(HeuristicTable) == {"activities", "items", "window", "avg"}
