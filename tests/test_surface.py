"""The package's public names: `__all__`, what `__init__` binds, the README."""

import re
import types
from pathlib import Path

import caseflow

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
