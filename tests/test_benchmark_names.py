"""The benchmark harness looks crnverify functions up by name.

``crnperf/spans.py`` wraps the functions its ``WRAPS`` table names, on the
module where each caller looks them up, and ``crnperf/job.py`` imports a
few more.  Both files are only parsed here, never run, so a rename in the
package fails this test instead of the benchmark's traced runs.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

CRNPERF = Path(__file__).resolve().parents[1] / "crnperf"


def _wrapped_names():
    tree = ast.parse((CRNPERF / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPS" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("crnperf/spans.py defines no WRAPS table")


def _imported_names():
    names = []
    for node in ast.walk(ast.parse((CRNPERF / "job.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("crnverify"):
            module = node.module.removeprefix("crnverify").lstrip(".")
            names += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [
                (a.name.removeprefix("crnverify."), None)
                for a in node.names if a.name.startswith("crnverify.")
            ]
    return names


def _module(name: str):
    full = f"crnverify.{name}" if name else "crnverify"
    importlib.import_module(full)
    # the package re-exports functions that shadow two submodules'
    # names, so the harness takes modules from sys.modules
    return sys.modules[full]


WRAPPED = _wrapped_names()
IMPORTED = _imported_names()


def test_tables_were_parsed():
    assert len(WRAPPED) >= 20
    assert ("abcsmc", "simulate") in WRAPPED and ("cli", "abcseq") in WRAPPED
    assert ("transient", "evaluator_for") in IMPORTED


@pytest.mark.parametrize("module, attr", WRAPPED)
def test_wrapped_name_resolves(module, attr):
    owner = _module(module)
    for part in attr.split("."):  # "Class.method" wraps a method
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("module, name", IMPORTED)
def test_imported_name_resolves(module, name):
    owner = _module(module)
    if name is not None:
        obj = getattr(owner, name)
        assert callable(obj) or isinstance(obj, type(owner))
