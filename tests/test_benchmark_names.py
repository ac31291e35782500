"""The benchmark harness looks crnverify functions, settings and output
keys up by name.

``crnperf/spans.py`` wraps the functions its ``WRAPS`` table names, on the
module where each caller looks them up, and ``crnperf/job.py`` imports a
few more.  ``crnperf/workloads.py`` writes config files and runs CLI
commands with flags, ``crnperf/run.py`` runs ``synth`` to build the
cached SIR partition, and ``crnperf/checks.py`` reads ``verdict.json``.
These files are only parsed here, never run, so a rename or deletion in
the package fails this test instead of the benchmark's runs.
"""

import argparse
import ast
import importlib
import pkgutil
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import crnverify
from crnverify.cli import build_parser
from crnverify.config import ExperimentConfig

REPO = Path(__file__).resolve().parents[1]
CRNPERF = REPO / "crnperf"


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
    # resolved through sys.modules, as crnperf/spans.py resolves the
    # modules it patches
    return sys.modules[full]


def _config_keys():
    """Every key of the configs ``workloads.py`` writes: the dicts passed to
    ``_write`` and the ``*_CONFIG`` tables, following ``**NAME`` into the
    module-level dict it names."""
    tree = ast.parse((CRNPERF / "workloads.py").read_text())
    tables = {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        for target in node.targets
    }
    roots = [d for name, d in tables.items() if name.endswith("_CONFIG")]
    roots += [
        node.args[1] for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write"
    ]
    keys = set()

    def collect(d):
        for key, value in zip(d.keys, d.values):
            if key is None:  # **NAME
                collect(tables[value.id])
            else:
                keys.add(key.value)

    for root in roots:
        collect(root)
    return keys


def _strings(node: ast.List) -> list[str]:
    return [e.value for e in node.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def _flags(command: str, strings: list[str]) -> set:
    """The subcommand itself and its ``--flag`` arguments."""
    return {(command, None)} | {(command, s) for s in strings if s.startswith("--")}


def _command_flags():
    """Every (subcommand, ``--flag``) pair in the argument lists that the
    workloads' ``commands`` methods return: each list literal there whose
    first element is a string names its subcommand."""
    tree = ast.parse((CRNPERF / "workloads.py").read_text())
    pairs = set()
    for method in ast.walk(tree):
        if not (isinstance(method, ast.FunctionDef) and method.name == "commands"):
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant):
                pairs |= _flags(node.elts[0].value, _strings(node))
    return pairs


def _partition_build_flags():
    """The (subcommand, ``--flag``) pairs of the ``-m crnverify.cli``
    argument list that ``run.py``'s ``ensure_partition`` runs: the string
    after the module names the subcommand."""
    tree = ast.parse((CRNPERF / "run.py").read_text())
    build = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "ensure_partition")
    pairs = set()
    for node in ast.walk(build):
        if isinstance(node, ast.List) and "crnverify.cli" in _strings(node):
            strings = _strings(node)
            pairs |= _flags(strings[strings.index("crnverify.cli") + 1], strings)
    return pairs


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _verdict_reads():
    """Every ``verdict[...]`` key ``checks.py`` reads: string subscripts, and
    a comprehension variable's subscripts over its tuple of strings."""
    tree = ast.parse((CRNPERF / "checks.py").read_text())

    def reads(node):
        return [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "verdict"
        ]

    keys = {sub.slice.value for sub in reads(tree) if isinstance(sub.slice, ast.Constant)}
    by_name = {sub for sub in reads(tree) if not isinstance(sub.slice, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for gen in node.generators:
                if not (isinstance(gen.target, ast.Name) and isinstance(gen.iter, ast.Tuple)):
                    continue
                for sub in reads(node.elt):
                    if getattr(sub.slice, "id", None) == gen.target.id:
                        keys.update(e.value for e in gen.iter.elts)
                        by_name.discard(sub)
    assert not by_name, "checks.py reads verdict keys this test cannot resolve"
    return keys


def _report_keys():
    """The keys ``verdict.save_report`` writes."""
    tree = ast.parse((REPO / "src" / "crnverify" / "verdict.py").read_text())
    save = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "save_report")
    call = next(n for n in ast.walk(save) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "write_json")
    return {key.value for key in call.args[1].keys}


SUBMODULES = [m.name for m in pkgutil.iter_modules(crnverify.__path__)]
WRAPPED = _wrapped_names()
IMPORTED = _imported_names()
CONFIG_KEYS = sorted(_config_keys() - {"format"})
VERDICT_READS = sorted(_verdict_reads())
COMMAND_FLAGS = sorted(_command_flags() | _partition_build_flags(), key=lambda pair: (pair[0], pair[1] or ""))


def test_tables_were_parsed():
    assert len(WRAPPED) >= 20
    assert ("abcsmc", "simulate") in WRAPPED and ("cli", "abcseq") in WRAPPED
    assert ("transient", "evaluator_for") in IMPORTED
    assert {"transient", "simulate"} <= set(SUBMODULES)
    assert {"seed", "abc_particles", "slice_samples", "synth_volume_tolerance"} <= set(CONFIG_KEYS)
    assert {"C", "n_samples", "mass_outside", "posterior"} <= set(VERDICT_READS)
    assert {("verify", "--samples"), ("verify", "--scale"), ("baseline", "--n-params"),
            ("baseline", "--n-sims"), ("pipeline", None), ("synth", "--config")} <= set(COMMAND_FLAGS)
    assert {("synth", "--workers"), ("synth", "--out-dir")} <= _partition_build_flags()


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    # a package attribute named after a submodule must be that module, so
    # ``import crnverify.<name> as m`` binds the module the harness patches
    module = _module(name)
    assert getattr(crnverify, name) is module


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


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_written_config_key_is_a_setting(key):
    assert key in {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("key", VERDICT_READS)
def test_checked_verdict_key_is_written(key):
    assert key in _report_keys()


@pytest.mark.parametrize("command, flag", COMMAND_FLAGS)
def test_workload_flag_exists(command, flag):
    parsers = _subcommands()
    assert command in parsers, f"workloads run an unknown subcommand {command!r}"
    if flag is not None:
        assert flag in parsers[command]._option_string_actions, f"{command} has no flag {flag}"
