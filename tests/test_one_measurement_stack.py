"""Host time is measured from outside (``benchmarks/perf``), not from
inside ``src/``: the simulated layers carry no wall-clock instrument, no
hook for one, and the engine imports nothing from its observers."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.fleet import FleetReport
from repro.harness.pipeline import PipelineConfig, RunResult
from repro.sim.events import Environment

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the layers a wall-clock timer used to be threaded through
LAYERS = (
    "sim", "machine", "memory", "validation", "runtime", "closures",
    "fleet", "harness",
)

#: the fault-injection campaign's profiling phase (paper §A.3.2) is a
#: different thing with the same word; its vocabulary is allowed by name
CAMPAIGN_VOCABULARY = {"profile", "profiled_sites"}

_PROF = re.compile("prof", re.IGNORECASE)


def _identifiers(tree: ast.AST):
    """Every name the module binds, reads or passes: variables,
    attributes, parameters, keywords, definitions and import aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.alias):
            yield node.asname or node.name, node.lineno


def _imports(tree: ast.AST):
    """Imported module names, at module *and* function level."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, node.lineno


def _modules(*relative: str):
    for entry in relative:
        path = PACKAGE / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        assert files, entry
        for file in files:
            yield file, ast.parse(file.read_text(encoding="utf-8"))


def test_no_wall_clock_instrument_in_the_simulated_layers():
    offences = []
    for file, tree in _modules(*LAYERS):
        where = file.relative_to(PACKAGE)
        for module, line in _imports(tree):
            if module.startswith("repro.obs.profiling"):
                offences.append(f"{where}:{line} imports {module}")
        for name, line in _identifiers(tree):
            if _PROF.search(name) and name not in CAMPAIGN_VOCABULARY:
                offences.append(f"{where}:{line} names {name!r}")
    assert not offences, "\n".join(offences)


def test_the_engine_knows_nothing_about_its_instruments():
    offences = [
        f"{file.relative_to(PACKAGE)}:{line} imports {module}"
        for file, tree in _modules("sim/events.py", "machine")
        for module, line in _imports(tree)
        if module == "repro.obs" or module.startswith("repro.obs.")
    ]
    assert not offences, "\n".join(offences)


def test_environment_has_no_instrument_slot():
    assert not hasattr(Environment(), "profiler")


@pytest.mark.parametrize("record", [PipelineConfig, RunResult, FleetReport])
def test_configs_and_results_carry_no_profile(record):
    assert "profile" not in {f.name for f in dataclasses.fields(record)}
