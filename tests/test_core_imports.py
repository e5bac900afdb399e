"""The paper core imports none of its extensions (DESIGN §3).

:data:`CORE` is the one list of what reproduces the paper's contribution:
the closure runtime, the versioned heap and the validation plane, with the
machine, engine, applications and workloads they run on, the drivers that
run every figure and the recorder seam.  Everything else under
``src/repro`` is an extension, which reaches the DES driver only through
the attachment table (``repro.harness.pipeline.EXTENSIONS``).

The check parses every core module and reads every import in it — module
level or inside a function — and fails on one that names a non-core
``repro`` module.  Package ``__init__.py`` files only re-export names, so
the check leaves them out.

``python -m tests.test_core_imports`` prints the core and extension line
counts (a package ``__init__.py`` counts with its package).
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: the paper core: packages and modules, dotted; a package covers its
#: modules, except those in :data:`NOT_CORE`
CORE = (
    "repro.clock", "repro.detection", "repro.determinism", "repro.errors",
    "repro.machine", "repro.sim", "repro.memory", "repro.closures",
    "repro.validation", "repro.apps", "repro.workloads", "repro.baselines",
    "repro.runtime",
    "repro.harness.pipeline", "repro.harness.scenarios", "repro.harness.phoenix",
    "repro.faultinject.campaign", "repro.faultinject.classify",
    "repro.faultinject.config",
    "repro.obs.observability", "repro.obs.lifecycle", "repro.obs.metrics",
    "repro.obs.spans", "repro.obs.trace",
)
NOT_CORE = ("repro.runtime.degradation",)


def _covers(prefixes, module: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def is_core(module: str) -> bool:
    return _covers(CORE, module) and not _covers(NOT_CORE, module)


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_module(dotted: str) -> bool:
    path = SRC.parent.joinpath(*dotted.split("."))
    return path.is_dir() or path.with_suffix(".py").is_file()


def extension_imports(source: str, module: str) -> list[str]:
    """``line: name`` for every import in ``source`` (the text of
    ``module``) that names a non-core ``repro`` module."""
    package = module.rpartition(".")[0]
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                base = f"{anchor}.{base}".rstrip(".")
            # ``from pkg import sub`` imports the submodule; a name is pkg's
            targets = [
                f"{base}.{alias.name}" if _is_module(f"{base}.{alias.name}") else base
                for alias in node.names
            ]
        else:
            continue
        found += [
            f"{node.lineno}: {target}" for target in targets
            if _covers(("repro",), target) and not is_core(target)
        ]
    return found


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path, _module_name(path)


def test_core_imports_no_extension():
    offending = {
        module: found
        for path, module in _sources()
        if path.name != "__init__.py" and is_core(module)
        and (found := extension_imports(path.read_text(), module))
    }
    assert offending == {}


def test_the_check_catches_a_planted_import():
    planted = (
        "from repro.sim.events import Environment\n"
        "def run():\n"
        "    from repro.obs import canary\n"
        "    import repro.fleet.ring\n"
        "    from repro.harness.chaos import fault_tolerant_plane\n"
        "    from repro.runtime import degradation\n"
        "    from . import incident\n"
    )
    assert extension_imports(planted, "repro.harness.pipeline") == [
        "3: repro.obs.canary", "4: repro.fleet.ring",
        "5: repro.harness.chaos", "6: repro.runtime.degradation",
        "7: repro.harness.incident",
    ]


def test_every_core_entry_is_a_module():
    assert [name for name in CORE + NOT_CORE if not _is_module(name)] == []


def line_counts() -> dict[str, int]:
    counts = {"core": 0, "extension": 0}
    for path, module in _sources():
        counts["core" if is_core(module) else "extension"] += len(
            path.read_text().splitlines()
        )
    return counts


if __name__ == "__main__":
    counts = line_counts()
    print(f"core {counts['core']:,} + extension {counts['extension']:,}"
          f" = {sum(counts.values()):,} src lines")
