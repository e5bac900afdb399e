"""Every paper table, figure and ablation, pinned by equality.

``benchmarks/figures.py`` holds one definition per table, figure and
ablation; its bench renders the table and checks the paper's shape, and
this file holds the definition's whole mapping equal to
``tests/fixtures/figures.json`` at ``SCALE``.  The numbers are virtual-time
and deterministic, so the pin is equality, not a tolerance.  The three
fault-injection campaigns (Table 2, Figs 9 and 10) take tens of seconds
each and run under ``-m slow``.

Re-pin only for an intended behaviour change, and record it with the
parent commit's ``src`` so the fixture diff shows which numbers moved::

    PYTHONPATH=<parent>/src python tests/test_figures.py --write
"""

import ast
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import figures  # noqa: E402

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "figures.json"
SCALE = 0.1
CAMPAIGNS = {"table2_coverage", "fig9_coverage_cores", "fig10_coverage_memory"}


@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=pytest.mark.slow) if name in CAMPAIGNS else name
     for name in figures.FIGURES],
)
def test_definition_matches_its_pin(name):
    assert figures.FIGURES[name](SCALE) == json.loads(FIXTURE.read_text())[name]


def test_every_bench_renders_exactly_its_definition():
    benches = {path.stem.removeprefix("bench_") for path in BENCHMARKS.glob("bench_*.py")}
    assert benches == set(figures.FIGURES)
    for name in figures.FIGURES:
        tree = ast.parse((BENCHMARKS / f"bench_{name}.py").read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert used & set(figures.FIGURES) == {name}, name


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999", "abc", "", "0", "-1"])
def test_bench_scale_fails_closed_in_one_line(raw, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", raw)
    with pytest.raises(ValueError) as exc:
        figures.bench_scale()
    message = str(exc.value)
    assert "REPRO_BENCH_SCALE" in message and repr(raw) in message
    assert "\n" not in message


def test_bench_scale_reads_the_environment(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert figures.bench_scale() == 1.0
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
    assert figures.bench_scale() == 0.25


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_figures.py --write")
    pins = {name: definition(SCALE) for name, definition in figures.FIGURES.items()}
    FIXTURE.write_text(json.dumps(pins, indent=2, allow_nan=False) + "\n")
    print(f"wrote {FIXTURE}")
