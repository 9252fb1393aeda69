"""Full-tree analysis speed: the static passes CI pays for on every push.

One timing per pass (its test id names the pass and its rule ids) over
``src`` and ``examples`` against a *prebuilt*
:class:`~repro.analysis.program.Program`
— the rule checks alone, with the scan, the index and every shared facet
(flow graph, dist model, ...) already in place — then the two numbers
that add up to what the CI gate costs: loading the program (scan, parse,
index) and the end-to-end ``all`` run from cold caches.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_analysis.py -q
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import RULES, AnalysisConfig
from repro.analysis.driver import PASSES, run, run_all
from repro.analysis.program import Program, clear_parse_cache

ROOT = Path(__file__).resolve().parent.parent
PATHS = [ROOT / "src", ROOT / "examples"]
CONFIG = AnalysisConfig()


@pytest.fixture(scope="module")
def program():
    """The tree, loaded once, with every facet the passes share built."""
    loaded = Program.load(PATHS, CONFIG)
    run(loaded, tuple(PASSES), CONFIG)
    return loaded


def _pass_id(name: str) -> str:
    prefix = PASSES[name].prefix
    return f"{name}:" + "+".join(r for r in sorted(RULES) if r.startswith(prefix))


@pytest.mark.parametrize("name", list(PASSES), ids=_pass_id)
def test_pass_over_prebuilt_program(benchmark, program, name):
    findings = benchmark(lambda: run(program, (name,), CONFIG)[name])
    assert findings == []


def test_program_load(benchmark):
    """Scan, parse and index from a cold parse cache."""

    def load():
        clear_parse_cache()
        return Program.load(PATHS, CONFIG)

    benchmark(load)


def test_all_end_to_end(benchmark):
    """What ``python -m repro.analysis all src examples`` does in-process."""

    def combined():
        clear_parse_cache()
        return run_all(PATHS, CONFIG)

    per_pass = benchmark(combined)
    assert list(per_pass) == list(PASSES)
