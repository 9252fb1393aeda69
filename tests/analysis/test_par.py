"""Shard-safety analysis (P005, P006): per-rule fixtures with exact
file/line assertions, noqa suppression, CLI behaviour, config loading,
determinism, and the whole-tree cleanliness gate."""

from __future__ import annotations

import json
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig
from repro.analysis.cli import main
from repro.analysis.par import analyze_paths

ROOT = Path(__file__).resolve().parents[2]


def analyze_source(tmp_path, source, name="mod.py", config=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path, analyze_paths([path], config=config)


def at(findings, rule):
    return [(f.rule, f.line) for f in findings if f.rule == rule]


def line_of(source, needle):
    return textwrap.dedent(source).splitlines().index(needle) + 1


# ---------------------------------------------------------------- P005


P005_FIXTURE = """\
import queue
import threading
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType


@dataclass(frozen=True)
class Work(Event):
    n: int = 0


class Works(PortType):
    positive = (Work,)
    negative = (Work,)


class Pool(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Works)
        self._lock = threading.Lock()
        self._jobs = queue.Queue()
        self.subscribe(self.on_work, self.port)

    def on_work(self, event):
        with self._lock:
            pass
        self._jobs.get()
        self._jobs.get(block=False)
"""


def test_p005_flags_blocking_sync_in_handlers(tmp_path):
    _, findings = analyze_source(tmp_path, P005_FIXTURE)
    assert at(findings, "P005") == [
        ("P005", line_of(P005_FIXTURE, "        with self._lock:")),
        ("P005", line_of(P005_FIXTURE, "        self._jobs.get()")),
    ]
    ctors = [f.extra["ctor"] for f in findings if f.rule == "P005"]
    assert ctors == ["threading.Lock", "queue.Queue"]
    # get(block=False) explicitly opts out of blocking and stays silent


# ---------------------------------------------------------------- P006


P006_FIXTURE = """\
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType


@dataclass(frozen=True)
class Note(Event):
    n: int = 0


class Notes(PortType):
    positive = (Note,)
    negative = (Note,)


class Pinned(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Notes)
        self.notes = {}
        self.subscribe(self.on_note, self.port)

    def on_note(self, event):
        self.notes[event.n] = event


class Movable(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Notes)
        self.notes = {}
        self.subscribe(self.on_note, self.port)

    def on_note(self, event):
        self.notes[event.n] = event

    def dump_state(self):
        return dict(self.notes)

    def load_state(self, state):
        self.notes = dict(state)


class Stateless(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Notes)
"""


def test_p006_flags_mutable_state_without_hooks(tmp_path):
    _, findings = analyze_source(tmp_path, P006_FIXTURE)
    assert at(findings, "P006") == [
        ("P006", line_of(P006_FIXTURE, "class Pinned(ComponentDefinition):")),
    ]
    finding = next(f for f in findings if f.rule == "P006")
    assert finding.extra["class"] == "Pinned"
    assert "notes" in finding.extra["attrs"]
    # Movable has both hooks, Stateless has nothing to migrate


def test_p006_noqa_on_class_line_suppresses(tmp_path):
    source = P006_FIXTURE.replace(
        "class Pinned(ComponentDefinition):",
        "class Pinned(ComponentDefinition):  # repro: noqa[P006]",
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert analyze_paths([path]) == []


# ------------------------------------------------------------ whole tree


@lru_cache(maxsize=1)
def tree_findings():
    return analyze_paths([ROOT / "src", ROOT / "examples"])


def test_whole_tree_is_par_clean():
    findings = tree_findings()
    assert findings == [], "\n".join(f.format() for f in findings)


@pytest.mark.parametrize(
    "subtree",
    ["src/repro/protocols", "src/repro/cats", "src/repro/runtime", "examples"],
)
def test_subtree_is_par_clean(subtree):
    findings = analyze_paths([ROOT / subtree])
    assert findings == [], "\n".join(f.format() for f in findings)


# ----------------------------------------------------------- CLI surface


def test_cli_exit_codes_and_json(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(P005_FIXTURE))
    assert main(["par", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 2
    assert report["counts"] == {"P005": 2}

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["par", str(clean)]) == 0
    assert main(["par", str(tmp_path / "missing.py")]) == 2


def test_cli_select_ignore(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(P005_FIXTURE))
    assert main(["par", str(path), "--ignore", "P005"]) == 0
    assert main(["par", str(path), "--select", "P005"]) == 1
    assert main(["par", str(path), "--select", "P006"]) == 0
    capsys.readouterr()


def test_cli_sarif_output(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(P005_FIXTURE))
    sarif_path = tmp_path / "out.sarif"
    assert main(["par", str(path), "--sarif", str(sarif_path)]) == 1
    capsys.readouterr()
    log = json.loads(sarif_path.read_text())
    assert log["version"] == "2.1.0"
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["P005", "P005"]


def test_cli_pyproject_config(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(P005_FIXTURE))
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[tool.repro.analysis]\nignore = ["P005"]\n')
    assert main(["par", str(path), "--config", str(pyproject)]) == 0
    capsys.readouterr()


def test_par_runs_under_all(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(P006_FIXTURE))
    assert main(["all", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passes"]["par"]["total"] == 1
    assert {f["rule"] for f in report["passes"]["par"]["findings"]} == {"P006"}


def test_output_is_deterministic(tmp_path):
    for fixture in (P005_FIXTURE, P006_FIXTURE):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(fixture))
        first = analyze_paths([path])
        second = analyze_paths([path])
        assert [f.to_dict() for f in first] == [f.to_dict() for f in second]
        assert [f.to_dict() for f in first] == sorted(
            (f.to_dict() for f in first),
            key=lambda d: (d["file"], d["line"], d["rule"]),
        )


def test_config_exclude_applies(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(P005_FIXTURE))
    config = AnalysisConfig(exclude=("mod.py",))
    assert analyze_paths([path], config=config) == []
