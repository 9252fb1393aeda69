"""Memory-footprint analysis (M001, M002, M003, M006): per-rule fixtures with exact
file/line assertions, noqa suppression, CLI behaviour, determinism, and
the whole-tree cleanliness gate."""

from __future__ import annotations

import json
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig
from repro.analysis.cli import main
from repro.analysis.mem import analyze_paths

ROOT = Path(__file__).resolve().parents[2]


def analyze_source(tmp_path, source, name="mod.py", config=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path, analyze_paths([path], config=config)


def at(findings, rule):
    return [(f.rule, f.line) for f in findings if f.rule == rule]


def line_of(source, needle):
    return textwrap.dedent(source).splitlines().index(needle) + 1


# ---------------------------------------------------------------- M001


M001_FIXTURE = """\
from dataclasses import dataclass

from repro import Event


@dataclass(frozen=True)
class PlainPing(Event):
    seq: int = 0


@dataclass(frozen=True, slots=True)
class SlottedPing(Event):
    seq: int = 0


class BarePing(Event):
    def __init__(self, seq: int) -> None:
        self.seq = seq


class UnknownBaseIsSilent(WidgetEvent):
    seq: int = 0


class GrowsDynamically(Event):
    def __init__(self) -> None:
        self.seq = 0

    def stamp(self) -> None:
        self.when = 1.0
"""


def test_m001_flags_dict_classes_on_slotted_chains(tmp_path):
    _, findings = analyze_source(tmp_path, M001_FIXTURE)
    assert at(findings, "M001") == [
        ("M001", line_of(M001_FIXTURE, "class PlainPing(Event):")),
        ("M001", line_of(M001_FIXTURE, "class BarePing(Event):")),
    ]
    # the dataclass variant names the dataclass fix
    dataclass_finding = next(f for f in findings if f.extra["class"] == "PlainPing")
    assert "slots=True" in dataclass_finding.message
    # slotting GrowsDynamically would break stamp(), so M001 stays silent
    assert all(f.extra["class"] != "GrowsDynamically" for f in findings if f.rule == "M001")


def test_m001_noqa_suppresses(tmp_path):
    source = M001_FIXTURE.replace(
        "class PlainPing(Event):",
        "class PlainPing(Event):  # repro: noqa[M001]",
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    findings = analyze_paths([path])
    assert at(findings, "M001") == [
        ("M001", line_of(source, "class BarePing(Event):")),
    ]


# ---------------------------------------------------------------- M006


M006_FIXTURE = """\
from dataclasses import dataclass, field

from repro import Event


@dataclass(frozen=True)
class HeavyStatus(Event):
    data: dict = field(default_factory=dict)
    tags: list = field(default_factory=lambda: [])


@dataclass(frozen=True)
class LightStatus(Event):
    data: tuple = ()
    note: str = ""
"""


def test_m006_flags_mutable_default_factories(tmp_path):
    _, findings = analyze_source(tmp_path, M006_FIXTURE)
    assert at(findings, "M006") == [
        ("M006", line_of(M006_FIXTURE, "    data: dict = field(default_factory=dict)")),
        ("M006", line_of(M006_FIXTURE, "    tags: list = field(default_factory=lambda: [])")),
    ]
    factories = {f.extra["field"]: f.extra["factory"] for f in findings if f.rule == "M006"}
    assert factories == {"data": "dict", "tags": "list"}


# ---------------------------------------------------------------- M002


M002_FIXTURE = """\
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType


@dataclass(frozen=True, slots=True)
class Request(Event):
    key: int = 0


class Requests(PortType):
    positive = (Request,)
    negative = (Request,)


class Tracker(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Requests)
        self.seen = {}
        self.inflight = {}
        self.subscribe(self.on_request, self.port)

    def on_request(self, event):
        self.seen[event.key] = event.key
        self.inflight[event.key] = event.key

    def settle(self, key):
        self.inflight.pop(key, None)
"""


def test_m002_flags_growth_without_eviction(tmp_path):
    _, findings = analyze_source(tmp_path, M002_FIXTURE)
    # seen only ever grows; inflight has a pop site and stays silent
    assert at(findings, "M002") == [
        ("M002", line_of(M002_FIXTURE, "        self.seen[event.key] = event.key")),
    ]
    finding = next(f for f in findings if f.rule == "M002")
    assert finding.extra == {"class": "Tracker", "attr": "seen", "handler": "on_request"}


# ---------------------------------------------------------------- M003


M003_FIXTURE = """\
from dataclasses import dataclass, field

from repro import ComponentDefinition, Event, PortType


@dataclass(frozen=True, slots=True)
class Digest(Event):
    entries: list = field(default_factory=list)  # repro: noqa[M006]


class Gossip(PortType):
    positive = (Digest,)
    negative = (Digest,)


class Collector(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Gossip)
        self.last = None
        self.view = ()
        self.subscribe(self.on_digest, self.port, event_type=Digest)

    def on_digest(self, event):
        self.last = event
        self.view = event.entries

    def on_digest_copied(self, event):
        self.view = tuple(event.entries)
"""


def test_m003_flags_retained_events_and_aliased_payloads(tmp_path):
    _, findings = analyze_source(tmp_path, M003_FIXTURE)
    assert at(findings, "M003") == [
        ("M003", line_of(M003_FIXTURE, "        self.last = event")),
        ("M003", line_of(M003_FIXTURE, "        self.view = event.entries")),
    ]
    whole, fld = (f for f in findings if f.rule == "M003")
    assert "whole payload graph" in whole.message
    assert fld.extra["field"] == "entries"
    # tuple() at the store site shields the copy variant


def test_m003_reports_a_shadowed_definition(tmp_path):
    """A reused class name does not hide the earlier definition's handlers."""
    source = M003_FIXTURE + """

class Collector(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Gossip)
        self.subscribe(self.on_digest, self.port, event_type=Digest)

    def on_digest(self, event):
        self.count = len(event.entries)
"""
    _, findings = analyze_source(tmp_path, source)
    assert at(findings, "M003") == [
        ("M003", line_of(source, "        self.last = event")),
        ("M003", line_of(source, "        self.view = event.entries")),
    ]


# ------------------------------------------------------------ whole tree


@lru_cache(maxsize=1)
def tree_findings():
    return analyze_paths([ROOT / "src", ROOT / "examples"])


def test_whole_tree_is_mem_clean():
    findings = tree_findings()
    assert findings == [], "\n".join(f.format() for f in findings)


@pytest.mark.parametrize(
    "subtree",
    ["src/repro/protocols", "src/repro/cats", "src/repro/core", "examples"],
)
def test_subtree_is_mem_clean(subtree):
    findings = analyze_paths([ROOT / subtree])
    assert findings == [], "\n".join(f.format() for f in findings)


# ----------------------------------------------------------- CLI surface


def test_cli_exit_codes_and_json(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(M001_FIXTURE))
    assert main(["mem", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 2
    assert report["counts"] == {"M001": 2}

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["mem", str(clean)]) == 0
    assert main(["mem", str(tmp_path / "missing.py")]) == 2


def test_cli_select_ignore(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(M001_FIXTURE))
    assert main(["mem", str(path), "--ignore", "M001"]) == 0
    assert main(["mem", str(path), "--select", "M001"]) == 1
    assert main(["mem", str(path), "--select", "M006"]) == 0
    capsys.readouterr()


def test_cli_sarif_output(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(M001_FIXTURE))
    sarif_path = tmp_path / "out.sarif"
    assert main(["mem", str(path), "--sarif", str(sarif_path)]) == 1
    capsys.readouterr()
    log = json.loads(sarif_path.read_text())
    assert log["version"] == "2.1.0"
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["M001", "M001"]


def test_mem_runs_under_all(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(M001_FIXTURE))
    assert main(["all", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passes"]["mem"]["total"] == 2
    assert {f["rule"] for f in report["passes"]["mem"]["findings"]} == {"M001"}


def test_output_is_deterministic(tmp_path):
    for fixture in (M001_FIXTURE, M002_FIXTURE, M003_FIXTURE, M006_FIXTURE):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(fixture))
        first = analyze_paths([path])
        second = analyze_paths([path])
        assert [f.to_dict() for f in first] == [f.to_dict() for f in second]


def test_config_exclude_applies(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(M001_FIXTURE))
    config = AnalysisConfig(exclude=("mod.py",))
    assert analyze_paths([path], config=config) == []
