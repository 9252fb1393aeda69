"""Distribution-readiness analysis (D001, D004, D006): per-rule fixtures with
exact file/line assertions, classify_events verdicts, noqa suppression,
CLI behaviour, determinism, and the whole-tree cleanliness gate."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig
from repro.analysis.cli import main
from repro.analysis.dist import analyze_paths, classify_events

ROOT = Path(__file__).resolve().parents[2]


def analyze_source(tmp_path, source, name="mod.py", config=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path, analyze_paths([path], config=config)


def at(findings, rule):
    return [(f.rule, f.line) for f in findings if f.rule == rule]


def line_of(source, needle):
    return textwrap.dedent(source).splitlines().index(needle) + 1


# ---------------------------------------------------------------- D001


D001_FIXTURE = """\
import threading
from dataclasses import dataclass
from typing import Callable

from repro import ComponentDefinition, Event


@dataclass(frozen=True)
class CarriesLock(Event):
    name: str = ""
    holder: threading.Lock = None


@dataclass(frozen=True)
class CarriesCallback(Event):
    callback: Callable = None


@dataclass(frozen=True)
class CarriesComponent(Event):
    owner: ComponentDefinition = None


@dataclass(frozen=True)
class CleanPayload(Event):
    key: int = 0
    label: str = ""


@dataclass(frozen=True)
class UngroundableIsSilent(Event):
    widget: "Widget" = None
"""


def test_d001_flags_locks_callables_and_component_refs(tmp_path):
    _, findings = analyze_source(tmp_path, D001_FIXTURE)
    assert at(findings, "D001") == [
        ("D001", line_of(D001_FIXTURE, "    holder: threading.Lock = None")),
        ("D001", line_of(D001_FIXTURE, "    callback: Callable = None")),
        ("D001", line_of(D001_FIXTURE, "    owner: ComponentDefinition = None")),
    ]


def test_d001_init_annotations_count_for_plain_events(tmp_path):
    source = """\
    from repro import ComponentDefinition, Event


    class FaultLike(Event):
        __slots__ = ("source",)

        def __init__(self, source: ComponentDefinition) -> None:
            self.source = source
    """
    _, findings = analyze_source(tmp_path, source)
    assert at(findings, "D001") == [
        ("D001", line_of(source, "    def __init__(self, source: ComponentDefinition) -> None:"))
    ]


def test_classify_events_verdicts(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(D001_FIXTURE)
    verdicts = classify_events([path])
    assert not verdicts["CarriesLock"].wire_safe
    assert "threading.Lock" in verdicts["CarriesLock"].reasons[0]
    assert not verdicts["CarriesCallback"].wire_safe
    assert not verdicts["CarriesComponent"].wire_safe
    assert verdicts["CleanPayload"].wire_safe
    assert verdicts["UngroundableIsSilent"].wire_safe  # degrade to silence


def test_noqa_suppresses_report_but_not_verdict(tmp_path):
    source = D001_FIXTURE.replace(
        "    holder: threading.Lock = None",
        "    holder: threading.Lock = None  # repro: noqa[D001]",
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    findings = analyze_paths([path])
    assert ("D001", line_of(source, "    holder: threading.Lock = None  # repro: noqa[D001]")) not in at(findings, "D001")
    # the event still cannot cross a process boundary: the oracle must
    # keep it out of the round-trip set
    assert not classify_events([path])["CarriesLock"].wire_safe


# ---------------------------------------------------------------- D004


D004_FIXTURE = """\
import socket
import threading

from repro import ComponentDefinition


class Acceptor(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.pump = threading.Thread(target=self.run)


class MigratableAcceptor(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.listener = socket.create_server(("127.0.0.1", 0))

    def dump_state(self):
        return {}

    def load_state(self, state):
        pass
"""


def test_d004_flags_resources_without_transfer_hooks(tmp_path):
    _, findings = analyze_source(tmp_path, D004_FIXTURE)
    assert at(findings, "D004") == [
        ("D004", line_of(D004_FIXTURE, '        self.listener = socket.create_server(("127.0.0.1", 0))')),
        ("D004", line_of(D004_FIXTURE, "        self.pump = threading.Thread(target=self.run)")),
    ]
    assert all("MigratableAcceptor" not in f.message for f in findings)


D004_UNPACKING_FIXTURE = """\
import multiprocessing
import os
import socket
import threading

from repro import ComponentDefinition


class Waker(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.wake_r, self.wake_w = socket.socketpair()
        self.read_fd, self.write_fd = os.pipe()
        [self.parent_end, self.child_end] = multiprocessing.Pipe()
        self.lock, self.count = threading.Lock(), 0
        self.host, self.port = ("127.0.0.1", 0)
"""


def test_d004_sees_tuple_and_list_targets(tmp_path):
    _, findings = analyze_source(tmp_path, D004_UNPACKING_FIXTURE)
    lines = [
        line_of(D004_UNPACKING_FIXTURE, needle)
        for needle in (
            "        self.wake_r, self.wake_w = socket.socketpair()",
            "        self.read_fd, self.write_fd = os.pipe()",
            "        [self.parent_end, self.child_end] = multiprocessing.Pipe()",
        )
    ]
    lock = line_of(
        D004_UNPACKING_FIXTURE, "        self.lock, self.count = threading.Lock(), 0"
    )
    assert at(findings, "D004") == [
        ("D004", line) for line in lines for _ in range(2)
    ] + [("D004", lock)]
    attrs = [f.extra["attr"] for f in findings if f.rule == "D004"]
    assert attrs == [
        "wake_r", "wake_w", "read_fd", "write_fd", "parent_end", "child_end", "lock",
    ]


# ---------------------------------------------------------------- D006


D006_FIXTURE = """\
from dataclasses import dataclass

from repro import ComponentDefinition
from repro.network.address import Address
from repro.network.compact import register_compact
from repro.network.message import Network, NetworkControlMessage


@dataclass(frozen=True)
class WireProbe(NetworkControlMessage):
    sequence: int = 0


@register_compact
@dataclass(frozen=True)
class RegisteredProbe(NetworkControlMessage):
    sequence: int = 0


class Prober(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.net = self.requires(Network)

    def probe(self, peer):
        self.trigger(WireProbe(self.address, peer, sequence=1), self.net)
        self.trigger(RegisteredProbe(self.address, peer, sequence=1), self.net)
"""


def test_d006_flags_unregistered_wire_events(tmp_path):
    _, findings = analyze_source(tmp_path, D006_FIXTURE)
    assert at(findings, "D006") == [
        ("D006", line_of(D006_FIXTURE, "class WireProbe(NetworkControlMessage):")),
    ]


# ------------------------------------------------------------ whole tree


@lru_cache(maxsize=1)
def tree_findings():
    return analyze_paths([ROOT / "src", ROOT / "examples"])


def test_whole_tree_is_distribution_clean():
    findings = tree_findings()
    assert findings == [], "\n".join(f.format() for f in findings)


def test_a_copy_of_src_is_analysed_alike_from_either_directory(tmp_path):
    """The importable framework is context only where the scanned files
    do not define the same modules.  A copy of ``src/`` analysed while
    this tree's ``repro`` is importable must index the framework once,
    exactly as the copy analysing itself does."""
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    # Strip the coded suppressions (outside the analyser itself) so the
    # dist findings show: D006 counts trigger sites across the index.
    for path in copy.rglob("*.py"):
        if "analysis" not in path.relative_to(copy).parts:
            path.write_text(re.sub(r"  # repro: noqa\[[A-Z0-9, ]+\]", "", path.read_text()))
    here = [
        (f.rule, Path(f.file).relative_to(tmp_path).as_posix(), f.line, f.message)
        for f in analyze_paths([copy])
    ]
    run = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "dist", "src", "--format", "json"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stderr
    there = [
        (f["rule"], f["file"], f["line"], f["message"])
        for f in json.loads(run.stdout)["findings"]
    ]
    assert any(rule == "D006" for rule, *_ in here)
    assert here == there


def test_tree_verdicts_cover_wire_messages():
    verdicts = classify_events([ROOT / "src"])
    # the hot CATS wire messages must be provably wire-safe
    for name in ("FindSuccessor", "WriteRequest", "ShuffleRequest", "FdPing"):
        assert verdicts[name].wire_safe, verdicts[name].reasons
    # Fault is justified-unsafe: suppressed in the report, but never
    # allowed through a shard boundary
    assert not verdicts["Fault"].wire_safe


# ----------------------------------------------------------- CLI surface


def test_cli_exit_codes_and_json(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(D001_FIXTURE))
    assert main(["dist", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 3
    assert report["counts"] == {"D001": 3}
    assert all(f["rule"] == "D001" for f in report["findings"])

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["dist", str(clean)]) == 0
    assert main(["dist", str(tmp_path / "missing.py")]) == 2


def test_cli_select_ignore(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(D001_FIXTURE))
    assert main(["dist", str(path), "--ignore", "D001"]) == 0
    assert main(["dist", str(path), "--select", "D001"]) == 1
    capsys.readouterr()


def test_cli_sarif_output(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(D001_FIXTURE))
    sarif_path = tmp_path / "out.sarif"
    assert main(["dist", str(path), "--sarif", str(sarif_path)]) == 1
    capsys.readouterr()
    log = json.loads(sarif_path.read_text())
    assert log["version"] == "2.1.0"
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["D001"] * 3


def test_output_is_deterministic(tmp_path):
    for fixture in (D001_FIXTURE, D004_FIXTURE, D006_FIXTURE):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(fixture))
        first = analyze_paths([path])
        second = analyze_paths([path])
        assert [f.to_dict() for f in first] == [f.to_dict() for f in second]


def test_config_exclude_applies(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(D001_FIXTURE))
    config = AnalysisConfig(exclude=("mod.py",))
    assert analyze_paths([path], config=config) == []
