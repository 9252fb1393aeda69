"""``python -m repro.analysis all``: merged multi-pass report, wiring
verification of WIRING_ROOT example scripts, exit codes, JSON shape."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import cli
from repro.analysis.driver import (
    load_wiring_root,
    merged_findings,
    run_all,
    verify_example_assemblies,
)


def main(argv):
    return cli.main(["all", *argv])


ROOT = Path(__file__).resolve().parents[2]

#: One file that trips every static pass: a handler mutating its event
#: (lint A001), a dead handler (flow F002), and a lock-carrying payload
#: (dist D001).
DIRTY_SOURCE = """\
import threading
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType, handles


@dataclass(frozen=True)
class Ping(Event):
    guard: threading.Lock = None


class PingPort(PortType):
    positive = (Ping,)
    negative = (Ping,)


class Pinger(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.pings = self.requires(PingPort)
        self.subscribe(self.on_ping, self.pings)

    @handles(Ping)
    def on_ping(self, event):
        event.guard = None

    def fire(self):
        self.trigger(Ping(), self.pings)
"""

#: Example script with a WIRING_ROOT whose child's required port is
#: never connected -> W001.
BROKEN_EXAMPLE = """\
from repro import ComponentDefinition, Event, PortType


class NeverServed(Event):
    pass


class Needs(PortType):
    positive = (NeverServed,)
    negative = (NeverServed,)


class Lonely(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.needs = self.requires(Needs)


class BrokenRoot(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.lonely = self.create(Lonely)


WIRING_ROOT = BrokenRoot
"""


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def test_run_all_reports_per_pass(tmp_path):
    path = write(tmp_path, "mod.py", DIRTY_SOURCE)
    per_pass = run_all([path])
    assert list(per_pass) == ["lint", "flow", "dist", "mem", "par"]
    rules = {name: {f.rule for f in findings} for name, findings in per_pass.items()}
    assert any(r.startswith("A") for r in rules["lint"])
    assert any(r.startswith("F") for r in rules["flow"])
    assert rules["dist"] == {"D001"}


def test_merged_findings_sorted_by_location(tmp_path):
    path = write(tmp_path, "mod.py", DIRTY_SOURCE)
    merged = merged_findings(run_all([path]))
    keys = [(f.file or "", f.line or 0, f.rule) for f in merged]
    assert keys == sorted(keys)


def test_load_wiring_root(tmp_path):
    example = write(tmp_path, "broken.py", BROKEN_EXAMPLE)
    root = load_wiring_root(example)
    assert root is not None and root.__name__ == "BrokenRoot"
    plain = write(tmp_path, "plain.py", "x = 1\n")
    assert load_wiring_root(plain) is None


def test_verify_example_assemblies_flags_and_prefixes(tmp_path):
    write(tmp_path, "broken.py", BROKEN_EXAMPLE)
    findings = verify_example_assemblies(tmp_path)
    assert {f.rule for f in findings} == {"W001"}
    assert all(f.message.startswith("[broken.py]") for f in findings)


def test_cli_all_json_merges_passes(tmp_path, capsys):
    path = write(tmp_path, "mod.py", DIRTY_SOURCE)
    example_dir = tmp_path / "examples"
    example_dir.mkdir()
    write(example_dir, "broken.py", BROKEN_EXAMPLE)

    code = main([
        str(path), "--format", "json", "--wiring-examples", str(example_dir)
    ])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert set(report["passes"]) == {"lint", "flow", "dist", "mem", "par", "wiring"}
    assert report["passes"]["dist"]["total"] == 1
    assert report["passes"]["wiring"]["total"] >= 1
    assert report["total"] == sum(
        p["total"] for p in report["passes"].values()
    )
    assert sum(report["counts"].values()) == report["total"]


def test_cli_all_exit_codes(tmp_path, capsys):
    clean = write(tmp_path, "clean.py", "x = 1\n")
    assert main([str(clean)]) == 0
    assert main([str(tmp_path / "nope.py")]) == 2
    assert main([str(clean), "--wiring-examples", str(tmp_path / "nodir")]) == 2
    capsys.readouterr()


def test_cli_all_select_narrows(tmp_path, capsys):
    path = write(tmp_path, "mod.py", DIRTY_SOURCE)
    assert main([str(path), "--select", "D", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert set(report["counts"]) == {"D001"}


def test_whole_tree_aggregate_is_clean(capsys):
    code = main([
        str(ROOT / "src"), str(ROOT / "examples"),
        "--format", "json",
        "--wiring-examples", str(ROOT / "examples"),
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report["counts"]
    assert report["total"] == 0


def test_all_run_builds_the_model_once(monkeypatch, capsys):
    """One `all` run scans and indexes the tree once and derives each
    shared facet once, however many passes read it (8 indexes, 4 flow
    graphs and 2 dist models before the passes shared a Program); that
    each file is parsed once is a consequence."""
    from repro.analysis import program
    from repro.analysis.dist import model as dist_model
    from repro.analysis.flow import graph as flow_graph

    built = {"index": 0, "flow": 0, "dist": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(program, "build_index", counting("index", program.build_index))
    monkeypatch.setattr(
        flow_graph, "build_flow_graph", counting("flow", flow_graph.build_flow_graph)
    )
    monkeypatch.setattr(
        dist_model, "build_dist_model", counting("dist", dist_model.build_dist_model)
    )

    assert main([str(ROOT / "src" / "repro"), str(ROOT / "examples")]) == 0
    capsys.readouterr()
    assert built == {"index": 1, "flow": 1, "dist": 1}
