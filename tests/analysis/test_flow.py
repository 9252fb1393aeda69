"""Flow analysis (F002, F005): per-rule fixtures with exact file/line
assertions, a whole-tree cleanliness check, CLI/DOT behaviour, and the
C001 consistency-finding bridge."""

from __future__ import annotations

import json
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig
from repro.analysis.cli import main
from repro.analysis.flow import analyze_paths, to_dot
from repro.analysis.program import Program


def build_flow_graph(paths):
    program = Program.load(paths)
    return program.flow_graph, program.scanned


ROOT = Path(__file__).resolve().parents[2]


def analyze_source(tmp_path, source, name="mod.py", config=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path, analyze_paths([path], config=config)


def at(findings, rule):
    return [(f.rule, f.line) for f in findings if f.rule == rule]


CLEAN_RPC = """\
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType, handles


@dataclass(frozen=True)
class Req(Event):
    n: int = 0


@dataclass(frozen=True)
class Resp(Event):
    n: int = 0


@dataclass(frozen=True)
class Stray(Event):
    n: int = 0


class RpcPort(PortType):
    positive = (Resp,)
    negative = (Req,)


class Provider(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.provides(RpcPort)
        self.subscribe(self.on_req, self.port)

    @handles(Req)
    def on_req(self, event):
        self.trigger(Resp(event.n), self.port)


class Requester(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.rpc = self.requires(RpcPort)
        self.subscribe(self.on_resp, self.rpc)

    @handles(Resp)
    def on_resp(self, event):
        pass

    def go(self):
        self.trigger(Req(1), self.rpc)
"""


def test_clean_rpc_module_has_no_findings(tmp_path):
    _, findings = analyze_source(tmp_path, CLEAN_RPC)
    assert findings == []


# ---------------------------------------------------------------------- F002


def test_f002_dead_handler(tmp_path):
    source = CLEAN_RPC.replace(
        "    negative = (Req,)",
        "    negative = (Req, Stray)",
    ).replace(
        "        self.subscribe(self.on_req, self.port)",
        "        self.subscribe(self.on_req, self.port)\n"
        "        self.subscribe(self.on_stray, self.port)",
    ).replace(
        "    @handles(Req)",
        "    @handles(Stray)\n"
        "    def on_stray(self, event):\n"
        "        pass\n"
        "\n"
        "    @handles(Req)",
    )
    path, findings = analyze_source(tmp_path, source)
    assert [f.rule for f in findings] == ["F002"]
    line = source.splitlines().index(
        "        self.subscribe(self.on_stray, self.port)") + 1
    assert (findings[0].file, findings[0].line) == (str(path), line)
    assert "on_stray" in findings[0].message


def test_f002_suppressed_with_noqa(tmp_path):
    source = CLEAN_RPC.replace(
        "    negative = (Req,)",
        "    negative = (Req, Stray)",
    ).replace(
        "        self.subscribe(self.on_req, self.port)",
        "        self.subscribe(self.on_req, self.port)\n"
        "        self.subscribe(self.on_stray, self.port)  # repro: noqa[F002]",
    ).replace(
        "    @handles(Req)",
        "    @handles(Stray)\n"
        "    def on_stray(self, event):\n"
        "        pass\n"
        "\n"
        "    @handles(Req)",
    )
    _, findings = analyze_source(tmp_path, source)
    assert findings == []


# ---------------------------------------------------------------------- F005


def test_f005_stale_contract(tmp_path):
    source = CLEAN_RPC.replace(
        "    positive = (Resp,)",
        "    positive = (\n"
        "        Resp,\n"
        "        Stray,\n"
        "    )",
    )
    path, findings = analyze_source(tmp_path, source)
    assert [f.rule for f in findings] == ["F005"]
    line = source.splitlines().index("        Stray,") + 1
    assert (findings[0].file, findings[0].line) == (str(path), line)
    assert "Stray" in findings[0].message and "RpcPort" in findings[0].message


# ----------------------------------------------------- extraction mechanics


def test_loop_table_subscriptions_are_expanded(tmp_path):
    source = CLEAN_RPC.replace(
        "        self.subscribe(self.on_req, self.port)",
        "        for event_type, handler in (\n"
        "            (Req, self.on_req),\n"
        "        ):\n"
        "            self.subscribe(handler, self.port, event_type=event_type)",
    )
    path, findings = analyze_source(tmp_path, source)
    assert findings == []  # the expanded consumer keeps Req alive
    graph, _ = build_flow_graph([path])
    consumers = graph.consumers_for("RpcPort", "-", "Req")
    assert any(c.file == str(path) and c.event == "Req" for c in consumers)


def test_outside_face_attribute_is_grounded(tmp_path):
    # self.attr bound to a child's outside face (`child.provided(P)`),
    # the cats/cli.py idiom.
    source = CLEAN_RPC + textwrap.dedent(
        """
        class Driver(ComponentDefinition):
            def __init__(self):
                super().__init__()
                child = self.create(Provider)
                self.rpc_out = child.provided(RpcPort)
                self.subscribe(self.on_answer, self.rpc_out)

            @handles(Resp)
            def on_answer(self, event):
                pass

            def kick(self):
                self.trigger(Req(3), self.rpc_out)
        """
    )
    path, findings = analyze_source(tmp_path, source)
    assert findings == []
    graph, _ = build_flow_graph([path])
    # Trigger on a provided outside face crosses the boundary inward:
    # negative direction, i.e. a request push.
    assert any(
        p.component == "Driver" and p.event == "Req" and p.direction == "-"
        for p in graph.producers_for("RpcPort", "-", "Req")
    )


def test_wildcard_trigger_never_reports(tmp_path):
    source = CLEAN_RPC.replace(
        "        self.trigger(Resp(event.n), self.port)",
        "        reply = self.make_reply(event)\n"
        "        self.trigger(reply, self.port)",
    )
    _, findings = analyze_source(tmp_path, source)
    assert findings == []  # ungrounded event: wildcard, satisfies consumers


# ------------------------------------------------------------- whole tree


@lru_cache(maxsize=1)
def _tree_findings():
    return tuple(analyze_paths([ROOT / "src", ROOT / "examples"]))


def _tree_files():
    files = []
    for group in ("src/repro/protocols", "src/repro/cats"):
        files.extend(sorted((ROOT / group).rglob("*.py")))
    files.extend(sorted((ROOT / "examples").glob("*.py")))
    return files


@pytest.mark.parametrize(
    "path", _tree_files(), ids=lambda p: str(p.relative_to(ROOT))
)
def test_in_tree_module_is_flow_clean(path):
    findings = [
        f
        for f in _tree_findings()
        if f.file and Path(f.file).resolve() == path.resolve()
    ]
    assert findings == [], [f.format() for f in findings]


def test_whole_tree_is_flow_clean():
    assert list(_tree_findings()) == []


# ------------------------------------------------------------------- CLI


def test_cli_flow_subcommand_json(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(CLEAN_RPC)
    assert main(["flow", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 0


def test_cli_flow_reports_findings(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(
        CLEAN_RPC.replace(
            "        self.trigger(Resp(event.n), self.port)",
            "        self.trigger(Stray(event.n), self.port)",
        )
    )
    assert main(["flow", str(path)]) == 1
    out = capsys.readouterr().out
    assert "F002" in out


def test_cli_flow_dot_export(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(CLEAN_RPC)
    dot_file = tmp_path / "graph.dot"
    assert main(["flow", str(path), "--dot", str(dot_file)]) == 0
    capsys.readouterr()
    dot = dot_file.read_text()
    assert dot.startswith("digraph")
    assert '"Provider"' in dot and '"Requester"' in dot
    assert '"RpcPort - Req"' in dot and '"RpcPort + Resp"' in dot


def test_dot_export_is_deterministic(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(CLEAN_RPC)
    graph_a, scanned_a = build_flow_graph([path])
    graph_b, scanned_b = build_flow_graph([path])
    assert to_dot(graph_a, set(scanned_a)) == to_dot(graph_b, set(scanned_b))


def test_checked_in_cats_dot_is_current():
    """The committed CATS export must match a fresh generation (CI gate)."""
    graph, scanned = build_flow_graph([ROOT / "src" / "repro" / "cats"])
    fresh = to_dot(graph, files=set(scanned), title="event-flow")
    committed = (ROOT / "docs" / "cats_event_flow.dot").read_text()
    assert fresh == committed


def test_rule_selection_applies(tmp_path):
    source = CLEAN_RPC.replace(
        "    positive = (Resp,)", "    positive = (Resp, Stray)"
    ).replace("        self.trigger(Req(1), self.rpc)", "        pass")
    _, findings = analyze_source(tmp_path, source)
    assert sorted(f.rule for f in findings) == ["F002", "F005"]
    _, findings = analyze_source(
        tmp_path, source, config=AnalysisConfig(ignore=("F005",))
    )
    assert [f.rule for f in findings] == ["F002"]
    _, findings = analyze_source(
        tmp_path, source, config=AnalysisConfig(ignore=("F",))
    )
    assert findings == []


# ------------------------------------------------------------------- C001


def test_consistency_result_to_findings():
    from repro.consistency.checker import CheckResult

    clean = CheckResult(True)
    assert clean.to_findings() == []

    bad = CheckResult(False, key=7, reason="no linearization for 3 operations")
    findings = bad.to_findings()
    assert [f.rule for f in findings] == ["C001"]
    assert findings[0].obj == "key 7"
    assert "no linearization" in findings[0].message
    assert findings[0].extra == {"key": 7}


def test_non_linearizable_history_yields_c001():
    from repro.consistency.checker import check_history
    from repro.consistency.history import History

    history = History()
    history.invoke(1, "p1", "put", key=1, value="a", time=0.0)
    history.respond(1, time=1.0)
    # A get strictly after the put that still misses it: not linearizable.
    history.invoke(2, "p2", "get", key=1, time=2.0)
    history.respond(2, time=3.0, result="zzz")
    result = check_history(history)
    assert not result.linearizable
    findings = result.to_findings()
    assert [f.rule for f in findings] == ["C001"]
    assert findings[0].pass_ == "consistency"
