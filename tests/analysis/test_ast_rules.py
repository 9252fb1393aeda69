"""AST lint rules A001, A003, A004: one true positive and one clean negative each."""

from __future__ import annotations

import textwrap

from repro.analysis import AnalysisConfig, lint_paths

PRELUDE = """\
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType, Start, handles


@dataclass(frozen=True)
class Ping(Event):
    n: int = 0


@dataclass(frozen=True)
class Pong(Event):
    n: int = 0


@dataclass
class Roster(Event):
    peers: list = None


class PingPort(PortType):
    positive = (Pong, Roster)
    negative = (Ping,)
"""


def lint_source(tmp_path, source, config=None, name="mod.py"):
    path = tmp_path / name
    path.write_text(PRELUDE + textwrap.dedent(source))
    return lint_paths([path], config=config)


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------- A001


def test_a001_flags_event_attribute_assignment(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Bad(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.on_ping, self.port)

            @handles(Ping)
            def on_ping(self, event):
                event.n = 99
        """,
    )
    assert rules_of(findings) == ["A001"]
    assert "event.n" in findings[0].message or "n" in findings[0].message


def test_a001_flags_mutating_method_call(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Bad(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.on_roster, self.port)

            @handles(Roster)
            def on_roster(self, event):
                event.peers.append("me")
        """,
    )
    assert rules_of(findings) == ["A001"]


def test_a001_clean_copy_on_write(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Good(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.peers = []
                self.subscribe(self.on_roster, self.port)

            @handles(Roster)
            def on_roster(self, event):
                peers = list(event.peers)
                peers.append("me")
                self.peers = peers
        """,
    )
    assert findings == []


# ---------------------------------------------------------------------- A003


def test_a003_flags_foreign_definition_access_in_handler(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Child(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.count = 0

        class Bad(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.child = self.create(Child)
                self.subscribe(self.on_ping, self.port)

            @handles(Ping)
            def on_ping(self, event):
                if self.child.definition.count > 3:
                    self.trigger(Pong(0), self.port)
        """,
    )
    assert rules_of(findings) == ["A003"]


def test_a003_clean_construction_time_access(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Child(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.address = "addr"

        class Good(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.child = self.create(Child)
                self.addr = self.child.definition.address  # wiring-time: fine
                self.subscribe(self.on_ping, self.port)

            @handles(Ping)
            def on_ping(self, event):
                self.trigger(Pong(event.n), self.port)
        """,
    )
    assert findings == []


# ---------------------------------------------------------------------- A004


def test_a004_flags_subscribe_without_handles(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Bad(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.on_ping, self.port)

            def on_ping(self, event):
                pass
        """,
    )
    assert rules_of(findings) == ["A004"]


def test_a004_clean_with_handles_or_event_type(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Good(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.on_ping, self.port)
                self.subscribe(self.on_any, self.port, event_type=Ping)

            @handles(Ping)
            def on_ping(self, event):
                pass

            def on_any(self, event):
                pass
        """,
    )
    assert findings == []


def test_a004_resolves_inherited_handles(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Base(ComponentDefinition):
            @handles(Ping)
            def on_ping(self, event):
                pass

        class Derived(Base):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.on_ping, self.port)
        """,
    )
    assert findings == []


# --------------------------------------------------------- shared machinery


def test_noqa_comment_suppresses_a_rule(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Tolerated(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.on_ping, self.port)

            @handles(Ping)
            def on_ping(self, event):
                event.n = 99  # repro: noqa[A001]
        """,
    )
    assert findings == []


def test_bare_noqa_suppresses_everything(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Tolerated(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.on_ping, self.port)

            @handles(Ping)
            def on_ping(self, event):
                event.n = 99  # repro: noqa
        """,
    )
    assert findings == []


def test_config_select_and_ignore(tmp_path):
    source = """
        class Bad(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.on_ping, self.port)
                self.subscribe(self.on_any, self.port)

            @handles(Ping)
            def on_ping(self, event):
                event.n = 99

            def on_any(self, event):
                pass
    """
    both = lint_source(tmp_path, source)
    assert rules_of(both) == ["A004", "A001"]
    only_mutation = lint_source(
        tmp_path, source, config=AnalysisConfig(select=("A001",))
    )
    assert rules_of(only_mutation) == ["A001"]
    no_untyped = lint_source(
        tmp_path, source, config=AnalysisConfig(ignore=("A004",))
    )
    assert rules_of(no_untyped) == ["A001"]


def test_non_component_classes_are_ignored(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class PlainObject:
            def on_ping(self, event):
                event.n = 1
        """,
    )
    assert findings == []


def test_finding_shape_and_json(tmp_path):
    import json

    from repro.analysis import to_json

    findings = lint_source(
        tmp_path,
        """
        class Bad(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.on_ping, self.port)

            @handles(Ping)
            def on_ping(self, event):
                event.n = 99
        """,
    )
    (finding,) = findings
    assert finding.file.endswith("mod.py")
    assert finding.line is not None and finding.line > 0
    report = json.loads(to_json(findings))
    assert report["version"] == 1
    assert report["total"] == 1
    assert report["counts"] == {"A001": 1}
    assert report["findings"][0]["rule"] == "A001"
    assert report["findings"][0]["name"] == "event-mutation"
