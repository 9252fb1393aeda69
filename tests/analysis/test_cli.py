"""The ``python -m repro.analysis`` command line front-end."""

from __future__ import annotations

import json
import textwrap

from repro.analysis.cli import main

BAD_MODULE = textwrap.dedent(
    """\
    from dataclasses import dataclass

    from repro import ComponentDefinition, Event, PortType, handles


    @dataclass(frozen=True)
    class Tick(Event):
        n: int = 0


    class TickPort(PortType):
        positive = (Tick,)
        negative = ()


    class Careless(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.port = self.requires(TickPort)
            self.subscribe(self.on_tick, self.port)
            self.subscribe(self.on_any, self.port)

        @handles(Tick)
        def on_tick(self, event):
            event.n = 7

        def on_any(self, event):
            pass
    """
)

CLEAN_MODULE = textwrap.dedent(
    """\
    from dataclasses import dataclass

    from repro import ComponentDefinition, Event, PortType, handles


    @dataclass(frozen=True)
    class Tick(Event):
        n: int = 0


    class TickPort(PortType):
        positive = (Tick,)
        negative = ()


    class Quiet(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.port = self.requires(TickPort)
            self.subscribe(self.on_tick, self.port)

        @handles(Tick)
        def on_tick(self, event):
            self.last = event.n
    """
)


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "clean.py").write_text(CLEAN_MODULE)
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_exit_one_with_text_report(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "A001" in out and "A004" in out
    assert "bad.py" in out
    assert "2 finding(s)" in out


def test_json_report_shape(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    assert main([str(tmp_path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["total"] == 2
    assert report["counts"] == {"A001": 1, "A004": 1}
    rules = {f["rule"] for f in report["findings"]}
    assert rules == {"A001", "A004"}
    assert all("file" in f and "line" in f for f in report["findings"])


def test_select_and_ignore_flags(tmp_path):
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    assert main([str(tmp_path), "--select", "A004"]) == 1
    assert main([str(tmp_path), "--ignore", "A001,A004"]) == 0


def test_config_file_is_honored(tmp_path, capsys):
    project = tmp_path / "proj"
    project.mkdir()
    (project / "bad.py").write_text(BAD_MODULE)
    (project / "pyproject.toml").write_text(
        '[tool.repro.analysis]\nignore = ["A001", "A004"]\n'
    )
    assert main([str(project)]) == 0
    capsys.readouterr()
    # Bad config keys are a usage error, not a crash.
    (project / "pyproject.toml").write_text(
        '[tool.repro.analysis]\nbogus_key = true\n'
    )
    assert main([str(project)]) == 2
    assert "bad config" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 2
    assert "no paths" in capsys.readouterr().err
    assert main([str(tmp_path / "missing_dir")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("A001", "A004", "W001", "W004", "S001", "S002"):
        assert rule_id in out


def test_module_invocation_on_own_source_tree():
    """The repository gates CI on this exact invocation staying clean."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro", "examples"],
        cwd=repo,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_select_that_names_no_rule_is_a_usage_error(tmp_path, capsys):
    """A typo must not pass vacuously: same check as [tool.repro.analysis]."""
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    for flag in ("--select", "--ignore"):
        assert main([str(tmp_path), flag, "ZZZ"]) == 2
        assert "unknown rule or prefix 'ZZZ'" in capsys.readouterr().err
        assert main(["all", str(tmp_path), flag, "A001,ZZZ"]) == 2
        capsys.readouterr()


def test_select_outside_the_passes_being_run_is_a_usage_error(tmp_path, capsys):
    """--select D001 on the lint would report nothing whatever the tree
    holds; the rule exists, but no pass being run can raise it."""
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    assert main([str(tmp_path), "--select", "D001"]) == 2
    assert "names no rule of the pass(es) being run (lint)" in capsys.readouterr().err
    assert main(["flow", str(tmp_path), "--ignore", "A"]) == 2
    capsys.readouterr()
    # W* is reportable by `all` only when example assemblies are verified.
    assert main(["all", str(tmp_path), "--select", "W"]) == 2
    capsys.readouterr()
    assert main(
        ["all", str(tmp_path), "--select", "W", "--wiring-examples", str(tmp_path)]
    ) == 0
    # The same prefix is fine where a pass being run owns it, and in the
    # config file, which every pass shares.
    assert main(["all", str(tmp_path), "--select", "D001"]) == 0
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro.analysis]\nignore = ["D001"]\n'
    )
    assert main([str(tmp_path)]) == 1
    capsys.readouterr()


def test_list_rules_on_every_subcommand(capsys):
    for command, prefix in (
        ("lint", "A"), ("flow", "F"), ("dist", "D"), ("mem", "M"), ("par", "P")
    ):
        assert main([command, "--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed and all(rule_id.startswith(prefix) for rule_id in listed)
    assert main(["all", "--list-rules"]) == 0
    listed = {line.split()[0][0] for line in capsys.readouterr().out.splitlines()}
    assert listed == set("AFDMP")
