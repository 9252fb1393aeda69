"""The rule census in ``docs/analysis.md`` against the live catalogue.

Every rule id that ever existed has one census row.  A row whose verdict
is a cut names an id that is gone from the catalogue, and the command
line and the config file refuse it as unknown; every other row names a
rule of the catalogue, under its catalogue name.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.findings import RULES

ROOT = Path(__file__).resolve().parents[2]

#: ``| id | name | on record | ... | verdict |``
CENSUS_ROW = re.compile(r"^\| (?P<id>[A-Z]\d{3}) \| (?P<name>[a-z-]+) \|.*\| (?P<verdict>[^|]+) \|$")


def _census_rows() -> list[tuple[str, str, str]]:
    text = (ROOT / "docs" / "analysis.md").read_text(encoding="utf-8")
    section = text.split("\n## Rule census\n", 1)[1].split("\n## ", 1)[0]
    return [
        (m["id"], m["name"], m["verdict"])
        for m in map(CENSUS_ROW.match, section.splitlines())
        if m
    ]


ROWS = _census_rows()
CENSUS = {rule_id: (name, verdict) for rule_id, name, verdict in ROWS}
CUT = {rule_id for rule_id, (_name, verdict) in CENSUS.items() if verdict.startswith("**cut**")}


def test_census_has_one_row_per_rule_id_ever():
    assert len(ROWS) == len(CENSUS) == 38
    assert set(RULES) == set(CENSUS) - CUT
    assert len(CUT) == 14


@pytest.mark.parametrize("rule_id", sorted(CENSUS))
def test_census_row_agrees_with_the_catalogue(rule_id, tmp_path, capsys):
    name, verdict = CENSUS[rule_id]
    if rule_id not in CUT:
        assert verdict.startswith("kept")
        assert RULES[rule_id].name == name
        return
    assert rule_id not in RULES
    for flag in ("--select", "--ignore"):
        assert main(["all", str(tmp_path), flag, rule_id]) == 2
        assert f"unknown rule or prefix {rule_id!r}" in capsys.readouterr().err
    (tmp_path / "pyproject.toml").write_text(
        f'[tool.repro.analysis]\nselect = ["{rule_id}"]\n'
    )
    assert main(["all", str(tmp_path)]) == 2
    assert f"unknown rule or prefix {rule_id!r}" in capsys.readouterr().err
