"""SARIF 2.1.0 exporter: structure, rule catalogue, locations, and
validation against the parts of the OASIS schema the exporter exercises.

The full SARIF schema is ~500 KB and not vendored; instead we validate
against a hand-authored subset schema that pins exactly the constraints
GitHub code scanning relies on (version string, run/tool/driver shape,
ruleIndex resolvability, 1-based region columns)."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.findings import RULES, Finding
from repro.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION, to_sarif

ROOT = Path(__file__).resolve().parents[2]

jsonschema = pytest.importorskip("jsonschema")

#: Subset of the SARIF 2.1.0 schema covering what we emit.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string", "format": "uri"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {
                                                            "enum": [
                                                                "none",
                                                                "note",
                                                                "warning",
                                                                "error",
                                                            ]
                                                        }
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": ["artifactLocation"],
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                            "logicalLocations": {
                                                "type": "array",
                                                "items": {
                                                    "type": "object",
                                                    "required": [
                                                        "fullyQualifiedName"
                                                    ],
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def sample_findings():
    return [
        Finding(
            rule="D001",
            message="field cannot cross a process boundary",
            file="src/repro/core/fault.py",
            line=31,
            col=4,
        ),
        Finding(
            rule="W001",
            message="required port left unconnected",
            obj="Root/child.port",
        ),
    ]


def test_sarif_log_validates_against_subset_schema():
    log = json.loads(to_sarif(sample_findings()))
    jsonschema.validate(log, SARIF_SUBSET_SCHEMA)


def test_sarif_header_and_tool():
    log = json.loads(to_sarif(sample_findings()))
    assert log["version"] == SARIF_VERSION == "2.1.0"
    assert log["$schema"] == SARIF_SCHEMA
    assert log["runs"][0]["tool"]["driver"]["name"] == "repro-analysis"


#: The catalogue the rule census in docs/analysis.md left standing.
CATALOGUE = [
    "A001", "A003", "A004", "C001", "D001", "D004", "D006", "F002",
    "F005", "M001", "M002", "M003", "M006", "P005", "P006", "R001",
    "R002", "R003", "S001", "S002", "W001", "W002", "W003", "W004",
]


def test_rule_catalogue_is_complete_and_indexable():
    log = json.loads(to_sarif(sample_findings()))
    run = log["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == CATALOGUE == sorted(RULES)
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_file_finding_becomes_physical_location():
    log = json.loads(to_sarif(sample_findings()))
    location = log["runs"][0]["results"][0]["locations"][0]
    physical = location["physicalLocation"]
    assert physical["artifactLocation"]["uri"] == "src/repro/core/fault.py"
    assert physical["region"]["startLine"] == 31
    assert physical["region"]["startColumn"] == 5  # ast col 4 -> 1-based 5


def test_wiring_finding_becomes_logical_location():
    log = json.loads(to_sarif(sample_findings()))
    location = log["runs"][0]["results"][1]["locations"][0]
    assert location["logicalLocations"] == [
        {"fullyQualifiedName": "Root/child.port", "kind": "member"}
    ]


def test_empty_findings_still_produce_a_valid_log():
    log = json.loads(to_sarif([]))
    jsonschema.validate(log, SARIF_SUBSET_SCHEMA)
    assert log["runs"][0]["results"] == []


@pytest.mark.parametrize("pass_name", ["lint", "flow", "dist"])
def test_every_cli_supports_sarif(tmp_path, pass_name):
    source = textwrap.dedent(
        """\
        import threading
        from dataclasses import dataclass

        from repro import Event


        @dataclass(frozen=True)
        class HoldsLock(Event):
            guard: threading.Lock = None
        """
    )
    target = tmp_path / "mod.py"
    target.write_text(source)
    sarif_path = tmp_path / f"{pass_name}.sarif"
    subcommand = [] if pass_name == "lint" else [pass_name]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", *subcommand, str(target),
         "--sarif", str(sarif_path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=ROOT,
    )
    assert proc.returncode in (0, 1), proc.stderr
    log = json.loads(sarif_path.read_text())
    jsonschema.validate(log, SARIF_SUBSET_SCHEMA)
    if pass_name == "dist":
        assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["D001"]
