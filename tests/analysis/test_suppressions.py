"""Every coded ``# repro: noqa[...]`` in ``src`` and ``examples`` still
suppresses something.

The test copies both trees, strips each coded suppression comment, runs
``python -m repro.analysis all`` over the copy, and requires every
stripped (file, line, rule) to be reported.  A suppression nothing fires
under is stale: it documents a finding that no longer exists, and it
would silently swallow a new one on that line.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = ("src", "examples")

#: A coded suppression inside a comment token (a bare ``noqa`` names no
#: rule, so there is nothing to check it against).
CODED_NOQA = re.compile(r"\s*#\s*repro:\s*noqa\[(?P<rules>[^\]]*)\]")


def strip_coded_suppressions(root: Path) -> set[tuple[str, int, str]]:
    """Remove every coded suppression under ``root``'s corpus directories;
    returns what was removed as (relative file, line, rule) triples."""
    stripped: set[tuple[str, int, str]] = set()
    for directory in CORPUS:
        for path in sorted((root / directory).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines(keepends=True)
            edited = False
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                if token.type != tokenize.COMMENT:
                    continue
                match = CODED_NOQA.search(token.string)
                if match is None:
                    continue
                row, col = token.start
                line = lines[row - 1]
                lines[row - 1] = line[: col + match.start()] + line[col + match.end():]
                edited = True
                relative = path.relative_to(root).as_posix()
                for rule in match.group("rules").split(","):
                    if rule.strip():
                        stripped.add((relative, row, rule.strip()))
            if edited:
                path.write_text("".join(lines), encoding="utf-8")
    return stripped


def test_every_coded_suppression_still_suppresses_a_finding(tmp_path):
    for directory in CORPUS:
        shutil.copytree(
            ROOT / directory,
            tmp_path / directory,
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    stripped = strip_coded_suppressions(tmp_path)
    assert stripped, "the corpus carries no coded suppression at all"

    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "all", *CORPUS, "--format", "json"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 1, result.stderr
    report = json.loads(result.stdout)
    reported = {
        (finding["file"], finding["line"], finding["rule"])
        for bucket in report["passes"].values()
        for finding in bucket["findings"]
        if "file" in finding
    }
    stale = sorted(stripped - reported)
    assert not stale, f"suppressions with nothing to suppress: {stale}"
