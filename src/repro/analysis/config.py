"""Analysis configuration: rule selection and path exclusion.

Configuration lives in ``pyproject.toml``::

    [tool.repro.analysis]
    select = ["A", "W"]      # rule ids or prefixes to enable (default: all)
    ignore = ["A004"]        # rule ids or prefixes to disable
    exclude = ["**/_build/**"]  # path globs the linter skips

CLI flags (``--select``, ``--ignore``) override the file.  Line-level
suppression uses a trailing comment on the flagged line::

    event.n = 0        # repro: noqa[A001]
    anything_goes()    # repro: noqa

``# repro: noqa`` with no bracket suppresses every rule on that line.
"""

from __future__ import annotations

import fnmatch
import re
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .findings import RULES

_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?")


@dataclass
class AnalysisConfig:
    """Effective analysis settings after merging file + CLI sources."""

    select: tuple[str, ...] = ()   # empty means "all rules"
    ignore: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select and not _matches_any(rule_id, self.select):
            return False
        return not _matches_any(rule_id, self.ignore)

    def path_excluded(self, path: Path | str) -> bool:
        text = str(path)
        return any(
            fnmatch.fnmatch(text, pattern) or fnmatch.fnmatch(Path(text).name, pattern)
            for pattern in self.exclude
        )

    def merged(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> "AnalysisConfig":
        """A copy with CLI overrides applied (None keeps the file value)."""
        return AnalysisConfig(
            select=tuple(select) if select is not None else self.select,
            ignore=tuple(ignore) if ignore is not None else self.ignore,
            exclude=self.exclude,
        )


def _matches_any(rule_id: str, patterns: tuple[str, ...]) -> bool:
    return any(rule_id == p or rule_id.startswith(p) for p in patterns)


def unmatched_patterns(
    patterns: Iterable[str], rule_ids: Iterable[str] = RULES
) -> list[str]:
    """The select/ignore patterns that name no rule in ``rule_ids``.

    A pattern nothing matches is a typo, not a filter: it would make
    ``--select`` pass vacuously.  Used for the config table and for the
    command-line values alike.
    """
    rule_ids = tuple(rule_ids)
    return [
        pattern
        for pattern in patterns
        if not any(rule_id.startswith(pattern) for rule_id in rule_ids)
    ]


def load_config(pyproject: Optional[Path] = None) -> AnalysisConfig:
    """Read ``[tool.repro.analysis]``; missing file/table yields defaults."""
    path = pyproject if pyproject is not None else find_pyproject()
    if path is None or not path.is_file():
        return AnalysisConfig()
    with path.open("rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("repro", {}).get("analysis", {})
    unknown = set(table) - {"select", "ignore", "exclude"}
    if unknown:
        raise ValueError(
            f"unknown keys in [tool.repro.analysis]: {sorted(unknown)}"
        )
    config = AnalysisConfig(
        select=tuple(table.get("select", ())),
        ignore=tuple(table.get("ignore", ())),
        exclude=tuple(table.get("exclude", ())),
    )
    for pattern in unmatched_patterns(config.select + config.ignore):
        raise ValueError(
            f"[tool.repro.analysis] names unknown rule or prefix {pattern!r}"
        )
    return config


def find_pyproject(start: Optional[Path] = None) -> Optional[Path]:
    """Walk upward from ``start`` (default: cwd) to the nearest pyproject.toml."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        path = candidate / "pyproject.toml"
        if path.is_file():
            return path
    return None


def suppressed_rules(source_line: str) -> Optional[set[str]]:
    """Parse a ``# repro: noqa[...]`` comment on one physical source line.

    Returns None when there is no suppression, an empty set for a bare
    ``# repro: noqa`` (suppress everything), or the set of rule ids named
    in the bracket.
    """
    match = _NOQA.search(source_line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return set()
    return {item.strip() for item in rules.split(",") if item.strip()}


def is_suppressed(rule_id: str, source_line: str) -> bool:
    rules = suppressed_rules(source_line)
    if rules is None:
        return False
    return not rules or rule_id in rules
