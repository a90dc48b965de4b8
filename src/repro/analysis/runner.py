"""Analyzer driver: file discovery, per-file scan, pragma filtering.

Each file is parsed once and checked on its own: its ``CACHE_INVARIANTS``
declaration guards that module alone.  The determinism and coherence rules
run per file, findings suppressed by a same-line ``# det: ok(reason)`` pragma
are dropped, then pragma hygiene findings are appended (missing reasons
always; stale pragmas under strict).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.coherence import CoherenceChecker, load_tables
from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.pragmas import PragmaMap


def discover_files(paths: List[Path], config: AnalysisConfig) -> List[Path]:
    """All scannable .py files under the given paths, sorted for stability."""
    files: List[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(candidate for candidate in path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    unique = sorted({file.resolve() for file in files})
    return [file for file in unique if not config.is_excluded(file)]


def run_paths(
    paths: List[Path],
    root: Optional[Path] = None,
    strict: bool = False,
    config: Optional[AnalysisConfig] = None,
) -> List[Finding]:
    """Analyze ``paths`` and return every finding, report-ordered."""
    if root is None:
        root = find_root(paths)
    if config is None:
        config = load_config(root)
    files = discover_files([path.resolve() for path in paths], config)

    findings: List[Finding] = []
    for file in files:
        display = _display_path(file, root)
        source = file.read_text(encoding="utf-8")
        pragmas = PragmaMap.parse(display, source)
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="PAR001",
                    path=display,
                    line=exc.lineno or 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        tables, table_findings = load_tables(tree, display)
        findings.extend(table_findings)
        disabled = config.disabled_rules(file)
        raw: List[Finding] = []
        raw.extend(DeterminismChecker(tree, display, disabled).run())
        if "COH001" not in disabled:
            raw.extend(CoherenceChecker(tree, display, tables).run())
        findings.extend(finding for finding in raw if not pragmas.suppresses(finding.line))
        findings.extend(pragmas.lint(strict))
    return sort_findings(findings)


def find_root(paths: List[Path]) -> Path:
    """Walk up from the first path to the directory holding pyproject.toml."""
    start = paths[0].resolve() if paths else Path.cwd()
    if start.is_file():
        start = start.parent
    for candidate in [start] + list(start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return Path.cwd()


def _display_path(file: Path, root: Path) -> str:
    try:
        return file.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return file.as_posix()


def collect_guard_summary(paths: List[Path], root: Optional[Path] = None) -> Dict[str, Tuple[str, ...]]:
    """owner class -> guarded attribute/call names (for --tables output)."""
    if root is None:
        root = find_root(paths)
    config = load_config(root)
    summary: Dict[str, Tuple[str, ...]] = {}
    for file in discover_files([path.resolve() for path in paths], config):
        try:
            tree = ast.parse(file.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        tables, _ = load_tables(tree, _display_path(file, root))
        for table in tables:
            guarded = tuple(sorted(table.attrs)) + tuple(
                ".".join(key) for key in sorted(table.calls)
            )
            summary[f"{table.owner} ({table.source_path})"] = guarded
    return summary
