"""Dependency-free line-coverage measurement for the repro package.

CI's ``coverage`` job uses ``pytest-cov``; this script exists for
environments without it (offline containers).  It reproduces statement
coverage closely enough to set and maintain the committed threshold:

* the *denominator* is the set of executable lines per module, derived from
  the compiled code objects' ``co_lines`` tables (what coverage tools count
  as statements, minus a handful of parser-level exclusions);
* the *numerator* is the set of those lines hit while running the test
  suite under ``sys.settrace`` (non-``repro`` frames are skipped at call
  granularity, so the overhead stays tolerable).

Usage::

    PYTHONPATH=src python scripts/measure_coverage.py [pytest args...]

Prints per-package rates and the total line rate.  The CI gate's committed
minimum lives in ``.github/workflows/ci.yml`` (``--cov-fail-under``): when
the measured rate grows, ratchet the floor up to (measured − 1)%.  Pass
``--hypothesis-seed=0`` (the default arguments do, as CI's coverage step
does): unseeded hypothesis suites reach different branches from run to run,
so the rate would not repeat.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

PACKAGE_ROOT = SRC / "repro"


def executable_lines(code: CodeType) -> set[int]:
    """Executable line numbers of a module, from its code objects."""
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(line for _, _, line in obj.co_lines() if line is not None)
        for const in obj.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    # Module/class docstring lines and the ``__main__`` guard body mirror the
    # common coverage exclusions closely enough for a stable rate.
    return lines


def measure(
    root: Path, run: Callable[[], int]
) -> tuple[int, dict[Path, tuple[set[int], set[int]]]]:
    """Run ``run()`` under a line tracer for the ``.py`` files below ``root``.

    Returns ``run()``'s exit code and, per file, its executable lines and
    the lines hit.  Hits are line numbers of the code the run imported, so
    the executable lines come from that same code, not from the file on
    disk afterwards: a file edited during the run is measured against the
    lines that ran.  A file the run never imported is compiled from disk.
    """
    hit: dict[str, set[int]] = {}
    imported: dict[str, CodeType] = {}
    prefix = str(root)

    def tracer(frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        if not filename.startswith(prefix):
            return None
        if code.co_name == "<module>":
            imported.setdefault(filename, code)
        lines = hit.setdefault(filename, set())

        def line_tracer(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line_tracer

        if event == "call":
            lines.add(frame.f_lineno)
        return line_tracer

    sys.settrace(tracer)
    try:
        exit_code = run()
    finally:
        sys.settrace(None)

    files: dict[Path, tuple[set[int], set[int]]] = {}
    for path in sorted(root.rglob("*.py")):
        code = imported.get(str(path))
        if code is None:
            code = compile(path.read_text(), str(path), "exec")
        executable = executable_lines(code)
        files[path] = (executable, hit.get(str(path), set()) & executable)
    return exit_code, files


def main() -> int:
    import pytest

    args = sys.argv[1:] or ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    exit_code, files = measure(PACKAGE_ROOT, lambda: pytest.main(args))

    total_executable = 0
    total_hit = 0
    by_package: dict[str, list[int]] = {}
    for path, (executable, hit_here) in files.items():
        total_executable += len(executable)
        total_hit += len(hit_here)
        package = path.relative_to(PACKAGE_ROOT).parts[0]
        bucket = by_package.setdefault(package, [0, 0])
        bucket[0] += len(executable)
        bucket[1] += len(hit_here)

    print()
    print(f"{'package':<24} {'lines':>7} {'hit':>7} {'rate':>7}")
    for package, (lines, hits) in sorted(by_package.items()):
        rate = 100.0 * hits / lines if lines else 100.0
        print(f"{package:<24} {lines:>7} {hits:>7} {rate:>6.1f}%")
    rate = 100.0 * total_hit / total_executable if total_executable else 100.0
    print(f"{'TOTAL':<24} {total_executable:>7} {total_hit:>7} {rate:>6.1f}%")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
