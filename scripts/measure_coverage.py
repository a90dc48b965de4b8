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

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

PACKAGE_ROOT = SRC / "repro"


def executable_lines(path: Path) -> set[int]:
    """Executable line numbers of a module, from its code objects."""
    source = path.read_text()
    code = compile(source, str(path), "exec")
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


def main() -> int:
    hit: dict[str, set[int]] = {}
    prefix = str(PACKAGE_ROOT)

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = hit.setdefault(filename, set())

        def line_tracer(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line_tracer

        if event == "call":
            lines.add(frame.f_lineno)
        return line_tracer

    import pytest

    args = sys.argv[1:] or ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    sys.settrace(tracer)
    exit_code = pytest.main(args)
    sys.settrace(None)

    total_executable = 0
    total_hit = 0
    by_package: dict[str, list[int]] = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        executable = executable_lines(path)
        hit_here = hit.get(str(path), set()) & executable
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
