"""The unused-name report: what counts as a caller, and what does not."""

import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "unused_names.py"

scan = runpy.run_path(str(SCRIPT))["scan"]

PLANTED = {
    "src/pkg/__init__.py": """
        from pkg.mod import reexported

        __all__ = ["reexported"]
    """,
    "src/pkg/mod.py": """
        def used():
            return 1


        def planted_unused():
            return planted_unused()


        def reexported():
            return 2


        def tested_only():
            return 3


        def dispatched():
            return 4


        class Engine:
            def run(self):
                return used()

            def planted_method(self):
                return 5

            def _private(self):
                return 6
    """,
    "src/pkg/user.py": """
        from pkg import mod

        mod.Engine().run()
        getattr(mod, "dispatched")()
    """,
    "examples/demo.py": """
        from pkg.mod import Engine

        Engine()
    """,
    "tests/test_mod.py": """
        from pkg.mod import Engine, tested_only

        def test_it():
            assert tested_only() == 3
            assert Engine().planted_method() == 5
    """,
    "benchmarks/test_bench.py": """
        from pkg.mod import reexported
    """,
}


def _plant(root):
    for relative, text in PLANTED.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


def test_groups_separate_dead_names_from_test_only_names(tmp_path):
    _plant(tmp_path)
    uncalled, test_only = scan(tmp_path)
    # Recursion is not a caller, and neither is an __init__ re-export nor a
    # bare import in a test file.
    assert [d.qualname for d in uncalled] == ["planted_unused", "reexported"]
    assert [d.qualname for d in test_only] == ["tested_only", "Engine.planted_method"]
    assert uncalled[0].path == "src/pkg/mod.py"


def test_report_always_exits_zero(tmp_path):
    _plant(tmp_path)
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0
    assert "(a) called nowhere: 2" in completed.stdout
    assert "src/pkg/mod.py:6 planted_unused" in completed.stdout
