"""Smoke tests that the example scripts are importable and their pieces work.

The examples are user-facing entry points; running them end-to-end takes
minutes, so the tests exercise their helper functions and a shortened version
of each scenario instead.
"""

import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent.parent / "examples"


class TestExampleFiles:
    def test_all_examples_present(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert "quickstart.py" in names
        assert "video_streaming_failure.py" in names
        assert "bandwidth_comparison.py" in names
        assert "scale_scenarios.py" in names

    @pytest.mark.parametrize(
        "script",
        ["quickstart.py", "video_streaming_failure.py", "bandwidth_comparison.py",
         "scale_scenarios.py"],
    )
    def test_examples_compile(self, script):
        source = (EXAMPLES_DIR / script).read_text()
        compile(source, script, "exec")

    def test_examples_have_main_guard_and_docstring(self):
        for script in EXAMPLES_DIR.glob("*.py"):
            source = script.read_text()
            assert '__main__' in source, f"{script.name} is not runnable"
            assert source.lstrip().startswith(('#!', '"""')), f"{script.name} lacks a docstring"


class TestVideoStreamingScenario:
    def test_failure_scenario_helper_runs_small(self, monkeypatch):
        sys.path.insert(0, str(EXAMPLES_DIR))
        try:
            import video_streaming_failure as example

            monkeypatch.setattr(example, "DURATION_S", 40.0)
            monkeypatch.setattr(example, "FAILURE_AT_S", 20.0)
            result = example.run_with_failure("stream", seed=3)
            assert result["before_kbps"] > 0
            assert result["subtree_size"] >= 1
        finally:
            sys.path.remove(str(EXAMPLES_DIR))


class TestScaleScenariosExample:
    def test_run_scenario_helper_at_tiny_scale(self):
        sys.path.insert(0, str(EXAMPLES_DIR))
        try:
            import scale_scenarios as example

            summary = example.run_scenario("churn-heavy", scale=0.05, seed=3)
            assert summary["average_useful_kbps"] > 0
            assert 0.0 <= summary["alloc_clean_fraction"] <= 1.0
        finally:
            sys.path.remove(str(EXAMPLES_DIR))
