"""Smoke tests that the example scripts are importable and their pieces work.

The examples are user-facing entry points; running them end-to-end takes
minutes, so the tests exercise their helper functions and a shortened version
of each scenario instead.
"""

import re
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


class TestVideoStreamingClaim:
    """The example's closing sentence agrees with the numbers it prints."""

    LINE = re.compile(
        r"^\s*(bullet|tree streaming): +([\d.]+) Kbps before -> +([\d.]+) Kbps"
        r" after the failure \((\d+)% retained"
    )

    def _example(self):
        sys.path.insert(0, str(EXAMPLES_DIR))
        try:
            import video_streaming_failure as example
        finally:
            sys.path.remove(str(EXAMPLES_DIR))
        return example

    def _check(self, out):
        printed = {
            match[1]: (float(match[3]), int(match[4]))
            for match in map(self.LINE.match, out.splitlines()) if match
        }
        (bullet_after, bullet_kept), (tree_after, tree_kept) = (
            printed["bullet"], printed["tree streaming"]
        )
        claim = out.strip().splitlines()[-1]
        kept_more = "Bullet kept more of its bandwidth" in claim
        assert kept_more == (bullet_kept > tree_kept), claim
        assert kept_more != ("Bullet did not keep more" in claim), claim
        assert f"({bullet_kept}% against {tree_kept}%)" in claim
        delivered_more = "delivered more than the tree" in claim
        assert delivered_more == (bullet_after > tree_after), claim
        assert delivered_more != ("delivered no more" in claim), claim

    def test_printed_claim_matches_printed_numbers(self, monkeypatch, capsys):
        example = self._example()
        monkeypatch.setattr(example, "DURATION_S", 40.0)
        monkeypatch.setattr(example, "FAILURE_AT_S", 20.0)
        example.main()
        self._check(capsys.readouterr().out)

    def test_claim_follows_either_outcome(self):
        example = self._example()
        strong = {"before_kbps": 400.0, "after_kbps": 380.0}
        weak = {"before_kbps": 400.0, "after_kbps": 100.0}
        won = example.conclusion(strong, weak)
        assert won.startswith(
            "Bullet kept more of its bandwidth than the plain tree (95% against 25%)"
        )
        assert "delivered more than the tree (380.0 against 100.0 Kbps)" in won
        lost = example.conclusion(weak, strong)
        assert lost.startswith(
            "Bullet did not keep more of its bandwidth than the plain tree (25% against 95%)"
        )
        assert "delivered no more than the tree" in lost


class TestScaleScenariosExample:
    def test_run_scenario_helper_at_tiny_scale(self):
        sys.path.insert(0, str(EXAMPLES_DIR))
        try:
            import scale_scenarios as example

            summary = example.run_scenario("churn-heavy", scale=0.05, seed=3)
            assert summary["average_useful_kbps"] > 0
            assert 0.0 < summary["alloc_solve_fraction"] <= 1.0
        finally:
            sys.path.remove(str(EXAMPLES_DIR))
