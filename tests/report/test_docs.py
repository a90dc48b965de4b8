"""REPRODUCTION.md maintenance: timing-table refresh and drift checking."""

import re
from pathlib import Path

import pytest

from repro.report.catalog import experiment_ids
from repro.report.docs import (
    DEFAULT_DOC,
    TIMING_BEGIN,
    TIMING_END,
    check_timing_doc,
    refresh_timing_table,
    timing_row,
)
from repro.report.manifest import ExperimentRecord, Manifest

#: The timing table's denominator tracks the registered catalog size.
TOTAL = len(experiment_ids())

REPO_ROOT = Path(__file__).resolve().parents[2]

DOC_TEMPLATE = f"""# Reproduction

Some prose.

{TIMING_BEGIN}
| tier | experiments complete | measured wall-clock |
| --- | --- | --- |
| paper | 22/22 | 3712.0 s |
{TIMING_END}

More prose.
"""


def _manifest(tier="smoke", n_complete=2):
    manifest = Manifest(run_id=tier, tier=tier, seed=1, stability=1, git_sha="x")
    for index in range(n_complete):
        manifest.record(
            ExperimentRecord(
                experiment_id=f"e{index}",
                status="complete",
                export=f"e{index}.json",
                digest="sha256:" + "0" * 64,
                seeds=[1],
                metrics={},
            )
        )
    return manifest


class TestRefreshTimingTable:
    def test_adds_row_for_new_tier_and_keeps_others(self, tmp_path):
        doc = tmp_path / "REPRODUCTION.md"
        doc.write_text(DOC_TEMPLATE)
        changed = refresh_timing_table(doc, _manifest(), {"total_s": 31.5})
        assert changed
        text = doc.read_text()
        assert f"| smoke | 2/{TOTAL} | 31.5 s |" in text
        assert "| paper | 22/22 | 3712.0 s |" in text
        # Tier order follows TIER_NAMES regardless of insertion order.
        assert text.index("| smoke |") < text.index("| paper |")
        assert text.startswith("# Reproduction")
        assert text.rstrip().endswith("More prose.")

    def test_replaces_existing_row(self, tmp_path):
        doc = tmp_path / "REPRODUCTION.md"
        doc.write_text(DOC_TEMPLATE)
        refresh_timing_table(doc, _manifest(tier="paper"), {"total_s": 4000.0})
        text = doc.read_text()
        assert f"| paper | 2/{TOTAL} | 4000.0 s |" in text
        assert "3712.0" not in text

    def test_idempotent(self, tmp_path):
        doc = tmp_path / "REPRODUCTION.md"
        doc.write_text(DOC_TEMPLATE)
        assert refresh_timing_table(doc, _manifest(), {"total_s": 31.5})
        assert not refresh_timing_table(doc, _manifest(), {"total_s": 31.5})

    def test_missing_markers_raise(self, tmp_path):
        doc = tmp_path / "REPRODUCTION.md"
        doc.write_text("# No markers here\n")
        with pytest.raises(ValueError, match="markers"):
            refresh_timing_table(doc, _manifest(), {})

    def test_missing_total_reports_not_recorded(self):
        assert "not recorded" in timing_row(_manifest(), {})


class TestDriftChecker:
    """docs/REPRODUCTION.md documents the registered catalog, row by row."""

    #: Experiment ids are documented as table rows: | 7 | `fig12` | ... |
    ROW_ID = re.compile(r"^\|\s*\d+\s*\|\s*`([a-z0-9-]+)`\s*\|", re.MULTILINE)

    def test_committed_doc_matches_catalog(self):
        documented = self.ROW_ID.findall((REPO_ROOT / DEFAULT_DOC).read_text())
        # Every registered id once, nothing stale, in `reproduce --list` order.
        assert documented == experiment_ids()

    def test_committed_doc_has_timing_markers(self):
        check_timing_doc(REPO_ROOT / DEFAULT_DOC)
