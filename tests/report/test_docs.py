"""REPRODUCTION.md maintenance: generated blocks and the timing table."""

import shutil
from pathlib import Path

import pytest

from repro.report.catalog import SECTIONS, experiment_ids
from repro.report.docs import (
    BLOCK_NAMES,
    DEFAULT_DOC,
    catalog_blocks,
    committed_blocks,
    refresh_docs,
    timing_row,
)
from repro.report.manifest import ExperimentRecord, Manifest

#: The timing table's denominator tracks the registered catalog size.
TOTAL = len(experiment_ids())

REPO_ROOT = Path(__file__).resolve().parents[2]

DOC_TEMPLATE = f"""# Reproduction

Some prose.

<!-- repro:timing:begin -->
| tier | experiments complete | measured wall-clock |
| --- | --- | --- |
| paper | 22/22 | 3712.0 s |
<!-- repro:timing:end -->

More prose.
""" + "".join(
    f"<!-- repro:{name}:begin -->\n<!-- repro:{name}:end -->\n"
    for name in BLOCK_NAMES
    if name != "timing"
)


def _manifest(tier="smoke", n_complete=2, ids=None):
    manifest = Manifest(run_id=tier, tier=tier, seed=1, stability=1, git_sha="x")
    for index in range(n_complete):
        manifest.record(
            ExperimentRecord(
                experiment_id=ids[index] if ids else f"e{index}",
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
        changed = refresh_docs(doc, _manifest(), {"total_s": 31.5})
        assert changed
        text = doc.read_text()
        assert f"| smoke | 2/{TOTAL} | 31.5 s |" in text
        assert "| paper | 22/22 | 3712.0 s |" in text
        # Tier order follows TIER_NAMES regardless of insertion order.
        assert text.index("| smoke |") < text.index("| paper |")
        assert text.startswith("# Reproduction")
        assert "More prose." in text
        # The catalog blocks are rendered in the same pass.
        assert committed_blocks(doc)["figures"] == catalog_blocks()["figures"]

    def test_replaces_existing_row(self, tmp_path):
        doc = tmp_path / "REPRODUCTION.md"
        doc.write_text(DOC_TEMPLATE)
        refresh_docs(doc, _manifest(tier="paper"), {"total_s": 4000.0})
        text = doc.read_text()
        assert f"| paper | 2/{TOTAL} | 4000.0 s |" in text
        assert "3712.0" not in text

    def test_idempotent(self, tmp_path):
        doc = tmp_path / "REPRODUCTION.md"
        doc.write_text(DOC_TEMPLATE)
        assert refresh_docs(doc, _manifest(), {"total_s": 31.5})
        assert not refresh_docs(doc, _manifest(), {"total_s": 31.5})

    def test_missing_markers_raise(self, tmp_path):
        doc = tmp_path / "REPRODUCTION.md"
        doc.write_text("# No markers here\n")
        with pytest.raises(ValueError, match="markers"):
            refresh_docs(doc, _manifest(), {})

    def test_missing_total_reports_not_recorded(self):
        assert "not recorded" in timing_row(_manifest(), {})

    def test_missing_catalog_block_raises(self, tmp_path):
        doc = tmp_path / "REPRODUCTION.md"
        doc.write_text(DOC_TEMPLATE.replace("repro:scale:end", "repro:scale:gone"))
        with pytest.raises(ValueError, match="scale"):
            refresh_docs(doc, _manifest(), {})


class TestDriftChecker:
    """docs/REPRODUCTION.md's generated blocks are what the catalog renders."""

    def test_committed_doc_matches_catalog(self):
        committed = committed_blocks(REPO_ROOT / DEFAULT_DOC)
        for name, rendered in catalog_blocks().items():
            assert committed[name] == rendered, f"{name}: run reproduce --refresh-docs"
        # Every registered id once, nothing stale, in `reproduce --list` order.
        documented = [
            line.split("`")[1]
            for key, _title in SECTIONS
            for line in committed[key].splitlines()[2:]
        ]
        assert documented == experiment_ids()

    def test_committed_doc_has_timing_markers(self):
        # Raises on a missing marker; the smoke tier has a measured row.
        timing = committed_blocks(REPO_ROOT / DEFAULT_DOC)["timing"]
        assert "| smoke |" in timing

    def test_refreshing_the_committed_doc_is_a_fixed_point(self, tmp_path):
        doc = tmp_path / "REPRODUCTION.md"
        shutil.copy(REPO_ROOT / DEFAULT_DOC, doc)
        smoke = next(
            line for line in committed_blocks(doc)["timing"].splitlines()
            if line.startswith("| smoke |")
        )
        total = float(smoke.split("|")[3].split()[0])
        ids = experiment_ids()
        manifest = _manifest(n_complete=len(ids), ids=ids)
        assert not refresh_docs(doc, manifest, {"total_s": total})
        assert doc.read_bytes() == (REPO_ROOT / DEFAULT_DOC).read_bytes()
