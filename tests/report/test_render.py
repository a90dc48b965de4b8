"""Report rendering from a synthetic manifest: both formats, all sections."""

import html
import re

from repro.report.catalog import MATRIX_CONDITIONS, MATRIX_SYSTEMS
from repro.report.manifest import ExpectationOutcome, ExperimentRecord, Manifest
from repro.report.render import render_html, render_markdown

TIMING = {"experiments": {"fig7": 1.2, "systems": 4.0}, "total_s": 5.2}


def _manifest(with_systems=True):
    manifest = Manifest(
        run_id="smoke", tier="smoke", seed=1, stability=1, git_sha="abc123"
    )
    manifest.record(
        ExperimentRecord(
            experiment_id="fig7",
            status="complete",
            export="fig7.json",
            digest="sha256:" + "0" * 64,
            seeds=[1],
            metrics={"useful_kbps": 474.2},
            expectations=[
                ExpectationOutcome(name="recovers", status="pass", detail="ok"),
                ExpectationOutcome(name="gated", status="info", detail="scale-gated"),
            ],
        )
    )
    if with_systems:
        metrics = {}
        for index, (system, _) in enumerate(MATRIX_SYSTEMS):
            for condition in MATRIX_CONDITIONS:
                if system == "gossip" and condition == "churn":
                    continue  # gossip has no fail_node; the table shows "-"
                metrics[f"{system}.{condition}.useful_kbps"] = 100.0 + index
        manifest.record(
            ExperimentRecord(
                experiment_id="systems",
                status="complete",
                export="systems.json",
                digest="sha256:" + "1" * 64,
                seeds=[1],
                metrics=metrics,
            )
        )
    manifest.record(
        ExperimentRecord(
            experiment_id="fig9",
            status="failed",
            export="fig9.json",
            digest="",
            seeds=[1],
            metrics={},
            error="RuntimeError: boom",
        )
    )
    return manifest


class TestMarkdown:
    def test_core_sections_present(self):
        text = render_markdown(_manifest(), TIMING)
        assert "# Bullet reproduction report" in text
        assert "## Cross-system comparison" in text
        assert "## Summary" in text
        assert "`fig7`" in text
        assert "474.2" in text
        assert "**PASS** recovers" in text
        assert "**info** gated" in text
        assert "**FAILED**: `RuntimeError: boom`" in text
        assert "| total wall-clock | 5.2 s |" in text

    def test_matrix_row_per_system_with_gap(self):
        # Gossip declares supports_fail_node=False, so its absent churn cell
        # renders as a capability gap rather than a bare dash.
        text = render_markdown(_manifest(), TIMING)
        gossip_row = next(
            line for line in text.splitlines() if line.startswith("| gossip ")
        )
        assert gossip_row.rstrip().endswith("| n/a (capability) |")

    def test_no_systems_record_drops_matrix(self):
        text = render_markdown(_manifest(with_systems=False), TIMING)
        assert "Cross-system comparison" not in text

    def test_reloaded_manifest_renders_like_the_fresh_one(self, tmp_path):
        # A fresh run stores metrics in headline order; the saved manifest
        # sorts its keys.  The rows follow the headline either way.
        manifest = _manifest()
        manifest.experiments["fig7"].metrics = {
            "useful_kbps": 474.2,
            "from_parent_kbps": 301.5,
            "duplicate_ratio": 0.052,
        }
        manifest.save(tmp_path)
        reloaded = Manifest.load(tmp_path)
        assert list(reloaded.experiments["fig7"].metrics) != list(
            manifest.experiments["fig7"].metrics
        )
        fresh = render_markdown(manifest, TIMING)
        assert render_markdown(reloaded, TIMING) == fresh
        rows = [line.split(" | ")[0] for line in fresh.splitlines() if "_kbps |" in line]
        assert rows[:2] == ["| useful_kbps", "| from_parent_kbps"]

    def test_stability_column_when_present(self):
        manifest = _manifest(with_systems=False)
        manifest.experiments["fig7"].stability = {
            "useful_kbps": {"mean": 474.0, "std": 2.0, "ci95": 3.5, "n": 3.0}
        }
        text = render_markdown(manifest, TIMING)
        assert "mean ± 95% CI" in text
        assert "474.0 ± 3.5 (n=3)" in text


class TestHtml:
    def test_standalone_document(self):
        html = render_html(_manifest(), TIMING)
        assert html.startswith("<!DOCTYPE html>")
        assert "</html>" in html
        assert "<style>" in html  # no external assets
        assert "Cross-system comparison" in html
        assert "fig7" in html

    def test_escapes_untrusted_text(self):
        manifest = _manifest(with_systems=False)
        manifest.experiments["fig9"].error = "<script>alert(1)</script>"
        html = render_html(manifest, TIMING)
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_renders_without_timing(self):
        html = render_html(_manifest(), {})
        assert "total wall-clock" not in html


class TestParity:
    """report.html says everything report.md says: both come from one walk."""

    #: The markdown inline marks the report uses, as HTML.
    INLINE = re.compile(r"`([^`]+)`|\*\*(.+?)\*\*|\*([^*]+)\*")
    VERDICT = {"PASS": "pass", "FAIL": "fail", "FAILED": "fail", "info": "info"}

    def _html(self, text):
        def mark(match):
            code, strong, emphasis = match.groups()
            if code is not None:
                return f"<code>{code}</code>"
            if strong is not None:
                if strong in self.VERDICT:
                    return f'<span class="{self.VERDICT[strong]}">{strong}</span>'
                return f"<strong>{strong}</strong>"
            return f"<em>{emphasis}</em>"

        return self.INLINE.sub(mark, html.escape(text))

    def _markdown_items(self, text):
        """Every heading, paragraph, table cell and list item, as HTML."""
        items = []
        for line in text.splitlines():
            if not line or set(line) <= {"|", "-", " "}:
                continue  # blank line or a table's separator row
            if line.startswith("#"):
                level, _, body = line.partition(" ")
                items.append(f"<h{len(level)}>{self._html(body)}</h{len(level)}>")
            elif line.startswith("| "):
                items.extend(
                    f">{self._html(cell.strip())}</t"
                    for cell in line.strip().strip("|").split(" | ")
                )
            elif line.startswith("- "):
                items.append(f"<li>{self._html(line[2:])}</li>")
            else:
                items.append(f"<p>{self._html(line)}</p>")
        return items

    def test_every_markdown_item_is_in_the_html(self):
        manifest = _manifest()
        manifest.experiments["fig7"].stability = {
            "useful_kbps": {"mean": 474.0, "std": 2.0, "ci95": 3.5, "n": 3.0}
        }
        markdown = render_markdown(manifest, TIMING)
        page = render_html(manifest, TIMING)
        items = self._markdown_items(markdown)
        assert any("FAILED" in item for item in items)
        assert any("474.0 ± 3.5 (n=3)" in item for item in items)
        assert any("n/a (capability)" in item for item in items)
        missing = [item for item in items if item not in page]
        assert not missing
