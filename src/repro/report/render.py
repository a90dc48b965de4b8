"""Render a reproduction manifest into markdown and standalone HTML.

:func:`report_blocks` walks the manifest plus the wall-clock sidecar once
and states the report as a short list of blocks (heading, paragraph, table,
bullet list) whose text carries markdown inline marks: a run summary, the
cross-system comparison matrix (from the ``systems`` catalog entry), a
per-experiment summary table with paper-expectation verdicts, and
per-experiment metric detail (with mean ± 95% CI columns when the run used
``--stability``).  :func:`render_markdown` and :func:`render_html` are two
emitters over that one list, so the two outputs say the same thing.
"""

from __future__ import annotations

import html
import re
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.report.catalog import (
    EXPERIMENTS,
    MATRIX_CONDITIONS,
    MATRIX_SYSTEMS,
    SECTIONS,
    catalog_rows,
    system_supports_churn,
)
from repro.report.manifest import ExperimentRecord, Manifest

#: One report block: ``("h1" | "h2" | "h3", text)``, ``("p", text)``,
#: ``("table", header, rows)`` or ``("ul", items)``.
Block = Tuple[Any, ...]

_STATUS_MARK = {"pass": "PASS", "fail": "FAIL", "info": "info"}


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "nan"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3g}"


def _check_summary(record: ExperimentRecord) -> str:
    passed = sum(1 for o in record.expectations if o.status == "pass")
    failed = sum(1 for o in record.expectations if o.status == "fail")
    info = sum(1 for o in record.expectations if o.status == "info")
    parts = []
    if passed:
        parts.append(f"{passed} pass")
    if failed:
        parts.append(f"{failed} FAIL")
    if info:
        parts.append(f"{info} info")
    return ", ".join(parts) if parts else "-"


def _timing_for(timing: Mapping[str, object], experiment_id: str) -> Optional[float]:
    per_experiment = timing.get("experiments", {})
    value = per_experiment.get(experiment_id) if isinstance(per_experiment, dict) else None
    return float(value) if isinstance(value, (int, float)) else None


def _matrix_rows(manifest: Manifest) -> List[List[str]]:
    """The cross-system table: one row per system, useful Kbps per condition."""
    record = manifest.experiments.get("systems")
    if record is None or not record.complete:
        return []
    rows = []
    for system, _tree in MATRIX_SYSTEMS:
        row = [system]
        for condition in MATRIX_CONDITIONS:
            value = record.metrics.get(f"{system}.{condition}.useful_kbps")
            if value is not None:
                row.append(_format_value(value))
            elif condition == "churn" and not system_supports_churn(system):
                # The cell is absent by declaration, not by failure: the
                # system's registry spec opts out of fail_node.
                row.append("n/a (capability)")
            else:
                row.append("-")
        rows.append(row)
    return rows


def _metric_rows(record: ExperimentRecord, headline: Sequence[str]) -> List[List[str]]:
    """One row per recorded metric, in the catalog entry's headline order
    (a reloaded manifest stores them sorted by name)."""
    rows = []
    for name in headline:
        if name not in record.metrics:
            continue
        row = [name, _format_value(record.metrics[name])]
        aggregate = record.stability.get(name)
        if aggregate:
            row.append(
                f"{_format_value(aggregate['mean'])} ± {_format_value(aggregate['ci95'])}"
                f" (n={int(aggregate['n'])})"
            )
        rows.append(row)
    return rows


def report_blocks(manifest: Manifest, timing: Mapping[str, object]) -> List[Block]:
    """The whole report, walked once from the manifest and timing sidecar."""
    blocks: List[Block] = [
        ("h1", "Bullet reproduction report"),
        (
            "p",
            "One-command reproduction of *Bullet: High Bandwidth Data Dissemination"
            " Using an Overlay Mesh* (Kostić et al., SOSP 2003) — see"
            " `docs/REPRODUCTION.md` for the experiment catalog.",
        ),
    ]
    meta_rows = [
        ["run id", manifest.run_id],
        ["tier", manifest.tier],
        ["base seed", str(manifest.seed)],
        ["stability seeds", str(max(manifest.stability, 1))],
        ["git SHA", manifest.git_sha],
    ]
    total = timing.get("total_s")
    if isinstance(total, (int, float)):
        meta_rows.append(["total wall-clock", f"{float(total):.1f} s"])
    blocks.append(("table", ["run", "value"], meta_rows))

    records = manifest.experiments.values()
    complete = [r for r in records if r.complete]
    verdicts = [o.status for r in complete for o in r.expectations]
    blocks.append((
        "p",
        f"**{len(complete)} experiments complete, {len(records) - len(complete)}"
        f" failed; paper expectations: {verdicts.count('pass')} pass,"
        f" {verdicts.count('fail')} fail.**",
    ))

    matrix = _matrix_rows(manifest)
    if matrix:
        blocks += [
            ("h2", "Cross-system comparison"),
            (
                "p",
                "Average useful bandwidth (Kbps) per system and condition, from"
                " the `systems` matrix experiment:",
            ),
            ("table", ["system", *MATRIX_CONDITIONS], matrix),
        ]

    # Catalog order, then any ids the catalog no longer knows.
    numbered = [
        (number, entry.id) for number, entry in catalog_rows()
        if entry.id in manifest.experiments
    ]
    unknown = [i for i in manifest.experiments if i not in EXPERIMENTS]
    numbered += [(len(EXPERIMENTS) + k, i) for k, i in enumerate(unknown, start=1)]
    summary_rows = []
    for number, experiment_id in numbered:
        entry = EXPERIMENTS.get(experiment_id)
        record = manifest.experiments[experiment_id]
        wall = _timing_for(timing, experiment_id)
        summary_rows.append([
            str(number),
            f"`{experiment_id}`",
            entry.paper_ref if entry else "-",
            entry.title if entry else "-",
            record.status,
            f"{wall:.1f}" if wall is not None else "-",
            _check_summary(record),
        ])
    blocks += [
        ("h2", "Summary"),
        (
            "table",
            ["#", "id", "paper ref", "experiment", "status", "wall (s)", "checks"],
            summary_rows,
        ),
    ]

    for section_key, section_title in SECTIONS:
        rows = [
            (number, entry) for number, entry in catalog_rows(section_key)
            if entry.id in manifest.experiments
        ]
        if rows:
            blocks.append(("h2", section_title))
        for number, entry in rows:
            record = manifest.experiments[entry.id]
            blocks += [
                ("h3", f"{number}. `{entry.id}` — {entry.title}"),
                ("p", f"*{entry.paper_ref}.* {entry.description}"),
            ]
            if not record.complete:
                blocks.append(("p", f"**FAILED**: `{record.error}`"))
                continue
            if record.metrics:
                header = ["metric", "value"]
                if any(record.stability.get(name) for name in record.metrics):
                    header.append("mean ± 95% CI")
                blocks.append(("table", header, _metric_rows(record, entry.headline)))
            if record.expectations:
                blocks.append((
                    "ul",
                    [
                        f"**{_STATUS_MARK.get(o.status, o.status)}** {o.name}: {o.detail}"
                        for o in record.expectations
                    ],
                ))
    return blocks


# ------------------------------------------------------------------ markdown
def markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A pipe table, one line per row."""
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def render_markdown(manifest: Manifest, timing: Mapping[str, object]) -> str:
    """The report as markdown, each block followed by one blank line."""
    out = []
    for kind, *body in report_blocks(manifest, timing):
        if kind == "table":
            out.append(markdown_table(*body))
        elif kind == "ul":
            out.append("\n".join(f"- {item}" for item in body[0]))
        elif kind == "p":
            out.append(body[0])
        else:
            out.append("#" * int(kind[1]) + " " + body[0])
    return "".join(f"{text}\n\n" for text in out)


# ---------------------------------------------------------------------- html
_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       line-height: 1.45; color: #1a1a1a; padding: 0 1rem; }
h1, h2, h3 { line-height: 1.2; }
table { border-collapse: collapse; margin: 0.75rem 0; }
th, td { border: 1px solid #cccccc; padding: 0.3rem 0.6rem; text-align: left; }
th { background: #f2f2f2; }
code { background: #f5f5f5; padding: 0.1rem 0.25rem; border-radius: 3px; }
.pass { color: #116611; font-weight: 600; }
.fail { color: #aa1111; font-weight: 600; }
.info { color: #666666; }
"""

#: Bold marks that are verdicts render with their verdict's CSS class.
_MARK_CLASS = {"PASS": "pass", "FAIL": "fail", "FAILED": "fail", "info": "info"}

_INLINE = re.compile(r"`([^`]+)`|\*\*(.+?)\*\*|\*([^*]+)\*")


def _inline_html(text: str) -> str:
    """Escape ``text``, then map its ``**…**``, `` `…` `` and ``*…*`` marks."""

    def mark(match: "re.Match[str]") -> str:
        code, strong, emphasis = match.groups()
        if code is not None:
            return f"<code>{code}</code>"
        if strong is not None:
            css = _MARK_CLASS.get(strong)
            return f'<span class="{css}">{strong}</span>' if css else f"<strong>{strong}</strong>"
        return f"<em>{emphasis}</em>"

    return _INLINE.sub(mark, html.escape(text))


def render_html(manifest: Manifest, timing: Mapping[str, object]) -> str:
    """The report as a standalone HTML page."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>Bullet reproduction report</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
    ]
    for kind, *body in report_blocks(manifest, timing):
        if kind == "table":
            header, rows = body
            parts.append("<table>")
            parts.append("<tr>" + "".join(f"<th>{_inline_html(c)}</th>" for c in header) + "</tr>")
            parts.extend(
                "<tr>" + "".join(f"<td>{_inline_html(c)}</td>" for c in row) + "</tr>"
                for row in rows
            )
            parts.append("</table>")
        elif kind == "ul":
            parts.append("<ul>")
            parts.extend(f"<li>{_inline_html(item)}</li>" for item in body[0])
            parts.append("</ul>")
        else:
            parts.append(f"<{kind}>{_inline_html(body[0])}</{kind}>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
