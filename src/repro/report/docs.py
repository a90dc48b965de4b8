"""Generated-data-aware maintenance of ``docs/REPRODUCTION.md``.

The measured wall-clock table in REPRODUCTION.md lives between the
``repro:timing`` markers and is refreshed from a run's ``timing.json`` by
``python -m repro.cli reproduce --refresh-docs``: the row for the tier that
just ran is rewritten with the measured totals, other tiers' rows are kept.
The experiment catalog itself is checked against the registered experiments
by ``tests/report/test_docs.py`` (tier-1 fails on drift).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

from repro.report.catalog import EXPERIMENTS, TIER_NAMES
from repro.report.manifest import Manifest

PathLike = Union[str, Path]

TIMING_BEGIN = "<!-- repro:timing:begin -->"
TIMING_END = "<!-- repro:timing:end -->"
DEFAULT_DOC = Path("docs") / "REPRODUCTION.md"

_HEADER = (
    "| tier | experiments complete | measured wall-clock |",
    "| --- | --- | --- |",
)


def _existing_rows(block: str) -> Dict[str, str]:
    """Data rows of the current timing table, keyed by tier name."""
    rows: Dict[str, str] = {}
    for line in block.strip().splitlines():
        line = line.strip()
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not cells or cells[0] == "tier" or set(cells[0]) <= {"-"}:
            continue
        rows[cells[0]] = line
    return rows


def timing_row(manifest: Manifest, timing: Mapping[str, object]) -> str:
    """The measured table row for one reproduction run."""
    complete = sum(1 for record in manifest.experiments.values() if record.complete)
    total = timing.get("total_s")
    measured = (
        f"{float(total):.1f} s" if isinstance(total, (int, float)) else "not recorded"
    )
    return f"| {manifest.tier} | {complete}/{len(EXPERIMENTS)} | {measured} |"


def _timing_span(path: Path) -> Tuple[str, int, int]:
    """The doc's text and the offsets of its two timing markers."""
    if not path.is_file():
        raise ValueError(
            f"{path}: no such file under {Path.cwd()}; --refresh-docs rewrites"
            " the repository's docs/REPRODUCTION.md, so run it from the"
            " repository root"
        )
    text = path.read_text()
    begin = text.find(TIMING_BEGIN)
    end = text.find(TIMING_END)
    if begin == -1 or end == -1 or end < begin:
        raise ValueError(
            f"{path}: missing {TIMING_BEGIN} / {TIMING_END} markers; cannot"
            " refresh the timing table"
        )
    return text, begin, end


def check_timing_doc(doc_path: PathLike) -> None:
    """Raise ValueError unless ``doc_path`` exists and has both timing markers."""
    _timing_span(Path(doc_path))


def refresh_timing_table(
    doc_path: PathLike, manifest: Manifest, timing: Mapping[str, object]
) -> bool:
    """Rewrite the run's tier row in the doc's timing table.

    Returns True when the file changed.  Raises ValueError when the doc is
    missing or has no (or malformed) ``repro:timing`` markers.
    """
    path = Path(doc_path)
    text, begin, end = _timing_span(path)
    block = text[begin + len(TIMING_BEGIN): end]
    rows = _existing_rows(block)
    rows[manifest.tier] = timing_row(manifest, timing)
    ordered: List[str] = [rows[tier] for tier in TIER_NAMES if tier in rows]
    ordered.extend(row for tier, row in rows.items() if tier not in TIER_NAMES)
    rebuilt = "\n" + "\n".join((*_HEADER, *ordered)) + "\n"
    updated = text[: begin + len(TIMING_BEGIN)] + rebuilt + text[end:]
    if updated == text:
        return False
    path.write_text(updated)
    return True
