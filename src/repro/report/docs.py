"""The generated blocks of ``docs/REPRODUCTION.md``.

Each block sits between ``<!-- repro:NAME:begin/end -->`` markers.  The tier
table and one table per catalog section are rendered from the catalog; the
``timing`` table keeps each tier's measured row, and ``reproduce
--refresh-docs`` rewrites every block, with the row of the tier that just ran
taken from its ``timing.json``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

from repro.report.catalog import EXPERIMENTS, SECTIONS, TIER_NAMES, TIERS, catalog_rows
from repro.report.manifest import Manifest
from repro.report.render import markdown_table

PathLike = Union[str, Path]

DEFAULT_DOC = Path("docs") / "REPRODUCTION.md"

_TIMING_HEADER = ["tier", "experiments complete", "measured wall-clock"]

#: Every generated block, in the order the doc holds them.
BLOCK_NAMES = ("tiers", "timing", *(key for key, _ in SECTIONS))


def catalog_blocks() -> Dict[str, str]:
    """The tier table and one catalog table per section, keyed by block name."""
    blocks = {
        "tiers": markdown_table(
            ["tier", "overlay", "run length", "what it is for"],
            [
                [f"`{tier.name}`", f"{tier.n_overlay} nodes", f"{tier.duration_s:.0f} s",
                 tier.description]
                for tier in TIERS.values()
            ],
        )
    }
    for key, _title in SECTIONS:
        blocks[key] = markdown_table(
            ["#", "id", "paper ref", "experiment"],
            [
                [str(number), f"`{entry.id}`", entry.paper_ref, entry.description]
                for number, entry in catalog_rows(key)
            ],
        )
    return blocks


def timing_row(manifest: Manifest, timing: Mapping[str, object]) -> List[str]:
    """The measured table row for one reproduction run."""
    complete = sum(1 for record in manifest.experiments.values() if record.complete)
    total = timing.get("total_s")
    measured = (
        f"{float(total):.1f} s" if isinstance(total, (int, float)) else "not recorded"
    )
    return [manifest.tier, f"{complete}/{len(EXPERIMENTS)}", measured]


def _read_doc(path: Path) -> str:
    if not path.is_file():
        raise ValueError(
            f"{path}: no such file under {Path.cwd()}; --refresh-docs rewrites"
            " the repository's docs/REPRODUCTION.md, so run it from the"
            " repository root"
        )
    return path.read_text()


def _span(text: str, path: Path, name: str) -> Tuple[int, int]:
    """Offsets of the text between block ``name``'s two markers."""
    begin_marker, end_marker = f"<!-- repro:{name}:begin -->", f"<!-- repro:{name}:end -->"
    begin = text.find(begin_marker)
    end = text.find(end_marker)
    if begin == -1 or end == -1 or end < begin:
        raise ValueError(
            f"{path}: missing {begin_marker} / {end_marker} markers; cannot"
            f" refresh the {name} block"
        )
    return begin + len(begin_marker), end


def committed_blocks(doc_path: PathLike) -> Dict[str, str]:
    """Every generated block's current text in the doc, without its newlines.

    Raises ValueError when the doc is missing or lacks a block's markers.
    """
    path = Path(doc_path)
    text = _read_doc(path)
    blocks = {}
    for name in BLOCK_NAMES:
        begin, end = _span(text, path, name)
        blocks[name] = text[begin:end].strip("\n")
    return blocks


def refresh_docs(
    doc_path: PathLike, manifest: Manifest, timing: Mapping[str, object]
) -> bool:
    """Rewrite every generated block of the doc, with this run's timing row.

    Returns True when the file changed.  Raises ValueError when the doc is
    missing or lacks (or has malformed) markers.
    """
    path = Path(doc_path)
    text = _read_doc(path)
    rows: Dict[str, List[str]] = {}
    for line in committed_blocks(path)["timing"].splitlines()[2:]:  # after the header
        if line.startswith("|"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            rows[cells[0]] = cells
    rows[manifest.tier] = timing_row(manifest, timing)
    blocks = catalog_blocks()
    blocks["timing"] = markdown_table(
        _TIMING_HEADER,
        [rows[tier] for tier in TIER_NAMES if tier in rows]
        + [row for tier, row in rows.items() if tier not in TIER_NAMES],
    )
    updated = text
    for name, body in blocks.items():
        begin, end = _span(updated, path, name)
        updated = f"{updated[:begin]}\n{body}\n{updated[end:]}"
    if updated == text:
        return False
    path.write_text(updated)
    return True
