"""The analyzer gates this repo: src/ is clean, seeded regressions are not.

The second test is the analyzer's own acceptance check: copy the real tree,
re-introduce the two canonical bug classes in the mesh — an unsorted set
iteration, and a join that no longer rebuilds the depth levels derived from
the tree — and require the scan to fail naming exactly those sites.
"""

import shutil
from pathlib import Path

from repro.analysis.config import load_config
from repro.analysis.report import EXIT_CLEAN, EXIT_FINDINGS, EXIT_INTERNAL, exit_code
from repro.analysis.runner import run_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSelfGate:
    def test_full_src_tree_is_clean(self):
        config = load_config(REPO_ROOT)
        findings = run_paths(
            [REPO_ROOT / "src"], root=REPO_ROOT, strict=True, config=config
        )
        assert findings == [], "\n".join(f.render() for f in findings)
        assert exit_code(findings) == EXIT_CLEAN

    def test_seeded_regressions_are_caught(self, tmp_path):
        shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
        shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path / "pyproject.toml")

        mesh = tmp_path / "src" / "repro" / "core" / "mesh.py"
        source = mesh.read_text()
        marker = "        self._deliver_exchange()"
        assert marker in source
        mesh.write_text(
            source.replace(
                marker,
                marker + "\n        for _node in self.failed:\n            pass",
                1,
            )
        )

        source = mesh.read_text()
        join = source.index("    def add_node(")
        bump = "        self._rebuild_depth_levels()\n"
        drop = source.index(bump, join)
        assert "\n    def " not in source[join + 1 : drop]
        mesh.write_text(source[:drop] + source[drop + len(bump) :])

        config = load_config(tmp_path)
        findings = run_paths(
            [tmp_path / "src"], root=tmp_path, strict=True, config=config
        )
        assert exit_code(findings) == EXIT_FINDINGS
        rendered = [finding.render() for finding in findings]
        assert any(
            "repro/core/mesh.py" in line and "DET003" in line for line in rendered
        ), rendered
        assert any(
            "repro/core/mesh.py" in line
            and "COH001" in line
            and "add_node()" in line
            and "_rebuild_depth_levels" in line
            for line in rendered
        ), rendered

    def test_unparseable_file_is_par001(self, analyze):
        findings = analyze({"mod.py": 'x = """unterminated\n'})
        assert [finding.rule for finding in findings] == ["PAR001"]

    def test_exit_code_contract(self, analyze, capsys, tmp_path):
        from repro.analysis.__main__ import main

        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "mod.py").write_text("def noop():\n    return 0\n")
        assert main([str(clean), "--root", str(tmp_path)]) == EXIT_CLEAN

        dirty = tmp_path / "dirty"
        dirty.mkdir()
        (dirty / "mod.py").write_text(
            "def walk(members: set):\n    for m in members:\n        print(m)\n"
        )
        assert main([str(dirty), "--root", str(tmp_path)]) == EXIT_FINDINGS

        assert main([str(tmp_path / "missing")]) == EXIT_INTERNAL
        capsys.readouterr()
