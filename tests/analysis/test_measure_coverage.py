"""The dependency-free coverage script measures the code that ran."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "measure_coverage.py"

MODULE = '''\
"""A module whose docstring
the run deletes."""


def first():
    return 1


def second():
    value = 2
    return value
'''

# Measured in a child process: ``measure`` installs its own trace function,
# which would displace one that is measuring this test run.
CHILD = textwrap.dedent(
    """
    import json, runpy, sys
    from pathlib import Path

    measure = runpy.run_path(sys.argv[1])["measure"]
    root = Path(sys.argv[2])
    module = root / "edited.py"

    def run():
        sys.path.insert(0, str(root))
        import edited
        edited.first()
        edited.second()
        # Edit the traced module mid-run: every line moves up by two.
        module.write_text(module.read_text().replace(
            '\\"\\"\\"A module whose docstring\\nthe run deletes.\\"\\"\\"\\n', ""))
        return 0

    exit_code, files = measure(root, run)
    executable, hit = files[module]
    print(json.dumps([exit_code, sorted(executable), sorted(hit)]))
    """
)


def test_a_module_edited_during_the_run_keeps_the_lines_that_ran(tmp_path):
    (tmp_path / "edited.py").write_text(MODULE)
    out = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(SCRIPT), str(tmp_path)],
        check=True, capture_output=True, text=True,
    ).stdout
    exit_code, executable, hit = json.loads(out)
    assert exit_code == 0
    assert "docstring" not in (tmp_path / "edited.py").read_text()  # it was edited
    # Every line of the imported module ran, and is counted against the
    # imported module's own lines, not the shifted file on disk.
    assert {5, 6, 9, 10, 11} <= set(executable)  # the imported numbering
    assert hit == executable
