"""Pytest bootstrap: make ``src/`` importable even without installation.

The project is normally installed with ``pip install -e .``; this fallback
keeps ``pytest`` working in environments where the editable install is not
possible (e.g. fully offline machines with an old setuptools).  ``tests/``
goes on the path too, so test modules import the reference implementations
in ``tests/oracles/`` as the ``oracles`` package.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent
for _path in (_ROOT / "tests", _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
