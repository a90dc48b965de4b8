"""Byte-level determinism guard backing the CI ``determinism`` job.

The same seeded scenario run twice exports byte-identical metrics (no
dict/set-iteration drift inside the engines).  That the exports are also the
*right* bytes is pinned by the literals in ``test_golden_digests.py``.
"""

import filecmp

import pytest

from repro.experiments.export import write_result_csv
from repro.experiments.harness import ExperimentConfig, run_experiment


def _config(system: str) -> ExperimentConfig:
    return ExperimentConfig(system=system, n_overlay=16, duration_s=40.0, seed=5)


@pytest.mark.parametrize("system", ["bullet", "stream"])
def test_same_seed_exports_identically(tmp_path, system):
    paths = []
    for index in range(2):
        result = run_experiment(_config(system))
        path = tmp_path / f"run{index}.csv"
        write_result_csv(path, result)
        paths.append(path)
    assert filecmp.cmp(*paths, shallow=False)
