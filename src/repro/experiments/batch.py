"""Batch execution and parameter sweeps over the experiment harness.

The paper's evaluation is a matrix of systems × trees × bandwidth classes ×
failure/loss scenarios, and the ROADMAP asks for multi-seed confidence
intervals on top.  This module makes that matrix a first-class API:

* :func:`run_batch` runs a list of :class:`ExperimentConfig` objects —
  serially or fanned out over a ``multiprocessing`` pool — and returns a
  :class:`ResultSet` in input order (parallel runs are bitwise identical to
  serial ones: each run is seeded from its own config and shares no state).
* :func:`sweep` builds the cartesian product of parameter overrides × seeds
  over a base config and runs it as a batch.
* :class:`ResultSet` holds the results with aggregation helpers: grouping by
  config parameters and mean / sample std / 95% CI across seeds.

Example::

    results = sweep(
        ExperimentConfig(n_overlay=40, duration_s=120.0),
        {"system": ["bullet", "stream"]},
        seeds=[1, 2, 3],
        workers=4,
    )
    for row in results.aggregate("average_useful_kbps", by=("system",)):
        print(row.group, row.mean, "+/-", row.ci95)
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.harness import ExperimentConfig, ExperimentResult, run_experiment


def _run_one(config: ExperimentConfig) -> ExperimentResult:
    """Top-level worker so multiprocessing can pickle it."""
    return run_experiment(config)


def _pool_context():
    """Prefer fork (keeps custom registered systems visible to workers)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def run_batch(
    configs: Iterable[ExperimentConfig], workers: int = 1
) -> "ResultSet":
    """Run every config and return a :class:`ResultSet` in input order.

    ``workers > 1`` fans the runs out over a process pool; because every run
    is fully determined by its config (all randomness is seeded from
    ``config.seed``), the parallel result set is identical to the serial one.

    Workers are forked where the platform allows it, so systems registered at
    runtime via ``@register_system`` remain visible.  On platforms without
    fork (e.g. Windows) workers are spawned fresh and only see systems
    registered at import time; run custom runtime-registered systems with
    ``workers=1`` there.
    """
    configs = list(configs)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1 or len(configs) <= 1:
        results = [_run_one(config) for config in configs]
    else:
        context = _pool_context()
        with context.Pool(processes=min(workers, len(configs))) as pool:
            results = pool.map(_run_one, configs)
    return ResultSet(results)


def sweep(
    base: ExperimentConfig,
    parameters: Optional[Mapping[str, Sequence[object]]] = None,
    *,
    seeds: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> "ResultSet":
    """Run the cartesian product of ``parameters`` × ``seeds`` over ``base``.

    ``parameters`` maps :class:`ExperimentConfig` field names to the values to
    sweep; ``seeds`` (default: just ``base.seed``) replicates every grid point
    for confidence intervals.  Configs are generated in deterministic order:
    the grid varies fastest-last, with seeds innermost.
    """
    parameters = dict(parameters or {})
    if "seed" in parameters:
        raise ValueError("sweep seeds via the seeds= argument, not parameters")
    for name in parameters:
        if not hasattr(base, name):
            raise ValueError(f"unknown ExperimentConfig field {name!r}")
    seed_list = list(seeds) if seeds is not None else [base.seed]
    if not seed_list:
        raise ValueError("need at least one seed")
    names = list(parameters)
    configs: List[ExperimentConfig] = []
    for combo in itertools.product(*(parameters[name] for name in names)):
        overrides = dict(zip(names, combo))
        for seed in seed_list:
            configs.append(replace(base, seed=seed, **overrides))
    return run_batch(configs, workers=workers)


@dataclass(frozen=True)
class AggregateRow:
    """Mean / spread of one metric within one parameter group."""

    group: Tuple[Tuple[str, object], ...]
    metric: str
    n: int
    mean: float
    std: float
    ci95: float
    minimum: float
    maximum: float

    @property
    def group_dict(self) -> Dict[str, object]:
        """The grouping parameters as a plain dict."""
        return dict(self.group)


#: Two-sided 95% Student-t critical values by degrees of freedom (1..30).
#: Seed counts are typically tiny (2-5), where the normal z=1.96 would
#: understate the interval severely (df=1 needs 12.71, df=2 needs 4.30).
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def mean_std_ci95(values: Sequence[float]) -> Tuple[float, float, float]:
    """Mean, sample std and Student-t 95% CI half-width of ``values``.

    One value has std and CI 0; past 30 degrees of freedom the t value is
    the normal 1.96.  ``ResultSet.aggregate`` and the reproduction
    pipeline's ``--stability`` columns both use this.
    """
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0, 0.0
    std = math.sqrt(sum((value - mean) ** 2 for value in values) / (n - 1))
    t95 = _T95[n - 2] if n - 1 <= len(_T95) else 1.96
    return mean, std, t95 * std / math.sqrt(n)


class ResultSet(Sequence):
    """An ordered collection of experiment results with aggregation helpers."""

    def __init__(self, results: Iterable[ExperimentResult]) -> None:
        self.results: List[ExperimentResult] = list(results)

    # ------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ExperimentResult]:
        return iter(self.results)

    def __getitem__(self, index):
        item = self.results[index]
        return ResultSet(item) if isinstance(index, slice) else item

    # -------------------------------------------------------------- queries
    @property
    def configs(self) -> List[ExperimentConfig]:
        """The config of every result, in run order."""
        return [result.config for result in self.results]

    def metric_values(self, metric: str = "average_useful_kbps") -> List[float]:
        """One scalar per result, read off the result attribute ``metric``."""
        return [float(getattr(result, metric)) for result in self.results]

    def filter(self, predicate: Callable[[ExperimentResult], bool]) -> "ResultSet":
        """Results for which ``predicate(result)`` holds."""
        return ResultSet(result for result in self.results if predicate(result))

    def where(self, **params: object) -> "ResultSet":
        """Results whose config matches every ``field=value`` given."""
        return self.filter(
            lambda result: all(
                getattr(result.config, name) == value for name, value in params.items()
            )
        )

    def group_by(self, *params: str) -> Dict[Tuple[object, ...], "ResultSet"]:
        """Partition by config parameter values (insertion-ordered)."""
        groups: Dict[Tuple[object, ...], List[ExperimentResult]] = {}
        for result in self.results:
            key = tuple(getattr(result.config, name) for name in params)
            groups.setdefault(key, []).append(result)
        return {key: ResultSet(members) for key, members in groups.items()}

    # ---------------------------------------------------------- aggregation
    def aggregate(
        self,
        metric: str = "average_useful_kbps",
        by: Sequence[str] = (),
    ) -> List[AggregateRow]:
        """Mean / sample std / Student-t 95% CI of ``metric``.

        With ``by=()`` a single row aggregates the whole set (e.g. across
        seeds); otherwise one row per distinct combination of the named
        config parameters, in first-seen order.
        """
        by = tuple(by)
        rows: List[AggregateRow] = []
        groups = (
            self.group_by(*by) if by else ({(): self} if self.results else {})
        )
        for key, members in groups.items():
            values = members.metric_values(metric)
            mean, std, ci95 = mean_std_ci95(values)
            rows.append(
                AggregateRow(
                    group=tuple(zip(by, key)),
                    metric=metric,
                    n=len(values),
                    mean=mean,
                    std=std,
                    ci95=ci95,
                    minimum=min(values),
                    maximum=max(values),
                )
            )
        return rows

    def best(self, metric: str = "average_useful_kbps") -> ExperimentResult:
        """The result maximizing ``metric``."""
        if not self.results:
            raise ValueError("empty result set")
        return max(self.results, key=lambda result: getattr(result, metric))
