"""Reproduction of "Bullet: High Bandwidth Data Dissemination Using an Overlay Mesh".

See the top-level ``README.md`` for a quickstart, the architecture map of the
experiment layer (registry / session / batch) and a guide to registering a
custom dissemination system.

The package is organized around the systems described in the SOSP 2003 paper:

* :mod:`repro.topology` -- synthetic transit-stub network topologies with the
  paper's Table 1 bandwidth classes (the ModelNet / INET substitute).
* :mod:`repro.network` -- a deterministic, time-stepped fluid network
  simulator with max-min fair sharing between competing overlay flows.
* :mod:`repro.transport` -- the TCP steady-state throughput equation and
  TFRC, one per-flow record evolved by numpy batch kernels.
* :mod:`repro.trees` -- overlay trees (random, offline bottleneck-bandwidth,
  Overcast-like online).
* :mod:`repro.ransub` -- the RanSub collect/distribute protocol.
* :mod:`repro.reconcile` -- working sets, min-wise summary tickets and Bloom
  filters (informed content delivery).
* :mod:`repro.core` -- the Bullet mesh itself (disjoint send, peering,
  recovery, mesh improvement).
* :mod:`repro.baselines` -- tree streaming, push gossiping and anti-entropy
  recovery baselines.
* :mod:`repro.experiments` -- the experiment layer: the pluggable
  ``@register_system`` registry, :class:`ExperimentSession` (the unified
  simulate--sample--inject loop with observer hooks), ``run_batch`` /
  ``sweep`` parallel batches, and the per-figure harness.
"""

from repro.core.config import BulletConfig
from repro.core.mesh import BulletMesh
from repro.experiments.batch import ResultSet, run_batch, sweep
from repro.experiments.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.experiments.registry import (
    DisseminationSystem,
    available_systems,
    register_system,
)
from repro.experiments.session import ExperimentSession, SessionObserver
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.links import BandwidthClass

__version__ = "1.1.0"

__all__ = [
    "BulletConfig",
    "BulletMesh",
    "BandwidthClass",
    "DisseminationSystem",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentSession",
    "ResultSet",
    "SessionObserver",
    "TopologyConfig",
    "available_systems",
    "generate_topology",
    "register_system",
    "run_batch",
    "run_experiment",
    "sweep",
    "__version__",
]
