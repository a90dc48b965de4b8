"""Pluggable registry of dissemination systems.

The paper's evaluation compares Bullet against three baselines, and follow-up
work (CliqueStream-style clustered meshes, multi-source epidemic multicast)
adds more.  Rather than hard-coding an if-chain in the harness, every system
registers a *builder* under a short name with :func:`register_system`; the
harness looks systems up by name through :func:`get_system` and builds them
from a :class:`BuildContext`.  Registering a new system therefore requires no
harness edits:

    from repro.experiments.registry import BuildContext, register_system

    @register_system("my-mesh", description="my experimental mesh")
    def _build_my_mesh(ctx: BuildContext):
        return MyMesh(ctx.simulator, ctx.tree, rate=ctx.config.stream_rate_kbps)

A system is anything satisfying :class:`DisseminationSystem`: it exposes
``protocol_phase(now)`` (one protocol step between simulator begin/end) and
``receivers()`` (the nodes whose bandwidth the figures average).  What else a
system can do is *declared*, not probed: every registration carries a
:class:`SystemCapabilities` record (``supports_fail_node``, ``supports_join``,
``supports_multi_source``, ``hierarchical``), and the session's churn/join
injectors, the reproduction catalog's cross-system matrix and the report
renderer all consult the spec instead of ``hasattr``-sniffing the instance.
A system declaring ``supports_fail_node`` must implement ``fail_node(node)``;
one declaring ``supports_join`` must implement ``add_node(node)``.

The four built-in systems live in their own modules and register themselves at
import time; :func:`get_system` imports them lazily so that importing this
module never drags in the whole protocol stack (and so the system modules can
import the registry without cycles).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

if TYPE_CHECKING:  # annotation-only: keep this module import-light
    from repro.experiments.harness import ExperimentConfig
    from repro.network.simulator import NetworkSimulator
    from repro.trees.tree import OverlayTree


@runtime_checkable
class DisseminationSystem(Protocol):
    """What the experiment session requires of a system under test."""

    def protocol_phase(self, now: float) -> None:
        """Run one protocol step; called between simulator begin/end step."""
        ...  # pragma: no cover - protocol definition

    def receivers(self) -> List[int]:
        """The live data receivers (bandwidth is averaged over these)."""
        ...  # pragma: no cover - protocol definition


@dataclass
class BuildContext:
    """Everything a system builder may need to instantiate its system.

    ``config`` is the run's :class:`~repro.experiments.harness.ExperimentConfig`.
    ``tree`` is ``None`` for systems registered with ``uses_tree=False``.
    """

    simulator: NetworkSimulator
    config: ExperimentConfig
    tree: Optional[OverlayTree]
    source: int
    participants: List[int]


SystemBuilder = Callable[[BuildContext], DisseminationSystem]


@dataclass(frozen=True)
class SystemCapabilities:
    """What a registered system declares it can do.

    The defaults describe the common case for this repo's systems (churn and
    mid-run joins supported, single source, flat overlay); registrations
    override individual fields via the ``supports_*`` / ``hierarchical``
    keywords of :func:`register_system`.
    """

    #: The system implements ``fail_node(node)`` (churn / failure injection).
    supports_fail_node: bool = True
    #: The system implements ``add_node(node)`` (mid-run membership growth).
    supports_join: bool = True
    #: The system can disseminate from several concurrent sources.
    supports_multi_source: bool = False
    #: Two-level (clustered) overlay: the session skips whole-overlay route
    #: warming (the builder warms what it needs, e.g. cluster heads only),
    #: and targeted churn consults the system's own impact ordering.
    hierarchical: bool = False


@dataclass(frozen=True)
class SystemSpec:
    """A registered dissemination system."""

    name: str
    build: SystemBuilder
    #: Whether the system runs over an overlay tree (gossip does not).
    uses_tree: bool = True
    description: str = ""
    #: Declared capabilities; consulted by the session, catalog and report.
    capabilities: SystemCapabilities = SystemCapabilities()


_REGISTRY: Dict[str, SystemSpec] = {}

#: Built-in systems register themselves when their module is imported.
_BUILTIN_MODULES: Dict[str, str] = {
    "bullet": "repro.core.mesh",
    "bullet-clustered": "repro.hierarchy.system",
    "stream": "repro.baselines.streaming",
    "gossip": "repro.baselines.gossip",
    "antientropy": "repro.baselines.antientropy",
}


def register_system(
    name: str,
    *,
    uses_tree: bool = True,
    description: str = "",
    replace: bool = False,
    supports_fail_node: bool = True,
    supports_join: bool = True,
    supports_multi_source: bool = False,
    hierarchical: bool = False,
) -> Callable[[SystemBuilder], SystemBuilder]:
    """Class/function decorator registering a system builder under ``name``.

    The ``supports_*`` / ``hierarchical`` keywords populate the spec's
    :class:`SystemCapabilities`; injectors and reports consult them rather
    than probing the built instance.
    """
    if not name or not isinstance(name, str):
        raise ValueError("system name must be a non-empty string")
    capabilities = SystemCapabilities(
        supports_fail_node=supports_fail_node,
        supports_join=supports_join,
        supports_multi_source=supports_multi_source,
        hierarchical=hierarchical,
    )

    def decorator(builder: SystemBuilder) -> SystemBuilder:
        builtin_module = _BUILTIN_MODULES.get(name)
        if builtin_module is not None:
            # Built-in names are reserved: a third-party builder registered
            # under one would shadow the builtin (or crash its deferred
            # import); only the builtin's own module may (re)register it.
            if getattr(builder, "__module__", "") != builtin_module:
                raise ValueError(
                    f"{name!r} is reserved for a built-in system; pick another name"
                )
        elif name in _REGISTRY and not replace:
            raise ValueError(f"system {name!r} is already registered")
        doc = description or (builder.__doc__ or "").strip().split("\n")[0]
        _REGISTRY[name] = SystemSpec(
            name=name,
            build=builder,
            uses_tree=uses_tree,
            description=doc,
            capabilities=capabilities,
        )
        return builder

    return decorator


def unregister_system(name: str) -> None:
    """Remove a registered system (mainly for tests registering toys).

    Built-in systems cannot be removed: their registration re-runs only on
    (first) module import, so removal would leave the name known to
    :func:`system_known` but unbuildable by :func:`get_system`.
    """
    if name in _BUILTIN_MODULES:
        raise ValueError(f"cannot unregister built-in system {name!r}")
    _REGISTRY.pop(name, None)


def get_system(name: str) -> SystemSpec:
    """Look up a system spec by name, importing built-ins on first use."""
    spec = _REGISTRY.get(name)
    if spec is None and name in _BUILTIN_MODULES:
        importlib.import_module(_BUILTIN_MODULES[name])
        spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(
            f"unknown system {name!r}; available: {', '.join(available_systems())}"
        )
    return spec


def system_known(name: str) -> bool:
    """True if ``name`` is a registered or built-in system."""
    return name in _REGISTRY or name in _BUILTIN_MODULES


def available_systems() -> List[str]:
    """Names of every registered and built-in system, sorted."""
    return sorted(set(_REGISTRY) | set(_BUILTIN_MODULES))
