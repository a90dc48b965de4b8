"""The experiment session: one simulate–sample–inject loop for every scenario.

:class:`ExperimentSession` is the single owner of the drive loop: the
harness runs every configured experiment through one, and so does every
caller that drives a hand-built system.  A session

* prepares whatever was not supplied — workload (from the config), simulator
  (from the workload topology) and system (through the pluggable
  :mod:`~repro.experiments.registry`);
* drives the simulator step by step, running the system's protocol phase,
  firing scheduled failures and sampling bandwidth on the configured interval;
* notifies :class:`SessionObserver` hooks (``on_start`` / ``on_step`` /
  ``on_sample`` / ``on_failure`` / ``on_control`` / ``on_end``) so custom
  probes can watch a run — including its control-plane traffic — without
  forking the loop;
* collects the :class:`~repro.experiments.harness.ExperimentResult`.

Typical use::

    session = ExperimentSession(ExperimentConfig(system="bullet"))
    result = session.run()

An already-built simulator/system pair (a ``BulletMesh``, ``TreeStreaming``
or ``PushGossip`` wired up by hand) is driven the same way::

    ExperimentSession(simulator=sim, system=mesh).drive(duration_s)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.registry import (
    BuildContext,
    DisseminationSystem,
    SystemSpec,
    get_system,
)
from repro.experiments.workloads import build_workload_for
from repro.failure.injector import FailureInjector, JoinEvent
from repro.network.simulator import NetworkSimulator
from repro.sched.engine import StepEngine

_UNSET = object()


class SessionObserver:
    """Base class for session hooks; override any subset of the callbacks."""

    def on_start(self, session: "ExperimentSession") -> None:
        """Called once, before the first simulation step of ``run()``."""

    def on_step(self, session: "ExperimentSession", now: float) -> None:
        """Called after every simulation step."""

    def on_sample(self, session: "ExperimentSession", now: float) -> None:
        """Called after each bandwidth sample is recorded."""

    def on_failure(self, session: "ExperimentSession", now: float, node: int) -> None:
        """Called when a scheduled failure fires against ``node``."""

    def on_join(self, session: "ExperimentSession", now: float, node: int) -> None:
        """Called when a scheduled mid-run join adds ``node``."""

    def on_control(
        self, session: "ExperimentSession", now: float, message, event: str
    ) -> None:
        """Called for control-plane traffic on systems that expose a channel.

        ``event`` is ``"sent"``, ``"delivered"`` or ``"dropped"``; ``message``
        is the :class:`~repro.network.control.ControlMessage`.  Only fires
        for systems exposing a ``control_channel`` attribute.
        """

    def on_end(self, session: "ExperimentSession", result) -> None:
        """Called once, after ``run()`` collected its result."""


class ExperimentSession:
    """Owns one experiment run: build, drive, observe, collect.

    Every argument except ``config`` is optional and built on demand:

    * ``workload`` defaults to :func:`build_workload_for` applied to the
      config (any object with ``topology`` — and ideally ``source`` /
      ``participants`` — works, e.g. a PlanetLab workload);
    * ``simulator`` defaults to a fresh :class:`NetworkSimulator` over the
      workload topology; passing a simulator *without* a workload requires
      also passing the ``system`` (there is nothing to build one from);
    * ``tree`` defaults to the workload tree for tree-based systems and
      ``None`` for systems registered with ``uses_tree=False``;
    * ``system`` defaults to the registry builder for ``config.system``.

    A session may also wrap an already-built ``simulator``/``system`` pair
    with no config at all; such a session supports :meth:`drive` (used by the
    systems' ``run()`` conveniences) but not :meth:`run`.
    """

    def __init__(
        self,
        config=None,
        *,
        workload=None,
        simulator: Optional[NetworkSimulator] = None,
        system: Optional[DisseminationSystem] = None,
        tree=_UNSET,
        observers: Sequence[SessionObserver] = (),
        sample_interval_s: Optional[float] = None,
    ) -> None:
        if config is None and (simulator is None or system is None):
            raise ValueError(
                "a session without a config needs an explicit simulator and system"
            )
        self.config = config
        self.observers: List[SessionObserver] = list(observers)

        self.spec: Optional[SystemSpec] = None
        if system is None and config is not None:
            self.spec = get_system(config.system)

        self.workload = workload
        if self.workload is None:
            if simulator is None:
                self.workload = build_workload_for(
                    config, with_tree=self.spec is None or self.spec.uses_tree
                )
            elif system is None:
                # A foreign simulator with no workload gives the registry
                # builder nothing to build from (no tree/participants).
                raise ValueError(
                    "a session with an explicit simulator needs an explicit"
                    " system or workload"
                )

        if simulator is None:
            simulator = NetworkSimulator(self.workload.topology, seed=config.seed)
        self.simulator = simulator

        if tree is _UNSET:
            if self.spec is not None and not self.spec.uses_tree:
                tree = None
            else:
                tree = getattr(self.workload, "tree", None)
        self.tree = tree

        if system is None:
            context = self._build_context()
            self._warm_initial_routes(context)
            system = self.spec.build(context)
        self.system = system
        #: The system's own step engine (``None`` for one without timers).
        self.step_engine: Optional[StepEngine] = getattr(system, "step_engine", None)

        # Systems that route control traffic over a ControlChannel expose it
        # as ``control_channel``; tap it so observers can watch the control
        # plane without forking the loop.  Only the most recent session's tap
        # stays installed, so re-driving the same system (one mesh driven by
        # several sessions in turn) never duplicates notifications.  A session
        # without observers installs none: the tap would point the system
        # back at the session, a cycle only a full collection frees.
        channel = getattr(self.system, "control_channel", None)
        if channel is not None:
            channel.set_exclusive_tap(self._notify_control if self.observers else None)

        if sample_interval_s is None:
            sample_interval_s = config.sample_interval_s if config is not None else 5.0
        self.sample_interval_s = sample_interval_s
        #: The sample deadline, armed at the end of the first step.
        self._sampling = StepEngine()

        self.failure_time: Optional[float] = None
        self._injector: Optional[FailureInjector] = None
        if config is not None and config.failure_at_s is not None:
            victim_order = getattr(self.system, "targeted_victim_order", None)
            if self.tree is not None:
                self._injector = FailureInjector(self.system)
                self._injector.schedule_worst_case(self.tree, config.failure_at_s)
            elif victim_order is not None:
                # Hierarchical systems have no flat dissemination tree; their
                # own blast-radius ordering names the worst-case victim (the
                # head whose failure orphans the most downstream clusters).
                victims = list(victim_order())
                if not victims:
                    raise ValueError("no victim available for failure injection")
                self._injector = FailureInjector(self.system)
                self._injector.schedule_failure(victims[0], config.failure_at_s)
            else:
                raise ValueError("failure injection requires a tree-based system")
            self.failure_time = config.failure_at_s
        if config is not None and config.churn_failures:
            self._schedule_churn(config)
        if config is not None and config.churn_joins:
            self._schedule_joins(config)

    # ----------------------------------------------------------------- setup
    def _warm_initial_routes(self, context) -> None:
        """Pre-solve the overlay's underlay routing before the system builds.

        One shortest-path tree per participant (plus the source) resolves in
        a batch here, so peer discovery during the run — where any pair of
        participants may open control exchanges or mesh flows — extracts
        paths from cached trees instead of running a Dijkstra inside the
        step loop.

        Hierarchical (clustered) systems opt out via their capability
        declaration: only cluster heads touch the underlay, so the builder
        warms those few routes itself instead of paying one Dijkstra per
        overlay participant here.
        """
        if self.spec is not None and self.spec.capabilities.hierarchical:
            return
        topology = getattr(self.workload, "topology", None)
        if topology is None:
            return
        hosts = list(dict.fromkeys(context.participants))
        if context.source is not None and context.source not in hosts:
            hosts.append(context.source)
        if hosts:
            topology.warm_routes(hosts)

    def _warm_join_routes(self, node: int) -> None:
        """Pre-solve a mid-run joiner's routing just before it joins.

        Called by the injector ahead of ``add_node``: one shortest-path-tree
        solve for the joiner covers its path to *every* member it will ever
        discover, and the standing members' trees (warmed at construction)
        already cover the reverse direction — so a flash-crowd arrival wave
        never pays per-pair Dijkstras inside the steps it lands on, only
        O(hops) extractions from cached trees.
        """
        topology = getattr(self.workload, "topology", None)
        if topology is not None:
            topology.warm_routes([node])

    def _schedule_churn(self, config) -> None:
        """Schedule ``config.churn_failures`` departures across the run.

        Victims are a seeded random sample of non-source participants, failed
        at evenly spaced times from ``churn_start_s`` to 90% of the run — the
        churn-heavy dissemination scenario, where the overlay keeps repairing
        itself while the stream is live.  A ``churn_start_s`` that would push
        departures past the end of a short run (e.g. a full-scale scenario
        smoke-tested at reduced duration) is clamped into the run, so churn
        always actually fires.
        """
        # Capability-declared check first (the registry spec is the contract);
        # the hasattr check remains for bare sessions wrapping a pre-built
        # system with no spec, and catches declared-but-unimplemented bugs.
        if self.spec is not None and not self.spec.capabilities.supports_fail_node:
            raise ValueError(
                f"system {self.spec.name!r} declares supports_fail_node=False;"
                " churn_failures requires a system with fail_node support"
            )
        if not hasattr(self.system, "fail_node"):
            raise ValueError(
                f"system {type(self.system).__name__} does not support"
                " fail_node; churn_failures requires it"
            )
        from repro.util.rng import SeededRng

        source = getattr(self.workload, "source", None)
        if source is None and self.tree is not None:
            source = self.tree.root
        participants = getattr(self.workload, "participants", None)
        if participants is None:
            participants = list(self.tree.members()) if self.tree is not None else []
        victims_pool = sorted(node for node in participants if node != source)
        if not victims_pool:
            raise ValueError("churn_failures needs at least one non-source participant")
        count = min(config.churn_failures, len(victims_pool))
        if config.churn_strategy == "targeted":
            # Adversarial churn: fail the most-depended-upon members first,
            # deterministically — no sampling involved.  Flat systems rank by
            # dissemination-tree subtree size; hierarchical systems expose
            # their own head/interior impact ordering (a cluster head's blast
            # radius is its whole cluster, which no single flat tree shows).
            from repro.failure.injector import targeted_victims_for

            pool = set(victims_pool)
            ordered = targeted_victims_for(self.system, self.tree)
            victims = [node for node in ordered if node in pool][:count]
        else:
            rng = SeededRng(config.seed, "churn")
            victims = rng.sample(victims_pool, count)
        end = 0.9 * config.duration_s
        start = min(config.churn_start_s, 0.5 * end)
        if self._injector is None:
            self._injector = FailureInjector(self.system)
        for index, victim in enumerate(victims):
            when = start + (end - start) * index / max(count - 1, 1)
            self._injector.schedule_failure(victim, when)

    def _schedule_joins(self, config) -> None:
        """Schedule ``config.churn_joins`` mid-run joins.

        Joiners are a seeded deterministic draw from the workload topology's
        *spare* client hosts (hosts no initial participant occupies), joined
        at evenly spaced times across the ``join_start_s`` ..
        ``join_start_s + join_duration_s`` window — the flash-crowd
        scenario's mid-run arrival wave.  Like churn, a window that a short
        smoke run would push past its end is clamped into the run.
        """
        if self.spec is not None and not self.spec.capabilities.supports_join:
            raise ValueError(
                f"system {self.spec.name!r} declares supports_join=False;"
                " churn_joins requires a system with add_node support"
            )
        if not hasattr(self.system, "add_node"):
            raise ValueError(
                f"system {type(self.system).__name__} does not support"
                " add_node; churn_joins requires it"
            )
        from repro.util.rng import SeededRng

        topology = getattr(self.workload, "topology", None)
        if topology is None:
            raise ValueError("churn_joins needs a workload with a topology")
        participants = set(getattr(self.workload, "participants", ()) or ())
        pool = sorted(
            host for host in topology.client_nodes if host not in participants
        )
        if not pool:
            raise ValueError(
                "churn_joins needs spare client hosts; none are left in the"
                " topology (it is sized for n_overlay + churn_joins)"
            )
        count = min(config.churn_joins, len(pool))
        rng = SeededRng(config.seed, "joins")
        joiners = rng.sample(pool, count)
        end_cap = 0.9 * config.duration_s
        start = min(config.join_start_s, 0.5 * end_cap)
        end = min(start + config.join_duration_s, end_cap)
        if self._injector is None:
            self._injector = FailureInjector(self.system)
        for index, joiner in enumerate(joiners):
            when = start + (end - start) * index / max(count - 1, 1)
            self._injector.schedule_join(
                joiner, when, prepare=self._warm_join_routes
            )

    def _build_context(self) -> BuildContext:
        source = getattr(self.workload, "source", None)
        participants = getattr(self.workload, "participants", None)
        if source is None and self.tree is not None:
            source = self.tree.root
        if participants is None:
            participants = list(self.tree.members()) if self.tree is not None else []
        return BuildContext(
            simulator=self.simulator,
            config=self.config,
            tree=self.tree,
            source=source,
            participants=list(participants),
        )

    def _notify_control(self, event: str, time_s: float, message) -> None:
        for observer in self.observers:
            observer.on_control(self, time_s, message, event)

    @property
    def injector(self) -> Optional[FailureInjector]:
        """The failure injector, if this session schedules failures."""
        return self._injector

    # ----------------------------------------------------------------- drive
    def step(self) -> float:
        """Advance the simulation by one ``dt``; returns the new sim time."""
        simulator = self.simulator
        simulator.begin_step()
        if self._injector is not None:
            for event in self._injector.tick(simulator.time):
                for observer in self.observers:
                    if isinstance(event, JoinEvent):
                        observer.on_join(self, simulator.time, event.node)
                    else:
                        observer.on_failure(self, simulator.time, event.node)
        self.system.protocol_phase(simulator.time)
        simulator.end_step()
        now = simulator.time
        for observer in self.observers:
            observer.on_step(self, now)
        sampling = self._sampling
        if "sample" not in sampling:
            interval = self.sample_interval_s
            sampling.arm_every("sample", interval, now + interval)
        if "sample" in sampling.due(now):
            simulator.stats.sample_interval(
                now, self.sample_interval_s, self.system.receivers()
            )
            for observer in self.observers:
                observer.on_sample(self, now)
        return now

    def drive(self, duration_s: float) -> "ExperimentSession":
        """Run the loop for ``duration_s`` simulated seconds; may be chained."""
        steps = int(round(duration_s / self.simulator.dt))
        for _ in range(steps):
            self.step()
        return self

    # ---------------------------------------------------------------- result
    def run(self):
        """Drive the configured duration and collect the ExperimentResult."""
        if self.config is None:
            raise ValueError("run() needs a config; use drive() for bare sessions")
        for observer in self.observers:
            observer.on_start(self)
        self.drive(self.config.duration_s)
        result = self.collect()
        for observer in self.observers:
            observer.on_end(self, result)
        return result

    def collect(self):
        """Collect an ExperimentResult from the current simulator state."""
        from repro.experiments.harness import collect_result

        return collect_result(
            self.config, self.simulator, self.system, self.failure_time
        )
