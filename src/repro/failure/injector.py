"""Membership-event injection: failures (Section 4.6) and mid-run joins.

The paper fails one of the root's children — the child with a large subtree
(110 of 1000 descendants in the paper) — 250 seconds into the run, with the
underlying tree deliberately left unrepaired.  The injector encapsulates
"pick the worst-case victim" and "fail it at time T" so experiments stay
declarative.

Joins are the symmetric operation: a flash-crowd scenario schedules batches
of new participants that call the system's ``add_node`` while the stream is
live, so the overlay (and its protocol state — RanSub membership, recovery
peerings) genuinely grows mid-run rather than being modeled as a cold-start
ramp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.network.events import EventScheduler
from repro.trees.tree import OverlayTree


class SupportsFailNode(Protocol):
    """Any protocol driver that can fail a participant (BulletMesh, TreeStreaming)."""

    def fail_node(self, node: int) -> None:  # pragma: no cover - protocol definition
        ...


@dataclass
class FailureEvent:
    """One scheduled failure."""

    node: int
    at_time_s: float
    fired: bool = False


@dataclass
class JoinEvent:
    """One scheduled mid-run join."""

    node: int
    at_time_s: float
    fired: bool = False


def worst_case_victim(tree: OverlayTree) -> int:
    """The root child with the largest subtree — the paper's worst-case failure."""
    children = tree.children(tree.root)
    if not children:
        raise ValueError("the root has no children to fail")
    return max(children, key=lambda child: (tree.descendant_count(child), -child))


def targeted_victims(tree: OverlayTree, count: int) -> list[int]:
    """The ``count`` most-depended-upon non-root members, worst first.

    The adversarial churn strategy: instead of sampling uniformly, fail the
    nodes whose departure orphans the largest subtrees (ties broken by the
    smaller node id, so the selection is deterministic).  This is the
    generalization of :func:`worst_case_victim` from "the root's worst child"
    to "the overlay's ``count`` worst interior nodes".
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    members = [node for node in tree.members() if node != tree.root]
    members.sort(key=lambda node: (-tree.descendant_count(node), node))
    return members[:count]


def targeted_victims_for(system, tree: Optional[OverlayTree]) -> list[int]:
    """The full most-depended-upon-first ordering for ``system``.

    Flat tree-based systems are ranked by dissemination-tree subtree size
    (:func:`targeted_victims`).  Hierarchical systems do not have one flat
    tree per node — a cluster head's blast radius is its whole cluster plus
    every cluster downstream of it in the head mesh — so systems exposing
    ``targeted_victim_order()`` (e.g. the clustered Bullet overlay) supply
    their own head/interior-aware ordering and it is used as-is.
    """
    order = getattr(system, "targeted_victim_order", None)
    if order is not None:
        return list(order())
    if tree is None:
        raise ValueError(
            "churn_strategy='targeted' requires a tree-based system or one"
            " exposing targeted_victim_order() (subtree sizes define who is"
            " most depended upon)"
        )
    return targeted_victims(tree, len(tree.members()))


class FailureInjector:
    """Schedules membership events (failures and joins) against a driver."""

    def __init__(self, driver: SupportsFailNode) -> None:
        self.driver = driver
        self.scheduler = EventScheduler()
        self.events: list[FailureEvent] = []
        self.join_events: list[JoinEvent] = []

    def schedule_failure(self, node: int, at_time_s: float) -> FailureEvent:
        """Fail ``node`` once the simulation clock reaches ``at_time_s``."""
        event = FailureEvent(node=node, at_time_s=at_time_s)
        self.events.append(event)

        def fire() -> None:
            self.driver.fail_node(node)
            event.fired = True

        self.scheduler.schedule(at_time_s, fire)
        return event

    def schedule_join(
        self,
        node: int,
        at_time_s: float,
        prepare: Optional[Callable[[int], None]] = None,
    ) -> JoinEvent:
        """Join ``node`` once the simulation clock reaches ``at_time_s``.

        The driver must implement ``add_node(node)``.
        ``prepare``, when given, runs immediately before the join fires —
        the session uses it to pre-warm the joiner's underlay routes so the
        join itself never computes paths inside the step loop.
        """
        add_node = getattr(self.driver, "add_node", None)
        if add_node is None:
            raise ValueError(
                f"driver {type(self.driver).__name__} does not support add_node"
            )
        event = JoinEvent(node=node, at_time_s=at_time_s)
        self.join_events.append(event)

        def fire() -> None:
            if prepare is not None:
                prepare(node)
            add_node(node)
            event.fired = True

        self.scheduler.schedule(at_time_s, fire)
        return event

    def schedule_worst_case(self, tree: OverlayTree, at_time_s: float) -> FailureEvent:
        """Schedule the paper's worst-case failure: the largest root subtree."""
        return self.schedule_failure(worst_case_victim(tree), at_time_s)

    def tick(self, now: float) -> int:
        """Fire any due failures; returns how many fired."""
        return self.scheduler.run_due(now)

    def next_event_time(self) -> Optional[float]:
        """When the earliest still-pending event fires (``None`` when drained).

        This is the injector's wakeup deadline under the step engine: steps
        before it skip the tick (and the pending-event bookkeeping) entirely.
        """
        return self.scheduler.next_time()

    def pending(self) -> int:
        """Failures not yet fired."""
        return self.scheduler.pending()
