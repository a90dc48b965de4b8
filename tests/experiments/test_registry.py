"""Tests for the pluggable dissemination-system registry.

The headline scenario: register a toy system via ``@register_system`` and run
it end to end through :class:`ExperimentSession` — no harness edits needed.
"""

import pytest

from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.experiments.registry import (
    BuildContext,
    DisseminationSystem,
    available_systems,
    get_system,
    register_system,
    system_known,
    unregister_system,
)
from repro.experiments.session import ExperimentSession
from repro.network.flows import StreamSource


class StarBlast:
    """A toy system: the source streams directly to every receiver."""

    def __init__(self, simulator, source, members, rate_kbps):
        self.simulator = simulator
        self.source = source
        self.members = list(members)
        self.rate_kbps = rate_kbps
        self._received = {node: set() for node in self.members}
        self.stream_source = StreamSource(rate_kbps)
        self.flows = {
            node: simulator.create_flow(
                source, node, label=f"star:{node}", demand_kbps=rate_kbps, use_tfrc=True
            )
            for node in self.members
            if node != source
        }

    def protocol_phase(self, now):
        for node, flow in self.flows.items():
            delivered = flow.take_delivered()
            received = self._received[node]
            before = len(received)
            received.update(delivered)
            useful = len(received) - before
            self.simulator.stats.record_receive_counts(
                node, useful, len(delivered) - useful, from_parent=True
            )
        sequences = self.stream_source.emit(self.simulator.dt)
        for flow in self.flows.values():
            flow.send_many(list(sequences[: flow.send_budget()]))

    def receivers(self):
        return [node for node in self.members if node != self.source]


@pytest.fixture
def star_system():
    @register_system("star-test", uses_tree=False, description="toy star blast")
    def _build(ctx: BuildContext) -> StarBlast:
        return StarBlast(
            ctx.simulator, ctx.source, ctx.participants, ctx.config.stream_rate_kbps
        )

    yield "star-test"
    unregister_system("star-test")


class TestRegistry:
    def test_builtins_are_known(self):
        assert set(available_systems()) >= {"bullet", "stream", "gossip", "antientropy"}
        for name in ("bullet", "stream", "gossip", "antientropy"):
            assert system_known(name)
            assert get_system(name).name == name

    def test_gossip_is_treeless_and_stream_is_not(self):
        assert get_system("gossip").uses_tree is False
        assert get_system("stream").uses_tree is True

    def test_unknown_system_raises_with_available_names(self):
        with pytest.raises(KeyError, match="bullet"):
            get_system("ip-multicast")

    def test_duplicate_registration_rejected(self, star_system):
        with pytest.raises(ValueError, match="already registered"):
            register_system(star_system)(lambda ctx: None)

    def test_replace_allows_reregistration(self, star_system):
        sentinel = lambda ctx: None  # noqa: E731
        register_system(star_system, replace=True)(sentinel)
        assert get_system(star_system).build is sentinel

    def test_unregister_is_idempotent(self):
        unregister_system("never-registered")

    def test_builtin_names_are_reserved(self):
        # Even before the builtin module is imported, its name cannot be taken
        # by third-party code (it would shadow or wedge the deferred import).
        with pytest.raises(ValueError, match="reserved"):
            register_system("stream")(lambda ctx: None)
        with pytest.raises(ValueError, match="reserved"):
            register_system("bullet", replace=True)(lambda ctx: None)
        assert get_system("stream").name == "stream"

    def test_unregister_refuses_builtins(self):
        with pytest.raises(ValueError, match="built-in"):
            unregister_system("gossip")
        assert system_known("gossip")
        assert get_system("gossip").name == "gossip"


class TestCustomSystemEndToEnd:
    def test_toy_system_runs_through_session(self, star_system):
        config = ExperimentConfig(
            system=star_system, n_overlay=10, duration_s=40.0, seed=3
        )
        session = ExperimentSession(config)
        assert session.tree is None  # uses_tree=False
        assert isinstance(session.system, StarBlast)
        assert isinstance(session.system, DisseminationSystem)
        result = session.run()
        assert result.average_useful_kbps > 0
        assert len(result.useful_series) >= 6
        assert result.config.system == star_system

    def test_toy_system_runs_through_run_experiment(self, star_system):
        result = run_experiment(
            ExperimentConfig(system=star_system, n_overlay=8, duration_s=30.0, seed=5)
        )
        assert result.average_useful_kbps > 0

    def test_config_rejects_unregistered_names(self):
        with pytest.raises(ValueError):
            ExperimentConfig(system="star-test-not-registered")
