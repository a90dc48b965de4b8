"""Tests for the Section 4.5 loss model."""

import pytest

from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.links import LinkType
from repro.topology.loss import LossConfig, apply_loss_model


def make_topology(seed=5):
    return generate_topology(
        TopologyConfig(
            transit_routers=4, stub_domains=8, routers_per_stub=3, clients_per_stub=4, seed=seed
        )
    )


def snapshots(topology):
    return [topology.link(index) for index in range(topology.num_links)]


class TestLossConfig:
    def test_defaults_match_paper(self):
        config = LossConfig()
        assert config.non_transit_max == pytest.approx(0.003)
        assert config.transit_max == pytest.approx(0.001)
        assert config.overloaded_fraction == pytest.approx(0.05)
        assert config.overloaded_min == pytest.approx(0.05)
        assert config.overloaded_max == pytest.approx(0.10)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            LossConfig(overloaded_fraction=1.5)

    def test_rejects_inverted_overload_range(self):
        with pytest.raises(ValueError):
            LossConfig(overloaded_min=0.2, overloaded_max=0.1)


class TestApplyLossModel:
    def test_all_losses_within_bounds(self):
        topo = make_topology()
        apply_loss_model(topo, LossConfig(seed=1))
        for link in snapshots(topo):
            assert 0.0 <= link.loss_rate <= 0.10 + 1e-9

    def test_non_overloaded_links_respect_class_caps(self):
        topo = make_topology()
        config = LossConfig(seed=1)
        apply_loss_model(topo, config)
        overloaded = [link for link in snapshots(topo) if link.loss_rate >= config.overloaded_min]
        normal = [link for link in snapshots(topo) if link.loss_rate < config.overloaded_min]
        for link in normal:
            cap = (
                config.transit_max
                if link.link_type == LinkType.TRANSIT_TRANSIT
                else config.non_transit_max
            )
            assert link.loss_rate <= cap + 1e-12

    def test_overloaded_fraction_approximate(self):
        topo = make_topology()
        config = LossConfig(seed=1)
        apply_loss_model(topo, config)
        overloaded = sum(1 for link in snapshots(topo) if link.loss_rate >= config.overloaded_min)
        expected = round(config.overloaded_fraction * topo.num_links)
        assert abs(overloaded - expected) <= max(2, expected // 2)

    def test_deterministic(self):
        a, b = make_topology(), make_topology()
        apply_loss_model(a, LossConfig(seed=9))
        apply_loss_model(b, LossConfig(seed=9))
        assert [l.loss_rate for l in snapshots(a)] == [l.loss_rate for l in snapshots(b)]

    def test_paths_become_lossy(self):
        topo = make_topology()
        clients = topo.client_nodes
        apply_loss_model(topo, LossConfig(seed=3))
        lossy_paths = sum(
            1 for other in clients[1:10] if topo.path(clients[0], other).loss_rate > 0
        )
        assert lossy_paths > 0
