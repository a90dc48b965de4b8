"""Tests for transit-stub topology generation and participant placement."""

import pytest

from repro.topology.generator import (
    TopologyConfig,
    generate_topology,
    place_overlay_participants,
)
from repro.topology.links import LINK_TYPES, BandwidthClass, LinkType, TABLE_1_RANGES


SMALL = TopologyConfig(
    transit_routers=4,
    stub_domains=6,
    routers_per_stub=3,
    clients_per_stub=4,
    extra_stub_stub_links=3,
    bandwidth_class=BandwidthClass.MEDIUM,
    seed=11,
)


class TestTopologyConfig:
    def test_total_clients(self):
        assert SMALL.total_clients == 24

    def test_rejects_zero_transit(self):
        with pytest.raises(ValueError):
            TopologyConfig(transit_routers=0)

    def test_rejects_zero_stub_domains(self):
        with pytest.raises(ValueError):
            TopologyConfig(stub_domains=0)

    def test_rejects_negative_clients(self):
        with pytest.raises(ValueError):
            TopologyConfig(clients_per_stub=-1)


class TestGenerateTopology:
    def test_counts(self):
        topo = generate_topology(SMALL)
        assert len(topo.client_nodes) == SMALL.total_clients
        expected_nodes = (
            SMALL.transit_routers
            + SMALL.stub_domains * SMALL.routers_per_stub
            + SMALL.total_clients
        )
        assert topo.num_nodes == expected_nodes

    def test_connected_and_valid(self):
        topo = generate_topology(SMALL)
        topo.validate()

    def test_every_client_has_single_uplink(self):
        topo = generate_topology(SMALL)
        sources = list(topo.links.src)
        for client in topo.client_nodes:
            assert sources.count(client) == 1

    def test_all_link_types_present(self):
        topo = generate_topology(SMALL)
        present = {LINK_TYPES[code] for code in topo.links.link_type}
        assert present == set(LinkType)

    def test_capacities_within_table1(self):
        topo = generate_topology(SMALL)
        ranges = TABLE_1_RANGES[SMALL.bandwidth_class]
        for index in range(topo.num_links):
            link = topo.link(index)
            low, high = ranges[link.link_type]
            assert low <= link.capacity_kbps <= high

    def test_deterministic_for_seed(self):
        a = generate_topology(SMALL)
        b = generate_topology(SMALL)
        assert a.num_nodes == b.num_nodes
        assert list(a.links.capacity_kbps) == list(b.links.capacity_kbps)

    def test_different_seed_changes_capacities(self):
        other = TopologyConfig(
            transit_routers=4, stub_domains=6, routers_per_stub=3, clients_per_stub=4, seed=99
        )
        a = generate_topology(SMALL)
        b = generate_topology(other)
        assert list(a.links.capacity_kbps) != list(b.links.capacity_kbps)

    def test_client_routes_cross_topology(self):
        topo = generate_topology(SMALL)
        clients = topo.client_nodes
        info = topo.path(clients[0], clients[-1])
        assert len(info.links) >= 2

    def test_bandwidth_class_changes_capacities(self):
        low_config = TopologyConfig(
            transit_routers=4, stub_domains=6, routers_per_stub=3, clients_per_stub=4,
            bandwidth_class=BandwidthClass.LOW, seed=11,
        )
        low_topo = generate_topology(low_config)
        medium_topo = generate_topology(SMALL)
        low_avg = sum(low_topo.links.capacity_kbps) / low_topo.num_links
        medium_avg = sum(medium_topo.links.capacity_kbps) / medium_topo.num_links
        assert low_avg < medium_avg


class TestPlacement:
    def test_places_requested_count(self):
        topo = generate_topology(SMALL)
        participants = place_overlay_participants(topo, 10, seed=3)
        assert len(participants) == 10
        assert len(set(participants)) == 10
        assert all(topo.node_role(node) == "client" for node in participants)

    def test_rejects_too_many(self):
        topo = generate_topology(SMALL)
        with pytest.raises(ValueError):
            place_overlay_participants(topo, SMALL.total_clients + 1)

    def test_deterministic(self):
        topo = generate_topology(SMALL)
        assert place_overlay_participants(topo, 8, seed=5) == place_overlay_participants(
            topo, 8, seed=5
        )
