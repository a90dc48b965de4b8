"""Tests for the Topology graph, routing and path properties."""

import gc
import weakref

import pytest

from repro.network.simulator import NetworkSimulator
from repro.topology.graph import Topology
from repro.topology.links import LinkSpec, LinkType


def build_line_topology():
    """client 0 -- stub 1 -- transit 2 -- stub 3 -- client 4."""
    topo = Topology()
    topo.add_node(0, "client")
    topo.add_node(1, "stub")
    topo.add_node(2, "transit")
    topo.add_node(3, "stub")
    topo.add_node(4, "client")
    topo.add_duplex_link(0, 1, LinkType.CLIENT_STUB, 1000.0, 0.001)
    topo.add_duplex_link(1, 2, LinkType.TRANSIT_STUB, 2000.0, 0.01)
    topo.add_duplex_link(2, 3, LinkType.TRANSIT_STUB, 3000.0, 0.01)
    topo.add_duplex_link(3, 4, LinkType.CLIENT_STUB, 500.0, 0.002)
    return topo


class TestTopologyBuild:
    def test_node_roles(self):
        topo = build_line_topology()
        assert topo.node_role(0) == "client"
        assert topo.node_role(2) == "transit"
        # client_nodes is a cached read-only view (a tuple, not a copy).
        assert topo.client_nodes == (0, 4)
        assert topo.client_nodes is topo.client_nodes

    def test_duplicate_link_rejected(self):
        topo = build_line_topology()
        with pytest.raises(ValueError):
            topo.add_link(0, 1, LinkType.CLIENT_STUB, 100.0, 0.001)

    def test_unknown_node_rejected(self):
        topo = build_line_topology()
        with pytest.raises(KeyError):
            topo.add_link(0, 99, LinkType.CLIENT_STUB, 100.0, 0.001)

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(0, "client")
        with pytest.raises(ValueError, match="duplicate node 0"):
            topo.add_node(0, "client")
        with pytest.raises(ValueError, match="duplicate node 0"):
            topo.add_node(0, "stub")
        assert topo.client_nodes == (0,)
        assert topo.num_nodes == 1
        assert topo.node_role(0) == "client"

    def test_unknown_role_rejected(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_node(0, "satellite")

    def test_link_between(self):
        topo = build_line_topology()
        assert topo.link_between(0, 1) is not None
        assert topo.link_between(0, 4) is None

    def test_link_between_ids_out_of_range(self):
        # A lookup packs (src, dst) into one key; an id outside the node
        # slots must miss rather than land on another pair's key (1 -> 0).
        topo = build_line_topology()
        slots = topo.links.node_slots
        for src, dst in ((0, slots), (0, 1 << 32), (0, -1), (-1, 0), (slots, 0)):
            assert topo.link_between(src, dst) is None
        assert topo.links.find([0, 1, 0], [slots, 0, 1 << 32]).tolist() == [
            -1, topo.link_between(1, 0), -1
        ]

    def test_pair_index_follows_one_at_a_time_builds(self):
        # Rows appended between lookups (one by one, interleaved with new
        # nodes, and in bulk) are merged into the sorted index; every lookup
        # still equals a scan of the columns.
        topo = Topology()
        for node in range(24):
            topo.add_node(node, "stub")
            for other in range(node % 5, node, 5):
                topo.add_duplex_link(node, other, LinkType.STUB_STUB, 100.0, 0.01)
        topo.links.sorted_rows()
        topo.add_links([3, 7, 20], [1, 21, 2], [LinkType.STUB_STUB] * 3, [1.0] * 3, [0.01] * 3)
        scanned = {
            (src, dst): index
            for index, (src, dst) in enumerate(zip(topo.links.src, topo.links.dst))
        }
        for src in range(24):
            for dst in range(24):
                assert topo.links.find([src], [dst])[0] == scanned.get((src, dst), -1)
        keys, order = topo.links.sorted_rows()
        assert sorted(keys.tolist()) == keys.tolist()
        assert sorted(order.tolist()) == list(range(topo.num_links))

    def test_describe_counts(self):
        topo = build_line_topology()
        summary = topo.describe()
        assert summary["nodes"] == 5
        assert summary["links"] == 8
        assert summary["clients"] == 2

    def test_validate_accepts_well_formed(self):
        build_line_topology().validate()

    def test_validate_rejects_multi_homed_client(self):
        topo = build_line_topology()
        topo.add_duplex_link(0, 3, LinkType.CLIENT_STUB, 100.0, 0.001)
        with pytest.raises(ValueError):
            topo.validate()

    def test_validate_rejects_disconnected(self):
        topo = build_line_topology()
        topo.add_node(5, "stub")
        topo.add_node(6, "client")
        topo.add_duplex_link(5, 6, LinkType.CLIENT_STUB, 100.0, 0.001)
        with pytest.raises(ValueError, match="not connected"):
            topo.validate()

    def test_link_is_an_immutable_snapshot(self):
        topo = build_line_topology()
        index = topo.link_between(1, 2)
        before = topo.link(index)
        assert before == LinkSpec(1, 2, LinkType.TRANSIT_STUB, 2000.0, 0.01)
        topo.set_link_loss(index, 0.25)
        assert before.loss_rate == 0.0
        assert topo.link(index).loss_rate == 0.25
        with pytest.raises(AttributeError):
            before.loss_rate = 0.5  # type: ignore[misc]


class TestIngestRanges:
    """Every link enters through ``add_links``, which rejects what the
    ``set_link_*`` mutators reject — and adds nothing when one row fails."""

    def topo(self):
        topo = Topology()
        for node in range(3):
            topo.add_node(node, "stub")
        return topo

    @pytest.mark.parametrize("capacity", [0.0, -5.0, float("nan")])
    def test_capacity_must_be_positive(self, capacity):
        topo = self.topo()
        with pytest.raises(ValueError, match=r"capacity_kbps must be > 0"):
            topo.add_link(0, 1, LinkType.STUB_STUB, capacity, 0.01)
        assert topo.num_links == 0

    @pytest.mark.parametrize("delay", [0.0, -0.1, float("nan")])
    def test_delay_must_be_positive(self, delay):
        topo = self.topo()
        with pytest.raises(ValueError, match=r"delay_s must be > 0"):
            topo.add_link(0, 1, LinkType.STUB_STUB, 100.0, delay)
        assert topo.num_links == 0

    @pytest.mark.parametrize("loss", [-0.01, 1.0, 1.5])
    def test_loss_must_be_in_unit_interval(self, loss):
        topo = self.topo()
        with pytest.raises(ValueError, match=r"loss_rate must be in \[0, 1\)"):
            topo.add_link(0, 1, LinkType.STUB_STUB, 100.0, 0.01, loss)
        assert topo.num_links == 0

    def test_one_bad_row_rejects_the_batch(self):
        topo = self.topo()
        with pytest.raises(ValueError, match="duplicate link 1->2"):
            topo.add_links(
                [0, 1, 1], [1, 2, 2], [LinkType.STUB_STUB] * 3, [100.0] * 3, [0.01] * 3
            )
        assert topo.num_links == 0
        assert list(topo.add_links([0, 1], [1, 2], [LinkType.STUB_STUB] * 2,
                                   [100.0] * 2, [0.01] * 2)) == [0, 1]

    def test_mutators_share_the_ranges(self):
        topo = build_line_topology()
        with pytest.raises(ValueError, match=r"loss_rate must be in \[0, 1\)"):
            topo.set_link_loss(0, 1.5)


class TestReclaim:
    def test_warmed_topology_is_freed_by_refcount_alone(self):
        # The routing engine holds the link table, not the topology: no
        # reference cycle, so no collector pass is needed to free a session's
        # underlay.
        topo = build_line_topology()
        topo.warm_routes([0, 4], [0, 4])
        topo.path(0, 4)
        topo.links.sorted_rows()
        ref = weakref.ref(topo)
        engine = weakref.ref(topo.routing)
        gc.disable()
        try:
            del topo
            assert ref() is None
            assert engine() is None
        finally:
            gc.enable()


class TestRouting:
    def test_path_links_ordered(self):
        topo = build_line_topology()
        info = topo.path(0, 4)
        links = [topo.link(index) for index in info.links]
        assert [link.src for link in links] == [0, 1, 2, 3]
        assert [link.dst for link in links] == [1, 2, 3, 4]

    def test_path_delay_is_sum(self):
        topo = build_line_topology()
        info = topo.path(0, 4)
        assert info.delay_s == pytest.approx(0.001 + 0.01 + 0.01 + 0.002)

    def test_path_bottleneck(self):
        topo = build_line_topology()
        assert topo.path(0, 4).bottleneck_kbps == pytest.approx(500.0)

    def test_self_path_is_empty(self):
        topo = build_line_topology()
        info = topo.path(2, 2)
        assert info.links == ()
        assert info.loss_rate == 0.0

    def test_path_loss_composes(self):
        topo = build_line_topology()
        topo.set_link_loss(topo.link_between(0, 1), 0.1)
        topo.set_link_loss(topo.link_between(1, 2), 0.1)
        info = topo.path(0, 4)
        assert info.loss_rate == pytest.approx(1 - 0.9 * 0.9)

    def test_round_trip_sums_both_directions(self):
        topo = build_line_topology()
        rtt, loss = topo.round_trip(0, 4)
        assert rtt == pytest.approx(2 * (0.001 + 0.01 + 0.01 + 0.002))
        assert loss == 0.0

    def test_no_route_raises(self):
        topo = Topology()
        topo.add_node(0, "client")
        topo.add_node(1, "client")
        with pytest.raises(ValueError):
            topo.path(0, 1)

    def test_reverse_path_links_walk_back(self):
        topo = build_line_topology()
        links = [topo.link(index) for index in topo.path(4, 0).links]
        assert [link.src for link in links] == [4, 3, 2, 1]


class TestCapacityMap:
    def test_capacity_map_matches_links(self):
        topo = build_line_topology()
        capacities = topo.capacity_map()
        assert len(capacities) == topo.num_links
        for index in range(topo.num_links):
            assert capacities[index] == topo.link(index).capacity_kbps

    def test_capacity_map_is_cached(self):
        topo = build_line_topology()
        assert topo.capacity_map() is topo.capacity_map()


#: Ways a finished topology gets used: each one fixes the underlay.
FREEZERS = {
    "path": lambda topo: topo.path(0, 4),
    "warm_routes": lambda topo: topo.warm_routes([0]),
    "simulator": lambda topo: NetworkSimulator(topo),
}

#: Every mutator, each given arguments it would accept on a topology still
#: being built.
MUTATORS = {
    "add_node": lambda topo: topo.add_node(5, "client"),
    "add_link": lambda topo: topo.add_link(0, 2, LinkType.STUB_STUB, 100.0, 0.001),
    "add_links": lambda topo: topo.add_links(
        [0], [2], [LinkType.STUB_STUB], [100.0], [0.001]
    ),
    "add_duplex_link": lambda topo: topo.add_duplex_link(
        0, 2, LinkType.STUB_STUB, 100.0, 0.001
    ),
    "set_link_loss": lambda topo: topo.set_link_loss(0, 0.1),
}


class TestFrozenUnderlay:
    """The underlay is fixed once it is routed (Section 4.1): the first route
    query, tree warm-up or capacity-map read freezes the topology."""

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    @pytest.mark.parametrize("freezer", sorted(FREEZERS))
    def test_mutators_raise_after_first_use(self, freezer, mutator):
        topo = build_line_topology()
        FREEZERS[freezer](topo)
        before = topo.describe(), [topo.link(index) for index in range(topo.num_links)]
        with pytest.raises(RuntimeError, match="fixed once it is routed"):
            MUTATORS[mutator](topo)
        assert (topo.describe(), [topo.link(index) for index in range(topo.num_links)]) == before
