"""The unused-name report: what counts as a caller, and what does not."""

import os
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "unused_names.py"

scan = runpy.run_path(str(SCRIPT))["scan"]

PLANTED = {
    "src/pkg/__init__.py": """
        from pkg.mod import reexported

        __all__ = ["reexported"]
    """,
    "src/pkg/mod.py": """
        def used():
            return 1


        def planted_unused():
            return planted_unused()


        def reexported():
            return 2


        def tested_only():
            return 3


        def dispatched():
            return 4


        class Engine:
            def run(self):
                return used()

            def planted_method(self):
                return 5

            def _private(self):
                return 6
    """,
    "src/pkg/user.py": """
        from pkg import mod

        mod.Engine().run()
        getattr(mod, "dispatched")()
    """,
    "examples/demo.py": """
        from pkg.mod import Engine

        Engine()
    """,
    "tests/test_mod.py": """
        from pkg.mod import Engine, tested_only

        def test_it():
            assert tested_only() == 3
            assert Engine().planted_method() == 5
    """,
    "benchmarks/test_bench.py": """
        from pkg.mod import reexported
    """,
}


def _plant(root):
    for relative, text in PLANTED.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


def test_groups_separate_dead_names_from_test_only_names(tmp_path):
    _plant(tmp_path)
    uncalled, test_only = scan(tmp_path)
    # Recursion is not a caller, and neither is an __init__ re-export nor a
    # bare import in a test file.
    assert [d.qualname for d in uncalled] == ["planted_unused", "reexported"]
    assert [d.qualname for d in test_only] == ["tested_only", "Engine.planted_method"]
    assert uncalled[0].path == "src/pkg/mod.py"


def test_report_always_exits_zero(tmp_path):
    _plant(tmp_path)
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0
    assert "(a) called nowhere: 2" in completed.stdout
    assert "src/pkg/mod.py:6 planted_unused" in completed.stdout


def test_report_exits_zero_when_the_reader_closes_at_once(tmp_path):
    _plant(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)  # a reader that is gone before the first line
    try:
        completed = subprocess.run(
            [sys.executable, str(SCRIPT), str(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
        )
    finally:
        os.close(write_end)
    assert completed.returncode == 0
    assert completed.stderr == ""


#: Every public name under ``src/`` that only tests call, and why it stays,
#: keyed ``module.qualname`` under ``repro`` (dotted, so no key reads as a
#: reference to the name).  A name that leaves ``src/`` leaves this table
#: too; a new test-only name needs an entry here, or a runtime caller.
TEST_ONLY_ALLOWED = {
    "core.disjoint.DisjointSender.child_state":
        "per-child counters the Figure 5 send tests inspect",
    "core.peering.PeerManager.receiver_ids":
        "the receiver-side twin of sender_ids, read by peering tests",
    "experiments.registry.unregister_system":
        "lets registry tests remove the toy systems they register",
    "hierarchy.interior.InteriorCluster.count_of":
        "one member's packet count, read by the interior stepper tests",
    "network.control.ControlChannel.is_down":
        "the mark_down readout the control-channel tests check",
    "ransub.protocol.RanSubNodeState.force_finalize":
        "the synchronous RanSub oracle's forced collect",
    "topology.generator.TopologyConfig.total_clients":
        "the generator's client count, checked by generator tests",
    "topology.graph.Topology.add_link":
        "one-direction link for hand-built test underlays",
    "topology.graph.Topology.node_role":
        "the per-node role readout the generator tests check",
    "topology.graph.Topology.link_between":
        "directed link lookup for hand-built test underlays",
    "topology.graph.Topology.routing_stats":
        "routing-engine work counters the route-cache tests read",
    "topology.landmarks.LandmarkLatencyEstimator.coordinates":
        "landmark item: one node's RTT vector, tested until a run uses it",
    "topology.landmarks.LandmarkLatencyEstimator.bracket":
        "landmark item: scalar form of brackets, tested until a run uses it",
    "topology.routing.RoutingEngine.cached_route_count":
        "route-cache size the cache tests assert on",
    "trees.bottleneck_tree.tree_bottleneck_estimate":
        "per-edge bottleneck estimate the tree tests compare against",
    "trees.random_tree.build_balanced_tree":
        "deterministic tree shape for tests",
    "trees.tree.OverlayTree.leaves":
        "tree readout the tree tests check",
    "trees.tree.OverlayTree.non_descendants":
        "RanSub-nondescendants population, checked by tree tests",
    "trees.tree.OverlayTree.ancestors":
        "tree readout the tree tests check",
    "trees.tree.OverlayTree.as_parent_map":
        "tree readout the tree tests check",
}


def _key(definition):
    module = definition.path.removeprefix("src/repro/").removesuffix(".py")
    return f"{module.replace('/', '.')}.{definition.qualname}"


def test_the_repository_has_no_dead_names_and_no_unlisted_test_only_names():
    uncalled, test_only = scan(REPO_ROOT)
    assert [f"{d.path}:{d.line} {d.qualname}" for d in uncalled] == []
    unlisted = [
        f"{d.path}:{d.line} {d.qualname}"
        for d in test_only
        if _key(d) not in TEST_ONLY_ALLOWED
    ]
    assert unlisted == [], "test-only names without an allow-list entry"
    stale = sorted(set(TEST_ONLY_ALLOWED) - {_key(d) for d in test_only})
    assert stale == [], "allow-list entries for names that are gone or now called"
    assert all(reason.strip() for reason in TEST_ONLY_ALLOWED.values())
