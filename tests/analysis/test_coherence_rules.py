"""Fixture pairs for the cache-coherence rule (COH001) and its tables."""

import textwrap
from pathlib import Path

import pytest

SYSTEM_PY = Path(__file__).resolve().parents[2] / "src/repro/hierarchy/system.py"
MESH_PY = Path(__file__).resolve().parents[2] / "src/repro/core/mesh.py"
WORKING_SET_PY = Path(__file__).resolve().parents[2] / "src/repro/reconcile/working_set.py"


def rules_of(findings):
    return [finding.rule for finding in findings]


TABLE = textwrap.dedent("""
    CACHE_INVARIANTS = {
        "Cache": {
            "scope": "module",
            "attrs": {"payload": ["version"]},
            "calls": {"_items.append": ["version"]},
            "exempt": ["_swap_payload"],
        },
    }
""")


def guarded(body):
    """The shared table followed by ``body`` (both at column zero)."""
    return TABLE + textwrap.dedent(body)


class TestCoh001Attrs:
    def test_bad_store_without_bump(self, analyze):
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def poison(self, value):
                    self.payload = value
        """)})
        assert rules_of(findings) == ["COH001"]
        assert "payload" in findings[0].message
        assert "version" in findings[0].message

    def test_good_store_with_bump(self, analyze):
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def store(self, value):
                    self.payload = value
                    self.version += 1
        """)})
        assert findings == []

    def test_bump_before_mutation_counts(self, analyze):
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def store(self, value):
                    self.version += 1
                    self.payload = value
        """)})
        assert findings == []

    def test_bump_in_sibling_branch_does_not_count(self, analyze):
        # The bump only runs on the else path; the mutation is unguarded on
        # the if path, which is exactly the bug class COH001 exists for.
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def store(self, value, fast):
                    self.payload = value
                    if fast:
                        pass
                    else:
                        self.version += 1
        """)})
        assert rules_of(findings) == ["COH001"]

    def test_bump_in_enclosing_list_counts(self, analyze):
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def store(self, values):
                    for value in sorted(values):
                        self.payload = value
                    self.version += 1
        """)})
        assert findings == []

    def test_init_is_exempt(self, analyze):
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def __init__(self):
                    self.payload = None
                    self.version = 0
        """)})
        assert findings == []

    def test_item_store_through_the_attribute_is_a_store(self, analyze):
        # ``self.payload[i] = x`` changes what the cache was built from just
        # as rebinding ``self.payload`` does.
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def poison(self, index, value):
                    self.payload[index] = value

                def nested(self, row, column, value):
                    self.payload[row][column] = value

                def store(self, index, value):
                    self.payload[index] = value
                    self.version += 1
        """)})
        assert rules_of(findings) == ["COH001", "COH001"]
        assert all("payload" in finding.message for finding in findings)
        assert "in poison()" in findings[0].message
        assert "in nested()" in findings[1].message

    def test_declared_exempt_helper(self, analyze):
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def _swap_payload(self, value):
                    self.payload = value

                def store(self, value):
                    self._swap_payload(value)
                    self.version += 1
        """)})
        assert findings == []


class TestCoh001Calls:
    def test_bad_mutating_call_without_bump(self, analyze):
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def push(self, value):
                    self._items.append(value)
        """)})
        assert rules_of(findings) == ["COH001"]

    def test_good_mutating_call_with_bump(self, analyze):
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def push(self, value):
                    self._items.append(value)
                    self.version += 1
        """)})
        assert findings == []

    def test_call_on_an_item_of_the_receiver_is_a_call_on_it(self, analyze):
        # ``self._items[key].append(x)`` grows what ``_items`` holds just as
        # ``self._items.append(x)`` does (Topology's per-node out-link lists).
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def push(self, key, value):
                    self._items[key].append(value)

                def push_and_bump(self, key, value):
                    self._items[key].append(value)
                    self.version += 1
        """)})
        assert rules_of(findings) == ["COH001"]
        assert "in push()" in findings[0].message


    def test_store_to_an_item_of_the_bump_attribute_is_a_bump(self, analyze):
        # ``self.version[key] = x`` updates the guarded bookkeeping just as
        # ``self.version = x`` does (BulletMesh's member -> owner-host map).
        findings = analyze({"mod.py": guarded("""
            class Cache:
                def push(self, key, value):
                    self._items.append(value)
                    self.version[key] = value
        """)})
        assert findings == []


class TestClusteredBulletMembershipCache:
    """The real table: ``receivers()``' cached membership in hierarchy/system.py."""

    INVALIDATION = "        self._receivers = None\n"

    def test_shipped_module_is_clean(self, analyze):
        assert analyze({"system.py": SYSTEM_PY.read_text()}) == []

    @pytest.mark.parametrize(
        "function, unguarded",
        [
            ("fail_node", ["_executor.fail_interior()"]),
            (
                "_fail_mesh_member",
                [
                    "mesh.fail_node()",
                    "mesh.add_node()",
                    "_executor.promote()",
                    "_mid_shard.promote()",
                    "_mid_shard.add_interior()",
                    "._dead_clusters",
                    "._mid_dead",
                ],
            ),
            (
                "_fail_group_head",
                [
                    "_mid_shard.fail_interior()",
                    "_executor.promote()",
                    "._dead_clusters",
                ],
            ),
            ("add_node", ["_executor.add_interior()"]),
        ],
    )
    def test_dropped_invalidation_is_flagged(self, analyze, function, unguarded):
        source = SYSTEM_PY.read_text()
        start = source.index(f"    def {function}(")
        drop = source.index(self.INVALIDATION, start)
        # The invalidation being dropped is this function's own.
        assert "\n    def " not in source[start + 1 : drop]
        broken = source[:drop] + source[drop + len(self.INVALIDATION) :]
        findings = analyze({"system.py": broken})
        assert findings and set(rules_of(findings)) == {"COH001"}
        assert all(f"in {function}()" in finding.message for finding in findings)
        assert all("_receivers" in finding.message for finding in findings)
        for mutation in unguarded:
            assert any(mutation in finding.message for finding in findings), mutation

    def test_new_mid_shard_mutation_without_invalidation_is_flagged(self, analyze):
        # Mid clusters mutate through the main-side shard; a new caller that
        # forgets to drop the cached membership must not slip through.
        source = SYSTEM_PY.read_text()
        end_of_class = source.index("\n\n@register_system(")
        broken = (
            source[:end_of_class]
            + "\n    def evict_leaf_head(self, mid_index, node):\n"
            + "        self._mid_shard.fail_interior(mid_index, node)\n"
            + source[end_of_class:]
        )
        findings = analyze({"system.py": broken})
        assert rules_of(findings) == ["COH001"]
        assert "_mid_shard.fail_interior()" in findings[0].message
        assert "in evict_leaf_head()" in findings[0].message


class TestBulletMeshJoin:
    """The real table in core/mesh.py: a join rebuilds the depth levels
    *and* gives the new member an owner host."""

    def test_shipped_module_is_clean(self, analyze):
        assert analyze({"mesh.py": MESH_PY.read_text()}) == []

    @pytest.mark.parametrize(
        "statement, missing",
        [
            ("        self._rebuild_depth_levels()\n", "_rebuild_depth_levels"),
            (
                "        owner = self._owner_of[node_id] = self._owner_for(node_id)\n",
                "_owner_of",
            ),
        ],
    )
    def test_join_that_forgets_a_step_is_flagged(self, analyze, statement, missing):
        source = MESH_PY.read_text()
        start = source.index("    def add_node(")
        drop = source.index(statement, start)
        assert "\n    def " not in source[start + 1 : drop]
        replacement = "        owner = self._owner_for(node_id)\n" if "owner" in statement else ""
        broken = source[:drop] + replacement + source[drop + len(statement) :]
        findings = analyze({"mesh.py": broken})
        assert rules_of(findings) == ["COH001"]
        assert "tree.add_leaf() call in add_node()" in findings[0].message
        assert f"without bumping {missing} " in findings[0].message


class TestWorkingSetTable:
    """The real table in reconcile/working_set.py: every change to the held
    sequences still needs its version bump."""

    def test_shipped_module_is_clean(self, analyze):
        assert analyze({"working_set.py": WORKING_SET_PY.read_text()}) == []

    @pytest.mark.parametrize(
        "function, bump, unguarded",
        [
            (
                "add_many",
                "            self.version += 1\n",
                ["_sequences.add() call", "_ordered.append() call", "_ordered.insert() call"],
            ),
            ("_prune", "        self.version += 1\n", ["_sequences.difference_update() call"]),
            (
                "prune_below",
                "        self.version += 1\n",
                ["_sequences.difference_update() call"],
            ),
        ],
        ids=["add_many", "_prune", "prune_below"],
    )
    def test_unbumped_mutation_is_flagged(self, analyze, function, bump, unguarded):
        source = WORKING_SET_PY.read_text()
        start = source.index(f"    def {function}(")
        drop = source.index(bump, start)
        assert "\n    def " not in source[start + 1 : drop]
        findings = analyze({"working_set.py": source[:drop] + source[drop + len(bump) :]})
        assert findings and set(rules_of(findings)) == {"COH001"}
        assert all(f"in {function}()" in finding.message for finding in findings)
        assert sorted(
            mutation for mutation in unguarded
            for finding in findings if mutation in finding.message
        ) == sorted(unguarded)


class TestTreeScope:
    def test_tree_scope_is_tbl001(self, analyze):
        findings = analyze({"caches.py": """
            CACHE_INVARIANTS = {
                "Link": {
                    "scope": "tree",
                    "attrs": {"loss_rate": ["note_loss_change"]},
                },
            }
        """})
        assert rules_of(findings) == ["TBL001"]
        assert "scope must be 'module'" in findings[0].message

    def test_module_table_stays_home(self, analyze):
        findings = analyze({
            "caches.py": TABLE,
            "other.py": """
                def elsewhere(cache, value):
                    cache.payload = value
            """,
        })
        assert findings == []


class TestTableValidation:
    def test_malformed_table_is_tbl001(self, analyze):
        findings = analyze({"mod.py": """
            CACHE_INVARIANTS = {"Cache": {"scope": "galaxy", "attrs": {"a": ["v"]}}}
        """})
        assert rules_of(findings) == ["TBL001"]

    def test_empty_spec_is_tbl001(self, analyze):
        findings = analyze({"mod.py": """
            CACHE_INVARIANTS = {"Cache": {"scope": "module"}}
        """})
        assert rules_of(findings) == ["TBL001"]

    def test_non_literal_table_is_tbl001(self, analyze):
        findings = analyze({"mod.py": """
            BUMPS = ["version"]
            CACHE_INVARIANTS = {"Cache": {"attrs": {"payload": BUMPS}}}
        """})
        assert rules_of(findings) == ["TBL001"]
