"""The capability-declaring system API.

Every registered system carries a :class:`SystemCapabilities` declaration
on its spec; scenario code (sessions, the report matrix) consults the
declaration instead of hardcoded system lists.
"""

import pytest

from repro.experiments.harness import ExperimentConfig
from repro.experiments.registry import (
    BuildContext,
    SystemCapabilities,
    get_system,
    register_system,
    unregister_system,
)
from repro.experiments.session import ExperimentSession
from repro.report.catalog import system_supports_churn


class TestDeclarations:
    def test_defaults(self):
        caps = SystemCapabilities()
        assert caps.supports_fail_node
        assert caps.supports_join
        assert not caps.hierarchical

    @pytest.mark.parametrize(
        "system, fail_node, join, hierarchical",
        [
            ("bullet", True, True, False),
            ("stream", True, True, False),
            ("antientropy", True, True, False),
            ("gossip", False, True, False),
            ("bullet-clustered", True, True, True),
        ],
    )
    def test_builtin_declarations(self, system, fail_node, join, hierarchical):
        caps = get_system(system).capabilities
        assert caps.supports_fail_node is fail_node
        assert caps.supports_join is join
        assert caps.hierarchical is hierarchical

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SystemCapabilities().supports_fail_node = False


class TestCapabilityQueries:
    def test_report_matrix_queries_declaration_not_a_hardcoded_list(self):
        assert system_supports_churn("bullet")
        assert system_supports_churn("bullet-clustered")
        assert not system_supports_churn("gossip")


class TestSessionEnforcement:
    def test_churn_rejected_by_declaration_before_hasattr(self):
        # A system *declaring* no fail_node support is rejected even if the
        # object happens to expose a fail_node attribute.
        @register_system(
            "declared-nofail-test",
            uses_tree=False,
            supports_fail_node=False,
            replace=True,
        )
        def _build(ctx: BuildContext):
            class Sys:
                def __init__(self):
                    self.simulator = ctx.simulator

                def protocol_phase(self, now):
                    pass

                def receivers(self):
                    return []

                def fail_node(self, node):  # pragma: no cover - never reached
                    pass

            return Sys()

        try:
            with pytest.raises(ValueError, match="fail_node"):
                ExperimentSession(
                    ExperimentConfig(
                        system="declared-nofail-test",
                        n_overlay=8,
                        duration_s=20.0,
                        churn_failures=2,
                    )
                )
        finally:
            unregister_system("declared-nofail-test")

    def test_join_rejected_by_declaration(self):
        @register_system(
            "declared-nojoin-test",
            uses_tree=False,
            supports_join=False,
            replace=True,
        )
        def _build(ctx: BuildContext):
            class Sys:
                def protocol_phase(self, now):
                    pass

                def receivers(self):
                    return []

            return Sys()

        try:
            with pytest.raises(ValueError, match="add_node"):
                ExperimentSession(
                    ExperimentConfig(
                        system="declared-nojoin-test",
                        n_overlay=8,
                        duration_s=20.0,
                        churn_joins=2,
                    )
                )
        finally:
            unregister_system("declared-nojoin-test")
