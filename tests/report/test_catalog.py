"""Catalog invariants, expectation evaluation and export shaping."""

from types import SimpleNamespace

import pytest

from repro.experiments.ablations import PEER_COUNT_SEEDS, PEER_LIMITS
from repro.report.catalog import (
    CATALOG,
    EXPERIMENTS,
    SECTIONS,
    TIER_NAMES,
    TIERS,
    Expectation,
    RunContext,
    catalog_rows,
    flatten_export,
    experiment_ids,
    get_experiment,
    select_experiments,
)


class TestCatalogShape:
    def test_ids_unique_and_numbers_sequential(self):
        ids = [entry.id for entry in CATALOG]
        assert len(ids) == len(set(ids))
        # A number is a position: catalog_rows numbers entries 1..N in
        # catalog order, and a section's rows keep their catalog numbers.
        assert catalog_rows() == list(enumerate(CATALOG, start=1))
        by_section = [row for key, _ in SECTIONS for row in catalog_rows(key)]
        assert sorted(by_section, key=lambda row: row[0]) == catalog_rows()

    def test_every_entry_in_a_known_section(self):
        known = {key for key, _ in SECTIONS}
        assert {entry.section for entry in CATALOG} <= known

    def test_experiments_index_matches(self):
        assert set(EXPERIMENTS) == set(experiment_ids())
        assert experiment_ids() == [entry.id for entry in CATALOG]

    def test_expectation_tiers_are_valid(self):
        for entry in CATALOG:
            for expectation in entry.expectations:
                assert set(expectation.tiers) <= set(TIER_NAMES), entry.id

    def test_expectation_kinds_are_ge_or_le(self):
        # evaluate() reads any other kind as "le".
        for entry in CATALOG:
            for expectation in entry.expectations:
                assert expectation.kind in ("ge", "le"), (entry.id, expectation.name)

    def test_peer_ablation_averages_peer_count_seeds_above_smoke(self, monkeypatch):
        batches = []

        def fake_batch(configs, workers):
            batches.append([config.seed for config in configs])
            return [
                SimpleNamespace(average_useful_kbps=1.0, duplicate_ratio=0.0)
                for _ in configs
            ]

        monkeypatch.setattr("repro.experiments.batch.run_batch", fake_batch)
        runner = get_experiment("abl-peers").runner
        for tier in ("smoke", "paper", "scale", None):
            assert runner(RunContext(seed=4, tier=tier))["n_seeds"] == (
                1 if tier == "smoke" else PEER_COUNT_SEEDS
            )
        smoke, *larger = batches
        assert smoke == [4] * len(PEER_LIMITS)
        assert all(len(seeds) == PEER_COUNT_SEEDS * len(PEER_LIMITS) for seeds in larger)

    def test_tiers(self):
        assert tuple(TIERS) == TIER_NAMES
        assert TIERS["smoke"].n_overlay < TIERS["paper"].n_overlay
        assert TIERS["paper"].n_overlay < TIERS["scale"].n_overlay


class TestSelection:
    def test_default_is_whole_catalog(self):
        assert select_experiments(None) == list(CATALOG)

    def test_subset_keeps_catalog_order(self):
        subset = select_experiments(["table1", "fig7"])
        assert [entry.id for entry in subset] == ["fig7", "table1"]

    def test_unknown_id_lists_valid_choices(self):
        with pytest.raises(ValueError, match="bogus") as excinfo:
            select_experiments(["bogus"])
        assert "fig7" in str(excinfo.value)

    def test_get_experiment(self):
        assert get_experiment("fig7") is CATALOG[1]
        assert dict((entry.id, n) for n, entry in catalog_rows())["fig7"] == 2
        with pytest.raises(ValueError, match="nope"):
            get_experiment("nope")


class TestExpectation:
    def test_relational_pass_and_fail(self):
        check = Expectation(name="x", kind="ge", left="a", right="b", factor=0.9)
        assert check.evaluate({"a": 90.0, "b": 100.0}, "smoke").status == "pass"
        assert check.evaluate({"a": 89.0, "b": 100.0}, "smoke").status == "fail"

    def test_absolute_le(self):
        check = Expectation(name="x", kind="le", left="a", factor=60.0)
        assert check.evaluate({"a": 59.0}, "smoke").status == "pass"
        assert check.evaluate({"a": 61.0}, "smoke").status == "fail"

    def test_ungated_tier_reports_info(self):
        check = Expectation(
            name="x", kind="ge", left="a", factor=100.0, tiers=("paper", "scale")
        )
        assert check.evaluate({"a": 1.0}, "smoke").status == "info"
        assert check.evaluate({"a": 1.0}, "paper").status == "fail"

    def test_missing_metric_fails_when_gated(self):
        check = Expectation(name="x", kind="ge", left="absent", factor=1.0)
        outcome = check.evaluate({}, "smoke")
        assert outcome.status == "fail"
        assert "missing" in outcome.detail

    def test_note_lands_in_detail(self):
        check = Expectation(name="x", kind="ge", left="a", factor=1.0, note="why")
        assert "[why]" in check.evaluate({"a": 2.0}, "smoke").detail


class TestFlattenExport:
    def test_scalars_become_dotted_metrics(self):
        flat = flatten_export({"a": 1, "nested": {"b": 2.5, "flag": True}})
        assert flat["metrics"] == {"a": 1.0, "nested.b": 2.5, "nested.flag": 1.0}

    def test_point_series_detected(self):
        flat = flatten_export({"curve": [(0, 1.0), (5, 2.0)]})
        assert flat["series"]["curve"] == [[0.0, 1.0], [5.0, 2.0]]
        assert flat["metrics"] == {}

    def test_non_string_key_dicts_land_in_data(self):
        flat = flatten_export({"per_node": {3: 1.0, 7: 2.0}})
        assert flat["data"]["per_node"] == {3: 1.0, 7: 2.0}
        assert flat["metrics"] == {}
