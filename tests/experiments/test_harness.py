"""Tests for the experiment harness (small, fast configurations)."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.experiments.harness import (
    ExperimentConfig,
    RunContext,
    run_experiment,
    run_planetlab_experiment,
)
from repro.topology.planetlab import PlanetLabConfig

FAST = dict(n_overlay=12, duration_s=50.0, sample_interval_s=5.0, seed=3)

#: BulletConfig fields that became constants of repro.core.config.
REMOVED_BULLET_KNOBS = (
    "packet_kbits",
    "ransub_set_size",
    "peer_with_parent",
    "source_serves_peers",
    "bloom_refresh_s",
    "bloom_false_positive_rate",
    "duplicate_threshold",
    "peering_timeout_s",
    "ransub_collect_timeout_s",
    "recovery_span_packets",
    "limiting_factor_initial",
    "limiting_factor_min",
    "ticket_entries",
    "ticket_window",
    "ticket_sample_stride",
)


class TestExperimentConfig:
    def test_rejects_unknown_system(self):
        with pytest.raises(ValueError):
            ExperimentConfig(system="ip-multicast")

    def test_rejects_bad_durations(self):
        with pytest.raises(ValueError):
            ExperimentConfig(duration_s=0)
        with pytest.raises(ValueError):
            ExperimentConfig(sample_interval_s=0.1)

    def test_rejects_a_run_shorter_than_one_sample(self):
        # Such a run would take no sample and report 0 Kbps.
        with pytest.raises(ValueError, match=r"sample_interval_s \(5 s\).*duration_s \(4 s\)"):
            ExperimentConfig(n_overlay=6, duration_s=4)
        assert ExperimentConfig(duration_s=5.0, sample_interval_s=5.0).duration_s == 5.0

    @pytest.mark.parametrize(
        "retired",
        [
            dict(engines="legacy"),
            dict(step_engine=False),
            dict(solver="single_pass"),
            dict(transport="tcp"),
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_retired_engine_fields_fail_loudly(self, retired):
        # sweep/batch overrides go through dataclasses.replace(base, **kw):
        # a mode override must raise, never be silently ignored.
        with pytest.raises(TypeError):
            ExperimentConfig(**retired)
        with pytest.raises(TypeError):
            dataclasses.replace(ExperimentConfig(), **retired)

    def test_bullet_config_inherits_rate_and_seed(self):
        config = ExperimentConfig(stream_rate_kbps=900.0, seed=11)
        bullet = config.bullet_config()
        assert bullet.stream_rate_kbps == 900.0
        assert bullet.seed == 11

    def test_bullet_override_sets_only_bullet_knobs(self):
        config = ExperimentConfig(
            stream_rate_kbps=900.0,
            seed=4,
            control_loss_rate=0.1,
            ransub_failure_detection=False,
            bullet={"max_senders": 3, "ransub_epoch_s": 20.0},
        )
        bullet = config.bullet_config()
        assert (bullet.max_senders, bullet.ransub_epoch_s) == (3, 20.0)
        assert (bullet.stream_rate_kbps, bullet.seed) == (900.0, 4)
        assert (bullet.control_loss_rate, bullet.ransub_failure_detection) == (0.1, False)

    @pytest.mark.parametrize(
        "name", ["seed", "stream_rate_kbps", "ransub_failure_detection", "control_loss_rate"]
    )
    def test_bullet_override_rejects_shared_fields(self, name):
        with pytest.raises(ValueError, match=rf"ExperimentConfig\.{name}"):
            ExperimentConfig(bullet={name: 3})

    def test_bullet_override_rejects_unknown_fields(self, capsys):
        # Protocol constants are not options: every removed knob is as
        # unknown as a name that never existed.
        for name in ("max_peers",) + REMOVED_BULLET_KNOBS:
            with pytest.raises(ValueError, match=f"BulletConfig has no field '{name}'"):
                ExperimentConfig(bullet={name: 3})
        for name in ("dt", "max_fanout"):
            with pytest.raises(TypeError, match=name):
                ExperimentConfig(**{name: 1})
            assert cli_main(["sweep", "--systems", "stream", "--param", f"{name}=2"]) == 2
            assert f"ExperimentConfig has no field '{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [0.0, -600.0])
    def test_rejects_unusable_stream_rate(self, rate):
        with pytest.raises(ValueError, match="stream_rate_kbps must be positive"):
            ExperimentConfig(system="gossip", stream_rate_kbps=rate)

    def test_rejects_bad_control_loss_rate(self):
        with pytest.raises(ValueError):
            ExperimentConfig(control_loss_rate=1.0)

    def test_control_loss_rate_reaches_every_channelled_system(self):
        from repro.experiments.session import ExperimentSession

        for system in ("bullet", "gossip", "antientropy"):
            config = ExperimentConfig(system=system, control_loss_rate=0.2, **FAST)
            session = ExperimentSession(config)
            assert session.system.control_channel.extra_loss_rate == 0.2, system


class TestRunExperiment:
    def test_bullet_run_produces_series_and_metrics(self):
        result = run_experiment(ExperimentConfig(system="bullet", tree_kind="random", **FAST))
        assert len(result.useful_series) >= 8
        assert result.average_useful_kbps > 0
        assert 0.0 <= result.duplicate_ratio < 1.0
        assert result.control_overhead_kbps >= 0.0
        assert result.bandwidth_cdf_final

    def test_stream_run(self):
        result = run_experiment(ExperimentConfig(system="stream", tree_kind="bottleneck", **FAST))
        assert result.average_useful_kbps > 0
        assert result.duplicate_ratio == 0.0

    def test_gossip_run(self):
        result = run_experiment(ExperimentConfig(system="gossip", **FAST))
        assert result.average_useful_kbps > 0

    def test_antientropy_run(self):
        result = run_experiment(ExperimentConfig(system="antientropy", tree_kind="random", **FAST))
        assert result.average_useful_kbps > 0

    def test_failure_injection_recorded(self):
        result = run_experiment(
            ExperimentConfig(system="bullet", failure_at_s=25.0, **FAST)
        )
        assert result.failure_time_s == 25.0

    def test_deterministic_given_seed(self):
        a = run_experiment(ExperimentConfig(system="stream", **FAST))
        b = run_experiment(ExperimentConfig(system="stream", **FAST))
        assert a.average_useful_kbps == pytest.approx(b.average_useful_kbps)

    def test_summary_shape(self):
        result = run_experiment(ExperimentConfig(system="stream", **FAST))
        summary = result.summary()
        assert summary.peak_kbps >= summary.steady_state_kbps * 0.5


class TestRunContext:
    @pytest.fixture
    def batches(self, monkeypatch):
        """Every batch ``RunContext.run`` hands to ``run_batch``; each result
        is a stand-in that records its config."""
        batches = []

        def fake_batch(configs, workers):
            batches.append((list(configs), workers))
            return [SimpleNamespace(config=config) for config in configs]

        monkeypatch.setattr("repro.experiments.batch.run_batch", fake_batch)
        return batches

    def test_results_in_input_order_each_config_run_once(self, batches):
        ctx = RunContext(n_overlay=12, duration_s=50.0, workers=2)
        bullet, stream = ctx.config(system="bullet"), ctx.config(system="stream")
        first = ctx.run(stream, bullet, ctx.config(system="stream"))
        assert [result.config for result in first] == [stream, bullet, stream]
        assert first[0] is first[2]
        again = ctx.run(ctx.config(system="bullet"), ctx.config(system="gossip"))
        assert again[0] is first[1]
        assert batches == [([stream, bullet], 2), ([ctx.config(system="gossip")], 2)]
        assert ctx.run(bullet) == [first[1]]
        assert len(batches) == 2

    def test_contexts_do_not_share_runs(self, batches):
        config = RunContext().config(system="stream")
        RunContext().run(config)
        RunContext().run(config)
        assert len(batches) == 2

    def test_runs_are_not_a_parameter_or_part_of_equality(self, batches):
        with pytest.raises(TypeError):
            RunContext(_done=[])
        ran = RunContext(seed=4)
        ran.run(ran.config())
        assert ran == RunContext(seed=4)
        assert hash(ran) == hash(RunContext(seed=4))
        assert "_done" not in repr(ran)


class TestPlanetLabExperiment:
    def test_bullet_and_tree_runs(self):
        config = PlanetLabConfig(total_sites=14, europe_sites=4, seed=2)
        bullet = run_planetlab_experiment(
            system="bullet", tree_kind="random", duration_s=50.0, planetlab_config=config
        )
        tree = run_planetlab_experiment(
            system="stream", tree_kind="good", duration_s=50.0, planetlab_config=config
        )
        assert bullet.average_useful_kbps > 0
        assert tree.average_useful_kbps > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_planetlab_experiment(system="gossip")
        with pytest.raises(ValueError):
            run_planetlab_experiment(tree_kind="balanced")
