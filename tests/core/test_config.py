"""Tests for BulletConfig defaults and validation."""

import pytest

from repro.core.config import (
    BLOOM_REFRESH_S,
    DUPLICATE_THRESHOLD,
    RANSUB_SET_SIZE,
    BulletConfig,
)
from repro.experiments.harness import ExperimentConfig


class TestBulletConfigDefaults:
    def test_paper_defaults(self):
        config = BulletConfig()
        assert config.stream_rate_kbps == 600.0
        assert config.ransub_epoch_s == 5.0
        assert config.max_senders == 10
        assert config.max_receivers == 10
        assert config.disjoint_send is True
        assert RANSUB_SET_SIZE == 10
        assert BLOOM_REFRESH_S == 5.0
        assert DUPLICATE_THRESHOLD == 0.5

    def test_stream_packets_per_second(self):
        config = BulletConfig(stream_rate_kbps=600.0)
        assert config.stream_packets_per_second == pytest.approx(50.0)

    def test_packets_per_epoch(self):
        config = BulletConfig(stream_rate_kbps=600.0, ransub_epoch_s=5.0)
        assert config.packets_per_epoch == pytest.approx(250.0)

    def test_limiting_factor_step(self):
        config = BulletConfig()
        assert config.limiting_factor_step == pytest.approx(1.0 / 250.0)

    def test_recovery_lookahead_packets(self):
        config = BulletConfig(stream_rate_kbps=600.0, recovery_lookahead_s=5.0)
        assert config.recovery_lookahead_packets == 250

    def test_collect_timeout_is_half_the_epoch(self):
        assert BulletConfig(ransub_epoch_s=8.0).collect_timeout_s == 4.0


class TestBulletConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stream_rate_kbps": 0},
            {"stream_rate_kbps": -600.0},
            {"ransub_epoch_s": 0},
            {"ransub_epoch_s": -5.0},
            {"max_senders": 0},
            {"max_receivers": 0},
            {"working_set_window": 0},
            {"eviction_period_epochs": 0},
            {"control_loss_rate": 1.0},
            {"control_loss_rate": -0.1},
            {"recovery_lookahead_s": -5.0},
            # Under one packet: rejected on the seconds, not the packet count.
            {"recovery_lookahead_s": -0.01},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BulletConfig(**kwargs)

    def test_rejects_negative_recovery_lookahead(self):
        # A negative lookahead would quietly shrink the advertised recovery
        # range instead of extending it.
        with pytest.raises(ValueError, match="recovery_lookahead_s must be non-negative"):
            ExperimentConfig(bullet={"recovery_lookahead_s": -5.0})

    def test_nondisjoint_ablation_flag(self):
        config = BulletConfig(disjoint_send=False)
        assert config.disjoint_send is False
