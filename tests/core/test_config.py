"""MntpConfig validation and presets."""

import pytest

from repro.core.config import TABLE2_CONFIGS, HintThresholds, MntpConfig


def test_defaults_match_paper_thresholds():
    t = HintThresholds()
    assert t.min_rssi_dbm == -75.0
    assert t.max_noise_dbm == -70.0
    assert t.min_snr_margin_db == 20.0


def test_default_pools_skip_2():
    cfg = MntpConfig()
    assert "2.pool.ntp.org" not in cfg.warmup_pools
    assert cfg.warmup_pools == (
        "0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org",
    )


def test_min_warmup_samples_default_10():
    assert MntpConfig().min_warmup_samples == 10


@pytest.mark.parametrize(
    "field", ["warmup_period", "warmup_wait_time", "regular_wait_time", "reset_period"]
)
def test_nonpositive_durations_rejected(field):
    with pytest.raises(ValueError):
        MntpConfig(**{field: 0.0})


@pytest.mark.parametrize(
    "field",
    ["warmup_period", "warmup_wait_time", "regular_wait_time", "reset_period",
     "step_recovery_min_residual"],
)
def test_nan_durations_rejected(field):
    # NaN compares False to everything: a ``<= 0`` check let it through,
    # and a NaN period then never completes the warm-up.
    with pytest.raises(ValueError, match=field):
        MntpConfig(**{field: float("nan")})


@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_invalid_filter_gate_floor_rejected(value):
    with pytest.raises(ValueError, match="filter_gate_floor"):
        MntpConfig(filter_gate_floor=value)


@pytest.mark.parametrize("value", [0, -3])
def test_nonpositive_rejection_limit_rejected(value):
    with pytest.raises(ValueError, match="max_consecutive_rejections"):
        MntpConfig(max_consecutive_rejections=value)


@pytest.mark.parametrize(
    "field", ["warmup_period", "warmup_wait_time", "regular_wait_time", "reset_period"]
)
def test_infinite_durations_allowed(field):
    assert getattr(MntpConfig(**{field: float("inf")}), field) == float("inf")


def test_too_few_warmup_samples_rejected():
    with pytest.raises(ValueError):
        MntpConfig(min_warmup_samples=1)


def test_empty_pools_rejected():
    with pytest.raises(ValueError):
        MntpConfig(warmup_pools=())


def test_with_overrides():
    cfg = MntpConfig().with_overrides(warmup_period=60.0)
    assert cfg.warmup_period == 60.0
    assert cfg.reset_period == MntpConfig().reset_period


def test_headtohead_preset_disables_corrections():
    cfg = MntpConfig.baseline_headtohead(cadence_s=5.0)
    assert cfg.warmup_wait_time == 5.0
    assert not cfg.enable_drift_correction
    assert not cfg.enable_clock_correction
    assert cfg.enable_hint_gate
    assert cfg.enable_filter


def test_table2_configs_match_published_parameters():
    # (warmup min, warmup wait min, regular wait min, reset min)
    published = {
        1: (30, 0.25, 15, 240),
        2: (40, 0.25, 15, 240),
        3: (50, 0.25, 15, 240),
        4: (70, 0.25, 30, 240),
        5: (90, 0.084, 15, 240),
        6: (240, 0.084, 15, 240),
    }
    for num, (wp, ww, rw, rp) in published.items():
        cfg = TABLE2_CONFIGS[num]
        assert cfg.warmup_period == pytest.approx(wp * 60)
        assert cfg.warmup_wait_time == pytest.approx(ww * 60)
        assert cfg.regular_wait_time == pytest.approx(rw * 60)
        assert cfg.reset_period == pytest.approx(rp * 60)


def test_config_frozen():
    cfg = MntpConfig()
    with pytest.raises(Exception):
        cfg.warmup_period = 5.0
