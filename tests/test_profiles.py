"""FlowSpec validation and derived quantities."""

import pytest

from repro.errors import ConfigurationError
from repro.traffic.profiles import FlowSpec


def spec(**overrides):
    base = dict(
        flow_id=0,
        peak_rate=2_000_000.0,
        avg_rate=250_000.0,
        bucket=50_000.0,
        token_rate=250_000.0,
        conformant=True,
        mean_burst=50_000.0,
    )
    base.update(overrides)
    return FlowSpec(**base)


class TestValidation:
    def test_valid_spec_constructs(self):
        assert spec().flow_id == 0

    def test_avg_above_peak_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(avg_rate=3_000_000.0)

    def test_zero_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(peak_rate=0.0)
        with pytest.raises(ConfigurationError):
            spec(avg_rate=0.0, peak_rate=1.0)
        with pytest.raises(ConfigurationError):
            spec(token_rate=0.0)

    def test_zero_bucket_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(bucket=0.0)

    def test_zero_mean_burst_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(mean_burst=0.0)

    def test_avg_equal_peak_allowed(self):
        # Degenerates to CBR; the source handles it.
        assert spec(avg_rate=2_000_000.0).avg_rate == 2_000_000.0


class TestDerived:
    def test_profile_pair(self):
        assert spec().profile == (50_000.0, 250_000.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            spec().flow_id = 5
