"""Tests for the configuration parameter dataclasses."""

import pytest

from repro.core.params import (
    RMM_LITE_PARAMS,
    TLB_LITE_PARAMS,
    ConfigurationSummary,
    HierarchyParams,
    LiteParams,
    SetAssocParams,
    SimulationParams,
)


class TestSetAssocParams:
    def test_sets(self):
        assert SetAssocParams(64, 4).sets == 16
        assert SetAssocParams(512, 4).sets == 128


class TestHierarchyParams:
    def test_sandy_bridge_defaults(self):
        params = HierarchyParams()
        assert params.l1_4kb == SetAssocParams(64, 4)
        assert params.l1_2mb == SetAssocParams(32, 4)
        assert params.l1_1gb_entries == 4
        assert params.l2_page == SetAssocParams(512, 4)
        assert params.l1_range_entries == 4
        assert params.l2_range_entries == 32


class TestLiteParams:
    def test_paper_defaults(self):
        assert TLB_LITE_PARAMS.threshold_mode == "relative"
        assert TLB_LITE_PARAMS.epsilon_relative == 0.125
        assert RMM_LITE_PARAMS.threshold_mode == "absolute"
        assert RMM_LITE_PARAMS.epsilon_absolute == 0.1

    def test_threshold_relative(self):
        params = LiteParams(threshold_mode="relative", epsilon_relative=0.125)
        assert params.threshold(8.0) == pytest.approx(9.0)
        assert params.threshold(0.0) == 0.0

    def test_threshold_absolute(self):
        params = LiteParams(threshold_mode="absolute", epsilon_absolute=0.1)
        assert params.threshold(0.0) == pytest.approx(0.1)
        assert params.threshold(5.0) == pytest.approx(5.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            LiteParams(threshold_mode="nope")
        with pytest.raises(ValueError):
            LiteParams(interval_instructions=0)
        with pytest.raises(ValueError):
            LiteParams(reactivate_probability=1.5)
        with pytest.raises(ValueError):
            LiteParams(min_ways=0)


class TestSimulationParams:
    def test_defaults(self):
        params = SimulationParams()
        assert params.fast_forward_fraction == 0.1
        assert params.walk_l1_hit_ratio == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationParams(fast_forward_fraction=1.0)
        with pytest.raises(ValueError):
            SimulationParams(timeline_windows=0)


class TestConfigurationSummary:
    def test_render_with_all_fields(self):
        summary = ConfigurationSummary(
            "X", ("4KB", "range"), ("L1 a", "L2 b"), lite="ε stuff", notes="note"
        )
        text = summary.render()
        assert text.splitlines()[0] == "X: pages 4KB+range"
        assert "  - L1 a" in text
        assert "Lite: ε stuff" in text
        assert "(note)" in text

    def test_render_minimal(self):
        text = ConfigurationSummary("Y", ("4KB",), ()).render()
        assert text == "Y: pages 4KB"
