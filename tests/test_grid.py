"""Budget arithmetic and raster geometry."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linear_kv.errors import ConfigError
from linear_kv.grid import BudgetConfig, GridSpec, budget_from_ratio
from linear_kv.oracles import compression_lines_reference


class TestBudgetFromRatio:
    def test_24x24_grid_keep_one_sixth(self):
        cfg = budget_from_ratio(GridSpec(24, 24), Fraction(1, 6))
        assert cfg.budget == 96

    def test_48x49_grid_keep_one_sixth(self):
        # 2352 tokens in lines of 49; one sixth is exactly 8 lines
        cfg = budget_from_ratio(GridSpec(48, 49), Fraction(1, 6))
        assert cfg.budget == 392

    def test_8x8_grid_three_eighths(self):
        cfg = budget_from_ratio(GridSpec(8, 8), Fraction(3, 8))
        assert cfg.budget == 24
        assert cfg.n_init == 8
        # two recent lines do not fit in a three-line budget next to the anchor
        # line, so the default clamps to one
        assert cfg.recent_lines == 1

    def test_full_budget(self):
        cfg = budget_from_ratio(GridSpec(8, 8), Fraction(1))
        assert cfg.budget == 64
        assert cfg.recent_lines == 2

    def test_misaligned_ratio_lists_neighbors(self):
        with pytest.raises(ConfigError) as err:
            budget_from_ratio(GridSpec(8, 8), Fraction(1, 5))
        assert err.value.code == "budget-not-line-aligned"
        # 64/5 sits between one and two lines of eight
        assert "1/8" in str(err.value)
        assert "1/4" in str(err.value)

    def test_rho_out_of_range(self):
        for rho in (Fraction(0), Fraction(3, 2), Fraction(-1, 4)):
            with pytest.raises(ConfigError) as err:
                budget_from_ratio(GridSpec(8, 8), rho)
            assert err.value.code == "rho-out-of-range"

    def test_explicit_infeasible_regions_rejected(self):
        with pytest.raises(ConfigError) as err:
            budget_from_ratio(GridSpec(8, 8), Fraction(3, 8), n_init=8, recent_lines=2)
        assert err.value.code == "budget-infeasible"

    def test_too_small_budget_rejected(self):
        # two lines cannot hold anchor + recent + candidates
        with pytest.raises(ConfigError) as err:
            budget_from_ratio(GridSpec(8, 8), Fraction(2, 8))
        assert err.value.code == "budget-infeasible"

    def test_ablation_style_zero_regions_accepted(self):
        cfg = budget_from_ratio(GridSpec(8, 8), Fraction(3, 8), n_init=0, recent_lines=2)
        assert cfg.validate(GridSpec(8, 8)) is cfg
        cfg = budget_from_ratio(GridSpec(8, 8), Fraction(3, 8), n_init=8, recent_lines=0)
        assert cfg.recent_lines == 0
        assert cfg.protected_lines == 1

    @pytest.mark.parametrize("regions", [{"n_init": -1}, {"recent_lines": -1}])
    def test_negative_regions_rejected(self, regions):
        with pytest.raises(ConfigError) as err:
            budget_from_ratio(GridSpec(8, 8), Fraction(1, 2), **regions)
        assert err.value.code == "region-negative"

    def test_zero_recency_still_budgets_for_the_buffer_line(self):
        # the just-finished line stays protected, so the bound matches r=1
        with pytest.raises(ConfigError, match="budget-infeasible"):
            budget_from_ratio(GridSpec(8, 8), Fraction(1, 4), n_init=4, recent_lines=0)

    @given(
        st.integers(2, 32),
        st.integers(1, 32),
        st.data(),
    )
    def test_every_line_multiple_is_accepted(self, height, width, data):
        spec = GridSpec(height, width)
        lines = data.draw(st.integers(1, height))
        rho = Fraction(lines * width, spec.total)
        try:
            cfg = budget_from_ratio(spec, rho)
        except ConfigError as err:
            # only the feasibility guard may fire, never alignment
            assert err.code == "budget-infeasible"
            return
        assert cfg.budget == lines * width
        assert cfg.budget % width == 0

    @given(st.integers(1, 24), st.integers(1, 6), st.fractions(0, 1, max_denominator=60))
    def test_misaligned_names_the_nearest_line_ratios(self, height, width, rho):
        spec = GridSpec(height, width)
        valid = [Fraction(k, height) for k in range(1, height + 1)]
        if rho == 0 or rho in valid:
            return
        below = [str(v) for v in valid if v < rho][-1:]
        above = [str(v) for v in valid if v > rho][:1]
        with pytest.raises(ConfigError) as err:
            budget_from_ratio(spec, rho)
        assert err.value.code == "budget-not-line-aligned"
        assert str(err.value).endswith("nearest valid ratios: " + ", ".join(below + above))

    def test_misaligned_on_a_huge_grid_is_closed_form(self):
        # the neighbours come from rho * height, not from listing every line
        with pytest.raises(ConfigError) as err:
            budget_from_ratio(GridSpec(10**12, 3), Fraction(1, 7))
        assert str(err.value).endswith(
            "nearest valid ratios: 142857142857/1000000000000, 71428571429/500000000000"
        )

    def test_validate_flags_wrong_budget(self):
        cfg = BudgetConfig(Fraction(3, 8), 23, 8, 1)
        with pytest.raises(ConfigError) as err:
            cfg.validate(GridSpec(8, 8))
        assert err.value.code == "budget-not-line-aligned"


class TestCompressionLines:
    @given(st.integers(1, 40), st.integers(1, 8), st.data())
    def test_matches_replay_reference(self, height, width, data):
        lines = data.draw(st.integers(1, height))
        rho = Fraction(lines, height)
        cfg = BudgetConfig(rho, lines * width, 0, 1)
        want = compression_lines_reference(height, width, cfg.budget, compressing=rho < 1)
        assert list(cfg.compression_lines(GridSpec(height, width))) == want


class TestGridSpec:
    def test_parse(self):
        assert GridSpec.parse("8x8") == GridSpec(8, 8)
        assert GridSpec.parse("48X49") == GridSpec(48, 49)

    def test_parse_garbage(self):
        with pytest.raises(ConfigError) as err:
            GridSpec.parse("8by8")
        assert err.value.code == "grid-parse"

    def test_degenerate(self):
        with pytest.raises(ConfigError):
            GridSpec(0, 8)
