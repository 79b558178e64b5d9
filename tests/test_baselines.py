"""Baseline selection rules: random, sink+window streaming, heavy hitters."""

from fractions import Fraction

import numpy as np
import pytest

from linear_kv.baselines import (
    POLICY_NAMES,
    make_policy,
    random_evict,
    streaming_retain,
)
from linear_kv.cache import VisualKVCache
from linear_kv.errors import ConfigError, LinearKVError
from linear_kv.grid import BudgetConfig, GridSpec
from linear_kv.oracles import streaming_retained_reference

SPEC_8 = GridSpec(8, 8)
FIG_CFG = BudgetConfig(Fraction(3, 8), 24, 8, 1)


class TestRandomEvict:
    def test_deterministic_per_seed(self):
        mid = np.arange(10, 30)
        a = random_evict(mid, 8, seed=123)
        b = random_evict(mid, 8, seed=123)
        assert a.tolist() == b.tolist()
        c = random_evict(mid, 8, seed=124)
        assert a.tolist() != c.tolist()

    def test_subset_of_mid_without_replacement(self):
        mid = np.arange(5, 17)
        out = random_evict(mid, 6, seed=0)
        assert len(set(out.tolist())) == 6
        assert set(out.tolist()) <= set(mid.tolist())

    def test_whole_mid(self):
        mid = np.array([3, 4, 9])
        assert random_evict(mid, 3, seed=1).tolist() == [3, 4, 9]

    def test_zero_k(self):
        assert random_evict(np.array([1, 2]), 0, seed=0).size == 0

    def test_oversized_k_rejected(self):
        with pytest.raises(LinearKVError) as err:
            random_evict(np.array([1, 2]), 3, seed=0)
        assert err.value.code == "insufficient-mid-tokens"


class TestStreamingRetain:
    def test_end_of_line_three(self):
        kept = streaming_retain(FIG_CFG, SPEC_8, line=3)
        assert kept.tolist() == list(range(8)) + list(range(16, 24))

    def test_end_of_line_four_slides_the_window(self):
        kept = streaming_retain(FIG_CFG, SPEC_8, line=4)
        assert kept.tolist() == list(range(8)) + list(range(24, 32))

    def test_full_budget_retains_everything(self):
        cfg = BudgetConfig(Fraction(1), 64, 8, 2)
        assert streaming_retain(cfg, SPEC_8, line=3).tolist() == list(range(24))

    def test_pure_sink_cache(self):
        cfg = BudgetConfig(Fraction(3, 8), 24, 24, 0)
        kept = streaming_retain(cfg, SPEC_8, line=3)
        # the window is empty; every retained token is a sink
        assert kept.tolist() == list(range(24))
        cfg_small = BudgetConfig(Fraction(3, 8), 24, 24, 0)
        kept = streaming_retain(cfg_small, SPEC_8, line=2)
        assert kept.tolist() == list(range(16))

    def test_matches_enumeration_reference(self):
        for n_init in (0, 4, 8):
            for budget_lines in (3, 4, 6):
                cfg = BudgetConfig(
                    Fraction(budget_lines, 8), budget_lines * 8, n_init, 1
                )
                for line in range(budget_lines, 8):
                    got = streaming_retain(cfg, SPEC_8, line).tolist()
                    want = streaming_retained_reference(n_init, cfg.budget, 8, line)
                    assert got == want, (n_init, budget_lines, line)


def bound_h2o(mass, width):
    """An ``h2o`` policy bound to a one-head store whose tracker holds ``mass``."""
    cache = VisualKVCache(1, 1, 2, 1, len(mass))
    policy = make_policy("h2o")
    policy.bind(cache, GridSpec(8, width), FIG_CFG, seed=0)
    for _ in mass:
        policy.notify_append(0)
    policy.observe_attention(0, np.asarray(mass, dtype=float)[None, :])
    return cache, policy


class TestH2OSelect:
    def test_equal_masses_evict_oldest(self):
        cache, policy = bound_h2o(np.full(12, 0.5), width=3)
        assert policy.select(cache, 3, 0, slice(2, 10)).tolist() == [[2, 3, 4]]

    def test_low_mass_goes_first(self):
        cache, policy = bound_h2o([9.0, 9.0, 0.1, 5.0, 0.2, 9.0], width=2)
        assert policy.select(cache, 3, 0, slice(1, 5)).tolist() == [[2, 4]]


class TestRegistry:
    def test_all_names_construct(self):
        assert set(POLICY_NAMES) == {"lineattn", "random", "streaming", "h2o", "full"}
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigError) as err:
            make_policy("magic")
        assert err.value.code == "unknown-policy"
