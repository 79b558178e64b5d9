"""Store mechanics: append, region partitioning, and physical compaction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linear_kv.cache import VisualKVCache
from linear_kv.errors import LinearKVError
from linear_kv.grid import BudgetConfig, GridSpec

SPEC_8 = GridSpec(8, 8)
FIG_CFG = BudgetConfig(Fraction(3, 8), 24, 8, 1)


def make_cache(positions, head_dim=4, capacity=None):
    cache = VisualKVCache(1, 1, head_dim, 0, capacity or max(len(positions), 1))
    for p in positions:
        cache.append(0, np.full((1, head_dim), float(p)), np.full((1, head_dim), float(-p)), p)
    return cache


def store_positions(cache):
    return cache.positions(0)[0]


class TestAppend:
    def test_positions_recorded_in_order(self):
        cache = make_cache([0, 1, 5, 9])
        assert store_positions(cache).tolist() == [0, 1, 5, 9]
        assert cache.visual_len(0, 0) == 4

    def test_regression_rejected(self):
        cache = make_cache([0, 1, 2], capacity=4)
        with pytest.raises(LinearKVError) as err:
            cache.append(0, np.zeros((1, 4)), np.zeros((1, 4)), 2)
        assert err.value.code == "position-regression"

    def test_negative_position_rejected(self):
        cache = make_cache([], capacity=4)
        with pytest.raises(LinearKVError) as err:
            cache.append(0, np.zeros((1, 4)), np.zeros((1, 4)), -1)
        assert err.value.code == "position-out-of-grid"
        assert cache.visual_len(0, 0) == 0

    def test_values_survive_growth(self):
        # the store fills to its fixed capacity and one more append is refused
        cache = make_cache(list(range(40)))
        np.testing.assert_allclose(cache.span(0)[0][0, :, 0], np.arange(40, dtype=float))
        with pytest.raises(LinearKVError) as err:
            cache.append(0, np.zeros((1, 4)), np.zeros((1, 4)), 40)
        assert err.value.code == "cache-full"
        assert cache.visual_len(0, 0) == 40


class TestPartition:
    def test_uncompressed_store_at_line_three(self):
        cache = make_cache(list(range(24)))
        mid = cache.partition(0, SPEC_8, FIG_CFG, line=3)
        pos = store_positions(cache)
        assert pos[: mid.start].tolist() == list(range(8))
        assert pos[mid].tolist() == list(range(8, 16))
        assert pos[mid.stop :].tolist() == list(range(16, 24))

    def test_recent_window_can_swallow_the_mid(self):
        # an unvalidated config whose anchors and recent lines fill the budget
        cache = make_cache(list(range(24)))
        wide_rec = BudgetConfig(Fraction(3, 8), 24, 8, 2)
        with pytest.raises(LinearKVError) as err:
            cache.partition(0, SPEC_8, wide_rec, line=3)
        assert err.value.code == "insufficient-mid-tokens"

    def test_zero_recency_keeps_the_scoring_line(self):
        # recent_lines=0 partitions exactly like recent_lines=1
        cache = make_cache(list(range(24)))
        no_rec = BudgetConfig(Fraction(3, 8), 24, 8, 0)
        mid = cache.partition(0, SPEC_8, no_rec, line=3)
        pos = store_positions(cache)
        assert pos[mid.stop :].tolist() == list(range(16, 24))
        assert pos[mid].tolist() == list(range(8, 16))

    def test_gapped_store_after_compaction(self):
        # line 4 evicts half of the mid; line 5 refills the store
        cfg = BudgetConfig(Fraction(1, 2), 32, 8, 1)
        cache = make_cache(list(range(32)))
        evicted = [8, 10, 11, 13, 14, 15, 17, 19]
        cache.compact(0, cache.partition(0, SPEC_8, cfg, line=4), [evicted])
        for p in range(32, 40):
            cache.append(0, np.zeros((1, 4)), np.zeros((1, 4)), p)
        mid = cache.partition(0, SPEC_8, cfg, line=5)
        pos = store_positions(cache)
        assert pos[mid].tolist() == [p for p in range(8, 32) if p not in evicted]
        assert pos[: mid.start].tolist() == list(range(8))
        assert pos[mid.stop :].tolist() == list(range(32, 40))

    def test_before_activation_rejected(self):
        cache = make_cache(list(range(16)))
        with pytest.raises(LinearKVError) as err:
            cache.partition(0, SPEC_8, FIG_CFG, line=2)
        assert err.value.code == "compression-not-active"

    def test_short_store_rejected(self):
        # a compression line whose store is one entry short of the budget
        cache = make_cache(list(range(23)), capacity=24)
        with pytest.raises(LinearKVError) as err:
            cache.partition(0, SPEC_8, FIG_CFG, line=3)
        assert err.value.code == "compression-not-active"

    def test_regions_partition_the_store(self):
        cache = make_cache(list(range(32)))
        cfg = BudgetConfig(Fraction(1, 2), 32, 6, 1)
        mid = cache.partition(0, SPEC_8, cfg, line=4)
        pos = store_positions(cache)
        # anchors, mid and recent window are consecutive slices covering the
        # store, split exactly where the position thresholds fall
        assert 0 <= mid.start <= mid.stop <= cache.visual_len(0, 0)
        assert (pos[: mid.start] < cfg.n_init).all()
        assert ((pos[mid] >= cfg.n_init) & (pos[mid] < 24)).all()
        assert (pos[mid.stop :] >= 24).all()


class TestCompact:
    def test_survivors_keep_positions_in_order(self):
        cache = make_cache(list(range(24)))
        evicted = [8, 10, 11, 13, 14, 15, 17, 19]
        # store index == position here
        gone = cache.compact(0, slice(0, 24), [evicted])
        assert gone.tolist() == [evicted]
        pos = store_positions(cache).tolist()
        assert pos == [p for p in range(24) if p not in set(evicted)]
        assert pos == sorted(pos)
        # payloads moved with their positions
        np.testing.assert_allclose(cache.span(0)[0][0, :, 0], pos)

    def test_partition_blocks_protected_indices(self):
        cache = make_cache(list(range(24)))
        mid = cache.partition(0, SPEC_8, FIG_CFG, line=3)
        with pytest.raises(LinearKVError) as err:
            cache.compact(0, mid, [[0, 8]])
        assert err.value.code == "protected-region-eviction"
        # nothing was removed
        assert cache.visual_len(0, 0) == 24

    def test_mid_indices_pass_the_partition_check(self):
        cache = make_cache(list(range(24)))
        mid = cache.partition(0, SPEC_8, FIG_CFG, line=3)
        cache.compact(0, mid, [np.arange(mid.start, mid.stop)])
        assert cache.visual_len(0, 0) == 16
        assert store_positions(cache).tolist() == list(range(8)) + list(range(16, 24))

    def test_duplicate_or_unordered_indices_rejected(self):
        cache = make_cache(list(range(8)))
        for evict in ([[2, 2]], [[3, 1]]):
            with pytest.raises(LinearKVError) as err:
                cache.compact(0, slice(0, 8), evict)
            assert err.value.code == "protected-region-eviction"
        assert cache.visual_len(0, 0) == 8

    def test_heads_compact_independently(self):
        cache = VisualKVCache(1, 2, 1, 0, 6)
        for p in range(6):
            cache.append(0, np.array([[p], [10.0 + p]]), np.array([[-p], [-10.0 - p]]), p)
        gone = cache.compact(0, slice(1, 5), [[1, 2], [3, 4]])
        assert gone.tolist() == [[1, 2], [3, 4]]
        assert cache.positions(0).tolist() == [[0, 3, 4, 5], [0, 1, 2, 5]]
        keys, values = cache.span(0)
        assert keys[:, :, 0].tolist() == [[0, 3, 4, 5], [10, 11, 12, 15]]
        assert values[:, :, 0].tolist() == [[0, -3, -4, -5], [-10, -11, -12, -15]]

    def test_heads_disagreeing_on_regions_rejected(self):
        cache = VisualKVCache(1, 2, 1, 0, 24)
        for p in range(24):
            cache.append(0, np.zeros((2, 1)), np.zeros((2, 1)), p)
        # head 0 loses anchors, head 1 its mid line; line 4 refills both
        cache.compact(0, slice(0, 24), [list(range(3, 11)), list(range(8, 16))])
        for p in range(24, 32):
            cache.append(0, np.zeros((2, 1)), np.zeros((2, 1)), p)
        with pytest.raises(LinearKVError) as err:
            cache.partition(0, SPEC_8, FIG_CFG, line=4)
        assert err.value.code == "region-mismatch"

    def test_out_of_range_index_rejected(self):
        cache = make_cache(list(range(4)))
        with pytest.raises(LinearKVError) as err:
            cache.compact(0, slice(0, 4), [[4]])
        assert err.value.code == "protected-region-eviction"

    def test_empty_eviction_is_a_no_op(self):
        cache = make_cache(list(range(4)))
        cache.compact(0, slice(0, 4), np.empty((1, 0), dtype=np.int64))
        assert cache.visual_len(0, 0) == 4

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=30, unique=True), st.data())
    def test_positions_strictly_increase_through_any_sequence(self, raw, data):
        positions = sorted(raw)
        cache = make_cache(positions)
        rounds = data.draw(st.integers(1, 4))
        for _ in range(rounds):
            n = cache.visual_len(0, 0)
            if n == 0:
                break
            evict = data.draw(
                st.lists(st.integers(0, n - 1), max_size=n, unique=True)
            )
            cache.compact(0, slice(0, n), [sorted(evict)])
            pos = store_positions(cache)
            assert (np.diff(pos) > 0).all()


class TestConditional:
    def test_block_is_the_span_before_any_append(self):
        cache = VisualKVCache(1, 1, 4, 3, 4)
        assert cache.cond_len == 3
        keys, values = cache.span(0)
        assert keys.shape == values.shape == (1, 3, 4)
        # written in place, as prefill writes it
        keys[:], values[:] = 1.0, 0.0
        # visual entries live after the block, and compaction leaves it untouched
        for p in range(3):
            cache.append(0, np.full((1, 4), 7.0 + p), np.full((1, 4), -7.0 - p), p)
        cache.compact(0, slice(0, 3), [[1]])
        keys, values = cache.span(0)
        np.testing.assert_array_equal(keys[:, :3], np.ones((1, 3, 4)))
        np.testing.assert_array_equal(values[:, :3], np.zeros((1, 3, 4)))
        assert keys[0, 3:, 0].tolist() == [7.0, 9.0]
        assert values[0, 3:, 0].tolist() == [-7.0, -9.0]


class TestSnapshot:
    def test_layout(self):
        cache = VisualKVCache(1, 1, 4, 2, 4)
        for block in cache.span(0):
            block[:] = 1.0
        for p in (0, 1, 7):
            cache.append(0, np.zeros((1, 4)), np.zeros((1, 4)), p)
        snap = cache.snapshot()
        assert snap["schema"] == 1
        assert snap["cond_len"] == 2
        assert snap["heads"]["0:0"] == {"length": 3, "positions": [0, 1, 7]}
