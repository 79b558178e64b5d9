"""Selection rules and the end-of-line compression pipeline."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linear_kv.cache import VisualKVCache
from linear_kv.errors import LinearKVError
from linear_kv.grid import BudgetConfig, GridSpec
from linear_kv.oracles import bottom_k_reference, saliency_reference
from linear_kv.policy import (
    AttentionMassTracker,
    LineGuidedPolicy,
    bottom_k,
    saliency,
    should_compress,
)

SPEC_8 = GridSpec(8, 8)
FIG_CFG = BudgetConfig(Fraction(3, 8), 24, 8, 1)


class TestSaliency:
    def test_orthogonal_keys_score_uniformly(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        keys = np.eye(4)[1:]  # three keys, all orthogonal to q
        np.testing.assert_allclose(saliency(q, keys), [1 / 3] * 3, atol=1e-12)

    def test_scores_form_a_distribution(self):
        rng = np.random.default_rng(5)
        scores = saliency(rng.normal(size=(8, 6)), rng.normal(size=(20, 6)))
        assert scores.sum() == pytest.approx(1.0)
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_matches_per_query_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            w = int(rng.integers(1, 9))
            m = int(rng.integers(1, 17))
            d = int(rng.integers(1, 9))
            guide = rng.normal(size=(w, d))
            keys = rng.normal(size=(m, d))
            scale = 1.0 / np.sqrt(d)
            expected = saliency_reference(guide.tolist(), keys.tolist(), scale)
            np.testing.assert_allclose(saliency(guide, keys), expected, atol=1e-9)

    def test_empty_guide_rejected(self):
        with pytest.raises(LinearKVError) as err:
            saliency(np.empty((0, 4)), np.ones((3, 4)))
        assert err.value.code == "guide-queue-empty"

    def test_empty_mid_rejected(self):
        with pytest.raises(LinearKVError) as err:
            saliency(np.ones((2, 4)), np.empty((0, 4)))
        assert err.value.code == "empty-mid-region"

    def test_width_mismatch_rejected(self):
        with pytest.raises(LinearKVError) as err:
            saliency(np.ones((2, 4)), np.ones((3, 5)))
        assert err.value.code == "shape-mismatch"

    def test_batched_heads_match_per_head_calls(self):
        rng = np.random.default_rng(23)
        guide = rng.normal(size=(3, 10, 8))
        keys = rng.normal(size=(3, 17, 8))
        batched = saliency(guide, keys)
        assert batched.shape == (3, 17)
        for h in range(3):
            np.testing.assert_array_equal(batched[h], saliency(guide[h], keys[h]))


class TestBottomK:
    def test_picks_smallest(self):
        assert bottom_k([0.4, 0.1, 0.3, 0.2], 2).tolist() == [1, 3]

    def test_ties_go_to_the_older_entry(self):
        assert bottom_k([0.5, 0.2, 0.2, 0.2], 2).tolist() == [1, 2]

    def test_all_equal_takes_a_prefix(self):
        assert bottom_k([0.25] * 4, 3).tolist() == [0, 1, 2]

    def test_k_equals_size(self):
        assert bottom_k([3.0, 1.0, 2.0], 3).tolist() == [0, 1, 2]

    def test_k_too_large_rejected(self):
        with pytest.raises(LinearKVError) as err:
            bottom_k([1.0, 2.0], 3)
        assert err.value.code == "insufficient-mid-tokens"

    def test_negative_k_rejected(self):
        with pytest.raises(LinearKVError) as err:
            bottom_k([1.0, 2.0], -1)
        assert err.value.code == "negative-k"

    def test_rows_select_independently(self):
        scores = np.array([[0.4, 0.1, 0.3, 0.2], [0.5, 0.2, 0.2, 0.2]])
        assert bottom_k(scores, 2).tolist() == [[1, 3], [1, 2]]

    @settings(max_examples=100)
    @given(
        st.lists(st.sampled_from([0.0, 0.1, 0.1, 0.2, 0.5, 1.0]), min_size=1, max_size=24),
        st.data(),
    )
    def test_matches_full_sort_reference(self, scores, data):
        k = data.draw(st.integers(0, len(scores)))
        assert bottom_k(scores, k).tolist() == bottom_k_reference(scores, k)


class TestShouldCompress:
    def test_fig_cadence_truth_table(self):
        # store grows by one line per line until compression holds it at the
        # budget; events fire at the ends of lines 3..7 only
        length = 0
        fired = []
        for line in range(1, 9):
            length += 8
            if should_compress(FIG_CFG, SPEC_8, line, length):
                fired.append(line)
                length = FIG_CFG.budget - 8
        assert fired == [3, 4, 5, 6, 7]

    def test_full_budget_never_compresses(self):
        cfg = BudgetConfig(Fraction(1), 64, 8, 2)
        assert not any(should_compress(cfg, SPEC_8, line, line * 8) for line in range(1, 9))

    def test_final_line_never_compresses(self):
        assert not should_compress(FIG_CFG, SPEC_8, 8, 24)


def build_polarized_cache(spec, cfg, line, low_positions, kv_heads=1, head_dim=4):
    """Store filled through ``line - 1`` where keys at ``low_positions`` point
    away from the probe direction and everything else points along it.

    Returns the store, the probe and the key of every position, so that
    :func:`decode_line` can append ``line`` itself."""
    cache = VisualKVCache(1, kv_heads, head_dim, 0, cfg.budget)
    probe = np.zeros(head_dim)
    probe[0] = 1.0
    keys = np.empty((spec.total, kv_heads, head_dim))
    for p in range(spec.total):
        for head in range(kv_heads):
            lows = low_positions[head] if isinstance(low_positions, dict) else low_positions
            keys[p, head] = probe * (-10.0 if p in lows else 10.0)
    for p in range((line - 1) * spec.width):
        cache.append(0, keys[p], np.full((kv_heads, head_dim), float(p)), p)
    return cache, probe, keys


def decode_line(policy, cache, line, queries, keys):
    """Step layer 0 through ``line`` as the decoder does: each position's
    scaled logits over the store's span are observed before the position's
    own entry is appended. ``queries`` holds one step's ``(heads, d)`` rows,
    or one per position of the line."""
    width, d = policy.spec.width, cache.head_dim
    q = np.asarray(queries, dtype=float)
    steps = q if q.ndim == 3 else [q] * width
    for k, p in enumerate(range((line - 1) * width, line * width)):
        span_keys, _ = cache.span(0)
        grouped = (steps[k] * (1.0 / math.sqrt(d))).reshape(cache.kv_heads, -1, d)
        policy.observe_logits(0, p, grouped @ span_keys.transpose(0, 2, 1))
        cache.append(0, keys[p], np.zeros((cache.kv_heads, d)), p)


class TestLineGuidedPipeline:
    SPEC = GridSpec(8, 8)
    CFG = BudgetConfig(Fraction(1, 2), 32, 8, 1)

    def test_constructed_scores_pick_the_planned_set(self):
        target = {8, 10, 11, 13, 14, 15, 17, 19}
        cache, probe, keys = build_polarized_cache(self.SPEC, self.CFG, 4, target)
        policy = LineGuidedPolicy()
        policy.bind(cache, self.SPEC, self.CFG, seed=0)
        decode_line(policy, cache, 4, probe, keys)
        events = policy.end_of_line(cache, line=4)
        assert len(events) == 1
        assert events[0].evicted_positions == sorted(target)
        assert events[0].post_len == self.CFG.budget - self.SPEC.width
        survivors = cache.positions(0)[0].tolist()
        assert survivors == [p for p in range(32) if p not in target]

    def test_heads_evict_independently(self):
        lows = {0: {8, 9, 10, 11, 12, 13, 14, 15}, 1: {16, 17, 18, 19, 20, 21, 22, 23}}
        cache, probe, keys = build_polarized_cache(self.SPEC, self.CFG, 4, lows, kv_heads=2)
        policy = LineGuidedPolicy()
        policy.bind(cache, self.SPEC, self.CFG, seed=0)
        decode_line(policy, cache, 4, np.stack([probe, probe]), keys)
        events = policy.end_of_line(cache, line=4)
        by_head = {e.head: e for e in events}
        assert by_head[0].evicted_positions == sorted(lows[0])
        assert by_head[1].evicted_positions == sorted(lows[1])
        assert cache.visual_len(0, 0) == cache.visual_len(0, 1) == 24

    def test_empty_mid_region_errors(self):
        cache, probe, keys = build_polarized_cache(SPEC_8, FIG_CFG, 3, set())
        degenerate = BudgetConfig(Fraction(3, 8), 24, 8, 2)
        policy = LineGuidedPolicy()
        policy.bind(cache, SPEC_8, degenerate, seed=0)
        with pytest.raises(LinearKVError) as err:
            # the mid slice is taken, and found empty, at the line's first token
            decode_line(policy, cache, 3, probe, keys)
        assert err.value.code == "insufficient-mid-tokens"

    def test_unobserved_line_errors(self):
        cache, _, _ = build_polarized_cache(SPEC_8, FIG_CFG, 4, set())
        policy = LineGuidedPolicy()
        policy.bind(cache, SPEC_8, FIG_CFG, seed=0)
        with pytest.raises(LinearKVError) as err:
            policy.end_of_line(cache, line=3)
        assert err.value.code == "line-not-scored"

    def test_moved_mid_slice_errors(self):
        cache, probe, keys = build_polarized_cache(SPEC_8, FIG_CFG, 3, set())
        policy = LineGuidedPolicy()
        policy.bind(cache, SPEC_8, FIG_CFG, seed=0)
        decode_line(policy, cache, 3, probe, keys)
        mid = cache.partition(0, SPEC_8, FIG_CFG, 3)
        assert policy.select(cache, 3, 0, mid).shape == (1, 8)
        with pytest.raises(LinearKVError) as err:
            policy.select(cache, 3, 0, slice(mid.start + 1, mid.stop))
        assert err.value.code == "line-not-scored"

    def test_below_budget_line_is_a_no_op(self):
        cache, probe, keys = build_polarized_cache(SPEC_8, FIG_CFG, 2, set())
        policy = LineGuidedPolicy()
        policy.bind(cache, SPEC_8, FIG_CFG, seed=0)
        decode_line(policy, cache, 2, probe, keys)
        assert policy.rows[0] == 0
        assert policy.end_of_line(cache, line=2) is None


class TestLineScoring:
    def test_only_compressing_lines_accumulate_rows(self):
        # 8x8 at 3/8 compresses at the ends of lines 3..7 only
        cache = VisualKVCache(1, 1, 4, 0, FIG_CFG.budget)
        policy = LineGuidedPolicy()
        policy.bind(cache, SPEC_8, FIG_CFG, seed=0)
        keys = np.arange(SPEC_8.total * 4.0).reshape(-1, 1, 4) / 64
        rows = []
        for line in range(1, 9):
            decode_line(policy, cache, line, np.ones(4), keys)
            rows.append(policy.rows[0])
            policy.end_of_line(cache, line)
        assert rows == [0, 0, 8, 8, 8, 8, 8, 0]

    @pytest.mark.parametrize("heads, kv_heads", [(2, 2), (8, 2)], ids=["mha", "gqa"])
    def test_matches_saliency_over_the_same_rows(self, heads, kv_heads):
        # lines 3 and 4 both compress; line 4 is scored after line 3's compaction
        rng = np.random.default_rng(29)
        d = 8
        cache = VisualKVCache(1, kv_heads, d, 5, FIG_CFG.budget)
        cond = rng.normal(size=(2, kv_heads, 5, d))
        cache.set_conditional(0, cond[0], cond[1])
        policy = LineGuidedPolicy()
        policy.bind(cache, SPEC_8, FIG_CFG, seed=0)
        keys = rng.normal(size=(SPEC_8.total, kv_heads, d)) * 3
        decode_line(policy, cache, 1, np.zeros((heads, d)), keys)
        decode_line(policy, cache, 2, np.zeros((heads, d)), keys)
        for line in (3, 4):
            queries = rng.normal(size=(8, heads, d)) * 2
            decode_line(policy, cache, line, queries, keys)
            mid = cache.partition(0, SPEC_8, FIG_CFG, line)
            # token-major, then the query heads of each kv head's group
            guide = queries.reshape(8, kv_heads, -1, d).swapaxes(0, 1).reshape(kv_heads, -1, d)
            want = saliency(guide, cache.keys(0)[:, mid])
            np.testing.assert_allclose(policy.mass[0] / policy.rows[0], want, rtol=0, atol=1e-12)
            assert policy.end_of_line(cache, line)


class TestAttentionMassTracker:
    def test_uniform_step_gives_equal_shares(self):
        tracker = AttentionMassTracker(1, 1, capacity=8)
        for _ in range(5):
            tracker.on_append(0)
        tracker.add(0, np.full((1, 5), 1 / 5))
        np.testing.assert_allclose(tracker.mass(0), [[0.2] * 5], atol=1e-12)

    def test_alignment_through_append_and_compact(self):
        tracker = AttentionMassTracker(1, 1, capacity=8)
        for i in range(4):
            tracker.on_append(0)
        tracker.add(0, np.array([[0.4, 0.3, 0.2, 0.1]]))
        tracker.on_compact(0, [[1, 2]])
        np.testing.assert_allclose(tracker.mass(0), [[0.4, 0.1]])
        tracker.on_append(0)
        tracker.add(0, np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(tracker.mass(0), [[0.4, 0.1, 1.0]])

    def test_misaligned_row_raises_a_coded_error(self):
        tracker = AttentionMassTracker(1, 2, capacity=8)
        tracker.on_append(0)
        with pytest.raises(LinearKVError) as err:
            tracker.add(0, np.ones((2, 2)))
        assert err.value.code == "mass-misaligned"


# run under python -O, where assert statements are stripped: the budget
# bound must still be enforced by a coded error
_SHORT_SELECTION = """
from fractions import Fraction
from linear_kv import GridSpec, ModelConfig, RasterDecoder, budget_from_ratio, synth_condition
from linear_kv.errors import LinearKVError
from linear_kv.policy import LineGuidedPolicy

class ShortPolicy(LineGuidedPolicy):
    def select(self, cache, line, layer, mid):
        return super().select(cache, line, layer, mid)[:, 1:]

spec = GridSpec(8, 8)
mc = ModelConfig(layers=1, heads=2, kv_heads=2, head_dim=8, vocab=64, cond_len=4)
cfg = budget_from_ratio(spec, Fraction(3, 8))
try:
    RasterDecoder(mc).generate(synth_condition(mc), spec, cfg, ShortPolicy())
    print(__debug__, "no error")
except LinearKVError as exc:
    print(__debug__, exc.code)
"""


def test_short_selection_raises_under_optimize_flag():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SHORT_SELECTION],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "eviction-size-mismatch"]


# the same under python -O: a line scored over another slice than the one
# it evicts from, or not scored at all, is a coded error
_UNSCORED_SELECTION = """
from fractions import Fraction
from linear_kv import GridSpec, ModelConfig, RasterDecoder, budget_from_ratio, synth_condition
from linear_kv.errors import LinearKVError
from linear_kv.policy import LineGuidedPolicy

class MovedMid(LineGuidedPolicy):
    def select(self, cache, line, layer, mid):
        return super().select(cache, line, layer, slice(mid.start + 1, mid.stop))

class Unobserved(LineGuidedPolicy):
    def observe_logits(self, layer, position, logits):
        pass

spec = GridSpec(8, 8)
mc = ModelConfig(layers=1, heads=4, kv_heads=2, head_dim=8, vocab=64, cond_len=4)
cfg = budget_from_ratio(spec, Fraction(3, 8))
for policy in (MovedMid(), Unobserved()):
    try:
        RasterDecoder(mc).generate(synth_condition(mc), spec, cfg, policy)
        print(__debug__, "no error")
    except LinearKVError as exc:
        print(__debug__, exc.code)
"""


def test_unscored_selection_raises_under_optimize_flag():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNSCORED_SELECTION],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "line-not-scored"] * 2
