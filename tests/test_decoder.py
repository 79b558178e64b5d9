"""End-to-end decode behaviour: spans, cadence, budget bounds, determinism."""

from fractions import Fraction

import numpy as np
import pytest

from linear_kv.baselines import POLICY_NAMES, make_policy
from linear_kv.decoder import DecodeState, ModelConfig, RasterDecoder, synth_condition
from linear_kv.errors import ConfigError, LinearKVError
from linear_kv.grid import GridSpec, budget_from_ratio
from linear_kv.oracles import (
    compression_lines_reference,
    mid_region_reference,
    streaming_retained_reference,
)

SMALL = ModelConfig(layers=2, heads=2, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=3)
SPEC_8 = GridSpec(8, 8)


def run(model=SMALL, spec=SPEC_8, rho=Fraction(3, 8), policy="lineattn", **kw):
    cfg = budget_from_ratio(spec, rho, n_init=kw.pop("n_init", None), recent_lines=kw.pop("recent_lines", None))
    decoder = RasterDecoder(model)
    return decoder.generate(synth_condition(model), spec, cfg, make_policy(policy), **kw)


class TestPrefill:
    def test_conditional_block_shape(self):
        decoder = RasterDecoder(SMALL)
        cfg = budget_from_ratio(SPEC_8, Fraction(1))
        state = decoder.prefill([1, 2, 3], SPEC_8, cfg, make_policy("full"))
        assert state.cache.cond_len == 3
        for li in range(SMALL.layers):
            # no visual entry yet, so the span is the conditional block
            k, v = state.cache.span(li)
            assert k.shape == (SMALL.kv_heads, 3, SMALL.head_dim)
            assert v.shape == (SMALL.kv_heads, 3, SMALL.head_dim)

    def test_empty_condition_rejected(self):
        decoder = RasterDecoder(SMALL)
        cfg = budget_from_ratio(SPEC_8, Fraction(1))
        with pytest.raises(LinearKVError) as err:
            decoder.prefill([], SPEC_8, cfg, make_policy("full"))
        assert err.value.code == "empty-condition"

    def test_out_of_vocab_rejected(self):
        decoder = RasterDecoder(SMALL)
        cfg = budget_from_ratio(SPEC_8, Fraction(1))
        with pytest.raises(ConfigError) as err:
            decoder.prefill([SMALL.vocab], SPEC_8, cfg, make_policy("full"))
        assert err.value.code == "token-out-of-vocab"

    def test_same_seed_same_conditional_block(self):
        k1 = RasterDecoder(SMALL).prefill([5, 6], SPEC_8, budget_from_ratio(SPEC_8, Fraction(1)), make_policy("full"))
        k2 = RasterDecoder(SMALL).prefill([5, 6], SPEC_8, budget_from_ratio(SPEC_8, Fraction(1)), make_policy("full"))
        for a, b in zip(k1.cache.span(0), k2.cache.span(0)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_decoding_leaves_the_conditional_block_as_prefill_wrote_it(self, policy):
        mc = ModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, cond_len=3, seed=4)
        spec = GridSpec(6, 4)
        cfg = budget_from_ratio(spec, Fraction(1) if policy == "full" else Fraction(1, 2))
        decoder = RasterDecoder(mc)
        state = decoder.prefill(synth_condition(mc), spec, cfg, make_policy(policy))
        before = [[a.copy() for a in state.cache.span(li)] for li in range(mc.layers)]
        for _ in range(spec.total):
            decoder.decode_step(state)
        # every compressing policy appended past its budget and compacted
        assert (policy == "full") == (not state.evictions)
        for li in range(mc.layers):
            for want, got in zip(before[li], state.cache.span(li)):
                assert got[:, : mc.cond_len].tobytes() == want.tobytes()


class TestSpans:
    def test_first_step_attends_over_condition_only(self):
        trace = run()
        assert trace.steps[0].span == trace.config["cond_len"]

    def test_uncompressed_spans_grow_by_one(self):
        trace = run(rho=Fraction(1), policy="full")
        cond = trace.config["cond_len"]
        for i, step in enumerate(trace.steps):
            assert step.span == cond + i

    def test_post_compression_line_spans(self):
        trace = run()  # 8x8, budget 24, first event at line 3
        cond = trace.config["cond_len"]
        budget, width = trace.config["budget"], trace.config["width"]
        # line 5 starts after the line-4 event shrank the store to budget-width
        for k in range(width):
            step = trace.steps[4 * width + k]
            assert step.span == cond + (budget - width) + k

    def test_span_never_exceeds_cond_plus_budget(self):
        trace = run()
        cap = trace.config["cond_len"] + trace.config["budget"]
        assert all(step.span <= cap for step in trace.steps)


class TestCadence:
    def test_events_fire_at_lines_three_through_seven(self):
        trace = run()
        per_head = SMALL.layers * SMALL.kv_heads
        lines = sorted({e.line for e in trace.evictions})
        assert lines == [3, 4, 5, 6, 7]
        for line in lines:
            assert sum(1 for e in trace.evictions if e.line == line) == per_head

    def test_cadence_matches_replay_reference(self):
        trace = run()
        expected = compression_lines_reference(8, 8, trace.config["budget"])
        assert sorted({e.line for e in trace.evictions}) == expected

    def test_full_budget_never_evicts(self):
        trace = run(rho=Fraction(1), policy="full")
        assert trace.evictions == []


def _one_cond(**kw):
    return ModelConfig(**{**SMALL.__dict__, "cond_len": 1, **kw})


# model and explicit regions; 8x8 at 1/2 compresses at the ends of lines 4..7
_SLICE_CASES = {
    "no-anchors": (_one_cond(), {"n_init": 0}),
    "n-init-3": (_one_cond(), {"n_init": 3}),
    "no-recency": (_one_cond(), {"recent_lines": 0}),
    "gqa-8-2": (_one_cond(heads=8, kv_heads=2), {}),
    "cond-len-6": (_one_cond(cond_len=6), {}),
}


class TestEvictableSlice:
    @pytest.mark.parametrize("policy", ["lineattn", "h2o", "streaming", "random"])
    @pytest.mark.parametrize("case", list(_SLICE_CASES))
    def test_every_compression_splits_at_the_budget_slice(self, case, policy):
        # count each head's anchors and pre-recent positions on the store
        # every compression actually sees, before it is compacted
        model, regions = _SLICE_CASES[case]
        cfg = budget_from_ratio(SPEC_8, Fraction(1, 2), **regions)
        want = cfg.evictable(SPEC_8)
        scorer = make_policy(policy)
        select = scorer.select
        seen = []

        def checked(cache, line, layer, mid):
            cut = (line - cfg.protected_lines) * SPEC_8.width
            heads = mid_region_reference(cache.positions(layer).tolist(), cfg.n_init, cut)
            assert mid == want
            assert heads == [want] * cache.kv_heads
            seen.append((line, layer))
            return select(cache, line, layer, mid)

        scorer.select = checked
        RasterDecoder(model).generate(synth_condition(model), SPEC_8, cfg, scorer)
        assert seen == [(line, layer) for line in range(4, 8) for layer in range(model.layers)]


class TestBudgetBound:
    @pytest.mark.parametrize("policy", ["lineattn", "random", "streaming", "h2o"])
    def test_visual_len_bounded_and_post_state_exact(self, policy):
        trace = run(policy=policy)
        budget, width = trace.config["budget"], trace.config["width"]
        assert max(step.visual_len for step in trace.steps) <= budget
        for ev in trace.evictions:
            assert ev.post_len == budget - width
        # final line fills the freed slots back up to the budget
        assert trace.steps[-1].visual_len == budget
        for head, rec in trace.cache_snapshot["heads"].items():
            assert rec["length"] == budget

    @pytest.mark.parametrize("policy", ["lineattn", "random", "h2o"])
    def test_no_protected_position_ever_evicted(self, policy):
        trace = run(policy=policy)
        n_init = trace.config["n_init"]
        recent = trace.config["recent_lines"]
        width = trace.config["width"]
        for ev in trace.evictions:
            for pos in ev.evicted_positions:
                assert pos >= n_init
                assert pos < (ev.line - recent) * width


class TestEquivalenceAtFullBudget:
    def test_keep_all_policy_matches_reference_decoder(self):
        ref = run(rho=Fraction(1), policy="full")
        kept = run(rho=Fraction(1), policy="lineattn")
        assert [s.token for s in ref.steps] == [s.token for s in kept.steps]
        np.testing.assert_allclose(ref.final_hidden, kept.final_hidden, atol=1e-6)


class TestStreamingRuns:
    def test_evictions_match_closed_form_and_ignore_weights(self):
        traces = [
            run(model=ModelConfig(**{**SMALL.__dict__, "seed": seed}), policy="streaming")
            for seed in (0, 1)
        ]
        reports = [
            [(e.line, e.layer, e.head, tuple(e.evicted_positions)) for e in t.evictions]
            for t in traces
        ]
        assert reports[0] == reports[1]
        budget = traces[0].config["budget"]
        n_init = traces[0].config["n_init"]
        for trace in traces:
            held = {(li, g): set(range(24)) for li in range(SMALL.layers) for g in range(SMALL.kv_heads)}
            # replay: at each event the survivors must equal the closed form
            by_line = {}
            for ev in trace.evictions:
                by_line.setdefault(ev.line, []).append(ev)
            for line in sorted(by_line):
                want = set(streaming_retained_reference(n_init, budget, 8, line))
                for ev in by_line[line]:
                    key = (ev.layer, ev.head)
                    held[key] -= set(ev.evicted_positions)
                    assert held[key] == want
                    held[key] |= set(range(line * 8, (line + 1) * 8))

    def test_disable_mid_semantics_equal_streaming(self):
        # oldest-first mid eviction is exactly the sink+window rule
        trace = run(policy="streaming")
        for ev in trace.evictions:
            width = trace.config["width"]
            assert len(ev.evicted_positions) == width


class TestAccumulatedAttention:
    def test_history_matches_resummed_trace_rows(self):
        model = ModelConfig(layers=1, heads=2, kv_heads=1, head_dim=8, vocab=64, cond_len=4, seed=9)
        spec = GridSpec(3, 4)
        cfg = budget_from_ratio(spec, Fraction(1))
        decoder = RasterDecoder(model)
        policy = make_policy("h2o")
        trace = decoder.generate(synth_condition(model), spec, cfg, policy, trace_attention=True)
        cond = trace.config["cond_len"]
        # oracle: re-sum stored rows per position over the steps it was
        # cached; at rho 1 nothing is evicted, so step i attends over 0 .. i-1
        assert not trace.evictions
        expected = np.zeros(spec.total)
        for step in trace.steps:
            for row in step.attn[0]:
                for pos in range(step.index):
                    expected[pos] += row[cond + pos]
        got = policy.mass[0, 0]
        np.testing.assert_allclose(got, expected[: got.size], atol=1e-9)


class TestGroupedQueryRuns:
    def test_gqa_run_completes_under_budget(self):
        model = ModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=5)
        trace = run(model=model)
        assert max(s.visual_len for s in trace.steps) <= trace.config["budget"]
        assert len({e.line for e in trace.evictions}) == 5

    @pytest.mark.parametrize("policy", ["full", "lineattn", "h2o", "streaming", "random"])
    def test_every_layer_step_hands_the_policy_its_probabilities(self, policy):
        model = ModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=5)
        scorer = make_policy(policy)
        observe = scorer.observe_attention
        seen = []

        def recorded(layer, probs):
            seen.append((layer, probs.shape, probs.sum(axis=-1)))
            observe(layer, probs)

        scorer.observe_attention = recorded
        cfg = budget_from_ratio(SPEC_8, Fraction(1) if policy == "full" else Fraction(3, 8))
        trace = RasterDecoder(model).generate(synth_condition(model), SPEC_8, cfg, scorer)
        assert len(seen) == model.layers * SPEC_8.total
        for i, (layer, shape, sums) in enumerate(seen):
            step = trace.steps[i // model.layers]
            assert layer == i % model.layers
            assert shape == (model.kv_heads, model.group_size, step.span)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)


class TestAblationConfigs:
    def test_no_anchor_run(self):
        trace = run(n_init=0, recent_lines=2)
        assert min(p for e in trace.evictions for p in e.evicted_positions) < 8

    def test_no_recency_run_keeps_one_line_buffer(self):
        # recent_lines=0 still shields the line whose queries did the scoring
        trace = run(n_init=8, recent_lines=0)
        width = trace.config["width"]
        assert trace.evictions
        for e in trace.evictions:
            assert all(8 <= p < (e.line - 1) * width for p in e.evicted_positions)


class TestTerminalState:
    def test_generation_complete(self):
        model = ModelConfig(layers=1, heads=1, kv_heads=1, head_dim=4, vocab=16, cond_len=2, seed=0)
        spec = GridSpec(2, 2)
        cfg = budget_from_ratio(spec, Fraction(1))
        decoder = RasterDecoder(model)
        state = decoder.prefill([1], spec, cfg, make_policy("full"))
        for _ in range(spec.total):
            decoder.decode_step(state)
        with pytest.raises(LinearKVError) as err:
            decoder.decode_step(state)
        assert err.value.code == "generation-complete"

    def test_store_past_its_budget_raises_a_coded_error(self):
        # a never-compressing policy under a compressed budget outgrows the
        # fixed-capacity store on the first step past the budget
        decoder = RasterDecoder(SMALL)
        cfg = budget_from_ratio(SPEC_8, Fraction(1, 2))
        state = decoder.prefill([1, 2], SPEC_8, cfg, make_policy("full"))
        for _ in range(cfg.budget):
            decoder.decode_step(state)
        with pytest.raises(LinearKVError) as err:
            decoder.decode_step(state)
        assert err.value.code == "cache-full"


class TestDeterminism:
    def test_identical_runs_have_identical_bodies(self):
        a = run()
        b = run()
        assert a.canonical_body() == b.canonical_body()

    def test_different_seeds_differ(self):
        other = ModelConfig(**{**SMALL.__dict__, "seed": 4})
        assert run().canonical_body() != run(model=other).canonical_body()
