"""Softmax kernels and decoder attention against the brute-force references."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from linear_kv.attention import softmax_inplace, softmax_rows
from linear_kv.baselines import make_policy
from linear_kv.decoder import ModelConfig, RasterDecoder, synth_condition
from linear_kv.errors import LinearKVError
from linear_kv.grid import GridSpec, budget_from_ratio
from linear_kv.oracles import attention_reference, softmax_rows_reference


class TestSoftmaxRows:
    def test_inplace_last_axis_is_bitwise_equal(self):
        # the decode step normalizes (kv_heads, group, span) blocks in place
        rng = np.random.default_rng(29)
        for shape in [(7,), (3, 9), (2, 3, 11)]:
            logits = rng.normal(size=shape) * 4
            want = softmax_rows(logits.reshape(-1, shape[-1])).reshape(shape)
            got = logits.copy()
            assert softmax_inplace(got) is got
            np.testing.assert_array_equal(got, want)

    def test_two_equal_logits_split_evenly(self):
        out = softmax_rows([[0.0, 0.0]])
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-12)

    def test_log3_vs_zero(self):
        # oracle: exp(ln 3) = 3, so the row normalizes to 3/4 and 1/4
        expected = softmax_rows_reference([[math.log(3.0), 0.0]])
        assert expected[0] == pytest.approx([0.75, 0.25], abs=1e-12)
        out = softmax_rows([[math.log(3.0), 0.0]])
        np.testing.assert_allclose(out, [[0.75, 0.25]], atol=1e-12)

    def test_huge_equal_logits_do_not_overflow(self):
        out = softmax_rows([[1000.0, 1000.0, 1000.0]])
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-12)

    def test_empty_domain_rejected(self):
        with pytest.raises(LinearKVError) as err:
            softmax_rows(np.empty((3, 0)))
        assert err.value.code == "empty-softmax-domain"

    def test_non_finite_rejected(self):
        with pytest.raises(LinearKVError) as err:
            softmax_rows([[0.0, float("nan")]])
        assert err.value.code == "non-finite-input"

    def test_vector_input_keeps_rank(self):
        out = softmax_rows([1.0, 2.0, 3.0])
        assert out.shape == (3,)
        assert out.sum() == pytest.approx(1.0)

    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(rows)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert (out >= 0).all()

    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, row, shift):
        base = softmax_rows([row])
        shifted = softmax_rows([[v + shift for v in row]])
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_matches_reference_on_seeded_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows = rng.normal(scale=5.0, size=(rng.integers(1, 5), rng.integers(1, 9)))
            expected = softmax_rows_reference(rows.tolist())
            np.testing.assert_allclose(softmax_rows(rows), expected, atol=1e-9)


class TestDecoderAttention:
    """Layer 0 of real decode steps, recomputed with the pure-Python references."""

    @pytest.mark.parametrize("heads, kv_heads", [(2, 2), (4, 2)], ids=["mha", "gqa"])
    def test_recorded_probs_match_references(self, heads, kv_heads):
        mc = ModelConfig(layers=2, heads=heads, kv_heads=kv_heads, head_dim=8, vocab=64,
                         cond_len=4, seed=5)
        spec = GridSpec(8, 8)
        decoder = RasterDecoder(mc)
        state = decoder.prefill(
            synth_condition(mc), spec, budget_from_ratio(spec, Fraction(3, 8)),
            make_policy("lineattn"), trace_attention=True,
        )
        group = heads // kv_heads
        scale = 1.0 / math.sqrt(mc.head_dim)
        checked = 0
        # before any eviction, right after the first one, and on the last line
        for step in range(spec.total):
            prev = state.tokens[-1] if state.tokens else state.cond_tokens[-1]
            q = (decoder.embed[prev] @ decoder.layers[0].wq).reshape(heads, mc.head_dim)
            keys, values = (a.copy() for a in state.cache.span(0))
            decoder.decode_step(state)
            if step not in (0, 1, 9, 24, 25, 40, 63):
                continue
            probs = state.last_step["attn"][0]
            assert probs.shape == (heads, keys.shape[1])
            for h in range(heads):
                k, v = keys[h // group], values[h // group]
                logits = [float(q[h] @ row) * scale for row in k]
                want = softmax_rows_reference([logits])[0]
                np.testing.assert_allclose(probs[h], want, atol=1e-9)
                out = attention_reference(q[h].tolist(), k.tolist(), v.tolist(), scale)
                np.testing.assert_allclose(probs[h] @ v, out, atol=1e-9)
                # a convex combination stays inside the value rows' hull
                assert (np.asarray(out) <= v.max(axis=0) + 1e-9).all()
                assert (np.asarray(out) >= v.min(axis=0) - 1e-9).all()
            checked += 1
        assert checked == 7

    @pytest.mark.parametrize("heads, kv_heads", [(2, 2), (4, 2)], ids=["mha", "gqa"])
    def test_conditional_block_matches_references(self, heads, kv_heads):
        mc = ModelConfig(layers=2, heads=heads, kv_heads=kv_heads, head_dim=8, vocab=64,
                         cond_len=5, seed=5)
        spec = GridSpec(8, 8)
        decoder = RasterDecoder(mc)
        cond = synth_condition(mc)
        state = decoder.prefill(
            cond, spec, budget_from_ratio(spec, Fraction(3, 8)), make_policy("lineattn")
        )
        group, d = heads // kv_heads, mc.head_dim
        scale = 1.0 / math.sqrt(d)
        # per layer and kv head, the key and value rows of the tokens so far
        keys = [[[] for _ in range(kv_heads)] for _ in range(mc.layers)]
        values = [[[] for _ in range(kv_heads)] for _ in range(mc.layers)]
        for tok in cond:
            x = decoder.embed[tok]
            for li, lw in enumerate(decoder.layers):
                heads_out = []
                for h in range(heads):
                    kv = h // group
                    q = (x @ lw.wq[:, h * d : (h + 1) * d]).tolist()
                    if keys[li][kv]:
                        heads_out += attention_reference(q, keys[li][kv], values[li][kv], scale)
                    else:
                        heads_out += [0.0] * d  # the first token attends over nothing
                for kv in range(kv_heads):
                    cols = slice(kv * d, (kv + 1) * d)
                    keys[li][kv].append((x @ lw.wk[:, cols]).tolist())
                    values[li][kv].append((x @ lw.wv[:, cols]).tolist())
                x = x + np.array(heads_out) @ lw.wo
                x = x + np.tanh(x @ lw.w1) @ lw.w2
        for li in range(mc.layers):
            # before the first decode step the span is exactly the conditional block
            got_k, got_v = state.cache.span(li)
            np.testing.assert_allclose(got_k, keys[li], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_v, values[li], rtol=0, atol=1e-12)
