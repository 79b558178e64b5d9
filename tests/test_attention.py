"""Kernel tests: frozen examples, invariants, and brute-force oracle sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linear_kv.attention import attention, softmax_inplace, softmax_rows
from linear_kv.errors import LinearKVError
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


class TestAttention:
    def test_single_key_returns_its_value(self):
        q = np.array([1.0, -2.0, 0.5])
        k = np.array([[0.3, 0.1, -0.7]])
        v = np.array([[4.0, 5.0, 6.0]])
        np.testing.assert_allclose(attention(q, k, v), v[0], atol=1e-12)

    def test_identical_keys_average_values(self):
        q = np.array([2.0, 0.0])
        k = np.tile([1.0, 1.0], (4, 1))
        v = np.arange(8, dtype=float).reshape(4, 2)
        np.testing.assert_allclose(attention(q, k, v), v.mean(axis=0), atol=1e-12)

    def test_empty_cache_rejected(self):
        with pytest.raises(LinearKVError) as err:
            attention(np.ones(3), np.empty((0, 3)), np.empty((0, 3)))
        assert err.value.code == "empty-cache"

    def test_width_mismatch_rejected(self):
        with pytest.raises(LinearKVError) as err:
            attention(np.ones(3), np.ones((2, 4)), np.ones((2, 4)))
        assert err.value.code == "shape-mismatch"

    def test_kv_row_mismatch_rejected(self):
        with pytest.raises(LinearKVError) as err:
            attention(np.ones(3), np.ones((2, 3)), np.ones((3, 3)))
        assert err.value.code == "shape-mismatch"

    def test_duplicating_every_pair_changes_nothing(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=5)
        k = rng.normal(size=(6, 5))
        v = rng.normal(size=(6, 5))
        doubled = attention(q, np.vstack([k, k]), np.vstack([v, v]))
        np.testing.assert_allclose(doubled, attention(q, k, v), atol=1e-9)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_output_stays_in_value_hull(self, seed):
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        q = rng.normal(size=d)
        k = rng.normal(size=(m, d))
        v = rng.normal(size=(m, d))
        out = attention(q, k, v)
        assert (out <= v.max(axis=0) + 1e-9).all()
        assert (out >= v.min(axis=0) - 1e-9).all()

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m, d = int(rng.integers(1, 10)), int(rng.integers(1, 9))
            q = rng.normal(size=d)
            k = rng.normal(size=(m, d))
            v = rng.normal(size=(m, d))
            scale = 1.0 / math.sqrt(d)
            expected = attention_reference(q.tolist(), k.tolist(), v.tolist(), scale)
            np.testing.assert_allclose(attention(q, k, v), expected, atol=1e-9)
