import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covox import nnkit

from oracles import mha


class TestInit:
    def test_same_seed_identical(self):
        a = nnkit.init_linear(8, 4, 7)
        b = nnkit.init_linear(8, 4, 7)
        assert np.array_equal(a.weight, b.weight)

    def test_different_seed_differs(self):
        a = nnkit.init_linear(8, 4, 7)
        b = nnkit.init_linear(8, 4, 8)
        assert np.any(a.weight != b.weight)

    def test_magnitude_bound(self):
        lin = nnkit.init_linear(16, 16, 3)
        assert np.all(np.abs(lin.weight) <= 1.0 / np.sqrt(16))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            nnkit.init_linear(0, 4, 1)

    def test_mha_head_divisibility(self):
        with pytest.raises(ValueError):
            nnkit.init_mha(10, 4, (0,))


class TestPrimitives:
    def test_relu_nonnegative(self, rng):
        x = rng.standard_normal(100)
        assert np.all(nnkit.relu(x) >= 0)

    def test_linear_additive_without_bias(self, rng):
        lin = nnkit.init_linear(6, 3, 5)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        assert np.allclose(lin.apply(x + y), lin.apply(x) + lin.apply(y), atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_softmax_rows_sum_to_one(self, logits):
        w = nnkit.softmax(np.array(logits))
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-6

    def test_softmax_neg_inf_gets_zero(self):
        w = nnkit.softmax(np.array([0.0, -np.inf]))
        assert w[1] == 0.0 and w[0] == 1.0


class TestMha:
    def test_identical_keys_uniform_attention(self, rng):
        params = nnkit.init_mha(8, 2, (0,))
        q = rng.standard_normal((3, 8))
        key = rng.standard_normal(8)
        keys = np.tile(key, (5, 1))
        _, attn = mha(params, q, keys, keys)
        assert np.allclose(attn, 1.0 / 5.0, atol=1e-12)

    def test_single_key(self, rng):
        params = nnkit.init_mha(8, 2, (0,))
        q = rng.standard_normal((4, 8))
        k = rng.standard_normal((1, 8))
        v = rng.standard_normal((1, 8))
        out, attn = mha(params, q, k, v)
        assert np.array_equal(attn, np.ones((4, 1)))
        # With one key the output is the projected value, independent of q.
        expected = params.wo.apply(params.wv.apply(v))
        assert np.allclose(out, np.tile(expected, (4, 1)), atol=1e-12)

    def test_permutation_invariance(self, rng):
        params = nnkit.init_mha(12, 3, (1,))
        q = rng.standard_normal((5, 12))
        k = rng.standard_normal((7, 12))
        v = rng.standard_normal((7, 12))
        out, attn = mha(params, q, k, v)
        perm = rng.permutation(7)
        out_p, attn_p = mha(params, q, k[perm], v[perm])
        assert np.max(np.abs(out - out_p)) < 1e-9
        assert np.max(np.abs(attn[:, perm] - attn_p)) < 1e-9

    def test_attention_rows_sum_to_one(self, rng):
        params = nnkit.init_mha(8, 4, (2,))
        q = rng.standard_normal((6, 8))
        k = rng.standard_normal((9, 8))
        _, attn = mha(params, q, k, k)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-6)

    def test_empty_keys_rejected(self, rng):
        params = nnkit.init_mha(8, 2, (0,))
        with pytest.raises(nnkit.EmptyKeySet):
            mha(params, rng.standard_normal((2, 8)), np.zeros((0, 8)), np.zeros((0, 8)))
