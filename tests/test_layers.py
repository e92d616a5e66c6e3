"""Layer-level behavior: initialization, shapes, parameter registry,
metadata concatenation, and graph-layer equivariance."""

import numpy as np
import pytest

import tisergcn.autodiff as ad
from tisergcn.errors import ShapeError
from tisergcn.model import ModelConfig
from tisergcn.layers import (
    Conv1DLayer,
    DenseLayer,
    GCNLayer,
    append_metadata,
    glorot_uniform,
    node_feature_reshape,
)

from conftest import check_gradients


class TestInit:
    def test_glorot_limit_and_spread(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, (400, 100), fan_in=400, fan_out=100, dtype=np.float64)
        limit = np.sqrt(6.0 / 500)
        assert np.max(np.abs(w)) <= limit
        # a uniform draw over (-L, L) should span most of the interval
        assert np.max(w) > 0.9 * limit and np.min(w) < -0.9 * limit
        assert abs(float(np.mean(w))) < 0.01

    def test_same_seed_same_weights(self):
        a = Conv1DLayer(5, 3, 4, 1, "relu", np.random.default_rng(7))
        b = Conv1DLayer(5, 3, 4, 1, "relu", np.random.default_rng(7))
        assert np.array_equal(a.kernels.data, b.kernels.data)

    def test_dtype_respected(self):
        layer = DenseLayer(4, 3, "relu", np.random.default_rng(0), dtype=np.float32)
        assert layer.W.data.dtype == np.float32


class TestConv1DLayer:
    def test_out_length(self):
        # the lengths the layers produce are the ones ModelConfig.conv_chain plans
        layer = Conv1DLayer(125, 3, 32, 2, "relu", np.random.default_rng(0))
        h = layer.apply(ad.Tensor(np.zeros((1, 1000, 3))))
        assert h.shape == (1, 438, 32)
        second = Conv1DLayer(125, 32, 64, 2, "relu", np.random.default_rng(0))
        assert second.apply(h).shape == (1, 157, 64)
        assert ModelConfig().conv_chain() == [1000, 438, 157]

    def test_apply_shape_and_bias(self):
        layer = Conv1DLayer(3, 2, 5, 2, "linear", np.random.default_rng(0))
        layer.bias.data[:] = 1.5
        layer.kernels.data[:] = 0.0
        out = layer.apply(ad.Tensor(np.zeros((4, 6, 11, 2))))
        assert out.shape == (4, 6, 5, 5)
        assert np.all(out.data == 1.5)

    def test_param_registry(self):
        layer = Conv1DLayer(3, 2, 5, 1, "relu", np.random.default_rng(0), name="c")
        assert [p.name for p in layer.params()] == ["c.kernels", "c.bias"]
        assert layer.l2_params() == [layer.kernels]

    def test_gradients(self, rng):
        layer = Conv1DLayer(3, 2, 4, 2, "tanh", np.random.default_rng(3))
        x = rng.standard_normal((2, 9, 2))
        t = rng.standard_normal((2, 4, 4))
        check_gradients(lambda: ad.mse_loss(layer.apply(ad.Tensor(x)), t),
                        layer.params())


class TestGCNLayer:
    def test_no_bias_and_param_count(self):
        layer = GCNLayer(100, 64, "relu", np.random.default_rng(0))
        assert layer.params() == [layer.W]
        assert layer.W.data.size == 6400

    def test_identity_propagation_is_dense_no_bias(self, rng):
        layer = GCNLayer(4, 3, "linear", np.random.default_rng(1))
        h = rng.standard_normal((2, 5, 4))
        out = layer.apply(np.eye(5), ad.Tensor(h))
        assert np.allclose(out.data, h @ layer.W.data, atol=1e-14)

    def test_permutation_equivariance(self, rng):
        # relabeling nodes before the layer equals relabeling after
        n = 6
        layer = GCNLayer(3, 4, "tanh", np.random.default_rng(2))
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        h = rng.standard_normal((2, n, 3))
        perm = np.random.default_rng(5).permutation(n)
        p_mat = np.eye(n)[perm]

        direct = layer.apply(p_mat @ m @ p_mat.T, ad.Tensor(h[:, perm, :])).data
        relabeled = layer.apply(m, ad.Tensor(h)).data[:, perm, :]
        assert np.max(np.abs(direct - relabeled)) <= 1e-10

    def test_gradients(self, rng):
        layer = GCNLayer(3, 2, "relu", np.random.default_rng(4))
        m = rng.standard_normal((4, 4))
        h = rng.standard_normal((2, 4, 3))
        t = rng.standard_normal((2, 4, 2))
        check_gradients(lambda: ad.mse_loss(layer.apply(m, ad.Tensor(h)), t),
                        layer.params())


class TestDenseLayer:
    def test_param_count(self):
        layer = DenseLayer(10, 5, "relu", np.random.default_rng(0))
        assert sum(p.data.size for p in layer.params()) == 55

    def test_bias_excluded_from_l2(self):
        layer = DenseLayer(10, 5, "relu", np.random.default_rng(0))
        assert layer.l2_params() == []

    def test_linear_head_value(self, rng):
        layer = DenseLayer(3, 2, "linear", np.random.default_rng(1))
        x = rng.standard_normal((4, 3))
        out = layer.apply(ad.Tensor(x))
        assert np.allclose(out.data, x @ layer.W.data + layer.bias.data, atol=1e-14)

    def test_unknown_activation(self):
        with pytest.raises(ShapeError):
            DenseLayer(3, 2, "swish", np.random.default_rng(0))


class TestPlumbing:
    def test_node_feature_reshape_rowmajor(self):
        h = ad.Tensor(np.arange(24.0).reshape(1, 2, 3, 4))
        out = node_feature_reshape(h)
        assert out.shape == (1, 2, 12)
        assert np.array_equal(out.data[0, 0], np.arange(12.0))

    def test_node_feature_reshape_rejects_flat(self):
        with pytest.raises(ShapeError):
            node_feature_reshape(ad.Tensor(np.zeros((3, 4))))

    def test_append_metadata_standardizes(self, rng):
        h = ad.Tensor(rng.standard_normal((2, 4, 5)))
        coords = np.array([[40.0, 10.0], [41.0, 11.0], [42.0, 12.0], [43.0, 13.0]])
        out = append_metadata(h, coords, enabled=True)
        assert out.shape == (2, 4, 7)
        tail = out.data[0, :, 5:]
        assert np.allclose(tail.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(tail.std(axis=0), 1.0, atol=1e-12)
        # both events receive the identical standardized coordinates
        assert np.array_equal(out.data[0, :, 5:], out.data[1, :, 5:])

    def test_append_metadata_disabled_passthrough(self, rng):
        h = ad.Tensor(rng.standard_normal((2, 4, 5)))
        out = append_metadata(h, None, enabled=False)
        assert out is h

    def test_append_metadata_constant_column(self, rng):
        # equal coordinates would divide by zero; the degenerate axis must be zeros
        h = ad.Tensor(rng.standard_normal((1, 3, 2)))
        coords = np.array([[40.0, 10.0], [40.0, 11.0], [40.0, 12.0]])
        out = append_metadata(h, coords, enabled=True)
        assert np.all(out.data[0, :, 2] == 0.0)
        assert np.all(np.isfinite(out.data))

    def test_append_metadata_shape_mismatch(self, rng):
        h = ad.Tensor(rng.standard_normal((2, 4, 5)))
        with pytest.raises(ShapeError):
            append_metadata(h, np.zeros((3, 2)), enabled=True)


class TestFusedLayers:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    def test_conv_and_dense_are_one_node_each_equal_to_primitive_chain(self, rng, activation):
        conv = Conv1DLayer(4, 2, 3, 2, activation, np.random.default_rng(0), dtype=np.float32)
        dense = DenseLayer(3, 2, activation, np.random.default_rng(1), dtype=np.float32)
        conv.bias.data[:] = rng.standard_normal(3)
        dense.bias.data[:] = rng.standard_normal(2)
        params = conv.params() + dense.params()
        x = rng.standard_normal((2, 13, 2)).astype(np.float32)
        t = rng.standard_normal((2, 5, 2)).astype(np.float32)

        def layers():
            h = conv.apply(ad.Tensor(x))
            assert h._parents[1:] == (conv.kernels, conv.bias)
            out = dense.apply(h)
            assert out._parents == (h, dense.W, dense.bias)
            return out

        def chain():
            h = ad.conv1d(ad.Tensor(x), conv.kernels, conv.stride)
            h = conv._act(ad.add_bias(h, conv.bias))
            return dense._act(ad.add_bias(ad.matmul(h, dense.W), dense.bias))

        runs = []
        for build in (layers, chain):
            out = build()
            ad.backward(ad.mse_loss(out, t))
            runs.append([out.data] + [p.grad.copy() for p in params])
            ad.zero_grad(params)
        for u, v in zip(*runs):
            assert np.array_equal(u, v)
