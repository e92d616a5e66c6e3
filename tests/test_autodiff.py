"""Gradient and value correctness of the tensor engine.

Every differentiable op is checked two ways: values against brute-force
nested-loop reimplementations, gradients against central finite
differences (via the conftest helpers).
"""

import functools
import tracemalloc

import numpy as np
import pytest

import tisergcn.autodiff as ad
import tisergcn.fftconv as fftconv
import tisergcn.pool as pool_module
from tisergcn.errors import GraphReleasedError, ShapeError
from tisergcn.model import Model, ModelConfig, build_tiser_gcn

from conftest import check_gradients


# ---------------------------------------------------------------------------
# value oracles

def matmul_oracle(a, b):
    lead = a.shape[:-2]
    a2 = a.reshape(-1, a.shape[-2], a.shape[-1])
    out = np.zeros((a2.shape[0], a.shape[-2], b.shape[1]))
    for l in range(a2.shape[0]):
        for i in range(a.shape[-2]):
            for j in range(b.shape[1]):
                for k in range(a.shape[-1]):
                    out[l, i, j] += a2[l, i, k] * b[k, j]
    return out.reshape(*lead, a.shape[-2], b.shape[1])


def conv1d_oracle(x, kernels, stride):
    K, C, F = kernels.shape
    lead = x.shape[:-2]
    T = x.shape[-2]
    J = (T - K) // stride + 1
    x2 = x.reshape(-1, T, C)
    out = np.zeros((x2.shape[0], J, F))
    for l in range(x2.shape[0]):
        for j in range(J):
            for f in range(F):
                for u in range(K):
                    for c in range(C):
                        out[l, j, f] += kernels[u, c, f] * x2[l, j * stride + u, c]
    return out.reshape(*lead, J, F)


def conv1d_grad_oracle(x, kernels, stride, g):
    """Input and kernel gradients of conv1d_oracle for the upstream gradient g."""
    K, C, F = kernels.shape
    n, J, _ = g.shape
    gx, gk = np.zeros(x.shape), np.zeros(kernels.shape)
    for l in range(n):
        for j in range(J):
            for f in range(F):
                for u in range(K):
                    for c in range(C):
                        gx[l, j * stride + u, c] += kernels[u, c, f] * g[l, j, f]
                        gk[u, c, f] += x[l, j * stride + u, c] * g[l, j, f]
    return gx, gk


def rel_err(got, want):
    """Norm-wise relative error of got against want, in float64."""
    want = np.asarray(want, np.float64)
    return np.linalg.norm(np.asarray(got, np.float64) - want) / np.linalg.norm(want)


def mix_nodes_oracle(m, h):
    lead = h.shape[:-2]
    n, f_dim = h.shape[-2], h.shape[-1]
    h2 = h.reshape(-1, n, f_dim)
    out = np.zeros_like(h2)
    for l in range(h2.shape[0]):
        for i in range(n):
            for f in range(f_dim):
                for j in range(n):
                    out[l, i, f] += m[i, j] * h2[l, j, f]
    return out.reshape(h.shape)


class TestValuesAgainstOracles:
    def test_matmul_matches_nested_loops(self, rng):
        for _ in range(5):
            m, k, n = rng.integers(1, 7, size=3)
            a = rng.standard_normal((int(m), int(k)))
            b = rng.standard_normal((int(k), int(n)))
            got = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
            assert np.max(np.abs(got - matmul_oracle(a, b))) <= 1e-12

    def test_matmul_folds_leading_axes(self, rng):
        a = rng.standard_normal((3, 4, 5, 6))
        b = rng.standard_normal((6, 2))
        got = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
        assert got.shape == (3, 4, 5, 2)
        assert np.max(np.abs(got - matmul_oracle(a, b))) <= 1e-12

    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
    def test_matmul_fold_matches_per_item_loop_in_float32(self, rng, lead):
        # the leading axes go through one GEMM: values and both gradients
        # agree with one product per leading index to f32 rounding
        a = rng.standard_normal((*lead, 20, 300)).astype(np.float32)
        b = rng.standard_normal((300, 16)).astype(np.float32)
        g = rng.standard_normal((*lead, 20, 16)).astype(np.float32)
        y = ad.matmul(ad.parameter(a), ad.parameter(b))
        ga, gb, _ = y._backward(g)
        a3, g3 = a.reshape(-1, 20, 300), g.reshape(-1, 20, 16)
        want = (np.stack([x @ b for x in a3]).reshape(y.shape),
                np.stack([gi @ b.T for gi in g3]).reshape(a.shape),
                sum(x.T @ gi for x, gi in zip(a3, g3)))
        for got, ref in zip((y.data, ga, gb), want):
            assert got.dtype == np.float32 and got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_conv1d_matches_nested_loops(self, rng):
        for stride in (1, 2, 3):
            for _ in range(3):
                t = int(rng.integers(8, 65))
                k = int(rng.integers(1, min(t, 9)))
                c = int(rng.integers(1, 4))
                f = int(rng.integers(1, 5))
                x = rng.standard_normal((2, t, c))
                w = rng.standard_normal((k, c, f))
                got = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride).data
                assert np.max(np.abs(got - conv1d_oracle(x, w, stride))) <= 1e-12

    def test_conv1d_hand_example(self):
        # [1, 2, 3, 4] * [1, 0, -1] (valid) = [1-3, 2-4] = [-2, -2]
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1)
        w = np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1)
        got = ad.conv1d(ad.Tensor(x), ad.Tensor(w), 1).data
        assert np.allclose(got.ravel(), [-2.0, -2.0], atol=0)

    def test_mix_nodes_matches_nested_loops(self, rng):
        for n in (2, 4, 8):
            m = rng.standard_normal((n, n))
            h = rng.standard_normal((3, n, 5))
            got = ad.mix_nodes(m, ad.Tensor(h)).data
            assert np.max(np.abs(got - mix_nodes_oracle(m, h))) <= 1e-12

    def test_mse_hand_example(self):
        # errors (1, 2): mean of (1, 4) = 2.5
        pred = ad.Tensor(np.array([1.0, 2.0]))
        assert float(ad.mse_loss(pred, np.array([0.0, 0.0])).data) == 2.5

    def test_l2_hand_example(self):
        # 0.5 * (1 + 4 + 9 + 2.25) ... keep it simpler: coeff 0.5 on [1, 1]
        p = ad.parameter(np.array([1.0, 1.0]))
        assert float(ad.l2_penalty([p], 0.25).data) == 0.5

    def test_elementwise_and_plumbing_values(self, rng):
        x = rng.standard_normal((3, 4))
        assert np.array_equal(ad.relu(ad.Tensor(x)).data, np.maximum(x, 0))
        assert np.array_equal(ad.tanh(ad.Tensor(x)).data, np.tanh(x))
        y = rng.standard_normal((3, 2))
        cat = ad.concat_last([ad.Tensor(x), ad.Tensor(y)])
        assert np.array_equal(cat.data, np.concatenate([x, y], axis=-1))


# ---------------------------------------------------------------------------
# gradient checks (finite differences)

class TestGradients:
    def test_matmul(self, rng):
        a = ad.parameter(rng.standard_normal((3, 4)))
        b = ad.parameter(rng.standard_normal((4, 2)))
        t = rng.standard_normal((3, 2))
        check_gradients(lambda: ad.mse_loss(ad.matmul(a, b), t), [a, b])

    def test_matmul_folded(self, rng):
        a = ad.parameter(rng.standard_normal((2, 3, 4)))
        b = ad.parameter(rng.standard_normal((4, 2)))
        t = rng.standard_normal((2, 3, 2))
        check_gradients(lambda: ad.mse_loss(ad.matmul(a, b), t), [a, b])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_conv1d(self, rng, stride):
        x = ad.parameter(rng.standard_normal((2, 11, 2)))
        w = ad.parameter(rng.standard_normal((4, 2, 3)))
        j = (11 - 4) // stride + 1
        t = rng.standard_normal((2, j, 3))
        check_gradients(lambda: ad.mse_loss(ad.conv1d(x, w, stride), t), [x, w])

    def test_mix_nodes(self, rng):
        m = rng.standard_normal((5, 5))
        h = ad.parameter(rng.standard_normal((2, 5, 3)))
        t = rng.standard_normal((2, 5, 3))
        check_gradients(lambda: ad.mse_loss(ad.mix_nodes(m, h), t), [h])

    def test_relu_tanh_chain(self, rng):
        # keep relu inputs away from the kink so the FD check is clean
        x = ad.parameter(rng.standard_normal((4, 3)) + 3.0)
        t = rng.standard_normal((4, 3))
        check_gradients(lambda: ad.mse_loss(ad.tanh(ad.relu(x)), t), [x])

    def test_add_and_scale(self, rng):
        a = ad.parameter(rng.standard_normal((3, 3)))
        b = ad.parameter(rng.standard_normal((3, 3)))
        t = rng.standard_normal((3, 3))
        check_gradients(lambda: ad.mse_loss(ad.add(a, b), t), [a, b])

    def test_add_bias(self, rng):
        x = ad.parameter(rng.standard_normal((4, 3)))
        b = ad.parameter(rng.standard_normal(3))
        t = rng.standard_normal((4, 3))
        check_gradients(lambda: ad.mse_loss(ad.add_bias(x, b), t), [x, b])

    def test_reshape_concat(self, rng):
        a = ad.parameter(rng.standard_normal((2, 6)))
        b = ad.parameter(rng.standard_normal((2, 3)))
        t = rng.standard_normal((2, 9))
        check_gradients(
            lambda: ad.mse_loss(ad.concat_last([ad.reshape(a, (2, 6)), b]), t), [a, b])

    def test_l2_penalty(self, rng):
        p = ad.parameter(rng.standard_normal((3, 4)))
        q = ad.parameter(rng.standard_normal(5))
        check_gradients(lambda: ad.l2_penalty([p, q], 0.37), [p, q])

    def test_shared_parameter_accumulates(self, rng):
        # p used twice: gradient must be the sum of both paths
        p = ad.parameter(rng.standard_normal((3, 3)))
        t = rng.standard_normal((3, 3))
        check_gradients(lambda: ad.mse_loss(ad.add(p, ad.tanh(p)), t), [p])


# ---------------------------------------------------------------------------
# chunked conv1d: the window-matrix cap splits the sequences into chunks

class TestChunkedConv:
    K, C, F, N = 4, 2, 3, 5

    # (T - K) % stride != 0 for strides 2 and 3, so the last window stops
    # short of the input's end
    @pytest.mark.parametrize("stride,T", [(1, 12), (2, 13), (3, 12)])
    def test_multi_chunk_matches_oracle_and_fd(self, rng, monkeypatch, stride, T):
        J = (T - self.K) // stride + 1
        _, Q, width = ad._blocks(self.K, stride, J)
        row_bytes = Q * width * self.C * 8
        # two sequences per chunk, two chunks in _CHUNK_BYTES: chunks of 2, 2 and 1
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 4 * row_bytes)
        assert [sl.indices(self.N) for sl in ad._chunks(self.N, row_bytes)] == \
            [(0, 2, 1), (2, 4, 1), (4, 5, 1)]
        x = rng.standard_normal((self.N, T, self.C))
        w = rng.standard_normal((self.K, self.C, self.F))
        got = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride).data
        assert np.max(np.abs(got - conv1d_oracle(x, w, stride))) <= 1e-12

        xp, wp = ad.parameter(x), ad.parameter(w)
        t = rng.standard_normal((self.N, J, self.F))
        check_gradients(lambda: ad.mse_loss(ad.conv1d(xp, wp, stride), t), [xp, wp])

    def test_chunk_larger_than_cap_holds_one_sequence(self):
        assert [sl.indices(3) for sl in ad._chunks(3, ad._CHUNK_BYTES + 1)] == \
            [(0, 1, 1), (1, 2, 1), (2, 3, 1)]


# ---------------------------------------------------------------------------
# blocked unfold: B outputs per window row, a J mod B tail, chunked sequences

class TestBlockedUnfold:
    C, F, N = 2, 3, 5

    def spy(self, monkeypatch, name):
        """Record every array the named autodiff helper returns."""
        made = []
        original = getattr(ad, name)

        def wrapped(*args):
            made.append(original(*args))
            return made[-1]

        monkeypatch.setattr(ad, name, wrapped)
        return made

    @pytest.mark.parametrize("K,stride,T,B,Q,r", [
        (8, 1, 12, 5, 1, 0),    # J = 5 below _BLOCK: one row of J outputs
        (4, 1, 13, 4, 2, 2),    # J % B != 0
        (4, 1, 15, 4, 3, 0),    # J a multiple of B
        (3, 3, 14, 1, 4, 0),    # stride == K: B = 1
        (2, 3, 14, 1, 5, 0),    # stride > K: B = 1
        (5, 2, 23, 3, 3, 1),    # K % stride != 0
        (20, 2, 60, 8, 2, 5),   # B capped at _BLOCK
        (6, 1, 6, 1, 1, 0),     # J = 1, as in the cnn cross layer
    ])
    def test_matches_oracle_and_fd_in_chunks(self, rng, monkeypatch, K, stride, T, B, Q, r):
        J = (T - K) // stride + 1
        width = (B - 1) * stride + K
        assert ad._blocks(K, stride, J) == (B, Q, width) and J == Q * B + r
        # two sequences per chunk, two chunks in _CHUNK_BYTES: chunks of 2, 2 and 1
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 4 * Q * width * self.C * 8)
        rows = self.spy(monkeypatch, "_block_rows")
        x = rng.standard_normal((self.N, T, self.C))
        w = rng.standard_normal((K, self.C, self.F))
        got = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride).data
        assert [out.shape for out in rows] == [(n * Q, width * self.C) for n in (2, 2, 1)]
        assert np.max(np.abs(got - conv1d_oracle(x, w, stride))) <= 1e-12

        t = rng.standard_normal((self.N, J, self.F))
        xp, wp = ad.parameter(x), ad.parameter(w)
        check_gradients(lambda: ad.mse_loss(ad.conv1d(xp, wp, stride), t), [xp, wp])
        # without the input gradient: the same kernel gradient, bitwise
        wk = ad.parameter(w)
        check_gradients(lambda: ad.mse_loss(ad.conv1d(ad.Tensor(x), wk, stride), t), [wk])
        ad.backward(ad.mse_loss(ad.conv1d(xp, wp, stride), t))
        ad.backward(ad.mse_loss(ad.conv1d(ad.Tensor(x), wk, stride), t))
        assert np.array_equal(wk.grad, wp.grad)

    @pytest.mark.parametrize("K,stride,T", [(3, 3, 14), (6, 1, 6)])
    def test_one_output_per_row_multiplies_a_view_of_the_kernels(self, rng, monkeypatch,
                                                                  K, stride, T):
        made = self.spy(monkeypatch, "_block_kernel")
        w = ad.parameter(rng.standard_normal((K, self.C, self.F)))
        y = ad.conv1d(ad.Tensor(rng.standard_normal((self.N, T, self.C))), w, stride)
        ad.backward(ad.mse_loss(y, np.zeros(y.shape)))
        assert len(made) == 2
        assert all(np.shares_memory(out, w.data) for out in made)


# ---------------------------------------------------------------------------
# FFT conv1d, forced through the private path selector

@pytest.fixture
def fft_path(monkeypatch):
    monkeypatch.setattr(ad, "_fft_cheaper", lambda *shape: True)


@pytest.fixture
def pools():
    made = {size: pool_module.Pool(size) for size in (1, 2, 3)}
    yield made
    for pool in made.values():
        pool.close()


def conv_and_grads(x, w, stride, g):
    xp, wp = ad.parameter(x), ad.parameter(w)
    y = ad.conv1d(xp, wp, stride)
    gx, gk, _ = y._backward(g)  # the third is the bias gradient, None here
    return y.data, gx, gk


class TestGemmOnThePool:
    """matmul's three GEMMs, and the unfold's chunks, as pool tasks."""

    @staticmethod
    def count_runs(monkeypatch, pool):
        sizes = []
        run = pool.run

        def counted(fn, n, grain):
            sizes.append(n)
            run(fn, n, grain)

        monkeypatch.setattr(pool, "run", counted)
        return sizes

    # every GEMM of more than 256 rows split: 769 rows in tasks of 256, 256
    # and 257 (the lone last row joins the task before it), 513 in 256 and
    # 257, and a 640-row weight gradient in 256, 256 and 128.  Each task
    # holds over 2^20 multiply-adds, as a task of at least _TASK_MACS does:
    # OpenBLAS takes smaller products through kernels that round otherwise.
    @pytest.mark.parametrize("rows,k,n,tasks", [(769, 256, 64, [3, 3]), (513, 128, 64, [2, 2]),
                                                (256, 640, 64, [3])])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_bits_match_one_gemm_on_any_pool(self, rng, monkeypatch, pools,
                                                    rows, k, n, tasks, dtype):
        monkeypatch.setattr(ad, "_TASK_MACS", 1)
        a = rng.standard_normal((rows, k)).astype(dtype)
        w = rng.standard_normal((k, n)).astype(dtype)
        g = rng.standard_normal((rows, n)).astype(dtype)
        with pool_module.blas_on_caller():  # one BLAS thread, as inside train()
            want = (a @ w, g @ w.T, a.T @ g)
        for size in (1, 2, 3):
            monkeypatch.setattr(pool_module, "_pool", pools[size])
            runs = self.count_runs(monkeypatch, pools[size])
            with pool_module.blas_on_caller():
                y = ad.matmul(ad.parameter(a), ad.parameter(w))
                got = (y.data, *y._backward(g)[:2])
            assert runs == tasks
            for have, expected in zip(got, want):
                assert have.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unfold_bits_do_not_depend_on_pool_size(self, rng, monkeypatch, pools, dtype):
        monkeypatch.setattr(ad, "_fft_cheaper", lambda *shape: False)
        x = rng.standard_normal((7, 40, 3)).astype(dtype)
        w = rng.standard_normal((6, 3, 4)).astype(dtype)
        g = rng.standard_normal((7, (40 - 6) // 2 + 1, 4)).astype(dtype)
        monkeypatch.setattr(ad, "_TASK_MACS", 1)  # one sequence per chunk
        runs = []
        for size in (1, 2, 3):
            monkeypatch.setattr(pool_module, "_pool", pools[size])
            chunks = self.count_runs(monkeypatch, pools[size])
            runs.append(conv_and_grads(x, w, 2, g))
            assert chunks == [7, 7]  # forward, then both gradients in one run
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert a.tobytes() == b.tobytes()
        # one chunk: the forward and the input gradient split only their
        # output rows; the kernel gradient sums the chunks in another grouping
        monkeypatch.setattr(ad, "_TASK_MACS", 1 << 60)
        y, gx, gk = conv_and_grads(x, w, 2, g)
        assert y.tobytes() == runs[0][0].tobytes() and gx.tobytes() == runs[0][1].tobytes()
        assert np.max(np.abs(gk - runs[0][2])) <= 50 * np.finfo(dtype).eps * np.max(np.abs(gk))


class TestFFTConv:
    K, C, F, N = 4, 2, 3, 5

    # (T - K) % stride != 0 for strides 2 and 3
    @pytest.mark.parametrize("stride,T", [(1, 12), (2, 13), (3, 12)])
    def test_multi_chunk_matches_oracle_and_fd(self, rng, monkeypatch, fft_path, stride, T):
        W = fftconv._Plan(self.N, T, self.C, self.F, stride).W
        # two sequences per chunk (2, 2, 1), one per transform, two frequencies per product
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 2 * 16 * W * (self.C + self.F))
        monkeypatch.setattr(fftconv, "_ROWS", 1)
        monkeypatch.setattr(fftconv, "_FREQS", 2)
        assert fftconv._Plan(self.N, T, self.C, self.F, stride).m == 2
        J = (T - self.K) // stride + 1
        x = rng.standard_normal((self.N, T, self.C))
        w = rng.standard_normal((self.K, self.C, self.F))
        got = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride).data
        assert np.max(np.abs(got - conv1d_oracle(x, w, stride))) <= 1e-12

        xp, wp = ad.parameter(x), ad.parameter(w)
        t = rng.standard_normal((self.N, J, self.F))
        check_gradients(lambda: ad.mse_loss(ad.conv1d(xp, wp, stride), t), [xp, wp])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_values_match_nested_loops(self, rng, fft_path, stride):
        for _ in range(3):
            t = int(rng.integers(8, 65))
            k = int(rng.integers(1, min(t, 9)))
            c = int(rng.integers(1, 4))
            f = int(rng.integers(1, 5))
            x = rng.standard_normal((2, 3, t, c))
            w = rng.standard_normal((k, c, f))
            got = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride).data
            assert np.max(np.abs(got - conv1d_oracle(x, w, stride))) <= 1e-12

    def test_no_grad_values_bitwise_equal_to_taped(self, rng, fft_path):
        x = rng.standard_normal((3, 16, 2))
        w = ad.parameter(rng.standard_normal((5, 2, 4)))
        taped = ad.conv1d(ad.Tensor(x), w, 2)
        with ad.no_grad():
            free = ad.conv1d(ad.Tensor(x), w, 2)
        assert taped._backward is not None and free._backward is None
        assert np.array_equal(free.data, taped.data)

    def test_bitwise_equal_across_pool_sizes(self, rng, monkeypatch, fft_path, pools):
        # 9 sequences in chunks of 4, 4, 1; many small tasks per stage
        W = ad._fft_length(40) // 2 + 1
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 4 * 16 * W * (3 + 5))
        monkeypatch.setattr(fftconv, "_ROWS", 1)
        monkeypatch.setattr(fftconv, "_FREQS", 3)
        x = rng.standard_normal((9, 40, 3))
        w = rng.standard_normal((9, 3, 5))
        g = rng.standard_normal((9, (40 - 9) // 2 + 1, 5))
        runs = []
        for size in (1, 2, 3):
            monkeypatch.setattr(pool_module, "_pool", pools[size])
            runs.append(conv_and_grads(x, w, 2, g))
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert np.array_equal(a, b)

    def test_float32_is_transformed_in_float64(self, rng, fft_path):
        # the float32 forward takes exactly the float64 path, then is rounded
        # once; its gradients run in float32 (the bounded test below)
        x = rng.standard_normal((4, 30, 3)).astype(np.float32)
        w = rng.standard_normal((7, 3, 2)).astype(np.float32)
        g = rng.standard_normal((4, 12, 2)).astype(np.float32)
        single = conv_and_grads(x, w, 2, g)
        double = conv_and_grads(x.astype(np.float64), w.astype(np.float64), 2,
                                g.astype(np.float64))
        assert all(a.dtype == np.float32 for a in single)
        assert np.array_equal(single[0], double[0].astype(np.float32))

    # (T - K) % stride != 0 for strides 2 and 3
    @pytest.mark.parametrize("stride,T", [(1, 30), (2, 31), (3, 32)])
    def test_float32_gradients_match_float64_and_nested_loops(self, rng, fft_path, stride, T):
        # backward runs in float32 and complex64: 2.5e-7 norm-wise against
        # float64 on the default conv2 shape, bounded at 1e-5
        K, C, F, n = 7, 3, 4, 4
        J = (T - K) // stride + 1
        x = rng.standard_normal((n, T, C))
        w = rng.standard_normal((K, C, F))
        g = rng.standard_normal((n, J, F))
        x32, w32, g32 = (a.astype(np.float32) for a in (x, w, g))
        _, gx, gk = conv_and_grads(x32, w32, stride, g32)
        assert gx.dtype == gk.dtype == np.float32
        x64, w64, g64 = (a.astype(np.float64) for a in (x32, w32, g32))
        _, want_x, want_k = conv_and_grads(x64, w64, stride, g64)
        oracle_x, oracle_k = conv1d_grad_oracle(x32, w32, stride, g32)
        for got, want, oracle in ((gx, want_x, oracle_x), (gk, want_k, oracle_k)):
            assert rel_err(got, want) <= 1e-5
            assert rel_err(got, oracle) <= 1e-5

    def test_float32_backward_bits_do_not_depend_on_pool_size(self, rng, monkeypatch, fft_path,
                                                              pools):
        # the layout of test_pipeline_bits_do_not_depend_on_pool_size, in float32
        self.blocks_of(monkeypatch, 3, 10, 40, 3, 5, 2)
        monkeypatch.setattr(fftconv, "_ROWS", 2)
        monkeypatch.setattr(fftconv, "_FREQS", 3)
        x = rng.standard_normal((10, 40, 3)).astype(np.float32)
        w = rng.standard_normal((9, 3, 5)).astype(np.float32)
        g = rng.standard_normal((10, (40 - 9) // 2 + 1, 5)).astype(np.float32)
        runs = []
        for size in (1, 2, 3):
            monkeypatch.setattr(pool_module, "_pool", pools[size])
            runs.append(conv_and_grads(x, w, 2, g))
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert a.dtype == np.float32
                assert np.array_equal(a, b)

    def test_scratch_fits_the_widest_stage(self, rng, monkeypatch, fft_path):
        # C < F at stride 2: the gradient's F lines at M = L/2 are the widest
        # stage, narrower than max(C, F) lines at L
        made = {}
        scratch = fftconv._Plan.scratch

        def spy(plan, name, shape, dtype=np.float64):
            buf = scratch(plan, name, shape, dtype)
            made[name] = buf.nbytes
            return buf

        monkeypatch.setattr(fftconv._Plan, "scratch", spy)
        C, F, T, K = 2, 6, 40, 5
        x, w = rng.standard_normal((3, T, C)), rng.standard_normal((K, C, F))
        conv_and_grads(x, w, 2, rng.standard_normal((3, (T - K) // 2 + 1, F)))
        plan = fftconv._Plan(3, T, C, F, 2)
        assert made["t"] == fftconv._ROWS * max(C * plan.L, F * plan.M) * 8
        assert made["s"] == fftconv._ROWS * max(C * plan.W, F * (plan.M // 2 + 1)) * 16
        assert made["t"] < fftconv._ROWS * max(C, F) * plan.L * 8

    @pytest.mark.parametrize("n,want", [(1, 1), (2, 2), (7, 8), (11, 12), (13, 15), (17, 18),
                                        (438, 450), (1000, 1000)])
    def test_fft_length_is_smallest_5_smooth(self, n, want):
        assert ad._fft_length(n) == want

    # strides 1-4 and 7 (L = 7 M is not 5-smooth); (T - K) % stride != 0
    # past stride 1; two sequences per chunk, so three chunks
    @pytest.mark.parametrize("stride,T", [(1, 13), (2, 15), (3, 18), (4, 21), (7, 23)])
    def test_folded_strides_match_oracle_and_fd(self, rng, monkeypatch, fft_path, stride, T):
        plan = fftconv._Plan(self.N, T, self.C, self.F, stride)
        assert plan.L == stride * plan.M and plan.M >= -(-T // stride)
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 2 * 16 * plan.W * (self.C + self.F))
        monkeypatch.setattr(fftconv, "_ROWS", 1)
        monkeypatch.setattr(fftconv, "_FREQS", 2)
        J = (T - self.K) // stride + 1
        x = rng.standard_normal((self.N, T, self.C))
        w = rng.standard_normal((self.K, self.C, self.F))
        got = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride).data
        assert np.max(np.abs(got - conv1d_oracle(x, w, stride))) <= 1e-12

        xp, wp = ad.parameter(x), ad.parameter(w)
        t = rng.standard_normal((self.N, J, self.F))
        check_gradients(lambda: ad.mse_loss(ad.conv1d(xp, wp, stride), t), [xp, wp])


    def blocks_of(self, monkeypatch, rows, n, T, C, F, stride):
        """Size _CHUNK_BYTES so that a pipeline task carries `rows` sequences
        and a kernel-gradient chunk twice as many."""
        W = fftconv._Plan(n, T, C, F, stride).W
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 2 * 16 * W * (C + F) * rows)
        plan = fftconv._Plan(n, T, C, F, stride)
        assert (plan.block, plan.m) == (min(n, rows), min(n, 2 * rows))
        return plan

    # blocks of 3 over 7 sequences (3, 3, 1), each transformed 2 + 1 at a
    # time, kernel-gradient chunks of 6 and 1; and one sequence alone
    @pytest.mark.parametrize("n", [7, 1])
    @pytest.mark.parametrize("stride,T", [(1, 12), (2, 15)])
    def test_block_edges_match_oracle_and_unfold(self, rng, monkeypatch, fft_path, n, stride, T):
        self.blocks_of(monkeypatch, 3, n, T, self.C, self.F, stride)
        monkeypatch.setattr(fftconv, "_ROWS", 2)
        J = (T - self.K) // stride + 1
        x = rng.standard_normal((n, T, self.C))
        w = rng.standard_normal((self.K, self.C, self.F))
        g = rng.standard_normal((n, J, self.F))
        y, gx, gk = conv_and_grads(x, w, stride, g)
        assert np.max(np.abs(y - conv1d_oracle(x, w, stride))) <= 1e-12
        want_x, want_k = ad._unfold_backward(x, w, stride, g, True, True)
        assert np.max(np.abs(gx - want_x)) <= 1e-12
        assert np.max(np.abs(gk - want_k)) <= 1e-12

    def test_pipeline_bits_do_not_depend_on_pool_size(self, rng, monkeypatch, fft_path, pools):
        # blocks of 3 over 10 sequences (3, 3, 3, 1), transformed 2 + 1 at a
        # time; kernel-gradient chunks of 6 and 4, 3 frequencies per product
        self.blocks_of(monkeypatch, 3, 10, 40, 3, 5, 2)
        monkeypatch.setattr(fftconv, "_ROWS", 2)
        monkeypatch.setattr(fftconv, "_FREQS", 3)
        x = rng.standard_normal((10, 40, 3))
        w = rng.standard_normal((9, 3, 5))
        g = rng.standard_normal((10, (40 - 9) // 2 + 1, 5))
        runs = []
        for size in (1, 2, 3):
            monkeypatch.setattr(pool_module, "_pool", pools[size])
            runs.append(conv_and_grads(x, w, 2, g))
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert np.array_equal(a, b)

    def test_backward_never_holds_accumulator_and_kernel_spectrum(self, rng, monkeypatch,
                                                                   pools):
        """The traced peak inside backward stays below gx, gk, one (W, C, F)
        spectrum, _CHUNK_BYTES (the kernel gradient's chunk, or two threads'
        blocks), the thread's transform and product scratch and one input
        channel's inverse (its (W, F) spectrum, a copy and its (L, F) lines):
        the kernel-gradient accumulator becomes the kernel spectrum only once
        it has been inverted.  One thread, so the scratch is made once."""
        n, T, C, F, K = 8, 200, 32, 32, 40
        monkeypatch.setattr(pool_module, "_pool", pools[1])
        monkeypatch.setattr(fftconv, "_ROWS", 1)
        monkeypatch.setattr(fftconv, "_FREQS", 4)
        W = fftconv._Plan(n, T, C, F, 1).W
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 4 * 16 * W * (C + F))  # four sequences
        plan = fftconv._Plan(n, T, C, F, 1)
        x, w = rng.standard_normal((n, T, C)), rng.standard_normal((K, C, F))
        g = rng.standard_normal((n, T - K + 1, F))
        fftconv.backward(x, w, 1, g, True, True)  # warm: imports, caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            gx, gk = fftconv.backward(x, w, 1, g, True, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        spectrum = 16 * plan.W * C * F
        scratch = 8 * plan.samples + 16 * plan.bins + 16 * fftconv._FREQS * C * F  # _ROWS = 1
        inverse = 2 * 16 * plan.W * F + 8 * plan.L * F
        assert peak < gx.nbytes + gk.nbytes + spectrum + ad._CHUNK_BYTES + scratch + inverse

    def test_float32_backward_holds_complex64_spectrum_and_work(self, rng, monkeypatch, pools):
        """The bound of test_backward_never_holds_accumulator_and_kernel_spectrum
        at half the bytes for float32 tensors: a complex64 spectrum, work and
        scratch (blocks and chunks hold the same sequences as in float64, so
        the work buffer takes half of _CHUNK_BYTES), float32 time lines.  The
        complex128 spectrum alone is past it."""
        n, T, C, F, K = 8, 200, 32, 32, 40
        monkeypatch.setattr(pool_module, "_pool", pools[1])
        monkeypatch.setattr(fftconv, "_ROWS", 1)
        monkeypatch.setattr(fftconv, "_FREQS", 4)
        W = fftconv._Plan(n, T, C, F, 1).W
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 4 * 16 * W * (C + F))  # four sequences
        plan = fftconv._Plan(n, T, C, F, 1)
        x = rng.standard_normal((n, T, C)).astype(np.float32)
        w = rng.standard_normal((K, C, F)).astype(np.float32)
        g = rng.standard_normal((n, T - K + 1, F)).astype(np.float32)
        fftconv.backward(x, w, 1, g, True, True)  # warm: imports, caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            gx, gk = fftconv.backward(x, w, 1, g, True, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.dtype == gk.dtype == np.float32
        spectrum = 8 * plan.W * C * F
        scratch = 4 * plan.samples + 8 * plan.bins + 8 * fftconv._FREQS * C * F  # _ROWS = 1
        inverse = 2 * 8 * plan.W * F + 4 * plan.L * F
        bound = gx.nbytes + gk.nbytes + spectrum + ad._CHUNK_BYTES // 2 + scratch + inverse
        assert peak < bound < gx.nbytes + gk.nbytes + 2 * spectrum


def test_float32_model_gradients_match_float64(rng, fft_path):
    """Every parameter's gradient of a float32 model whose convs take the FFT
    path matches the same weights in float64, norm-wise within 1e-5: a pin
    against a cut in the precision any layer computes in."""
    cfg = ModelConfig(input_seconds=1, sample_rate_hz=60, conv_filters=(6, 8),
                      conv_kernels=(9, 7), conv_strides=(2, 3), gcn_filters=(8, 8),
                      dense_width=16)
    n = 4
    single = build_tiser_gcn(cfg, n)
    double = build_tiser_gcn(ModelConfig(**{**vars(cfg), "dtype": "f64"}), n)
    for p, q in zip(single.params(), double.params()):
        q.data = p.data.astype(np.float64)
    prop = rng.uniform(0, 0.5, (n, n))
    x = rng.standard_normal((3, n, cfg.input_length, cfg.channels)).astype(np.float32)
    z = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal((3, 5, n))
    grads = []
    for model in (single, double):
        ad.backward(ad.mse_loss(model.forward(prop, x, z), y))
        grads.append([p.grad for p in model.params()])
    assert all(g.dtype == np.float32 for g in grads[0])
    for p, got, want in zip(single.params(), *grads):
        assert rel_err(got, want) <= 1e-5, p.name


class TestConvPathSelection:
    """Which path conv1d takes on the layers of real model configurations."""

    def chosen(self, monkeypatch, build, cfg, n_nodes):
        seen = []
        select = ad._fft_cheaper

        def spy(*shape):
            seen.append(select(*shape))
            return seen[-1]

        monkeypatch.setattr(ad, "_fft_cheaper", spy)
        x = np.zeros((1, n_nodes, cfg.input_length, cfg.channels))
        with ad.no_grad():
            build(cfg, n_nodes).forward(np.eye(n_nodes), x, np.zeros((n_nodes, 2)))
        return seen

    def test_default_model_takes_fft_on_conv2_only(self, monkeypatch):
        assert self.chosen(monkeypatch, build_tiser_gcn, ModelConfig(), 3) == [False, True]

    def test_readme_small_spec_stays_on_im2col(self, monkeypatch):
        cfg = ModelConfig(conv_filters=(8, 16), conv_kernels=(32, 32), conv_strides=(4, 4))
        assert self.chosen(monkeypatch, build_tiser_gcn, cfg, 3) == [False, False]

    def test_cnn_cross_layer_stays_on_im2col(self, monkeypatch):
        # conv1, conv2, then the cross layer spanning all stations (J = 1)
        assert self.chosen(monkeypatch, functools.partial(Model, "cnn"), ModelConfig(), 20) == \
            [False, True, False]


# ---------------------------------------------------------------------------
# bias and activation fused into conv1d and matmul

CHAIN = {"relu": ad.relu, "tanh": ad.tanh, "linear": lambda t: t}


class TestFusedNode:
    """One node for op + bias + activation, bitwise equal to the primitive chain."""

    def run(self, op, args, b, g, activation, fused):
        params = [ad.parameter(a) for a in args]
        bias = ad.parameter(b)
        if fused:
            y = op(*params, bias=bias, activation=activation)
            assert y._parents == (*params, bias)
        else:
            y = CHAIN[activation](ad.add_bias(op(*params), bias))
        ad.backward(ad.mse_loss(y, g))
        with ad.no_grad():
            if fused:
                free = op(*params, bias=bias, activation=activation)
            else:
                free = CHAIN[activation](ad.add_bias(op(*params), bias))
        assert free._backward is None
        return [y.data, free.data, bias.grad] + [p.grad for p in params]

    @pytest.mark.parametrize("fft", [False, True])
    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    def test_conv1d(self, rng, monkeypatch, fft, activation):
        monkeypatch.setattr(ad, "_fft_cheaper", lambda *shape: fft)
        x = rng.standard_normal((2, 3, 20, 2)).astype(np.float32)
        w = rng.standard_normal((5, 2, 4)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        g = rng.standard_normal((2, 3, 6, 4)).astype(np.float32)

        def conv(xp, wp, **kw):
            return ad.conv1d(xp, wp, 3, **kw)

        fused = self.run(conv, (x, w), b, g, activation, True)
        chain = self.run(conv, (x, w), b, g, activation, False)
        for u, v in zip(fused, chain):
            assert u.dtype == v.dtype and np.array_equal(u, v)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    def test_matmul(self, rng, activation):
        a = rng.standard_normal((2, 5, 6)).astype(np.float32)
        w = rng.standard_normal((6, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        g = rng.standard_normal((2, 5, 3)).astype(np.float32)
        fused = self.run(ad.matmul, (a, w), b, g, activation, True)
        chain = self.run(ad.matmul, (a, w), b, g, activation, False)
        for u, v in zip(fused, chain):
            assert u.dtype == v.dtype and np.array_equal(u, v)

    @pytest.mark.parametrize("activation", ["tanh", "linear"])
    def test_gradients(self, rng, activation):
        x = ad.parameter(rng.standard_normal((2, 11, 2)))
        w = ad.parameter(rng.standard_normal((4, 2, 3)))
        b = ad.parameter(rng.standard_normal(3))
        v = ad.parameter(rng.standard_normal((3, 2)))
        c = ad.parameter(rng.standard_normal(2))
        t = rng.standard_normal((2, 4, 2))

        def loss():
            h = ad.conv1d(x, w, 2, bias=b, activation=activation)
            return ad.mse_loss(ad.matmul(h, v, bias=c, activation=activation), t)

        check_gradients(loss, [x, w, b, v, c])

    def test_rejects_bad_bias_and_activation(self):
        x, w = ad.Tensor(np.zeros((6, 2))), ad.Tensor(np.zeros((3, 2, 4)))
        with pytest.raises(ShapeError):
            ad.conv1d(x, w, 1, bias=ad.Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.matmul(x, ad.Tensor(np.zeros((2, 4))), activation="swish")


# ---------------------------------------------------------------------------
# no_grad

class TestNoGrad:
    def test_ops_record_no_tape_node(self, rng):
        x = ad.parameter(rng.standard_normal((2, 9, 2)))
        w = ad.parameter(rng.standard_normal((3, 2, 4)))
        with ad.no_grad():
            out = ad.relu(ad.conv1d(x, w, 2))
        assert out._backward is None
        assert not out.requires_grad
        assert out._parents == ()
        assert ad.relu(ad.conv1d(x, w, 2))._backward is not None

    def test_values_bitwise_equal_to_taped(self, rng):
        x = rng.standard_normal((3, 16, 2))
        w = ad.parameter(rng.standard_normal((5, 2, 4)))
        taped = ad.tanh(ad.conv1d(ad.Tensor(x), w, 2))
        with ad.no_grad():
            free = ad.tanh(ad.conv1d(ad.Tensor(x), w, 2))
        assert taped._backward is not None
        assert np.array_equal(free.data, taped.data)

    def test_state_restored_after_exception(self, rng):
        p = ad.parameter(rng.standard_normal((2, 2)))
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside no_grad")
        assert ad.relu(p)._backward is not None

    def test_nested_contexts_restore_outer_state(self, rng):
        p = ad.parameter(rng.standard_normal((2, 2)))
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.relu(p)._backward is None
        assert ad.relu(p)._backward is not None


# ---------------------------------------------------------------------------
# engine mechanics

class TestEngine:
    def test_backward_rejects_non_scalar(self, rng):
        p = ad.parameter(rng.standard_normal((2, 2)))
        out = ad.relu(p)
        with pytest.raises(ShapeError):
            ad.backward(out)

    def test_backward_accumulates_across_calls(self):
        p = ad.parameter(np.array([3.0]))
        for _ in range(2):
            loss = ad.mse_loss(p, np.array([0.0]))
            ad.backward(loss)
        # d/dp of p^2 is 2p = 6; two accumulated passes give 12
        assert np.allclose(p.grad, [12.0])
        ad.zero_grad([p])
        assert p.grad is None

    def test_untracked_inputs_stay_off_tape(self, rng):
        a = ad.Tensor(rng.standard_normal((2, 2)))
        out = ad.relu(a)
        assert not out.requires_grad
        assert out._parents == ()

    def test_constant_branch_contributes_no_gradient(self, rng):
        p = ad.parameter(np.ones((2, 2)))
        c = ad.Tensor(rng.standard_normal((2, 2)))
        loss = ad.mse_loss(ad.add(p, c), np.zeros((2, 2)))
        ad.backward(loss)
        assert p.grad.shape == (2, 2)
        assert np.all(np.isfinite(p.grad))

    def test_determinism_bitwise(self, rng):
        x = rng.standard_normal((3, 16, 2))
        w = rng.standard_normal((5, 2, 4))
        t = rng.standard_normal((3, 6, 4))

        def run():
            xp = ad.parameter(x.copy())
            wp = ad.parameter(w.copy())
            loss = ad.mse_loss(ad.conv1d(xp, wp, 2), t)
            ad.backward(loss)
            return loss.data.copy(), xp.grad.copy(), wp.grad.copy()

        first, second = run(), run()
        for u, v in zip(first, second):
            assert np.array_equal(u, v)

    def test_shape_errors(self, rng):
        two = ad.Tensor(np.zeros((2, 2)))
        three = ad.Tensor(np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            ad.matmul(two, three)
        with pytest.raises(ShapeError):
            ad.add(two, three)
        with pytest.raises(ShapeError):
            ad.conv1d(ad.Tensor(np.zeros((4, 1))), ad.Tensor(np.zeros((5, 1, 1))), 1)
        with pytest.raises(ShapeError):
            ad.conv1d(ad.Tensor(np.zeros((4, 1))), ad.Tensor(np.zeros((2, 1, 1))), 0)
        with pytest.raises(ShapeError):
            ad.add_bias(two, ad.Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.mse_loss(two, np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            ad.concat_last([two, three])


# ---------------------------------------------------------------------------
# backward consumes the graph

class TestReleasedGraph:
    def chain(self, rng):
        w = ad.parameter(rng.standard_normal((3, 2, 4)))
        pred = ad.conv1d(ad.Tensor(rng.standard_normal((2, 9, 2))), w, 2, activation="relu")
        return w, pred

    def test_second_backward_raises_and_data_stays(self, rng):
        w, pred = self.chain(rng)
        loss = ad.mse_loss(pred, np.zeros(pred.shape))
        ad.backward(loss)
        grad = w.grad.copy()
        with pytest.raises(GraphReleasedError, match="mse_loss"):
            ad.backward(loss)
        assert np.array_equal(w.grad, grad)
        assert pred._parents == () and loss._parents == ()
        assert pred.data.shape == (2, 4, 4) and loss.data.shape == ()

    def test_new_loss_on_a_consumed_intermediate_raises(self, rng):
        w, pred = self.chain(rng)
        ad.backward(ad.mse_loss(pred, np.zeros(pred.shape)))
        grad = w.grad.copy()
        with pytest.raises(GraphReleasedError, match="conv1d"):
            ad.backward(ad.mse_loss(pred, np.ones(pred.shape)))
        assert np.array_equal(w.grad, grad)

    def test_backward_peak_memory_is_bounded(self, rng, monkeypatch):
        """A gradient lives in backward's table until its consumer takes it,
        and each node's activations go with its closure.  Unfold conv, FFT
        conv, reshape, matmul and loss, f64: the traced peak inside backward
        stays below the two activations plus 2.5 gradients of the largest of
        them.  Held loop references add a whole gradient at the FFT conv."""
        n, T, C0, C1, C2, P, K1, K2, s2 = 256, 400, 2, 8, 16, 3, 4, 32, 2
        J1 = T - K1 + 1
        J2 = (J1 - K2) // s2 + 1
        monkeypatch.setattr(ad, "_CHUNK_BYTES", 64 << 10)  # small spectra chunks
        monkeypatch.setattr(ad, "_fft_cheaper", lambda T, K, C, F, stride: C == C1)
        pool = pool_module.Pool(1)                            # one thread's scratch
        monkeypatch.setattr(pool_module, "_pool", pool)
        k1, b1 = ad.parameter(rng.standard_normal((K1, C0, C1))), ad.parameter(np.ones(C1))
        k2, b2 = ad.parameter(rng.standard_normal((K2, C1, C2))), ad.parameter(np.ones(C2))
        dense = ad.parameter(rng.standard_normal((J2 * C2, P)))
        x, t = ad.Tensor(rng.standard_normal((n, T, C0))), rng.standard_normal((n, P))

        def loss():
            h = ad.conv1d(x, k1, 1, bias=b1, activation="relu")
            h = ad.conv1d(h, k2, s2, bias=b2, activation="relu")
            return ad.mse_loss(ad.matmul(ad.reshape(h, (n, J2 * C2)), dense), t)

        try:
            ad.backward(loss())                               # warm: imports, caches
            tracemalloc.start()
            try:
                final = loss()
                tracemalloc.reset_peak()
                ad.backward(final)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            pool.close()
        a1, a2 = 8 * n * J1 * C1, 8 * n * J2 * C2
        assert peak < a1 + a2 + 2.5 * max(a1, a2)
