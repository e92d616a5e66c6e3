"""FFT path of ``autodiff.conv1d`` for long kernels over many channels.

A valid correlation is a circular one at any transform length L >= T, so
the convolution becomes one (C, F) product per frequency between the
input's spectrum and the conjugate kernel spectrum (Mathieu, Henaff &
LeCun, "Fast Training of Convolutional Networks through FFTs", 2014).
``autodiff.conv1d`` imports this module the first time its cost estimate
picks the FFT path, so models that never do skip compiling it.  Each
stage shares its sequences or frequencies out over the process's threads
(``pool.get_pool``).
"""

from __future__ import annotations

import threading

import numpy as np

from . import autodiff as ad

# Work per task; the pool's threads take tasks in turn: small
# enough that a thread that starts late holds up little, large enough that
# each task's numpy call outweighs its Python overhead.
_ROWS = 4      # sequences per transform
_FREQS = 16    # frequencies per product


class _Plan:
    """State of one FFT-path call on n sequences of length T, C -> F channels.

    L = stride * M is the transform length, M >= T/stride, and W = L/2 + 1
    the number of frequencies.  Sequences go through in chunks of m, whose
    two frequency-major spectra fit autodiff._CHUNK_BYTES.  Threads move up
    to _ROWS sequences at a time between time-major (r, ., C) and
    frequency-major (W, r, C) layouts, in float64, through scratch of their
    own sized to the widest stage a call runs (C lines at length L or F at
    M), each stage taking a contiguous (r, lines, n) view of it.
    """

    def __init__(self, n: int, T: int, C: int, F: int, stride: int):
        self.M = ad._fft_length(-(-T // stride))
        self.L = stride * self.M
        self.W = self.L // 2 + 1
        self.m = ad._chunk_rows(n, 16 * self.W * (C + F))
        self.samples = max(C * self.L, F * self.M)  # per sequence, widest stage
        self.bins = max(C * self.W, F * (self.M // 2 + 1))
        from .pool import get_pool
        self.pool = get_pool()
        self._local = threading.local()

    def scratch(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """This thread's buffer `name`, made on its first use."""
        buf = getattr(self._local, name, None)
        if buf is None:
            buf = np.empty(shape, dtype)
            setattr(self._local, name, buf)
        return buf

    def _lines(self, r: int, C: int, n: int):
        t = self.scratch("t", _ROWS * self.samples)[:r * C * n]
        s = self.scratch("s", _ROWS * self.bins, np.complex128)[:r * C * (n // 2 + 1)]
        return t.reshape(r, C, n), s.reshape(r, C, -1).transpose(2, 0, 1)

    def to_spectra(self, seqs, n, spectra) -> None:
        """seqs (r, ., C), placed L/n samples apart, into spectra (W, r, C):
        bin k is bin k mod n of their length-n spectrum, conjugated past n/2."""
        r, J, C = seqs.shape
        t, s = self._lines(r, C, n)
        t[:, :, :J] = seqs.transpose(0, 2, 1)
        t[:, :, J:] = 0
        np.fft.rfft(t, n, out=s.transpose(1, 2, 0))
        v = s.shape[0]
        for lo in range(0, self.W, n):
            a, b = min(v, self.W - lo), min(n, self.W - lo)
            spectra[lo:lo + a] = s[:a]
            np.conjugate(s[n - v:n - b:-1], out=spectra[lo + v:lo + b])

    def from_spectra(self, spectra, n, out) -> None:
        """spectra (W, r, C), folded in place to length n (bin q sums bins q + p n,
        conjugated past W; the last period first, the only one to read bins < n/2 + 1),
        back to time: the L/n-th samples, times L/n, cast into out (r, ., C)."""
        _, r, C = spectra.shape
        t, s = self._lines(r, C, n)
        v = s.shape[0]
        for lo in range(self.L - n, 0, -n):
            a = max(0, min(v, self.W - lo))
            spectra[:a] += spectra[lo:lo + a]
            spectra[a:v] += np.conjugate(spectra[self.L - lo - a:self.L - lo - v:-1])
        s[...] = spectra[:v]
        np.fft.irfft(s.transpose(1, 2, 0), n, out=t)
        out[...] = t[:, :, :out.shape[1]].transpose(0, 2, 1)

    def kernel_spectrum(self, k: np.ndarray) -> np.ndarray:
        """(K, C, F) -> (W, C, F) complex128, one input channel per task."""
        out = np.empty((self.W,) + k.shape[1:], np.complex128)
        self.pool.run(lambda i, j: np.fft.rfft(k[:, i:j], self.L, axis=0, out=out[:, i:j]),
                      k.shape[1], 1)
        return out


def forward(xf, k, stride, J):
    """(n, T, C) sequences through (K, C, F) kernels -> (n, J, F), the
    stride-th lags of the circular correlation, inverted at length M."""
    n, T, C = xf.shape
    F = k.shape[2]
    plan = _Plan(n, T, C, F, stride)
    W, m, run = plan.W, plan.m, plan.pool.run
    kc = plan.kernel_spectrum(k)
    np.conjugate(kc, out=kc)
    kc /= stride  # the fold sums stride bins
    xs = np.empty((W, m, C), np.complex128)
    ys = np.empty((W, m, F), np.complex128)
    out = np.empty((n, J, F), dtype=np.result_type(xf, k))
    for lo in range(0, n, m):
        b = min(m, n - lo)
        run(lambda i, j: plan.to_spectra(xf[lo + i:lo + j], plan.L, xs[:, i:j]), b, _ROWS)
        run(lambda i, j: np.matmul(xs[i:j, :b], kc[i:j], out=ys[i:j, :b]), W, _FREQS)
        run(lambda i, j: plan.from_spectra(ys[:, i:j], plan.M, out[lo + i:lo + j]), b, _ROWS)
    return out


def backward(xf, k, stride, g3, need_x, need_k):
    """Input and kernel gradients for the upstream gradient g3 (n, J, F).

    One pass over the chunks transforms each chunk of g once, to gs.  The
    kernel gradient accumulates conj(X)^T gs over all chunks into one
    spectrum, inverted once at the end; the input gradient is gs (the
    stride-upsampled g's spectrum: its length-M one, repeated) times the
    kernel spectrum, inverted per chunk.
    """
    n, T, C = xf.shape
    K, _, F = k.shape
    plan = _Plan(n, T, C, F, stride)
    W, m, run = plan.W, plan.m, plan.pool.run
    gs = np.empty((W, m, F), np.complex128)
    xs = np.empty((W, m, C), np.complex128)  # spectrum of x, then of the input gradient
    if need_k:
        acc = np.zeros((W, C, F), np.complex128)

        def accumulate(i, j, b):
            # conj(X)^T G summed over sequences: the conjugate spectrum of gk
            xw = np.conjugate(xs[i:j, :b], out=xs[i:j, :b])
            part = plan.scratch("part", (_FREQS, C, F), np.complex128)[:j - i]
            acc[i:j] += np.matmul(xw.transpose(0, 2, 1), gs[i:j, :b], out=part)

    gx = None
    if need_x:
        ks = plan.kernel_spectrum(k)
        gx = np.empty_like(xf)
    for lo in range(0, n, m):
        b = min(m, n - lo)
        run(lambda i, j: plan.to_spectra(g3[lo + i:lo + j], plan.M, gs[:, i:j]), b, _ROWS)
        if need_k:
            run(lambda i, j: plan.to_spectra(xf[lo + i:lo + j], plan.L, xs[:, i:j]), b, _ROWS)
            run(lambda i, j: accumulate(i, j, b), W, _FREQS)
        if need_x:
            run(lambda i, j: np.matmul(gs[i:j, :b], ks[i:j].transpose(0, 2, 1), out=xs[i:j, :b]),
                W, _FREQS)
            run(lambda i, j: plan.from_spectra(xs[:, i:j], plan.L, gx[lo + i:lo + j]), b, _ROWS)
    gk = None
    if need_k:
        gk = np.empty(k.shape, k.dtype)

        def invert(i, j):
            gk[:, i:j] = np.fft.irfft(np.conjugate(acc[:, i:j]), plan.L, axis=0)[:K]

        run(invert, C, 1)
    return gx, gk
