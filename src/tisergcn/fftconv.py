"""FFT path of ``autodiff.conv1d`` for long kernels over many channels.

A valid correlation is a circular one at any transform length L >= T, so
the convolution becomes one (C, F) product per frequency between the
input's spectrum and the conjugate kernel spectrum (Mathieu, Henaff &
LeCun, "Fast Training of Convolutional Networks through FFTs", 2014).
``autodiff.conv1d`` imports this module the first time its cost estimate
picks the FFT path, so models that never do skip compiling it.

The forward pass and the input gradient are per-thread pipelines: one task
of the process's pool (``pool.get_pool``) carries one block of sequences
from time to spectra, through the product at every frequency and back to
time, in buffers owned by its thread.  The kernel gradient sums over all
sequences, so it runs first, in chunks shared out by frequency, and its
accumulator is inverted before the same memory takes the kernel spectrum
for the input gradient.  Blocks and chunks are sized from the shapes
alone, so results do not depend on the pool size.

The forward pass runs in float64 (complex128 spectra) whatever the
tensors' dtype, and its result is cast back: a float32 forward flips
relu masks downstream and moved a default model's initial-weight
gradients by up to 1.4e-3 (relative).  Backward runs in the tensors' own
precision, float32 time lines, transforms and complex64 spectra when the
input, the kernels and the upstream gradient are all float32.  That
halves its spectrum and work bytes, and leaves those gradients within
4.1e-6 of a float64-backward reference (3.9e-6 with a float64 backward).
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from . import autodiff as ad

# Work per transform or product call: small enough that a thread that
# starts late holds up little, large enough that each numpy call outweighs
# its Python overhead.
_ROWS = 4      # sequences per transform
_FREQS = 16    # frequencies per product of the kernel-gradient sum


class _Plan:
    """State of one FFT-path call on n sequences of length T, C -> F channels.

    L = stride * M is the transform length, M >= T/stride, and W = L/2 + 1
    the number of frequencies.  One sequence's two spectra, (W, C) and
    (W, F) of dtype `complex` (complex128 or complex64, the transform
    precision of `real`), take `row` = W (C + F) items.  A pipeline task
    carries a block of up to `block` sequences, whose spectra in two
    threads together would fit autodiff._CHUNK_BYTES as complex128; the
    kernel-gradient pass shares chunks of m sequences, whose complex128
    spectra alone would fit it.  Sized from complex128 whatever the
    precision, blocks and chunks hold the same sequences in half the bytes
    at complex64: twice the sequences per block made a float32 backward
    slower.  Threads move up to _ROWS sequences at a time between
    time-major (r, ., C) and frequency-major (W, r, C) layouts, in `real`,
    through scratch of their own sized to the widest stage a call runs (C
    lines at length L or F at M), each stage taking a contiguous
    (r, lines, n) view of it.
    """

    def __init__(self, n: int, T: int, C: int, F: int, stride: int, real=np.float64):
        self.M = ad._fft_length(-(-T // stride))
        self.L = stride * self.M
        self.W = self.L // 2 + 1
        self.row = self.W * (C + F)
        self.real = np.dtype(real)
        self.complex = np.result_type(self.real, np.complex64)
        # numpy's rfft takes float32 lines through its float64 loop, on cast
        # copies of the whole call, when it does not scale them (its unit
        # factor is a Python int, which picks that loop).  A float32 plan
        # scales each forward transform by 1/n instead and multiplies back
        # what a product of two such spectra lost, `rescale` = L M, once
        # per pass: into the kernels before their transform, and into the
        # kernel gradient after its inverse.
        single = self.real == np.float32
        self.norm = "forward" if single else "backward"
        self.rescale = self.L * self.M if single else 1
        self.m = ad._chunk_rows(n, 16 * self.row)
        self.block = ad._chunk_rows(n, 32 * self.row)
        self.samples = max(C * self.L, F * self.M)  # per sequence, widest stage
        self.bins = max(C * self.W, F * (self.M // 2 + 1))
        from .pool import get_pool
        self.pool = get_pool()
        self.threads = min(self.pool.size, -(-n // self.block))  # that take blocks
        self._local = threading.local()

    def scratch(self, name: str, shape, dtype) -> np.ndarray:
        """This thread's buffer `name`, made on its first use."""
        buf = getattr(self._local, name, None)
        if buf is None:
            buf = np.empty(shape, dtype)
            setattr(self._local, name, buf)
        return buf

    def _lines(self, r: int, C: int, n: int):
        t = self.scratch("t", _ROWS * self.samples, self.real)[:r * C * n]
        s = self.scratch("s", _ROWS * self.bins, self.complex)[:r * C * (n // 2 + 1)]
        return t.reshape(r, C, n), s.reshape(r, C, -1).transpose(2, 0, 1)

    def to_spectra(self, seqs, n, spectra) -> None:
        """seqs (r, ., C), placed L/n samples apart, into spectra (W, r, C):
        bin k is bin k mod n of their length-n spectrum, conjugated past n/2."""
        r, J, C = seqs.shape
        t, s = self._lines(r, C, n)
        t[:, :, :J] = seqs.transpose(0, 2, 1)
        t[:, :, J:] = 0
        np.fft.rfft(t, n, out=s.transpose(1, 2, 0), norm=self.norm)
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

    def kernel_spectrum(self, k: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(K, C, F) times `rescale` -> out (W, C, F), one input channel per
        task, in out's precision."""
        self.pool.run(lambda i, j: np.fft.rfft(k[:, i:j] * self.rescale, self.L, axis=0,
                                               out=out[:, i:j], norm=self.norm),
                      k.shape[1], 1)
        return out

    def work(self, rows: int) -> np.ndarray:
        """Flat room, of dtype `complex`, for the spectra of `rows` sequences,
        or for every thread's block if that is more."""
        return np.empty(max(rows, self.threads * self.block) * self.row, self.complex)

    def pipeline(self, src, n_in, ks, n_out, out, work) -> None:
        """out[i] from src[i] (., A) for every sequence i: its spectrum at
        length n_in, times ks (W, A, B) at each frequency, folded and inverted
        at length n_out into out[i] (., B).  One task per block of sequences,
        in two (W, block, .) views of the slot of `work` that its thread
        takes on its first task."""
        W, A, B = ks.shape
        slots = itertools.count()

        def task(lo, hi):
            buf = getattr(self._local, "slot", None)
            if buf is None:
                at = next(slots) * self.block * self.row
                buf = self._local.slot = work[at:at + self.block * self.row]
            a = buf[:W * self.block * A].reshape(W, self.block, A)[:, :hi - lo]
            b = buf[W * self.block * A:].reshape(W, self.block, B)[:, :hi - lo]
            rows = [(i, min(i + _ROWS, hi)) for i in range(lo, hi, _ROWS)]
            for i, j in rows:
                self.to_spectra(src[i:j], n_in, a[:, i - lo:j - lo])
            np.matmul(a, ks, out=b)
            for i, j in rows:
                self.from_spectra(b[:, i - lo:j - lo], n_out, out[i:j])

        self.pool.run(task, len(src), self.block)


def forward(xf, k, stride, J):
    """(n, T, C) sequences through (K, C, F) kernels -> (n, J, F), the
    stride-th lags of the circular correlation, inverted at length M."""
    n, T, C = xf.shape
    plan = _Plan(n, T, C, k.shape[2], stride)
    kc = plan.kernel_spectrum(k, np.empty((plan.W,) + k.shape[1:], plan.complex))
    np.conjugate(kc, out=kc)
    kc /= stride  # the fold sums stride bins
    out = np.empty((n, J, k.shape[2]), dtype=np.result_type(xf, k))
    plan.pipeline(xf, plan.L, kc, plan.M, out, plan.work(0))
    return out


def _kernel_gradient(plan, xf, g3, k, acc, work):
    """conj(X)^T G summed over all sequences into acc (W, C, F), chunk after
    chunk in `work`, each chunk's sum shared out by frequency (so its order
    does not depend on the pool size), then inverted: the gradient of the
    (K, C, F) kernels k."""
    n, _, C = xf.shape
    F = g3.shape[2]
    W, m, run = plan.W, plan.m, plan.pool.run
    gs = work[:W * m * F].reshape(W, m, F)
    xs = work[W * m * F:m * plan.row].reshape(W, m, C)
    acc[...] = 0  # the conjugate spectrum of gk

    def accumulate(i, j, b):
        xw = np.conjugate(xs[i:j, :b], out=xs[i:j, :b])
        part = plan.scratch("part", (_FREQS, C, F), plan.complex)[:j - i]
        acc[i:j] += np.matmul(xw.transpose(0, 2, 1), gs[i:j, :b], out=part)

    for lo in range(0, n, m):
        b = min(m, n - lo)
        run(lambda i, j: plan.to_spectra(g3[lo + i:lo + j], plan.M, gs[:, i:j]), b, _ROWS)
        run(lambda i, j: plan.to_spectra(xf[lo + i:lo + j], plan.L, xs[:, i:j]), b, _ROWS)
        run(lambda i, j: accumulate(i, j, b), W, _FREQS)
    gk = np.empty(k.shape, k.dtype)

    def invert(i, j):
        lines = np.fft.irfft(np.conjugate(acc[:, i:j]), plan.L, axis=0)
        np.multiply(lines[:k.shape[0]], plan.rescale, out=gk[:, i:j])

    run(invert, C, 1)
    return gk


def backward(xf, k, stride, g3, need_x, need_k):
    """Input and kernel gradients for the upstream gradient g3 (n, J, F),
    in float32 and complex64 when xf, k and g3 are all float32, else in
    float64 and complex128.

    Two passes over one (W, C, F) spectrum and one work buffer, so the
    kernel-gradient accumulator and the kernel spectrum are never held
    together: the kernel gradient first (_kernel_gradient, the chunks'
    spectra in `work`), then the input gradient, a pipeline (the blocks in
    `work`) of g's spectrum (the stride-upsampled g's: its length-M one,
    repeated) times the kernel spectrum, inverted at length L.  g is
    transformed in both.  gx is made first and the buffers are shared by
    the passes: made in pass order instead, a default training run's
    resident peak read 10-15 MB higher in some runs than in others.
    """
    n, T, C = xf.shape
    single = all(a.dtype == np.float32 for a in (xf, k, g3))
    plan = _Plan(n, T, C, k.shape[2], stride, np.float32 if single else np.float64)
    gx = np.empty_like(xf) if need_x else None
    spectrum = np.empty((plan.W,) + k.shape[1:], plan.complex)
    work = plan.work(plan.m if need_k else 0)
    gk = _kernel_gradient(plan, xf, g3, k, spectrum, work) if need_k else None
    if need_x:
        plan.pipeline(g3, plan.M, plan.kernel_spectrum(k, spectrum).transpose(0, 2, 1),
                      plan.L, gx, work)
    return gx, gk
