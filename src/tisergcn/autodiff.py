"""Dense-tensor engine with reverse-mode differentiation.

Covers exactly the operations the waveform/graph models need: folded
matrix product and strided valid 1D convolution (each with an optional
bias and activation), relu/tanh/add/add_bias elementwise ops,
reshape/concat plumbing, node mixing by a constant propagation matrix,
mean-squared-error loss and an L2 weight penalty.

Tensors wrap a numpy array; each op appends a tape node (the output
tensor itself) holding its parents and a closure that maps the upstream
gradient to per-parent gradients.  ``backward`` replays the tape in
reverse topological order and consumes it: each node drops its parents
and closure as soon as its closure has run, so activations and gradients
are freed during the pass, and backward through a consumed node raises
GraphReleasedError.  Everything is deterministic: identical inputs and
op order give bitwise-identical outputs and gradients.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GraphReleasedError, ShapeError
from .pool import blas_on_caller, get_pool

# Cap on the bytes of one conv1d window matrix (measured: CHANGES.md, chunked im2col).
_CHUNK_BYTES = 8 << 20

# Outputs per window row of conv1d's blocked unfold (see _blocks).  A row of
# B outputs copies (B-1)*stride + K input samples where B separate windows
# copy B*K, and its GEMM is B times wider.  Past ceil(K/stride) outputs the
# copy barely shrinks while the block matrix's zeros add multiply-adds.  On the
# default conv1 (400 sequences, 2 cores, f32) 8 gave the lowest forward plus
# kernel-gradient time of 4, 6, 8, 12 and 16; the quick-start K=32, stride-4
# layers are capped at 8 by ceil(K/stride).
_BLOCK = 8

# Least multiply-adds per pool task of _gemm and _chunks (measured: CHANGES.md,
# BLAS on the caller).
_TASK_MACS = 1 << 25

# Weights of _fft_cheaper's cost model (fitted: CHANGES.md, FFT path and blocked unfold).
_FFT_MAC_COST = 3.0
_FFT_LINE_COST = 30.0

_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


class Tensor:
    """Numpy-backed tensor, optionally tracked on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str = "",
                 _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"


def parameter(data, name: str = "") -> Tensor:
    """Trainable leaf tensor; its .grad is None until a backward reaches it."""
    return Tensor(np.array(data), requires_grad=True, name=name)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _tracked(inputs) -> bool:
    return any(isinstance(t, Tensor) and t.requires_grad for t in inputs)


@contextlib.contextmanager
def no_grad():
    """Context in which ops record nothing: every output is an untracked leaf."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _node(data, parents, backward_fn) -> Tensor:
    if not (_grad_enabled.get() and _tracked(parents)):
        return Tensor(data)
    # named after the op that made it: "conv1d.<locals>.backward" -> "conv1d"
    return Tensor(data, requires_grad=True, name=backward_fn.__qualname__.partition(".")[0],
                  _parents=tuple(parents), _backward=backward_fn)


# ---------------------------------------------------------------------------
# linear algebra

def _fused(out: np.ndarray, parents, backward_fn, bias, activation: str) -> Tensor:
    """Node of out after adding an (F,) bias, then the activation, in place.
    Backward takes relu's mask (out > 0 exactly where its input is) and tanh's
    derivative from out, then hands g to backward_fn for ``parents``."""
    if bias is not None:
        if bias.data.ndim != 1 or out.shape[-1] != bias.data.shape[0]:
            raise ShapeError(f"bias {bias.shape} does not match last axis of {out.shape}")
        np.add(out, bias.data, out=out)
    if activation == "relu":
        np.maximum(out, 0, out=out)
    elif activation == "tanh":
        np.tanh(out, out=out)
    elif activation != "linear":
        raise ShapeError(f"unknown activation {activation!r}")

    def backward(g):
        if activation == "relu":
            g = g * (out > 0)
        elif activation == "tanh":
            g = g * (1.0 - out * out)
        gb = None
        if bias is not None and bias.requires_grad:
            # as a GEMV: numpy's axis-0 sum over a tall (M, F) matrix is up to
            # 17x slower (desk conv1: 48,600 x 8)
            g2 = g.reshape(-1, out.shape[-1])
            gb = np.ones(g2.shape[0], g.dtype) @ g2
        return (*backward_fn(g), gb)

    backward.__qualname__ = backward_fn.__qualname__  # the node takes the op's name
    return _node(out, (*parents, bias), backward)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, its output rows shared out over the pool in tasks sized from the
    shapes alone: at least _TASK_MACS and 256 rows (each packs all of b), in
    multiples of 64 rows (BLAS rounds a partial tile of rows its own way), a
    lone last row (numpy's GEMV) joining the task before.  Sums are whole."""
    (m, k), n = a.shape, b.shape[1]
    step = 64 * max(4, -(-_TASK_MACS // (64 * k * n or 1)))
    if m <= step:
        return a @ b
    out = np.empty((m, n), np.result_type(a, b))
    cuts = [*range(0, m - 1, step), m]
    get_pool().run(lambda i, j: np.matmul(a[cuts[i]:cuts[j]], b, out=out[cuts[i]:cuts[j]]),
                   len(cuts) - 1, 1)
    return out


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None,
           activation: str = "linear") -> Tensor:
    """activation(a @ b + bias) with b strictly 2-D; leading axes of a are folded.

    a: (..., m, k), b: (k, n), bias: (n,) or None -> (..., m, n), one tape
    node.  Gradients, with g taken back through the activation: da = g b^T,
    db = fold(a)^T fold(g), dbias = ones^T fold(g) (g summed over all but the
    last axis).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    k, n = b.data.shape
    out = _gemm(a.data.reshape(-1, k), b.data).reshape(*a.data.shape[:-1], n)

    def backward(g):
        g2 = g.reshape(-1, n)
        ga = _gemm(g2, b.data.T).reshape(a.data.shape) if a.requires_grad else None
        gb = _gemm(a.data.reshape(-1, k).T, g2) if b.requires_grad else None
        return ga, gb

    return _fused(out, (a, b), backward, bias, activation)


def mix_nodes(m: np.ndarray, h: Tensor) -> Tensor:
    """Left-multiply the node axis by a constant (N, N) matrix: (..., N, F) -> (..., N, F)."""
    h = _as_tensor(h)
    m = np.asarray(m, dtype=h.dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or h.data.ndim < 2 or h.data.shape[-2] != m.shape[0]:
        raise ShapeError(f"mix_nodes shapes incompatible: {m.shape} x {h.shape}")
    out = np.matmul(m, h.data)

    def backward(g):
        return (np.matmul(m.T, g),)

    return _node(out, (h,), backward)


# ---------------------------------------------------------------------------
# convolution

def _chunk_rows(n: int, row_bytes: int) -> int:
    """Sequences per chunk: as many as fit _CHUNK_BYTES, at least one."""
    return max(1, min(n, _CHUNK_BYTES // row_bytes))


def _chunks(n: int, row_bytes: int, seq_macs: int = 0) -> list[slice]:
    """Near-equal slices over n sequences, each a pool task holding its window
    matrix: as few as let two fit _CHUNK_BYTES (at least one sequence each),
    or, when one would hold all n, one per _TASK_MACS of n * seq_macs."""
    count = -(-n // _chunk_rows(n, 2 * row_bytes))
    if count == 1:
        count = max(1, min(n, n * seq_macs // _TASK_MACS))
    step = -(-n // count)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _blocks(K: int, stride: int, J: int) -> tuple[int, int, int]:
    """(B, Q, width) of the blocked unfold: B outputs per window row, Q = J // B
    full rows per sequence, each reading width = (B-1)*stride + K samples."""
    B = min(_BLOCK, -(-K // stride), J)
    return B, J // B, (B - 1) * stride + K


def _block_kernel(k: np.ndarray, stride: int, B: int) -> np.ndarray:
    """(K, C, F) -> block-Toeplitz (((B-1)*stride + K)*C, B*F) matrix whose
    column block b is the flattened kernel shifted down b*stride rows.
    B = 1 is a view of k."""
    K, C, F = k.shape
    kflat = k.reshape(K * C, F)
    if B == 1:
        return kflat
    w = np.zeros((((B - 1) * stride + K) * C, B * F), dtype=k.dtype)
    for b in range(B):
        w[b * stride * C:(b * stride + K) * C, b * F:(b + 1) * F] = kflat
    return w


def _block_rows(x: np.ndarray, width: int, step: int) -> np.ndarray:
    """Unfold (n, T, C) -> (n * Q, width * C), row (i, q) = x[i, q*step : q*step + width]."""
    C = x.shape[2]
    return sliding_window_view(x, (width, C), axis=(1, 2))[:, ::step, 0].reshape(-1, width * C)


def _unfold_forward(xf, k, stride, J):
    K, C, F = k.shape
    B, Q, width = _blocks(K, stride, J)
    w = _block_kernel(k, stride, B)
    n = xf.shape[0]
    out = np.empty((n, J, F), dtype=np.result_type(xf, w))
    full = out[:, :Q * B].reshape(n, Q, B * F)
    chunks = _chunks(n, Q * width * C * xf.itemsize, Q * width * C * B * F)

    def task(i, j):
        for sl in chunks[i:j]:
            full[sl] = (_block_rows(xf[sl], width, B * stride) @ w).reshape(-1, Q, B * F)

    get_pool().run(task, len(chunks), 1)
    r = J - Q * B
    if r:
        # the tail's r outputs: the top-left corner of the block matrix
        t0, tw = Q * B * stride, (r - 1) * stride + K
        np.matmul(xf[:, t0:t0 + tw].reshape(n, tw * C), w[:tw * C, :r * F],
                  out=out[:, Q * B:].reshape(n, r * F))
    return out


def _unfold_backward(xf, k, stride, g3, need_x, need_k):
    K, C, F = k.shape
    n, J = g3.shape[:2]
    B, Q, width = _blocks(K, stride, J)
    w = _block_kernel(k, stride, B)
    chunks = _chunks(n, Q * width * C * xf.itemsize, Q * width * C * B * F)
    g_full = g3[:, :Q * B].reshape(n, Q, B * F)
    r = J - Q * B
    t0, tw = Q * B * stride, (r - 1) * stride + K
    g_tail = g3[:, Q * B:].reshape(n, r * F)
    parts = [None] * len(chunks)  # each chunk's kernel-gradient product
    gx = np.zeros_like(xf) if need_x else None

    def task(i, j):
        for c in range(i, j):
            sl = chunks[c]
            g2 = g_full[sl].reshape(-1, B * F)
            if need_k:
                parts[c] = _block_rows(xf[sl], width, B * stride).T @ g2
            if need_x:
                cols = (g2 @ w.T).reshape(-1, Q, width, C)
                target = gx[sl]
                for q in range(Q):
                    # overlap-add: row q read samples q*B*stride .. + width - 1
                    target[:, q * B * stride:q * B * stride + width] += cols[:, q]

    get_pool().run(task, len(chunks), 1)
    gk = None
    if need_k:
        gw = sum(parts, np.zeros_like(w))  # in chunk order, whichever thread made each
        if r:
            gw[:tw * C, :r * F] += xf[:, t0:t0 + tw].reshape(n, tw * C).T @ g_tail
        # fold the B shifted copies of the kernel back into one
        gk = gw[:K * C, :F]
        for b in range(1, B):
            gk = gk + gw[b * stride * C:(b * stride + K) * C, b * F:(b + 1) * F]
        gk = gk.reshape(K, C, F)
    if need_x:
        if r:
            gx[:, t0:t0 + tw] += (g_tail @ w[:tw * C, :r * F].T).reshape(n, tw, C)
    return gx, gk


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length pocketfft transforms fast."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _fft_cheaper(T: int, K: int, C: int, F: int, stride: int) -> bool:
    """Shape-only estimate of whether the FFT path beats the blocked unfold.

    Per sequence, the unfold side is costed as the direct J*K*C*F
    multiply-adds (the block matrix's zeros are not counted).  The FFT path
    transforms C input lines of length L = stride * M and F output (or
    gradient) lines of length M, and multiplies W = L/2 + 1 complex (C, F)
    matrices, 4 W C F real multiply-adds.  In units of one direct float32
    multiply-add, a length-n transform of one line costs _FFT_LINE_COST
    n log2 n and a complex float64 multiply-add _FFT_MAC_COST per real one.
    They were fitted with the FFT work on one thread and the unfold's GEMMs
    on threaded OpenBLAS, before both paths ran as tasks of the pool.
    They were fitted on complex128 transforms and products throughout and
    are not refitted for the complex64 backward of float32 tensors, which
    makes the FFT path somewhat cheaper than they estimate.
    """
    M = _fft_length(-(-T // stride))
    L = stride * M
    J = (T - K) // stride + 1
    lines = C * L * math.log2(L) + F * M * math.log2(M)
    return J * K * C * F > _FFT_LINE_COST * lines + _FFT_MAC_COST * 4 * (L // 2 + 1) * C * F


def conv1d(x: Tensor, kernels: Tensor, stride: int = 1, bias: Tensor | None = None,
           activation: str = "linear") -> Tensor:
    """Valid (unpadded) strided 1D convolution along the second-to-last axis.

    x: (..., T, C), kernels: (K, C, F) -> (..., T', F) with
    T' = (T - K) // stride + 1 and y[..., j, f] = sum_{u,c} k[u,c,f] x[..., j*stride+u, c],
    then an (F,) bias and an activation ("relu", "tanh", "linear") in place on y.

    Two paths with one tape node, chosen from the shapes by _fft_cheaper.

    - Blocked unfold + GEMM (after MEC, Cho & Brand, 2017), for short
      kernels: each window row holds B consecutive outputs, the input
      samples x[q*B*stride : q*B*stride + (B-1)*stride + K], so an input
      sample is copied about 1 + (K - stride)/(B*stride) times instead of
      K/stride.  Chunks of whole sequences (_chunks) are the pool's tasks:
      each unfolds its rows and takes one GEMM against a block-Toeplitz
      kernel matrix, built once per call, whose column block b is the
      flattened kernel shifted down b*stride rows; the J mod B tail outputs
      use its top-left corner.  Backward, the chunks' rows^T @ g are summed
      in chunk order into that matrix's shape, whose B shifted blocks fold
      back into (K, C, F), and each chunk's g @ matrix^T is overlap-added
      onto the samples its rows read: J/B adds, not J.  B = 1 (stride >= K,
      or J = 1) is the plain unfold (Chellapilla et al., 2006) on a view of
      the kernels.
    - FFT (Mathieu, Henaff & LeCun, 2014), for long kernels over many
      channels: one (C, F) product per frequency, run as per-thread
      pipelines of the pool (module ``fftconv``).

    Chunks, FFT blocks and GEMM tasks are sized from the shapes alone, so
    results do not depend on the pool size.
    """
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    if kernels.data.ndim != 3:
        raise ShapeError(f"kernels must be (K, C, F), got {kernels.shape}")
    K, C, F = kernels.data.shape
    if x.data.ndim < 2 or x.data.shape[-1] != C:
        raise ShapeError(f"conv1d input {x.shape} incompatible with kernels {kernels.shape}")
    T = x.data.shape[-2]
    if K > T:
        raise ShapeError(f"kernel length {K} exceeds input length {T}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    J = (T - K) // stride + 1
    xf = x.data.reshape(-1, T, C)
    if _fft_cheaper(T, K, C, F, stride):
        from . import fftconv  # compiled on first use
        path_forward, path_backward = fftconv.forward, fftconv.backward
    else:
        path_forward, path_backward = _unfold_forward, _unfold_backward
    out = path_forward(xf, kernels.data, stride, J).reshape(*x.data.shape[:-2], J, F)

    def backward(g):
        g3 = np.ascontiguousarray(g).reshape(-1, J, F)
        gx, gk = path_backward(xf, kernels.data, stride, g3,
                               x.requires_grad, kernels.requires_grad)
        return (None if gx is None else gx.reshape(x.data.shape)), gk

    return _fused(out, (x, kernels), backward, bias, activation)


# ---------------------------------------------------------------------------
# elementwise

def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return _fused(np.array(x.data), (x,), lambda g: (g,), None, "relu")


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return _fused(np.array(x.data), (x,), lambda g: (g,), None, "tanh")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def backward(g):
        return g, g

    return _node(out, (a, b), backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a (F,) bias over the last axis of x (..., F)."""
    x, b = _as_tensor(x), _as_tensor(b)
    out = np.array(x.data, dtype=np.result_type(x.data, b.data))
    return _fused(out, (x,), lambda g: (g,), b, "linear")


# ---------------------------------------------------------------------------
# shape plumbing

def reshape(x: Tensor, shape) -> Tensor:
    """Row-major reshape; gradients are the inverse reshape."""
    x = _as_tensor(x)
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.data.shape),)

    return _node(out, (x,), backward)


def concat_last(parts) -> Tensor:
    """Concatenate on the last axis; all leading axes must agree."""
    parts = [_as_tensor(p) for p in parts]
    lead = parts[0].data.shape[:-1]
    for p in parts[1:]:
        if p.data.shape[:-1] != lead:
            raise ShapeError(
                f"concat leading dims differ: {parts[0].shape} vs {p.shape}")
    out = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.data.shape[-1] for p in parts]
    bounds = np.cumsum([0] + widths)

    def backward(g):
        return tuple(
            g[..., bounds[i]:bounds[i + 1]] if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    return _node(out, tuple(parts), backward)


# ---------------------------------------------------------------------------
# losses

def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error over all elements; gradient is 2 (pred - target) / n."""
    pred = _as_tensor(pred)
    target = np.asarray(target, dtype=pred.dtype)
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    if target.size < 1:
        raise ShapeError("mse needs at least one element")
    diff = pred.data - target
    out = np.asarray((diff * diff).mean(), dtype=pred.dtype)

    def backward(g):
        return (g * 2.0 * diff / diff.size,)

    return _node(out, (pred,), backward)


def l2_penalty(params, coeff: float) -> Tensor:
    """coeff * sum of squared entries over the listed tensors (scalar)."""
    params = [_as_tensor(p) for p in params]
    coeff = float(coeff)
    if coeff < 0:
        raise ShapeError(f"l2 coefficient must be >= 0, got {coeff}")
    total = sum(float((p.data * p.data).sum()) for p in params)
    dtype = params[0].dtype if params else np.float64
    out = np.asarray(coeff * total, dtype=dtype)

    def backward(g):
        return tuple(
            g * 2.0 * coeff * p.data if p.requires_grad else None for p in params
        )

    return _node(out, tuple(params), backward)


# ---------------------------------------------------------------------------
# reverse pass

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if isinstance(p, Tensor) and p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _released(op: str):
    def backward(g):
        raise GraphReleasedError(
            f"{op} node was consumed by an earlier backward; run the forward pass again")
    return backward


def _propagate(node: Tensor, grads: dict) -> None:
    """Run node's closure on its gradient, taken out of grads, add the parent
    gradients into grads and release the node.  No caller's variable holds
    these gradients, so each is freed as soon as its consumer drops it."""
    parent_grads = node._backward(grads.pop(id(node)))
    parents, node._parents, node._backward = node._parents, (), _released(node.name)
    for p, pg in zip(parents, parent_grads):
        if pg is None or not (isinstance(p, Tensor) and p.requires_grad):
            continue
        key = id(p)
        grads[key] = grads[key] + pg if key in grads else pg


@blas_on_caller()
def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) into each reachable parameter's .grad.

    loss must be a scalar.  A parameter's first gradient (a copy) replaces
    its None .grad; parameters not on the path keep theirs, None or not.  The
    graph is consumed: each node drops its parents and closure once its
    closure has run, so activations and gradients are freed as the pass walks
    back.  Outputs keep their .data, but a second backward through any
    released node raises GraphReleasedError.  Holds ``pool.blas_on_caller``.
    """
    if not isinstance(loss, Tensor) or loss.data.shape != ():
        got = getattr(loss, "shape", type(loss))
        raise ShapeError(f"backward requires a scalar loss, got {got}")
    if not loss.requires_grad:
        return

    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    while order:
        node = order.pop()
        if id(node) not in grads:
            continue
        if node._backward is not None:
            _propagate(node, grads)
        else:  # leaf parameter
            g = grads.pop(id(node))
            node.grad = np.array(g) if node.grad is None else node.grad + g


def zero_grad(params) -> None:
    """Clear the gradients: each .grad is None until the next backward reaches it."""
    for p in params:
        p.grad = None
