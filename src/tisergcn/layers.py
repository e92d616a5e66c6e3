"""Composable layers: per-node 1D convolutions, graph convolution, dense.

Every layer owns its parameter tensors and exposes ``params()`` (all
trainables) and ``l2_params()`` (the kernels subject to the L2 penalty;
biases are exempt).  Layers are immutable after construction except for
in-place parameter updates performed by an optimizer.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConstructionError, ShapeError

ACTIVATIONS = {
    "relu": ad.relu,
    "tanh": ad.tanh,
    "linear": lambda t: t,
}


def _activation(name: str):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ShapeError(f"unknown activation {name!r}") from None


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    """Each layer's first and largest allocation, so a valid config too large
    to allocate ends here as a ConstructionError."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    try:
        return rng.uniform(-limit, limit, size=shape).astype(dtype)
    except MemoryError as exc:
        raise ConstructionError(f"weights of shape {shape} do not fit in memory: {exc}") from None


class Conv1DLayer:
    """Strided valid 1D convolution with shared weights across nodes.

    kernels: (K, C_in, F); bias: (F,).  One ``conv1d`` tape node applied to
    (..., T, C_in): the same filter bank runs over every (station, event).
    """

    def __init__(self, kernel_size: int, in_channels: int, filters: int, stride: int,
                 activation: str, rng: np.random.Generator, dtype=np.float64, name: str = "conv"):
        self.stride = int(stride)
        self.activation = activation
        self._act = _activation(activation)
        fan_in = kernel_size * in_channels
        fan_out = kernel_size * filters
        self.kernels = ad.parameter(
            glorot_uniform(rng, (kernel_size, in_channels, filters), fan_in, fan_out, dtype),
            name=f"{name}.kernels")
        self.bias = ad.parameter(np.zeros(filters, dtype=dtype), name=f"{name}.bias")

    def apply(self, x: ad.Tensor) -> ad.Tensor:
        return ad.conv1d(x, self.kernels, self.stride, self.bias, self.activation)

    def params(self):
        return [self.kernels, self.bias]

    def l2_params(self):
        return [self.kernels]


class GCNLayer:
    """Graph convolution: activation(M @ H @ W), no bias.

    M is the constant propagation matrix; W: (F_in, F_out).
    """

    def __init__(self, in_features: int, out_features: int, activation: str,
                 rng: np.random.Generator, dtype=np.float64, name: str = "gcn"):
        self.activation = activation
        self._act = _activation(activation)
        self.W = ad.parameter(
            glorot_uniform(rng, (in_features, out_features), in_features, out_features, dtype),
            name=f"{name}.W")

    def apply(self, prop: np.ndarray, h: ad.Tensor) -> ad.Tensor:
        # (M H) W == M (H W); applying W first keeps the mix on the small width
        return self._act(ad.mix_nodes(prop, ad.matmul(h, self.W)))

    def params(self):
        return [self.W]

    def l2_params(self):
        return [self.W]


class DenseLayer:
    """Fully connected layer: activation(x @ W + b), one ``matmul`` tape node."""

    def __init__(self, in_features: int, out_features: int, activation: str,
                 rng: np.random.Generator, dtype=np.float64, name: str = "dense"):
        self.activation = activation
        self._act = _activation(activation)
        self.W = ad.parameter(
            glorot_uniform(rng, (in_features, out_features), in_features, out_features, dtype),
            name=f"{name}.W")
        self.bias = ad.parameter(np.zeros(out_features, dtype=dtype), name=f"{name}.bias")

    def apply(self, x: ad.Tensor) -> ad.Tensor:
        return ad.matmul(x, self.W, self.bias, self.activation)

    def params(self):
        return [self.W, self.bias]

    def l2_params(self):
        return []


def node_feature_reshape(h: ad.Tensor) -> ad.Tensor:
    """(..., N, T, F) -> (..., N, T*F), row-major per node."""
    if h.data.ndim < 3:
        raise ShapeError(f"expected at least (N, T, F), got {h.shape}")
    *lead, t, f = h.shape
    return ad.reshape(h, (*lead, t * f))


def standardize_coords(z: np.ndarray) -> np.ndarray:
    """Z-score each coordinate column over the station set; zero variance -> 0."""
    z = np.asarray(z, dtype=np.float64)
    mean = z.mean(axis=0)
    std = z.std(axis=0)
    out = np.zeros_like(z)
    nz = std > 0
    out[:, nz] = (z[:, nz] - mean[nz]) / std[nz]
    return out


def append_metadata(h: ad.Tensor, z: np.ndarray, enabled: bool = True) -> ad.Tensor:
    """Concatenate standardized per-node coordinates to the feature axis.

    h: (..., N, Fh), z: (N, 2) raw degrees -> (..., N, Fh + 2).  With
    ``enabled=False`` the features pass through unchanged.
    """
    if not enabled:
        return h
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] != h.data.shape[-2]:
        raise ShapeError(f"metadata rows {z.shape} do not match node axis of {h.shape}")
    z_std = standardize_coords(z).astype(h.dtype)
    z_b = np.broadcast_to(z_std, (*h.data.shape[:-1], z_std.shape[-1]))
    return ad.concat_last([h, ad.Tensor(np.ascontiguousarray(z_b))])
