"""Model assembly: graph-convolutional regressor and CNN reference model.

Both models share the two-layer 1D-conv front end that turns each
station's waveform into a flat feature vector, plus the optional
coordinate-metadata concatenation.  They differ in how cross-station
information flows: the graph model propagates features through two
graph-convolution layers; the reference model mixes the node axis with
one wide convolution spanning all stations.  Both end in a dense trunk
and five linear regression heads (one per intensity measure), each
emitting one value per station.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import types
import typing
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import CheckpointFormatError, ConstructionError, ShapeError
from .layers import (ACTIVATIONS, Conv1DLayer, DenseLayer, GCNLayer, append_metadata,
                     node_feature_reshape)

IM_NAMES = ("pga", "pgv", "sa03", "sa1", "sa3")
MODEL_KINDS = ("tiser", "cnn")

_DTYPES = {"f32": np.float32, "f64": np.float64}

CHECKPOINT_MAGIC = b"TSRG"
CHECKPOINT_VERSION = 1


def _fits(value, hint) -> bool:
    """Whether ``value`` is acceptable for a config field annotated ``hint``."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, hint)


def _within(value, interval: str) -> bool:
    """Whether ``value`` lies in an interval written like ``"[0, 1)"``."""
    lo, hi = map(float, interval[1:-1].split(","))
    return ((lo < value) if interval[0] == "(" else (lo <= value)) and \
        ((value < hi) if interval[-1] == ")" else (value <= hi))


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def check_fields(cfg, error: type[Exception], **limits) -> None:
    """Type- and range-check a frozen config dataclass from its
    ``__post_init__``: the one validator of every spec section.

    Each field must fit its annotation: an int passes for a float, a float
    must be finite, only a bool passes for a bool, and a list or tuple of
    fitting items passes for a ``tuple[...]`` field, which then holds a
    tuple.  ``limits`` maps a field to an interval such as ``"[1, inf)"``
    or to a collection of allowed values; each item of a tuple field must
    meet it, and None meets any.  A failure raises ``error``.
    """
    where = type(cfg).__name__
    for name, hint in _field_types(type(cfg)).items():
        value = getattr(cfg, name)
        if not _fits(value, hint):
            want = hint.__name__ if isinstance(hint, type) else hint
            raise error(f"{where}.{name} must be {want}, got {value!r}")
        if isinstance(value, list):
            value = tuple(value)
            object.__setattr__(cfg, name, value)
        limit = limits.get(name)
        if limit is None or value is None:
            continue
        items, what = (value, f"{name} items") if isinstance(value, tuple) else ((value,), name)
        if isinstance(limit, str):
            ok, want = all(_within(v, limit) for v in items), f"in {limit}"
        else:
            ok, want = all(v in limit for v in items), f"one of {list(limit)}"
        if not ok:
            raise error(f"{where}.{what} must be {want}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the shared architecture.

    conv_* tuples describe the per-node feature extractor in order;
    gcn_* the graph layers (ignored by the CNN reference model).
    """

    input_seconds: int = 10
    sample_rate_hz: int = 100
    channels: int = 3
    conv_filters: tuple[int, ...] = (32, 64)
    conv_kernels: tuple[int, ...] = (125, 125)
    conv_strides: tuple[int, ...] = (2, 2)
    conv_activation: str = "relu"
    gcn_filters: tuple[int, ...] = (64, 64)
    gcn_activations: tuple[str, ...] = ("relu", "tanh")
    dense_width: int = 128
    use_metadata: bool = True
    propagation: str = "renormalized"
    dtype: str = "f32"
    init_seed: int = 0

    def __post_init__(self):
        positive = "[1, inf)"
        check_fields(self, ConstructionError, input_seconds=positive, sample_rate_hz=positive,
                     channels=positive, conv_filters=positive, conv_kernels=positive,
                     conv_strides=positive, conv_activation=ACTIVATIONS, gcn_filters=positive,
                     gcn_activations=ACTIVATIONS, dense_width=positive,
                     propagation=("renormalized", "laplacian"), dtype=_DTYPES,
                     init_seed="[0, inf)")
        if not 0 < len(self.conv_filters) == len(self.conv_kernels) == len(self.conv_strides):
            raise ConstructionError("conv spec tuples must be non-empty and of equal length")
        if len(self.gcn_filters) != len(self.gcn_activations):
            raise ConstructionError("gcn spec tuples must have equal length")

    @property
    def input_length(self) -> int:
        return self.input_seconds * self.sample_rate_hz

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    def conv_chain(self) -> list[int]:
        """Sequence lengths [T, T1, T2, ...] through the conv stack."""
        lengths = [self.input_length]
        for i, (k, s) in enumerate(zip(self.conv_kernels, self.conv_strides)):
            if k > lengths[-1]:
                raise ConstructionError(
                    f"conv{i + 1}: kernel {k} is longer than its input of {lengths[-1]}")
            lengths.append((lengths[-1] - k) // s + 1)
        return lengths

    def flat_feature_width(self) -> int:
        """Per-node feature width after the conv stack and reshape."""
        return self.conv_chain()[-1] * self.conv_filters[-1]

    def node_feature_width(self) -> int:
        return self.flat_feature_width() + (2 if self.use_metadata else 0)


class Model:
    """Layer stack with a named-parameter registry and five regression heads."""

    def __init__(self, kind: str, cfg: ModelConfig, n_nodes: int):
        if kind not in MODEL_KINDS:
            raise ConstructionError(f"unknown model kind {kind!r}")
        if not isinstance(n_nodes, (int, np.integer)) or isinstance(n_nodes, bool) \
                or n_nodes < 1:
            raise ConstructionError(f"n_nodes must be an int of at least 1, got {n_nodes!r}")
        self.kind = kind
        self.cfg = cfg
        self.n_nodes = int(n_nodes)
        dtype = cfg.np_dtype
        rng = np.random.default_rng(cfg.init_seed)

        cfg.conv_chain()  # validates the temporal chain up front
        self.convs: list[Conv1DLayer] = []
        c_in = cfg.channels
        for i, (f, k, s) in enumerate(zip(cfg.conv_filters, cfg.conv_kernels, cfg.conv_strides)):
            self.convs.append(Conv1DLayer(k, c_in, f, s, cfg.conv_activation, rng,
                                          dtype=dtype, name=f"conv{i + 1}"))
            c_in = f

        width = cfg.node_feature_width()
        if kind == "tiser":
            self.gcns: list[GCNLayer] = []
            f_in = width
            for i, (f, act) in enumerate(zip(cfg.gcn_filters, cfg.gcn_activations)):
                self.gcns.append(GCNLayer(f_in, f, act, rng, dtype=dtype, name=f"gcn{i + 1}"))
                f_in = f
            trunk_in = self.n_nodes * f_in
            self.cross = None
        else:
            # one conv spanning the whole node axis gathers cross-station information
            self.gcns = []
            self.cross = Conv1DLayer(self.n_nodes, width, 64, 1, cfg.conv_activation, rng,
                                     dtype=dtype, name="cross")
            trunk_in = 64

        self.dense = DenseLayer(trunk_in, cfg.dense_width, "relu", rng, dtype=dtype, name="dense")
        self.heads = [
            DenseLayer(cfg.dense_width, self.n_nodes, "linear", rng, dtype=dtype, name=f"head_{nm}")
            for nm in IM_NAMES
        ]

    # -- parameters ---------------------------------------------------------

    def _layers(self):
        layers = list(self.convs)
        layers.extend(self.gcns)
        if self.cross is not None:
            layers.append(self.cross)
        layers.append(self.dense)
        layers.extend(self.heads)
        return layers

    def params(self) -> list[ad.Tensor]:
        return [p for layer in self._layers() for p in layer.params()]

    def l2_params(self) -> list[ad.Tensor]:
        return [p for layer in self._layers() for p in layer.l2_params()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    # -- forward ------------------------------------------------------------

    def _prop_array(self, prop) -> np.ndarray:
        m = np.asarray(prop)
        if m.shape != (self.n_nodes, self.n_nodes):
            raise ShapeError(f"propagation matrix {m.shape} does not match n_nodes={self.n_nodes}")
        return m.astype(self.cfg.np_dtype)

    def forward(self, prop, x: np.ndarray, z: np.ndarray) -> ad.Tensor:
        """Batched forward pass: x (B, N, T, C), z (N, 2) -> Tensor (B, 5, N)."""
        cfg = self.cfg
        x = np.asarray(x, dtype=cfg.np_dtype)
        if x.ndim != 4 or x.shape[1] != self.n_nodes or x.shape[2] != cfg.input_length \
                or x.shape[3] != cfg.channels:
            raise ShapeError(
                f"input {x.shape} does not match (B, {self.n_nodes}, "
                f"{cfg.input_length}, {cfg.channels})")
        b = x.shape[0]

        h = ad.Tensor(x)
        for conv in self.convs:
            h = conv.apply(h)
        h = node_feature_reshape(h)
        h = append_metadata(h, z, enabled=cfg.use_metadata)

        if self.kind == "tiser":
            m = self._prop_array(prop)
            for gcn in self.gcns:
                h = gcn.apply(m, h)
            h = ad.reshape(h, (b, h.shape[-2] * h.shape[-1]))
        else:
            h = self.cross.apply(h)          # (B, 1, 64)
            h = ad.reshape(h, (b, h.shape[-1]))

        h = self.dense.apply(h)
        outs = [head.apply(h) for head in self.heads]   # each (B, N)
        stacked = ad.concat_last(outs)                   # (B, 5N)
        return ad.reshape(stacked, (b, len(IM_NAMES), self.n_nodes))


def build_tiser_gcn(cfg: ModelConfig, n_nodes: int) -> Model:
    """Graph-convolutional regressor: conv x2 -> reshape -> (+meta) -> GCN stack
    -> flatten -> dense -> five linear heads of size n_nodes."""
    return Model("tiser", cfg, n_nodes)


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, meta JSON, then raw little-endian f64
# parameter payloads in registry order.

def save_checkpoint(model: Model, path) -> None:
    params = model.params()
    meta = {
        "kind": model.kind,
        "n_nodes": model.n_nodes,
        "cfg": asdict(model.cfg),
        "params": [{"name": p.name, "shape": list(p.shape)} for p in params],
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _unpack(fmt: str, raw: bytes, off: int) -> tuple:
    """struct.unpack_from that reports a short read as a format error."""
    end = off + struct.calcsize(fmt)
    if end > len(raw):
        raise CheckpointFormatError(f"truncated checkpoint at offset {off}")
    return struct.unpack_from(fmt, raw, off)


def _is_param_entry(entry) -> bool:
    """Whether a meta ``params`` item is {name: str, shape: [int >= 0]}."""
    return isinstance(entry, dict) and isinstance(entry.get("name"), str) \
        and isinstance(entry.get("shape"), list) \
        and all(type(d) is int and d >= 0 for d in entry["shape"])


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            f"bad magic at offset 0: expected {CHECKPOINT_MAGIC!r}, got {raw[:4]!r}")
    off = 4
    version, = _unpack("<I", raw, off)
    off += 4
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    blob_len, = _unpack("<I", raw, off)
    off += 4
    try:
        meta = json.loads(raw[off:off + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"corrupt metadata blob at offset {off}: {exc}") from None
    off += blob_len

    try:
        model = Model(meta["kind"], ModelConfig(**meta["cfg"]), meta["n_nodes"])
        entries = meta["params"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(
            f"metadata does not build a model: {type(exc).__name__}: {exc}") from None
    if not (isinstance(entries, list) and all(map(_is_param_entry, entries))):
        raise CheckpointFormatError(
            "metadata params must be a list of {name: str, shape: [int >= 0]}")
    registry = {p.name: p for p in model.params()}
    # each record's header is checked against its entry and the rebuilt model,
    # which bounds its ndim and byte count, before its payload is read
    for entry in entries:
        name_len, = _unpack("<I", raw, off)
        off += 4
        name = raw[off:off + name_len].decode("utf-8", errors="replace")
        off += name_len
        ndim, = _unpack("<I", raw, off)
        off += 4
        if name != entry["name"] or ndim != len(entry["shape"]) \
                or list(_unpack(f"<{ndim}I", raw, off)) != entry["shape"]:
            raise CheckpointFormatError(f"parameter record mismatch for {entry['name']!r}")
        off += 4 * ndim
        shape = tuple(entry["shape"])
        if name not in registry or registry[name].shape != shape:
            raise CheckpointFormatError(f"parameter {name!r} does not fit the rebuilt model")
        count = math.prod(shape)
        if 8 * count > len(raw) - off:
            raise CheckpointFormatError(f"truncated parameter payload at offset {off}")
        values = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape)
        off += 8 * count
        with np.errstate(over="ignore"):
            values = values.astype(model.cfg.np_dtype)
        if not np.isfinite(values).all():
            raise CheckpointFormatError(
                f"parameter {name!r} holds values that are not finite in {model.cfg.dtype}")
        registry[name].data = values
    if off != len(raw):
        raise CheckpointFormatError(f"{len(raw) - off} trailing bytes after offset {off}")
    return model
