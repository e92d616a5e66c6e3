"""Span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
traced function at every place that holds a reference to it: the defining
module, every package module that imported it by name, the layer
activation table, and the ``_act`` attribute of already-built layers.
``uninstall`` puts every original back.

Each span records its name, start, end, parent and the layer that was
applying when it opened: a layer name, ``"model"`` for the rest of
``Model.forward``, or None outside the model.  Backward time is attributed
to an op by wrapping the closure on the tape node the op returns; that
closure keeps the layer that was active when the op ran forward.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc

PACKAGE = "tisergcn"
MODULES = ("autodiff", "layers", "model", "train", "data", "geo", "baselines", "cli")

# op name -> metric group
OPS = {
    "conv1d": "conv1d",
    "matmul": "matmul",
    "mix_nodes": "mix_nodes",
    "relu": "elementwise",
    "tanh": "elementwise",
    "add": "elementwise",
    "add_bias": "elementwise",
    "reshape": "elementwise",
    "concat_last": "elementwise",
    "mse_loss": "loss",
    "l2_penalty": "loss",
}

# (module, function) -> span name, for calls that are not tape ops
CALLS = {
    ("autodiff", "backward"): "ad.backward",
    ("autodiff", "zero_grad"): "ad.zero_grad",
    ("model", "Model.forward"): "model.forward",
    ("train", "train"): "train.train",
    ("train", "predict_batched"): "train.predict",
    ("train", "rmsprop_step"): "train.optimizer",
    ("train", "_dataset_mse"): "train.validate",
    ("train", "run_protocol"): "train.run_protocol",
    ("data", "synth_dataset"): "data.synth",
    ("data", "synth_event_waveforms"): "data.waveforms",
    ("data", "compute_ims_batch"): "data.ims",
    ("data", "_newmark_peak_abs_accel"): "data.newmark",
    ("data", "normalize_by_input_max"): "data.normalize",
    ("data", "save_dataset"): "data.save",
    ("data", "load_dataset"): "data.load",
    ("geo", "build_adjacency"): "geo.build_adjacency",
    ("geo", "propagation_matrix"): "geo.propagation",
    ("baselines", "dataset_features"): "baselines.features",
    ("baselines", "grid_search_cv"): "baselines.grid_search",
    ("baselines", "knn_fit_predict"): "baselines.knn_predict",
    ("cli", "provenance"): "cli.provenance",
    ("cli", "write_json"): "cli.artifacts",
    ("cli", "write_csv"): "cli.artifacts",
    ("cli", "write_run_log"): "cli.artifacts",
    ("cli", "_write_report_artifacts"): "cli.artifacts",
}

LAYER_CLASSES = ("Conv1DLayer", "GCNLayer", "DenseLayer")
LAYER_NAMES = ("conv1", "conv2", "gcn1", "gcn2", "dense", "heads")

# span -> the spans one of which must enclose it; a span outside them was
# reached through a binding site the tracer missed
HOLDERS = {
    "model.forward": ("train.train", "train.predict"),
    "ad.backward": ("train.train",),
    "data.waveforms": ("data.synth",),
    "data.ims": ("data.synth",),
}

# the reported figures that partition a training step (validation included)
STEP_PARTS = (
    *(f"layers.{n}.{d}_s" for n in LAYER_NAMES for d in ("fwd", "bwd")),
    "model.glue_s", "autodiff.loss_s", "autodiff.backward.overhead_s",
    "train.optimizer_s", "train.zero_grad_s", "train.validate_s", "train.unattributed_s",
)

MB = 1e6


def _layer_name(layer) -> str:
    first = layer.params()[0].name            # e.g. "conv1.kernels", "head_pga.W"
    name = first.split(".")[0]
    return "heads" if name.startswith("head_") else name


def _conv_flops(args, kwargs) -> int:
    """Flops of one conv1d forward, 2 * outputs * K * C, from the shapes."""
    x, kernels = args[0], args[1]
    stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
    k, c, f = kernels.shape
    t = x.shape[-2]
    rows = x.data.size // (t * c)
    return 2 * rows * ((t - k) // stride + 1) * k * c * f


def package_modules() -> dict:
    """Module objects by short name; ``tisergcn.train`` the attribute is the
    function, so the modules are looked up by their full import path."""
    return {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


class Patcher:
    """Replaces references inside the package and puts them back."""

    def __init__(self):
        mods = package_modules()
        self.namespaces = [importlib.import_module(PACKAGE), *mods.values()]
        self.activations = mods["layers"].ACTIVATIONS
        self._saved: list[tuple[object, object, object]] = []

    def set(self, obj, key, value) -> None:
        if isinstance(obj, dict):
            self._saved.append((obj, key, obj[key]))
            obj[key] = value
        else:
            self._saved.append((obj, key, getattr(obj, key)))
            setattr(obj, key, value)

    def rebind(self, original, wrapper) -> None:
        """Point every module-level name and activation-table entry that
        refers to ``original`` at ``wrapper``."""
        for mod in self.namespaces:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, wrapper)
        for key, value in list(self.activations.items()):
            if value is original:
                self.set(self.activations, key, wrapper)

    def restore(self) -> None:
        for obj, key, value in reversed(self._saved):
            if isinstance(obj, dict):
                obj[key] = value
            else:
                setattr(obj, key, value)
        self._saved = []


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.mods = package_modules()
        self.patcher = Patcher()
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        # span: [name, start, end, parent, layer]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._layer: list[str] = []
        self.counts: dict[str, float] = {}
        self.conv_peak = 0

    def _count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str, layer: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if layer is None and self._layer:
            layer = self._layer[-1]
        self.spans.append([name, time.perf_counter(), None, parent, layer])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _in(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- wrappers ---------------------------------------------------------------

    def _wrap_call(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if name == "data.newmark":
                accel = args[0]
                tracer._count("data.ims_rows", accel.size // accel.shape[-1])
            elif name == "ad.backward":
                tracer._check_tape(args[0])
            idx = tracer._open(name)
            if name == "model.forward":
                tracer._layer.append("model")
            try:
                out = fn(*args, **kwargs)
            finally:
                if name == "model.forward":
                    tracer._layer.pop()
                tracer._close(idx)
            if name == "data.save":
                ds = args[1]
                tracer._count("data.io_bytes", 4 * (ds.X.size + ds.Y.size))
            elif name == "data.load":
                tracer._count("data.io_bytes", 4 * (out.X.size + out.Y.size))
            elif name == "model.forward" and "model.params" not in tracer.counts:
                tracer.counts["model.params"] = args[0].param_count()
            elif name == "ad.backward" and tracer._in("train.train") \
                    and not tracer._in("train.predict"):
                tracer._count("train.steps", 1)
            return out

        return traced

    def _wrap_backward(self, bw, name, layer, conv_flops=0):
        tracer = self

        def traced_backward(g):
            conv = name == "conv1d"
            idx = tracer._open(f"{name}.bwd", layer)
            if conv:
                tracemalloc.start()
            try:
                grads = bw(g)
            finally:
                if conv:
                    tracer.conv_peak = max(tracer.conv_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._close(idx)
            if conv:
                # kernel gradient, plus the input gradient when one was computed
                tracer._count("conv.flops", conv_flops * sum(gr is not None for gr in grads))
            return grads

        traced_backward.traced = True
        return traced_backward

    def _check_tape(self, loss) -> None:
        """Count the tape nodes behind ``loss`` whose closure is not traced:
        they came from an op called through a reference the tracer missed.
        Its own span keeps the walk out of the step's unattributed time."""
        tensor = self.mods["autodiff"].Tensor
        idx = self._open("trace.tape_check")
        seen, stack, untraced = set(), [loss], 0
        while stack:
            node = stack.pop()
            if id(node) in seen or not isinstance(node, tensor) or node._backward is None:
                continue
            seen.add(id(node))
            untraced += not getattr(node._backward, "traced", False)
            stack.extend(node._parents)
        self._close(idx)
        self._count("tape.untraced", untraced)

    def _wrap_op(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            conv = name == "conv1d"
            idx = tracer._open(name)
            if conv:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if conv:
                    tracer.conv_peak = max(tracer.conv_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._close(idx)
            flops = 0
            if conv:
                flops = _conv_flops(args, kwargs)
                tracer._count("conv.flops", flops)
                tracer._count("conv.calls", 1)
            if out._backward is None:
                return out
            layer = tracer._layer[-1] if tracer._layer else None
            ctx = "predict" if tracer._in("train.predict") else \
                ("step" if tracer._in("train.train") else "other")
            tracer._count(f"tape.{ctx}", 1)
            out._backward = tracer._wrap_backward(out._backward, name, layer, flops)
            return out

        return traced

    def _wrap_apply(self, fn):
        tracer = self

        def traced_apply(layer, *args, **kwargs):
            name = _layer_name(layer)
            tracer._layer.append(name)
            idx = tracer._open(f"layer.{name}", name)
            try:
                out = fn(layer, *args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._layer.pop()
            tracer._count(f"layers.{name}.out_bytes", out.data.nbytes)
            return out

        return traced_apply

    # -- installation -------------------------------------------------------------

    def install(self, models=()) -> None:
        """Wrap every traced function; ``models`` are already-built models
        whose layers captured their activation functions at construction."""
        ad = self.mods["autodiff"]
        wrappers = {}
        for op in OPS:
            original = getattr(ad, op)
            wrappers[original] = self._wrap_op(original, op)
        for (mod, attr), name in CALLS.items():
            if attr != "Model.forward":
                original = getattr(self.mods[mod], attr)
                wrappers[original] = self._wrap_call(original, name)
        for original, wrapper in wrappers.items():
            self.patcher.rebind(original, wrapper)
        model_cls = self.mods["model"].Model
        self.patcher.set(model_cls, "forward",
                         self._wrap_call(model_cls.forward, "model.forward"))
        for cls_name in LAYER_CLASSES:
            cls = getattr(self.mods["layers"], cls_name)
            self.patcher.set(cls, "apply", self._wrap_apply(cls.apply))
        for model in models:
            for layer in model._layers():
                if layer._act in wrappers:
                    self.patcher.set(layer, "_act", wrappers[layer._act])

    def uninstall(self) -> None:
        self.patcher.restore()

    # -- aggregation --------------------------------------------------------------

    def _ancestors(self) -> list[frozenset]:
        out: list[frozenset] = []
        for s in self.spans:
            p = s[3]
            out.append(out[p] | {self.spans[p][0]} if p >= 0 else frozenset())
        return out

    def check(self, required=()) -> list[str]:
        """Problems with the attribution of what was recorded; none if empty.

        - every span named in ``required`` was recorded, and every span in
          ``HOLDERS`` ran inside one of its holders;
        - every tape node a traced backward replayed came from a traced op;
        - the figures in ``STEP_PARTS``, taken over the training steps,
          add up to the time spent in ``train()``.
        """
        problems = []
        names = {s[0] for s in self.spans}
        missing = [n for n in required if n not in names]
        if missing:
            problems.append(f"no span for {missing}")
        for s, anc in zip(self.spans, self._ancestors()):
            holders = HOLDERS.get(s[0], ())
            if holders and anc.isdisjoint(holders):
                problems.append(f"{s[0]} ran outside {' or '.join(holders)}")
                break
        untraced = self.counts.get("tape.untraced", 0)
        if untraced:
            problems.append(f"backward replayed {untraced} tape nodes of untraced ops")
        total = sum(s[2] - s[1] for s in self.spans if s[0] == "train.train")
        if total:
            m = self.metrics(step_only=True)
            parts = sum(m[k] for k in STEP_PARTS) + sum(
                s[2] - s[1] for s in self.spans if s[0] == "trace.tape_check")
            if abs(parts - total) > 1e-6 * max(total, 1.0):
                problems.append(f"step figures add up to {parts:.6f} s, train() took {total:.6f} s")
        return problems

    def metrics(self, step_only: bool = False) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset;
        with ``step_only``, of the spans inside ``train()`` but outside its
        validation, except ``train.unattributed_s``, which is ``train()``'s
        own time either way."""
        all_spans = self.spans
        children_time = [0.0] * len(all_spans)
        for s in all_spans:
            if s[3] >= 0:
                children_time[s[3]] += s[2] - s[1]
        rows = [(s, anc) for s, anc in zip(all_spans, self._ancestors())
                if not step_only or ("train.train" in anc and "train.validate" not in anc)]

        def named(*names):
            # outermost spans only, so nested calls of one kind count once
            return sum(s[2] - s[1] for s, anc in rows if s[0] in names and anc.isdisjoint(names))

        def closures(layer):
            return sum(s[2] - s[1] for s, _ in rows if s[0].endswith(".bwd") and s[4] == layer)

        m: dict[str, float] = {}
        groups: dict[str, list[str]] = {}
        for op, group in OPS.items():
            groups.setdefault(group, []).append(op)
        for group in ("conv1d", "matmul", "mix_nodes", "elementwise"):
            m[f"autodiff.{group}.fwd_s"] = named(*groups[group])
            m[f"autodiff.{group}.bwd_s"] = named(*(f"{op}.bwd" for op in groups[group]))
        conv_s = m["autodiff.conv1d.fwd_s"] + m["autodiff.conv1d.bwd_s"]
        flops = self.counts.get("conv.flops", 0)
        m["autodiff.conv1d.calls"] = self.counts.get("conv.calls", 0)
        m["autodiff.conv1d.flops"] = flops
        m["autodiff.conv1d.gflop_per_s"] = flops / conv_s / 1e9 if conv_s > 0 else 0.0
        m["autodiff.conv1d.peak_mb"] = self.conv_peak / MB
        # ops outside the model: the losses and the add that sums them
        m["autodiff.loss_s"] = closures(None) + sum(
            s[2] - s[1] for s, _ in rows if s[0] in OPS and s[4] is None)

        backward_s = named("ad.backward")
        closure_s = sum(s[2] - s[1] for s, _ in rows
                        if s[0].endswith(".bwd") and all_spans[s[3]][0] == "ad.backward")
        steps = self.counts.get("train.steps", 0)
        m["autodiff.backward_s"] = backward_s
        m["autodiff.backward.overhead_s"] = backward_s - closure_s
        m["autodiff.tape_nodes_per_step"] = self.counts.get("tape.step", 0) / steps if steps else 0
        m["autodiff.predict_tape_nodes"] = self.counts.get("tape.predict", 0)

        for layer in LAYER_NAMES:
            m[f"layers.{layer}.fwd_s"] = named(f"layer.{layer}")
            m[f"layers.{layer}.bwd_s"] = closures(layer)
            m[f"layers.{layer}.out_mb"] = self.counts.get(f"layers.{layer}.out_bytes", 0) / MB

        m["model.forward_s"] = named("model.forward")
        m["model.glue_s"] = (m["model.forward_s"] + closures("model")
                             - sum(m[f"layers.{layer}.fwd_s"] for layer in LAYER_NAMES))
        m["model.params"] = self.counts.get("model.params", 0)

        def in_training(name):
            return sum(s[2] - s[1] for s, anc in rows
                       if s[0] == name and "train.train" in anc and "train.predict" not in anc)

        m["train.forward_s"] = in_training("model.forward")
        m["train.backward_s"] = in_training("ad.backward")
        m["train.optimizer_s"] = named("train.optimizer")
        m["train.zero_grad_s"] = named("ad.zero_grad")
        m["train.validate_s"] = named("train.validate")
        m["train.unattributed_s"] = sum(s[2] - s[1] - children_time[i]
                                        for i, s in enumerate(all_spans) if s[0] == "train.train")

        m["data.waveforms_s"] = named("data.waveforms")
        m["data.ims_s"] = named("data.ims")
        m["data.ims_rows"] = self.counts.get("data.ims_rows", 0)
        m["data.normalize_s"] = named("data.normalize")
        m["data.save_s"] = named("data.save")
        m["data.load_s"] = named("data.load")
        m["data.io_mb"] = self.counts.get("data.io_bytes", 0) / MB

        m["geo.build_adjacency_s"] = named("geo.build_adjacency")
        m["geo.propagation_s"] = named("geo.propagation")
        m["baselines.features_s"] = named("baselines.features")
        m["baselines.grid_search_s"] = named("baselines.grid_search")
        m["baselines.knn_predict_s"] = named("baselines.knn_predict")
        m["cli.provenance_s"] = named("cli.provenance")
        m["cli.artifacts_s"] = named("cli.artifacts")
        return m


# metric name -> unit
UNITS = {
    **{f"autodiff.{g}.{d}_s": "s" for g in ("conv1d", "matmul", "mix_nodes", "elementwise")
       for d in ("fwd", "bwd")},
    "autodiff.conv1d.calls": "count",
    "autodiff.conv1d.flops": "flop",
    "autodiff.conv1d.gflop_per_s": "GFLOP/s",
    "autodiff.conv1d.peak_mb": "MB",
    "autodiff.loss_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.backward.overhead_s": "s",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.predict_tape_nodes": "count",
    **{f"layers.{n}.{k}": u for n in LAYER_NAMES
       for k, u in (("fwd_s", "s"), ("bwd_s", "s"), ("out_mb", "MB"))},
    "model.forward_s": "s",
    "model.glue_s": "s",
    "model.params": "count",
    **{f"train.{k}_s": "s" for k in ("forward", "backward", "optimizer", "zero_grad",
                                     "validate", "unattributed")},
    "data.waveforms_s": "s",
    "data.ims_s": "s",
    "data.ims_rows": "count",
    "data.normalize_s": "s",
    "data.save_s": "s",
    "data.load_s": "s",
    "data.io_mb": "MB",
    "geo.build_adjacency_s": "s",
    "geo.propagation_s": "s",
    "baselines.features_s": "s",
    "baselines.grid_search_s": "s",
    "baselines.knn_predict_s": "s",
    "cli.provenance_s": "s",
    "cli.artifacts_s": "s",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly from run to run
EXACT_COUNTS = ("autodiff.conv1d.flops", "autodiff.conv1d.calls",
                "autodiff.tape_nodes_per_step", "autodiff.predict_tape_nodes",
                "data.ims_rows", "model.params")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
