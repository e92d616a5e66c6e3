"""The three benchmark workloads.

Each workload has a set-up (input generation and model construction,
untimed by the pass clock) and a pass: a fixed amount of work that the
runner repeats until the run's time budget is spent.  A pass returns its
stage timings and the outputs that ``verify`` checks.

Inputs come from a pool of ``POOL`` input sets.  The run's seed selects
one (``seed % POOL``); references for every set were recorded at the
commit that defined the benchmark and live in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import shutil
import time

import numpy as np

from tracing import Patcher, package_modules

POOL = 16
STATION_SEED = 7
GRAPH_K = 0.3

# Tolerances admit reordered f32 sums and reject a lower working
# precision.  Measured over the 16 input sets with a chunked-im2col conv
# forward against rounding the conv inputs to f16:
# - the probe (predictions and gradients at the initial weights) moves
#   by at most 3e-6 under the reorder and by at least 2e-3 under f16;
# - after one RMSprop step, which moves each weight by about lr * sign(g),
#   the reorder flips near-zero gradient entries and moves predictions by
#   up to 3e-4, as f16 does, so trained outputs are checked loosely;
# - twenty CV training steps move cv_test_mse by up to 6e-4 under the
#   reorder, so that check guards accuracy, not precision.
LOSS_RTOL = 1e-5
PRED_RTOL = 1e-2
PROBE_RTOL = 5e-5
CV_MSE_RTOL = 1e-2
PROBE_EVENTS = 2
LABEL_ATOL = 2e-6        # log10 units; a few f32 ulps at the label magnitudes
KNN_RTOL = 1e-9

SIZES = {
    "full": {
        "train_default": {"n_stations": 20, "n_events": 20, "epochs": 1, "model": {},
                          "synth": {}},
        "synth_default": {"synth": {"n_events": 32}, "checked_events": 2},
        "cv_small": {
            "spec": {"synth": {"n_stations": 10, "n_events": 60},
                     "model": {"conv_filters": [8, 16], "conv_kernels": [32, 32],
                               "conv_strides": [4, 4]},
                     "train": {"max_epochs": 10, "patience": 10, "folds": 2, "repeats": 1}},
        },
    },
    # a few milliseconds per pass, for the self-test
    "tiny": {
        "train_default": {
            "n_stations": 5, "n_events": 4, "epochs": 2,
            "synth": {"input_seconds": 2, "total_seconds": 4.0, "sample_rate_hz": 25},
            "model": {"input_seconds": 2, "sample_rate_hz": 25, "conv_filters": (2, 3),
                      "conv_kernels": (5, 5), "conv_strides": (2, 2), "gcn_filters": (4, 4),
                      "dense_width": 8},
        },
        "synth_default": {"synth": {"n_stations": 4, "n_events": 3, "input_seconds": 2,
                                    "total_seconds": 4.0, "sample_rate_hz": 25},
                          "checked_events": 2},
        "cv_small": {
            "spec": {"synth": {"n_stations": 4, "n_events": 12, "input_seconds": 2,
                               "total_seconds": 4.0, "sample_rate_hz": 25},
                     "model": {"conv_filters": [2, 3], "conv_kernels": [5, 5],
                               "conv_strides": [2, 2], "gcn_filters": [4, 4],
                               "dense_width": 8},
                     "train": {"max_epochs": 2, "patience": 10, "folds": 2, "repeats": 1,
                               "batch_size": 4}},
        },
    },
}


class StageClock:
    """Seconds and events inside ``train()`` and ``predict_batched()``.

    Installed at every binding site of the two functions.  Prediction that
    runs inside ``train()`` (validation) is charged to prediction only.
    """

    def __init__(self):
        self.mods = package_modules()
        self.patcher = Patcher()
        self.reset()

    def reset(self) -> None:
        self.train_s = self.predict_s = 0.0
        self.train_events = self.predict_events = 0

    def install(self) -> None:
        tr = self.mods["train"]
        train, predict = tr.train, tr.predict_batched
        clock = self

        def timed_train(model, ds, prop, cfg, train_idx=None, *args, **kwargs):
            before = clock.predict_s
            start = time.perf_counter()
            hist = train(model, ds, prop, cfg, train_idx, *args, **kwargs)
            clock.train_s += time.perf_counter() - start - (clock.predict_s - before)
            n = ds.n_events if train_idx is None else len(train_idx)
            clock.train_events += n * len(hist.train_loss)
            return hist

        def timed_predict(model, prop, X, *args, **kwargs):
            start = time.perf_counter()
            out = predict(model, prop, X, *args, **kwargs)
            clock.predict_s += time.perf_counter() - start
            clock.predict_events += X.shape[0]
            return out

        self.patcher.rebind(train, timed_train)
        self.patcher.rebind(predict, timed_predict)

    def uninstall(self) -> None:
        self.patcher.restore()

    def rates(self) -> dict[str, float]:
        out = {}
        if self.train_events:
            out["train_events_per_s"] = self.train_events / self.train_s
        if self.predict_events:
            out["predict_events_per_s"] = self.predict_events / self.predict_s
        return out


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _quiet_cli(cli, argv) -> int:
    """``tisergcn <argv>`` in process; the command prints its output path."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _missing(directory, names) -> list[str]:
    return [n for n in names if not os.path.isfile(os.path.join(directory, n))]


class Workload:
    """Common state: package modules, the size spec and a scratch directory.

    ``setup`` runs before every pass and builds the same state each time.

    ``ops`` are the operations a pass attempts; ``spans`` are the spans a
    traced pass must record.
    """

    ops: tuple[str, ...] = ()
    spans: tuple[str, ...] = ()

    def __init__(self, size: str, input_set: int, workdir: str):
        self.mods = package_modules()
        self.cfg = SIZES[size][self.name]
        self.input_set = input_set
        self.workdir = workdir
        self.clock = StageClock()

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def write_spec(self, spec: dict) -> str:
        path = os.path.join(self.workdir, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return path

    def models(self):
        """Models built in set-up, whose layers the tracer must rebind."""
        return ()


class TrainDefault(Workload):
    """Paper-default model: fixed epochs of ``train()`` then ``predict_batched``."""

    name = "train_default"
    ops = ("train", "predict")
    spans = ("train.train", "train.predict", "model.forward", "ad.backward", "train.optimizer")
    probed = None           # the initial-weight probe; set-up rebuilds the same weights

    def setup(self) -> None:
        data, geo, model = self.mods["data"], self.mods["geo"], self.mods["model"]
        cfg = self.cfg
        stations = data.random_stations(cfg["n_stations"], STATION_SEED)
        self.ds = data.synth_dataset(stations, cfg["n_events"], self.input_set, **cfg["synth"])
        graph = geo.build_adjacency(stations, GRAPH_K)
        self.prop = geo.propagation_matrix(graph, "renormalized")
        mcfg = model.ModelConfig(init_seed=self.input_set, **cfg["model"])
        self.model = model.build_tiser_gcn(mcfg, cfg["n_stations"])
        self.initial = [p.data.copy() for p in self.model.params()]
        self.tcfg = self.mods["train"].TrainConfig(max_epochs=cfg["epochs"],
                                                   batch_size=cfg["n_events"])

    def models(self):
        return (self.model,)

    def reset_weights(self) -> None:
        for p, init in zip(self.model.params(), self.initial):
            p.data = init.copy()

    def probe(self) -> dict:
        """Predictions and per-tensor gradient norms and projections at the
        initial weights, on the first events."""
        ad = self.mods["autodiff"]
        self.reset_weights()
        params = self.model.params()
        ad.zero_grad(params)
        k = min(PROBE_EVENTS, self.ds.n_events)
        pred = self.model.forward(self.prop, self.ds.X[:k], self.ds.stations.coords())
        ad.backward(ad.mse_loss(pred, self.ds.Y[:k]))
        rng = np.random.default_rng(0)
        grads = [p.grad.astype(np.float64).ravel() for p in params]
        ad.zero_grad(params)
        return {"pred": pred.data.astype(np.float64).ravel().tolist(),
                "grad_norms": [float(np.linalg.norm(g)) for g in grads],
                "grad_proj": [float(g @ rng.standard_normal(g.size)) for g in grads]}

    def run_pass(self) -> dict:
        tr = self.mods["train"]
        self.reset_weights()
        start = time.perf_counter()
        hist = tr.train(self.model, self.ds, self.prop, self.tcfg, seed=self.input_set)
        pred = tr.predict_batched(self.model, self.prop, self.ds.X,
                                  self.ds.stations.coords(), self.tcfg.batch_size)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "loss": hist.train_loss[-1], "pred": pred}

    def verify(self, out: dict, ref: dict | None) -> dict[str, str | None]:
        errors: dict[str, str | None] = {"train": None, "predict": None}
        loss, pred = out["loss"], out["pred"]
        if not np.isfinite(loss):
            errors["train"] = f"loss {loss} not finite"
        elif ref is not None and abs(loss - ref["loss"]) > LOSS_RTOL * abs(ref["loss"]):
            errors["train"] = f"loss {loss!r} differs from reference {ref['loss']!r}"
        e, n = self.cfg["n_events"], self.cfg["n_stations"]
        if pred.shape != (e, 5, n) or not np.isfinite(pred).all():
            errors["predict"] = f"predictions {pred.shape} not finite with shape {(e, 5, n)}"
        elif ref is not None:
            err = _rel_err(np.concatenate([pred[0], pred.mean(axis=0)]),
                           np.concatenate([ref["pred_first"], ref["pred_mean"]]))
            if err > PRED_RTOL:
                errors["predict"] = f"predictions differ from reference by {err:.3g} (relative)"
        if ref is not None:
            if self.probed is None:
                self.probed = self.probe()
            got, want = self.probed, ref["probe"]
            norms = np.maximum(want["grad_norms"], 1e-30)
            worst = max(_rel_err(got["pred"], want["pred"]),
                        float(np.max(np.abs(np.asarray(got["grad_norms"]) - norms) / norms)),
                        float(np.max(np.abs(np.asarray(got["grad_proj"])
                                            - np.asarray(want["grad_proj"])) / norms)))
            if worst > PROBE_RTOL:
                errors["train"] = f"initial-weight probe differs from reference by {worst:.3g}"
        return errors

    def reference(self, out: dict) -> dict:
        return {"loss": float(out["loss"]), "pred_first": out["pred"][0].tolist(),
                "pred_mean": out["pred"].mean(axis=0).tolist(), "probe": self.probe()}


class SynthDefault(Workload):
    """``tisergcn synth`` with the default synth section, then ``load_dataset``."""

    name = "synth_default"
    ops = ("synth", "load")
    spans = ("data.synth", "data.waveforms", "data.ims", "data.save", "data.load",
             "cli.provenance", "cli.artifacts")
    ARTIFACTS = ("manifest.json", "stations.csv", "X.bin", "Y.bin", "provenance.json", "run.log")
    ROUND_TRIP = ("manifest.json", "stations.csv", "X.bin", "Y.bin")

    def setup(self) -> None:
        self.spec = self.write_spec({"synth": self.cfg["synth"]})

    def run_pass(self) -> dict:
        out_dir = self.fresh_dir("pass")
        start = time.perf_counter()
        rc = _quiet_cli(self.mods["cli"], ["synth", "--spec", self.spec,
                                           "--seed", self.input_set, "--out", out_dir])
        synth_s = time.perf_counter() - start
        ds = self.mods["data"].load_dataset(out_dir)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "synth_events_per_s": ds.n_events / synth_s,
                "rc": rc, "dir": out_dir, "ds": ds}

    def verify(self, out: dict, ref: dict | None) -> dict[str, str | None]:
        errors: dict[str, str | None] = {"synth": None, "load": None}
        ds, k = out["ds"], self.cfg["checked_events"]
        missing = _missing(out["dir"], self.ARTIFACTS)
        if out["rc"] != 0 or missing:
            errors["synth"] = f"exit code {out['rc']}, missing artifacts {missing}"
        elif ref is not None:
            err = float(np.abs(ds.Y[:k] - np.asarray(ref["labels"])).max())
            if err > LABEL_ATOL:
                errors["synth"] = f"labels differ from reference by {err:.3g} log10 units"
        # the round trip: what load returned, saved again, gives the same bytes
        again = self.fresh_dir("round_trip")
        self.mods["data"].save_dataset(again, ds)
        _, mismatch, errs = filecmp.cmpfiles(out["dir"], again, self.ROUND_TRIP, shallow=False)
        if mismatch or errs:
            errors["load"] = f"save/load round trip changed {mismatch + errs}"
        elif ref is not None and _rel_err(ds.X[:k].sum(axis=(1, 2, 3)), ref["x_sums"]) > 1e-6:
            errors["load"] = "loaded inputs differ from reference"
        return errors

    def reference(self, out: dict) -> dict:
        k = self.cfg["checked_events"]
        ds = out["ds"]
        return {"labels": ds.Y[:k].tolist(),
                "x_sums": ds.X[:k].astype(np.float64).sum(axis=(1, 2, 3)).tolist()}


class CvSmall(Workload):
    """README quick start through the CLI, then the KNN baseline on repeat 0."""

    name = "cv_small"
    ops = ("synth", "build-graph", "train", "report", "features", "grid_search", "knn_predict")
    spans = ("data.synth", "geo.build_adjacency", "geo.propagation", "train.run_protocol",
             "train.train", "train.validate", "train.predict", "baselines.features",
             "baselines.grid_search", "baselines.knn_predict", "cli.provenance", "cli.artifacts")
    ARTIFACTS = {
        "synth": ("manifest.json", "stations.csv", "X.bin", "Y.bin", "provenance.json",
                  "run.log"),
        "build-graph": ("graph.json", "run.log"),
        "train": ("metrics.json", "curves_r0f0.csv", "curves_r0f1.csv", "residuals.csv",
                  "run.log"),
        "report": ("metrics_table.csv", "residuals.csv", "report.md", "run.log"),
    }

    def setup(self) -> None:
        self.spec = self.write_spec(self.cfg["spec"])

    def run_pass(self) -> dict:
        cli, tr, bl = self.mods["cli"], self.mods["train"], self.mods["baselines"]
        base = self.fresh_dir("pass")
        dirs = {c: os.path.join(base, c) for c in self.ARTIFACTS}
        common = ["--spec", self.spec, "--seed", self.input_set]
        argvs = {
            "synth": ["synth", *common, "--out", dirs["synth"]],
            "build-graph": ["build-graph", *common, "--dataset", dirs["synth"],
                            "--out", dirs["build-graph"]],
            "train": ["train", *common, "--dataset", dirs["synth"], "--out", dirs["train"]],
            "report": ["report", dirs["train"], "--out", dirs["report"]],
        }
        rcs, out = {}, {}
        start = time.perf_counter()
        rcs["synth"] = _quiet_cli(cli, argvs.pop("synth"))
        synth_s = time.perf_counter() - start
        for command, argv in argvs.items():
            rcs[command] = _quiet_cli(cli, argv)

        ds = self.mods["data"].load_dataset(dirs["synth"])
        tcfg = tr.TrainConfig(**{k: v for k, v in self.cfg["spec"]["train"].items()
                                 if k in ("folds", "repeats")})
        plan = tr.split_protocol(ds.n_events, self.input_set, tcfg)[0]
        train_idx = np.sort(np.concatenate(plan.folds))
        feats = bl.dataset_features(ds)
        y = np.asarray(ds.Y, dtype=np.float64).reshape(ds.n_events, -1)
        choices, _ = bl.grid_search_cv(feats[train_idx], y[train_idx])
        knn = bl.knn_fit_predict(feats[train_idx], y[train_idx], feats[plan.test_idx], choices)
        out["wall_s"] = time.perf_counter() - start

        out["synth_events_per_s"] = ds.n_events / synth_s
        with open(os.path.join(dirs["train"], "metrics.json"), encoding="utf-8") as fh:
            out["cv_test_mse"] = json.load(fh)["aggregate"]["overall"]["mse"]["mean"]
        out.update(rcs=rcs, dirs=dirs, feats=feats, y=y, train_idx=train_idx,
                   test_idx=plan.test_idx, choices=choices, knn=knn)
        return out

    def verify(self, out: dict, ref: dict | None) -> dict[str, str | None]:
        bl = self.mods["baselines"]
        errors: dict[str, str | None] = dict.fromkeys(self.ops)
        for command, names in self.ARTIFACTS.items():
            missing = _missing(out["dirs"][command], names)
            if out["rcs"][command] != 0 or missing:
                errors[command] = f"exit code {out['rcs'][command]}, missing artifacts {missing}"
        mse = out["cv_test_mse"]
        if errors["train"] is None and ref is not None \
                and abs(mse - ref["cv_test_mse"]) > CV_MSE_RTOL * ref["cv_test_mse"]:
            errors["train"] = f"cv_test_mse {mse!r} differs from reference {ref['cv_test_mse']!r}"
        feats, y, knn = out["feats"], out["y"], out["knn"]
        if feats.shape[0] != y.shape[0] or not np.isfinite(feats).all():
            errors["features"] = f"features {feats.shape} not finite, one row per event"
        choices = [(c.k, c.weights) for c in out["choices"]]
        if ref is not None and choices != [tuple(c) for c in ref["choices"]]:
            errors["grid_search"] = "grid search chose differently from the reference"
        tr, te = out["train_idx"], out["test_idx"]
        for choice in set(out["choices"]):
            cols = [i for i, c in enumerate(out["choices"]) if c == choice]
            expect = bl.knn_predict(feats[tr], y[tr][:, cols], feats[te], choice.k, choice.weights)
            if not np.allclose(knn[:, cols], expect, rtol=KNN_RTOL, atol=0.0):
                errors["knn_predict"] = f"knn_fit_predict differs from knn_predict at {choice}"
        if errors["knn_predict"] is None and ref is not None:
            knn_mse = float(np.mean((knn - y[te]) ** 2))
            if abs(knn_mse - ref["knn_test_mse"]) > KNN_RTOL * ref["knn_test_mse"] + 1e-12:
                errors["knn_predict"] = f"knn test mse {knn_mse!r} differs from reference"
        return errors

    def reference(self, out: dict) -> dict:
        knn_mse = float(np.mean((out["knn"] - out["y"][out["test_idx"]]) ** 2))
        return {"cv_test_mse": out["cv_test_mse"], "knn_test_mse": knn_mse,
                "choices": [[c.k, c.weights] for c in out["choices"]]}


WORKLOADS = {w.name: w for w in (TrainDefault, SynthDefault, CvSmall)}
