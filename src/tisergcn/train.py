"""Optimization loop, split protocol, and regression metrics.

Training minimizes mean-squared error on log10 intensity targets plus an
L2 penalty on convolution and graph weights, using RMSprop with
mini-batches and early stopping on a validation fold.  The evaluation
protocol draws, per repeat, a fresh 80/20 train/test split and 5
cross-validation folds over the train part; metrics are MAE / MSE / RMSE
per intensity measure over all (event, station) cells.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import EventDataset
from .errors import InputError, TrainingDivergedError
from .model import IM_NAMES, MODEL_KINDS, Model, ModelConfig, check_fields
from .pool import blas_on_caller
from . import autodiff as ad

METRIC_NAMES = ("mae", "mse", "rmse")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 20
    max_epochs: int = 100
    patience: int = 10
    lr: float = 0.001
    rho: float = 0.9
    eps: float = 1e-7
    l2: float = 1e-4
    folds: int = 5
    repeats: int = 5
    test_fraction: float = 0.2
    stop_below_train_loss: float | None = None

    def __post_init__(self):
        check_fields(self, InputError, batch_size="[1, inf)", max_epochs="[1, inf)",
                     patience="[0, inf)", lr="[0, inf)", rho="[0, 1)", eps="(0, inf)",
                     l2="[0, inf)", folds="[2, inf)", repeats="[1, inf)",
                     test_fraction="(0, 1)")


# ---------------------------------------------------------------------------
# optimizer

def rmsprop_init(params) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per parameter tensor: a fresh squared-gradient accumulator and two
    scratch buffers of its shape for the update."""
    return [(np.zeros_like(p.data), np.empty_like(p.data), np.empty_like(p.data))
            for p in params]


def rmsprop_step(params, state, cfg: TrainConfig, where: str = "") -> None:
    """One in-place update: v <- rho v + (1-rho) g^2; p <- p - lr g / (sqrt(v) + eps).

    Raises TrainingDivergedError on any non-finite gradient, naming the
    parameter and the caller-supplied position tag.  A parameter whose
    gradient is None (off the loss's path) is skipped.  The formula runs in
    its own order through the state's scratch buffers: no temporaries.
    """
    for p, (v, a, b) in zip(params, state):
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise TrainingDivergedError(
                f"non-finite gradient in {p.name or 'parameter'}{where}")
        v *= cfg.rho
        v += np.multiply(np.multiply(1.0 - cfg.rho, g, out=a), g, out=a)
        p.data -= np.divide(np.multiply(cfg.lr, g, out=a),
                            np.add(np.sqrt(v, out=b), cfg.eps, out=b), out=a)


# ---------------------------------------------------------------------------
# split protocol

@dataclass(frozen=True)
class SplitPlan:
    """One repeat: a test set plus disjoint CV folds over the train part."""
    repeat: int
    test_idx: np.ndarray
    folds: tuple[np.ndarray, ...]

    def train_idx(self, val_fold: int) -> np.ndarray:
        return np.concatenate([f for i, f in enumerate(self.folds) if i != val_fold])


def split_protocol(n_events: int, seed: int, cfg: TrainConfig | None = None) -> list[SplitPlan]:
    """Per repeat: shuffle, hold out test_fraction, split the rest into folds.

    Repeats draw distinct child seeds from one root seed, so test sets
    differ across repeats while the whole plan stays reproducible.
    """
    cfg = cfg or TrainConfig()
    if n_events < 10:
        raise InputError(f"need at least 10 events to split, got {n_events}")
    n_test = int(round(n_events * cfg.test_fraction))
    if n_test < 1:
        raise InputError(f"test_fraction {cfg.test_fraction} of {n_events} events "
                         f"leaves no test event")
    if n_events - n_test < cfg.folds:
        raise InputError(
            f"{n_events} events leave {n_events - n_test} for {cfg.folds} folds")
    plans = []
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(cfg.repeats)):
        rng = np.random.default_rng(child)
        perm = rng.permutation(n_events)
        plans.append(SplitPlan(repeat=r, test_idx=perm[:n_test],
                               folds=tuple(np.array_split(perm[n_test:], cfg.folds))))
    return plans


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1


@blas_on_caller()
def predict_batched(model: Model, prop: np.ndarray, X: np.ndarray,
                    z: np.ndarray, batch_size: int = 32) -> np.ndarray:
    """Forward pass without a tape, chunked to bound memory: (E, 5, N).

    Runs under ``autodiff.no_grad``, so no op records a tape node and each
    batch's activations are freed as soon as the next layer has used them.
    An empty ``X`` is an InputError.  Holds ``pool.blas_on_caller``.
    """
    if X.shape[0] == 0:
        raise InputError("evaluation set is empty")
    outs = []
    with ad.no_grad():
        for lo in range(0, X.shape[0], batch_size):
            outs.append(model.forward(prop, X[lo:lo + batch_size], z).data)
    return np.concatenate(outs).astype(np.float64)


def _dataset_mse(model, prop, X, Y, z, batch_size) -> float:
    pred = predict_batched(model, prop, X, z, batch_size)
    return float(np.mean((pred - np.asarray(Y, dtype=np.float64)) ** 2))


@blas_on_caller()
def train(model: Model, ds: EventDataset, prop: np.ndarray, cfg: TrainConfig,
          train_idx=None, val_idx=None, seed: int = 0) -> TrainHistory:
    """Mini-batch RMSprop on MSE + L2, early stopping on validation MSE.

    Shuffle order is a pure function of (seed, epoch), and each batch is
    gathered from ``ds`` by index: no copy of the training split is made,
    and the model casts each batch to its dtype.  With a validation
    set, training stops after `patience` epochs without improvement and
    the best-validation weights are restored; without one it runs to
    max_epochs.  Either way it also stops once train loss drops below
    `cfg.stop_below_train_loss` when that is set.
    Reported losses are data MSE only; the L2 term steers updates but is
    excluded from curves so they stay comparable across penalty settings.
    Holds ``pool.blas_on_caller``, so no BLAS call wakes an OpenBLAS worker.
    """
    train_idx = np.arange(ds.n_events) if train_idx is None else np.asarray(train_idx)
    z = ds.stations.coords()
    params = model.params()
    l2_params = model.l2_params()
    state = rmsprop_init(params)
    hist = TrainHistory()

    best_val = np.inf
    best_state = None
    since_best = 0
    for epoch in range(cfg.max_epochs):
        order = np.random.default_rng((seed, epoch)).permutation(train_idx.size)
        total_se = 0.0
        for lo in range(0, order.size, cfg.batch_size):
            sel = train_idx[order[lo:lo + cfg.batch_size]]
            pred = model.forward(prop, ds.X[sel], z)
            data_loss = ad.mse_loss(pred, ds.Y[sel])
            loss = data_loss
            if cfg.l2 > 0.0 and l2_params:
                loss = ad.add(loss, ad.l2_penalty(l2_params, cfg.l2))
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(
                    f"loss became non-finite at epoch {epoch}, batch {lo // cfg.batch_size}")
            ad.backward(loss)
            rmsprop_step(params, state, cfg,
                         where=f" at epoch {epoch}, batch {lo // cfg.batch_size}")
            ad.zero_grad(params)
            total_se += float(data_loss.data) * sel.size
            del pred, data_loss, loss  # this batch's tape, before the next forward pass
        train_loss = total_se / order.size
        hist.train_loss.append(train_loss)

        if val_idx is not None:
            val_loss = _dataset_mse(model, prop, ds.X[val_idx], ds.Y[val_idx], z,
                                    cfg.batch_size)
            hist.val_loss.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_state = [p.data.copy() for p in params]
                hist.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
        else:
            hist.best_epoch = epoch
        if cfg.stop_below_train_loss is not None and train_loss < cfg.stop_below_train_loss:
            break
    if best_state is not None:
        for p, saved in zip(params, best_state):
            p.data = saved
    return hist


# ---------------------------------------------------------------------------
# metrics

def metrics_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    """Per-IM MAE / MSE / RMSE in log10 target space over all (event, station)
    cells of (E, 5, N) arrays, plus an `overall` row over every cell."""
    err = y_pred - y_true
    out = {}
    for im, e in [*zip(IM_NAMES, err.swapaxes(0, 1)), ("overall", err)]:
        mse = float(np.mean(e * e))
        out[im] = {"mae": float(np.mean(np.abs(e))), "mse": mse, "rmse": float(np.sqrt(mse))}
    return out


# ---------------------------------------------------------------------------
# full protocol

@dataclass
class RunReport:
    """Everything one protocol execution produced, JSON-serializable.

    Wall-clock time is deliberately not part of this record so that
    reruns with identical seeds serialize to identical bytes.
    """
    model_kind: str
    model_config: dict
    train_config: dict
    seed: int
    n_events: int
    param_count: int
    runs: list[dict]
    aggregate: dict


def _aggregate(run_metrics: list[dict]) -> dict:
    out = {}
    for im in list(IM_NAMES) + ["overall"]:
        out[im] = {}
        for m in METRIC_NAMES:
            vals = np.array([r[im][m] for r in run_metrics])
            out[im][m] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return out


def run_protocol(kind: str, ds: EventDataset, prop: np.ndarray,
                 model_cfg: ModelConfig, cfg: TrainConfig,
                 seed: int) -> tuple[RunReport, dict]:
    """Repeats x folds training runs, each evaluated on its repeat's test set.

    Returns the report plus the best run's test-set residuals
    {repeat, fold, event_idx, y_true, y_pred} for scatter exports.
    """
    if kind not in MODEL_KINDS:
        raise InputError(f"unknown model kind {kind!r}")
    plans = split_protocol(ds.n_events, seed, cfg)
    runs = []
    best_mse = np.inf
    residuals = {}
    for plan in plans:
        for fold in range(cfg.folds):
            run_seed = int(np.random.SeedSequence((seed, plan.repeat, fold))
                           .generate_state(1)[0])
            model = Model(kind, replace(model_cfg, init_seed=run_seed), ds.n_nodes)
            hist = train(model, ds, prop, cfg,
                         train_idx=plan.train_idx(fold), val_idx=plan.folds[fold],
                         seed=run_seed)
            y_pred = predict_batched(model, prop, ds.X[plan.test_idx],
                                     ds.stations.coords(), cfg.batch_size)
            y_true = np.asarray(ds.Y, dtype=np.float64)[plan.test_idx]
            m = metrics_from_predictions(y_true, y_pred)
            runs.append({
                "repeat": plan.repeat,
                "fold": fold,
                "seed": run_seed,
                "best_epoch": hist.best_epoch,
                "epochs_run": len(hist.train_loss),
                "metrics": m,
                "curves": {"train_loss": hist.train_loss, "val_loss": hist.val_loss},
            })
            if m["overall"]["mse"] < best_mse:
                best_mse = m["overall"]["mse"]
                residuals = {"repeat": plan.repeat, "fold": fold,
                             "event_idx": plan.test_idx.copy(),
                             "y_true": y_true, "y_pred": y_pred}
    report = RunReport(
        model_kind=kind,
        model_config=asdict(model_cfg),
        train_config=asdict(cfg),
        seed=seed,
        n_events=ds.n_events,
        param_count=model.param_count(),
        runs=runs,
        aggregate=_aggregate([r["metrics"] for r in runs]),
    )
    return report, residuals
