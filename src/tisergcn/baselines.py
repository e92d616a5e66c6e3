"""Classical reference predictors: summary features + k-nearest-neighbors
regression, and a per-target mean predictor.

Events are embedded as flat feature vectors (nine summary statistics per
station channel) and compared in Euclidean distance.  Model selection is
an exhaustive grid over neighbor count and weighting, scored by k-fold
cross-validation independently for every target column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EventDataset
from .errors import InputError

FEATURE_NAMES = ("mean", "std", "var", "median", "min", "max", "range", "energy", "power")
DEFAULT_KS = tuple(range(1, 21))
WEIGHT_OPTIONS = ("uniform", "distance")


def event_features(x_event: np.ndarray) -> np.ndarray:
    """(..., N, T, C) windows -> (..., N * C * 9) feature vectors: the nine
    FEATURE_NAMES statistics of every channel trace (population variance),
    station-major then channel.  energy is the summed squared magnitude of
    the trace's DFT, computed as T * sum x^2 (Parseval); power is energy / T."""
    x = np.array(np.swapaxes(x_event, -1, -2), dtype=np.float64, order="C")  # (..., N, C, T)
    energy = x.shape[-1] * np.sum(x * x, axis=-1)
    lo, hi = x.min(axis=-1), x.max(axis=-1)
    feats = np.stack([x.mean(axis=-1), x.std(axis=-1), x.var(axis=-1), np.median(x, axis=-1),
                      lo, hi, hi - lo, energy, energy / x.shape[-1]], axis=-1)
    return feats.reshape(*feats.shape[:-3], -1)


def dataset_features(ds: EventDataset) -> np.ndarray:
    """Feature matrix (E, N * C * 9) for a whole dataset, about 1 MB of events at a time."""
    step = max(1, (1 << 20) // (8 * ds.X[0].size))
    return np.concatenate([event_features(ds.X[lo:lo + step])
                           for lo in range(0, ds.n_events, step)])


# ---------------------------------------------------------------------------
# k-nearest-neighbors regression

@dataclass(frozen=True)
class KNNChoice:
    k: int
    weights: str


def _check_weights(weights: str) -> None:
    if weights not in WEIGHT_OPTIONS:
        raise InputError(f"weights must be one of {WEIGHT_OPTIONS}, got {weights!r}")


def _neighbor_order(train_f: np.ndarray, query_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances and stable-sorted neighbor indices, (Q, n_train) each."""
    diff = query_f[:, None, :] - train_f[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    order = np.argsort(dist, axis=1, kind="stable")
    return dist, order


def _predict_from_order(train_y: np.ndarray, dist: np.ndarray, order: np.ndarray,
                        k: int, weights: str) -> np.ndarray:
    """Predictions (Q, m) given precomputed neighbor ordering."""
    idx = order[:, :k]
    d = np.take_along_axis(dist, idx, axis=1)
    neigh = train_y[idx]                                    # (Q, k, m)
    if weights == "uniform":
        return neigh.mean(axis=1)
    exact = d == 0.0
    has_exact = exact.any(axis=1)
    w = np.zeros_like(d)
    np.divide(1.0, d, out=w, where=~exact)
    w[exact] = 1.0
    if has_exact.any():
        # a zero-distance neighbor is an exact match: average only those
        w[has_exact] = exact[has_exact].astype(np.float64)
    return np.einsum("qk,qkm->qm", w, neigh) / w.sum(axis=1, keepdims=True)


def knn_predict(train_f: np.ndarray, train_y: np.ndarray, query_f: np.ndarray,
                k: int, weights: str = "uniform") -> np.ndarray:
    """Plain KNN regression, every target column with the same (k, weights)."""
    _check_weights(weights)
    train_y = np.atleast_2d(np.asarray(train_y, dtype=np.float64))
    if train_y.shape[0] != train_f.shape[0]:
        train_y = train_y.T
    if not 1 <= k <= train_f.shape[0]:
        raise InputError(f"k must be in [1, {train_f.shape[0]}], got {k}")
    dist, order = _neighbor_order(np.asarray(train_f, float), np.asarray(query_f, float))
    return _predict_from_order(train_y, dist, order, k, weights)


def grid_search_cv(train_f: np.ndarray, train_y: np.ndarray,
                   ks=DEFAULT_KS, weight_options=WEIGHT_OPTIONS,
                   n_folds: int = 5) -> tuple[list[KNNChoice], np.ndarray]:
    """Exhaustive (k, weights) selection per target column by k-fold CV.

    Folds are contiguous index blocks.  Returns one choice per column plus
    the full grid MSE table (n_grid, m); ties keep the earliest grid entry.
    """
    train_f = np.asarray(train_f, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    n, m = train_y.shape
    if n < n_folds:
        raise InputError(f"need at least {n_folds} training events, got {n}")
    grid = [KNNChoice(k, w) for k in ks for w in weight_options]

    folds = np.array_split(np.arange(n), n_folds)
    sq_err = np.zeros((len(grid), m))
    for val_idx in folds:
        fit_idx = np.setdiff1d(np.arange(n), val_idx)
        dist, order = _neighbor_order(train_f[fit_idx], train_f[val_idx])
        for gi, choice in enumerate(grid):
            if choice.k > fit_idx.size:
                sq_err[gi] += np.inf
                continue
            pred = _predict_from_order(train_y[fit_idx], dist, order,
                                       choice.k, choice.weights)
            sq_err[gi] += ((pred - train_y[val_idx]) ** 2).sum(axis=0)
    mse = sq_err / n
    best = np.argmin(mse, axis=0)       # argmin keeps the first minimum
    return [grid[i] for i in best], mse


def knn_fit_predict(train_f: np.ndarray, train_y: np.ndarray, query_f: np.ndarray,
                    choices: list[KNNChoice]) -> np.ndarray:
    """Per-column KNN predictions, each column using its own (k, weights)."""
    train_f = np.asarray(train_f, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    if len(choices) != train_y.shape[1]:
        raise InputError(
            f"{len(choices)} choices for {train_y.shape[1]} target columns")
    dist, order = _neighbor_order(train_f, np.asarray(query_f, dtype=np.float64))
    out = np.empty((query_f.shape[0], train_y.shape[1]))
    for choice in set(choices):
        cols = [i for i, c in enumerate(choices) if c == choice]
        pred = _predict_from_order(train_y[:, cols], dist, order,
                                   choice.k, choice.weights)
        out[:, cols] = pred
    return out


def mean_predictor(train_y: np.ndarray, n_query: int) -> np.ndarray:
    """Constant prediction: per-column training mean, tiled (n_query, m)."""
    mu = np.asarray(train_y, dtype=np.float64).mean(axis=0)
    return np.tile(mu, (n_query, 1))
