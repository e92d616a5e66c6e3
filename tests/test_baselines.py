"""Summary-feature extraction and KNN reference predictors, checked
against hand values and exhaustive brute-force oracles."""

import numpy as np
import pytest

from tisergcn.baselines import (
    FEATURE_NAMES,
    KNNChoice,
    dataset_features,
    event_features,
    grid_search_cv,
    knn_fit_predict,
    knn_predict,
    mean_predictor,
)
from tisergcn.data import EventDataset, random_stations
from tisergcn.errors import InputError

from conftest import feature_vector


def knn_oracle(train_f, train_y, q, k, weights):
    """Brute-force single-query KNN with the same tie and exact-match rules."""
    d = np.sqrt(((train_f - q) ** 2).sum(axis=1))
    idx = np.argsort(d, kind="stable")[:k]
    if weights == "uniform":
        return train_y[idx].mean(axis=0)
    dk = d[idx]
    if (dk == 0.0).any():
        return train_y[idx[dk == 0.0]].mean(axis=0)
    w = 1.0 / dk
    return (w[:, None] * train_y[idx]).sum(axis=0) / w.sum()


class TestFeatures:
    def test_hand_values_basic(self):
        f = dict(zip(FEATURE_NAMES, feature_vector(np.array([1.0, 2.0, 3.0]))))
        assert f["mean"] == pytest.approx(2.0, abs=1e-4)
        assert f["var"] == pytest.approx(0.6667, abs=1e-4)
        assert f["std"] == pytest.approx(0.8165, abs=1e-4)
        assert f["median"] == pytest.approx(2.0, abs=1e-4)
        assert f["min"] == 1.0 and f["max"] == 3.0
        assert f["range"] == pytest.approx(2.0, abs=1e-4)

    def test_hand_values_energy(self):
        # DFT of [1, 0, 0, 0] is all-ones: energy 4, power 1
        f = dict(zip(FEATURE_NAMES, feature_vector(np.array([1.0, 0.0, 0.0, 0.0]))))
        assert f["energy"] == pytest.approx(4.0, rel=1e-6)
        assert f["power"] == pytest.approx(1.0, rel=1e-6)

    def test_energy_satisfies_parseval(self, rng):
        # sum |DFT|^2 = T * sum x^2 for a real signal
        x = rng.standard_normal(257)
        f = dict(zip(FEATURE_NAMES, feature_vector(x)))
        assert f["energy"] == pytest.approx(x.size * float((x * x).sum()), rel=1e-6)
        assert f["power"] == pytest.approx(float((x * x).sum()), rel=1e-6)

    def test_population_variance_convention(self):
        x = np.array([1.0, 2.0])
        f = dict(zip(FEATURE_NAMES, feature_vector(x)))
        assert f["var"] == pytest.approx(0.25, abs=1e-12)  # ddof=0, not 0.5

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            feature_vector(np.zeros((3, 3)))
        with pytest.raises(InputError):
            feature_vector(np.array([]))

    def test_event_features_layout(self, rng):
        x = rng.standard_normal((2, 50, 3))
        flat = event_features(x)
        assert flat.shape == (2 * 3 * 9,)
        # block for station 1, channel 2 sits at the documented offset
        block = flat[(1 * 3 + 2) * 9:(1 * 3 + 2) * 9 + 9]
        assert np.allclose(block, feature_vector(x[1, :, 2]), atol=0)

    def test_dataset_features_match_per_trace_oracle(self, rng):
        # 120 events of 2 x 400 x 3 samples take three chunks of about 1 MB
        x = rng.standard_normal((120, 2, 400, 3)).astype(np.float32)
        ds = EventDataset(random_stations(2, seed=1), x, np.zeros((120, 5, 2)), 100)
        feats = dataset_features(ds)
        want = np.stack([
            np.concatenate([feature_vector(x[e, s, :, ch]) for s in range(2) for ch in range(3)])
            for e in range(120)])
        assert feats.shape == want.shape
        assert np.max(np.abs(feats - want) / np.abs(want)) <= 1e-12


class TestKNN:
    def test_matches_oracle_exhaustively(self, rng):
        train_f = rng.standard_normal((12, 4))
        train_y = rng.standard_normal((12, 3))
        queries = rng.standard_normal((5, 4))
        for k in (1, 3, 7, 12):
            for weights in ("uniform", "distance"):
                got = knn_predict(train_f, train_y, queries, k, weights)
                want = np.stack([
                    knn_oracle(train_f, train_y, q, k, weights) for q in queries
                ])
                assert np.allclose(got, want, atol=1e-12)

    def test_k1_returns_nearest_target(self):
        train_f = np.array([[0.0], [1.0], [2.0]])
        train_y = np.array([[10.0], [20.0], [30.0]])
        got = knn_predict(train_f, train_y, np.array([[0.9]]), 1)
        assert np.array_equal(got, [[20.0]])

    def test_k_equals_n_is_global_mean(self, rng):
        train_f = rng.standard_normal((8, 2))
        train_y = rng.standard_normal((8, 2))
        got = knn_predict(train_f, train_y, rng.standard_normal((3, 2)), 8, "uniform")
        assert np.allclose(got, np.tile(train_y.mean(axis=0), (3, 1)), atol=1e-12)

    def test_exact_match_overrides_distance_weights(self):
        train_f = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        train_y = np.array([[5.0], [100.0], [7.0]])
        # query coincides with rows 0 and 2: inverse-distance weighting
        # must return exactly their average, ignoring the finite neighbor
        got = knn_predict(train_f, train_y, np.array([[0.0, 0.0]]), 3, "distance")
        assert np.array_equal(got, [[6.0]])

    def test_input_validation(self, rng):
        f = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 1))
        with pytest.raises(InputError):
            knn_predict(f, y, f, 0)
        with pytest.raises(InputError):
            knn_predict(f, y, f, 6)
        with pytest.raises(InputError):
            knn_predict(f, y, f, 2, "gaussian")


class TestGridSearch:
    def test_recovers_planted_optimum(self, rng):
        # exact-duplicate features with identical targets make k=1 ideal;
        # any averaging over k>1 mixes in far neighbors and must lose
        base_f = rng.standard_normal((20, 3))
        base_y = rng.standard_normal((20, 2)) * 10.0
        train_f = np.vstack([base_f, base_f + 1e-9])
        train_y = np.vstack([base_y, base_y])
        choices, mse = grid_search_cv(train_f, train_y, ks=(1, 5, 10))
        assert all(c.k == 1 for c in choices)
        assert mse.shape == (6, 2)

    def test_singleton_grid(self, rng):
        f = rng.standard_normal((10, 2))
        y = rng.standard_normal((10, 1))
        choices, mse = grid_search_cv(f, y, ks=(3,), weight_options=("uniform",))
        assert choices == [KNNChoice(3, "uniform")]
        assert mse.shape == (1, 1)

    def test_mse_table_matches_manual_fold_loop(self, rng):
        f = rng.standard_normal((11, 2))
        y = rng.standard_normal((11, 2))
        _, mse = grid_search_cv(f, y, ks=(2, 4), weight_options=("uniform",),
                                n_folds=3)
        folds = np.array_split(np.arange(11), 3)
        for gi, k in enumerate((2, 4)):
            total = np.zeros(2)
            for val in folds:
                fit = np.setdiff1d(np.arange(11), val)
                pred = knn_predict(f[fit], y[fit], f[val], k, "uniform")
                total += ((pred - y[val]) ** 2).sum(axis=0)
            assert np.allclose(mse[gi], total / 11, atol=1e-12)

    def test_tie_break_keeps_first_entry(self):
        # duplicated feature rows make several k values equivalent; the
        # first grid entry must win
        f = np.zeros((10, 1))
        y = np.ones((10, 1))
        choices, mse = grid_search_cv(f, y, ks=(1, 2, 3), weight_options=("uniform",))
        assert np.allclose(mse, mse[0, 0])
        assert choices == [KNNChoice(1, "uniform")]

    def test_too_few_events(self, rng):
        with pytest.raises(InputError):
            grid_search_cv(rng.standard_normal((3, 2)), rng.standard_normal((3, 1)))

    def test_fit_predict_uses_per_column_choices(self, rng):
        f = rng.standard_normal((9, 3))
        y = rng.standard_normal((9, 2))
        q = rng.standard_normal((4, 3))
        choices = [KNNChoice(1, "uniform"), KNNChoice(4, "distance")]
        got = knn_fit_predict(f, y, q, choices)
        assert np.allclose(got[:, 0], knn_predict(f, y[:, [0]], q, 1, "uniform")[:, 0],
                           atol=1e-12)
        assert np.allclose(got[:, 1], knn_predict(f, y[:, [1]], q, 4, "distance")[:, 0],
                           atol=1e-12)
        with pytest.raises(InputError):
            knn_fit_predict(f, y, q, choices[:1])


class TestMeanPredictor:
    def test_tiles_column_means(self):
        y = np.array([[1.0, 10.0], [3.0, 30.0]])
        got = mean_predictor(y, 3)
        assert got.shape == (3, 2)
        assert np.array_equal(got, np.tile([2.0, 20.0], (3, 1)))
