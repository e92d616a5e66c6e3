"""Optimizer arithmetic, split protocol laws, the training loop's
determinism and early stopping, and the repeated-CV evaluation protocol."""

import json
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

import tisergcn.autodiff as ad
from tisergcn.data import EventDataset, random_stations, synth_dataset
from tisergcn.errors import InputError, TrainingDivergedError
from tisergcn.geo import build_adjacency, propagation_matrix
from tisergcn.model import ModelConfig, build_tiser_gcn
from tisergcn.train import (
    RunReport,
    TrainConfig,
    metrics_from_predictions,
    predict_batched,
    rmsprop_init,
    rmsprop_step,
    run_protocol,
    split_protocol,
    train,
)


def tiny_model_cfg(**overrides):
    base = dict(input_seconds=4, conv_filters=(2, 3), conv_kernels=(16, 8),
                conv_strides=(4, 4), gcn_filters=(4, 4), dense_width=8,
                dtype="f64")
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def tiny_setup():
    stations = random_stations(3, seed=5)
    ds = synth_dataset(stations, 16, seed=3, input_seconds=4, total_seconds=16.0)
    prop = propagation_matrix(build_adjacency(stations, 0.3), "renormalized")
    return ds, prop


class TestRMSprop:
    def test_single_step_hand_value(self):
        # v = 0.1 * 1; step = lr / (sqrt(0.1) + eps) = 0.0031623
        p = ad.parameter(np.array([0.0]))
        p.grad = np.array([1.0])
        state = rmsprop_init([p])
        rmsprop_step([p], state, TrainConfig())
        assert p.data[0] == pytest.approx(-0.0031623, abs=1e-6)

    def test_zero_gradient_keeps_parameter(self):
        p = ad.parameter(np.array([2.5]))
        p.grad = np.array([0.0])
        state = [np.array([0.04])]
        rmsprop_step([p], state, TrainConfig())
        assert p.data[0] == 2.5
        # accumulator decays towards zero at rate rho
        assert state[0][0] == pytest.approx(0.9 * 0.04, rel=1e-12)

    def test_accumulator_is_per_tensor(self):
        a, b = ad.parameter(np.zeros(1)), ad.parameter(np.zeros(1))
        a.grad, b.grad = np.array([1.0]), np.array([100.0])
        state = rmsprop_init([a, b])
        rmsprop_step([a, b], state, TrainConfig())
        # RMS normalization makes both steps nearly equal despite the
        # 100x gradient ratio
        assert abs(a.data[0] / b.data[0] - 1.0) < 1e-4

    def test_non_finite_gradient_raises(self):
        p = ad.parameter(np.zeros(2), name="conv1.kernels")
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(TrainingDivergedError, match="conv1.kernels"):
            rmsprop_step([p], rmsprop_init([p]), TrainConfig())


class TestSplitProtocol:
    def test_sizes_and_disjointness(self):
        plans = split_protocol(100, seed=4)
        assert len(plans) == 5
        for plan in plans:
            assert plan.test_idx.size == 20
            fold_sizes = [f.size for f in plan.folds]
            assert sum(fold_sizes) == 80 and len(fold_sizes) == 5
            assert all(s == 16 for s in fold_sizes)
            everything = np.concatenate([plan.test_idx, *plan.folds])
            assert np.array_equal(np.sort(everything), np.arange(100))

    def test_train_idx_excludes_val_fold(self):
        plan = split_protocol(50, seed=1)[0]
        for v in range(5):
            tr = plan.train_idx(v)
            assert np.intersect1d(tr, plan.folds[v]).size == 0
            assert np.intersect1d(tr, plan.test_idx).size == 0

    def test_test_sets_differ_across_repeats(self):
        plans = split_protocol(200, seed=9)
        tests = [frozenset(p.test_idx.tolist()) for p in plans]
        assert len(set(tests)) == len(tests)

    def test_deterministic(self):
        a = split_protocol(60, seed=3)
        b = split_protocol(60, seed=3)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.test_idx, pb.test_idx)
            assert all(np.array_equal(x, y) for x, y in zip(pa.folds, pb.folds))

    def test_uneven_split_rounds(self):
        plans = split_protocol(99, seed=0)
        assert plans[0].test_idx.size == 20  # round(19.8)

    def test_too_few_events(self):
        with pytest.raises(InputError):
            split_protocol(9, seed=0)
        with pytest.raises(InputError):
            split_protocol(10, seed=0, cfg=TrainConfig(test_fraction=0.6))

    def test_fraction_rounding_to_no_test_event(self):
        # round(12 * 0.01) = 0: refused before any run trains, naming both values
        with pytest.raises(InputError, match=r"test_fraction 0\.01 of 12 events"):
            split_protocol(12, seed=0, cfg=TrainConfig(test_fraction=0.01))


class TestTrainLoop:
    def test_identical_seeds_identical_history(self, tiny_setup):
        ds, prop = tiny_setup
        cfg = TrainConfig(batch_size=4, max_epochs=3, repeats=1)

        def run():
            model = build_tiser_gcn(tiny_model_cfg(), 3)
            hist = train(model, ds, prop, cfg, train_idx=np.arange(12),
                         val_idx=np.arange(12, 16), seed=11)
            return hist, [p.data.copy() for p in model.params()]

        h1, w1 = run()
        h2, w2 = run()
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        assert all(np.array_equal(a, b) for a, b in zip(w1, w2))

    def test_seed_changes_trajectory(self, tiny_setup):
        ds, prop = tiny_setup
        cfg = TrainConfig(batch_size=4, max_epochs=2, repeats=1)
        losses = []
        for seed in (1, 2):
            model = build_tiser_gcn(tiny_model_cfg(), 3)
            hist = train(model, ds, prop, cfg, train_idx=np.arange(12),
                         val_idx=None, seed=seed)
            losses.append(hist.train_loss)
        assert losses[0] != losses[1]

    def test_lr_zero_freezes_weights(self, tiny_setup):
        ds, prop = tiny_setup
        model = build_tiser_gcn(tiny_model_cfg(), 3)
        before = [p.data.copy() for p in model.params()]
        train(model, ds, prop, TrainConfig(batch_size=4, max_epochs=2, lr=0.0, repeats=1),
              train_idx=np.arange(12), val_idx=None, seed=0)
        assert all(np.array_equal(a, p.data) for a, p in zip(before, model.params()))

    def test_loss_decreases_on_average(self, tiny_setup):
        ds, prop = tiny_setup
        model = build_tiser_gcn(tiny_model_cfg(), 3)
        hist = train(model, ds, prop, TrainConfig(batch_size=4, max_epochs=12, repeats=1),
                     train_idx=np.arange(12), val_idx=None, seed=0)
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_early_stop_restores_best_weights(self, tiny_setup):
        # force divergence-free but noisy validation by training tiny batches;
        # after stopping, the model must score exactly its best recorded val loss
        ds, prop = tiny_setup
        cfg = TrainConfig(batch_size=4, max_epochs=30, patience=3, repeats=1)
        model = build_tiser_gcn(tiny_model_cfg(), 3)
        val_idx = np.arange(12, 16)
        hist = train(model, ds, prop, cfg, train_idx=np.arange(12),
                     val_idx=val_idx, seed=7)
        assert len(hist.train_loss) <= 30
        best = min(hist.val_loss)
        assert hist.val_loss[hist.best_epoch] == best
        pred = predict_batched(model, prop, ds.X[val_idx], ds.stations.coords(), 8)
        restored = float(np.mean((pred - np.asarray(ds.Y, np.float64)[val_idx]) ** 2))
        assert restored == pytest.approx(best, rel=1e-12)

    def test_stop_below_train_loss(self, tiny_setup):
        ds, prop = tiny_setup
        model = build_tiser_gcn(tiny_model_cfg(), 3)
        hist = train(model, ds, prop,
                     TrainConfig(batch_size=4, max_epochs=50, repeats=1,
                                 stop_below_train_loss=1e9),
                     train_idx=np.arange(12), val_idx=None, seed=0)
        assert len(hist.train_loss) == 1  # first epoch already satisfies it

    def test_previous_batch_tape_freed_before_next_forward(self, tiny_setup, monkeypatch):
        # two batches: the first step's prediction and loss, and so the tape
        # behind them, are gone when the second forward pass starts
        ds, prop = tiny_setup
        model = build_tiser_gcn(tiny_model_cfg(), 3)
        refs, alive_at_forward = [], []
        forward, mse_loss = model.forward, ad.mse_loss

        def spy_forward(*args):
            alive_at_forward.append([r() is not None for r in refs])
            out = forward(*args)
            refs.append(weakref.ref(out))
            return out

        def spy_mse_loss(pred, target):
            out = mse_loss(pred, target)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(model, "forward", spy_forward)
        monkeypatch.setattr(ad, "mse_loss", spy_mse_loss)
        train(model, ds, prop, TrainConfig(batch_size=6, max_epochs=1, repeats=1),
              train_idx=np.arange(12), val_idx=None, seed=0)
        assert alive_at_forward == [[], [False, False]]

    def test_batches_are_gathered_without_copying_the_split(self, tiny_setup):
        # X dwarfs the model, and the split holds 90% of it: one epoch's
        # traced peak stays far below a copy of the split
        small, prop = tiny_setup
        rng = np.random.default_rng(0)
        ds = EventDataset(small.stations,
                          rng.standard_normal((200,) + small.X.shape[1:], dtype=np.float32),
                          rng.standard_normal((200,) + small.Y.shape[1:], dtype=np.float32),
                          small.sample_rate_hz)
        model = build_tiser_gcn(tiny_model_cfg(), 3)
        tracemalloc.start()
        try:
            train(model, ds, prop, TrainConfig(batch_size=4, max_epochs=1, repeats=1),
                  train_idx=np.arange(180), val_idx=None, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.X.nbytes / 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self, tiny_setup):
        ds, prop = tiny_setup
        model = build_tiser_gcn(tiny_model_cfg(), 3)
        model.params()[0].data *= np.inf
        with pytest.raises(TrainingDivergedError):
            train(model, ds, prop, TrainConfig(batch_size=4, max_epochs=2, repeats=1),
                  train_idx=np.arange(12), val_idx=None, seed=0)


class TestPredictBatched:
    def test_records_no_tape_and_matches_taped_forward(self, tiny_setup, monkeypatch):
        ds, prop = tiny_setup
        model = build_tiser_gcn(tiny_model_cfg(), 3)
        z = ds.stations.coords()
        taped = model.forward(prop, ds.X[:4], z)
        assert taped._backward is not None

        closures = []
        node = ad._node

        def spy(data, parents, backward_fn):
            out = node(data, parents, backward_fn)
            closures.append(out._backward)
            return out

        monkeypatch.setattr(ad, "_node", spy)
        pred = predict_batched(model, prop, ds.X[:4], z, batch_size=4)
        assert closures and all(c is None for c in closures)
        assert np.array_equal(pred, taped.data)


class TestMetrics:
    def test_perfect_prediction_is_zero(self, rng):
        y = rng.standard_normal((4, 5, 3))
        m = metrics_from_predictions(y, y.copy())
        for im in m:
            assert m[im] == {"mae": 0.0, "mse": 0.0, "rmse": 0.0}

    def test_constant_offset(self, rng):
        y = rng.standard_normal((4, 5, 3))
        m = metrics_from_predictions(y, y + 0.5)
        for im in m:
            assert m[im]["mae"] == pytest.approx(0.5, rel=1e-12)
            assert m[im]["mse"] == pytest.approx(0.25, rel=1e-12)

    def test_matches_hand_summation(self, rng):
        y = rng.standard_normal((3, 5, 2))
        p = rng.standard_normal((3, 5, 2))
        m = metrics_from_predictions(y, p)
        for i, im in enumerate(("pga", "pgv", "sa03", "sa1", "sa3")):
            cells = [(p[e, i, s] - y[e, i, s]) for e in range(3) for s in range(2)]
            assert m[im]["mse"] == pytest.approx(
                sum(c * c for c in cells) / len(cells), abs=1e-12)
            assert m[im]["mae"] == pytest.approx(
                sum(abs(c) for c in cells) / len(cells), abs=1e-12)

    def test_rmse_squares_to_mse(self, rng):
        m = metrics_from_predictions(rng.standard_normal((4, 5, 3)),
                                     rng.standard_normal((4, 5, 3)))
        for im in m:
            assert m[im]["rmse"] ** 2 == pytest.approx(m[im]["mse"], abs=1e-12)

    def test_predict_batched_rejects_empty(self, tiny_setup):
        ds, prop = tiny_setup
        model = build_tiser_gcn(tiny_model_cfg(), 3)
        with pytest.raises(InputError, match="evaluation set is empty"):
            predict_batched(model, prop, ds.X[:0], ds.stations.coords())


@pytest.fixture(scope="module")
def outcome(tiny_setup):
    ds, prop = tiny_setup
    cfg = TrainConfig(batch_size=8, max_epochs=2, folds=2, repeats=2,
                      test_fraction=0.25)
    return run_protocol("tiser", ds, prop, tiny_model_cfg(), cfg, seed=1)


class TestRunProtocol:
    def test_run_grid_complete(self, outcome):
        report, _ = outcome
        assert len(report.runs) == 4
        assert {(r["repeat"], r["fold"]) for r in report.runs} == \
               {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_aggregate_is_mean_and_std_of_runs(self, outcome):
        report, _ = outcome
        mses = [r["metrics"]["overall"]["mse"] for r in report.runs]
        agg = report.aggregate["overall"]["mse"]
        assert agg["mean"] == pytest.approx(float(np.mean(mses)), rel=1e-12)
        assert agg["std"] == pytest.approx(float(np.std(mses)), rel=1e-12)

    def test_residuals_come_from_best_run(self, outcome):
        report, res = outcome
        best = min(report.runs, key=lambda r: r["metrics"]["overall"]["mse"])
        assert (res["repeat"], res["fold"]) == (best["repeat"], best["fold"])
        assert res["y_true"].shape == res["y_pred"].shape
        assert res["event_idx"].size == res["y_true"].shape[0]

    def test_json_round_trip_and_no_wall_clock(self, outcome):
        report, _ = outcome
        text = json.dumps(asdict(report), sort_keys=True)
        assert "wall" not in text and "time" not in text
        back = RunReport(**json.loads(text))
        assert back.aggregate == report.aggregate
        assert back.param_count == report.param_count

    def test_bitwise_deterministic(self, tiny_setup):
        ds, prop = tiny_setup
        cfg = TrainConfig(batch_size=8, max_epochs=1, folds=2, repeats=1,
                          test_fraction=0.25)
        a, _ = run_protocol("tiser", ds, prop, tiny_model_cfg(), cfg, seed=2)
        b, _ = run_protocol("tiser", ds, prop, tiny_model_cfg(), cfg, seed=2)
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)

    def test_unknown_kind(self, tiny_setup):
        ds, prop = tiny_setup
        with pytest.raises(InputError):
            run_protocol("mlp", ds, prop, tiny_model_cfg(), TrainConfig(), seed=0)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            TrainConfig(batch_size=0)
        with pytest.raises(InputError):
            TrainConfig(test_fraction=1.5)
        with pytest.raises(InputError):
            TrainConfig(folds=1)

    def test_round_trip(self):
        cfg = TrainConfig(batch_size=7, l2=0.5)
        assert TrainConfig(**asdict(cfg)) == cfg
