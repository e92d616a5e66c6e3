"""Shipping gate: ten end-to-end checks, one test per requirement.

Fast checks assert exact agreement with independently coded oracles
(nested-loop kernels, a fine-step Runge-Kutta oscillator, exhaustive
neighbor search).  Slow checks train seed-pinned models at desk scale
and compare them against classical baselines computed on the same
splits.  Every test carries its own runtime budget where one applies;
all randomness is seeded, so each check is deterministic.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

import tisergcn.autodiff as ad
from conftest import check_gradients
from tisergcn.baselines import (
    FEATURE_NAMES,
    dataset_features,
    event_features,
    grid_search_cv,
    knn_fit_predict,
    knn_predict,
    mean_predictor,
)
from tisergcn.cli import main as cli_main
from tisergcn.data import (
    SA_DAMPING,
    SA_PERIODS_S,
    compute_ims_batch,
    random_stations,
    synth_dataset,
)
from tisergcn.geo import (
    build_adjacency,
    normalized_laplacian,
    renormalized_adjacency,
)
from tisergcn.layers import Conv1DLayer, DenseLayer, GCNLayer
from tisergcn.model import IM_NAMES, ModelConfig, build_tiser_gcn
from tisergcn.train import (
    TrainConfig,
    predict_batched,
    run_protocol,
    split_protocol,
    train,
)


# ---------------------------------------------------------------------------
# independent oracles (deliberately written as plain loops)

def matmul_oracle(a, b):
    n, inner = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(inner):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def conv1d_oracle(x, kernels, stride):
    *lead, t_len, c_in = x.shape
    k_len, _, filters = kernels.shape
    out_len = (t_len - k_len) // stride + 1
    out = np.zeros((*lead, out_len, filters))
    for idx in np.ndindex(*lead):
        for pos in range(out_len):
            for f in range(filters):
                s = 0.0
                for t in range(k_len):
                    for c in range(c_in):
                        s += x[idx + (pos * stride + t, c)] * kernels[t, c, f]
                out[idx + (pos, f)] = s
    return out


def mix_nodes_oracle(m, h):
    b, n, f_dim = h.shape
    out = np.zeros_like(h)
    for e in range(b):
        for i in range(n):
            for f in range(f_dim):
                s = 0.0
                for j in range(n):
                    s += m[i, j] * h[e, j, f]
                out[e, i, f] = s
    return out


def renormalized_oracle(a):
    n = a.shape[0]
    a_tilde = a + np.eye(n)
    deg = [sum(a_tilde[i, j] for j in range(n)) for i in range(n)]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = a_tilde[i, j] / math.sqrt(deg[i] * deg[j])
    return out


def knn_oracle(train_f, train_y, query_f, k, weights):
    """Exhaustive neighbor search, one query at a time."""
    out = np.empty((query_f.shape[0], train_y.shape[1]))
    for qi in range(query_f.shape[0]):
        d = np.sqrt(((train_f - query_f[qi]) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")[:k]
        dd = d[order]
        if weights == "uniform":
            out[qi] = train_y[order].mean(axis=0)
        elif (dd == 0.0).any():
            out[qi] = train_y[order[dd == 0.0]].mean(axis=0)
        else:
            w = 1.0 / dd
            out[qi] = (w[:, None] * train_y[order]).sum(axis=0) / w.sum()
    return out


def sdof_peak_rk4(accel, dt, period, damping=SA_DAMPING, refine=10):
    """Peak |c v + k u| of the damped oscillator, RK4 at a 10x finer step."""
    omega = 2.0 * math.pi / period
    c = 2.0 * damping * omega
    k = omega * omega
    h = dt / refine
    t_coarse = np.arange(len(accel)) * dt
    t_fine = np.arange((len(accel) - 1) * refine + 1) * h
    a = np.interp(t_fine, t_coarse, accel)

    u = v = 0.0
    peak = 0.0
    for i in range(len(t_fine) - 1):
        a0, a1 = a[i], a[i + 1]
        am = 0.5 * (a0 + a1)

        def f(u_, v_, a_):
            return v_, -a_ - c * v_ - k * u_

        k1u, k1v = f(u, v, a0)
        k2u, k2v = f(u + 0.5 * h * k1u, v + 0.5 * h * k1v, am)
        k3u, k3v = f(u + 0.5 * h * k2u, v + 0.5 * h * k2v, am)
        k4u, k4v = f(u + h * k3u, v + h * k3v, a1)
        u += h / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v += h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        peak = max(peak, abs(c * v + k * u))
    return peak


# ---------------------------------------------------------------------------
# shared desk-scale training runs (computed once, used by tests 5 and 6)

DESK_MODEL = dict(conv_filters=(8, 16), conv_kernels=(32, 32), conv_strides=(4, 4),
                  dtype="f32")


def _single_split_run(ds, prop, mcfg, tcfg, seed):
    """Train on one split's folds, return test MSE plus the split itself."""
    plan = split_protocol(ds.n_events, seed, tcfg)[0]
    tr, va, te = plan.train_idx(0), plan.folds[0], plan.test_idx
    model = build_tiser_gcn(mcfg, ds.n_nodes)
    train(model, ds, prop, tcfg, train_idx=tr, val_idx=va, seed=seed)
    pred = predict_batched(model, prop, ds.X[te], ds.stations.coords(), 20)
    y = np.asarray(ds.Y, dtype=np.float64)
    mse = float(np.mean((pred - y[te]) ** 2))
    return mse, np.concatenate([tr, va]), te


@pytest.fixture(scope="session")
def learning_comparison():
    """Three seeded graph-model runs vs KNN and mean baselines, same splits."""
    t0 = time.monotonic()
    st = random_stations(20, seed=7)
    ds = synth_dataset(st, 400, seed=0)
    prop = renormalized_adjacency(build_adjacency(st, 0.3))
    y_flat = np.asarray(ds.Y, dtype=np.float64).reshape(ds.n_events, -1)
    feats = dataset_features(ds)
    tcfg = TrainConfig(batch_size=10, max_epochs=40, patience=12, l2=1e-3, repeats=1)

    gnn, knn, mean = [], [], []
    for seed in (0, 1, 2):
        mcfg = ModelConfig(init_seed=seed, **DESK_MODEL)
        mse, fit, te = _single_split_run(ds, prop, mcfg, tcfg, seed)
        gnn.append(mse)
        choices, _ = grid_search_cv(feats[fit], y_flat[fit])
        pred = knn_fit_predict(feats[fit], y_flat[fit], feats[te], choices)
        knn.append(float(np.mean((pred - y_flat[te]) ** 2)))
        const = mean_predictor(y_flat[fit], te.size)
        mean.append(float(np.mean((const - y_flat[te]) ** 2)))
    return {"gnn": gnn, "knn": knn, "mean": mean,
            "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="session")
def metadata_ablation():
    """Coordinate on/off pairs on data with a position-linear site effect."""
    st = random_stations(20, seed=7)
    ds = synth_dataset(st, 150, seed=11, input_seconds=6,
                       mag_range=(4.4, 4.6), site_amp=0.4)
    prop = renormalized_adjacency(build_adjacency(st, 0.3))
    tcfg = TrainConfig(batch_size=10, max_epochs=25, patience=25, l2=1e-3, repeats=1)

    mses = {True: [], False: []}
    for seed in (0, 1, 2):
        for meta in (True, False):
            mcfg = ModelConfig(input_seconds=6, use_metadata=meta,
                               init_seed=seed, **DESK_MODEL)
            mse, _, _ = _single_split_run(ds, prop, mcfg, tcfg, seed)
            mses[meta].append(mse)
    return mses


# ---------------------------------------------------------------------------
# 1. analytic gradients match central finite differences at 64-bit

def test_01_gradients_match_finite_differences_at_64bit():
    started = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng((101, seed))

        conv = Conv1DLayer(5, 2, 3, stride=2, activation="relu", rng=rng, name="c")
        xc = ad.parameter(rng.normal(size=(2, 17, 2)))
        check_gradients(
            lambda: ad.mse_loss(conv.apply(xc), np.zeros((2, 7, 3))),
            conv.params() + [xc], tol=1e-4, eps=1e-6)

        gcn = GCNLayer(3, 4, "tanh", rng, name="g")
        m = rng.normal(size=(4, 4))
        hg = ad.parameter(rng.normal(size=(2, 4, 3)))
        check_gradients(
            lambda: ad.mse_loss(gcn.apply(m, hg), np.zeros((2, 4, 4))),
            gcn.params() + [hg], tol=1e-4, eps=1e-6)

        dense = DenseLayer(6, 3, "relu", rng, name="d")
        xd = ad.parameter(rng.normal(size=(4, 6)))
        check_gradients(
            lambda: ad.mse_loss(dense.apply(xd), np.zeros((4, 3))),
            dense.params() + [xd], tol=1e-4, eps=1e-6)

        # full model: forward pass + data term + weight penalty
        l2_coeff = 1e-3
        cfg = ModelConfig(input_seconds=1, sample_rate_hz=64, channels=2,
                          conv_filters=(2, 3), conv_kernels=(8, 4),
                          conv_strides=(3, 2), gcn_filters=(3, 3),
                          dense_width=4, dtype="f64",
                          init_seed=seed)
        model = build_tiser_gcn(cfg, n_nodes=3)
        prop = renormalized_adjacency(build_adjacency(random_stations(3, seed=seed), 0.3))
        x = rng.normal(size=(2, 3, 64, 2))
        z = random_stations(3, seed=seed).coords()
        y = rng.normal(size=(2, 5, 3))
        # differentiate at a generic point: zero-initialized biases can park
        # a relu input exactly on its kink, where finite differences see the
        # jump but the one-sided derivative is legitimately zero
        for p in model.params():
            if p.name.endswith(".bias"):
                p.data = 0.05 * rng.normal(size=p.data.shape)

        def full_loss():
            out = model.forward(prop, x, z)
            return ad.add(ad.mse_loss(out, y),
                          ad.l2_penalty(model.l2_params(), l2_coeff))

        check_gradients(full_loss, model.params(), tol=1e-4, eps=1e-6)
    assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# 2. math kernels agree with nested-loop oracles to 1e-12

def test_02_kernel_ops_match_bruteforce_oracles():
    rng = np.random.default_rng(202)
    for _ in range(10):
        n, inner, m = rng.integers(1, 9), rng.integers(1, 65), rng.integers(1, 9)
        a, b = rng.normal(size=(n, inner)), rng.normal(size=(inner, m))
        got = ad.matmul(ad.parameter(a), ad.parameter(b)).data
        assert np.abs(got - matmul_oracle(a, b)).max() < 1e-12

    for _ in range(8):
        t_len = int(rng.integers(4, 65))
        k_len = int(rng.integers(1, min(t_len, 8) + 1))
        stride = int(rng.integers(1, 4))
        c_in, filters = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        x = rng.normal(size=(2, int(rng.integers(1, 9)), t_len, c_in))
        k = rng.normal(size=(k_len, c_in, filters))
        got = ad.conv1d(ad.parameter(x), ad.parameter(k), stride).data
        assert np.abs(got - conv1d_oracle(x, k, stride)).max() < 1e-12

    for _ in range(8):
        n, f_dim = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        m = rng.normal(size=(n, n))
        h = rng.normal(size=(3, n, f_dim))
        got = ad.mix_nodes(m, ad.parameter(h)).data
        assert np.abs(got - mix_nodes_oracle(m, h)).max() < 1e-12

    # n = 2 is rejected upstream: a single pairwise distance has no min-max scale
    for n in range(3, 9):
        g = build_adjacency(random_stations(n, seed=n), float(rng.uniform(0, 0.9)))
        got = renormalized_adjacency(g)
        assert np.abs(got - renormalized_oracle(g.A)).max() < 1e-12


# ---------------------------------------------------------------------------
# 3. graph construction invariants

def test_03_graph_construction_invariants():
    started = time.monotonic()

    st = random_stations(12, seed=3)
    prev = None
    for k in np.linspace(0.0, 1.0, 20):
        g = build_adjacency(st, float(k))
        edges = {(i, j) for i in range(g.n) for j in range(g.n) if g.A[i, j] > 0.0}
        if prev is not None:
            assert edges <= prev, f"edge set grew when k rose to {k}"
        prev = edges

    for seed in range(5):
        g = build_adjacency(random_stations(6 + seed, seed=seed), 0.3)
        lap = normalized_laplacian(g)
        ren = renormalized_adjacency(g)
        assert np.abs(lap - lap.T).max() < 1e-15
        assert np.abs(ren - ren.T).max() < 1e-15

    rng = np.random.default_rng(303)
    for seed in range(5):
        n = 6
        g = build_adjacency(random_stations(n, seed=seed), 0.3)
        m = renormalized_adjacency(g)
        layer = GCNLayer(4, 5, "relu", np.random.default_rng(seed), name="g")
        h = rng.normal(size=(2, n, 4))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        direct = layer.apply(m, ad.parameter(h)).data[:, perm]
        relabeled = layer.apply(p @ m @ p.T, ad.parameter(h[:, perm])).data
        assert np.abs(direct - relabeled).max() < 1e-10

    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# 4. the stock model can drive training error into the floor on 8 events

@pytest.mark.slow
def test_04_default_model_overfits_eight_events():
    started = time.monotonic()
    st = random_stations(10, seed=7)
    ds = synth_dataset(st, 8, seed=0)
    prop = renormalized_adjacency(build_adjacency(st, 0.3))
    model = build_tiser_gcn(ModelConfig(), ds.n_nodes)
    cfg = TrainConfig(batch_size=20, max_epochs=500, patience=500, repeats=1,
                      stop_below_train_loss=0.01)
    hist = train(model, ds, prop, cfg, seed=0)
    elapsed = time.monotonic() - started
    assert len(hist.train_loss) <= 500
    assert min(hist.train_loss) < 0.01, \
        f"train MSE only reached {min(hist.train_loss):.4f}"
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 5. the graph model beats the mean predictor by >=30% and the tuned KNN

@pytest.mark.slow
def test_05_graph_model_beats_mean_and_knn_baselines(learning_comparison):
    med = {k: float(np.median(v)) for k, v in learning_comparison.items()
           if k != "elapsed"}
    assert med["gnn"] <= 0.7 * med["mean"], \
        f"model {med['gnn']:.4f} vs mean predictor {med['mean']:.4f}"
    assert med["gnn"] < med["knn"], \
        f"model {med['gnn']:.4f} vs KNN {med['knn']:.4f}"
    assert learning_comparison["elapsed"] < 900.0


# ---------------------------------------------------------------------------
# 6. station coordinates help on data with a position-dependent site effect

@pytest.mark.slow
def test_06_metadata_improves_site_effect_regression(metadata_ablation):
    with_meta = float(np.median(metadata_ablation[True]))
    without = float(np.median(metadata_ablation[False]))
    assert with_meta <= without, \
        f"median MSE with coordinates {with_meta:.4f} vs without {without:.4f}"


# ---------------------------------------------------------------------------
# 7. the window sweep runs 10 -> 4 s for both models and shrinks them

SWEEP_SPEC = {
    "synth": {"n_stations": 3, "n_events": 12, "station_seed": 5,
              "input_seconds": 10, "total_seconds": 30.0},
    "model": {"kind": "tiser", "input_seconds": 10, "conv_filters": [2, 3],
              "conv_kernels": [16, 8], "conv_strides": [4, 4],
              "gcn_filters": [4, 4], "dense_width": 8, "dtype": "f64"},
    "train": {"batch_size": 8, "max_epochs": 1, "folds": 2, "repeats": 1,
              "test_fraction": 0.25},
    "seed": 0,
    "ablate": {"ks": [0.3], "windows": [10, 9, 8, 7, 6, 5, 4]},
}


def test_07_window_sweep_emits_curves_with_shrinking_models(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SWEEP_SPEC))
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    out = tmp_path / "sweep"
    assert cli_main(["ablate-window", "--spec", str(spec_path),
                     "--dataset", str(data_dir), "--out", str(out)]) == 0

    with open(out / "ablate_window.csv", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[1] == "model,window_seconds,param_count,mse"
    rows = [ln.split(",") for ln in lines[2:]]
    for kind in ("tiser", "cnn"):
        sub = [(int(r[1]), int(r[2])) for r in rows if r[0] == kind]
        assert [w for w, _ in sub] == [10, 9, 8, 7, 6, 5, 4], \
            f"{kind} curve does not cover 10..4 s"
        counts = [c for _, c in sub]
        assert all(a > b for a, b in zip(counts, counts[1:])), \
            f"{kind} parameter count not strictly decreasing: {counts}"


# ---------------------------------------------------------------------------
# 8. protocol fidelity: split laws, RMSE^2 == MSE, bitwise reruns

def test_08_protocol_split_laws_and_reproducible_reports():
    plans = split_protocol(100, seed=123)
    assert len(plans) == 5
    test_sets = set()
    for plan in plans:
        assert plan.test_idx.size == 20
        assert len(plan.folds) == 5
        assert all(f.size == 16 for f in plan.folds)
        everything = np.concatenate([plan.test_idx, *plan.folds])
        assert sorted(everything.tolist()) == list(range(100))
        test_sets.add(tuple(sorted(plan.test_idx.tolist())))
    assert len(test_sets) == 5, "repeats reuse a test set"

    def protocol_once():
        st = random_stations(3, seed=5)
        ds = synth_dataset(st, 16, seed=3, input_seconds=4, total_seconds=16.0)
        prop = renormalized_adjacency(build_adjacency(st, 0.3))
        mcfg = ModelConfig(input_seconds=4, conv_filters=(2, 3),
                           conv_kernels=(16, 8), conv_strides=(4, 4),
                           gcn_filters=(4, 4), dense_width=8, dtype="f64")
        tcfg = TrainConfig(batch_size=8, max_epochs=2, folds=2, repeats=2,
                           test_fraction=0.25)
        return run_protocol("tiser", ds, prop, mcfg, tcfg, seed=9)

    report, residuals = protocol_once()
    for run in report.runs:
        for name in list(IM_NAMES) + ["overall"]:
            cell = run["metrics"][name]
            assert abs(cell["rmse"] ** 2 - cell["mse"]) < 1e-12

    report2, residuals2 = protocol_once()
    assert json.dumps(asdict(report), sort_keys=True) == \
        json.dumps(asdict(report2), sort_keys=True)
    assert np.array_equal(residuals["y_pred"], residuals2["y_pred"])
    assert np.array_equal(residuals["event_idx"], residuals2["event_idx"])


# ---------------------------------------------------------------------------
# 9. summary features and KNN match hand values and an exhaustive oracle

def test_09_features_and_knn_match_oracles():
    idx = {name: i for i, name in enumerate(FEATURE_NAMES)}
    f = event_features(np.array([1.0, 2.0, 3.0])[None, :, None])
    assert abs(f[idx["mean"]] - 2.0) < 1e-4
    assert abs(f[idx["var"]] - 2.0 / 3.0) < 1e-4
    assert abs(f[idx["median"]] - 2.0) < 1e-4
    assert abs(f[idx["range"]] - 2.0) < 1e-4

    rng = np.random.default_rng(909)
    x = rng.normal(size=257)
    f = event_features(x[None, :, None])
    time_energy = x.size * float(np.sum(x * x))
    assert abs(f[idx["energy"]] - time_energy) / time_energy < 1e-6

    train_f = rng.normal(size=(30, 4))
    train_y = rng.normal(size=(30, 3))
    query_f = rng.normal(size=(9, 4))
    for k in (1, 2, 5, 8):
        for weights in ("uniform", "distance"):
            got = knn_predict(train_f, train_y, query_f, k, weights)
            want = knn_oracle(train_f, train_y, query_f, k, weights)
            assert np.array_equal(got, want), f"KNN differs at k={k}, {weights}"

    # zero-distance queries collapse onto their exact matches
    dup = knn_predict(train_f, train_y, train_f[:4], 5, "distance")
    assert np.array_equal(dup, train_y[:4])

    # planted optimum: every point has a near-identical twin, so k=1 wins
    base = np.arange(10.0)[:, None] * 10.0
    feats = np.vstack([base, base])
    labels = np.vstack([base[:, :1], base[:, :1] + 1e-9])
    choices, grid_mse = grid_search_cv(feats, labels, n_folds=5)
    assert all(choice.k == 1 for choice in choices), choices
    assert grid_mse.shape[0] == 40


# ---------------------------------------------------------------------------
# 10. intensity measures: linear scaling and oscillator resonance

def test_10_intensity_measures_scale_and_resonate_correctly():
    rng = np.random.default_rng(1010)
    w = rng.normal(size=(1500, 3)) * np.hanning(1500)[:, None]
    base = np.array(compute_ims_batch(w, 0.01))
    for c in (2.0, 0.5, 37.0):
        scaled = np.array(compute_ims_batch(c * w, 0.01))
        assert np.abs(scaled - c * base).max() / np.abs(c * base).max() < 1e-9

    dt = 0.005
    for i, period in enumerate(SA_PERIODS_S):
        t = np.arange(0.0, 12.0 * period, dt)
        accel = np.sin(2.0 * np.pi * t / period)
        ims = compute_ims_batch(accel[:, None], dt)
        oracle = sdof_peak_rk4(accel, dt, period, SA_DAMPING, refine=10)
        rel = abs(ims[2 + i] - oracle) / oracle
        assert rel < 0.02, f"SA({period}s) off by {rel:.2%} vs fine-step oracle"
