"""Shared test helpers: finite-difference gradients, per-item oracles of
batched code, and small fixtures."""

import numpy as np
import pytest

from tisergcn import autodiff as ad
from tisergcn import pool as pool_module
from tisergcn.data import normalize_by_input_max
from tisergcn.errors import InputError
from tisergcn.geo import StationSet


def fd_gradients(loss_fn, params, eps=1e-5):
    """Central finite-difference gradient of a scalar-valued closure.

    loss_fn rebuilds the forward pass from the params' current data and
    returns a scalar float; every element of every parameter is bumped
    in both directions.
    """
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * eps)
        grads.append(g.reshape(p.data.shape))
    return grads


def max_rel_err(analytic, numeric):
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-10)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def check_gradients(build_loss, params, tol=1e-6, eps=1e-5):
    """Assert analytic gradients of build_loss() match finite differences."""
    loss = build_loss()
    ad.backward(loss)
    analytic = [p.grad.copy() for p in params]
    ad.zero_grad(params)
    numeric = fd_gradients(lambda: float(build_loss().data), params, eps=eps)
    worst = max(max_rel_err(a, n) for a, n in zip(analytic, numeric))
    assert worst < tol, f"gradient mismatch: max relative error {worst:.3e}"
    return worst


def line_stations(n, spacing_deg=0.1):
    """Stations evenly spaced along the equator; distances are exact multiples."""
    return StationSet.from_pairs([(f"L{i}", 0.0, i * spacing_deg) for i in range(n)])


def feature_vector(x):
    """Oracle of ``baselines.event_features`` for one channel trace: its nine
    FEATURE_NAMES statistics (population variance), with the energy as the
    summed squared magnitude of the full DFT and power as energy / length."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InputError(f"expected a non-empty vector, got shape {x.shape}")
    energy = float(np.sum(np.abs(np.fft.fft(x)) ** 2))
    lo, hi = float(x.min()), float(x.max())
    return np.array([float(x.mean()), float(x.std()), float(x.var()), float(np.median(x)),
                     lo, hi, hi - lo, energy, energy / x.size])


def truncate_window(x, seconds, sample_rate_hz=100):
    """Oracle of ``data.truncate_dataset`` for one event window (N, T, C):
    its first ``seconds``, divided by their largest absolute amplitude."""
    return normalize_by_input_max(x[:, :seconds * sample_rate_hz])[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS set to 2 threads for the test, its count restored
    afterwards; yields its get_num_threads.  Skips without an entry point."""
    entry = pool_module._find_blas()
    if not entry:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        pytest.skip(f"numpy's BLAS ({blas.get('name')}) has no OpenBLAS thread-count entry point")
    get, put = entry
    before = get()
    put(2)
    yield get
    put(before)
