"""Dataset layer: intensity measures, normalization, the synthetic
generator's physical invariants, and the on-disk container format."""

import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tisergcn import data
from tisergcn import pool as pool_module
from tisergcn.data import (
    DEFAULT_NOISE_AMP,
    EventDataset,
    LOG_EPS,
    SA_DAMPING,
    SA_PERIODS_S,
    SynthEvent,
    V_P_KM_S,
    _newmark_peak_abs_accel,
    _station_distances_km,
    compute_ims_batch,
    load_dataset,
    normalize_by_input_max,
    random_stations,
    save_dataset,
    synth_dataset,
    synth_event_waveforms,
    truncate_dataset,
)
from tisergcn.errors import (
    ConsistencyError,
    DatasetFormatError,
    DatasetVersionError,
    DegenerateInputError,
    InputError,
    TruncatedFileError,
)
from tisergcn.geo import StationSet

from conftest import line_stations, truncate_window


# ---------------------------------------------------------------------------
# independent oscillator oracle: RK4 at a 10x finer step, with the ground
# acceleration linearly interpolated between samples

def sdof_peak_rk4(accel, dt, period, damping=SA_DAMPING, refine=10):
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
# step-by-step oracle for the blocked Newmark kernel: the average-acceleration
# recursion (gamma = 1/2, beta = 1/4) one sample at a time, vectorized over rows

def newmark_peak_step_loop(accel, dt, period, damping=SA_DAMPING):
    accel = np.asarray(accel, dtype=np.float64)
    lead = accel.shape[:-1]
    p = -accel.reshape(-1, accel.shape[-1])
    rows, t_len = p.shape

    gamma, beta = 0.5, 0.25
    omega = 2.0 * math.pi / period
    c = 2.0 * damping * omega
    k = omega * omega
    k_eff = k + gamma / (beta * dt) * c + 1.0 / (beta * dt * dt)
    ca = 1.0 / (beta * dt) + (gamma / beta) * c
    cb = 1.0 / (2.0 * beta) + dt * (gamma / (2.0 * beta) - 1.0) * c

    u = np.zeros(rows)
    v = np.zeros(rows)
    acc = p[:, 0].copy()
    peak = np.abs(c * v + k * u)
    for i in range(t_len - 1):
        dp = p[:, i + 1] - p[:, i]
        du = (dp + ca * v + cb * acc) / k_eff
        dv = (gamma / (beta * dt)) * du - (gamma / beta) * v \
            + dt * (1.0 - gamma / (2.0 * beta)) * acc
        dacc = du / (beta * dt * dt) - v / (beta * dt) - acc / (2.0 * beta)
        u += du
        v += dv
        acc += dacc
        np.maximum(peak, np.abs(c * v + k * u), out=peak)
    return peak.reshape(lead)


# ---------------------------------------------------------------------------
# waveform oracle: the generator as (N, T) and (N, T, 3) broadcasts over
# every sample, with the same random draws in the same order

def synth_event_waveforms_broadcast(stations, event, total_seconds, sample_rate_hz=100,
                                    noise_amp=DEFAULT_NOISE_AMP, site_amp=0.0):
    rng = np.random.default_rng(event.seed)
    n = len(stations)
    t_len = int(round(total_seconds * sample_rate_hz))
    dt = 1.0 / sample_rate_hz
    t = np.arange(t_len) * dt

    d_epi = _station_distances_km(stations, event.epicenter)
    d_hyp = np.hypot(d_epi, event.depth_km)
    amp = (10.0 ** (event.magnitude - 3.0) / (d_hyp + data.DIST_FLOOR_KM)
           * data.site_amplification(stations, site_amp))

    mix_p = np.array([1.0, 0.5, 0.5]) * (0.9 + 0.2 * rng.random(3))
    mix_s = np.array([0.5, 1.0, 0.8]) * (0.9 + 0.2 * rng.random(3))
    corner = 10.0 ** (-0.2 * (event.magnitude - 4.0))
    f_p = 2.0 * corner * (0.95 + 0.1 * rng.random())
    f_s = 0.7 * corner * (0.95 + 0.1 * rng.random())
    tau_s = 8.0 * 10.0 ** (0.15 * (event.magnitude - 4.0))

    def wavelet(onset_s, freq, decay_s):
        rel = t[None, :] - onset_s[:, None]
        env = np.where(rel > 0.0,
                       np.minimum(rel / 0.2, 1.0) * np.exp(-np.maximum(rel, 0.0) / decay_s),
                       0.0)
        return env * np.sin(2.0 * math.pi * freq * rel)

    wp = wavelet(event.origin_time_s + d_epi / V_P_KM_S, f_p, 2.0)
    ws = wavelet(event.origin_time_s + d_epi / data.V_S_KM_S, f_s, tau_s)

    w = amp[:, None, None] * (data.P_REL_AMP * wp[:, :, None] * mix_p[None, None, :]
                              + ws[:, :, None] * mix_s[None, None, :])
    if noise_amp > 0.0:
        w = w + noise_amp * rng.standard_normal((n, t_len, 3))
    return w


# ---------------------------------------------------------------------------
# dataset oracle: every event in turn on the calling thread, one chunk of
# events of at most _CHUNK_BYTES of f64 waveforms at a time

def synth_dataset_serial(stations, n_events, seed, input_seconds=10, total_seconds=60.0,
                         sample_rate_hz=100, noise_amp=DEFAULT_NOISE_AMP,
                         mag_range=(3.0, 5.5), site_amp=0.0):
    rng = np.random.default_rng(seed)
    coords = stations.coords()
    lat_lo, lat_hi = coords[:, 0].min(), coords[:, 0].max()
    lon_lo, lon_hi = coords[:, 1].min(), coords[:, 1].max()
    margin_lat = 0.05 * (lat_hi - lat_lo) + 0.02
    margin_lon = 0.05 * (lon_hi - lon_lo) + 0.02
    events = []
    for _ in range(n_events):
        lat = rng.uniform(lat_lo - margin_lat, lat_hi + margin_lat)
        lon = rng.uniform(lon_lo - margin_lon, lon_hi + margin_lon)
        depth = rng.uniform(2.0, 15.0)
        mag = rng.uniform(*mag_range)
        t0 = rng.uniform(0.0, 1.0)
        events.append(SynthEvent((lat, lon), depth, mag, t0, int(rng.integers(0, 2**62))))

    n = len(stations)
    window = input_seconds * sample_rate_hz
    t_len = int(round(total_seconds * sample_rate_hz))
    dt = 1.0 / sample_rate_hz
    X = np.empty((n_events, n, window, 3), dtype=np.float32)
    Y = np.empty((n_events, 5, n), dtype=np.float32)
    chunk = max(1, data._CHUNK_BYTES // (8 * n * t_len * 3))
    for lo in range(0, n_events, chunk):
        hi = min(lo + chunk, n_events)
        wave = np.empty((hi - lo, n, t_len, 3))
        for e in range(lo, hi):
            wave[e - lo] = synth_event_waveforms(stations, events[e], total_seconds,
                                                 sample_rate_hz, noise_amp, site_amp)
            X[e], _ = normalize_by_input_max(wave[e - lo, :, :window, :])
        ims = compute_ims_batch(wave, dt)
        Y[lo:hi] = np.log10(ims + LOG_EPS).transpose(0, 2, 1)
    return events, X, Y


BLOCK = data._NEWMARK_BLOCK


class TestBlockedNewmark:
    @pytest.mark.parametrize("period", SA_PERIODS_S)
    @pytest.mark.parametrize("dt", [0.01, 0.04])
    @pytest.mark.parametrize("t_len", [2, BLOCK - 1, BLOCK, BLOCK + 1, 6000])
    def test_matches_step_loop(self, rng, period, dt, t_len):
        accel = rng.standard_normal((4, t_len))
        got = _newmark_peak_abs_accel(accel, dt, period)
        want = newmark_peak_step_loop(accel, dt, period)
        assert got.shape == (4,)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    @pytest.mark.parametrize("period", SA_PERIODS_S)
    def test_resonant_sine_matches_step_loop(self, period):
        dt = 0.01
        t = np.arange(0, 20.0 * period, dt)
        accel = np.sin(2 * math.pi / period * t)[None, :]
        got = _newmark_peak_abs_accel(accel, dt, period)
        want = newmark_peak_step_loop(accel, dt, period)
        assert abs(got[0] - want[0]) <= 1e-10 * want[0]

    def test_zero_input_gives_zero(self):
        assert np.array_equal(_newmark_peak_abs_accel(np.zeros((3, 500)), 0.01, 1.0),
                              np.zeros(3))

    # the row counts of one GEMM slice (256 rows of G, 2730 of E and H) and
    # of a 1 MB chunk (4096 rows), either side of them, and last tiles of
    # one to seven rows.  Each Newmark product is one np.matmul into the
    # chunk's buffer, on one BLAS thread inside a pool task; it must give
    # the bytes of one matmul that OpenBLAS slices over two threads.
    @pytest.mark.parametrize("rows", [1, 2, 3, 255, 256, 257, 258, 259, 263, 2730, 2731,
                                      4096, 4097, 4103])
    def test_sliced_gemm_equals_one_matmul(self, rng, rows):
        G, H, E, _ = data._newmark_operators(0.01, 1.0, SA_DAMPING)
        dp = rng.standard_normal((rows, BLOCK))
        s = rng.standard_normal((rows, 3))
        entry = pool_module._find_blas()
        before = entry[0]() if entry else None
        for a, b in ((dp, G), (dp, E), (s, H)):
            if entry:
                entry[1](2)
            try:
                want = np.matmul(a, b)
            finally:
                if entry:
                    entry[1](before)
            with pool_module.blas_on_caller():
                got = np.matmul(a, b, out=np.empty((rows, b.shape[1])))
            assert got.tobytes() == want.tobytes()

    def test_leading_axes_and_strided_input(self, rng):
        w = rng.standard_normal((3, 2, 300, 3))
        per_channel = np.moveaxis(w, -1, -2)              # (3, 2, 3, 300), strided
        got = _newmark_peak_abs_accel(per_channel, 0.01, 0.3)
        want = newmark_peak_step_loop(per_channel, 0.01, 0.3)
        assert got.shape == (3, 2, 3)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
        one = _newmark_peak_abs_accel(w[1, 0, :, 2], 0.01, 0.3)
        assert one.shape == () and abs(one - want[1, 0, 2]) <= 1e-10 * want[1, 0, 2]


class TestBoundedChunks:
    # T - 1 is a whole number of blocks, so a budget of n waveforms gives
    # chunks of n waveforms in both the PGA/PGV loop and the SA kernel
    T = 6 * BLOCK + 1

    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_chunked_ims_match_one_chunk(self, monkeypatch, per_chunk):
        # a fresh input per case, so no freed buffer holds the right answer
        w = np.random.default_rng(per_chunk).standard_normal((5, self.T, 3))
        # chunks of 1 waveform, or of 2, 2 and 1
        monkeypatch.setattr(data, "_CHUNK_BYTES", per_chunk * 8 * self.T * 3)
        chunked = compute_ims_batch(w, 0.01)
        pga = np.abs(w).max(axis=(1, 2))
        pgv = np.abs(np.cumsum(0.5 * 0.01 * (w[:, 1:] + w[:, :-1]), axis=1)).max(axis=(1, 2))
        assert np.array_equal(chunked[:, 0], pga) and np.array_equal(chunked[:, 1], pgv)
        rows = w.transpose(0, 2, 1).reshape(15, self.T)
        sa = np.stack([newmark_peak_step_loop(rows, 0.01, p).reshape(5, 3).max(axis=1)
                       for p in SA_PERIODS_S], axis=1)
        assert np.all(np.abs(chunked[:, 2:] - sa) <= 1e-10 * sa)
        monkeypatch.undo()
        assert np.allclose(chunked, compute_ims_batch(w, 0.01), rtol=1e-13, atol=0)

    def test_chunked_kernel_on_rows(self, rng, monkeypatch):
        accel = rng.standard_normal((5, self.T))
        want = newmark_peak_step_loop(accel, 0.01, 1.0)
        for per_chunk in (1, 2):
            monkeypatch.setattr(data, "_CHUNK_BYTES", per_chunk * 8 * (self.T - 1))
            got = _newmark_peak_abs_accel(accel, 0.01, 1.0)
            assert np.all(np.abs(got - want) <= 1e-10 * want)

    def test_non_finite_row_stays_in_its_row(self, rng, monkeypatch):
        # rows share the kernel's buffers from chunk to chunk, padding too
        accel = rng.standard_normal((3, self.T + 5))
        accel[0, 7] = np.inf
        monkeypatch.setattr(data, "_CHUNK_BYTES", 8 * 7 * BLOCK)   # one padded row
        with np.errstate(invalid="ignore"):
            got = _newmark_peak_abs_accel(accel, 0.01, 1.0)
        assert not np.isfinite(got[0])
        assert np.allclose(got[1:], _newmark_peak_abs_accel(accel[1:], 0.01, 1.0),
                           rtol=1e-13, atol=0)

    def test_memory_stays_within_budget(self, rng):
        w = rng.standard_normal((60, 10, 6000, 3))
        compute_ims_batch(w[:1, :1], 0.01)                 # operators cached
        tracemalloc.start()
        try:
            out = compute_ims_batch(w, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (60, 10, 5)
        assert peak <= 3 * data._CHUNK_BYTES


class TestIntensityMeasures:
    def test_zero_waveform_gives_zero_ims(self):
        ims = compute_ims_batch(np.zeros((200, 3)), 0.01)
        assert ims.shape == (5,) and np.all(ims == 0.0)

    def test_pga_spike(self):
        w = np.zeros((100, 3))
        w[40, 1] = -1.0
        assert compute_ims_batch(w, 0.01)[0] == 1.0

    def test_pga_takes_max_over_channels(self, rng):
        w = rng.standard_normal((300, 3))
        assert compute_ims_batch(w, 0.01)[0] == pytest.approx(np.abs(w).max(), abs=0)

    def test_pgv_constant_acceleration(self):
        # v(t) = t under unit acceleration; trapezoid integration is exact
        w = np.zeros((101, 3))
        w[:, 0] = 1.0
        pgv = compute_ims_batch(w, 0.01)[1]
        assert pgv == pytest.approx(1.0, rel=1e-12)

    def test_pgv_sine_has_double_amplitude(self):
        # v(t) = (1 - cos wt)/w peaks at 2/w for a started-at-zero sine
        f = 1.0
        t = np.arange(0, 3.0, 0.005)
        w = np.zeros((t.size, 3))
        w[:, 2] = np.sin(2 * math.pi * f * t)
        pgv = compute_ims_batch(w, 0.005)[1]
        assert pgv == pytest.approx(2.0 / (2 * math.pi * f), rel=1e-4)

    @pytest.mark.parametrize("period", SA_PERIODS_S)
    def test_sa_resonance_matches_fine_step_oracle(self, period):
        # resonant harmonic input: the strongest response the oscillator sees
        dt = 0.01
        t = np.arange(0, 12.0 * period, dt)
        w = np.zeros((t.size, 3))
        w[:, 0] = np.sin(2 * math.pi / period * t)
        got = compute_ims_batch(w, dt)[2 + SA_PERIODS_S.index(period)]
        want = sdof_peak_rk4(w[:, 0], dt, period)
        assert got == pytest.approx(want, rel=0.02)

    def test_sa_off_resonance_matches_fine_step_oracle(self):
        dt = 0.01
        t = np.arange(0, 8.0, dt)
        sig = np.sin(2 * math.pi * 3.0 * t) + 0.4 * np.sin(2 * math.pi * 0.7 * t + 1.0)
        w = np.zeros((t.size, 3))
        w[:, 1] = sig
        got = compute_ims_batch(w, dt)[3]  # SA(1 s)
        want = sdof_peak_rk4(sig, dt, 1.0)
        assert got == pytest.approx(want, rel=0.02)

    def test_sa_takes_max_over_channels(self, rng):
        w = rng.standard_normal((400, 3))
        per_channel = [
            compute_ims_batch(np.pad(w[:, [c]], ((0, 0), (0, 2))), 0.01)[2]
            for c in range(3)
        ]
        assert compute_ims_batch(w, 0.01)[2] == pytest.approx(max(per_channel), rel=1e-12)

    def test_linear_scaling(self, rng):
        w = rng.standard_normal((500, 3))
        base = np.array(compute_ims_batch(w, 0.01))
        for c in (2.0, 0.5, 37.0):
            scaled = np.array(compute_ims_batch(c * w, 0.01))
            assert np.allclose(scaled, c * base, rtol=1e-9, atol=0)

    def test_batch_matches_single(self, rng):
        w = rng.standard_normal((4, 6, 200, 3))
        batch = compute_ims_batch(w, 0.01)
        assert batch.shape == (4, 6, 5)
        one = compute_ims_batch(w[2, 3], 0.01)
        assert np.allclose(batch[2, 3], one, rtol=1e-14)

    def test_input_validation(self):
        with pytest.raises(InputError):
            compute_ims_batch(np.zeros((100, 3)), 0.0)
        with pytest.raises(InputError):
            compute_ims_batch(np.zeros((1, 3)), 0.01)
        with pytest.raises(InputError):
            compute_ims_batch(np.zeros((100,)), 0.01)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -0.01])
    def test_non_finite_or_negative_dt_rejected(self, dt):
        with pytest.raises(InputError):
            compute_ims_batch(np.ones((2, 100, 3)), dt)


def one_event(x):
    """A one-event, 100 Hz dataset whose window is x (N, T, C)."""
    return EventDataset(stations=line_stations(x.shape[0]), X=x[None],
                        Y=np.zeros((1, 5, x.shape[0])), sample_rate_hz=100)


class TestNormalization:
    def test_scales_to_unit_max(self, rng):
        x = rng.standard_normal((4, 100, 3)) * 7.3
        out, scale = normalize_by_input_max(x)
        assert np.abs(out).max() == pytest.approx(1.0, abs=1e-15)
        assert scale == pytest.approx(np.abs(x).max(), abs=0)
        assert np.allclose(out * scale, x, atol=0)

    def test_second_pass_is_identity(self, rng):
        x, _ = normalize_by_input_max(rng.standard_normal((2, 50, 3)))
        again, scale = normalize_by_input_max(x)
        assert scale == 1.0
        assert np.array_equal(again, x)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_by_input_max(np.zeros((3, 10, 3)))

    def test_truncate_window_renormalizes(self, rng):
        x = rng.standard_normal((3, 1000, 3))
        x[:, :400, :] *= 0.001  # quiet head, loud tail
        out = truncate_dataset(one_event(x), 4).X[0]
        assert out.shape == (3, 400, 3)
        assert np.abs(out).max() == pytest.approx(1.0, abs=1e-15)

    def test_truncate_window_bounds(self, rng):
        x = rng.standard_normal((2, 1000, 3))
        for bad in (3, 11):
            with pytest.raises(InputError):
                truncate_dataset(one_event(x), bad)
        with pytest.raises(InputError):
            truncate_dataset(one_event(x[:, :300, :]), 4)

    def test_truncate_dataset_keeps_targets(self, rng):
        st = random_stations(3, seed=1)
        ds = synth_dataset(st, 12, seed=2, input_seconds=10, total_seconds=20.0)
        cut = truncate_dataset(ds, 5)
        assert cut.n_samples == 500
        assert np.array_equal(cut.Y, ds.Y)
        assert cut.input_seconds == 5

    @pytest.mark.parametrize("seconds", [4, 7, 10])
    def test_truncate_dataset_equals_per_event_loop(self, seconds):
        ds = synth_dataset(random_stations(4, seed=1), 9, seed=3, input_seconds=10,
                           total_seconds=20.0)
        loop = np.stack([truncate_window(np.asarray(ds.X[e], dtype=np.float64), seconds, 100)
                         for e in range(ds.n_events)]).astype(ds.X.dtype)
        cut = truncate_dataset(ds, seconds).X
        assert cut.dtype == ds.X.dtype and cut.tobytes() == loop.tobytes()

    def test_truncate_dataset_errors(self):
        ds = synth_dataset(random_stations(3, seed=1), 4, seed=2, input_seconds=5,
                           total_seconds=10.0)
        for bad in (3, 6, 11):
            with pytest.raises(InputError):
                truncate_dataset(ds, bad)
        x = ds.X.copy()
        x[2, :, :400] = 0.0
        quiet = EventDataset(stations=ds.stations, X=x, Y=ds.Y, sample_rate_hz=100)
        with pytest.raises(DegenerateInputError, match="event 2"):
            truncate_dataset(quiet, 4)

    def test_truncate_dataset_without_events(self):
        ds = synth_dataset(random_stations(3, seed=1), 2, seed=2, input_seconds=5,
                           total_seconds=10.0)
        empty = EventDataset(stations=ds.stations, X=ds.X[:0], Y=ds.Y[:0], sample_rate_hz=100)
        cut = truncate_dataset(empty, 4)
        assert cut.X.shape == (0, 3, 400, 3) and cut.X.dtype == ds.X.dtype


class TestSyntheticGenerator:
    def setup_method(self):
        self.stations = StationSet.from_pairs([
            ("A", 42.0, 13.0),
            ("B", 42.0, 13.4),   # ~33 km east of A
            ("C", 42.0, 14.6),   # ~132 km east of A
        ])
        self.event = SynthEvent(epicenter=(42.0, 13.0), depth_km=5.0,
                                magnitude=4.0, origin_time_s=0.5, seed=99)

    def test_deterministic(self):
        a = synth_event_waveforms(self.stations, self.event, 30.0)
        b = synth_event_waveforms(self.stations, self.event, 30.0)
        assert np.array_equal(a, b)

    def test_noise_floor_absolute(self):
        quiet = SynthEvent((42.0, 13.0), 5.0, 3.0, 0.5, seed=1)
        w = synth_event_waveforms(self.stations, quiet, 30.0)
        # even the most distant trace sits on the absolute noise floor
        far = w[2]
        assert np.abs(far).max() > DEFAULT_NOISE_AMP

    def test_nearest_station_hears_first(self):
        w = synth_event_waveforms(self.stations, self.event, 30.0, noise_amp=0.0)
        onsets = [np.argmax(np.abs(w[i]).max(axis=1) > 0) for i in range(3)]
        assert onsets[0] < onsets[1] < onsets[2]

    def test_onset_at_p_travel_time(self):
        w = synth_event_waveforms(self.stations, self.event, 30.0, noise_amp=0.0)
        d = _station_distances_km(self.stations, self.event.epicenter)
        for i in range(3):
            expected = (self.event.origin_time_s + d[i] / V_P_KM_S) * 100.0
            first = np.argmax(np.abs(w[i]).max(axis=1) > 0)
            assert abs(first - expected) <= 1.0 + 1e-9

    def test_equal_distance_stations_record_identically(self):
        sym = StationSet.from_pairs([
            ("W", 42.0, 12.8),
            ("E", 42.0, 13.2),
            ("X", 42.5, 13.0),
        ])
        event = SynthEvent((42.0, 13.0), 8.0, 4.5, 0.3, seed=5)
        w = synth_event_waveforms(sym, event, 20.0, noise_amp=0.0)
        assert np.allclose(w[0], w[1], rtol=1e-9, atol=1e-15)

    def test_amplitude_decays_with_distance(self):
        w = synth_event_waveforms(self.stations, self.event, 60.0, noise_amp=0.0)
        peaks = np.abs(w).max(axis=(1, 2))
        assert peaks[0] > peaks[1] > peaks[2]

    def test_far_station_window_is_hidden(self):
        # station C: P needs ~22 s, far beyond a 10 s window
        w = synth_event_waveforms(self.stations, self.event, 60.0, noise_amp=0.0)
        assert np.all(w[2, :1000, :] == 0.0)
        assert np.abs(w[2]).max() > 0.0

    def test_site_amplification_default_off(self):
        from tisergcn.data import site_amplification
        assert np.array_equal(site_amplification(self.stations, 0.0), np.ones(3))
        a = synth_event_waveforms(self.stations, self.event, 20.0)
        b = synth_event_waveforms(self.stations, self.event, 20.0, site_amp=0.0)
        assert np.array_equal(a, b)

    def test_site_amplification_scales_labels_exactly(self):
        # IMs are linear in amplitude, so a site factor g shifts the
        # log10 label of that station by exactly log10 g
        from tisergcn.data import site_amplification
        site = site_amplification(self.stations, 0.4)
        plain = synth_event_waveforms(self.stations, self.event, 30.0, noise_amp=0.0)
        boosted = synth_event_waveforms(self.stations, self.event, 30.0,
                                        noise_amp=0.0, site_amp=0.4)
        ims_plain = compute_ims_batch(plain, 0.01)
        ims_boosted = compute_ims_batch(boosted, 0.01)
        assert np.allclose(ims_boosted, site[:, None] * ims_plain, rtol=1e-9)

    def test_site_field_is_position_monotone(self):
        from tisergcn.data import site_amplification
        corners = StationSet.from_pairs([
            ("LL", 42.0, 13.0), ("HH", 43.0, 14.0),
            ("LH", 42.0, 14.0), ("HL", 43.0, 13.0),
        ])
        site = site_amplification(corners, 0.4)
        assert site[1] == site.max()   # high lat, high lon
        assert site[0] == site.min()   # low lat, low lon

    def test_larger_magnitude_rings_lower_and_longer(self):
        small = SynthEvent((42.0, 13.0), 5.0, 3.2, 0.0, seed=7)
        large = SynthEvent((42.0, 13.0), 5.0, 5.4, 0.0, seed=7)
        ws = synth_event_waveforms(self.stations, small, 60.0, noise_amp=0.0)
        wl = synth_event_waveforms(self.stations, large, 60.0, noise_amp=0.0)
        spec_s = np.abs(np.fft.rfft(ws[0, :, 1]))
        spec_l = np.abs(np.fft.rfft(wl[0, :, 1]))
        freqs = np.fft.rfftfreq(6000, 0.01)
        centroid_s = float((freqs * spec_s).sum() / spec_s.sum())
        centroid_l = float((freqs * spec_l).sum() / spec_l.sum())
        assert centroid_l < centroid_s


class TestWaveformOracle:
    """The in-place generator against the broadcast oracle: the same bytes
    with noise; with noise_amp = 0 equal values, since the oracle writes
    -0.0 where sin(2 pi f rel) < 0 before an arrival and the generator +0.0."""

    @staticmethod
    def check(stations, event, total_seconds, rate=100, site_amp=0.0):
        for noise_amp in (DEFAULT_NOISE_AMP, 0.0):
            args = (stations, event, total_seconds, rate, noise_amp, site_amp)
            got = synth_event_waveforms(*args)
            want = synth_event_waveforms_broadcast(*args)
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            if noise_amp > 0.0:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 7, 20])
    @pytest.mark.parametrize("site_amp", [0.0, 0.3])
    @pytest.mark.parametrize("rate", [25, 50, 100])
    def test_random_networks(self, n, site_amp, rate):
        # 40 s: the S arrival at the farthest stations falls past the end
        stations = random_stations(n, seed=n)
        event = SynthEvent((42.75, 13.0), 8.0, 4.5, 0.5, seed=100 + n + rate)
        self.check(stations, event, 40.0, rate, site_amp)

    @pytest.mark.parametrize("origin_time_s", [
        0.5,     # station C: P inside the record, S past its end
        40.0,    # every arrival past the end
        -60.0,   # every onset before the first sample
        0.0,     # station A's onsets fall exactly on t[0]
        1.0,     # ... and exactly on t[100]
    ])
    def test_arrivals_at_the_record_edges(self, origin_time_s):
        stations = StationSet.from_pairs([
            ("A", 42.0, 13.0), ("B", 42.0, 13.4), ("C", 42.0, 14.6)])
        event = SynthEvent((42.0, 13.0), 5.0, 4.0, origin_time_s, seed=99)
        self.check(stations, event, 30.0)


@pytest.fixture
def pool_of_size(monkeypatch):
    """Installs a process pool of the given size; closed at teardown."""
    made = []

    def install(size):
        made.append(pool_module.Pool(size))
        monkeypatch.setattr(pool_module, "_pool", made[-1])

    yield install
    monkeypatch.undo()
    for p in made:
        p.close()


class TestSynthOnThePool:
    STATIONS = random_stations(4, seed=3)
    # one event's f64 waveforms: 4 stations x 300 samples x 3 channels
    EVENT_BYTES = 8 * 4 * 300 * 3
    KW = dict(input_seconds=2, total_seconds=6.0, sample_rate_hz=50, site_amp=0.3)

    # 7 events in tasks of 1; of 3, 3 and 1; and of all 7
    @pytest.mark.parametrize("per_task", [1, 3, 8])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_bytes_match_the_serial_loop(self, monkeypatch, pool_of_size, per_task, size):
        monkeypatch.setattr(data, "_CHUNK_BYTES", per_task * self.EVENT_BYTES)
        pool_of_size(size)
        got = synth_dataset(self.STATIONS, 7, seed=11, **self.KW)
        _, X, Y = synth_dataset_serial(self.STATIONS, 7, 11, **self.KW)
        assert got.X.tobytes() == X.tobytes() and got.Y.tobytes() == Y.tobytes()

    def test_bytes_under_contention(self, monkeypatch, pool_of_size):
        # more threads than cores and a short switch interval: a buffer slot
        # handed to two tasks at once shows in the bytes
        monkeypatch.setattr(data, "_CHUNK_BYTES", self.EVENT_BYTES)
        pool_of_size(4)
        _, X, Y = synth_dataset_serial(self.STATIONS, 9, 11, **self.KW)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                got = synth_dataset(self.STATIONS, 9, seed=11, **self.KW)
                assert got.X.tobytes() == X.tobytes() and got.Y.tobytes() == Y.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("size", [2, 3])
    def test_task_error_reaches_the_caller(self, monkeypatch, pool_of_size, size):
        monkeypatch.setattr(data, "_CHUNK_BYTES", self.EVENT_BYTES)
        pool_of_size(size)
        events, X, Y = synth_dataset_serial(self.STATIONS, 8, 11, **self.KW)
        real = data.synth_event_waveforms

        def fail_on_event_5(stations, event, *args, **kwargs):
            if event == events[5]:
                raise ValueError("event 5")
            return real(stations, event, *args, **kwargs)

        monkeypatch.setattr(data, "synth_event_waveforms", fail_on_event_5)
        caught = []

        def call():
            try:
                synth_dataset(self.STATIONS, 8, seed=11, **self.KW)
            except ValueError as exc:
                caught.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(60.0)
        assert not caller.is_alive(), "synth_dataset hung after a task error"
        assert [str(e) for e in caught] == ["event 5"]
        # the pool still runs every task
        monkeypatch.setattr(data, "synth_event_waveforms", real)
        got = synth_dataset(self.STATIONS, 8, seed=11, **self.KW)
        assert got.X.tobytes() == X.tobytes() and got.Y.tobytes() == Y.tobytes()

    def test_bytes_do_not_depend_on_pool_size_at_full_length(self, pool_of_size):
        # 60-s records at 100 Hz: each Newmark product is one GEMM of
        # thousands of rows, which OpenBLAS would thread outside a pool task
        stations = random_stations(10, seed=0)
        runs = []
        for size in (1, 2, 3):
            pool_of_size(size)
            ds = synth_dataset(stations, 4, seed=3)
            runs.append((ds.X.tobytes(), ds.Y.tobytes()))
        assert runs[0] == runs[1] == runs[2]

    def test_waveforms_written_into_out(self):
        event = SynthEvent((42.5, 13.0), 5.0, 4.5, 0.3, seed=7)
        for noise_amp in (DEFAULT_NOISE_AMP, 0.0):
            want = synth_event_waveforms(self.STATIONS, event, 6.0, 50, noise_amp)
            out = np.full((4, 300, 3), np.nan)
            got = synth_event_waveforms(self.STATIONS, event, 6.0, 50, noise_amp, out=out)
            assert got is out and got.tobytes() == want.tobytes()


class TestSynthDataset:
    def test_shapes_dtype_and_normalization(self):
        st = random_stations(4, seed=3)
        ds = synth_dataset(st, 6, seed=0, input_seconds=5, total_seconds=20.0)
        assert ds.X.shape == (6, 4, 500, 3)
        assert ds.Y.shape == (6, 5, 4)
        assert ds.X.dtype == np.float32 and ds.Y.dtype == np.float32
        for e in range(6):
            assert np.abs(ds.X[e]).max() == pytest.approx(1.0, rel=1e-6)

    def test_bitwise_reproducible(self):
        st = random_stations(3, seed=3)
        a = synth_dataset(st, 5, seed=42, total_seconds=15.0, input_seconds=5)
        b = synth_dataset(st, 5, seed=42, total_seconds=15.0, input_seconds=5)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_seed_changes_data(self):
        st = random_stations(3, seed=3)
        a = synth_dataset(st, 5, seed=1, total_seconds=15.0, input_seconds=5)
        b = synth_dataset(st, 5, seed=2, total_seconds=15.0, input_seconds=5)
        assert not np.array_equal(a.X, b.X)

    def test_targets_reflect_hidden_signal(self):
        # labels use the full hour of shaking, inputs only the start; the
        # label of the farthest station must exceed its in-window energy
        st = StationSet.from_pairs([("A", 42.0, 13.0), ("B", 42.0, 14.6)])
        ds = synth_dataset(st, 8, seed=5, input_seconds=10, total_seconds=60.0,
                           noise_amp=0.0)
        # log10 PGA of the far station is well above the all-window-zero floor
        assert np.all(ds.Y[:, 0, 1] > np.log10(LOG_EPS) + 1.0)

    def test_mag_range_validation(self):
        st = random_stations(3, seed=3)
        with pytest.raises(InputError):
            synth_dataset(st, 5, seed=1, mag_range=(5.0, 4.0))
        with pytest.raises(InputError):
            synth_dataset(st, 0, seed=1)
        with pytest.raises(InputError):
            synth_dataset(st, 5, seed=1, input_seconds=10, total_seconds=10.0)

    def test_sample_rate_below_one_rejected(self):
        st = random_stations(3, seed=3)
        for rate in (0, -100):
            with pytest.raises(InputError):
                synth_dataset(st, 2, seed=1, sample_rate_hz=rate)

    def test_narrow_mag_range_respected(self):
        # stations close enough that every trace receives the slow arrival
        st = StationSet.from_pairs([
            ("A", 42.0, 13.0), ("B", 42.0, 13.3), ("C", 42.2, 13.15),
        ])
        # pinned magnitude: label spread now comes from geometry alone,
        # so it is far narrower than with the full magnitude range
        pinned = synth_dataset(st, 12, seed=1, input_seconds=10,
                               total_seconds=60.0, mag_range=(4.5, 4.5))
        wide = synth_dataset(st, 12, seed=1, input_seconds=10,
                             total_seconds=60.0, mag_range=(3.0, 5.5))
        assert pinned.Y[:, 0, :].std() < 0.5 * wide.Y[:, 0, :].std()


class TestContainer:
    @pytest.fixture()
    def ds(self):
        return synth_dataset(random_stations(3, seed=9), 4, seed=7,
                             input_seconds=4, total_seconds=12.0)

    def test_round_trip(self, ds, tmp_path):
        save_dataset(tmp_path, ds)
        back = load_dataset(tmp_path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.Y, ds.Y)
        assert back.sample_rate_hz == ds.sample_rate_hz
        assert back.stations.ids == ds.stations.ids
        assert np.array_equal(back.stations.coords(), ds.stations.coords())

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="manifest"):
            load_dataset(tmp_path)

    def test_corrupt_manifest_names_offset(self, ds, tmp_path):
        save_dataset(tmp_path, ds)
        (tmp_path / "manifest.json").write_text('{"version": 1, oops')
        with pytest.raises(DatasetFormatError, match="offset"):
            load_dataset(tmp_path)

    def test_manifest_not_utf8(self, ds, tmp_path):
        save_dataset(tmp_path, ds)
        path = tmp_path / "manifest.json"
        path.write_bytes(path.read_bytes().replace(b'"f32"', b'"f\xff32"'))
        with pytest.raises(DatasetFormatError, match="UTF-8") as exc:
            load_dataset(tmp_path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("edit,match", [
        (lambda m: [], "not a JSON object"),
        (lambda m: {**m, "E": "abc"}, "E must be"),
        (lambda m: {**m, "T": 2.5}, "T must be"),
        (lambda m: {**m, "N": True}, "N must be"),
        (lambda m: {**m, "C": -3}, "C must be"),
        (lambda m: {**m, "station_file": 5}, "station_file"),
        (lambda m: {**m, "sample_rate_hz": 0}, "sample_rate_hz must be >= 1"),
        (lambda m: {**m, "E": 0}, "E must be >= 1"),
    ])
    def test_malformed_manifest_values(self, ds, tmp_path, edit, match):
        save_dataset(tmp_path, ds)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(DatasetFormatError, match=match) as exc:
            load_dataset(tmp_path)
        assert str(path) in str(exc.value)

    def test_station_file_not_utf8(self, ds, tmp_path):
        save_dataset(tmp_path, ds)
        path = tmp_path / json.loads((tmp_path / "manifest.json").read_text())["station_file"]
        path.write_bytes(path.read_bytes() + b"S\xff,1.0,2.0\n")
        with pytest.raises(InputError, match="UTF-8") as exc:
            load_dataset(tmp_path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("station_file", [".", "missing.csv"])
    def test_unreadable_station_file(self, ds, tmp_path, station_file):
        save_dataset(tmp_path, ds)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "station_file": station_file}))
        with pytest.raises(InputError, match="cannot read station file") as exc:
            load_dataset(tmp_path)
        assert str(tmp_path / station_file) in str(exc.value)

    def test_wrong_version(self, ds, tmp_path):
        save_dataset(tmp_path, ds)
        m = json.loads((tmp_path / "manifest.json").read_text())
        m["version"] = 2
        (tmp_path / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(DatasetVersionError):
            load_dataset(tmp_path)

    def test_missing_key(self, ds, tmp_path):
        save_dataset(tmp_path, ds)
        m = json.loads((tmp_path / "manifest.json").read_text())
        del m["sample_rate_hz"]
        (tmp_path / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(DatasetFormatError, match="sample_rate_hz"):
            load_dataset(tmp_path)

    def test_unsupported_encoding(self, ds, tmp_path):
        save_dataset(tmp_path, ds)
        m = json.loads((tmp_path / "manifest.json").read_text())
        m["byte_order"] = "big-endian"
        (tmp_path / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(DatasetFormatError, match="big-endian"):
            load_dataset(tmp_path)

    def test_truncated_blob_reports_offsets(self, ds, tmp_path):
        save_dataset(tmp_path, ds)
        blob = (tmp_path / "X.bin").read_bytes()
        (tmp_path / "X.bin").write_bytes(blob[:-100])
        with pytest.raises(TruncatedFileError, match=str(len(blob) - 100)):
            load_dataset(tmp_path)

    def test_station_count_mismatch(self, ds, tmp_path):
        save_dataset(tmp_path, ds)
        m = json.loads((tmp_path / "manifest.json").read_text())
        m["N"] = 5
        (tmp_path / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(ConsistencyError):
            load_dataset(tmp_path)

    def test_validate_rejects_bad_shapes(self, ds):
        bad = EventDataset(stations=ds.stations, X=ds.X, Y=ds.Y[:, :, :2],
                           sample_rate_hz=100)
        with pytest.raises(ConsistencyError):
            bad.validate()

    def test_validate_rejects_non_finite(self, ds):
        x = ds.X.copy()
        x[0, 0, 0, 0] = np.nan
        bad = EventDataset(stations=ds.stations, X=x, Y=ds.Y, sample_rate_hz=100)
        with pytest.raises(ConsistencyError):
            bad.validate()
