"""Event datasets: container format, normalization, windowing, synthetic
waveform generation, and intensity-measure labels.

A dataset holds, per event, an input tensor X (stations x time x 3
channels, normalized by the single largest amplitude observed anywhere in
the event's input window) and a 5 x N target matrix Y of log10 intensity
measures computed on the *full* waveform, most of which lies beyond the
input window.  The synthetic generator stands in for restricted real
recordings: each event radiates a fast small arrival and a slower larger
arrival from a random epicenter, with amplitude decaying in distance, so
far-station targets genuinely depend on the hidden continuation.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DatasetFormatError,
    DatasetVersionError,
    DegenerateInputError,
    InputError,
    TisergcnError,
    TruncatedFileError,
)
from .geo import StationSet, load_stations_csv, save_stations_csv
from .model import IM_NAMES, check_fields

SA_PERIODS_S = (0.3, 1.0, 3.0)
SA_DAMPING = 0.05
LOG_EPS = 1e-12

# Bytes of f64 waveforms held at once and of each Newmark buffer (CHANGES.md, Newmark).
_CHUNK_BYTES = 1 << 20
# Steps per block of the blocked Newmark recursion.
_NEWMARK_BLOCK = 32

# synthetic source model
V_P_KM_S = 6.0
V_S_KM_S = 3.5
DIST_FLOOR_KM = 10.0
DEFAULT_NOISE_AMP = 5e-5
P_REL_AMP = 0.06

DATASET_VERSION = 1
MANIFEST_NAME = "manifest.json"
STATIONS_NAME = "stations.csv"


# ---------------------------------------------------------------------------
# container

@dataclass
class EventDataset:
    """Waveform windows X (E, N, T, C) and log10-IM targets Y (E, 5, N)."""

    stations: StationSet
    X: np.ndarray
    Y: np.ndarray
    sample_rate_hz: int

    @property
    def n_events(self) -> int:
        return self.X.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.X.shape[1]

    @property
    def n_samples(self) -> int:
        return self.X.shape[2]

    @property
    def n_channels(self) -> int:
        return self.X.shape[3]

    @property
    def input_seconds(self) -> int:
        return self.n_samples // self.sample_rate_hz

    def validate(self) -> None:
        if self.X.ndim != 4 or self.Y.ndim != 3:
            raise ConsistencyError(f"bad tensor ranks: X{self.X.shape}, Y{self.Y.shape}")
        if self.Y.shape != (self.n_events, len(IM_NAMES), self.n_nodes):
            raise ConsistencyError(
                f"Y shape {self.Y.shape} does not match (E, 5, N) for X {self.X.shape}")
        if self.n_nodes != len(self.stations):
            raise ConsistencyError(
                f"X has {self.n_nodes} nodes but station set has {len(self.stations)}")
        if not np.isfinite(self.X).all() or not np.isfinite(self.Y).all():
            raise ConsistencyError("non-finite values in X or Y")


# ---------------------------------------------------------------------------
# normalization and windowing

def normalize_by_input_max(x_event: np.ndarray) -> tuple[np.ndarray, float]:
    """Divide an event's window by its largest absolute amplitude anywhere.

    The maximum runs over all stations, channels and samples of the
    window.  Returns (normalized, scale); an all-zero event is degenerate.
    """
    x_event = np.asarray(x_event)
    scale = float(np.abs(x_event).max())
    if scale == 0.0:
        raise DegenerateInputError("all-zero event window cannot be normalized")
    return x_event / scale, scale


def _window_samples(seconds: int, sample_rate_hz: int, n_samples: int) -> int:
    """Samples in the first ``seconds``, which must lie in [4, 10] and fit in n_samples."""
    if not (4 <= seconds <= 10):
        raise InputError(f"window seconds must be in [4, 10], got {seconds}")
    t2 = seconds * sample_rate_hz
    if t2 > n_samples:
        raise InputError(f"cannot truncate to {t2} samples, window has {n_samples}")
    return t2


def truncate_dataset(ds: EventDataset, seconds: int) -> EventDataset:
    """Keep the first ``seconds`` of every event window and re-normalize it;
    targets are unchanged.  ``seconds`` must lie in [4, 10] and fit the window.

    Each event's window is divided by its largest absolute amplitude in
    float64 and the quotient cast back to the dataset's dtype.
    """
    x = ds.X[:, :, :_window_samples(seconds, ds.sample_rate_hz, ds.n_samples)]
    scale = np.abs(x).max(axis=(1, 2, 3)).astype(np.float64)
    if not scale.all():
        raise DegenerateInputError(
            f"event {int(np.argmin(scale))}: all-zero event window cannot be normalized")
    xs = np.empty(x.shape, ds.X.dtype)
    np.divide(x, scale[:, None, None, None], out=xs, dtype=np.float64, casting="same_kind")
    return EventDataset(stations=ds.stations, X=xs, Y=ds.Y.copy(),
                        sample_rate_hz=ds.sample_rate_hz)


# ---------------------------------------------------------------------------
# intensity measures

@functools.lru_cache(maxsize=32)
def _newmark_operators(dt: float, period: float, damping: float):
    """Block operators of the average-acceleration recursion (gamma = 1/2,
    beta = 1/4) for blocks of L = _NEWMARK_BLOCK steps.

    The state s = (u, v, acc) of the oscillator under p = -accel steps as
    s' = M s + b dp with dp the increment of p, and the absolute
    acceleration is r = h s with h = (k, c, 0).  Returns, for row vectors:
    G (L, L), G[m, j] = h M^(j-m) b for m <= j: response at step j of a
    block to its input m; H (3, L), H[:, j] = h M^(j+1): response to the
    block-start state; E (L, 3), E[m] = M^(L-1-m) b: block-end state from
    input m; and (M^L)^T, which carries a block-start state to the next.
    """
    gamma, beta = 0.5, 0.25
    omega = 2.0 * math.pi / period
    c = 2.0 * damping * omega
    k = omega * omega
    k_eff = k + gamma / (beta * dt) * c + 1.0 / (beta * dt * dt)
    ca = 1.0 / (beta * dt) + (gamma / beta) * c
    cb = 1.0 / (2.0 * beta) + dt * (gamma / (2.0 * beta) - 1.0) * c
    # one step adds (du, dv, dacc) to s, with du = e . s + dp / k_eff and
    # dv, dacc linear in du and s
    e = np.array([0.0, ca, cb]) / k_eff
    M = np.eye(3) + np.array([
        e,
        (gamma / (beta * dt)) * e + [0.0, -gamma / beta, dt * (1.0 - gamma / (2.0 * beta))],
        e / (beta * dt * dt) + [0.0, -1.0 / (beta * dt), -1.0 / (2.0 * beta)],
    ])
    b = np.array([1.0, gamma / (beta * dt), 1.0 / (beta * dt * dt)]) / k_eff
    h = np.array([k, c, 0.0])

    L = _NEWMARK_BLOCK
    powers = [np.eye(3)]
    for _ in range(L):
        powers.append(M @ powers[-1])
    impulse = np.array([h @ powers[j] @ b for j in range(L)])
    lag = np.subtract.outer(np.arange(L), np.arange(L))     # [m, j] -> m - j
    G = np.where(lag <= 0, impulse[np.maximum(-lag, 0)], 0.0)
    H = np.stack([h @ powers[j + 1] for j in range(L)], axis=1)
    E = np.stack([powers[L - 1 - m] @ b for m in range(L)])
    ops = (G, H, E, np.ascontiguousarray(powers[L].T))
    for op in ops:                  # cached and shared by every caller
        op.flags.writeable = False
    return ops


def _newmark_buffers(n: int, rows: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The two working buffers of _newmark_peak_abs_accel for n items of
    rows waveforms of T samples: whole items of about _CHUNK_BYTES of f64."""
    item_size = rows * -(-(T - 1) // _NEWMARK_BLOCK) * _NEWMARK_BLOCK
    size = min(max(1, _CHUNK_BYTES // (8 * item_size)), n) * item_size
    return np.empty(size), np.empty(size)


def _newmark_peak_abs_accel(accel: np.ndarray, dt: float, period: float,
                            damping: float = SA_DAMPING, *, buffers=None) -> np.ndarray:
    """Peak |absolute acceleration| of a damped SDOF oscillator, per row.

    accel: (..., T) ground acceleration.  Fixed-step average-acceleration
    recursion (gamma = 1/2, beta = 1/4) from rest, run exactly in blocks
    of L steps: one GEMM with the Toeplitz impulse response gives each
    block's response to its own inputs, another its end state, a scan by
    doubling chains the block-start states, and a rank-3 GEMM adds their
    free response.  The peak runs over the T - 1 steps only, not the
    padding of the last block.  Rows are taken in chunks of about
    _CHUNK_BYTES of f64 through the two reused ``buffers`` (from
    _newmark_buffers, made here when not given).
    """
    accel = np.asarray(accel)
    lead, steps = accel.shape[:-1], accel.shape[-1] - 1
    # (items, rows per item, T); a view for the per-channel view of a
    # contiguous (..., T, C) array
    x = accel.reshape(-1, *accel.shape[-2:]) if accel.ndim > 2 else \
        accel.reshape(-1, 1, accel.shape[-1])
    peak = np.zeros(x.shape[:2])
    if steps < 1 or peak.size == 0:
        return peak.reshape(lead)
    L = _NEWMARK_BLOCK
    blocks = -(-steps // L)
    G, H, E, A0 = _newmark_operators(float(dt), float(period), float(damping))

    item_size = x.shape[1] * blocks * L
    dp_buf, r_buf = buffers or _newmark_buffers(*x.shape)
    step = dp_buf.size // item_size
    for lo in range(0, x.shape[0], step):
        a = np.asarray(x[lo:lo + step], dtype=np.float64)
        rows = a.shape[0] * a.shape[1]
        # increments of p = -accel, zero-padded to whole blocks (the reused
        # buffer must not carry a non-finite value into the zeros of G)
        dp = dp_buf[:rows * blocks * L].reshape(a.shape[:2] + (blocks * L,))
        np.subtract(a[..., :-1], a[..., 1:], out=dp[..., :steps])
        dp[..., steps:] = 0.0
        dp = dp.reshape(-1, L)
        # block-start states s (blocks, rows, 3): at rest with acc = p_0,
        # then s_b = M^L s_(b-1) + dp_(b-1) E, summed by a doubling scan
        s = np.zeros((blocks, rows, 3))
        s[0, :, 2] = -a[..., 0].reshape(rows)
        s[1:] = (dp @ E).reshape(rows, blocks, 3)[:, :-1].transpose(1, 0, 2)
        flat = s.reshape(-1, 3)
        A, d = A0, 1
        while d < blocks:
            flat[d * rows:] += flat[:-d * rows] @ A
            A = A @ A
            d *= 2
        r = np.matmul(dp, G, out=r_buf[:dp.size].reshape(dp.shape))
        r += np.matmul(s.transpose(1, 0, 2).reshape(-1, 3), H, out=dp)
        np.abs(r, out=r)
        peak[lo:lo + step] = r.reshape(a.shape[:2] + (blocks * L,))[..., :steps].max(axis=-1)
    return peak.reshape(lead)


def _velocity_buffer(n: int, T: int, C: int) -> np.ndarray:
    """The velocity buffer of _peak_ground_motion for n waveforms (T, C):
    whole waveforms of about _CHUNK_BYTES of f64."""
    return np.empty((min(max(1, _CHUNK_BYTES // (8 * T * C)), n), T - 1, C))


def _peak_ground_motion(w: np.ndarray, dt: float, vel: np.ndarray | None = None) -> np.ndarray:
    """(PGA, PGV) of waveforms (n, T, C), taken in chunks of as many as the
    reused velocity buffer ``vel`` holds (from _velocity_buffer, made here
    when not given)."""
    out = np.empty((w.shape[0], 2))
    if vel is None:
        vel = _velocity_buffer(*w.shape)
    step = vel.shape[0]
    for lo in range(0, w.shape[0], step):
        x = np.asarray(w[lo:lo + step], dtype=np.float64)
        out[lo:lo + step, 0] = np.maximum(x.max(axis=(1, 2)), -x.min(axis=(1, 2)))
        # trapezoid rule from v[0] = 0, which bounds the peak below by 0
        v = vel[:x.shape[0]]
        np.add(x[:, 1:], x[:, :-1], out=v)
        v *= 0.5 * dt
        np.cumsum(v, axis=1, out=v)
        out[lo:lo + step, 1] = np.maximum(np.maximum(v.max(axis=(1, 2)), -v.min(axis=(1, 2))), 0.0)
    return out


def _ims_buffers(n: int, T: int, C: int):
    """Working buffers of compute_ims_batch for up to n waveforms (T, C)."""
    return _velocity_buffer(n, T, C), _newmark_buffers(n, C, T)


def compute_ims_batch(w: np.ndarray, dt: float, *, buffers=None) -> np.ndarray:
    """Intensity measures for waveforms (..., T, C) -> (..., 5).

    Channels are accelerations; PGA and SA take the max over channels,
    PGV integrates each channel first.  Column order matches IM_NAMES.
    PGA and PGV, and each SA period, take the waveforms in chunks of
    about _CHUNK_BYTES of f64 (at least one waveform each), so the working
    memory beyond the input stays a small multiple of that budget.
    ``buffers`` (from _ims_buffers for at least as many waveforms of this
    shape) hold that working memory in place of arrays made per call.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InputError(f"dt must be positive and finite, got {dt}")
    w = np.asarray(w)
    if w.ndim < 2 or w.shape[-2] < 2:
        raise InputError(f"waveform needs at least 2 samples, got shape {w.shape}")
    lead = w.shape[:-2]
    w = w.reshape(-1, *w.shape[-2:])
    vel, newmark = buffers or (None, None)
    out = np.empty((w.shape[0], len(IM_NAMES)))
    out[:, :2] = _peak_ground_motion(w, dt, vel)
    per_channel = np.moveaxis(w, -1, -2)  # (n, C, T)
    for col, period in enumerate(SA_PERIODS_S, start=2):
        out[:, col] = _newmark_peak_abs_accel(per_channel, dt, period,
                                              buffers=newmark).max(axis=-1)
    return out.reshape(lead + (len(IM_NAMES),))


# ---------------------------------------------------------------------------
# synthetic events

@dataclass(frozen=True)
class SynthEvent:
    epicenter: tuple[float, float]
    depth_km: float
    magnitude: float
    origin_time_s: float
    seed: int


def _station_distances_km(stations: StationSet, epicenter) -> np.ndarray:
    # equirectangular approximation; exact enough for the synthetic source
    # model and ~100x faster than per-pair haversine in the event loop
    coords = stations.coords()
    lat0, lon0 = epicenter
    km_per_deg = math.pi / 180.0 * 6371.0
    dlat = (coords[:, 0] - lat0) * km_per_deg
    dlon = (coords[:, 1] - lon0) * km_per_deg * math.cos(math.radians(lat0))
    return np.hypot(dlat, dlon)


def site_amplification(stations: StationSet, site_amp: float) -> np.ndarray:
    """Per-station ground-motion amplification factors (N,).

    A smooth position-linear field in log10 units: stations get a factor
    10^(site_amp * f) where f combines the min-max normalized coordinates.
    This mimics systematic site effects (basins amplify, rock attenuates)
    that vary gradually across a network.  site_amp = 0 disables it.
    """
    if site_amp == 0.0:
        return np.ones(len(stations))
    coords = stations.coords()

    def pm1(col: np.ndarray) -> np.ndarray:
        span = col.max() - col.min()
        if span == 0.0:
            return np.zeros_like(col)
        return 2.0 * (col - col.min()) / span - 1.0

    f = 0.8 * pm1(coords[:, 0]) + 0.6 * pm1(coords[:, 1])
    return 10.0 ** (site_amp * f)


def synth_event_waveforms(stations: StationSet, event: SynthEvent,
                          total_seconds: float, sample_rate_hz: int = 100,
                          noise_amp: float = DEFAULT_NOISE_AMP,
                          site_amp: float = 0.0, *, out: np.ndarray | None = None) -> np.ndarray:
    """Full-length 3-channel acceleration traces (N, T_full, C) for one event.

    The returned array (``out`` if given, a C-contiguous float64 array of
    that shape) first holds white noise of absolute amplitude
    ``noise_amp``, so quiet traces carry an absolute reference level.  Two
    wavelets per station are then added on top: a fast low-amplitude
    arrival at distance / v_p and a slower larger one at distance / v_s,
    both scaled by 10^(magnitude - 3) / (hypocentral distance + floor) and
    the station's site amplification.  Each wavelet is computed only from
    the first sample after its arrival; before it the trace is the noise.
    """
    rng = np.random.default_rng(event.seed)
    n = len(stations)
    t_len = int(round(total_seconds * sample_rate_hz))
    dt = 1.0 / sample_rate_hz
    t = np.arange(t_len) * dt

    d_epi = _station_distances_km(stations, event.epicenter)
    d_hyp = np.hypot(d_epi, event.depth_km)
    amp = (10.0 ** (event.magnitude - 3.0) / (d_hyp + DIST_FLOOR_KM)
           * site_amplification(stations, site_amp))

    # per-event channel mixes, shared by all stations so that stations at
    # equal distance record identical signals
    mix_p = np.array([1.0, 0.5, 0.5]) * (0.9 + 0.2 * rng.random(3))
    mix_s = np.array([0.5, 1.0, 0.8]) * (0.9 + 0.2 * rng.random(3))
    # corner-frequency scaling: larger events ring slower and longer, so
    # magnitude is visible in waveform shape, not just absolute amplitude
    corner = 10.0 ** (-0.2 * (event.magnitude - 4.0))
    f_p = 2.0 * corner * (0.95 + 0.1 * rng.random())
    f_s = 0.7 * corner * (0.95 + 0.1 * rng.random())
    tau_s = 8.0 * 10.0 ** (0.15 * (event.magnitude - 4.0))

    w = np.empty((n, t_len, 3)) if out is None else out
    if noise_amp > 0.0:
        rng.standard_normal(out=w)
        w *= noise_amp
    else:
        w[...] = 0.0

    for i in range(n):
        waves = []
        for onset, freq, decay_s in ((event.origin_time_s + d_epi[i] / V_P_KM_S, f_p, 2.0),
                                     (event.origin_time_s + d_epi[i] / V_S_KM_S, f_s, tau_s)):
            # the wavelet is zero up to the first sample with t - onset > 0,
            # which searchsorted finds exactly: fl(t - onset) > 0 iff t > onset
            k = int(np.searchsorted(t, onset, side="right"))
            rel = t[k:] - onset
            waves.append((k, np.minimum(rel / 0.2, 1.0) * np.exp(-rel / decay_s)
                          * np.sin(2.0 * math.pi * freq * rel)))
        # the S onset is never before the P onset, so ws is a suffix of wp
        (kp, wp), (ks, ws) = waves
        wp *= P_REL_AMP
        for c in range(3):
            sig = wp * mix_p[c]
            sig[ks - kp:] += ws * mix_s[c]
            sig *= amp[i]
            w[i, kp:, c] += sig
    return w


@dataclass(frozen=True)
class SynthConfig:
    """The ``synth`` spec section: a random station network and the
    waveform recipe of synth_dataset."""

    n_stations: int = 20
    n_events: int = 400
    station_seed: int = 7
    input_seconds: int = 10
    total_seconds: float = 60.0
    sample_rate_hz: int = 100
    noise_amp: float = DEFAULT_NOISE_AMP
    mag_range: tuple[float, ...] = (3.0, 5.5)
    site_amp: float = 0.0

    def __post_init__(self):
        check_fields(self, InputError, n_stations="[2, inf)", n_events="[1, inf)",
                     station_seed="[0, inf)", input_seconds="[1, inf)",
                     sample_rate_hz="[1, inf)", noise_amp="[0, inf)")
        if not self.total_seconds > self.input_seconds:
            raise InputError("SynthConfig.total_seconds must exceed input_seconds "
                             "so labels stay partly hidden")
        if not (len(self.mag_range) == 2 and self.mag_range[0] <= self.mag_range[1]):
            raise InputError("SynthConfig.mag_range must be two ordered magnitudes, "
                             f"got {self.mag_range}")


def synth_dataset(stations: StationSet, n_events: int, seed: int, **synth) -> EventDataset:
    """Generate a reproducible synthetic dataset.

    ``synth`` takes the waveform fields of SynthConfig (``input_seconds``,
    ``total_seconds``, ``sample_rate_hz``, ``noise_amp``, ``mag_range`` and
    ``site_amp``), which supplies their defaults and checks them.
    X holds the normalized first ``input_seconds`` of each event; Y holds
    log10 intensity measures computed on the entire ``total_seconds``
    waveform, so targets depend on signal the model never sees.  Events are
    built on the process's thread pool (``pool.get_pool``), one task per
    chunk of events whose f64 waveforms fit _CHUNK_BYTES (at least one
    event).  Every event draws from its own seeded generator and every chunk
    is computed the same way on any thread, so the bytes do not depend on
    the pool size.  A narrow
    ``mag_range`` pins source strength, leaving source-receiver distance
    as the dominant driver of the targets; a nonzero ``site_amp`` adds a
    position-linear per-station amplification on top.
    """
    cfg = SynthConfig(n_stations=len(stations), n_events=n_events, **synth)
    rng = np.random.default_rng(seed)
    coords = stations.coords()
    lat_lo, lat_hi = coords[:, 0].min(), coords[:, 0].max()
    lon_lo, lon_hi = coords[:, 1].min(), coords[:, 1].max()
    # epicenters stay close to the station hull so the nearest station
    # always catches the fast arrival inside the input window; far
    # stations still see nothing but their noise floor
    margin_lat = 0.05 * (lat_hi - lat_lo) + 0.02
    margin_lon = 0.05 * (lon_hi - lon_lo) + 0.02

    events = []
    for _ in range(n_events):
        lat = rng.uniform(lat_lo - margin_lat, lat_hi + margin_lat)
        lon = rng.uniform(lon_lo - margin_lon, lon_hi + margin_lon)
        depth = rng.uniform(2.0, 15.0)
        mag = rng.uniform(*cfg.mag_range)
        t0 = rng.uniform(0.0, 1.0)
        events.append(SynthEvent((lat, lon), depth, mag, t0,
                                 int(rng.integers(0, 2**62))))

    n = len(stations)
    window = cfg.input_seconds * cfg.sample_rate_hz
    t_len = int(round(cfg.total_seconds * cfg.sample_rate_hz))
    dt = 1.0 / cfg.sample_rate_hz
    X = np.empty((n_events, n, window, 3), dtype=np.float32)
    Y = np.empty((n_events, len(IM_NAMES), n), dtype=np.float32)

    # events per task: as many full-length f64 waveforms as fit the budget
    chunk = min(max(1, _CHUNK_BYTES // (8 * n * t_len * 3)), n_events)
    from .pool import get_pool
    pool = get_pool()
    # One slot of working buffers per thread that can hold a task, made on
    # this thread: buffers made and freed on a pool thread stay in that
    # thread's malloc arena, where training cannot reuse them.
    slots = [(np.empty((chunk, n, t_len, 3)), _ims_buffers(chunk * n, t_len, 3))
             for _ in range(min(pool.size, -(-n_events // chunk)))]

    def task(lo, hi):
        wave, buffers = slots.pop()  # pop and append are atomic under the GIL
        try:
            for e in range(lo, hi):
                synth_event_waveforms(stations, events[e], cfg.total_seconds,
                                      cfg.sample_rate_hz, cfg.noise_amp, cfg.site_amp,
                                      out=wave[e - lo])
                X[e], _ = normalize_by_input_max(wave[e - lo, :, :window, :])
            ims = compute_ims_batch(wave[:hi - lo], dt, buffers=buffers)  # (hi - lo, N, 5)
            Y[lo:hi] = np.log10(ims + LOG_EPS).transpose(0, 2, 1)
        finally:
            slots.append((wave, buffers))

    pool.run(task, n_events, chunk)
    ds = EventDataset(stations=stations, X=X, Y=Y, sample_rate_hz=cfg.sample_rate_hz)
    ds.validate()
    return ds


def random_stations(n: int, seed: int,
                    lat_range=(42.0, 43.5), lon_range=(12.0, 14.0)) -> StationSet:
    """Uniformly placed synthetic station set inside a bounding box; the
    StationSet refuses fewer than 2 stations."""
    rng = np.random.default_rng(seed)
    pairs = [
        (f"S{i:03d}", rng.uniform(*lat_range), rng.uniform(*lon_range))
        for i in range(n)
    ]
    return StationSet.from_pairs(pairs)


# ---------------------------------------------------------------------------
# on-disk format: manifest.json + stations.csv + raw little-endian f32 blobs

def save_dataset(path, ds: EventDataset) -> None:
    ds.validate()
    os.makedirs(path, exist_ok=True)
    manifest = {
        "version": DATASET_VERSION,
        "E": ds.n_events,
        "N": ds.n_nodes,
        "T": ds.n_samples,
        "C": ds.n_channels,
        "sample_rate_hz": ds.sample_rate_hz,
        "station_file": STATIONS_NAME,
        "byte_order": "little-endian",
        "dtype": "f32",
    }
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    save_stations_csv(os.path.join(path, STATIONS_NAME), ds.stations)
    np.ascontiguousarray(ds.X, dtype="<f4").tofile(os.path.join(path, "X.bin"))
    np.ascontiguousarray(ds.Y, dtype="<f4").tofile(os.path.join(path, "Y.bin"))


def read_json_object(path, error: type[TisergcnError]) -> dict:
    """The JSON object in the UTF-8 file at ``path``.  Text that is not
    UTF-8, invalid JSON (with its offset) or a JSON value other than an
    object raises ``error`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            body = json.load(fh)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text at byte {exc.start}") from None
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON at offset {exc.pos}: {exc.msg}") from None
    if not isinstance(body, dict):
        raise error(f"{path}: not a JSON object")
    return body


def _read_blob(path, expected_count: int, shape) -> np.ndarray:
    try:
        actual = os.path.getsize(path)
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot read: {exc.strerror}") from None
    expected = expected_count * 4
    if actual != expected:
        raise TruncatedFileError(
            f"{path}: expected {expected} bytes, file ends at offset {actual}")
    return np.fromfile(path, dtype="<f4").reshape(shape)


def load_dataset(path) -> EventDataset:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise DatasetFormatError(f"{manifest_path} not found")
    manifest = read_json_object(manifest_path, DatasetFormatError)

    version = manifest.get("version")
    if version != DATASET_VERSION:
        raise DatasetVersionError(
            f"unsupported dataset version {version!r}, expected {DATASET_VERSION}")
    for key in ("E", "N", "T", "C", "sample_rate_hz", "station_file", "dtype", "byte_order"):
        if key not in manifest:
            raise DatasetFormatError(f"manifest missing key {key!r}")
    if manifest["dtype"] != "f32" or manifest["byte_order"] != "little-endian":
        raise DatasetFormatError(
            f"unsupported encoding {manifest['dtype']}/{manifest['byte_order']}")

    for key in ("E", "N", "T", "C", "sample_rate_hz"):
        value = manifest[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise DatasetFormatError(
                f"{manifest_path}: {key} must be a non-negative integer, got {value!r}")
    for key in ("E", "sample_rate_hz"):
        if manifest[key] < 1:
            raise DatasetFormatError(
                f"{manifest_path}: {key} must be >= 1, got {manifest[key]}")
    if not isinstance(manifest["station_file"], str):
        raise DatasetFormatError(
            f"{manifest_path}: station_file must be a file name, got {manifest['station_file']!r}")
    e, n, t, c = (manifest[k] for k in ("E", "N", "T", "C"))
    stations = load_stations_csv(os.path.join(path, manifest["station_file"]))
    if len(stations) != n:
        raise ConsistencyError(
            f"manifest N={n} but station file has {len(stations)} stations")
    X = _read_blob(os.path.join(path, "X.bin"), e * n * t * c, (e, n, t, c))
    Y = _read_blob(os.path.join(path, "Y.bin"), e * len(IM_NAMES) * n, (e, len(IM_NAMES), n))
    ds = EventDataset(stations=stations, X=X, Y=Y,
                      sample_rate_hz=manifest["sample_rate_hz"])
    ds.validate()
    return ds
