"""Station geometry and weighted sensor-graph construction.

A sensor network is turned into a weighted undirected graph by computing
all pairwise great-circle distances, rescaling them to [0, 1] with a
min-max transform, and keeping ``1 - scaled`` as the edge weight so that
nearby stations are strongly connected.  A threshold ``k`` then controls
sparsity: only edges with weight strictly greater than ``k`` survive.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class Station:
    id: str
    lat: float
    lon: float


@dataclass(frozen=True)
class StationSet:
    """Named sensors with coordinates, in a fixed node order."""

    stations: tuple[Station, ...]

    def __post_init__(self):
        if len(self.stations) < 2:
            raise InputError("a station set needs at least 2 stations")
        ids = [s.id for s in self.stations]
        if len(set(ids)) != len(ids):
            raise InputError("station ids must be unique")
        for s in self.stations:
            _check_coords(s.lat, s.lon)

    def __len__(self) -> int:
        return len(self.stations)

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.stations]

    def coords(self) -> np.ndarray:
        """(N, 2) array of (lat, lon) in degrees, rows in node order."""
        return np.array([(s.lat, s.lon) for s in self.stations], dtype=np.float64)

    @classmethod
    def from_pairs(cls, pairs) -> "StationSet":
        return cls(tuple(Station(str(i), float(a), float(o)) for i, a, o in pairs))


def _check_coords(lat: float, lon: float) -> None:
    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
        raise InputError(f"coordinates out of range: lat={lat}, lon={lon}")


def _haversine_km(lat1, lon1, lat2, lon2):
    """Haversine great-circle distance on a spherical earth, elementwise
    over broadcast numpy arrays of degrees."""
    dphi = np.radians(lat2 - lat1)
    dlmb = np.radians(lon2 - lon1)
    a = np.sin(dphi / 2) ** 2 \
        + np.cos(np.radians(lat1)) * np.cos(np.radians(lat2)) * np.sin(dlmb / 2) ** 2
    return EARTH_RADIUS_KM * 2 * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def pairwise_distances_km(stations: StationSet) -> np.ndarray:
    """(N, N) symmetric matrix of pairwise great-circle distances;
    entry [i, j] equals ``_haversine_km`` of stations i and j."""
    lat, lon = stations.coords().T
    return _haversine_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])


@dataclass(frozen=True)
class SensorGraph:
    """Thresholded weighted station graph.

    ``A`` is symmetric with zero diagonal; every retained edge has weight
    strictly greater than ``k``.  ``dist_km`` keeps the unfiltered
    pairwise distances for statistics and export.
    """

    n: int
    A: np.ndarray
    k: float
    dist_km: np.ndarray


def build_adjacency(stations: StationSet, k: float) -> SensorGraph:
    """Build the weighted graph: weight = 1 - minmax(distance), keep weight > k.

    Min-max scaling runs over all off-diagonal pairs before filtering, so
    the weight of a pair does not depend on ``k``.  Raises
    DegenerateInputError when all pairwise distances are equal (the scale
    is undefined).
    """
    if not (0.0 <= k <= 1.0):
        raise InputError(f"threshold k must be in [0, 1], got {k}")
    n = len(stations)
    dist = pairwise_distances_km(stations)
    off = dist[~np.eye(n, dtype=bool)]
    d_min, d_max = float(off.min()), float(off.max())
    if d_max == d_min:
        raise DegenerateInputError("all pairwise distances are equal; min-max scale undefined")
    weights = 1.0 - (dist - d_min) / (d_max - d_min)
    np.fill_diagonal(weights, 0.0)
    A = np.where(weights > k, weights, 0.0)
    np.fill_diagonal(A, 0.0)
    return SensorGraph(n=n, A=A, k=float(k), dist_km=dist)


def _inv_sqrt_degrees(deg: np.ndarray) -> np.ndarray:
    # isolated nodes get d^{-1/2} = 0 instead of a division error
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(deg)
    inv[~np.isfinite(inv)] = 0.0
    return inv


def normalized_laplacian(g: SensorGraph) -> np.ndarray:
    """Symmetrically normalized Laplacian I - D^{-1/2} A D^{-1/2}."""
    deg = g.A.sum(axis=1)
    inv = _inv_sqrt_degrees(deg)
    return np.eye(g.n) - (inv[:, None] * g.A) * inv[None, :]


def renormalized_adjacency(g: SensorGraph) -> np.ndarray:
    """Self-loop-augmented, symmetrically degree-normalized adjacency.

    A_hat = D~^{-1/2} (A + I) D~^{-1/2} with D~ the degrees of A + I.
    All entries are non-negative and the matrix is symmetric.
    """
    A_tilde = g.A + np.eye(g.n)
    deg = A_tilde.sum(axis=1)
    inv = _inv_sqrt_degrees(deg)
    return (inv[:, None] * A_tilde) * inv[None, :]


def propagation_matrix(g: SensorGraph, kind: str) -> np.ndarray:
    """The (N, N) node-mixing matrix fed to graph-convolution layers:
    ``normalized_laplacian`` for "laplacian", ``renormalized_adjacency``
    for "renormalized"."""
    if kind == "laplacian":
        return normalized_laplacian(g)
    if kind == "renormalized":
        return renormalized_adjacency(g)
    raise InputError(f"unknown propagation kind: {kind!r}")


def graph_stats(g: SensorGraph) -> tuple[int, float, float]:
    """(edge_count, avg_degree_centrality, cutoff_km) of the retained graph.

    Degree centrality of a node is degree / (N - 1); cutoff_km is the
    largest distance among retained edges (0.0 for an empty graph).
    """
    mask = g.A > 0.0
    edge_count = int(mask.sum()) // 2
    degrees = mask.sum(axis=1)
    avg_centrality = float(np.mean(degrees / (g.n - 1)))
    cutoff = float(g.dist_km[mask].max()) if edge_count > 0 else 0.0
    return edge_count, avg_centrality, cutoff


# ---------------------------------------------------------------------------
# file formats

def load_stations_csv(path) -> StationSet:
    """Read a UTF-8 CSV with header ``id,lat,lon``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except OSError as exc:
        raise InputError(f"{path}: cannot read station file: {exc.strerror}") from None
    except ValueError as exc:  # a NUL in the path
        raise InputError(f"{path!r}: cannot read station file: {exc}") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or \
                    [f.strip() for f in reader.fieldnames[:3]] != ["id", "lat", "lon"]:
                raise InputError(f"{path}: expected CSV header 'id,lat,lon'")
            rows = []
            for row in reader:
                try:
                    rows.append((row["id"], float(row["lat"]), float(row["lon"])))
                except (TypeError, ValueError):
                    raise InputError(f"{path}: line {reader.line_num}: lat and lon must be "
                                     f"numbers, got {row['lat']!r}, {row['lon']!r}") from None
        except csv.Error as exc:  # e.g. a field past csv's size limit
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    return StationSet.from_pairs(rows)


def save_stations_csv(path, stations: StationSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lat", "lon"])
        for s in stations.stations:
            writer.writerow([s.id, repr(s.lat), repr(s.lon)])


def graph_to_dict(g: SensorGraph) -> dict:
    """n, k and the retained undirected edges {i, j, weight, dist_km}, i < j."""
    return {
        "n": g.n,
        "k": g.k,
        "edges": [{"i": int(i), "j": int(j), "weight": float(g.A[i, j]),
                   "dist_km": float(g.dist_km[i, j])}
                  for i, j in zip(*np.nonzero(np.triu(g.A, 1)))],
    }
