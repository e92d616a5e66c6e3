"""Geometry, adjacency construction, and propagation matrices."""

import json
import math

import numpy as np
import pytest

from tisergcn.errors import DegenerateInputError, InputError
from tisergcn.geo import (
    EARTH_RADIUS_KM,
    SensorGraph,
    StationSet,
    _haversine_km,
    build_adjacency,
    graph_stats,
    graph_to_dict,
    load_stations_csv,
    normalized_laplacian,
    pairwise_distances_km,
    propagation_matrix,
    renormalized_adjacency,
    save_stations_csv,
)

from conftest import line_stations


# ---------------------------------------------------------------------------
# distances

def test_quarter_circle_distance():
    assert _haversine_km(0.0, 0.0, 0.0, 90.0) == pytest.approx(10007.54, abs=0.01)


def test_distance_symmetry_and_identity(rng):
    for _ in range(20):
        p1 = (rng.uniform(-89, 89), rng.uniform(-179, 179))
        p2 = (rng.uniform(-89, 89), rng.uniform(-179, 179))
        assert _haversine_km(*p1, *p2) == pytest.approx(_haversine_km(*p2, *p1), abs=0.0)
        assert _haversine_km(*p1, *p1) == 0.0


def test_antipodal_distance_is_half_circumference():
    half = math.pi * EARTH_RADIUS_KM
    assert _haversine_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(half, rel=1e-12)


def test_distance_range_validation():
    with pytest.raises(InputError):
        StationSet.from_pairs([("a", 91.0, 0.0), ("b", 0.0, 0.0)])
    with pytest.raises(InputError):
        StationSet.from_pairs([("a", 0.0, 0.0), ("b", 0.0, 200.0)])


def test_pairwise_matrix_matches_scalar(rng):
    pts = [(f"s{i}", rng.uniform(-60, 60), rng.uniform(-60, 60)) for i in range(6)]
    st = StationSet.from_pairs(pts)
    d = pairwise_distances_km(st)
    assert np.allclose(d, d.T) and np.all(np.diag(d) == 0.0)
    coords = st.coords()
    for i in range(6):
        for j in range(6):
            assert d[i, j] == pytest.approx(
                _haversine_km(*coords[i], *coords[j]), abs=0.0)


def haversine_math_km(p1, p2):
    # the scalar haversine on the math module, independent of numpy
    phi1, phi2 = math.radians(p1[0]), math.radians(p2[0])
    dphi = math.radians(p2[0] - p1[0])
    dlmb = math.radians(p2[1] - p1[1])
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return EARTH_RADIUS_KM * 2 * math.asin(min(1.0, math.sqrt(a)))


def test_pairwise_matrix_matches_math_haversine(rng):
    pts = [(f"s{i}", rng.uniform(-89, 89), rng.uniform(-179, 179)) for i in range(30)]
    pts += [("near", 42.0, 13.0), ("nearer", 42.0 + 1e-7, 13.0)]
    st = StationSet.from_pairs(pts)
    d = pairwise_distances_km(st)
    coords = st.coords()
    for i in range(len(pts)):
        for j in range(len(pts)):
            want = haversine_math_km(coords[i], coords[j])
            assert abs(d[i, j] - want) <= 1e-12 * want
    assert np.array_equal(d, d.T)


# ---------------------------------------------------------------------------
# station sets

def test_station_set_validation():
    with pytest.raises(InputError):
        StationSet.from_pairs([("only", 0.0, 0.0)])
    with pytest.raises(InputError):
        StationSet.from_pairs([("a", 0.0, 0.0), ("a", 1.0, 1.0)])
    with pytest.raises(InputError):
        StationSet.from_pairs([("a", 0.0, 0.0), ("b", -95.0, 0.0)])


def test_stations_csv_roundtrip(tmp_path):
    st = StationSet.from_pairs([("AQU", 42.354, 13.405), ("CERT", 41.949, 12.982)])
    path = tmp_path / "stations.csv"
    save_stations_csv(path, st)
    back = load_stations_csv(path)
    assert back.ids == st.ids
    assert np.array_equal(back.coords(), st.coords())


@pytest.mark.parametrize("row", ["S001,abc,13.79", "S001,42.1,", "S001,42.1"])
def test_stations_csv_non_numeric_coordinate(tmp_path, row):
    path = tmp_path / "stations.csv"
    path.write_text(f"id,lat,lon\nS000,42.0,13.0\n{row}\n")
    with pytest.raises(InputError) as exc:
        load_stations_csv(path)
    assert str(path) in str(exc.value) and "line 3" in str(exc.value)


@pytest.mark.parametrize("content", [b"id,l\xe4t,lon\nS0,1,2\n", b"id,lat,lon\nS\xff,1,2\n"])
def test_stations_csv_not_utf8(tmp_path, content):
    path = tmp_path / "stations.csv"
    path.write_bytes(content)
    with pytest.raises(InputError, match="UTF-8") as exc:
        load_stations_csv(path)
    assert str(path) in str(exc.value)


def test_stations_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,latitude,lon\na,0,0\n")
    with pytest.raises(InputError):
        load_stations_csv(path)


# ---------------------------------------------------------------------------
# adjacency construction

def edge_list(g):
    """The retained edges of graph_to_dict as (i, j, weight, dist_km) tuples."""
    return [(e["i"], e["j"], e["weight"], e["dist_km"]) for e in graph_to_dict(g)["edges"]]


def test_minmax_weights_three_stations():
    # equator stations at lon 0, 0.1, 0.3: pairwise distances d, 2d, 3d,
    # so the min-max scaled weights must be exactly 1, 0.5 and 0
    st = StationSet.from_pairs([("a", 0.0, 0.0), ("b", 0.0, 0.1), ("c", 0.0, 0.3)])
    g = build_adjacency(st, k=0.3)
    assert g.A[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert g.A[1, 2] == pytest.approx(0.5, abs=1e-9)
    assert g.A[0, 2] == 0.0
    assert len(edge_list(g)) == 2


def test_threshold_is_strict():
    st = StationSet.from_pairs([("a", 0.0, 0.0), ("b", 0.0, 0.1), ("c", 0.0, 0.3)])
    g = build_adjacency(st, k=0.5)
    # the weight-0.5 edge sits exactly on the cutoff and must be dropped
    assert [e[:2] for e in edge_list(g)] == [(0, 1)]


def test_threshold_one_gives_empty_graph():
    g = build_adjacency(line_stations(5), k=1.0)
    assert edge_list(g) == []
    assert np.all(g.A == 0.0)


def test_adjacency_validation():
    with pytest.raises(InputError):
        build_adjacency(line_stations(3), k=1.5)
    with pytest.raises(DegenerateInputError):
        build_adjacency(line_stations(2), k=0.3)


def test_edge_sets_shrink_monotonically(rng):
    pts = [(f"s{i}", rng.uniform(40, 44), rng.uniform(10, 14)) for i in range(10)]
    st = StationSet.from_pairs(pts)
    previous = None
    for k in np.linspace(0.0, 1.0, 11):
        edges = {e[:2] for e in edge_list(build_adjacency(st, float(k)))}
        if previous is not None:
            assert edges <= previous
        previous = edges


def test_weights_do_not_depend_on_k(rng):
    pts = [(f"s{i}", rng.uniform(40, 44), rng.uniform(10, 14)) for i in range(7)]
    st = StationSet.from_pairs(pts)
    g1, g2 = build_adjacency(st, 0.1), build_adjacency(st, 0.5)
    mask = g2.A > 0
    assert np.array_equal(g1.A[mask], g2.A[mask])


# ---------------------------------------------------------------------------
# propagation matrices

def _random_graph(rng, n):
    w = np.triu(rng.random((n, n)), 1) * (np.triu(rng.random((n, n)), 1) > 0.4)
    A = w + w.T
    return SensorGraph(n=n, A=A, k=0.0, dist_km=np.ones((n, n)) - np.eye(n))


def test_two_node_renormalized_exact():
    g = SensorGraph(n=2, A=np.array([[0.0, 1.0], [1.0, 0.0]]), k=0.0,
                    dist_km=np.array([[0.0, 5.0], [5.0, 0.0]]))
    m = renormalized_adjacency(g)
    assert np.abs(m - 0.5).max() <= 1e-12


def test_laplacian_against_nested_loop_oracle(rng):
    for n in (2, 4, 8):
        g = _random_graph(rng, n)
        L = normalized_laplacian(g)
        deg = g.A.sum(axis=1)
        oracle = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                norm = 0.0
                if deg[i] > 0 and deg[j] > 0:
                    norm = g.A[i, j] / math.sqrt(deg[i] * deg[j])
                oracle[i, j] = (1.0 if i == j else 0.0) - norm
        assert np.abs(L - oracle).max() <= 1e-12
        assert np.allclose(L, L.T, atol=0)


def test_renormalized_against_nested_loop_oracle(rng):
    for n in (2, 5, 8):
        g = _random_graph(rng, n)
        M = renormalized_adjacency(g)
        At = g.A + np.eye(n)
        deg = At.sum(axis=1)
        oracle = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                oracle[i, j] = At[i, j] / math.sqrt(deg[i] * deg[j])
        assert np.abs(M - oracle).max() <= 1e-12


def test_isolated_node_conventions():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 0.8
    g = SensorGraph(n=3, A=A, k=0.0, dist_km=np.ones((3, 3)) - np.eye(3))
    L = normalized_laplacian(g)
    assert np.array_equal(L[2], [0.0, 0.0, 1.0])
    M = renormalized_adjacency(g)
    # an isolated node still carries its self-loop
    assert M[2, 2] == pytest.approx(1.0)
    assert M[2, 0] == M[2, 1] == 0.0


def test_propagation_matrix_dispatch():
    g = _random_graph(np.random.default_rng(0), 4)
    assert np.array_equal(propagation_matrix(g, "laplacian"), normalized_laplacian(g))
    assert np.array_equal(propagation_matrix(g, "renormalized"), renormalized_adjacency(g))
    with pytest.raises(InputError):
        propagation_matrix(g, "magic")


# ---------------------------------------------------------------------------
# stats and export

def test_path_graph_stats():
    st = StationSet.from_pairs([("a", 0.0, 0.0), ("b", 0.0, 0.1), ("c", 0.0, 0.3)])
    g = build_adjacency(st, k=0.3)
    edges, centrality, cutoff = graph_stats(g)
    assert edges == 2
    assert centrality == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert cutoff == pytest.approx(g.dist_km[1, 2], abs=0.0)


def test_empty_graph_stats():
    g = build_adjacency(line_stations(4), k=1.0)
    edges, centrality, cutoff = graph_stats(g)
    assert (edges, centrality, cutoff) == (0, 0.0, 0.0)


def test_graph_json_structure():
    st = StationSet.from_pairs([("a", 0.0, 0.0), ("b", 0.0, 0.1), ("c", 0.0, 0.3)])
    payload = json.loads(json.dumps(graph_to_dict(build_adjacency(st, k=0.3))))
    assert payload["n"] == 3 and payload["k"] == 0.3
    assert [(e["i"], e["j"]) for e in payload["edges"]] == [(0, 1), (1, 2)]
    for e in payload["edges"]:
        assert e["weight"] > 0.3 and e["dist_km"] > 0


def test_edges_match_double_loop(rng):
    # every pair i < j with a positive weight, row by row, as a double loop lists them
    st = StationSet.from_pairs([(f"s{i}", float(la), float(lo)) for i, (la, lo)
                                in enumerate(rng.uniform(-1.0, 1.0, size=(9, 2)))])
    for k in (0.0, 0.3, 0.6, 1.0):
        g = build_adjacency(st, k)
        want = [(i, j, float(g.A[i, j]), float(g.dist_km[i, j]))
                for i in range(g.n) for j in range(i + 1, g.n) if g.A[i, j] > 0.0]
        got = edge_list(g)
        assert got == want
        assert all(type(i) is int and type(j) is int for i, j, _, _ in got)
