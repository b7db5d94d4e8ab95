from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor.lattice import (
    FiniteGraph,
    LatticeSpec,
    Window,
    WindowGraph,
    ball_offsets,
    ball_size,
    cycle_graph,
    l1,
    linf,
    nonzero_offsets,
    path_graph,
    sphere_offsets,
)


@given(st.integers(1, 4), st.integers(0, 6))
def test_ball_size_matches_enumeration(d, r):
    for norm in ("l1", "linf"):
        offs = ball_offsets(d, r, norm)
        assert len(offs) == ball_size(d, r, norm)
        assert len(set(offs)) == len(offs)
        dist = l1 if norm == "l1" else linf
        assert all(dist(o) <= r for o in offs)


def test_ball_size_known_values():
    assert ball_size(2, 1, "l1") == 5
    assert ball_size(2, 1, "linf") == 9
    assert ball_size(3, 1, "l1") == 7
    assert ball_size(2, 2, "l1") == 13
    assert ball_size(1, 5, "l1") == 11


def test_sphere_offsets():
    s = sphere_offsets(2, 2, "l1")
    assert len(s) == 8
    assert all(l1(o) == 2 for o in s)


def test_window_roundtrip_and_iteration():
    w = Window((-2, 3), (4, 5))
    assert w.size == 20
    seen = list(w)
    assert len(seen) == 20
    for v in seen:
        assert w.contains(v)
        assert w.vertex(w.index(v)) == v
    assert not w.contains((-3, 3))
    assert not w.contains((2, 3))


def test_window_axes_match_iteration_order():
    w = Window((10, -1), (3, 2))
    ax = w.axes()
    flat = np.stack([a.ravel() for a in ax], axis=1)
    assert [tuple(r) for r in flat] == list(w)


def test_window_rejects_bad_extents():
    with pytest.raises(ValueError):
        Window((0, 0), (0, 3))


def test_finite_graph_from_edges():
    g = FiniteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.max_degree == 2
    assert sorted(g.neighbors(0).tolist()) == [1, 3]
    el = g.edge_list()
    assert el.shape == (4, 2)
    assert np.all(el[:, 0] < el[:, 1])


def test_path_and_cycle():
    assert path_graph(5).max_degree == 2
    assert path_graph(5).degree(0) == 1
    assert cycle_graph(5).degree(0) == 2


def test_window_graph_degrees_l1():
    wg = WindowGraph.build(Window((0, 0), (5, 5)), m=1, norm="l1")
    assert wg.graph.max_degree == 4
    center = wg.window.index((2, 2))
    corner = wg.window.index((0, 0))
    assert wg.graph.degree(center) == 4
    assert wg.graph.degree(corner) == 2
    assert wg.interior[center]
    assert not wg.interior[corner]


def test_window_graph_power_linf():
    wg = WindowGraph.build(Window((0, 0), (7, 7)), m=2, norm="linf")
    assert wg.graph.max_degree == 24
    assert int(wg.interior.sum()) == 9  # 3x3 core


def test_window_graph_neighbors_are_mutual():
    wg = WindowGraph.build(Window((0, 0), (4, 3)), m=1, norm="l1")
    for v in range(wg.graph.n):
        for u in wg.graph.neighbors(v):
            assert v in wg.graph.neighbors(int(u))


def test_window_graph_coords_align():
    wg = WindowGraph.build(Window((5, -5), (3, 3)), m=1, norm="l1")
    idx = wg.window.index((6, -4))
    assert tuple(wg.coords[idx]) == (6, -4)


# -- networkx as an independent oracle for the adjacency --------------------

MAX_EXTENT = {1: 9, 2: 6, 3: 4}


@st.composite
def lattice_windows(draw):
    d = draw(st.integers(1, 3))
    origin = tuple(draw(st.integers(-50, 50)) for _ in range(d))
    extent = tuple(draw(st.integers(1, MAX_EXTENT[d])) for _ in range(d))
    m = draw(st.integers(1, 2))
    return Window(origin, extent), m, draw(st.sampled_from(["l1", "linf"]))


def _power_graph(window: Window, m: int, norm: str) -> nx.Graph:
    dist = l1 if norm == "l1" else linf
    g = nx.Graph()
    g.add_nodes_from(window)
    g.add_edges_from((u, v) for u, v in combinations(window, 2)
                     if dist(np.subtract(u, v)) <= m)
    return g


@given(lattice_windows())
@settings(max_examples=80, deadline=None)
def test_window_graph_matches_networkx(wmn):
    window, m, norm = wmn
    wg = WindowGraph.build(window, m, norm)
    oracle = _power_graph(window, m, norm)
    nbr = wg.graph.neighbor_matrix
    full = ball_size(window.d, m, norm) - 1
    offs = nonzero_offsets(window.d, m, norm)
    assert nbr.shape == (window.size, len(offs)) and not nbr.flags.writeable
    for i, v in enumerate(window):
        row = nbr[i][nbr[i] >= 0].tolist()
        assert len(row) == len(set(row)) == oracle.degree(v)
        assert {window.vertex(u) for u in row} == set(oracle[v])
        assert bool(wg.interior[i]) == (oracle.degree(v) == full)
        assert tuple(wg.coords[i]) == v
        # column j holds the neighbor at offset j, or -1 outside the window
        for j, off in enumerate(offs):
            u = tuple(a + b for a, b in zip(v, off))
            assert nbr[i, j] == (window.index(u) if window.contains(u) else -1)
    assert wg.graph.max_degree == max(dict(oracle.degree).values())
    assert wg.graph.indices.size == 2 * oracle.number_of_edges()


@given(lattice_windows())
@settings(max_examples=40, deadline=None)
def test_lattice_spec_neighbors_match_networkx(wmn):
    window, m, norm = wmn
    # a window of side 2m + 1 around v holds v's whole ball
    v = tuple(o + m for o in window.origin)
    ball = Window(window.origin, (2 * m + 1,) * window.d)
    got = LatticeSpec(window.d, m, norm).neighbors(v)
    assert len(got) == len(set(got))
    assert set(got) == set(_power_graph(ball, m, norm)[v])
    assert got == [tuple(a + b for a, b in zip(v, off))
                   for off in nonzero_offsets(window.d, m, norm)]


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=3 * n))
    return n, edges


@given(edge_lists())
@settings(max_examples=150, deadline=None)
def test_from_edges_matches_networkx(ne):
    n, edges = ne
    g = FiniteGraph.from_edges(n, edges)
    oracle = nx.MultiGraph()
    oracle.add_nodes_from(range(n))
    oracle.add_edges_from(edges)
    assert g.n == n and g.neighbor_matrix.shape[0] == n
    for v in range(n):
        want = sorted(u for u, keys in oracle[v].items() for _ in keys)
        assert sorted(g.neighbors(v).tolist()) == want
        assert g.degree(v) == oracle.degree(v)
        # each row lists its neighbors in the order the edges name them
        assert g.neighbors(v).tolist() == [b if a == v else a for a, b in edges
                                           if v in (a, b)]
    assert g.max_degree == max(dict(oracle.degree).values(), default=0)
    assert g.indices.size == 2 * len(edges)
    assert sorted(map(tuple, g.edge_list().tolist())) == \
        sorted((min(e), max(e)) for e in edges)


@given(edge_lists(), st.integers(0, 11))
@settings(max_examples=50, deadline=None)
def test_from_edges_rejects_self_loops(ne, k):
    n, edges = ne
    n = max(n, k + 1)
    with pytest.raises(ValueError):
        FiniteGraph.from_edges(n, edges + [(k, k)])


def test_from_edges_rejects_endpoints_outside_the_graph():
    for edges in ([(0, 3)], [(-1, 0)]):
        with pytest.raises(ValueError):
            FiniteGraph.from_edges(3, edges)
