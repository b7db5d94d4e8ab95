import tracemalloc
from itertools import combinations, product

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
    ball_mask,
    ball_offsets,
    ball_size,
    close_pairs,
    cluster_anchors,
    nonzero_offsets,
    overlap,
    rim_clusters,
)


def l1(v):
    return sum(abs(int(c)) for c in v)


def linf(v):
    return max(abs(int(c)) for c in v)


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_mask_matches_the_index_grid_rule(d):
    for r in (0, 1, 2, 7, 13):
        grids = np.abs(np.indices((2 * r + 1,) * d) - r)
        for norm, dist in (("l1", grids.sum(axis=0)), ("linf", grids.max(axis=0))):
            ball = ball_mask(d, r, norm)
            assert ball.dtype == bool and not ball.flags.writeable
            assert np.array_equal(ball, dist <= r)


def test_ball_mask_peak_stays_near_the_mask_size():
    ball_mask.cache_clear()
    tracemalloc.start()
    try:
        ball = ball_mask(3, 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        ball_mask.cache_clear()
    assert peak < 2 * ball.nbytes


def _recursive_ball(d, r):
    """The 1-norm ball listed by recursion on the leading axes, the order
    `nonzero_offsets`, the window columns and the lattice neighbors keep."""
    out = []

    def rec(prefix, left):
        if len(prefix) == d - 1:
            out.extend(prefix + (c,) for c in range(-left, left + 1))
            return
        for c in range(-left, left + 1):
            rec(prefix + (c,), left - abs(c))

    rec((), r)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ball_offsets_match_the_recursive_enumeration(d):
    for r in range(6):
        assert ball_offsets(d, r) == _recursive_ball(d, r)
        assert ball_offsets(d, r, "linf") == list(product(range(-r, r + 1), repeat=d))


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
    ax = np.broadcast_arrays(*w.ix_axes())
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
    path = FiniteGraph.from_edges(5, [(i, i + 1) for i in range(4)])
    cycle = FiniteGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert path.max_degree == 2
    assert path.degree(0) == 1
    assert cycle.degree(0) == 2


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


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_window_graph_interior_is_full_rows(d, m, norm):
    # interior rows have no padding, and those are the sites at least m
    # from both ends of every axis (an axis offset reaches m in either norm)
    for extent in [(1,) * d, (2 * m,) * d, (9, 6, 5)[:d], (2 * m + 1, 7, 2)[:d]]:
        wg = WindowGraph.build(Window((3,) * d, extent), m, norm)
        nbr = wg.graph.neighbor_matrix
        assert wg.interior.dtype == bool
        assert np.array_equal(wg.interior, (nbr >= 0).all(axis=1))
        core = np.ones(extent, dtype=bool)
        for a, e in enumerate(extent):
            x = np.arange(e).reshape((-1,) + (1,) * (d - 1 - a))
            core &= (x >= m) & (x < e - m)
        assert np.array_equal(wg.interior, core.ravel())


def test_window_graph_neighbors_are_mutual():
    wg = WindowGraph.build(Window((0, 0), (4, 3)), m=1, norm="l1")
    for v in range(wg.graph.n):
        for u in wg.graph.neighbors(v):
            assert v in wg.graph.neighbors(int(u))


def test_window_graph_coords_align():
    wg = WindowGraph.build(Window((5, -5), (3, 3)), m=1, norm="l1")
    idx = wg.window.index((6, -4))
    assert wg.window.vertex(idx) == (6, -4)


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
        assert wg.window.vertex(i) == v
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


# -- box-geometry primitives ---------------------------------------------------

@st.composite
def point_sets(draw):
    """Points in a small box whose corner may sit near +-2^62, where float64
    steps by 1024 and would merge them."""
    d = draw(st.integers(1, 3))
    span = draw(st.integers(0, 40))
    corner = draw(st.one_of(st.integers(-50, 50), st.integers(2**62 - 40 - span, 2**62 - span),
                            st.integers(-2**62, -2**62 + 40)))
    rows = draw(st.lists(st.lists(st.integers(0, span), min_size=d, max_size=d),
                         max_size=30))
    pts = np.array(rows, dtype=np.int64).reshape(-1, d) + corner
    return pts, draw(st.integers(0, 2 * span + 2)), draw(st.sampled_from(["l1", "linf"]))


@given(point_sets())
@settings(max_examples=150, deadline=None)
def test_close_pairs_match_brute_force(case):
    pts, reach, norm = case
    rows = pts.tolist()
    dist = l1 if norm == "l1" else linf
    want = [(i, j, dist([a - b for a, b in zip(p, q)]))
            for i, p in enumerate(rows) for j, q in enumerate(rows) if i != j]
    want = [w for w in want if w[2] <= reach]
    i, j, got = close_pairs(pts, reach, norm)
    assert list(zip(i.tolist(), j.tolist(), got.tolist())) == want


def _shift_rule(shape, off):
    """The shifted-pair slices the audits were written against: grid[src]
    and grid[dst] are the cells x and x + off, for |off| <= shape per axis."""
    src = tuple(slice(0, s - o) if o >= 0 else slice(-o, s) for s, o in zip(shape, off))
    dst = tuple(slice(o, s) if o >= 0 else slice(0, s + o) for s, o in zip(shape, off))
    return src, dst


@st.composite
def shifted_grids(draw):
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    return shape, tuple(draw(st.integers(-s, s)) for s in shape)


@given(shifted_grids())
@settings(max_examples=150, deadline=None)
def test_overlap_matches_the_shift_rule(case):
    shape, off = case
    dst, src = overlap((0,) * len(shape), shape, off, shape)
    assert (src, dst) == _shift_rule(shape, off)


def test_overlap_of_disjoint_boxes_is_empty():
    grid = np.zeros((3, 4))
    for off in ((4, 0), (0, -9), (-3, 5)):
        at_a, at_b = overlap((0, 0), grid.shape, off, grid.shape)
        assert grid[at_a].size == grid[at_b].size == 0
    at_a, at_b = overlap((10, 10), (5, 5), (12, 8), (2, 3))
    assert at_a == (slice(2, 4), slice(0, 1)) and at_b == (slice(0, 2), slice(2, 3))


# -- cluster rules ------------------------------------------------------------

@st.composite
def cluster_grids(draw):
    """A grid of cluster ids (some ids unused) and of values with forced ties."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=2)))
    size = int(np.prod(shape))
    n = draw(st.integers(1, size + 2))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    values = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    return (np.array(ids).reshape(shape), n,
            np.array(values, dtype=np.float64).reshape(shape))


def _top_right(nx, ny):
    def key(at):
        i, j = np.divmod(at, ny)
        return j * nx + i
    return key


@given(cluster_grids())
@settings(max_examples=150, deadline=None)
def test_cluster_anchors_match_brute_force(case):
    ids, n, values = case
    nx, ny = ids.shape
    # the flat index and the top-right key, each as a function of the site
    rules = ((None, lambda i, j: i * ny + j), (_top_right(nx, ny), lambda i, j: j * nx + i))
    for key, site_key in rules:
        want = [-1] * n
        for c in range(n):
            sites = [(i, j) for i in range(nx) for j in range(ny) if ids[i, j] == c]
            if sites:
                top = max(values[s] for s in sites)
                want[c] = max(site_key(*s) for s in sites if values[s] == top)
        assert cluster_anchors(ids, n, values, key).tolist() == want


@st.composite
def rim_grids(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    n = draw(st.integers(1, size + 2))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    return np.array(ids).reshape(shape), n


@given(rim_grids())
@settings(max_examples=150, deadline=None)
def test_rim_clusters_match_brute_force(case):
    ids, n = case
    want = [False] * n
    for x in np.ndindex(ids.shape):
        if any(c in (0, e - 1) for c, e in zip(x, ids.shape)):
            want[ids[x]] = True
    assert rim_clusters(ids, n).tolist() == want
