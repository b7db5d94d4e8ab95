"""Diagonal percolation three-coloring: rule oracles, genealogy, radii."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor.field import BudgetExceeded, LabelField, PerturbedField, tracked
from ffcolor import perc3color
from ffcolor.lattice import Window
from ffcolor.perc3color import (
    UNKNOWN,
    PercWindow,
    choose_diagonals,
    START_HALF,
    coding_radii,
    diagonal_rule,
    half_widths,
    scheduled_radius,
    three2d_window,
    three_color_2d,
)


def cluster_of(perc, v):
    """Vertices (absolute coordinates) of v's cluster and its closed flag."""
    cid = perc.cluster_id(v)
    ii, jj = np.nonzero(perc.labels == cid)
    coords = np.stack([ii + perc.window.origin[0], jj + perc.window.origin[1]], axis=1)
    return coords, bool(perc.closed[cid])


def parity_grid(window):
    i, j = np.indices(tuple(window.extent))
    return (i + window.origin[0] + j + window.origin[1]) % 2


# -- diagonal rule -----------------------------------------------------------


def test_diagonal_rule_tie_falls_to_falling_diagonal():
    assert diagonal_rule(0.0, 1) == 1
    assert diagonal_rule(0.0, -1) == 1
    assert diagonal_rule(0.25, 1) == 0
    assert diagonal_rule(0.25, -1) == 1
    assert diagonal_rule(-0.25, -1) == 0


def test_scalar_choose_diagonals_matches_window_grid():
    f = LabelField(21)
    perc = PercWindow.build(f, Window((-5, 7), (12, 12)))
    for si, sj in [(-5, 7), (0, 10), (5, 17), (-2, 12)]:
        got = choose_diagonals((si, sj), f)
        assert got == perc.diag[si + 5, sj - 7]


def test_diagonal_rule_from_raw_labels_and_sign_flip_invariance():
    # shadow recomputation from the label grids, with every sign label
    # flipped: the four-coin product is unchanged, so the diagonals are too
    f = LabelField(33)
    win = Window((0, 0), (40, 40))
    axes = win.ix_axes()
    u = f.uniform_grid("three2d:u", axes)
    b = f.coin_grid("three2d:b", axes).astype(np.int64)
    du = (u[:-1, :-1] + u[1:, 1:]) - (u[1:, :-1] + u[:-1, 1:])
    for sign in (1, -1):
        bb = sign * b
        bprime = bb[:-1, :-1] * bb[1:, :-1] * bb[1:, 1:] * bb[:-1, 1:]
        shadow = np.where(du * bprime > 0, 0, 1)
        perc = PercWindow.build(f, win)
        assert np.array_equal(shadow, perc.diag)


def test_diagonal_frequency_is_half():
    f = LabelField(5)
    perc = PercWindow.build(f, Window((0, 0), (318, 318)))
    assert perc.diag.size >= 100_000
    assert abs(perc.diag.mean() - 0.5) < 0.005


def test_adjacent_squares_uncorrelated():
    f = LabelField(6)
    diag = PercWindow.build(f, Window((0, 0), (318, 318))).diag.astype(float)
    for a, b in [(diag[:-1, :], diag[1:, :]), (diag[:, :-1], diag[:, 1:])]:
        corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(corr) < 0.01


def test_ties_are_counted_not_silent():
    f = LabelField(5)
    perc = PercWindow.build(f, Window((0, 0), (64, 64)))
    assert perc.ties == 0  # a hit has probability ~2^-50 per square


# -- clusters ----------------------------------------------------------------


def test_clusters_never_mix_parity():
    f = LabelField(7)
    win = Window((3, -4), (65, 65))
    perc = PercWindow.build(f, win)
    par = parity_grid(win)
    for cid in range(perc.nclusters):
        assert len(np.unique(par[perc.labels == cid])) == 1


def test_cluster_of_reports_closed_flag():
    f = LabelField(7)
    perc = PercWindow.build(f, Window((0, 0), (33, 33)))
    labels = perc.labels
    rim = np.zeros(labels.shape, dtype=bool)
    rim[[0, -1], :] = True
    rim[:, [0, -1]] = True
    open_ids = set(labels[rim].tolist())
    coords, closed = cluster_of(perc, (16, 16))
    assert closed == (labels[16, 16] not in open_ids)
    assert all(labels[i, j] == labels[16, 16] for i, j in coords)
    coords, closed = cluster_of(perc, (0, 5))
    assert not closed


def test_mean_cluster_size_bounded_across_seeds():
    means = []
    for seed in range(10):
        perc = PercWindow.build(LabelField(400 + seed), Window((0, 0), (65, 65)))
        sizes = np.bincount(perc.labels.ravel(), minlength=perc.nclusters)
        means.append(sizes.mean())
    assert all(1.0 < m < 50.0 for m in means)


# -- parents -----------------------------------------------------------------


def _diamond_config():
    # 9x9 window, all rising diagonals except the four squares around the
    # center, whose diagonals avoid it: the center is then a singleton
    # cluster ringed by the 4-cycle through its lattice neighbors
    diag = np.zeros((8, 8), dtype=np.int8)
    diag[3, 3] = 1
    diag[4, 3] = 0
    diag[4, 4] = 1
    diag[3, 4] = 0
    rng = np.random.default_rng(1)
    v = rng.random((9, 9))
    w = rng.choice([-1, 1], (9, 9))
    return PercWindow(Window((0, 0), (9, 9)), diag, v, w)


def test_singleton_parent_is_surrounding_diamond():
    perc = _diamond_config()
    coords, closed = cluster_of(perc, (4, 4))
    assert closed and len(coords) == 1
    cid = perc.cluster_id((4, 4))
    pid = int(perc.parent[cid])
    assert pid == perc.cluster_id((5, 4)) == perc.cluster_id((3, 4)) \
        == perc.cluster_id((4, 5)) == perc.cluster_id((4, 3))
    assert pid != cid


def _surrounders(perc, cid):
    """Adjacent clusters blocking every 4-adjacent path to the window rim."""
    from collections import deque

    lab = perc.labels
    nx, ny = lab.shape
    mask = lab == cid
    adjacent = set()
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        shifted = np.full(lab.shape, -1)
        src = mask[max(-di, 0):nx - max(di, 0), max(-dj, 0):ny - max(dj, 0)]
        shifted[max(di, 0):nx - max(-di, 0), max(dj, 0):ny - max(-dj, 0)] = \
            np.where(src, 1, -1)
        adjacent.update(np.unique(lab[shifted == 1]).tolist())
    adjacent.discard(cid)
    out = []
    for other in adjacent:
        blocked = lab == other
        seen = mask.copy()
        queue = deque(map(tuple, np.argwhere(mask)))
        escaped = False
        while queue:
            i, j = queue.popleft()
            if i in (0, nx - 1) or j in (0, ny - 1):
                escaped = True
                break
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if not seen[a, b] and not blocked[a, b]:
                    seen[a, b] = True
                    queue.append((a, b))
        if not escaped:
            out.append(other)
    return out


@pytest.mark.parametrize("seed", [7, 19])
def test_parent_is_the_unique_surrounding_adjacent_cluster(seed):
    # path-blocking oracle: a 4-adjacent path can only cross a drawn
    # diagonal at one of its endpoints, so a surrounding cluster is one
    # whose removal disconnects the cluster from the window rim
    perc = PercWindow.build(LabelField(seed), Window((0, 0), (33, 33)))
    checked = 0
    for cid in np.nonzero(perc.closed)[0]:
        blockers = _surrounders(perc, int(cid))
        assert len(blockers) == 1
        assert blockers[0] == perc.parent[cid]
        checked += 1
    assert checked > 50


def test_parent_antisymmetric_and_opposite_parity():
    f = LabelField(11)
    win = Window((0, 0), (65, 65))
    perc = PercWindow.build(f, win)
    par = parity_grid(win)
    cpar = np.zeros(perc.nclusters, dtype=int)
    cpar[perc.labels] = par
    p = perc.parent
    known = np.nonzero(p != UNKNOWN)[0]
    assert known.size > 100
    assert (p[known] != known).all()
    assert (cpar[known] != cpar[p[known]]).all()
    both = known[p[p[known]] != UNKNOWN]
    assert (p[p[both]] != both).all()


def test_adjacent_clusters_are_always_nested():
    f = LabelField(11)
    perc = PercWindow.build(f, Window((0, 0), (257, 257)))
    lab, p = perc.labels, perc.parent
    pairs = np.concatenate([
        np.stack([lab[:-1, :].ravel(), lab[1:, :].ravel()], 1),
        np.stack([lab[:, :-1].ravel(), lab[:, 1:].ravel()], 1)])
    pairs = np.unique(pairs, axis=0)
    known = (p[pairs[:, 0]] != UNKNOWN) & (p[pairs[:, 1]] != UNKNOWN)
    ke = pairs[known]
    assert len(ke) > 500
    nested = (p[ke[:, 0]] == ke[:, 1]) | (p[ke[:, 1]] == ke[:, 0])
    assert nested.all()


class _AllStreamsBut:
    """A replay region: every label of every stream but one."""

    def __init__(self, swapped: str):
        self.swapped = swapped

    def inside(self, stream, axes):
        shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
        return np.full(shape, stream != self.swapped)


def test_swapping_the_sign_stream_keeps_the_geometry():
    # only the cluster signs read three2d:w, so a field that resamples that
    # one stream keeps the diagonals, clusters and parents, and signs each
    # cluster with the alt field's coin at base's anchor: the cluster's
    # vertex of largest v label
    base, alt = LabelField(23), LabelField(1023)
    win = Window((-9, 4), (40, 40))
    first = PercWindow.build(base, win)
    swapped = PercWindow.build(PerturbedField(base, _AllStreamsBut("three2d:w"), alt), win)
    assert np.array_equal(swapped.diag, first.diag)
    assert np.array_equal(swapped.labels, first.labels)
    assert np.array_equal(swapped.parent, first.parent)
    axes = win.ix_axes()
    v = base.uniform_box("three2d:v", axes).ravel()
    w_base, w_alt = (f.coin_box("three2d:w", axes).ravel() for f in (base, alt))
    flat = first.labels.ravel()
    for c in range(first.nclusters):
        members = np.flatnonzero(flat == c)
        anchor = members[np.argmax(v[members])]
        assert np.count_nonzero(v[members] == v[anchor]) == 1
        assert first.ylabel[c] == w_base[anchor]
        assert swapped.ylabel[c] == w_alt[anchor]
    assert np.any(swapped.ylabel != first.ylabel)


# -- labels and colors -------------------------------------------------------


def test_color_rule_matches_independent_walk():
    perc = PercWindow.build(LabelField(13), Window((0, 0), (129, 129)))
    for cid in range(perc.nclusters):
        if not perc.color_known[cid]:
            assert perc.color[cid] == 0
            continue
        steps, cur = 0, cid
        while not perc.special[cur]:
            assert perc.special_known[cur]
            cur = int(perc.parent[cur])
            steps += 1
        want = 1 if steps == 0 else (2 if steps % 2 == 1 else 3)
        assert perc.color[cid] == want


def test_parent_and_child_colors_differ():
    perc = PercWindow.build(LabelField(13), Window((0, 0), (513, 513)))
    ids = np.nonzero(perc.color_known & (perc.parent != UNKNOWN))[0]
    ids = ids[perc.color_known[perc.parent[ids]]]
    assert ids.size > 20
    assert (perc.color[ids] != perc.color[perc.parent[ids]]).all()


def test_window_coloring_crops_and_reports_validity():
    colors, valid, _ = three2d_window(LabelField(17), Window((0, 0), (64, 64)),
                                      margin=96)
    assert valid.shape == (64, 64)
    assert np.array_equal(valid, colors > 0)
    assert set(np.unique(colors[valid])) <= {1, 2, 3}


def test_window_coloring_is_proper_on_resolved_vertices():
    # resolved vertices are sparse, so adjacent resolved pairs need scale
    perc = PercWindow.build(LabelField(11), Window((0, 0), (513, 513)))
    colors, valid = perc.colors_grid()
    checked = 0
    for sla, slb in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
        both = valid[sla] & valid[slb]
        checked += int(both.sum())
        assert not ((colors[sla] == colors[slb]) & both).any()
    assert checked > 200


def test_relabeling_values_order_preserving_keeps_colors():
    f = LabelField(23)
    win = Window((0, 0), (65, 65))
    axes = win.ix_axes()
    u = f.uniform_grid("three2d:u", axes)
    b = f.coin_grid("three2d:b", axes).astype(np.int64)
    du = (u[:-1, :-1] + u[1:, 1:]) - (u[1:, :-1] + u[:-1, 1:])
    bprime = b[:-1, :-1] * b[1:, :-1] * b[1:, 1:] * b[:-1, 1:]
    diag = np.where(du * bprime > 0, 0, 1).astype(np.int8)
    v = f.uniform_grid("three2d:v", axes)
    w = f.coin_grid("three2d:w", axes).astype(np.int64)
    base = PercWindow(win, diag, v, w)
    squashed = PercWindow(win, diag, v ** 3, w)
    assert np.array_equal(base.color, squashed.color)
    assert np.array_equal(base.color_known, squashed.color_known)


# -- oracles for the vectorized passes ---------------------------------------


@st.composite
def diag_configs(draw):
    """A window, diagonals and labels for the PercWindow constructor.

    The diagonals start as concentric diamonds around a random point, so
    clusters nest many levels deep even in small windows, and a drawn share
    of squares (up to all, at share 1/2) is flipped at random.  The anchor
    values v take only 2 or 3 values, so ties within a cluster are common.
    """
    nx_, ny_ = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    flip = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5]))
    nvals = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cx, cy = rng.integers(0, nx_), rng.integers(0, ny_)
    a, b = np.indices((nx_ - 1, ny_ - 1))
    # the falling diagonal where the square lies north-east or south-west
    # of the center, the rising one elsewhere: every diamond ring is drawn
    diag = ((a + 0.5 > cx) == (b + 0.5 > cy)).astype(np.int8)
    diag ^= (rng.random(diag.shape) < flip).astype(np.int8)
    v = rng.integers(0, nvals, (nx_, ny_)).astype(float)
    w = rng.choice([-1, 1], (nx_, ny_))
    origin = tuple(int(c) for c in rng.integers(-50, 50, 2))
    return Window(origin, (nx_, ny_)), diag, v, w


def _lexsort_ylabel(perc, vlabel, wlabel):
    # sign of each cluster's max-v vertex, ties to the top-right key j*nx + i
    nx_, ny_ = perc.labels.shape
    flat = perc.labels.ravel()
    i, j = np.indices((nx_, ny_))
    order = np.lexsort(((j * nx_ + i).ravel(), vlabel.ravel(), flat))
    last = np.nonzero(np.diff(flat[order], append=-1))[0]
    anchor = order[last]
    ylabel = np.zeros(perc.nclusters, dtype=np.int64)
    ylabel[flat[anchor]] = wlabel.ravel()[anchor]
    return ylabel


def _chain_walk(perc, face_lo, face_hi):
    """Distance to the nearest special ancestor and the requirement box of
    every cluster, one cluster at a time up its parent chain.  Each cluster's
    base box is the cluster padded by 1 and its face (`_face_oracle`, square
    indices) padded by (1, 2)."""
    ncl = perc.nclusters
    dist = np.full(ncl, UNKNOWN, dtype=np.int64)
    base_lo = np.minimum(perc.cluster_lo - 1, face_lo - 1)
    base_hi = np.maximum(perc.cluster_hi + 1, face_hi + 2)
    req_lo = np.zeros((ncl, 2), dtype=np.int64)
    req_hi = np.zeros((ncl, 2), dtype=np.int64)
    for c in range(ncl):
        chain = []
        cur = c
        while dist[cur] == UNKNOWN and perc.special_known[cur] \
                and not perc.special[cur]:
            chain.append(cur)
            cur = int(perc.parent[cur])
        if dist[cur] != UNKNOWN:
            base = dist[cur]
        elif perc.special_known[cur] and perc.special[cur]:
            base = dist[cur] = 0
            p = perc.parent[cur]
            req_lo[cur] = np.minimum(base_lo[cur], perc.cluster_lo[p] - 1)
            req_hi[cur] = np.maximum(base_hi[cur], perc.cluster_hi[p] + 1)
        else:
            continue
        for step, k in enumerate(reversed(chain), start=1):
            dist[k] = base + step
            p = perc.parent[k]
            req_lo[k] = np.minimum(base_lo[k], req_lo[p])
            req_hi[k] = np.maximum(base_hi[k], req_hi[p])
    color = np.where(dist == UNKNOWN, 0,
                     np.where(dist == 0, 1, np.where(dist % 2 == 1, 2, 3)))
    return dist, color, req_lo, req_hi


def test_anchor_and_chain_passes_match_oracles():
    deepest = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(diag_configs())
    def check(config):
        window, diag, v, w = config
        perc = PercWindow(window, diag, v, w)
        ylabel = _lexsort_ylabel(perc, v, w)
        p = np.where(perc.parent == UNKNOWN, 0, perc.parent)
        special = perc.special_known & (ylabel == 1) & (ylabel[p] == -1)
        assert np.array_equal(perc.ylabel, ylabel)
        assert np.array_equal(perc.special, special)
        _, face_lo, face_hi = _face_oracle(perc)
        dist, color, req_lo, req_hi = _chain_walk(perc, face_lo, face_hi)
        assert np.array_equal(perc.dist, dist)
        assert np.array_equal(perc.color, color)
        assert np.array_equal(perc.req_lo, req_lo)
        assert np.array_equal(perc.req_hi, req_hi)
        deepest.append(int(dist.max()))

    check()
    assert max(deepest) >= 2


def _numbered_partition(n, edges):
    """Component id per vertex, ids in order of each component's least vertex."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    ids = np.empty(n, dtype=np.int64)
    for k, comp in enumerate(sorted(nx.connected_components(g), key=min)):
        ids[list(comp)] = k
    return ids


def _triangle_faces(diag):
    """Face id of every triangle, from networkx over the triangle gluing.

    Triangle 2*s is the west one of square s = i*nsy + j, 2*s + 1 the east
    one; the north side lies in triangle diag, the south in 1 - diag.
    """
    nsx, nsy = diag.shape
    d = diag.tolist()
    glue = []
    for i in range(nsx):
        for j in range(nsy):
            s = i * nsy + j
            if i + 1 < nsx:
                glue.append((2 * s + 1, 2 * (s + nsy)))
            if j + 1 < nsy:
                glue.append((2 * s + d[i][j], 2 * (s + 1) + 1 - d[i][j + 1]))
    return _numbered_partition(2 * nsx * nsy, glue)


def _face_oracle(perc):
    """Parent and face box of every closed cluster, read off the faces of
    the drawn-diagonal subdivision.

    A closed cluster's face holds the west triangle of the square whose
    lower-left corner is the cluster's top-right vertex (largest key
    j*nx + i).  That face must hold no rim side, and its parent is the
    cluster at the face's top-right corner.  Returns (parent, face_lo,
    face_hi): parents are UNKNOWN and boxes 0 off the closed clusters, and
    boxes are in square indices.
    """
    labels, diag = perc.labels, perc.diag
    nx_, ny_ = labels.shape
    nsx, nsy = diag.shape
    faces = _triangle_faces(diag)
    nf = int(faces.max()) + 1
    has_rim = np.zeros(nf, dtype=bool)
    lo = np.full((nf, 2), max(nsx, nsy), dtype=np.int64)
    hi = np.full((nf, 2), -1, dtype=np.int64)
    corner = np.full(nf, -1, dtype=np.int64)
    d = diag.tolist()
    for i in range(nsx):
        for j in range(nsy):
            rising = d[i][j] == 0
            # corners and rim sides of the west, then the east triangle
            tris = (
                ([(i, j), (i, j + 1), (i + 1, j + 1)] if rising
                 else [(i, j), (i + 1, j), (i, j + 1)],
                 i == 0 or (rising and j == nsy - 1) or (not rising and j == 0)),
                ([(i, j), (i + 1, j), (i + 1, j + 1)] if rising
                 else [(i + 1, j), (i + 1, j + 1), (i, j + 1)],
                 i == nsx - 1 or (rising and j == 0) or (not rising and j == nsy - 1)),
            )
            for east, (corners, rim) in enumerate(tris):
                f = faces[2 * (i * nsy + j) + east]
                has_rim[f] |= rim
                lo[f] = np.minimum(lo[f], (i, j))
                hi[f] = np.maximum(hi[f], (i, j))
                corner[f] = max([corner[f]] + [b * nx_ + a for a, b in corners])
    top = np.full(perc.nclusters, -1, dtype=np.int64)
    for (a, b), c in np.ndenumerate(labels):
        top[c] = max(top[c], b * nx_ + a)
    parent = np.full(perc.nclusters, UNKNOWN, dtype=np.int64)
    face_lo = np.zeros((perc.nclusters, 2), dtype=np.int64)
    face_hi = np.zeros((perc.nclusters, 2), dtype=np.int64)
    for c in np.nonzero(perc.closed)[0]:
        ti, tj = top[c] % nx_, top[c] // nx_
        f = faces[2 * (ti * nsy + tj)]
        assert not has_rim[f]
        parent[c] = labels[corner[f] % nx_, corner[f] // nx_]
        face_lo[c], face_hi[c] = lo[f], hi[f]
    return parent, face_lo, face_hi


def _check_against_networkx(perc):
    """Clusters against a networkx partition, and parents and face boxes
    against the face oracle."""
    window, diag = perc.window, perc.diag
    nx_, ny_ = window.extent
    nsx, nsy = diag.shape
    d = diag.tolist()
    # vertex (i, j) is i*ny + j; each square joins the ends of its diagonal
    edges = []
    for i in range(nsx):
        for j in range(nsy):
            if d[i][j] == 0:
                edges.append((i * ny_ + j, (i + 1) * ny_ + j + 1))
            else:
                edges.append(((i + 1) * ny_ + j, i * ny_ + j + 1))
    labels = _numbered_partition(nx_ * ny_, edges)
    assert np.array_equal(perc.labels.ravel(), labels)
    assert perc.nclusters == labels.max() + 1
    # bounding box of every cluster
    i, j = np.indices((nx_, ny_))
    for ax, rows in enumerate((i.ravel(), j.ravel())):
        least = np.full(perc.nclusters, max(nx_, ny_))
        most = np.full(perc.nclusters, -1)
        np.minimum.at(least, labels, rows)
        np.maximum.at(most, labels, rows)
        assert np.array_equal(perc.cluster_lo[:, ax], least)
        assert np.array_equal(perc.cluster_hi[:, ax], most)
    # a closed cluster's parent and face box follow from its labels alone;
    # an open cluster's parent stays unknown
    parent, face_lo, face_hi = _face_oracle(perc)
    assert np.array_equal(perc.parent, parent)
    closed = perc.closed
    assert np.array_equal(face_lo[closed], perc.cluster_lo[closed] - 1)
    assert np.array_equal(face_hi[closed], perc.cluster_hi[closed])
    return int(closed.sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diag_configs())
def test_cluster_and_face_partitions_match_networkx(config):
    _check_against_networkx(PercWindow(*config))


def test_seeded_window_parents_and_faces_match_networkx():
    perc = PercWindow.build(LabelField(31), Window((-100, 40), (257, 257)))
    assert _check_against_networkx(perc) > 5000


def test_parent_cycle_raises_instead_of_hanging():
    perc = PercWindow.build(LabelField(13), Window((0, 0), (129, 129)))
    a, b = np.nonzero(perc.special_known & ~perc.special)[0][:2]
    perc.parent[a], perc.parent[b] = b, a
    with pytest.raises(RuntimeError):
        perc._build_colors()


# -- per-vertex queries and radii --------------------------------------------


def test_window_schedule_does_not_change_answers(monkeypatch):
    f = LabelField(3)
    radii, resolved, colors, _ = coding_radii(f, Window((0, 0), (48, 48)), cap=256)
    picks = np.argwhere(resolved)[:5]
    assert len(picks) >= 1
    for i, j in picks:
        v = (int(i), int(j))
        got = set()
        for s in (4, 8, 16):
            monkeypatch.setattr(perc3color, "START_HALF", s)
            got.add(three_color_2d(v, f, radius_cap=1024))
        assert got == {colors[v]}


def _doubling_radius(need: int) -> int:
    """Twice the first half-width START_HALF * 2^j >= need, by integer doubling."""
    h = START_HALF
    while h < need:
        h *= 2
    return 2 * h


# every need up to 5000, then needs around the largest half-widths; uint64
# holds the uncapped radius 2^63 of the last one
NEEDS = list(range(5001)) + [2**60, 2**60 + 1, 2**61 - 1, 2**61, 2**61 + 1]
NEED_RADII = np.array([_doubling_radius(n) for n in NEEDS], dtype=np.uint64)


@pytest.mark.parametrize("caps", [range(1, 4097), range(2**62 - 2, 2**62 + 3)],
                         ids=["small", "near-2^62"])
def test_schedule_matches_integer_doubling(caps):
    needs = np.array(NEEDS, dtype=np.int64)
    for cap in caps:
        halves = [START_HALF << j for j in range(62) if 2 * (START_HALF << j) <= cap]
        assert half_widths(cap) == halves
        # a query reaching past the cap is censored, which reads 0
        expect = np.where(NEED_RADII <= np.uint64(cap), NEED_RADII, np.uint64(0))
        assert np.array_equal(scheduled_radius(needs, cap).astype(np.uint64), expect), cap


def test_tracked_query_radius_is_the_coding_radius():
    # 300 is no power of two: the last window within it has reach 256
    f, cap = LabelField(3), 300
    radii, resolved, colors, _ = coding_radii(f, Window((0, 0), (40, 40)), cap=cap)
    picks = np.argwhere(resolved)
    assert len(picks) >= 3 and not resolved.all()
    for i, j in picks[:8]:
        v = (int(i), int(j))
        te = tracked(lambda g: three_color_2d(v, g, radius_cap=cap), f, v)
        assert (te.value, te.radius) == (colors[v], radii[v]), v
    for i, j in np.argwhere(~resolved)[:2]:
        with pytest.raises(BudgetExceeded):
            three_color_2d((int(i), int(j)), f, radius_cap=cap)


def test_radius_cap_raises_budget_error():
    f = LabelField(3)
    with pytest.raises(BudgetExceeded) as err:
        three_color_2d((0, 0), f, radius_cap=8)
    assert err.value.kind == "radius"


def test_survival_tail_is_a_decreasing_power_law():
    radii = []
    resolved = []
    for seed in range(4):
        r, ok, _, _ = coding_radii(LabelField(100 + seed),
                                   Window((0, 0), (72, 72)), cap=256)
        radii.append(r.ravel())
        resolved.append(ok.ravel())
    radii = np.concatenate(radii)
    resolved = np.concatenate(resolved)
    n = len(radii)
    assert n >= 20_000
    rs = np.array([8, 16, 32, 64, 128])
    surv = np.array([((radii > r) | ~resolved).sum() / n for r in rs])
    assert (np.diff(surv) <= 0).all()
    assert surv[-1] < surv[0]
    slope = np.polyfit(np.log(rs), np.log(surv), 1)[0]
    assert -2.0 < slope < 0.0


def test_resolved_colors_match_between_survey_and_window():
    f = LabelField(29)
    win = Window((5, 9), (40, 40))
    radii, resolved, colors, _ = coding_radii(f, win, cap=256)
    wcolors, wvalid, _ = three2d_window(f, win, margin=130)
    both = resolved & wvalid
    assert both.sum() >= 1
    assert np.array_equal(colors[both], wcolors[both])


def test_three_color_2d_rejects_wrong_dimension():
    f = LabelField(3)
    with pytest.raises(ValueError):
        three_color_2d((1, 2, 3), f)


@pytest.mark.parametrize("extent", [(1, 5), (5, 1), (1, 1)])
def test_window_without_unit_squares_is_refused(extent):
    with pytest.raises(ValueError, match=rf"extent \({extent[0]}, {extent[1]}\)"):
        three2d_window(LabelField(0), Window((0, 0), extent), margin=0)


@pytest.mark.parametrize("window", [Window((0,), (9,)), Window((0, 0, 0), (9, 9, 9))])
def test_window_that_is_not_planar_is_refused(window):
    for run in (lambda: PercWindow.build(LabelField(0), window),
                lambda: three2d_window(LabelField(0), window, margin=2)):
        with pytest.raises(ValueError, match=f"planar window.*dimension {window.d}"):
            run()
