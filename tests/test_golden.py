"""Golden sha256 digests of the constructions' seeded output.

Every window engine and every demand engine is a pure function of the seed.
Any rewrite of their passes must keep every output bit, so the digests below
are pinned.  The tower, net and SFT digests were computed from the program as
it stood before the tower passes were vectorized (dependency-round greedy,
word-scan `reduce_min`, levels k >= 2 restricted to unresolved sites); the
four, baseline4, three2d and threegen window digests and the demand-engine
digests were computed before the lattice adjacency became a padded neighbor
matrix.  None has been recomputed since.  The percolation build's internal
arrays (cluster and face ids, parents, sign labels, chain distances, colors
and requirement boxes) were pinned before the build was vectorized.  The
tile forests, with their clumps and colors, were pinned before clumps and
window colors were read from the forest's paint grid.  The tower and net
demand engines at the levels that matter (2, 3 and the greedy fallback), with
every label each query read, were pinned before `TowerQuery` kept one
uniform and one neighbor list per site.

A digest covers each array's dtype, shape and bytes, in the order listed.  A
demand digest covers one (value, radius, access_count) row per query site,
each answered under `tracked` by a fresh engine.  A level digest adds the
tower level to each row, and hashes every stream's read points, sorted.
"""

import hashlib

import numpy as np
import pytest

from ffcolor.field import LabelField, tracked
from ffcolor.fourcolor import baseline_percolation_4color, baseline_window, \
    four_color_window
from ffcolor.lattice import FiniteGraph, LatticeSpec, Window, WindowGraph
from ffcolor.perc3color import PercWindow, coding_radii, three_color_2d
from ffcolor.reduction import NetQuery, TowerQuery, net_window, tower_color_at, \
    tower_coloring
from ffcolor.sft import coloring_spec, generate
from ffcolor.tiling3color import HEX_VERTICES, SCALE_BASE, TileForest, \
    threegen_window


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _window():
    return WindowGraph.build(Window((-56, -56), (112, 112)), 1, "l1")


def _irregular_graph() -> FiniteGraph:
    # 2000 vertices of degree 0..3, the last 40 isolated, from a fixed rng
    rs = np.random.default_rng(2024)
    n, iso, cap = 2000, 40, 3
    deg = np.zeros(n, dtype=np.int64)
    edges = set()
    for _ in range(4000):
        u, v = (int(x) for x in rs.integers(0, n - iso, size=2))
        e = (min(u, v), max(u, v))
        if u == v or deg[u] >= cap or deg[v] >= cap or e in edges:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
    return FiniteGraph.from_edges(n, sorted(edges))


TOWER_WINDOW = {
    0: "c10cc334e3b17d190398ee5d0756d1cc28dfeb0cf282f9a3d50426571066ac0a",
    1: "43685cca0c8a9a5126dcae66a0665fc1a3b6571583e29724e5f261ee2e5c3244",
}

NET_WINDOW = {
    0: "7e1941a22bd13ab5abef46fc0ef5d05b45c68eb7ea95943f1cbea7e285409725",
    1: "544b7cf37dc08fabe9cb777154cf8e7de40048dc5d24a11c0fdef6a3b1ca3942",
}

TOWER_GRAPH = "68f5ed989f7d3b01352adb43136f56416c02bd3d8f89e2eb4adfaca7e04e19cc"

SFT = "bacbe1cfa210d9c05b38009b27eeb7e61aa8dbdc9cbc9a01d619ef98852c7624"


@pytest.mark.parametrize("seed", sorted(TOWER_WINDOW))
def test_tower_window_digest(seed):
    tw = tower_coloring(_window(), LabelField(seed))
    assert _digest(tw.colors, tw.level, tw.tainted) == TOWER_WINDOW[seed]


@pytest.mark.parametrize("seed", sorted(NET_WINDOW))
def test_net_window_digest(seed):
    nw = net_window(_window(), LabelField(seed))
    assert _digest(nw.indicator, nw.tainted) == NET_WINDOW[seed]


def test_tower_bare_graph_digest():
    tw = tower_coloring(_irregular_graph(), LabelField(7))
    # levels 2 and 3 and the greedy fallback are all part of what is pinned
    assert tw.kmax == 3 and tw.fallback_count > 0
    assert _digest(tw.colors, tw.level, tw.tainted) == TOWER_GRAPH


def test_sft_generate_digest():
    run = generate(coloring_spec(3), LabelField(11), Window((-100,), (250,)))
    assert _digest(run.letters, run.net_points, run.reach) == SFT


FOUR_WINDOW = "2b6f94b0a606d2d12c5b858b5dad9ce0e107da37a61cac0ec70b9090801015ac"
BASELINE_WINDOW = "2de2c2b508e3b938c7f8fc3c61e879ea118d7d61e4fe727ee83d1501ccc99a62"
CODING_RADII = "156d09a704154ff76feac1dee7645e18969dc6dd097f6a43ed852b149e36089e"
THREEGEN_WINDOW = "e1921c4ebaef52bebeae09c36b3f5d6c8487ef84424bdc8eabd001649159e92c"


def test_four_color_window_digest():
    fc = four_color_window(LabelField(3), Window((-20, 7), (48, 40)))
    assert _digest(fc.colors, fc.valid, fc.signs) == FOUR_WINDOW


def test_baseline_window_digest():
    colors, valid = baseline_window(LabelField(3), Window((-30, 11), (64, 48)))
    assert _digest(colors, valid) == BASELINE_WINDOW


def test_coding_radii_digest():
    radii, resolved, colors, _ = coding_radii(LabelField(3), Window((5, -9), (16, 16)),
                                              cap=128)
    assert _digest(radii, resolved, colors) == CODING_RADII


PERC_BUILD = "8ebfe4a180557028dba2290e82175da200ebe5b50ba08cfcf47bcad25e2009d3"


def test_perc_build_internals_digest():
    perc = PercWindow.build(LabelField(9), Window((0, 0), (769, 769)))
    # chains three steps long to a special ancestor are part of what is pinned
    assert perc.dist.max() == 3
    assert _digest(perc.labels, perc.face, perc.parent, perc.ylabel, perc.special,
                   perc.dist, perc.color, perc.req_lo, perc.req_hi) == PERC_BUILD


def test_threegen_window_digest():
    colors, valid, _ = threegen_window(LabelField(3), Window((-40, 10), (96, 80)),
                                       maxlevel=2, density_scale=1 / 32, margin=32)
    assert _digest(colors, valid) == THREEGEN_WINDOW


def _spaced_centers(rng, d, j, hi, tries):
    # seeded candidates in [0, hi)^d, each kept if it clears the 4*13^j spacing
    sep = 4 * SCALE_BASE ** j
    pts = np.empty((0, d), dtype=np.int64)
    for p in rng.integers(0, hi, size=(tries, d)):
        if len(pts) == 0 or np.abs(pts - p).sum(axis=1).min() > sep:
            pts = np.vstack([pts, p])
    return pts


# (d, region side, candidate draws per level): dense level-1 balls, so most
# higher tiles absorb several clumps, and a few also merge a clump that only
# the tile's 1-neighborhood brings within distance 2
FORESTS = [(1, 20000, (4000, 200, 20)), (2, 1600, (4000, 100))]
TILE_FORESTS = "40f1a5ec2b0afc766b26b6fcd98e09c192c1b2e820cadd1e5f9cd8f1555a2061"


def test_tile_forest_digest():
    arrays, merged = [], 0
    for d, side, tries in FORESTS:
        rng = np.random.default_rng(0)
        by_level = {j: _spaced_centers(rng, d, j, side, n)
                    for j, n in enumerate(tries, start=1)}
        forest = TileForest(d, (0,) * d, (side,) * d, by_level,
                            coin_fn=lambda c: 1 if sum(c) % 3 == 0 else -1,
                            h_fn=lambda c: HEX_VERTICES[sum(c) % 6])
        for t in forest.tiles:
            parent = -1 if t.parent is None else t.parent
            arrays += [np.array([t.level, parent], dtype=np.int64),
                       np.array(t.center, dtype=np.int64), t.lo, t.mask,
                       np.array(t.children, dtype=np.int64),
                       np.array(sorted(t.clump_members), dtype=np.int64)]
            merged += len(t.clump_members) > 1
        forest.assign_colorings(root_closure=True)
        # a window reaching past the paint grid on every side
        arrays += forest.colors_grid(Window((-400,) * d, (side + 800,) * d))
    assert merged >= 10
    assert _digest(*arrays) == TILE_FORESTS


SITES = [(0, 0), (17, -5), (-123456, 98765), (999_999, -3)]
# sites the three2d engine resolves within radius 256 at seed 3 (taken from
# coding_radii over the 40x40 window at the origin)
THREE2D_SITES = [(0, 3), (32, 10), (38, 8)]
_PLANE = LatticeSpec(2, 1, "l1")

DEMAND = {
    "tower": ("67390bf96ff921a0082bed8fce99cdb8857b5021c79b6ac024950806759f0fe9",
              5, SITES, lambda f, v: tower_color_at(f, v, _PLANE)[0]),
    "net": ("c738de4000eb70f55593186b3d525a2809ccfbd7c3b8e262403a2fe65539b803",
            5, SITES, lambda f, v: NetQuery(f, _PLANE).indicator(v)),
    "baseline4": ("c61eb8d925997fdbc3f1de30a5a15103d936b0f04bfe12abc2f4799642710de4",
                  5, SITES, lambda f, v: baseline_percolation_4color(v, f)),
    "three2d": ("83b45a5bd67bc4283fe026000e0ba86a1f2c9239e2b68bd7d1e6a675f5e47d62",
                3, THREE2D_SITES,
                lambda f, v: three_color_2d(v, f, radius_cap=256)[0]),
}


@pytest.mark.parametrize("name", sorted(DEMAND))
def test_demand_digest(name):
    want, seed, sites, query = DEMAND[name]
    rows = []
    for v in sites:
        ev = tracked(lambda f: query(f, v), LabelField(seed), v)
        rows.append((int(ev.value), ev.radius, ev.access_count))
    assert _digest(np.array(rows, dtype=np.int64)) == want


# the line at seed 18 reaches levels 2 and 3 and the greedy fallback (see
# tests/test_reduction.py); the planar sites are untainted sites of an 80²
# window at the origin, seed 5, that levels 0, 2 and 3 decide under the
# tower's stream prefix (24 sites) or the net's (16 sites)
_LINE = LatticeSpec(1, 1, "l1")
LINE_SITES = [(x,) for x in range(-150, 150)]
PLANE_SITES = [
    (-35, 8), (-35, 12), (-35, 13), (-34, -26), (-34, -25), (-34, 4), (-34, 8),
    (-33, 4), (-32, 31), (-32, 32), (-31, -8), (-30, -8), (-30, 16), (-30, 17),
    (-28, -29), (-27, -29), (-27, -1), (-27, 0), (-27, 14), (-27, 15),
    (-25, -32), (-24, -32), (-23, -23), (-23, -22), (-21, 13), (-20, -22),
    (-20, 13), (-19, -22), (-18, 30), (-15, -1), (-15, 0), (-15, 16), (-15, 17),
    (-6, 14), (-5, 14), (-4, 14), (-3, 14), (3, 20), (3, 21), (29, -31)]


def _tower_levels(spec):
    return lambda f, v: TowerQuery(f, spec).color(v)


def _net_levels(spec):
    def query(f, v):
        q = NetQuery(f, spec)
        one = q.indicator(v)
        return one, q.tower.color(v)[1]  # memoized: reads no further label
    return query


DEMAND_LEVELS = {
    "tower-line": ("7b869e9a6f888088f6abe95d4ce113395f41ac7014d5299ae2423ba9386de407",
                   18, LINE_SITES, _tower_levels(_LINE)),
    "net-line": ("e4ed42474c343e2050d1307e33b654b169c6537a7a381917043738d209b8b322",
                 18, LINE_SITES, _net_levels(_LINE)),
    "tower-plane": ("de91cb4fd803efdad5ee14c826f7c15d1eb501730427a506591cda779eefe3b4",
                    5, PLANE_SITES, _tower_levels(_PLANE)),
    "net-plane": ("345297511dda82a7e634201457283168a40b70bf7ba9f371b29869d9eb1a8806",
                  5, PLANE_SITES, _net_levels(_PLANE)),
}


def _points_digest(tracker) -> np.ndarray:
    h = hashlib.sha256()
    for stream in sorted(tracker.points):
        h.update(f"{stream}:{sorted(tracker.points[stream])}".encode())
    return np.frombuffer(h.digest(), dtype=np.uint8)


@pytest.mark.parametrize("name", sorted(DEMAND_LEVELS))
def test_demand_level_digest(name):
    want, seed, sites, query = DEMAND_LEVELS[name]
    rows, points = [], []
    for v in sites:
        ev = tracked(lambda f: query(f, v), LabelField(seed), v)
        value, level = ev.value
        rows.append((int(value), level, ev.radius, ev.access_count))
        points.append(_points_digest(ev.tracker))
    levels = {r[1] for r in rows}
    assert {0, 2, 3} <= levels
    assert _digest(np.array(rows, dtype=np.int64), np.array(points)) == want
