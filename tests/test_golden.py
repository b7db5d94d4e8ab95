"""Golden sha256 digests of the constructions' seeded output.

Every window engine and every demand engine is a pure function of the seed.
Any rewrite of their passes must keep every output bit, so the digests below
are pinned.  The tower, net and SFT digests were computed from the program as
it stood before the tower passes were vectorized (dependency-round greedy,
word-scan `reduce_min`, levels k >= 2 restricted to unresolved sites); the
four, baseline4, three2d and threegen window digests and the demand-engine
digests were computed before the lattice adjacency became a padded neighbor
matrix.  None has been recomputed since.  The percolation build's internal
arrays (cluster ids, parents, sign labels, chain distances, colors and
requirement boxes) were pinned before the build was vectorized; that digest
once held the face ids too, and was re-pinned without them, from the program
that still built the face graph, before the face graph was deleted.  The
tile forests, with their clumps and colors, were pinned before clumps and
window colors were read from the forest's paint grid.  The tower and net
demand engines at the levels that matter (2, 3 and the greedy fallback), with
every label each query read, were pinned before `TowerQuery` kept one
uniform and one neighbor list per site.  The audit reports of
`check_heights` and `audit_sign_clusters` were pinned before rectangles were
judged from running sums and cluster spans from one scatter pass.  The
tile centers, with every Bernoulli candidate their scans found, and the
tracked reads of threegen queries were pinned while each scan still hashed
its whole box, in chunks of at most 2^22 labels.  The box pipeline's kept
centers (ensure fills included), net colors and radii, and the reports of
`audit_faces`, were pinned while the thinning kept color class 1 of a full
greedy coloring and face pairs were judged by one broadcast per row block.
The SFT runs (gaps included, with their count of net windows and one
tracked run) were pinned while `generate` spliced one gap at a time.  The
tile forest audits, of seeded forests and of hand-broken copies that raise
every violation kind, were pinned while each check walked every tile's mask
box.

A digest covers each array's dtype, shape and bytes, in the order listed.  A
demand digest covers one (value, radius, access_count) row per query site,
each answered under `tracked` by a fresh engine; the threegen rows also hash
every stream's read boxes, sorted.  A level digest adds the tower level to
each row, and hashes every stream's read points, sorted.
An audit digest covers the repr of each report's verdict, violation list and
stats, so the types of the entries are pinned too.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from ffcolor.field import BudgetExceeded, LabelField, tracked
from ffcolor.fourcolor import CONTEXT_SCALE, BoxSystem, assign_radii, audit_faces, \
    audit_sign_clusters, baseline_percolation_4color, baseline_window, choose_M, \
    fixture_net, four_color_window, net_coloring
from ffcolor.lattice import FiniteGraph, LatticeSpec, Window, WindowGraph, ball_mask
from ffcolor.perc3color import PercWindow, coding_radii, three2d_window, \
    three_color_2d
from ffcolor.reduction import MNet, NetQuery, TowerQuery, net_window, tower_color_at, \
    tower_coloring
from ffcolor.sft import coloring_spec, generate
from ffcolor.tiling3color import HEX_INDEX, HEX_VERTICES, SCALE_BASE, TileForest, \
    _bernoulli_points, center_density, centers, three_color_general, threegen_window
from ffcolor.verify import VIOLATION_CAP, check_heights
from test_fourcolor import TiedLabels
from test_sft import ONE_LETTER, PETAL


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


# name: (digest, spec, seed, window (origin, extent), MNet.window calls); the
# coloring windows at -100 start on a net point (the extent-1 one also ends on
# one), and a tainted pad is doubled once in c3-pad and one-letter, twice in
# petal
SFT_RUNS = {
    "c3-1": ("1be7eb21742ba4ac28146f4e4b49870df40dc8b29fbc81cecf0c9e6644567ae4",
        coloring_spec(3), 11, (-100, 1), 1),
    "c3-2": ("a9f08c706ccf3f86d9a2527819a21070ad953b4915bf347d3682233da91252df",
        coloring_spec(3), 11, (-100, 2), 1),
    "c3-125": ("a63dcb8165dfe3e4fb4d30f9d0b753747b0812108af00ebf286be820bf31830b",
        coloring_spec(3), 11, (-100, 125), 1),
    "c3-250": ("2d3314dd7a6e09c4c25b685a5fc9161a41becdca433df67345e80f7a30cf6a75",
        coloring_spec(3), 11, (-100, 250), 1),
    "c3-pad": ("691962bf129bf64e03c20e06fbf3654a95658f9cabdbbfbf24e2739b4ad46e81",
        coloring_spec(3), 11, (-88, 125), 2),
    "petal": ("28cc37eb74236c0420457bc533a8bcf5e01a625a0e2cc1f59009f636d9deb359",
        PETAL, 4, (-50, 250), 3),
    "one-letter": ("1cc193fd312b03b33668666ef939cec152e2b03419f05edc2359d76a6e02513e",
        ONE_LETTER, 5, (0, 250), 2),
}
# (radius, access_count) of the c3-pad run under `tracked`, centered at -26
SFT_TRACKED = (78, 1388)


@pytest.fixture
def mnet_calls(monkeypatch):
    calls = []
    real = MNet.window

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(MNet, "window", counted)
    return calls


@pytest.mark.parametrize("name", sorted(SFT_RUNS))
def test_sft_run_digest(name, mnet_calls):
    want, spec, seed, (origin, extent), n_calls = SFT_RUNS[name]
    run = generate(spec, LabelField(seed), Window((origin,), (extent,)))
    assert len(mnet_calls) == n_calls
    assert _digest(run.letters, run.net_points, run.gaps, run.reach) == want


def test_sft_tracked_run():
    win = Window((-88,), (125,))
    ev = tracked(lambda f: generate(coloring_spec(3), f, win), LabelField(11), (-26,))
    assert (ev.radius, ev.access_count) == SFT_TRACKED
    plain = generate(coloring_spec(3), LabelField(11), win)
    assert np.array_equal(ev.value.letters, plain.letters)


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


PERC_BUILD = "fc237b47c11321ad9d49c78045421acf26941936561f1307d040f0b02c900a64"


def test_perc_build_internals_digest():
    perc = PercWindow.build(LabelField(9), Window((0, 0), (769, 769)))
    # chains three steps long to a special ancestor are part of what is pinned
    assert perc.dist.max() == 3
    assert _digest(perc.labels, perc.parent, perc.ylabel, perc.special,
                   perc.dist, perc.color, perc.req_lo, perc.req_hi) == PERC_BUILD


# the net region four_color_window builds around a window, with its ensure box
def _four_region(window, M):
    zwin = window.grow(2)
    zlo = np.asarray(zwin.origin, dtype=np.int64)
    zhi = zlo + np.asarray(zwin.extent, dtype=np.int64)
    margin = CONTEXT_SCALE * M + 6
    return zlo - margin, zhi + margin, (zlo, zhi)


def _small_region(d, M):
    # ten (d = 2) or six (d = 3) M-cells a side; the ensure box leaves two
    # cells of context on each side, and at these scales fills occur
    lo = np.array([-3 * M, -2 * M, M][:d], dtype=np.int64)
    hi = lo + (10 if d == 2 else 6) * M
    return lo, hi, (lo + 2 * M, hi - 2 * M)


def tied_priorities(seed):
    # candidate priorities and net order labels cut to their top 3 bits
    return TiedLabels(seed, [":prio", ":order"])


# (field, M, (lo, hi, ensure)): the regions of three 2-D four windows and one
# 3-D one at the real scale, and small scales where ensure fills occur
_M2, _M3 = choose_M(2)[0], choose_M(3)[0]
BOX_CASES = [
    (LabelField(3), _M2, _four_region(Window((-20, 7), (48, 40)), _M2)),
    (LabelField(8), _M2, _four_region(Window((5, 5), (40, 56)), _M2)),
    (LabelField(1), _M3, _four_region(Window((0, 0, 0), (4, 4, 4)), _M3)),
    (LabelField(0), 200, _small_region(2, 200)),
    (LabelField(5), 200, _small_region(2, 200)),
    (LabelField(0), 400, _small_region(3, 400)),
    (LabelField(4), 400, _small_region(3, 400)),
    (tied_priorities(2), _M2, _four_region(Window((100, -50), (32, 32)), _M2)),
    (tied_priorities(3), 200, _small_region(2, 200)),
]
BOX_PIPELINE = "f0b2b1efb37161553789940a54d64e99ac58de2395841ca6f467b800a4205854"


@lru_cache(maxsize=1)
def _box_systems():
    # (boxes, net colors, kept count before fills) per case, built once
    out = []
    for fld, M, (lo, hi, ensure) in BOX_CASES:
        centers = fixture_net(fld, lo, hi, M, ensure=ensure)
        colors = net_coloring(centers, 4 * M + 3, fld)
        out.append((BoxSystem(centers, assign_radii(centers, colors, M), M), colors,
                    len(fixture_net(fld, lo, hi, M))))
    return out


def test_box_pipeline_digest():
    arrays, fills = [], 0
    for boxes, colors, unfilled in _box_systems():
        arrays += [boxes.centers, colors, boxes.radii]
        fills += len(boxes) - unfilled
    assert fills >= 10
    assert _digest(*arrays) == BOX_PIPELINE


def test_threegen_window_digest():
    colors, valid, _ = threegen_window(LabelField(3), Window((-40, 10), (96, 80)),
                                       maxlevel=2, density_scale=1 / 32, margin=32)
    assert _digest(colors, valid) == THREEGEN_WINDOW


# (seed, level, lo, hi, density_scale): levels 1-3 at d = 1, levels 1 and 2
# at d = 2, level 1 at d = 3; the d = 2 level-2 scan and the d = 3 scan hash
# more than 2^22 labels each, and two boxes lie near +-2^62.  At scale 13
# the d = 1 level-1 density is 1: every site is a candidate, and none survives.
_FAR = 2**62
CENTER_CASES = [
    (4, 1, (0,), (20000,), 1 / 8),
    (4, 2, (-5000,), (60000,), 1 / 8),
    (4, 3, (-100000,), (300000,), 1 / 8),
    (6, 1, (_FAR - 5000,), (_FAR + 5000,), 1 / 8),
    (6, 1, (-40,), (-10,), 13.0),
    (7, 1, (-300, -200), (300, 400), 1 / 32),
    (14, 2, (-400, -400), (400, 400), 1 / 32),
    (8, 1, (_FAR - 300, -_FAR), (_FAR + 300, -_FAR + 500), 1 / 32),
    (14, 1, (0, 0, 0), (60, 60, 60), 1 / 64),
]
CENTERS = "2e02225a7c7f448d44d6d19bcf397a23ca599dc75ab27acf1320be8394a993f2"


def test_centers_digest():
    arrays, found = [], 0
    for seed, j, lo, hi, scale in CENTER_CASES:
        f = LabelField(seed)
        lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
        pad = 4 * SCALE_BASE ** j
        got = centers(f, j, lo, hi, density_scale=scale)
        arrays += [got, _bernoulli_points(f, f"tiling:w:{j}", lo - pad, hi + pad,
                                          center_density(lo.size, j, scale))]
        found += len(got)
    assert found >= 20
    assert _digest(*arrays) == CENTERS


def _spaced_centers(rng, d, j, hi, tries):
    # seeded candidates in [0, hi)^d, each kept if it clears the 4*13^j spacing
    sep = 4 * SCALE_BASE ** j
    pts = np.empty((0, d), dtype=np.int64)
    for p in rng.integers(0, hi, size=(tries, d)):
        if len(pts) == 0 or np.abs(pts - p).sum(axis=1).min() > sep:
            pts = np.vstack([pts, p])
    return pts


class SiteLabels:
    """The two tile streams a `TileForest` reads, as rules of the tile's
    center: `coin(c)` gives the tile's coin and `h(c)` its checkerboard pair,
    and a constant stands for the rule that always gives it."""

    def __init__(self, coin=-1, h=HEX_VERTICES[0]):
        self._coin = coin if callable(coin) else lambda c: coin
        self._h = h if callable(h) else lambda c: h

    def coin(self, stream, c):
        assert stream == "tiling:coin"
        return self._coin(tuple(c))

    def discrete(self, stream, c, n):
        assert stream == "tiling:h" and n == len(HEX_VERTICES)
        return HEX_INDEX[self._h(tuple(c))] + 1


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
        forest = TileForest((0,) * d, (side,) * d, by_level, SiteLabels(
            lambda c: 1 if sum(c) % 3 == 0 else -1, lambda c: HEX_VERTICES[sum(c) % 6]))
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


def _seeded_forests():
    # the dense d = 1 and d = 2 forests above, and field-driven ones at d = 2, 3
    forests = []
    for d, side, tries in FORESTS:
        rng = np.random.default_rng(0)
        forests.append(TileForest((0,) * d, (side,) * d, {
            j: _spaced_centers(rng, d, j, side, n) for j, n in enumerate(tries, start=1)},
            SiteLabels()))
    forests.append(threegen_window(LabelField(3), Window((0, 0), (320, 320)), maxlevel=2,
                                   density_scale=1 / 32, margin=64)[2])
    forests.append(threegen_window(LabelField(20), Window((0, 0, 0), (96, 96, 96)),
                                   maxlevel=1, density_scale=1 / 64, margin=13)[2])
    return forests


# A hand-placed plane forest: one level-2 tile over the level-1 tiles 2..5,
# three lone level-1 tiles (0, 1 and 6), and free space around (560, 60).
_HAND_CENTERS = {1: [(100, 100), (100, 170), (230, 230), (300, 300), (300, 380),
                     (370, 300), (480, 480)], 2: [(300, 300)]}


def _hand_forest():
    return TileForest((0, 0), (600, 600), _HAND_CENTERS, SiteLabels())


def _shifted_tile(f, tid=0, by=5):
    # a level-1 ball beside tile `tid`, moved `by` along the first axis, painted
    # last: the grid credits the cells it shares with earlier tiles to them
    c = np.array(f.tiles[tid].center)
    c[0] += by
    f._new_tile(1, c, c - 13, ball_mask(f.d, 13))


def _broken_hand_forests():
    def new_tile(center, lo, mask):
        def brk(f):
            f._new_tile(1, np.array(center), np.array(lo), mask)
        return brk

    def set_attr(tid, name, value):
        return lambda f: setattr(f.tiles[tid], name, value)

    def add_center(j, c):
        def brk(f):
            f.levels[j] = np.vstack([f.levels[j], np.array([c], dtype=np.int64)])
        return brk

    cases = [
        [lambda f: _shifted_tile(f)],                               # tile-overlap
        [new_tile((100, 172), (97, 169), ball_mask(2, 3))],         # wholly overpainted
        [new_tile((560, 60), (560, 60), np.zeros((1, 1), bool))],   # empty-tile
        [new_tile((560, 60), (560, 60), np.ones((1, 25), bool))],   # tile-outside-ball
        [set_attr(0, "parent", 1)],                                 # parent-level
        [set_attr(6, "clump_members", (6, 0))],                     # clump-diameter
        [set_attr(0, "clump_members", (0, 1))],
        [set_attr(6, "clump_members", ())],                         # empty-clump
        [set_attr(6, "clump_members", (6, 8)),                      # an empty member
         new_tile((560, 60), (560, 60), np.zeros((1, 1), bool))],
        [add_center(1, (560, 300))],                                # uncovered-ball-vertex
        [new_tile((480, 507), (467, 494), ball_mask(2, 13))],       # adjacent-nonkin
        [set_attr(2, "parent", None)],                              # descendant-gap
        # over the cap: an uncovered level-2 ball, then kinds that are only counted
        [add_center(2, (560, 560)), set_attr(2, "parent", None),
         lambda f: _shifted_tile(f, 6, 20)],
    ]
    forests = []
    for steps in cases:
        f = _hand_forest()
        for step in steps:
            step(f)
        forests.append(f)
    return forests


FOREST_AUDITS = "9d1a779da7498e56bb42684d69662014b73447a3ffe49bcc325fe1aae99d964e"


def test_forest_audit_digest():
    seeded = _seeded_forests()
    reports = [f.audit() for f in seeded]
    assert all(rep.passed for rep in reports)
    hand = _hand_forest()
    assert [t.parent for t in hand.tiles] == [None, None, 7, 7, 7, 7, None, None]
    reports.append(hand.audit())
    assert reports[-1].passed
    broken = []
    for f in (seeded[0], seeded[3], hand):
        _shifted_tile(f)
        broken.append(f.audit())
    broken += [f.audit() for f in _broken_hand_forests()]
    assert not any(rep.passed for rep in broken)
    kinds = {k for rep in broken for k, _ in rep.violations}
    assert kinds == {"tile-overlap", "empty-tile", "tile-outside-ball", "parent-level",
                     "clump-diameter", "clump-outside-ball", "empty-clump",
                     "uncovered-ball-vertex", "adjacent-nonkin", "descendant-gap"}
    assert broken[-1].stats["violations_total"] > VIOLATION_CAP
    assert _report_digest(*reports, *broken) == FOREST_AUDITS


SITES = [(0, 0), (17, -5), (-123456, 98765), (999_999, -3)]
# sites the three2d engine resolves within radius 256 at seed 3 (taken from
# coding_radii over the 40x40 window at the origin)
THREE2D_SITES = [(0, 3), (32, 10), (38, 8)]
_PLANE = LatticeSpec(2, 1, "l1")


def _threegen_query(f, v):
    # no site resolves below six tile levels, so each query reads stages 1
    # and 2 and is censored at stage 3: -3 stands for that censoring
    try:
        return three_color_general(v, 2, f, density_scale=1 / 8, radius_cap=2048)
    except BudgetExceeded as e:
        return -int(e.stream.rsplit(":", 1)[1])


DEMAND = {
    "tower": ("67390bf96ff921a0082bed8fce99cdb8857b5021c79b6ac024950806759f0fe9",
              5, SITES, lambda f, v: tower_color_at(f, v, _PLANE)[0]),
    "net": ("c738de4000eb70f55593186b3d525a2809ccfbd7c3b8e262403a2fe65539b803",
            5, SITES, lambda f, v: NetQuery(f, _PLANE).indicator(v)),
    "baseline4": ("c61eb8d925997fdbc3f1de30a5a15103d936b0f04bfe12abc2f4799642710de4",
                  5, SITES, lambda f, v: baseline_percolation_4color(v, f)),
    "three2d": ("83b45a5bd67bc4283fe026000e0ba86a1f2c9239e2b68bd7d1e6a675f5e47d62",
                3, THREE2D_SITES,
                lambda f, v: three_color_2d(v, f, radius_cap=256)),
    "threegen": ("3b422874502e52fd5b5c98fcafc6cde8fa55f1b0b04152747d077c6ea4ee6e22",
                 5, SITES + [(_FAR - 7, 3 - _FAR)], _threegen_query),
}


def _sorted_digest(by_stream: dict) -> np.ndarray:
    h = hashlib.sha256()
    for stream in sorted(by_stream):
        h.update(f"{stream}:{sorted(by_stream[stream])}".encode())
    return np.frombuffer(h.digest(), dtype=np.uint8)


@pytest.mark.parametrize("name", sorted(DEMAND))
def test_demand_digest(name):
    want, seed, sites, query = DEMAND[name]
    rows, boxes = [], []
    for v in sites:
        ev = tracked(lambda f: query(f, v), LabelField(seed), v)
        rows.append((int(ev.value), ev.radius, ev.access_count))
        boxes.append(_sorted_digest(ev.tracker.boxes))
    arrays = [np.array(rows, dtype=np.int64)]
    if name == "threegen":
        arrays.append(np.array(boxes))
    assert _digest(*arrays) == want


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


@pytest.mark.parametrize("name", sorted(DEMAND_LEVELS))
def test_demand_level_digest(name):
    want, seed, sites, query = DEMAND_LEVELS[name]
    rows, points = [], []
    for v in sites:
        ev = tracked(lambda f: query(f, v), LabelField(seed), v)
        value, level = ev.value
        rows.append((int(value), level, ev.radius, ev.access_count))
        points.append(_sorted_digest(ev.tracker.points))
    levels = {r[1] for r in rows}
    assert {0, 2, 3} <= levels
    assert _digest(np.array(rows, dtype=np.int64), np.array(points)) == want


def _report_digest(*reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.passed, rep.violations, rep.stats)).encode())
    return h.hexdigest()


def _mutated(colors, valid, step):
    # every step-th valid cell takes the next color: improper edges, and
    # rings whose steps no longer cancel
    out = colors.copy()
    at = np.flatnonzero(valid)[::step]
    out.flat[at] = out.flat[at] % 3 + 1
    return out


# a ring of eight cells around an unresolved center whose height steps sum to
# 6; tiled, its rings make rectangles with proper boundaries and nonzero
# circulation
VORTEX = np.array([[1, 2, 1], [2, 0, 3], [3, 1, 2]])


def _periodic(nx, ny):
    return (np.add.outer(np.arange(nx), 2 * np.arange(ny)) % 3) + 1


def _height_reports(colors, valid):
    return [check_heights(colors, valid, rectangles=r, rng_seed=s)
            for r, s in ((0, 0), (7, 1), (100, 0))]


def _three2d_heights():
    reports = []
    for seed in (1, 5):
        colors, valid, _ = three2d_window(LabelField(seed), Window((-10, 3), (96, 96)),
                                          margin=64)
        reports += _height_reports(colors, valid)
        reports += _height_reports(_mutated(colors, valid, 5), valid)
        reports += _height_reports(colors, None)
    return reports


def _threegen_heights():
    colors, valid, _ = threegen_window(LabelField(3), Window((-40, 10), (96, 80)),
                                       maxlevel=2, density_scale=1 / 32, margin=32)
    return (_height_reports(colors, valid) + _height_reports(colors, None)
            + _height_reports(_mutated(colors, valid, 7), valid))


def _synthetic_heights():
    holes = _periodic(40, 30)
    holes[5:9, 11] = 0
    holes[20, 3:25:4] = 0
    improper = _periodic(17, 23)
    improper[8, 8] = improper[8, 9]
    sparse = np.random.default_rng(3).random((25, 25)) < 0.9
    reports = []
    for colors, valid in ((_periodic(40, 30), None), (holes, None),
                          (improper, None), (_periodic(25, 25), sparse),
                          (np.tile(VORTEX, (5, 4)), None), (VORTEX, None),
                          (_periodic(1, 9), None), (_periodic(9, 2), None)):
        reports += _height_reports(colors, valid)
    return reports


def _over_cap_heights():
    # a constant grid: every unit square has four improper edges
    rep = check_heights(np.full((120, 100), 2))
    assert rep.stats["violations_total"] > VIOLATION_CAP
    return [rep]


def _sign_reports(signs):
    return [audit_sign_clusters(signs, bound=b) for b in (0, 1, 2)]


def _four_signs():
    reports = []
    for seed, window in ((3, Window((-20, 7), (48, 40))), (8, Window((5, 5), (40, 56)))):
        signs = four_color_window(LabelField(seed), window).signs
        reports += _sign_reports(signs)
        grown = signs.copy()
        grown[10:13, 4:9] = 1  # one plus cluster at least 3 by 5
        grown[30, :] = -1      # one minus row across the grid
        reports += _sign_reports(grown)
    return reports


def _random_signs():
    rng = np.random.default_rng(12)
    reports = []
    for shape in ((60,), (30, 41), (9, 8, 7)):
        signs = np.where(rng.random(shape) < 0.5, 1, -1).astype(np.int8)
        signs[rng.random(shape) < 0.1] = 0
        reports += _sign_reports(signs)
    return reports


def _over_cap_signs():
    # vertical trominoes: 180 * 60 clusters, each spanning 2 rows
    x, y = np.indices((180, 180))
    rep = audit_sign_clusters(np.where((x + y // 3) % 2 == 0, 1, -1))
    assert rep.stats["violations_total"] > VIOLATION_CAP
    return [rep]


def _clean_faces():
    reports = [audit_faces(boxes) for boxes, _, _ in _box_systems()]
    assert all(rep.passed for rep in reports)
    return reports


def _mutated_faces():
    # radii moved by -3..3 and centers by -1..1: close faces, both kinds
    rng = np.random.default_rng(6)
    reports = []
    for boxes, _, _ in _box_systems():
        n, d = boxes.centers.shape
        reports.append(audit_faces(BoxSystem(
            boxes.centers, boxes.radii + rng.integers(-3, 4, n), boxes.M)))
        reports.append(audit_faces(BoxSystem(
            boxes.centers + rng.integers(-1, 2, (n, d)), boxes.radii, boxes.M)))
    assert sum(not rep.passed for rep in reports) >= 10
    return reports


def _over_cap_faces():
    # 160 boxes in a row, 3 apart, with equal radii: all their faces across
    # the row lie on two lines, so nearly every pair of them is too close
    reports = []
    for d in (2, 3):
        centers = np.zeros((160, d), dtype=np.int64)
        centers[:, 0] = 3 * np.arange(160)
        rep = audit_faces(BoxSystem(centers, np.full(160, 50), 50))
        assert rep.stats["violations_total"] > VIOLATION_CAP
        reports.append(rep)
    return reports


AUDIT_REPORTS = {
    "faces-clean": ("6a092a87888dbf6059202ad446d80853a4f8932de944959094ba11d6e684d7df",
                     _clean_faces),
    "faces-mutated": ("7e0e8874eb4dbccddabb1796d2a0ed4d982a21045bc0d2aef2bc4022a44a8f37",
                       _mutated_faces),
    "faces-over-cap": ("7e70e819d6761aaa4a5f424499fe09353c67787ece2cf06235b3ac427c112544",
                        _over_cap_faces),
    "heights-three2d": ("198a01af3e0b5715f9ecfed27fd84fc62a262133ccc7df1f29419e7a0a8e4678",
                        _three2d_heights),
    "heights-threegen": ("8bc2ebbe5d5c4a5f40db17595fff4fb9fe73f3eef0c60b8b342fe69d2d5fee00",
                         _threegen_heights),
    "heights-synthetic": ("9229e019bde5a0e55fea14d23b939d795e35947d04bbebfcd22f10ca887bd35c",
                          _synthetic_heights),
    "heights-over-cap": ("6d6da7027df4af3b506d1a2f77a4c13b89ae28210fa540786e51b484baf33370",
                         _over_cap_heights),
    "signs-four": ("69543bc56a568d313d9e095fc1b924569ae63086581d691747325868c6e0f49c",
                   _four_signs),
    "signs-random": ("4ea87816263a6cd1e7116db97a977e60500e552512024e0e8eaefc4e9039913d",
                     _random_signs),
    "signs-over-cap": ("d0b640203014e90ea3f25dfe895e74bbdabcea1e46c3d2b1a401b8a59a76a4c1",
                       _over_cap_signs),
}


@pytest.mark.parametrize("name", sorted(AUDIT_REPORTS))
def test_audit_report_digest(name):
    want, build = AUDIT_REPORTS[name]
    assert _report_digest(*build()) == want
