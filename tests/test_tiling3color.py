"""Tests for the multiscale-tiling 3-coloring of Z^d."""

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.ndimage import binary_dilation, generate_binary_structure

from ffcolor import tiling3color
from ffcolor.field import (Budget, BudgetExceeded, LabelField, PerturbedField,
                           Tracker, TrackedField)
from ffcolor.lattice import Window, ball_mask
from ffcolor.tiling3color import (HEX_INDEX, HEX_VERTICES, SCALE_BASE, TileForest,
                                  _bernoulli_points, canonical_path,
                                  center_density, center_pad, centers, phase_color,
                                  scan_half, three_color_general, threegen_window,
                                  translate_phase)
from ffcolor.verify import AuditReport, check_coloring
from test_golden import FORESTS, SiteLabels, _spaced_centers


# -- scales and the hexagon ---------------------------------------------------

def test_scale_ladder():
    assert [SCALE_BASE ** j for j in (1, 2, 3)] == [13, 169, 2197]
    assert [center_pad(j) for j in (1, 2, 3)] == [52, 676, 8788]
    assert center_density(2, 1) == pytest.approx(13.0 ** -2)
    assert center_density(3, 2, 0.5) == pytest.approx(0.5 * 13.0 ** -6)


def _hex_distance(a, b):
    return len(canonical_path(a, b)) - 1


def _hex_adjacent(a, b):
    """Edge test, counting the self-loop at every vertex."""
    return _hex_distance(a, b) <= 1


def _reference_paths():
    """The 36-entry path table the hexagon graph was once precomputed as."""
    paths = {}
    n = len(HEX_VERTICES)
    for i, a in enumerate(HEX_VERTICES):
        for k, b in enumerate(HEX_VERTICES):
            delta = (k - i) % n
            if delta <= 2:
                steps = [(i + t) % n for t in range(delta + 1)]
            elif delta >= 4:
                steps = [(i - t) % n for t in range(n - delta + 1)]
            else:
                fwd = [(i + t) % n for t in range(4)]
                bwd = [(i - t) % n for t in range(4)]
                steps = fwd if HEX_VERTICES[fwd[1]] < HEX_VERTICES[bwd[1]] else bwd
            paths[(a, b)] = tuple(HEX_VERTICES[s] for s in steps)
    return paths


def test_canonical_path_matches_the_reference_table():
    table = _reference_paths()
    assert len(table) == 36
    for (a, b), path in table.items():
        assert canonical_path(a, b) == path


def test_hexagon_vertices_and_loops():
    assert len(HEX_VERTICES) == 6
    assert all(a != b for a, b in HEX_VERTICES)
    assert [HEX_INDEX[q] for q in HEX_VERTICES] == list(range(6))
    for q in HEX_VERTICES:
        assert _hex_adjacent(q, q)
        assert _hex_distance(q, q) == 0


def test_hexagon_diameter_and_swap_pairs():
    dists = [_hex_distance(a, b) for a in HEX_VERTICES for b in HEX_VERTICES]
    assert max(dists) == 3
    for a, b in HEX_VERTICES:
        assert _hex_distance((a, b), (b, a)) == 3


def test_hexagon_paths_are_shortest_walks():
    # an edge exchanges exactly one entry of the color pair; breadth-first
    # search over that rule gives the true distances
    def edge(x, y):
        return x != y and (x[0] == y[0] or x[1] == y[1])

    for a in HEX_VERTICES:
        dist, frontier, step = {a: 0}, {a}, 0
        while frontier:
            step += 1
            frontier = {y for x in frontier for y in HEX_VERTICES
                        if edge(x, y) and y not in dist}
            dist.update(dict.fromkeys(frontier, step))
        for b in HEX_VERTICES:
            p = canonical_path(a, b)
            assert p[0] == a and p[-1] == b
            assert len(p) - 1 == dist[b]
            assert all(edge(x, y) for x, y in zip(p, p[1:]))


def test_hexagon_antipodal_tiebreak_is_frozen():
    # Opposite vertices have two shortest routes; the smaller first step wins.
    assert canonical_path((1, 2), (2, 1))[1] == (1, 3)
    assert canonical_path((2, 1), (1, 2))[1] == (2, 3)
    assert canonical_path((1, 3), (3, 1))[1] == (1, 2)


def test_checkerboard_translation():
    rng = np.random.default_rng(5)
    for q in HEX_VERTICES:
        assert translate_phase(translate_phase(q, 1), 1) == q
        assert translate_phase(q, 0) == q
        for _ in range(4):
            u = rng.integers(-9, 9, 2)
            w = rng.integers(-9, 9, 2)
            shifted = translate_phase(q, int(u.sum()) % 2)
            assert phase_color(shifted, w) == phase_color(q, w - u)


# -- center thinning ----------------------------------------------------------

def test_center_thinning_matches_bruteforce_1d():
    f = LabelField(21)
    got = centers(f, 1, (0,), (9000,), density_scale=1 / 8).ravel().tolist()
    xs = np.arange(-52, 9052)
    u = f.uniform_grid("tiling:w:1", (xs,))
    w = xs[u < 1.0 / 104.0]
    keep = [int(x) for x in w
            if not np.any((np.abs(w - x) <= 52) & (w != x))]
    assert got == [x for x in keep if 0 <= x < 9000]
    assert len(got) >= 10


# p = 0, 1, 2^-53, an exact multiple k·2^-53, the next float above it, a
# subnormal, and the level-1 and level-2 center densities of the benchmark
THRESHOLD_PS = [0.0, 1.0, 2.0**-53, (2**51 + 3) * 2.0**-53,
                np.nextafter((2**51 + 3) * 2.0**-53, 1.0), 5e-324,
                center_density(2, 1, 1 / 32), center_density(2, 2, 1 / 32)]


class _FixedLabels:
    """A field whose every u64 box holds the given labels, in order."""

    def __init__(self, labels):
        self.labels = np.asarray(labels, dtype=np.uint64)

    def u64_box(self, stream, axes):
        return self.labels.reshape(np.broadcast_shapes(*(a.shape for a in axes))).copy()

    def u64_below(self, stream, lo, hi, below, pad=0):
        corner = np.subtract(lo, pad)
        hit = self.labels.reshape(tuple(np.add(hi, pad) - corner)) < below
        if not hit[tuple(slice(pad, max(pad, n - pad)) for n in hit.shape)].any():
            return np.empty((0, len(corner)), dtype=np.int64)
        return np.argwhere(hit) + corner

    uniform_box = LabelField.uniform_box


@pytest.mark.parametrize("p", THRESHOLD_PS)
def test_bernoulli_threshold_is_uniform_below_p(p):
    # labels on both sides of the integer threshold and of its neighbours
    k = math.ceil(p * 2.0**53)
    edges = {0, 1, 2**11 - 1, 2**11, 2**64 - 2**11, 2**64 - 1}
    for t in ((k - 1) << 11, k << 11, (k + 1) << 11):
        edges |= {t - 1, t, t + 1}
    labels = sorted(x for x in edges if 0 <= x < 2**64)
    stub = _FixedLabels(labels)
    got = _bernoulli_points(stub, "w", (0,), (len(labels),), p).ravel()
    want = np.flatnonzero(stub.uniform_box("w", [np.arange(len(labels))]) < p)
    assert got.tolist() == want.tolist()
    # and on a real box, against the float comparison of the uniform labels
    f = LabelField(31)
    lo, hi = np.array([-40, 2**62 - 300]), np.array([260, 2**62])
    got = _bernoulli_points(f, "tiling:w:1", lo, hi, p)
    u = f.uniform_box("tiling:w:1", np.ix_(np.arange(lo[0], hi[0]), np.arange(lo[1], hi[1])))
    assert np.array_equal(got, np.argwhere(u < p) + lo)


@pytest.mark.parametrize("scale", [13.5, 1e6, float("inf"), float("nan")])
def test_centers_refuse_density_above_one(scale):
    # 13.5 * 13^-1 > 1 at level 1 in d = 1; refused before any label is read
    with pytest.raises(ValueError, match="density"):
        centers(LabelField(1), 1, (0,), (8,), density_scale=scale)


def test_center_thinning_matches_bruteforce_2d():
    f = LabelField(22)
    got = {tuple(p) for p in centers(f, 1, (0, 0), (600, 600),
                                     density_scale=1 / 32)}
    ax = np.arange(-52, 652)
    u = f.uniform_grid("tiling:w:1", np.ix_(ax, ax))
    w = np.argwhere(u < 1.0 / 5408.0) - 52
    keep = set()
    for p in w:
        d = np.abs(w - p).sum(axis=1)
        if not np.any((d <= 52) & (d > 0)):
            if 0 <= p[0] < 600 and 0 <= p[1] < 600:
                keep.add(tuple(int(c) for c in p))
    assert got == keep
    assert len(got) >= 10


@pytest.mark.parametrize("seed, candidates", [(6, "none"), (1, "pad only")])
def test_centers_with_no_core_candidate(seed, candidates):
    # seed 6 draws no candidate in the padded scan of [0, 4)^2, seed 1 draws
    # several, all in the pad; either way the result is an empty (0, 2)
    # int64 array and the scan records the one padded box
    lo, hi, pad = np.zeros(2, dtype=np.int64), np.full(2, 4, dtype=np.int64), 4 * 13
    pts = _bernoulli_points(LabelField(seed), "tiling:w:1", lo - pad, hi + pad,
                            center_density(2, 1, 0.02))
    assert (len(pts) == 0) == (candidates == "none")
    assert not np.all((pts >= lo) & (pts < hi), axis=1).any()
    tr = Tracker((0, 0), Budget(radius_cap=10 ** 9, access_cap=10 ** 9))
    got = centers(TrackedField(LabelField(seed), tr), 1, lo, hi, density_scale=0.02)
    assert got.shape == (0, 2) and got.dtype == np.int64
    assert tr.boxes == {"tiling:w:1": [((-52, -52), (55, 55))]}
    assert tr.points == {} and tr.access_count == 108 ** 2 and tr.radius == 110


def test_a_scan_without_a_core_hit_builds_no_axis_of_its_pad():
    # at level 5 in d = 1 the pad is 4 * 13^5 = 1,485,172 sites a side, so
    # one int64 coordinate axis of the padded box would take 23.8 MB; the
    # 16-site core holds no candidate, so only it is hashed, and the scan
    # still records the whole padded box
    lo, hi, pad = np.zeros(1, dtype=np.int64), np.full(1, 16, dtype=np.int64), center_pad(5)
    assert len(_bernoulli_points(LabelField(3), "tiling:w:5", lo, hi, 1.0 / 13**5)) == 0
    tr = Tracker((0,), Budget(radius_cap=10**9, access_cap=10**9))
    tracemalloc.start()
    try:
        got = centers(TrackedField(LabelField(3), tr), 5, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (0, 1) and peak < 2**16, peak
    assert tr.boxes == {"tiling:w:5": [((-pad,), (16 + pad - 1,))]}
    assert tr.access_count == 16 + 2 * pad


def test_centers_exact_far_from_the_origin():
    # at 2^61 float64 steps by 512, so a tree on absolute coordinates merges
    # nearby candidates; the thinning must match the exact int64 rule there
    lo = np.full(2, 2**61 + 12345, dtype=np.int64)
    hi = lo + 200
    pad = 4 * 13
    found = 0
    for seed in range(8):
        f = LabelField(seed)
        got = centers(f, 1, lo, hi, density_scale=0.05)
        w = _bernoulli_points(f, "tiling:w:1", lo - pad, hi + pad,
                              center_density(2, 1, 0.05))
        dist = np.abs(w[:, None, :] - w[None, :, :]).sum(axis=2)
        alone = (dist <= pad).sum(axis=1) == 1
        core = np.all((w >= lo) & (w < hi), axis=1)
        want = w[alone & core]
        assert got.tolist() == want[np.lexsort(want.T[::-1])].tolist(), seed
        found += len(got)
    assert found > 0


def test_center_spacing_exact_far_from_the_origin():
    x = 2**61 + 12345
    with pytest.raises(ValueError):
        TileForest((x,), (x + 60,), {1: [(x,), (x + 52,)]}, SiteLabels())
    forest = TileForest((x,), (x + 60,), {1: [(x,), (x + 53,)]}, SiteLabels())
    assert len(forest.tiles) == 2


def test_center_density_matches_bernoulli_rate():
    f = LabelField(7)
    ax = np.arange(1000)
    u = f.uniform_grid("tiling:w:1", np.ix_(ax, ax))
    p = 13.0 ** -2
    sd = (p * (1 - p) / u.size) ** 0.5
    assert abs((u < p).mean() - p) < 3 * sd


def test_center_spacing_is_enforced():
    with pytest.raises(ValueError):
        TileForest((0,), (60,), {1: [(0,), (52,)]}, SiteLabels())
    forest = TileForest((0,), (60,), {1: [(0,), (53,)]}, SiteLabels())
    assert len(forest.tiles) == 2


# Level-1 center counts of seeded windows against their exact mean: a vertex
# is a center when it is a candidate (probability p) and no other vertex of
# its radius-52 ball is, so a core of N vertices holds N * p * (1-p)^(|B(52)|-1)
# centers on average.  The margin, 4 standard deviations of a Poisson count of
# that mean, was fixed before the first run.
@pytest.mark.parametrize("d,scale,side", [(2, 1 / 32, 400), (1, 1 / 32, 20000),
                                          (2, 1 / 8, 600)])
def test_level1_center_count_and_coverage_match_the_exact_mean(d, scale, side):
    windows = 20
    p = center_density(d, 1, scale)
    ball = int(ball_mask(d, center_pad(1)).sum())
    mean = windows * side ** d * p * (1 - p) ** (ball - 1)
    count = covered = 0
    for seed in range(windows):
        lo = np.full(d, 7919 * seed - 50000, dtype=np.int64)
        got = centers(LabelField(seed), 1, lo, lo + side, density_scale=scale)
        forest = TileForest(lo, lo + side, {1: got}, SiteLabels())
        count += len(got)
        covered += int(np.count_nonzero(forest.grid >= 0))
    assert abs(count - mean) <= 4 * mean ** 0.5, (count, mean)
    # level-1 balls are disjoint, so coverage is |B(13)| per center
    assert covered == int(ball_mask(d, SCALE_BASE).sum()) * count


def _padded_scan_centers(f, j, lo, hi, scale):
    # the full padded scan: every candidate of the box padded by 4*13^j,
    # pairwise thinning, then the core; argwhere keeps lexicographic order
    pad = center_pad(j)
    axes = np.ix_(*map(np.arange, lo - pad, hi + pad))
    u = f.uniform_grid(f"tiling:w:{j}", axes)
    w = np.argwhere(u < center_density(lo.size, j, scale)) + lo - pad
    alone = (np.abs(w[:, None, :] - w[None, :, :]).sum(axis=2) <= pad).sum(axis=1) == 1
    inside = np.all((w >= lo) & (w < hi), axis=1)
    return w[alone & inside], int(inside.sum()), len(w)


# (seeds, level, lo, hi, density scale): d = 3, both ends of +-2^62, empty
# cores (lo = hi on an axis, and hi < lo), and small cores whose pad holds
# candidates that the core does not
BRUTE_CASES = [
    (range(6), 1, (0, 0, 0), (60, 60, 60), 1 / 128),
    (range(4), 1, (2**62 - 300, -2**62), (2**62 - 100, -2**62 + 200), 1 / 32),
    (range(2), 2, (-2**62, 2**62 - 900), (-2**62 + 60, 2**62 - 840), 1 / 32),
    (range(3), 1, (0, 7), (40, 7), 1 / 32),
    (range(3), 1, (10,), (3,), 1 / 8),
    (range(12), 1, (0, 0), (3, 3), 1 / 8),
    (range(12), 1, (5,), (6,), 1),
    (range(4), 2, (100, -50), (101, 10), 1 / 32),
]


def test_centers_equal_the_full_padded_scan():
    seen = set()
    for seeds, j, lo, hi, scale in BRUTE_CASES:
        lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
        pad = center_pad(j)
        for seed in seeds:
            want, in_core, total = _padded_scan_centers(LabelField(seed), j, lo, hi, scale)
            tr = Tracker(tuple(lo.tolist()), Budget(radius_cap=2**64, access_cap=10**9))
            got = centers(TrackedField(LabelField(seed), tr), j, lo, hi, density_scale=scale)
            assert got.dtype == np.int64 and got.shape == (len(want), lo.size)
            assert got.tolist() == want.tolist(), (seed, j, lo, hi)
            # the scan records the whole padded box, whatever the core holds
            box = (tuple((lo - pad).tolist()), tuple((hi + pad - 1).tolist()))
            assert tr.boxes == {f"tiling:w:{j}": [box]}
            assert tr.access_count == math.prod((hi - lo + 2 * pad).tolist())
            seen.add("core holds one" if in_core else "pad only" if total else "none")
            seen.add("centers" if len(got) else "no centers")
    assert seen == {"core holds one", "pad only", "none", "centers", "no centers"}


# -- synthetic forests: exact geometry ----------------------------------------

def _coords(tile):
    return {tuple(int(c) for c in p) for p in np.argwhere(tile.mask) + tile.lo}


def _ball(center, r):
    cx, cy = center
    return {(cx + dx, cy + dy)
            for dx in range(-r, r + 1)
            for dy in range(-(r - abs(dx)), r - abs(dx) + 1)}


def _dilate(cells):
    out = set(cells)
    for x, y in cells:
        out.update([(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)])
    return out


def test_lowest_level_tile_is_a_ball():
    forest = TileForest((-20, -20), (21, 21), {1: [(0, 0)]}, SiteLabels())
    t = forest.tiles[0]
    assert t.mask.sum() == 365
    assert _coords(t) == _ball((0, 0), 13)
    assert t.parent is None and tuple(t.clump_members) == (0,)


def test_absorption_boundary_inclusive():
    # Ball gap exactly 2: the small tile joins the big one's support.
    forest = TileForest((0, 0), (1, 1), {1: [(0, 0)], 2: [(90, 94)]}, SiteLabels())
    t1, t2 = forest.tiles
    assert t1.parent == t2.tid
    assert t2.children == [t1.tid]
    assert set(t2.clump_members) == {t1.tid, t2.tid}
    b1 = _ball((0, 0), 13)
    want = _dilate(_ball((90, 94), 169) | b1) - b1
    assert _coords(t2) == want


def test_absorption_boundary_exclusive():
    # Ball gap 3: two unrelated roots, the big tile is a dilated ball.
    forest = TileForest((0, 0), (1, 1), {1: [(0, 0)], 2: [(90, 95)]}, SiteLabels())
    t1, t2 = forest.tiles
    assert t1.parent is None and t2.parent is None
    assert t2.children == []
    assert _coords(t2) == _dilate(_ball((90, 95), 169))
    assert t2.mask.sum() == 2 * 170 * 170 + 2 * 170 + 1


def test_level_one_masks_are_read_only():
    forest = TileForest((0, 0), (1, 1), {1: [(0, 0), (80, 0)]}, SiteLabels())
    for t in forest.tiles:
        with pytest.raises(ValueError):
            t.mask[13, 13] = False
    assert forest.tiles[0].mask[13, 13]


# -- clump bookkeeping against a union-find reference -------------------------

def _union_find_forest(d, region_lo, region_hi, by_level):
    """Every tile's level, box, mask, parent, children and clump members,
    built with a union-find over clumps, each root's member list kept in a
    dict, and children found by scanning the painted cells of S_B and
    testing each candidate's containment."""
    levels = {}
    for j in sorted(by_level):
        pts = np.asarray(by_level[j], dtype=np.int64).reshape(-1, d)
        levels[j] = pts[np.lexsort(pts.T[::-1])]
    glo = np.asarray(region_lo, dtype=np.int64)
    ghi = np.asarray(region_hi, dtype=np.int64)
    for j, pts in levels.items():
        if len(pts):
            reach = 3 * SCALE_BASE ** j // 2 + 4
            glo = np.minimum(glo, pts.min(axis=0) - reach)
            ghi = np.maximum(ghi, pts.max(axis=0) + reach + 1)
    grid = np.full(tuple(ghi - glo), -1, dtype=np.int32)
    tiles, dsu, clumps = [], [], {}
    plus = generate_binary_structure(d, 1)

    def box(lo, shape):
        return tuple(slice(int(a), int(a) + n) for a, n in zip(lo, shape))

    def ball(r):
        return np.abs(np.indices((2 * r + 1,) * d) - r).sum(axis=0) <= r

    def new_tile(level, lo, mask):
        tid = len(tiles)
        sub = grid[box(lo - glo, mask.shape)]
        sub[mask & (sub < 0)] = tid
        tiles.append(SimpleNamespace(level=level, lo=lo, mask=mask, parent=None,
                                     children=[], clump_members=(tid,)))
        dsu.append(tid)
        clumps[tid] = [tid]
        return tid

    def find(a):
        while dsu[a] != a:
            dsu[a] = dsu[dsu[a]]
            a = dsu[a]
        return a

    def roots(tids, j):
        found = {find(int(t)) for t in np.unique(tids[tids >= 0])}
        return sorted(r for r in found if tiles[r].level < j)

    for j, pts in levels.items():
        r = SCALE_BASE ** j
        for c in pts:
            if j == 1:
                new_tile(1, c - r, ball(r))
                continue
            half = r + 3 * SCALE_BASE ** (j - 1) + 8
            lo = c - half
            shape = (2 * half + 1,) * d
            s_mask = np.zeros(shape, dtype=bool)
            s_mask[(slice(half - r, half + r + 1),) * d] = ball(r)
            sub = grid[box(lo - glo, shape)]
            near_ball = sub[(slice(half - r - 2, half + r + 3),) * d][ball(r + 2)]
            for root in roots(near_ball, j):
                for m in clumps[root]:
                    s_mask[box(tiles[m].lo - lo, tiles[m].mask.shape)] |= tiles[m].mask
            t_mask = binary_dilation(s_mask, structure=plus) & (sub < 0)
            inside_s = sub[s_mask]
            candidates = sorted(set(inside_s[inside_s >= 0].tolist()))
            tid = new_tile(j, lo, t_mask)
            for k in candidates:
                t = tiles[k]
                rel = t.lo - lo
                if np.any(rel < 0) or np.any(rel + t.mask.shape > shape):
                    continue
                if np.all(s_mask[box(rel, t.mask.shape)][t.mask]) and t.parent is None:
                    t.parent = tid
                    tiles[tid].children.append(k)
            near = binary_dilation(t_mask, structure=plus, iterations=2)
            for other in roots(sub[near], j):
                dsu[other] = tid
                clumps[tid].extend(clumps.pop(other))
            tiles[tid].clump_members = tuple(clumps[tid])
    return tiles


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d, side, tries", FORESTS)
def test_clump_bookkeeping_matches_union_find(seed, d, side, tries):
    rng = np.random.default_rng(seed)
    by_level = {j: _spaced_centers(rng, d, j, side, n)
                for j, n in enumerate(tries, start=1)}
    forest = TileForest((0,) * d, (side,) * d, by_level, SiteLabels())
    want = _union_find_forest(d, (0,) * d, (side,) * d, by_level)
    assert len(forest.tiles) == len(want)
    for t, w in zip(forest.tiles, want):
        assert (t.level, t.parent, t.children) == (w.level, w.parent, w.children)
        assert sorted(t.clump_members) == sorted(w.clump_members)
        assert np.array_equal(t.lo, w.lo) and np.array_equal(t.mask, w.mask)
    # dense enough that most higher tiles adopt several children
    assert sum(len(t.children) > 1 for t in forest.tiles) >= 5


# -- the audit against a walk of every mask ------------------------------------

def _walk_audit(forest):
    """`TileForest.audit` as a walk of every tile's mask box: reach and
    diameter from the mask cells, neighbors by dilating each mask, and the
    ids in each ball by `np.unique`.  Coverage is the audit's own pass."""
    tiles, d = forest.tiles, forest.d
    rep = AuditReport("tiling", Window(tuple(forest.lo), tuple(forest.hi - forest.lo)))
    rep.stats["tiles"] = len(tiles)
    rep.stats["levels"] = {int(j): int(len(p)) for j, p in forest.levels.items()}
    rep.stats["overlap_cells"] = forest.overlaps
    if forest.overlaps:
        rep.add("tile-overlap", forest.overlaps)

    def cells(tids):
        return np.vstack([np.argwhere(tiles[m].mask) + tiles[m].lo for m in tids])

    def reach(x, c):
        return np.abs(x - np.array(c)).sum(axis=1).max(initial=0)

    for t in tiles:
        r = SCALE_BASE ** t.level
        if not t.mask.any():
            rep.add("empty-tile", t.center)
            continue
        if reach(cells([t.tid]), t.center) > 3 * r // 2:
            rep.add("tile-outside-ball", t.center)
        if t.parent is not None and tiles[t.parent].level <= t.level:
            rep.add("parent-level", t.center)
    for t in tiles:
        if not t.clump_members:
            rep.add("empty-clump", t.center)
            continue
        r = SCALE_BASE ** t.level
        x = cells(t.clump_members)
        # the 1-norm diameter is the widest spread of x_0 +- x_1 +- ...
        signs = np.array(list(itertools.product((1, -1), repeat=d - 1)), dtype=np.int64)
        proj = x[:, :1] + x[:, 1:] @ signs.T if len(x) else np.zeros((1, 1))
        if (proj.max(axis=0) - proj.min(axis=0)).max() > 3 * r:
            rep.add("clump-diameter", t.center)
        if reach(x, t.center) > 3 * r // 2:
            rep.add("clump-outside-ball", t.center)
    forest._audit_coverage(rep)

    plus = generate_binary_structure(d, 1)
    for t in tiles:
        kin = {t.tid, t.parent} | set(t.children)
        near = binary_dilation(np.pad(t.mask, 1), structure=plus)
        lo = t.lo - 1 - forest.grid_lo
        sub = forest.grid[tuple(slice(a, a + n) for a, n in zip(lo, near.shape))]
        for other in np.unique(sub[near]):
            if other >= 0 and int(other) not in kin:
                rep.add("adjacent-nonkin", (t.center, tiles[int(other)].center))
    for t in tiles:
        r = SCALE_BASE ** t.level
        x = np.argwhere(np.abs(np.indices((2 * r + 1,) * d) - r).sum(axis=0) <= r)
        x += np.array(t.center) - r - forest.grid_lo
        x = x[np.all((x >= 0) & (x < forest.grid.shape), axis=1)]
        for tid in np.unique(forest.grid[tuple(x.T)]):
            cur = int(tid)
            while cur is not None and cur != t.tid:
                cur = tiles[cur].parent
            if tid >= 0 and cur is None:
                rep.add("descendant-gap", (t.center, tiles[int(tid)].center))
    rep.stats.setdefault("violations_total", 0)
    return rep


def _break_forest(forest, rng):
    """Random damage: tiles painted over others (level-1 balls, or random
    masks, some empty, centered off them), parents and clump lists rewired
    (parents only ever point to later tiles, so no chain loops), and centers
    without tiles."""
    d, shape = forest.d, np.array(forest.grid.shape)
    for _ in range(rng.integers(1, 4)):
        if rng.random() < 0.5 and np.all(shape >= 27):
            lo = forest.grid_lo + rng.integers(0, shape - 26)
            forest._new_tile(1, lo + 13, lo, ball_mask(d, 13))
        else:
            side = rng.integers(1, 12, size=d)
            lo = forest.grid_lo + rng.integers(0, shape - side + 1)
            mask = rng.random(side) < rng.choice([0.0, 0.3, 0.9])
            level = int(rng.choice(list(forest.levels)))
            forest._new_tile(level, lo + rng.integers(-20, 20, size=d), lo, mask)
    n = len(forest.tiles)
    for t in rng.choice(forest.tiles, size=min(n, 3), replace=False):
        roll = rng.random()
        if roll < 0.4:
            t.parent = None if t.tid == n - 1 or rng.random() < 0.3 else \
                int(rng.integers(t.tid + 1, n))
        elif roll < 0.8:
            t.clump_members = tuple(int(m) for m in rng.choice(n, rng.integers(0, 4)))
        else:
            j = int(rng.choice(list(forest.levels)))
            c = forest.lo + rng.integers(0, forest.hi - forest.lo)
            forest.levels[j] = np.vstack([forest.levels[j], c[None]])


@pytest.mark.parametrize("d, side, tries", [(1, 3000, (300, 20, 2)), (2, 420, (200, 3)),
                                            (3, 60, (40,))])
def test_audit_matches_mask_walk(d, side, tries):
    rng = np.random.default_rng(d)
    for case in range(12):
        by_level = {j: _spaced_centers(rng, d, j, side, n)
                    for j, n in enumerate(tries, start=1)}
        forest = TileForest((0,) * d, (side,) * d, by_level, SiteLabels())
        if case:
            _break_forest(forest, rng)
        got, want = forest.audit(), _walk_audit(forest)
        assert repr((got.passed, got.violations, got.stats)) == \
            repr((want.passed, want.violations, want.stats)), case


def test_audit_asks_no_ball_of_an_empty_top_level(monkeypatch):
    # an empty level covers no cell, so the audit builds (and caches) no
    # ball for it, and its report is that of the forest without the level
    pts = [(100,), (300,)]
    forest = TileForest((0,), (400,), {1: pts, 2: np.empty((0, 1))}, SiteLabels())
    radii = []

    def spy(d, r, norm="l1"):
        radii.append(r)
        return ball_mask(d, r, norm)

    monkeypatch.setattr(tiling3color, "ball_mask", spy)
    got = forest.audit()
    assert radii and SCALE_BASE ** 2 not in radii
    want = TileForest((0,), (400,), {1: pts}, SiteLabels()).audit()
    assert got.passed and got.violations == want.violations
    assert got.stats == dict(want.stats, levels={1: 2, 2: 0})


# -- the ancestor chain fixture ----------------------------------------------

@pytest.fixture(scope="module")
def chain6():
    """One tile per level 1..6 on a line, every ball nested in the next."""
    coins = {(j,): -1 for j in range(1, 7)}
    hs = {(j,): (1, 2) for j in range(1, 7)}
    forest = TileForest((-50,), (51,), {j: [(j,)] for j in range(1, 7)},
                        SiteLabels(coins.__getitem__, hs.__getitem__))
    return forest, coins, hs


def _audit_coloring(forest):
    """Properness of the painted colors plus the homomorphism edge check."""
    colors, valid = forest.colors_grid()
    rep = check_coloring(colors, valid=valid, construction="threegen")
    edges = 0
    for t in forest.tiles:
        if t.parent is None:
            continue
        qa, qb = forest.g.get(t.tid), forest.g.get(t.parent)
        if qa is None or qb is None:
            continue
        edges += 1
        if not _hex_adjacent(qa, qb):
            rep.add("not-homomorphism", (t.center, forest.tiles[t.parent].center))
    rep.stats["forest_edges_checked"] = edges
    return rep


def _set_chain(forest, coins, pattern, hs=None, hvals=None):
    coins.update({(j,): s for j, s in zip(range(1, 7), pattern)})
    if hvals:
        hs.update({(j,): q for j, q in zip(range(1, 7), hvals)})
    forest._coin_cache.clear()
    forest._h_cache.clear()


def test_chain_parent_links_and_audit(chain6):
    forest, _, _ = chain6
    assert [t.level for t in forest.tiles] == [1, 2, 3, 4, 5, 6]
    assert [t.parent for t in forest.tiles] == [1, 2, 3, 4, 5, None]
    rep = forest.audit()
    assert rep.passed, rep.summary()
    assert rep.stats["levels"] == {j: 1 for j in range(1, 7)}


def test_special_rule_needs_two_quiet_ancestors(chain6):
    forest, coins, _ = chain6
    _set_chain(forest, coins, (+1, -1, -1, -1, -1, -1))
    forest.mark_specials(root_closure=False)
    assert forest.special[0] is True
    _set_chain(forest, coins, (+1, -1, +1, -1, -1, -1))
    forest.mark_specials(root_closure=False)
    assert forest.special[0] is False
    assert forest.special[2] is True
    # A Tails coin settles a tile by itself; a Heads coin near the top is
    # undecidable because the two-ancestor lookahead is missing.
    assert forest.special[4] is False
    assert forest.special[5] is False
    _set_chain(forest, coins, (-1, -1, -1, -1, +1, +1))
    forest.mark_specials(root_closure=False)
    assert forest.special[4] is False
    assert forest.special[5] is None


def test_certified_specials_are_three_generations_apart(chain6):
    forest, coins, _ = chain6
    for bits in range(64):
        pattern = [1 if bits >> j & 1 else -1 for j in range(6)]
        _set_chain(forest, coins, pattern)
        forest.mark_specials(root_closure=False)
        specials = [t.level for t in forest.tiles
                    if forest.special[t.tid] is True]
        for a in specials:
            for b in specials:
                assert a == b or abs(a - b) >= 3


def test_anchor_walk_and_far_anchor_phase(chain6):
    forest, coins, hs = chain6
    _set_chain(forest, coins, (-1, -1, -1, +1, -1, -1), hs,
               [(1, 2)] * 3 + [(2, 3)] + [(1, 2)] * 2)
    g = forest.assign_colorings(root_closure=False)
    # Anchor of the bottom tile sits three generations up: it paints with
    # the anchor's own phase, parity-corrected at the anchor center.
    assert forest.nearest_special(0) == (3, 3)
    assert g[0] == translate_phase((2, 3), 0) == (2, 3)
    assert all(g[t] is None for t in range(1, 6))
    colors, valid = forest.colors_grid(Window((-12,), (27,)))
    assert valid.all()
    par = (np.arange(-12, 15)) % 2
    assert np.array_equal(colors, np.where(par == 0, 2, 3))


def test_interpolation_uses_midpath_colorings(chain6):
    forest, coins, hs = chain6
    _set_chain(forest, coins, (-1, -1, -1, +1, -1, -1), hs,
               [(1, 2)] * 3 + [(2, 3)] + [(1, 2)] + [(1, 2)])
    g = forest.assign_colorings(root_closure=True)
    # Root closure decides every walk: tiles one and two generations below
    # the anchor take the first and second step of the canonical path from
    # the root's pair toward the anchor's pair.
    assert g[5] == g[4] == g[3] == (1, 2)
    assert g[2] == (1, 3)
    assert g[1] == (2, 3)
    assert g[0] == (2, 3)
    for t in forest.tiles:
        if t.parent is not None:
            assert _hex_adjacent(g[t.tid], g[t.parent])
    rep = _audit_coloring(forest)
    assert rep.passed, rep.summary()
    assert rep.stats["forest_edges_checked"] == 5


def test_root_closure_roots_are_special_and_keep_their_phase():
    coins = {(1,): -1, (2,): +1, (3,): -1}
    hs = {(1,): (1, 2), (2,): (2, 3), (3,): (1, 2)}
    forest = TileForest((-20,), (21,), {j: [(j,)] for j in (1, 2, 3)},
                        SiteLabels(coins.__getitem__, hs.__getitem__))
    g = forest.assign_colorings(root_closure=True)
    assert forest.special[2] is True
    assert forest.special[1] is True
    # Odd root center flips the checkerboard phase of its own pair.
    assert g[2] == translate_phase((1, 2), 1) == (2, 1)
    assert g[1] == (2, 1)
    assert g[0] == (2, 3)
    rep = _audit_coloring(forest)
    assert rep.passed, rep.summary()


# -- field-driven fixtures -----------------------------------------------------

def test_forest_fixture_1d():
    f = LabelField(11)
    colors, valid, forest = threegen_window(
        f, Window((0,), (60000,)), maxlevel=3, density_scale=1 / 8)
    rep = forest.audit()
    assert rep.passed, rep.summary()
    assert rep.stats["levels"] == {1: 219, 2: 13, 3: 1}
    crep = _audit_coloring(forest)
    assert crep.passed, crep.summary()
    assert crep.stats["forest_edges_checked"] == 31
    counts = [int((colors[valid] == c).sum()) for c in (1, 2, 3)]
    assert counts == [5355, 2899, 5652]
    assert valid.sum() == sum(counts)


def test_forest_fixture_2d():
    f = LabelField(3)
    colors, valid, forest = threegen_window(
        f, Window((0, 0), (1200, 1200)), maxlevel=2, density_scale=1 / 32)
    rep = forest.audit()
    assert rep.passed, rep.summary()
    assert rep.stats["levels"] == {1: 91, 2: 2}
    crep = _audit_coloring(forest)
    assert crep.passed, crep.summary()
    assert 0.05 < valid.mean() < 0.12
    assert set(np.unique(colors[valid])) <= {1, 2, 3}


def test_window_coloring_is_deterministic():
    a = threegen_window(LabelField(11), Window((50,), (3000,)),
                        maxlevel=2, density_scale=1 / 8)
    b = threegen_window(LabelField(11), Window((50,), (3000,)),
                        maxlevel=2, density_scale=1 / 8)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_forest_fixture_3d():
    f = LabelField(20)
    colors, valid, forest = threegen_window(
        f, Window((0, 0, 0), (70, 70, 70)), maxlevel=1,
        density_scale=1 / 32, margin=13)
    assert valid.any()
    rep = forest.audit()
    assert rep.passed, rep.summary()
    crep = _audit_coloring(forest)
    assert crep.passed, crep.summary()
    # Any axis plane of a proper 3d coloring is a proper 2d coloring.
    from ffcolor.verify import check_coloring
    k = int(np.argwhere(valid)[0][0])
    plane = check_coloring(colors[k], valid=valid[k], construction="threegen")
    assert plane.passed, plane.summary()


# -- demand-driven queries ------------------------------------------------------

def _chain_query(v, coins, hs, tracker=None):
    """The query at v over the chain of one tile at (j,) per level j <= 6,
    with the coins and checkerboards of `coins` and `hs`."""
    def src(field, j, lo, hi):
        if tracker is not None:
            # the box `centers` would scan for these centers
            tracker.record_box(f"tiling:w:{j}", lo - center_pad(j), hi - 1 + center_pad(j))
        pts = np.array([[j]], dtype=np.int64)
        if j > 6 or not (lo[0] <= j < hi[0]):
            return pts[:0]
        return pts
    return three_color_general(v, 1, SiteLabels(coins.__getitem__, hs.__getitem__),
                               radius_cap=27_000_000, centers_source=src)


def test_query_resolves_on_minimal_head_pattern():
    coins = {(j,): s for j, s in zip(range(1, 7), (-1, -1, -1, +1, -1, -1))}
    hs = {(j,): (1, 2) for j in range(1, 7)}
    hs[(4,)] = (2, 3)
    tr = Tracker((0,), Budget(radius_cap=27_000_000, access_cap=10 ** 9))
    assert _chain_query((0,), coins, hs, tr) == 2
    assert _chain_query((5,), coins, hs) == 3
    # The chain resolves at the sixth scale; every read stays within the
    # (3/2 + 4) * r budget of that scale.
    assert 11 * 13 ** 5 // 2 < tr.radius <= 11 * 13 ** 6 // 2


def test_query_agrees_with_forest_coloring():
    coins = {(j,): s for j, s in zip(range(1, 7), (-1, -1, -1, +1, -1, -1))}
    hs = {(j,): (1, 2) for j in range(1, 7)}
    hs[(4,)] = (2, 3)
    forest = TileForest((-12,), (15,), {j: [(j,)] for j in range(1, 7)},
                        SiteLabels(coins.__getitem__, hs.__getitem__))
    forest.assign_colorings(root_closure=False)
    colors, valid = forest.colors_grid()
    for v in (-12, -5, 0, 7, 14):
        assert valid[v + 12]
        assert _chain_query((v,), coins, hs) == colors[v + 12]


def test_query_censors_when_the_head_pattern_breaks():
    coins = {(j,): s for j, s in zip(range(1, 7), (-1, -1, -1, +1, +1, -1))}
    hs = {(j,): (1, 2) for j in range(1, 7)}
    with pytest.raises(BudgetExceeded) as err:
        _chain_query((0,), coins, hs)
    assert err.value.kind == "radius"
    assert err.value.stream == "tiling:w:7"


def test_query_censors_under_the_default_budget():
    with pytest.raises(BudgetExceeded) as err:
        three_color_general((0, 0), 2, LabelField(3), density_scale=1 / 32)
    assert err.value.kind == "radius"
    assert err.value.limit == 4096
    assert err.value.stream == "tiling:w:3"
    assert err.value.where == (0, 0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("reach,trim,half,refused", [
    (78, 1, 0, 1), (78, 0, 78, 2), (899, 1, 78, 2), (899, 0, 899, 3)])
def test_stage_schedule_fits_the_radius_cap(d, reach, trim, half, refused):
    # stages 1 and 2 reach d * 78 and d * 899; a query reads every stage that
    # fits the cap, and is refused at the first that does not
    cap, boxes = d * reach - trim, []

    def no_centers(field, j, lo, hi):
        boxes.append((j, (hi - lo - 1) // 2))
        return np.empty((0, d), dtype=np.int64)

    with pytest.raises(BudgetExceeded) as err:
        three_color_general((0,) * d, d, LabelField(0), radius_cap=cap,
                            centers_source=no_centers)
    assert scan_half(d, cap) == half
    assert max((int(h.max()) + center_pad(j) for j, h in boxes), default=0) == half
    assert {j for j, _ in boxes} == set(range(1, refused))
    assert err.value.kind == "radius" and err.value.limit == cap
    assert err.value.stream == f"tiling:w:{refused}"


def test_query_rejects_mismatched_vertex():
    with pytest.raises(ValueError):
        three_color_general((0, 0, 0), 2, LabelField(3))


def test_query_perturbation_replay_is_identical():
    base = LabelField(3)
    alt = LabelField(999)
    for v in ((0, 0), (400, -250)):
        tr = Tracker(v, Budget(radius_cap=10 ** 9, access_cap=10 ** 9))
        tf = TrackedField(base, tr)
        try:
            first = three_color_general(v, 2, tf, density_scale=1 / 32,
                                        radius_cap=2000)
        except BudgetExceeded as e:
            first = ("censored", e.stream)
        pf = PerturbedField(base, tr, alt)
        try:
            replay = three_color_general(v, 2, pf, density_scale=1 / 32,
                                         radius_cap=2000)
        except BudgetExceeded as e:
            replay = ("censored", e.stream)
        assert first == replay
        assert tr.radius <= 2000
