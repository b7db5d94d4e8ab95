"""Box-net four-coloring: scale constants, radii, signs, checkerboarding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from ffcolor.field import (Budget, BudgetExceeded, LabelField,
                           TrackedField, Tracker, tracked)
from ffcolor import fourcolor
from ffcolor.lattice import LatticeSpec, Window
from ffcolor.fourcolor import (BoxSystem, CANDIDATES_PER_CELL, CAND_STREAM,
                               ORDER_STREAM, _cluster_phases, assign_radii,
                               audit_faces, audit_sign_clusters,
                               baseline_percolation_4color, baseline_window,
                               checkerboard_4color, choose_M, fixture_net,
                               four_color_window, net_coloring, sign_window,
                               PHASE_STREAM)
from ffcolor.verify import check_coloring

M2, C2, CP2 = choose_M(2)


# ---------------------------------------------------------------------------
# scale constants


def test_choose_m_frozen_values():
    assert choose_M(2) == (2269, 81, 2268)
    assert choose_M(3) == (30619, 729, 30618)


def test_choose_m_contracts():
    for d in (2, 3, 4):
        m, c, cp = choose_M(d)
        assert cp == 14 * d * c and m == cp + 1
        assert m >= 14 * d + 1
    assert choose_M(2)[1] <= 82  # volume-ratio bound for the plane


def test_choose_m_rejects_line():
    with pytest.raises(ValueError):
        choose_M(1)


# ---------------------------------------------------------------------------
# radius assignment; the oracle below enumerates face pairs directly


def _oracle_faces(center, r):
    d = len(center)
    out = []
    for a in range(d):
        for side in (1, -1):
            lo = [c - r for c in center]
            hi = [c + r for c in center]
            lo[a] = center[a] + r if side > 0 else center[a] - r - 1
            hi[a] = lo[a] + 1
            out.append((a, tuple(lo), tuple(hi)))
    return out


def _oracle_conflict(f, g):
    if f[0] != g[0]:
        return False
    gap = 0
    for l1, h1, l2, h2 in zip(f[1], f[2], g[1], g[2]):
        gap = max(gap, l1 - h2, l2 - h1)
    return gap <= 2


def _oracle_least(center, fixed, m):
    for r in range(m, 2 * m):
        new = _oracle_faces(center, r)
        if not any(_oracle_conflict(f, g) for t, rt in fixed
                   for g in _oracle_faces(t, rt) for f in new):
            return r
    raise AssertionError("oracle found no radius")


def test_isolated_center_gets_least_radius():
    radii = assign_radii(np.array([[0, 0]]), np.array([1]), M2)
    assert radii.tolist() == [M2]


def test_second_center_matches_face_oracle():
    centers = np.array([[0, 0], [4 * M2 + 2, 0]])
    colors = np.array([1, 2])
    radii = assign_radii(centers, colors, M2)
    assert radii[0] == M2
    assert radii[1] == _oracle_least((4 * M2 + 2, 0), [((0, 0), M2)], M2)
    assert audit_faces(BoxSystem(centers, radii, M2)).passed


def test_each_face_prohibits_at_most_seven_values():
    s = (4 * M2 + 2, 0)
    for g in _oracle_faces((0, 0), M2):
        hits = sum(
            any(_oracle_conflict(f, g) for f in _oracle_faces(s, r))
            for r in range(M2, 2 * M2))
        assert hits <= 7


def test_same_color_class_never_conflicts():
    centers = np.array([[0, 0], [4 * M2 + 4, 0]])
    radii = assign_radii(centers, np.array([1, 1]), M2)
    assert radii.tolist() == [M2, M2]
    assert audit_faces(BoxSystem(centers, radii, M2)).passed


def test_assign_radii_rejects_packing_violation():
    with pytest.raises(ValueError):
        assign_radii(np.array([[0, 0], [M2, 0]]), np.array([1, 2]), M2)


def test_assign_radii_rejects_improper_coloring():
    with pytest.raises(ValueError):
        assign_radii(np.array([[0, 0], [2 * M2, 0]]), np.array([1, 1]), M2)


def test_audit_faces_flags_close_faces():
    boxes = BoxSystem(np.array([[0, 0], [2 * M2 + 3, 0]]),
                      np.array([M2, M2]), M2)
    rep = audit_faces(boxes)
    assert not rep.passed
    assert rep.violations[0][0] == "face-separation"


# ---------------------------------------------------------------------------
# sign process


def sign_process(v, boxes: BoxSystem, net_colors: np.ndarray) -> int:
    """Sign at v, one site at a time: the parity of the 1-norm offset from
    the center of the lowest-colored covering box, +1 at even offsets.  The
    reference `sign_window` is checked against."""
    v = np.asarray(v, dtype=np.int64)
    dist = np.abs(boxes.centers - v).max(axis=1)
    cov = np.nonzero(dist <= boxes.radii)[0]
    if cov.size == 0:
        raise ValueError(f"vertex {tuple(int(x) for x in v)} not covered by any box")
    cols = net_colors[cov]
    cmin = cols.min()
    if int((cols == cmin).sum()) > 1:
        raise AssertionError("two covering boxes share the lowest net color")
    s = boxes.centers[cov[np.argmin(cols)]]
    return 1 if int(np.abs(s - v).sum()) % 2 == 0 else -1


def _two_box_system():
    centers = np.array([[0, 0], [M2 + 1, 0]])
    return BoxSystem(centers, np.array([M2, M2]), M2), np.array([2, 1])


def test_sign_at_center_is_plus():
    boxes, cols = _two_box_system()
    assert sign_process((M2 + 1, 0), boxes, cols) == 1
    assert sign_process((M2 + 1, 1), boxes, cols) == -1  # adjacent flips


def test_sign_prefers_lowest_color_box():
    boxes, cols = _two_box_system()
    # (2, 0) is covered by both; color 1 sits at (M2+1, 0)
    par = (M2 - 1) % 2
    assert sign_process((2, 0), boxes, cols) == (1 if par == 0 else -1)


def test_sign_uncovered_raises():
    boxes, cols = _two_box_system()
    with pytest.raises(ValueError):
        sign_process((10 * M2, 10 * M2), boxes, cols)


def test_sign_equal_color_covering_raises():
    boxes, _ = _two_box_system()
    with pytest.raises(AssertionError):
        sign_process((2, 0), boxes, np.array([1, 1]))
    with pytest.raises(AssertionError):
        sign_window(Window((0, 0), (4, 4)), boxes, np.array([1, 1]))


def test_sign_window_matches_pointwise():
    step = M2 + 1
    centers = np.array([[i * step, j * step] for i in range(3) for j in range(3)])
    colors = net_coloring(centers, 4 * M2 + 3, LabelField(5))
    radii = assign_radii(centers, colors, M2)
    boxes = BoxSystem(centers, radii, M2)
    win = Window((step - 8, step - 8), (16, 16))  # straddles several boxes
    signs, covered = sign_window(win, boxes, colors)
    assert covered.all()
    for v in win:
        i = tuple(a - o for a, o in zip(v, win.origin))
        assert signs[i] == sign_process(v, boxes, colors)


def test_audit_sign_clusters():
    x, y = np.indices((10, 10))
    alternating = np.where((x + y) % 2 == 0, 1, -1)
    assert audit_sign_clusters(alternating).passed
    bad = alternating.copy()
    bad[4, 4:7] = 1
    rep = audit_sign_clusters(bad)
    assert not rep.passed and rep.violations[0][0] == "cluster-diameter"


# ---------------------------------------------------------------------------
# checkerboarding


def test_singleton_cluster_color():
    values = np.full((5, 5), 2)
    values[2, 2] = 1
    u = LabelField(1).uniform_grid("t", [np.arange(5)[:, None], np.arange(5)])
    colors, valid = checkerboard_4color(values, u)
    assert colors[2, 2] == 3 and valid[2, 2]


def test_two_vertex_cluster_colors():
    values = np.ones((5, 5), dtype=np.int64)
    values[2, 2] = values[2, 3] = 2
    u = LabelField(4).uniform_grid("t", [np.arange(5)[:, None], np.arange(5)])
    colors, valid = checkerboard_4color(values, u)
    assert valid[2, 2] and valid[2, 3]
    pair = {int(colors[2, 2]), int(colors[2, 3])}
    assert pair == {2, 4}
    w = (2, 2) if u[2, 2] > u[2, 3] else (2, 3)
    assert colors[w] == 4  # the max-phase vertex sits at even distance


def test_checkerboard_output_proper():
    rng = np.random.default_rng(0)
    values = rng.integers(1, 3, size=(40, 40))
    u = LabelField(9).uniform_grid("t", [np.arange(40)[:, None], np.arange(40)])
    colors, valid = checkerboard_4color(values, u)
    assert check_coloring(colors, m=1).passed
    assert valid[1:-1, 1:-1].sum() > 0


def test_checkerboard_rejects_other_values():
    with pytest.raises(ValueError):
        checkerboard_4color(np.full((3, 3), 7), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# fixture net


def test_fixture_net_packing_and_determinism():
    fld = LabelField(3)
    pts = fixture_net(fld, (-600, -600), (600, 600), 40)
    again = fixture_net(fld, (-600, -600), (600, 600), 40)
    assert np.array_equal(pts, again)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    dist[np.diag_indices(len(pts))] = 10**9
    assert dist.min() >= 41


def test_fixture_net_covers_ensured_region():
    m = 40
    pts = fixture_net(LabelField(3), (-600, -600), (600, 600), m,
                      ensure=((-200, -200), (200, 200)))
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    dist[np.diag_indices(len(pts))] = 10**9
    assert dist.min() >= m + 1  # fills never break packing
    covered = np.zeros((400, 400), dtype=bool)
    for cx, cy in pts:
        xs = slice(max(cx - m + 200, 0), min(cx + m + 201, 400))
        ys = slice(max(cy - m + 200, 0), min(cy + m + 201, 400))
        if xs.start < xs.stop and ys.start < ys.stop:
            covered[xs, ys] = True
    assert covered.all()


def test_net_coloring_proper_at_reach():
    pts = fixture_net(LabelField(7), (0, 0), (900, 900), 40)
    reach = 4 * 40 + 3
    colors = net_coloring(pts, reach, LabelField(7))
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    same = colors[:, None] == colors[None, :]
    np.fill_diagonal(same, False)
    assert not (same & (dist <= reach)).any()
    assert colors.min() >= 1


# ---------------------------------------------------------------------------
# full pipeline


def test_four_window_end_to_end():
    fld = LabelField(11)
    out = four_color_window(fld, Window((0, 0), (64, 64)))
    assert out.valid.all()
    assert np.isin(out.colors, (1, 2, 3, 4)).all()
    assert check_coloring(out.colors, m=1, valid=out.valid).passed
    assert audit_faces(out.boxes).passed
    signs, covered = sign_window(Window((-2, -2), (68, 68)), out.boxes,
                                 out.net_colors)
    assert covered.all()
    assert audit_sign_clusters(signs).passed
    again = four_color_window(fld, Window((0, 0), (64, 64)))
    assert np.array_equal(out.colors, again.colors)


def test_four_window_raises_on_an_uncovered_vertex(monkeypatch):
    real = fourcolor.sign_window

    def with_hole(window, boxes, net_colors):
        signs, covered = real(window, boxes, net_colors)
        signs[3, 3], covered[3, 3] = 0, False
        return signs, covered

    monkeypatch.setattr(fourcolor, "sign_window", with_hole)
    with pytest.raises(AssertionError, match="in no box"):
        four_color_window(LabelField(11), Window((0, 0), (8, 8)))


def test_four_window_at_box_seam():
    # locate an equal-sign pair along some box face, then color around it
    fld = LabelField(11)
    out = four_color_window(fld, Window((0, 0), (8, 8)))
    seam = None
    for i in np.argsort(out.net_colors, kind="stable"):
        c = out.boxes.centers[i]
        r = int(out.boxes.radii[i])
        strip = Window((int(c[0]) + r - 1, int(c[1]) - r), (4, 2 * r))
        signs, covered = sign_window(strip, out.boxes, out.net_colors)
        eq = np.argwhere(covered[:-1] & covered[1:] & (signs[:-1] == signs[1:]))
        if eq.size:
            seam = (strip.origin[0] + int(eq[0, 0]), strip.origin[1] + int(eq[0, 1]))
            break
    assert seam is not None
    win = Window((seam[0] - 8, seam[1] - 8), (16, 16)).grow(2)
    signs, covered = sign_window(win, out.boxes, out.net_colors)
    assert covered.all()
    u = fld.uniform_grid(PHASE_STREAM, win.ix_axes())
    colors, valid = checkerboard_4color(np.where(signs > 0, 1, 2), u)
    core = (slice(2, -2), slice(2, -2))
    assert valid[core].all()
    assert check_coloring(colors[core], m=1).passed
    assert np.isin(colors[core], (1, 2)).any()  # multi-vertex cluster split


def test_four_window_tracker_record_pinned():
    # the access record of one tracked window: order labels stay scalar reads
    # (a box over scattered centers would cover ~7e8 labels), the candidate
    # table and phases stay one box each
    tr = Tracker((16, 16), Budget(radius_cap=10**9, access_cap=10**9))
    four_color_window(TrackedField(LabelField(23), tr), Window((0, 0), (32, 32)))
    assert tr.access_count == 4922
    assert tr.radius == 31369
    assert {k: len(v) for k, v in tr.points.items()} == {"four:order": 98}
    assert tr.boxes == {
        "fixture:boxnet:pos": [((-7, -7, 0, 0), (6, 6, 5, 1))],
        "fixture:boxnet:prio": [((-7, -7, 0), (6, 6, 5))],
        "four:phase": [((-2, -2), (33, 33))],
    }


# ---------------------------------------------------------------------------
# percolation baseline


def test_baseline_window_proper():
    cols, valid = baseline_window(LabelField(2), Window((0, 0), (128, 128)))
    assert valid.all()
    assert check_coloring(cols, m=1, valid=valid).passed
    assert np.isin(cols[valid], (1, 2, 3, 4)).all()


def test_baseline_singleton_cluster():
    fld = LabelField(2)
    pick = None
    for x in range(200):
        v = (x, 0)
        sv = fld.coin("baseline4:sign", v)
        if all(fld.coin("baseline4:sign", n) != sv
               for n in [(x + 1, 0), (x - 1, 0), (x, 1), (x, -1)]):
            pick = v
            break
    assert pick is not None
    ev = tracked(lambda f: baseline_percolation_4color(pick, f),
                 fld, pick, Budget())
    assert ev.value in (1, 3)  # the vertex is its own phase anchor
    assert ev.radius <= 2


def test_baseline_rejects_other_dimensions():
    with pytest.raises(ValueError):
        baseline_percolation_4color((0, 0, 0), LabelField(1))
    with pytest.raises(ValueError):
        baseline_window(LabelField(1), Window((0, 0, 0), (8, 8, 8)))


# labels cut to their top 3 bits tie everywhere
_TOP3 = 0xE000000000000000


class TiedLabels(LabelField):
    """Labels of the streams ending in one of `suffixes`, cut to the bits
    of `keep`; every other stream as in `LabelField`."""

    def __init__(self, seed, suffixes, keep=_TOP3):
        super().__init__(seed)
        self.suffixes, self.keep = tuple(suffixes), keep

    def u64(self, stream, coords):
        h = super().u64(stream, coords)
        return h & self.keep if stream.endswith(self.suffixes) else h

    def u64_points(self, stream, points):
        return [self.u64(stream, p) for p in points]

    def u64_grid(self, stream, axes):
        h = super().u64_grid(stream, axes)
        return h & np.uint64(self.keep) if stream.endswith(self.suffixes) else h


def tied_phases(seed):
    return TiedLabels(seed, ["phase"])


def test_baseline_window_breaks_phase_ties_like_the_query():
    # the window anchor must be the query's max (u, x): the last tied site in
    # raster order
    checked = 0
    for seed in range(6):
        fld = tied_phases(seed)
        win = Window((0, 0), (24, 24))
        cols, valid = baseline_window(fld, win, margin=40)
        for v in win:
            if valid[v]:
                assert baseline_percolation_4color(v, fld) == cols[v], (seed, v)
                checked += 1
    assert checked > 3000


def _dfs_baseline(v, field):
    """The one-site-at-a-time query the level-by-level one replaced: a
    depth-first search with a scalar read per label."""
    v = tuple(int(x) for x in v)
    sv = field.coin("baseline4:sign", v)
    stack = [v]
    seen = {v}
    cluster = []
    while stack:
        x = stack.pop()
        cluster.append(x)
        for nb in LatticeSpec(2, 1, "l1").neighbors(x):
            if nb not in seen:
                seen.add(nb)
                if field.coin("baseline4:sign", nb) == sv:
                    stack.append(nb)
    w = max(cluster, key=lambda x: (field.uniform("baseline4:phase", x), x))
    par = (abs(v[0] - w[0]) + abs(v[1] - w[1])) % 2
    return (1 if sv > 0 else 3) + par


def _tracked_outcome(query, field, v, budget):
    try:
        ev = tracked(lambda f: query(v, f), field, v, budget)
    except BudgetExceeded as e:
        return e.kind
    t = ev.tracker
    assert not t.boxes
    return ev.value, t.radius, t.access_count, t.points


def _sites(seed, n):
    rng = np.random.default_rng(seed)
    return [tuple(map(int, p)) for p in rng.integers(-10**6, 10**6, size=(n, 2))]


@pytest.mark.parametrize("make,seeds,n", [(LabelField, range(5), 210),
                                         (tied_phases, range(2), 100)],
                         ids=["labels", "tied-phases"])
def test_baseline_query_matches_scalar_dfs(make, seeds, n):
    # same value, tracked radius, access count and points at every site
    for seed in seeds:
        fld = make(seed)
        for v in _sites(seed, n):
            want = _tracked_outcome(_dfs_baseline, fld, v, Budget())
            assert _tracked_outcome(baseline_percolation_4color, fld, v,
                                    Budget()) == want, (seed, v)


def test_baseline_query_censors_like_scalar_dfs():
    budget = Budget(radius_cap=3)
    censored = 0
    for seed in range(3):
        fld = LabelField(seed)
        for v in _sites(seed, 100):
            want = _tracked_outcome(_dfs_baseline, fld, v, budget)
            assert _tracked_outcome(baseline_percolation_4color, fld, v,
                                    budget) == want, (seed, v)
            censored += want == "radius"
    assert 0 < censored < 300


# ---------------------------------------------------------------------------
# oracles: the one-at-a-time loops the array passes replaced


def _ref_fixture_net(field, lo, hi, M, *, ensure=None, stream=CAND_STREAM):
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    d = len(lo)
    cell_lo = lo // M
    cell_hi = (hi - 1) // M
    ranges = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(cell_lo, cell_hi)]
    grids = np.meshgrid(*ranges, np.arange(CANDIDATES_PER_CELL, dtype=np.int64),
                        indexing="ij")
    cells = [g.ravel() for g in grids[:d]]
    cand = grids[d].ravel()
    axes = [c[:, None] for c in cells] + [cand[:, None], np.arange(d)[None, :]]
    offs = field.discrete_box(stream + ":pos", axes, M) - 1
    pos = np.stack(cells, axis=1) * M + offs
    prio = field.uniform_box(stream + ":prio", [*cells, cand])
    kept = np.empty_like(pos)
    k = 0
    for i in np.argsort(-prio, kind="stable"):
        p = pos[i]
        if k and (np.abs(kept[:k] - p).max(axis=1) <= M).any():
            continue
        kept[k] = p
        k += 1
    kept = kept[:k]
    if ensure is not None:
        elo = np.asarray(ensure[0], dtype=np.int64)
        ehi = np.asarray(ensure[1], dtype=np.int64)
        shape = tuple(int(x) for x in ehi - elo)
        covered = np.zeros(shape, dtype=bool)

        def paint(p):
            sl = tuple(slice(max(int(p[a] - M - elo[a]), 0),
                             min(int(p[a] + M + 1 - elo[a]), shape[a]))
                       for a in range(d))
            if all(s.start < s.stop for s in sl):
                covered[sl] = True

        for p in kept:
            paint(p)
        while not covered.all():
            gap = elo + np.array(
                np.unravel_index(int(np.argmax(~covered)), shape), dtype=np.int64)
            kept = np.vstack([kept, gap[None, :]])
            paint(gap)
    return kept[np.lexsort(kept.T[::-1])]


def _ref_net_coloring(centers, reach, field, stream=ORDER_STREAM):
    centers = np.asarray(centers, dtype=np.int64)
    n = len(centers)
    prio = np.array([field.uniform(stream, tuple(int(x) for x in c)) for c in centers])
    colors = np.zeros(n, dtype=np.int64)
    for i in np.argsort(-prio, kind="stable"):
        dist = np.abs(centers - centers[i]).max(axis=1)
        dist[i] = reach + 1
        used = {int(c) for c in colors[dist <= reach]} - {0}
        c = 1
        while c in used:
            c += 1
        colors[i] = c
    return colors


def _ref_prohibited(s, t, rt, M):
    d = len(s)
    out = set()
    ext_lo = t - rt
    ext_hi = t + rt
    for a in range(d):
        for level in (int(t[a]) + rt, int(t[a]) - rt - 1):
            for base in (level - int(s[a]), int(s[a]) - 1 - level):
                for r in range(max(base - 3, M), min(base + 3, 2 * M - 1) + 1):
                    ok = True
                    for i in range(d):
                        if i == a:
                            continue
                        gap = max(0, int(ext_lo[i]) - (int(s[i]) + r),
                                  (int(s[i]) - r) - int(ext_hi[i]))
                        if gap > 2:
                            ok = False
                            break
                    if ok:
                        out.add(r)
    return out


def _ref_least_radius(s, prev_centers, prev_radii, M):
    bad = set()
    for t, rt in zip(prev_centers, prev_radii):
        bad |= _ref_prohibited(s, t, int(rt), M)
    for r in range(M, 2 * M):
        if r not in bad:
            return r
    raise AssertionError("no admissible radius in [M, 2M); packing bound violated")


def _ref_assign_radii(centers, colors, M):
    centers = np.asarray(centers, dtype=np.int64)
    colors = np.asarray(colors, dtype=np.int64)
    n = centers.shape[0]
    reach = 4 * M + 3
    for i in range(n):
        dist = np.abs(centers - centers[i]).max(axis=1)
        dist[i] = reach + 1
        if (dist <= M).any():
            raise ValueError("centers violate hard-core packing at scale M")
        if ((dist <= reach) & (colors == colors[i])).any():
            raise ValueError(f"net coloring not proper at reach {reach}")
    radii = np.zeros(n, dtype=np.int64)
    fixed = np.zeros(n, dtype=bool)
    for j in np.unique(colors):
        cls = np.nonzero(colors == j)[0]
        chosen = {}
        for i in cls:
            dist = np.abs(centers - centers[i]).max(axis=1)
            near = np.nonzero(fixed & (dist <= 4 * M + 2))[0]
            chosen[int(i)] = _ref_least_radius(centers[i], centers[near], radii[near], M)
        for i, r in chosen.items():
            radii[i] = r
        fixed[cls] = True
    return radii


def _ref_cluster_phases(values, u):
    shape = values.shape
    nd = values.ndim
    parity = np.zeros(shape, dtype=np.int8)
    valid = np.ones(shape, dtype=bool)
    structure = ndimage.generate_binary_structure(nd, 1)
    coords = np.indices(shape)
    rim = np.ones(shape, dtype=bool)
    if all(e > 2 for e in shape):
        rim[tuple(slice(1, -1) for _ in range(nd))] = False
    for val in np.unique(values):
        mask = values == val
        lab, nlab = ndimage.label(mask, structure=structure)
        if nlab == 0:
            continue
        wpos = np.asarray(ndimage.maximum_position(
            u, labels=lab, index=np.arange(1, nlab + 1)), dtype=np.int64)
        wpos = wpos.reshape(nlab, nd)
        ok = np.ones(nlab + 1, dtype=bool)
        ok[np.unique(lab[rim & mask])] = False
        inmask = lab > 0
        l = lab[inmask]
        dist = np.zeros(l.shape, dtype=np.int64)
        for a in range(nd):
            dist += np.abs(coords[a][inmask] - wpos[l - 1, a])
        parity[inmask] = (dist % 2).astype(np.int8)
        valid[inmask] &= ok[l]
    return parity, valid


def _outcome(fn, *args, **kwargs):
    """The bytes of fn's arrays, or the type and message of what it raised."""
    try:
        out = fn(*args, **kwargs)
    except (AssertionError, ValueError) as e:
        return type(e).__name__, str(e)
    out = out if isinstance(out, tuple) else (out,)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in out)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(-300, 300),
       st.integers(1, 320), st.booleans())
def test_fixture_net_matches_thinning_loop(seed, d, corner, size, ensure):
    m = 40
    if d == 3:
        size = size // 2 + 1
    lo = np.array([corner, -corner // 2, corner // 3][:d])
    hi = lo + size + np.arange(d) * 7
    kw = {}
    if ensure:
        kw["ensure"] = (lo + size // 4, hi - size // 4)
        if (kw["ensure"][1] <= kw["ensure"][0]).any():
            kw["ensure"] = (lo, hi)
    fld = LabelField(seed)
    got = fixture_net(fld, lo, hi, m, **kw)
    want = _ref_fixture_net(fld, lo, hi, m, **kw)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 60),
       st.sampled_from([2, 3]), st.sampled_from(["net", "random", "clustered"]))
def test_net_coloring_and_radii_match_loops(seed, m, n, d, kind):
    rng = np.random.default_rng(seed)
    fld = LabelField(seed)
    if kind == "net":
        # a hard-core net at scale m, colored at reach 4m + 3
        centers = fixture_net(fld, (0,) * d, (12 * m,) * d, m)
    else:
        spread = 4 * m if kind == "clustered" else 30 * m
        centers = rng.integers(-spread, spread, size=(n, d))
    reach = 4 * m + 3
    colors = net_coloring(centers, reach, fld)
    assert np.array_equal(colors, _ref_net_coloring(centers, reach, fld))
    if kind == "random":
        colors = rng.integers(1, 4, size=len(centers))
    assert (_outcome(assign_radii, centers, colors, m)
            == _outcome(_ref_assign_radii, centers, colors, m))


def tied_order(seed):
    # `uniform` drops the low bits, so the floats tie everywhere and the raw
    # labels, which keep their low 11 bits, hardly
    return TiedLabels(seed, [ORDER_STREAM], _TOP3 | 0x7FF)


def _tracked_net(coloring, field, centers, origin, cap):
    """(colors, points, count, radius) of a tracked run, or what it raised."""
    tr = Tracker(origin, Budget(radius_cap=cap))
    try:
        colors = coloring(centers, 4 * 40 + 3, TrackedField(field, tr))
    except BudgetExceeded as e:
        return e.kind, e.limit, e.stream, e.where
    return colors.tobytes(), tr.points, tr.access_count, tr.radius


@pytest.mark.parametrize("make", [LabelField, tied_order], ids=["labels", "tied"])
def test_tracked_net_coloring_reads_like_the_scalar_loop(make):
    # one batched read records the points, count and radius of one scalar
    # read per center, and a cap among the centers stops both at one point
    raised = 0
    for seed in range(4):
        fld = make(seed)
        centers = fixture_net(fld, (-300, -200), (400, 500), 40)
        origin = (17, -9)
        reach = np.abs(centers - origin).sum(axis=1)
        for cap in (10**9, int(np.median(reach)), int(reach.min())):
            got = _tracked_net(net_coloring, fld, centers, origin, cap)
            assert got == _tracked_net(_ref_net_coloring, fld, centers, origin, cap)
            raised += got[0] == "radius"
    assert raised == 8


def test_radii_oracle_covers_every_outcome():
    # the cases the hypothesis test above must reach: radii, both ValueErrors
    # and a crowded class with no free radius left
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for m, spread in ((2, 6), (3, 40), (5, 200)):
            centers = np.unique(rng.integers(-spread, spread, size=(12, 2)), axis=0)
            for colors in (net_coloring(centers, 4 * m + 3, LabelField(seed)),
                           rng.integers(1, 4, size=len(centers))):
                got = _outcome(assign_radii, centers, colors, m)
                assert got == _outcome(_ref_assign_radii, centers, colors, m)
                outcomes.add(got[1].split()[0] if isinstance(got[0], str) else "radii")
    assert outcomes == {"radii", "centers", "net", "no"}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(40,), (9, 11), (2, 7), (5, 6, 4)]))
def test_cluster_phases_match_maximum_position(seed, shape):
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 3, size=shape)
    u = rng.permutation(values.size).reshape(shape) / values.size  # untied
    assert (_outcome(_cluster_phases, values, u)
            == _outcome(_ref_cluster_phases, values, u))
