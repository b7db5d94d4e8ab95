"""Almost colorings, elimination, tower, and nets.

The window engine and the demand engine are different programs computing the
same process; the deepest tests here pin them to each other and to literal
synchronous compositions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor.covfree import ColorSequence, build_cover_free_family
from ffcolor.field import Budget, BudgetExceeded, LabelField, tracked
from ffcolor.lattice import (
    FiniteGraph,
    LatticeSpec,
    Window,
    WindowGraph,
    cycle_graph,
    path_graph,
)
from ffcolor.reduction import (
    INF,
    LongRangeColoring,
    MNet,
    NetQuery,
    TowerQuery,
    almost_coloring,
    dilate_mask,
    elimination_sweep,
    greedy_fallback,
    net_packing_bound,
    net_window,
    tower_coloring,
)


def eliminate_color(x, a, g):
    """One synchronous pass replacing color a with the least color absent
    among neighbors.  Unresolved (0) vertices never match a and never block.
    """
    if a < 1:
        raise ValueError("colors are 1-based")
    out = x.copy()
    members = x == a
    if not members.any():
        return out
    nv = np.append(x, INF)[g.neighbor_matrix][members]
    assigned = np.zeros(int(members.sum()), dtype=np.int64)
    c = 1
    while (assigned == 0).any():
        free = (assigned == 0) & ~(nv == c).any(axis=1)
        assigned[free] = c
        c += 1
    out[members] = assigned
    return out


def eliminate_colors_synchronous(x, colors, g):
    """Literal composition of eliminate_color, colors applied first to last."""
    for a in colors:
        x = eliminate_color(x, a, g)
    return x


def _gather_any(mask, nbr):
    out = mask[np.clip(nbr, 0, None)]
    out[nbr < 0] = False
    return out.any(axis=1)


# ---------------------------------------------------------------------------
# almost colorings


def test_single_vertex_never_infinite():
    g = FiniteGraph.from_edges(1, [])
    for seed in range(30):
        for k in (1, 2, 3):
            ac = almost_coloring(g, k, field=LabelField(seed))
            assert ac.values[0] != INF


def test_two_adjacent_collision_rate():
    # both infinite iff the two level-1 labels collide: probability 1/n_1
    g = path_graph(2)
    n_seeds = 100_000
    both = 0
    for s in range(n_seeds):
        v = almost_coloring(g, 1, field=LabelField(s)).values
        both += v[0] == INF and v[1] == INF
        assert (v[0] == INF) == (v[1] == INF)
    n1 = 6  # delta defaults to 1 on a single edge
    p = both / n_seeds
    sd = math.sqrt((1 / n1) * (1 - 1 / n1) / n_seeds)
    assert abs(p - 1 / n1) <= 3 * sd


def test_window_infinite_fraction_within_bound():
    # interior fraction of unresolved sites obeys P <= delta/n_k + 3 sigma
    fld = LabelField(99)
    wg = WindowGraph.build(Window((0, 0), (128, 128)), 1, "l1")
    ac = almost_coloring(wg, 1, field=fld, delta=4)
    inner = wg.interior
    n = int(inner.sum())
    frac = float((ac.values[inner] == INF).mean())
    bound = 4 / 479
    assert frac <= bound + 3 * math.sqrt(bound * (1 - bound) / n)


def test_adjacent_finite_values_distinct_every_level():
    fld = LabelField(5)
    wg = WindowGraph.build(Window((0, 0), (48, 48)), 1, "l1")
    trace: list = []
    almost_coloring(wg, 3, field=fld, delta=4, trace=trace)
    el = wg.graph.edge_list()
    assert len(trace) == 3
    for z in trace:
        a, b = z[el[:, 0]], z[el[:, 1]]
        assert not np.any((a == b) & (a != INF))


def test_infinity_conservation_with_clean_family():
    # find a seed whose 8-sets-over-[40] family is exhaustively defect-free,
    # then check the reduction maps infinity to infinity and nothing else
    seq = ColorSequence(2, (40, 8))
    seed = None
    for s in range(50):
        fam = build_cover_free_family(8, 40, 2, LabelField(s))
        if fam.audit(delta=2)["bad"] == 0:
            seed = s
            break
    assert seed is not None
    fld = LabelField(seed)
    wg = WindowGraph.build(Window((0,), (3000,)), 1, "l1")  # degree 2 = delta
    trace: list = []
    almost_coloring(wg, 2, seq=seq, field=fld, delta=2, trace=trace)
    z2, z1 = trace
    assert (z2 == INF).any()  # collisions do happen at this scale
    assert np.array_equal(z1 == INF, z2 == INF)


@pytest.mark.parametrize("k", [2, 3])
def test_restricted_levels_equal_full_on_needed_sites(k):
    # level k computed only for `need` agrees with the whole-graph answer there
    fld = LabelField(31)
    wg = WindowGraph.build(Window((-40, -40), (80, 80)), 1, "l1")
    full = almost_coloring(wg, k, field=fld).values
    rs = np.random.default_rng(k)
    unresolved = almost_coloring(wg, 1, field=fld).values == INF
    for need in (rs.random(wg.graph.n) < 0.02, unresolved,
                 np.zeros(wg.graph.n, dtype=bool), np.ones(wg.graph.n, dtype=bool)):
        got = almost_coloring(wg, k, field=fld, need=need).values
        assert np.array_equal(got[need], full[need])
    assert np.array_equal(almost_coloring(wg, k, field=fld, need=None).values, full)


def test_level_beyond_sequence_rejected():
    with pytest.raises(ValueError):
        almost_coloring(path_graph(3), 9, seq=ColorSequence(2, (39,)),
                        field=LabelField(0))


# ---------------------------------------------------------------------------
# elimination


def test_eliminate_absent_color_is_identity():
    g = path_graph(4)
    x = np.array([1, 2, 1, 3])
    assert np.array_equal(eliminate_color(x, 7, g), x)


def test_eliminate_path_example():
    out = eliminate_color(np.array([5, 1, 5]), 5, path_graph(3))
    assert out.tolist() == [2, 1, 2]


def test_eliminate_ignores_unresolved():
    # unresolved neighbors neither match the target nor block color choice
    g = path_graph(3)
    out = eliminate_color(np.array([INF, 4, INF]), 4, g)
    assert out.tolist() == [INF, 1, INF]


@st.composite
def small_graph_colorings(draw):
    n = draw(st.integers(2, 9))
    edges = set()
    for _ in range(draw(st.integers(0, 2 * n))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    g = FiniteGraph.from_edges(n, sorted(edges))
    # proper on finite values
    colors = np.zeros(n, dtype=np.int64)
    for v in range(n):
        if draw(st.booleans()):
            continue  # leave unresolved
        taken = {colors[u] for u in g.neighbors(v)}
        choices = [c for c in range(1, 20) if c not in taken]
        colors[v] = draw(st.sampled_from(choices))
    return g, colors


@given(small_graph_colorings(), st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_eliminate_preserves_properness(gc, a):
    g, x = gc
    out = eliminate_color(x, a, g)
    el = g.edge_list()
    if len(el):
        fa, fb = out[el[:, 0]], out[el[:, 1]]
        assert not np.any((fa == fb) & (fa != INF))
    md = max(g.max_degree, 1)
    assert np.all(out[x == a] <= md + 1)
    assert np.array_equal(out == INF, x == INF)


@given(small_graph_colorings())
@settings(max_examples=100, deadline=None)
def test_sweep_equals_synchronous_composition(gc):
    g, x = gc
    floor = max(g.max_degree, 1) + 1
    # push colors up so some exceed the floor
    w = np.where(x > 0, x + floor - 1, 0)
    sweep = elimination_sweep(w, g, floor)
    top = int(w.max()) if w.size else 0
    comp = eliminate_colors_synchronous(w, range(top, floor, -1), g)
    assert np.array_equal(sweep, comp)


def test_sweep_equals_composition_on_window():
    rs = np.random.default_rng(3)
    g = WindowGraph.build(Window((0, 0), (14, 14)), 1, "l1").graph
    for _ in range(10):
        w = rs.integers(0, 60, size=g.n)
        el = g.edge_list()
        for a, b in el:
            while w[a] == w[b] and w[a] > 5:
                w[b] = rs.integers(6, 60)
        assert np.array_equal(
            elimination_sweep(w.copy(), g, 5),
            eliminate_colors_synchronous(w.copy(), range(int(w.max()), 5, -1), g))


def _greedy_loop(x, g, order, taint):
    # the one-vertex-at-a-time greedy the dependency rounds must reproduce
    for v in order:
        nbrs = g.neighbors(v)
        seen = set(x[nbrs].tolist())
        c = 1
        while c in seen:
            c += 1
        x[v] = c
        if taint is not None and taint[nbrs].any():
            taint[v] = True


def _desc(idx, key):
    # stable ascending sort, reversed: key descending, higher index first on ties
    return idx[np.argsort(key[idx], kind="stable")][::-1]


@st.composite
def irregular_graphs(draw):
    # isolated vertices, uneven degrees, improper starting values, tied keys
    n = draw(st.integers(1, 24))
    linked = draw(st.integers(0, n))
    edges = set()
    for _ in range(draw(st.integers(0, 3 * n))):
        a = draw(st.integers(0, max(linked - 1, 0)))
        b = draw(st.integers(0, max(linked - 1, 0)))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    g = FiniteGraph.from_edges(n, sorted(edges))
    x = np.array(draw(st.lists(st.integers(0, 14), min_size=n, max_size=n)),
                 dtype=np.int64)
    prio = np.array(draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]),
                                  min_size=n, max_size=n)))
    taint = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return g, x, prio, taint


@given(irregular_graphs(), st.integers(0, 15))
@settings(max_examples=300, deadline=None)
def test_sweep_rounds_equal_sequential_loop(gx, floor):
    # floor may sit below maxdeg + 1 and the input may be improper, so pending
    # neighbors really block with their current values; floor 15 leaves the
    # order empty
    g, x, _, taint = gx
    want, want_taint = x.copy(), taint.copy()
    _greedy_loop(want, g, _desc(np.nonzero(x > floor)[0], x), want_taint)
    got_taint = taint.copy()
    got = elimination_sweep(x, g, floor, taint=got_taint)
    assert np.array_equal(got, want) and np.array_equal(got_taint, want_taint)
    assert np.array_equal(elimination_sweep(x, g, floor), want)


@given(irregular_graphs())
@settings(max_examples=300, deadline=None)
def test_fallback_rounds_equal_sequential_loop(gx):
    g, x, prio, taint = gx
    x = np.where(x > 9, INF, x)
    want, want_taint = x.copy(), taint.copy()
    _greedy_loop(want, g, _desc(np.nonzero(x == INF)[0], prio), want_taint)
    got_taint = taint.copy()
    got, fb = greedy_fallback(x, g, prio, taint=got_taint)
    assert np.array_equal(got, want) and np.array_equal(got_taint, want_taint)
    assert np.array_equal(fb, x == INF)


def test_sweep_rounds_equal_sequential_loop_on_window():
    # many rounds deep: random pre-colors on a window, proper above the floor
    rs = np.random.default_rng(8)
    g = WindowGraph.build(Window((0, 0), (40, 40)), 2, "l1").graph
    for _ in range(5):
        x = rs.integers(0, 200, size=g.n)
        el = g.edge_list()
        for a, b in el:
            while x[a] == x[b] and x[a] > 13:
                x[b] = rs.integers(14, 200)
        taint = rs.random(g.n) < 0.05
        want, want_taint = x.copy(), taint.copy()
        _greedy_loop(want, g, _desc(np.nonzero(x > 13)[0], x), want_taint)
        got = elimination_sweep(x, g, 13, taint=taint)
        assert np.array_equal(got, want) and np.array_equal(taint, want_taint)


def test_greedy_fallback_colors_everything_properly():
    g = cycle_graph(9)
    x = np.zeros(9, dtype=np.int64)
    x[0] = 2
    prio = np.linspace(0.1, 0.9, 9)
    out, fb = greedy_fallback(x, g, prio)
    assert fb.sum() == 8 and (out > 0).all()
    for a, b in g.edge_list():
        assert out[a] != out[b]
    assert out.max() <= 3


# ---------------------------------------------------------------------------
# tower


def test_tower_isolated_vertex():
    g = FiniteGraph.from_edges(1, [])
    tw = tower_coloring(g, LabelField(0))
    assert tw.colors[0] == 1 and tw.level[0] == 1


def test_tower_window_proper_and_bounded():
    for seed in (0, 1):
        wg = WindowGraph.build(Window((-32, -32), (64, 64)), 1, "l1")
        tw = tower_coloring(wg, LabelField(seed))
        el = wg.graph.edge_list()
        assert not np.any(tw.colors[el[:, 0]] == tw.colors[el[:, 1]])
        assert tw.colors.min() >= 1 and tw.colors.max() <= tw.delta + 1
        assert tw.delta == 4 and tw.seq.n[0] == 479


def test_tower_on_plain_graphs():
    tw = tower_coloring(cycle_graph(7), LabelField(4))
    assert tw.colors.max() <= 3  # odd cycle needs all of delta+1
    diffs = np.diff(np.r_[tw.colors, tw.colors[0]])
    assert np.all(diffs != 0)
    tw2 = tower_coloring(path_graph(30), LabelField(4))
    assert np.all(np.diff(tw2.colors) != 0) and tw2.colors.max() <= 3


def test_tower_unresolved_rate_per_level():
    # empirical P(unresolved after level 1) within the delta/n_1 bound
    wg = WindowGraph.build(Window((0, 0), (180, 180)), 1, "l1")
    tw = tower_coloring(wg, LabelField(12))
    inner = wg.interior
    frac = float((tw.level[inner] > 1).mean())
    bound = 4 / 479
    n = int(inner.sum())
    assert frac <= bound + 3 * math.sqrt(bound * (1 - bound) / n)


def test_tower_demand_matches_window():
    fld = LabelField(12345)
    wg = WindowGraph.build(Window((-20, -20), (40, 40)), 1, "l1")
    tw = tower_coloring(wg, fld)
    q = TowerQuery(fld, LatticeSpec(2, 1, "l1"))
    rng = np.random.default_rng(0)
    idx = rng.choice(np.nonzero(~tw.tainted)[0], size=80, replace=False)
    for i in idx:
        c, lv = q.color(tuple(wg.coords[i]))
        assert c == tw.colors[i] and lv == tw.level[i]


def test_tower_demand_matches_window_d1_m2():
    fld = LabelField(77)
    wg = WindowGraph.build(Window((0,), (300,)), 2, "l1")
    tw = tower_coloring(wg, fld)
    q = TowerQuery(fld, LatticeSpec(1, 2, "l1"))
    for i in range(4, 296, 13):
        if tw.tainted[i]:
            continue
        c, lv = q.color(tuple(wg.coords[i]))
        assert c == tw.colors[i] and lv == tw.level[i]


def test_tower_tracked_radius_within_bound():
    spec = LatticeSpec(2, 1, "l1")
    fld = LabelField(5)
    n1 = 479
    for i in range(60):
        v = (i * 37 % 257 - 128, i * 53 % 257 - 128)
        ev = tracked(lambda f: TowerQuery(f, spec).color(v), fld, v, Budget())
        _, lv = ev.value
        if lv > 0:
            assert ev.radius <= n1 * lv + 1
        assert ev.access_count > 0


def test_tower_budget_enforced():
    spec = LatticeSpec(2, 1, "l1")
    fld = LabelField(5)
    with pytest.raises(BudgetExceeded):
        tracked(lambda f: TowerQuery(f, spec).color((0, 0)),
                fld, (0, 0), Budget(radius_cap=0))


def test_long_range_window_distinct_within_m():
    fld = LabelField(21)
    lr = LongRangeColoring(1, 2, "l1", fld)
    assert lr.q == 5
    tw = lr.window(Window((0,), (400,)))
    c = tw.colors
    for i in range(400):
        for j in range(i + 1, min(i + 3, 400)):
            assert c[i] != c[j]


def test_long_range_linf_blocks_distinct():
    fld = LabelField(22)
    lr = LongRangeColoring(2, 1, "linf", fld)
    assert lr.q == 9
    tw = lr.window(Window((0, 0), (40, 40)))
    grid = tw.colors.reshape(40, 40)
    ok = ~tw.tainted.reshape(40, 40)
    for i in range(38):
        for j in range(38):
            if ok[i:i + 2, j:j + 2].all():
                blk = grid[i:i + 2, j:j + 2].ravel()
                assert len(set(blk.tolist())) == 4


def test_line_restriction_is_range_m_coloring():
    fld = LabelField(23)
    wg = WindowGraph.build(Window((0, 0), (60, 60)), 2, "l1")
    tw = tower_coloring(wg, fld, stream_prefix="net")
    grid = tw.colors.reshape(60, 60)
    row = grid[30]
    for i in range(58):
        assert row[i] != row[i + 1] and row[i] != row[i + 2]


# ---------------------------------------------------------------------------
# nets


def test_net_matches_literal_cascade():
    # the scan-by-class engine must equal E_1 E_2 ... E_q applied to X
    for seed, m, d in ((0, 1, 1), (1, 1, 2), (2, 2, 1)):
        fld = LabelField(seed)
        win = Window((0,) * d, (24,) * d if d == 2 else (90,))
        wg = WindowGraph.build(win, m, "l1")
        nw = net_window(wg, fld)
        y = nw.colors.copy()
        for a in range(nw.q, 0, -1):
            y = eliminate_color(y, a, wg.graph)
        assert np.array_equal(nw.indicator, y == 1)


def test_net_packing_and_covering():
    fld = LabelField(9)
    wg = WindowGraph.build(Window((-24, -24), (48, 48)), 1, "l1")
    nw = net_window(wg, fld)
    el = wg.graph.edge_list()
    assert not np.any(nw.indicator[el[:, 0]] & nw.indicator[el[:, 1]])
    nbr = wg.graph.neighbor_matrix
    covered = nw.indicator | _gather_any(nw.indicator, nbr)
    good = ~nw.tainted & wg.interior
    assert covered[good].all()
    # maximality is covering restated: any 0 flipped to 1 would sit within m of a 1
    zeros = good & ~nw.indicator
    assert _gather_any(nw.indicator, nbr)[zeros].all()


def test_net_demand_matches_window():
    fld = LabelField(12345)
    wg = WindowGraph.build(Window((-20, -20), (40, 40)), 1, "l1")
    nw = net_window(wg, fld)
    nq = NetQuery(fld, LatticeSpec(2, 1, "l1"))
    rng = np.random.default_rng(1)
    idx = rng.choice(np.nonzero(~nw.tainted)[0], size=80, replace=False)
    for i in idx:
        assert nq.indicator(tuple(wg.coords[i])) == bool(nw.indicator[i])


def test_net_gap_law_d1():
    # consecutive 1's on the line sit at distance m+1 .. 2m+1
    for m in (1, 2, 5):
        net = MNet(1, m, "l1", LabelField(31 + m))
        nw = net.window(Window((0,), (4000,)))
        ones = np.nonzero(nw.indicator)[0]
        for a, b in zip(ones, ones[1:]):
            if nw.tainted[a:b + 1].any():
                continue
            assert m + 1 <= b - a <= 2 * m + 1


def test_net_demand_tracked_and_deterministic():
    spec = LatticeSpec(1, 2, "l1")
    fld = LabelField(8)
    vals = [tracked(lambda f: NetQuery(f, spec).indicator((i,)), fld, (i,), Budget())
            for i in range(40)]
    ones = [i for i, e in enumerate(vals) if e.value]
    gaps = np.diff(ones)
    assert all(3 <= g <= 5 for g in gaps)
    again = [NetQuery(fld, spec).indicator((i,)) for i in range(40)]
    assert [e.value for e in vals] == again


def test_net_count_bound():
    # net points within distance c*m of any site versus the volume bound
    fld = LabelField(40)
    wg = WindowGraph.build(Window((-30, -30), (60, 60)), 1, "l1")
    nw = net_window(wg, fld)
    grid = nw.indicator.reshape(60, 60)
    c = 3
    bound = net_packing_bound(2, 1, c)
    from ffcolor.lattice import ball_offsets

    offs = np.array(ball_offsets(2, c, "l1"))
    for i in range(c, 60 - c):
        for j in range(c, 60 - c, 7):
            pts = grid[offs[:, 0] + i, offs[:, 1] + j].sum()
            assert pts <= bound


def test_packing_bound_values():
    assert net_packing_bound(1, 1, 3) == 7   # 2c*m+1 points, ball(0) size 1
    assert net_packing_bound(2, 2, 2) >= 1
