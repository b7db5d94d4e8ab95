"""Distributed-coloring pipeline: almost colorings, elimination, tower, nets.

Values use 0 as the "unresolved" sentinel (rendered as infinity elsewhere);
real colors are 1-based.

Two engines compute the same processes:

* window engine: array passes over a finite graph's padded neighbor matrix
  (usually that of a lattice window), carrying a conservative taint mask that
  marks vertices whose value may differ from the infinite-lattice value
  because the window ends;
* demand engine: per-vertex recursion on the infinite lattice, reading labels
  through whatever field it is handed, so a tracked field yields an honest
  per-query access record.

The two agree pointwise wherever the window is untainted; tests enforce that.

The window engine reads neighbor rows column by column.  Every per-row
`any` or count over the neighbor matrix, or over a matrix gathered through
it (dilations, collision tests, counts of neighbors ahead, taint), is
`lattice.row_count`, and the set-family union gathers one neighbor column's
words at a time.  A lattice window's rows are 2 to 8 entries wide, and
numpy's `any(axis=1)` over such a short last axis costs many times its
data: on 40 windows of 112^2 it took 18% of `tower_coloring` and
`sum(axis=1)` another 3% (cProfile), where `row_count` takes 5%.

The elimination cascade is never materialized as one synchronous pass per
color.  Replacement colors always land in [degree+1], strictly below any
color still waiting to be eliminated, so vertices can be processed one color
class at a time from the largest class down; within a class members are
non-adjacent (the input is proper on its finite values) and cannot interact.
The tests check this against a literal one-pass-per-color composition.

That largest-first pass, like the greedy fallback, is a sequential greedy
over a vertex order, and it runs in dependency rounds: a vertex waits only
for its neighbors ahead of it in the order.  Each round takes every pending
vertex with no pending neighbor ahead of it; two such vertices are never
adjacent, so a round is an independent set, and each member sees exactly the
neighbor values and taint the one-at-a-time pass would show it.  The order
is never sorted: each vertex compares (key, index) pairs with its neighbors.
`greedy_independent_set` is the same greedy cut to its first color class,
the set random-order greedy keeps, settled in keep/drop rounds.

Level k of the tower only decides sites still unresolved after level k-1
(about delta/n_{k-1} of them).  Its almost coloring reads labels and tests
collisions over the whole window, but reduction step i computes only the
(i-1)-fold dilation of the unresolved set, which is all the values there
depend on.

Entry points, one per engine:

* tower: `tower_coloring(g, field)` on a window or finite graph, and
  `TowerQuery(field, spec).color(v)` (or `tower_color_at`) on demand;
* net: `net_window(g, field)` and `NetQuery(field, spec).indicator(v)`;
* `almost_coloring`, `elimination_sweep` and `greedy_fallback` are the
  window engine's stages, public so they can be tested and traced alone;
  `almost_coloring` returns its plain int64 value array, INF on collisions.

The degree Delta is always the input's own (the lattice spec's, or a bare
graph's maximum degree), and both tower engines take their levels n_1..n_K
from one cached `covfree.tower_schedule(Delta, kmax)`.  `MNet` is a thin
window-only handle on `net_window` for a lattice given by (d, m, norm): the
subshift sampler draws its nets through `MNet.window`, and that name is where
span tracing counts the sampler's net draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covfree import ColorSequence, SetFamily, color_sequence, family_rows, \
    least_members, tower_schedule
from .lattice import FiniteGraph, LatticeSpec, Window, WindowGraph, ball_size, \
    row_count

INF = 0  # sentinel for "no color" / infinity


# ---------------------------------------------------------------------------
# shared helpers


def dilate_mask(mask: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """mask or any-neighbor-in-mask; padding (-1) reads False."""
    return mask | row_count(np.append(mask, False)[nbr], bool)


def _as_parts(g):
    """(graph, label axes, full-degree mask, degree delta) for either input.

    A bare FiniteGraph is taken as the whole object of study: labels are keyed
    by vertex index and nothing is tainted by truncation.  A WindowGraph is a
    view of the lattice: labels are keyed by lattice coordinates, read as a
    box over the window and raveled to vertex order, and vertices missing
    neighbors get full=False.
    """
    if isinstance(g, WindowGraph):
        return (g.graph, g.window.ix_axes(), g.interior.copy(),
                ball_size(g.window.d, g.m, g.norm) - 1)
    axes = [np.arange(g.n, dtype=np.int64)]
    return g, axes, np.ones(g.n, dtype=bool), max(g.max_degree, 1)


# ---------------------------------------------------------------------------
# almost colorings


def almost_coloring(g, k: int, field, seq: ColorSequence | None = None,
                    stream: str = "tower:u", trace: list | None = None, *,
                    need: np.ndarray | None = None,
                    families: dict[int, SetFamily] | None = None) -> np.ndarray:
    """Level-k almost coloring, returned as its int64 value array: labels in
    [n_k], collisions to infinity (INF), then k-1 set-family reductions down
    to [n_1].  Adjacent finite values never agree, at any intermediate level
    (each value excludes the whole set its neighbor picked from).  If
    `trace` is a list, the intermediate value arrays are appended, levels k
    down to 1.

    Delta is g's degree and `seq` defaults to color_sequence(Delta, k).
    `families` maps each reduction step i to its family; steps missing from
    it are built into it, so levels sharing one field and `seq` can share
    one dict.

    `need` is a vertex mask, all vertices when None.  Reduction step i then
    runs only on the (i-1)-fold dilation of `need`, which is all that the
    values on `need` depend on, so values are exact only on `need`; elsewhere
    they may read INF.
    """
    graph, axes, _, delta = _as_parts(g)
    if seq is None:
        seq = color_sequence(delta, k)
    if k > seq.kmax:
        raise ValueError(f"level {k} beyond materialized sequence {seq.n}")
    if families is None:
        families = {}
    nbr = graph.neighbor_matrix
    z = np.asarray(field.discrete_box(stream, axes, seq.n_k(k)), dtype=np.int64).ravel()
    collide = row_count(np.append(z, INF)[nbr] == z[:, None], bool)
    z = np.where(collide, INF, z)
    if trace is not None:
        trace.append(z.copy())
    mask = np.ones(graph.n, dtype=bool) if need is None else np.asarray(need, dtype=bool)
    rows = []  # rows[i - 1] indexes the vertices reduction step i computes
    for i in range(1, k):
        if i > 1:
            mask = dilate_mask(mask, nbr)
        rows.append(np.flatnonzero(mask))
    for i in range(k - 1, 0, -1):
        fam = families.get(i)
        if fam is None:
            fam = families[i] = SetFamily.build(
                field, delta, i, ground=seq.n_k(i), nsets=seq.n_k(i + 1))
        ext = np.vstack([np.zeros((1, fam.nwords), dtype=np.uint64), fam.words])
        r = rows[i - 1]
        own = ext[z[r]]
        union = np.zeros_like(own)
        zx = np.append(z, INF)  # padding reads INF, the empty set
        for col in nbr[r].T:
            union |= ext[zx[col]]
        z = np.full(graph.n, INF, dtype=np.int64)
        z[r] = fam.reduce_min(own, union)
        if trace is not None:
            trace.append(z.copy())
    return z


# ---------------------------------------------------------------------------
# color elimination


def _least_absent(seen) -> int:
    """Least color >= 1 not in `seen`; the 0 sentinel never blocks."""
    c = 1
    while c in seen:
        c += 1
    return c


def _ahead(nbr: np.ndarray, todo: np.ndarray, key: np.ndarray, later_first: bool):
    """(at, rows, ahead, behind) for the vertices of `todo`, increasing
    indices: `at[v]` is v's row in `rows`, which is `nbr[todo]`; `ahead[v]`
    counts v's neighbors in `todo` that come first in the order of
    decreasing key; `behind` holds each row's neighbors in `todo` that come
    later, and n everywhere else.  Equal keys are ordered by index, the
    later vertex first if `later_first`, else the earlier one.  Padding is
    neither.  `at` and `ahead` have n + 1 entries, the last for padding.

    This compares (key, index) pairs of neighbors directly, so it gives the
    ranks a stable sort of `todo` would give without sorting it.
    """
    n = len(nbr)
    rows = nbr[todo]
    member = np.zeros(n + 1, dtype=bool)  # the last entry reads padding
    member[todo] = True
    pending = member[rows]
    kn, kv = key[rows], key[todo][:, None]
    tie = rows > todo[:, None] if later_first else rows < todo[:, None]
    first = pending & ((kn > kv) | ((kn == kv) & tie))
    pending &= ~first
    at = np.zeros(n + 1, dtype=np.int64)
    at[todo] = np.arange(len(todo))
    ahead = np.zeros(n + 1, dtype=np.int64)
    ahead[todo] = row_count(first)
    return at, rows, ahead, n + (rows - n) * pending


def _greedy(x: np.ndarray, g: FiniteGraph, todo: np.ndarray, key: np.ndarray,
            taint: np.ndarray | None, *, later_first: bool) -> None:
    """Give each vertex of `todo` (increasing indices), in decreasing order
    of `key` (ties as in `_ahead`), the least color absent among its
    neighbors, in place.  If `taint` is given it is updated in place: a
    recolored vertex becomes tainted when any neighbor it consulted was.

    Runs in dependency rounds (see the module docstring): `ahead[v]` counts
    v's pending neighbors ahead of it, and a round takes every vertex whose
    count is 0.  A neighbor still pending blocks with its current value, as
    it would one vertex at a time.
    """
    todo = np.asarray(todo, dtype=np.int64)
    nbr = g.neighbor_matrix
    n = g.n
    top = nbr.shape[1] + 1  # the least absent color is at most maxdeg + 1
    # n + 1 entries each, so the padding index -1 reads a neutral last entry:
    # value 0 never blocks, taint is False.  Values are clipped to
    # [0, top] once, as they block: every color given is in [1, top].
    val = np.clip(np.append(x, INF), INF, top).astype(np.int64)
    tnt = None if taint is None else np.append(taint, False)
    at, rows, ahead, behind_of = _ahead(nbr, todo, np.asarray(key), later_first)
    line = np.arange(len(todo))[:, None]
    ready = todo[ahead[todo] == 0]
    while len(ready):
        r = at[ready]
        vn = rows[r]
        seen = np.zeros((len(ready), top + 1), dtype=bool)
        seen[line[:len(ready)], val[vn]] = True
        if tnt is not None:
            tnt[ready] |= row_count(tnt[vn], bool)
        # the least color >= 1 absent; one of 1..top always is
        val[ready] = seen[:, 1:].argmin(axis=1) + 1
        # the padding's count n only falls below 0, so n is never ready
        behind = np.bincount(behind_of[r].ravel(), minlength=n + 1)
        ahead -= behind
        ready = np.flatnonzero((behind > 0) & (ahead == 0))
    x[todo] = val[todo]
    if taint is not None:
        taint[todo] = tnt[todo]


def greedy_independent_set(g: FiniteGraph, key: np.ndarray) -> np.ndarray:
    """Mask of the independent set that random-order greedy keeps: each
    vertex, in decreasing order of `key` and the lower index first on a tie,
    is kept unless a neighbor was kept before it.  This is color class 1 of
    `_greedy` from an all-zero start.

    Runs in rounds, as the local simulation of Nguyen and Onak (FOCS 2008)
    settles a vertex: a pending vertex is dropped as soon as a neighbor
    ahead of it is kept, and kept once every neighbor ahead of it is
    dropped.  `ahead[v]` counts v's neighbors ahead of it not yet dropped;
    each round keeps the vertices whose count is 0, drops their pending
    neighbors behind them, and takes those drops off the counts.  The rounds
    follow chains of keep-then-drop decisions, far fewer than the longest
    decreasing-key path a full greedy coloring waits for.
    """
    n = g.n
    # every vertex is in the order, so its row in `behind_of` is its index
    _, _, ahead, behind_of = _ahead(g.neighbor_matrix, np.arange(n), np.asarray(key),
                                    later_first=False)
    state = np.zeros(n + 1, dtype=np.int8)  # 0 pending, 1 kept, 2 dropped
    state[n] = 2  # padding is never dropped anew
    keep = np.flatnonzero(ahead[:n] == 0)
    while len(keep):
        state[keep] = 1
        hit = np.zeros(n + 1, dtype=bool)
        hit[behind_of[keep]] = True
        drop = np.flatnonzero(hit & (state == 0))
        state[drop] = 2
        # the padding's count n only falls below 0, so n is never kept
        gone = np.bincount(behind_of[drop].ravel(), minlength=n + 1)
        ahead -= gone
        keep = np.flatnonzero((gone > 0) & (ahead == 0))
    return state[:n] == 1


def elimination_sweep(w: np.ndarray, g: FiniteGraph, floor: int,
                      taint: np.ndarray | None = None) -> np.ndarray:
    """Eliminate every color above `floor`, largest first, vertex by vertex.

    Equal to one synchronous pass per color, max(w) down to floor+1, each
    giving that color's vertices the least color absent among their
    neighbors: replacements land in [floor] and are never re-targeted, and
    same-color vertices are never adjacent.  `taint` is updated as in `_greedy`.
    """
    x = w.astype(np.int64, copy=True)
    # largest color first, and the higher index first within a color
    _greedy(x, g, np.flatnonzero(x > floor), x, taint, later_first=True)
    return x


def greedy_fallback(x: np.ndarray, g: FiniteGraph, prio: np.ndarray,
                    taint: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Color unresolved vertices, highest dedicated priority first.

    Each takes the least color absent among already-colored neighbors;
    lower-priority unresolved neighbors are pending and do not block.
    Returns (colors, fallback mask).
    """
    x = x.copy()
    un = np.flatnonzero(x == INF)
    # highest priority first, and the higher index first on a tie
    _greedy(x, g, un, prio, taint, later_first=True)
    mask = np.zeros(len(x), dtype=bool)
    mask[un] = True
    return x, mask


# ---------------------------------------------------------------------------
# tower coloring, window engine


@dataclass
class TowerWindow:
    colors: np.ndarray      # int64, >= 1 everywhere after fallback
    level: np.ndarray       # level that resolved each vertex; 0 = fallback
    tainted: np.ndarray     # True = value may differ from the infinite lattice
    delta: int
    kmax: int
    seq: ColorSequence
    fallback_count: int


def tower_coloring(g, field, kmax: int = 3,
                   stream_prefix: str = "tower") -> TowerWindow:
    """Stack almost colorings over the levels of `tower_schedule(delta,
    kmax)`, eliminating oversized colors after each level; a greedy fallback
    colors whatever is still unresolved.  Output is a proper
    (delta+1)-coloring of g, delta being g's degree.
    """
    graph, axes, full, delta = _as_parts(g)
    seq = tower_schedule(delta, kmax)
    families: dict[int, SetFamily] = {}
    nbr = graph.neighbor_matrix

    x = np.zeros(graph.n, dtype=np.int64)
    level = np.zeros(graph.n, dtype=np.int64)
    xtaint = np.zeros(graph.n, dtype=bool)
    ytaint = ~full
    for k in range(1, seq.kmax + 1):
        # level k only decides sites unresolved so far
        y = almost_coloring(g, k, field, seq, f"{stream_prefix}:u",
                            need=x == INF, families=families)
        if k > 1:
            ytaint = dilate_mask(ytaint, nbr)  # (k-1)-fold dilation of ~full
        w = np.where(x > 0, x, np.where(y > 0, y + delta + 1, INF))
        staint = xtaint | ((x == INF) & ytaint)
        x2 = elimination_sweep(w, graph, floor=delta + 1, taint=staint)
        xtaint = staint | ((w != x2) & ~full)
        x = x2
        level = np.where((level == 0) & (x > 0), k, level)
    prio = field.uniform_box(f"{stream_prefix}:prio", axes).ravel()
    fb_needed = int((x == INF).sum())
    ftaint = xtaint.copy()
    x, fb = greedy_fallback(x, graph, prio, taint=ftaint)
    tainted = ftaint | (fb & ~full)
    return TowerWindow(x, level, tainted, delta, seq.kmax, seq, fb_needed)


# ---------------------------------------------------------------------------
# tower coloring, demand engine


class TowerQuery:
    """Demand evaluation of the tower at single lattice sites.

    Elimination recurses only into neighbors whose pre-color is strictly
    larger, which reproduces the largest-first cascade exactly; the walk is
    collected iteratively so long chains cannot blow the stack.

    A query keeps, per site, its one uniform and its neighbor list.  The
    uniform is read through the field the first time any level needs the
    site's base label, and each level's label ceil(n_k * u), clipped to
    [n_k] as `discrete_box` computes it, is derived from it when that level
    first needs it.  Neighbor lists come from `LatticeSpec.neighbors`, once
    per site.  Neither memo adds, drops or reorders a read: each site's
    uniform is read once, at its first use, so the value, the tracked
    points, the access count, the radius and any budget overrun are those
    of reading every label where it is first needed.  The per-level memos
    (labels, reduced values z, colors x) are one dict per level keyed by
    site, so a lookup hashes the site alone.
    """

    def __init__(self, field, spec: LatticeSpec, kmax: int = 3,
                 stream_prefix: str = "tower"):
        self.fld = field
        self.spec = spec
        self.delta = spec.degree
        self.seq = tower_schedule(self.delta, kmax)
        self.kmax = self.seq.kmax
        self._ustream = f"{stream_prefix}:u"
        self._pstream = f"{stream_prefix}:prio"
        self._n = (0,) + self.seq.n  # n_k at index k
        self._u: dict[tuple, float] = {}
        self._nbrs: dict[tuple, list[tuple]] = {}
        # per-level memos, indexed [k] (labels, x) or [k][i - 1] for the
        # 1 <= i <= k that z takes, keyed by site
        levels = range(self.kmax + 1)
        self._labels: list[dict[tuple, int]] = [{} for _ in levels]
        self._z: list[list[dict[tuple, int]]] = [[{} for _ in range(k)] for k in levels]
        self._x: list[dict[tuple, int]] = [{} for _ in levels]
        self._rows: dict[tuple, np.ndarray] = {}
        self._fb: dict[tuple, int] = {}

    def neighbors(self, v) -> list[tuple]:
        """`spec.neighbors(v)`, built once per site and query."""
        nb = self._nbrs.get(v)
        if nb is None:
            nb = self._nbrs[v] = self.spec.neighbors(v)
        return nb

    def _label(self, k: int, v) -> int:
        u = self._u.get(v)
        if u is None:
            u = self._u[v] = self.fld.uniform(self._ustream, v)
        nk = self._n[k]
        lab = self._labels[k][v] = min(max(math.ceil(nk * u), 1), nk)
        return lab

    def _base(self, k: int, v) -> int:
        labels = self._labels[k]  # every label is >= 1, so `or` reads a miss
        mine = labels.get(v) or self._label(k, v)
        for u in self.neighbors(v):
            if (labels.get(u) or self._label(k, u)) == mine:
                return INF
        return mine

    def _row(self, i: int, j: int) -> np.ndarray:
        key = (i, j)
        if key not in self._rows:
            self._rows[key] = family_rows(
                self.fld, f"family:d{self.delta}/l{i}", [j - 1], self.seq.n_k(i))[0]
        return self._rows[key]

    def _zval(self, k: int, i: int, v) -> int:
        memo = self._z[k][i - 1]
        out = memo.get(v)
        if out is not None:
            return out
        if i == k:
            out = self._base(k, v)
        else:
            mine = self._zval(k, i + 1, v)
            if mine == INF:
                out = INF
            else:
                rest = self._row(i, mine).copy()
                for u in self.neighbors(v):
                    zu = self._zval(k, i + 1, u)
                    if zu != INF:
                        rest &= ~self._row(i, zu)
                out = int(least_members(rest[None])[0])
        memo[v] = out
        return out

    def _w(self, k: int, v) -> int:
        xprev = self._xval(k - 1, v) if k > 1 else INF
        if xprev != INF:
            return xprev
        y = self._zval(k, 1, v)
        return y + self.delta + 1 if y != INF else INF

    def _xval(self, k: int, v) -> int:
        xk = self._x[k]
        x = xk.get(v)
        if x is not None:
            return x
        w = self._w(k, v)
        top = self.delta + 1
        if w == INF or w <= top:
            xk[v] = w
            return w
        # closure of strictly-increasing pre-color walks, then resolve downward
        need = {v: w}
        stack = [v]
        while stack:
            a = stack.pop()
            wa = need[a]
            for u in self.neighbors(a):
                if u in need or u in xk:
                    continue
                wu = self._w(k, u)
                if wu == INF or wu <= top:
                    continue
                if wu == wa:
                    raise AssertionError("adjacent equal pre-colors")
                if wu > wa:
                    need[u] = wu
                    stack.append(u)
        for a in sorted(need, key=need.get, reverse=True):
            seen = set()
            for u in self.neighbors(a):
                xu = xk.get(u)
                if xu is None:  # pending neighbors above delta+1 do not block
                    wu = self._w(k, u)
                    xu = wu if wu <= top else INF
                seen.add(xu)
            xk[a] = _least_absent(seen)
        return xk[v]

    def _fallback(self, v) -> int:
        if v in self._fb:
            return self._fb[v]
        region = {v: float(self.fld.uniform(self._pstream, v))}
        border: dict[tuple, int] = {}
        stack = [v]
        while stack:
            a = stack.pop()
            for u in self.neighbors(a):
                if u in region or u in border:
                    continue
                xu = self._xval(self.kmax, u)
                if xu == INF:
                    region[u] = float(self.fld.uniform(self._pstream, u))
                    stack.append(u)
                else:
                    border[u] = xu
        for a in sorted(region, key=region.get, reverse=True):
            self._fb[a] = _least_absent(
                {self._fb.get(u, border.get(u, INF)) for u in self.neighbors(a)})
        return self._fb[v]

    def color(self, v) -> tuple[int, int]:
        """(color, level); level 0 means the greedy fallback resolved it."""
        v = tuple(int(c) for c in v)
        for k in range(1, self.kmax + 1):
            x = self._xval(k, v)
            if x != INF:
                return x, k
        return self._fallback(v), 0


def tower_color_at(field, v, spec: LatticeSpec, kmax: int = 3) -> tuple[int, int]:
    return TowerQuery(field, spec, kmax).color(v)


# ---------------------------------------------------------------------------
# nets


@dataclass
class NetWindow:
    indicator: np.ndarray
    colors: np.ndarray
    tainted: np.ndarray
    q: int


def net_window(g, field) -> NetWindow:
    """m-net on a window: greedy independent set scanned by color class.

    Original 1's always stand (no two are adjacent); each later class q, q-1,
    ..., 2 joins exactly its members with no current 1 in their ball.  A
    vertex recolored away from its class has a 1-neighbor from that moment
    on, so it can never join later: scanning original classes once is exact.
    """
    tw = tower_coloring(g, field, stream_prefix="net")
    graph, _, full, _ = _as_parts(g)
    q = tw.delta + 1
    x = tw.colors
    nbr = graph.neighbor_matrix
    joined = np.zeros(graph.n, dtype=bool)
    # one spare last entry absorbs the padding index -1 of nbr
    blocked = np.zeros(graph.n + 1, dtype=bool)
    taint = tw.tainted.copy()

    def take(mask):
        joined[mask] = True
        blocked[nbr[mask]] = True

    take(x == 1)
    for a in range(q, 1, -1):
        cls = x == a
        taint |= cls & (dilate_mask(taint, nbr) | ~full)
        take(cls & ~blocked[:-1])
    return NetWindow(joined, x, taint, q)


class NetQuery:
    """Demand evaluation of the net indicator at single sites."""

    def __init__(self, field, spec: LatticeSpec):
        self.tower = TowerQuery(field, spec, stream_prefix="net")
        self._one: dict[tuple, bool] = {}

    def indicator(self, v) -> bool:
        v = tuple(int(c) for c in v)
        if v in self._one:
            return self._one[v]
        xv = self.tower.color(v)[0]
        if xv == 1:
            self._one[v] = True
            return True
        # v joins at its own class unless someone in its ball is a 1 by then;
        # only original 1's and strictly larger classes can be 1 that early
        need = {v: xv}
        stack = [v]
        while stack:
            a = stack.pop()
            xa = need[a]
            for u in self.tower.neighbors(a):
                if u in need or u in self._one:
                    continue
                xu = self.tower.color(u)[0]
                if xu == 1:
                    self._one[u] = True
                elif xu > xa:
                    need[u] = xu
                    stack.append(u)
        for a in sorted(need, key=need.get, reverse=True):
            xa = need[a]
            ok = True
            for u in self.tower.neighbors(a):
                xu = self.tower.color(u)[0]
                if xu == 1 or (xu > xa and self._one[u]):
                    ok = False
                    break
            self._one[a] = ok
        return self._one[v]


# ---------------------------------------------------------------------------
# lattice process handle


class MNet:
    """Indicator process of an m-net of Z^d: 1's pairwise farther than m,
    every site within m of a 1.  `window` runs `net_window` on the window's
    range-m graph."""

    def __init__(self, d: int, m: int, norm: str = "l1"):
        self.spec = LatticeSpec(d, m, norm)

    def window(self, window: Window, field) -> NetWindow:
        wg = WindowGraph.build(window, self.spec.m, self.spec.norm)
        return net_window(wg, field)
