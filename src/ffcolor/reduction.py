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
neighbor values and taint the one-at-a-time pass would show it.

Level k of the tower only decides sites still unresolved after level k-1
(about delta/n_{k-1} of them).  Its almost coloring reads labels and tests
collisions over the whole window, but reduction step i computes only the
(i-1)-fold dilation of the unresolved set, which is all the values there
depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covfree import ColorSequence, SetFamily, color_sequence, family_rows, \
    feasible_levels, least_members
from .lattice import FiniteGraph, LatticeSpec, Window, WindowGraph, ball_size

INF = 0  # sentinel for "no color" / infinity


# ---------------------------------------------------------------------------
# shared helpers


def _gather(values: np.ndarray, nbr: np.ndarray, fill) -> np.ndarray:
    """values at each entry of a neighbor matrix; padding (-1) reads fill."""
    return np.append(values, fill)[nbr]


def dilate_mask(mask: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """mask or any-neighbor-in-mask."""
    return mask | _gather(mask, nbr, False).any(axis=1)


def _as_parts(g):
    """(graph, label axes, full-degree mask, default delta) for either input.

    A bare FiniteGraph is taken as the whole object of study: labels are keyed
    by vertex index and nothing is tainted by truncation.  A WindowGraph is a
    view of the lattice: labels are keyed by lattice coordinates and vertices
    missing neighbors get full=False.
    """
    if isinstance(g, WindowGraph):
        return g.graph, g.axes(), g.interior.copy(), ball_size(g.window.d, g.m, g.norm) - 1
    axes = [np.arange(g.n, dtype=np.int64)]
    return g, axes, np.ones(g.n, dtype=bool), max(g.max_degree, 1)


# ---------------------------------------------------------------------------
# almost colorings


@dataclass
class AlmostColoring:
    values: np.ndarray  # int64, 0 = infinity
    level: int
    delta: int


class FamilyCache:
    """Set families per reduction level, built once and shared across levels."""

    def __init__(self, field, delta: int, seq: ColorSequence):
        self.field = field
        self.delta = delta
        self.seq = seq
        self._fams: dict[int, SetFamily] = {}

    def family(self, i: int) -> SetFamily:
        if i not in self._fams:
            self._fams[i] = SetFamily.build(
                self.field, self.delta, i,
                ground=self.seq.n_k(i), nsets=self.seq.n_k(i + 1))
        return self._fams[i]


def almost_coloring(g, k: int, seq: ColorSequence | None = None,
                    cache: FamilyCache | None = None, field=None,
                    stream: str = "tower:u", delta: int | None = None,
                    trace: list | None = None, *,
                    need: np.ndarray | None = None) -> AlmostColoring:
    """Level-k almost coloring: labels in [n_k], collisions to infinity, then
    k-1 set-family reductions down to [n_1].  Adjacent finite values never
    agree, at any intermediate level (each value excludes the whole set its
    neighbor picked from).  If `trace` is a list, the intermediate value
    arrays are appended, levels k down to 1.

    `need` is a vertex mask, all vertices by default.  Reduction step i then
    runs only on the (i-1)-fold dilation of `need`, which is all that the
    values on `need` depend on, so values are exact only on `need`; elsewhere
    they may read INF.
    """
    graph, axes, _, ddef = _as_parts(g)
    if delta is None:
        delta = cache.delta if cache is not None else ddef
    if seq is None:
        seq = cache.seq if cache is not None else color_sequence(delta, k)
    if field is None and cache is not None:
        field = cache.field
    if k > seq.kmax:
        raise ValueError(f"level {k} beyond materialized sequence {seq.n}")
    if cache is None:
        cache = FamilyCache(field, delta, seq)
    nbr = graph.neighbor_matrix
    z = np.asarray(field.discrete_box(stream, axes, seq.n_k(k)), dtype=np.int64).ravel()
    collide = (_gather(z, nbr, INF) == z[:, None]).any(axis=1)
    z = np.where(collide, INF, z)
    if trace is not None:
        trace.append(z.copy())
    mask = None if need is None else np.asarray(need, dtype=bool)
    rows = []  # rows[i - 1] indexes the vertices reduction step i computes
    for i in range(1, k):
        if mask is not None and i > 1:
            mask = dilate_mask(mask, nbr)
        rows.append(slice(None) if mask is None else np.flatnonzero(mask))
    for i in range(k - 1, 0, -1):
        fam = cache.family(i)
        ext = np.vstack([np.zeros((1, fam.nwords), dtype=np.uint64), fam.words])
        r = rows[i - 1]
        own = ext[z[r]]
        union = np.zeros_like(own)
        for zn in _gather(z, nbr[r], INF).T:
            union |= ext[zn]
        z = np.full(graph.n, INF, dtype=np.int64)
        z[r] = fam.reduce_min(own, union)
        if trace is not None:
            trace.append(z.copy())
    return AlmostColoring(z, k, delta)


# ---------------------------------------------------------------------------
# color elimination


def _least_absent(seen) -> int:
    """Least color >= 1 not in `seen`; the 0 sentinel never blocks."""
    c = 1
    while c in seen:
        c += 1
    return c


def _greedy(x: np.ndarray, g: FiniteGraph, order, taint: np.ndarray | None) -> None:
    """Give each vertex of `order`, in turn, the least color absent among its
    neighbors, in place.  If `taint` is given it is updated in place: a
    recolored vertex becomes tainted when any neighbor it consulted was.

    Runs in dependency rounds (see the module docstring): `ahead[v]` counts
    v's pending neighbors ahead of it, and a round takes every vertex whose
    count is 0.  A neighbor still pending blocks with its current value, as
    it would one vertex at a time.
    """
    order = np.asarray(order, dtype=np.int64)
    nbr = g.neighbor_matrix
    n, m = g.n, len(order)
    top = nbr.shape[1] + 1  # the least absent color is at most maxdeg + 1
    # n + 1 entries each, so the padding index -1 reads a neutral last entry:
    # value 0 never blocks, rank m is never ahead, taint is False
    val = np.append(x, INF).astype(np.int64)
    rank = np.full(n + 1, m, dtype=np.int64)
    rank[order] = np.arange(m)
    tnt = np.append(taint if taint is not None else np.zeros(n, dtype=bool), False)
    members = np.flatnonzero(rank[:n] < m)  # vertex order reads nbr in sequence
    ahead = np.zeros(n + 1, dtype=np.int64)
    ahead[members] = (rank[nbr[members]] < rank[members, None]).sum(axis=1)
    ready = members[ahead[members] == 0]
    while len(ready):
        vn = nbr[ready]
        seen = np.zeros((len(ready), top + 1), dtype=bool)
        seen[np.arange(len(ready))[:, None], np.clip(val[vn], INF, top)] = True
        seen[:, INF] = True
        tnt[ready] |= tnt[vn].any(axis=1)
        val[ready] = seen.argmin(axis=1)
        rn = rank[vn]
        behind = np.bincount(vn[(rn > rank[ready, None]) & (rn < m)], minlength=n + 1)
        ahead -= behind
        ready = np.flatnonzero((behind > 0) & (ahead == 0))
    x[order] = val[order]
    if taint is not None:
        taint[order] = tnt[order]


def elimination_sweep(w: np.ndarray, g: FiniteGraph, floor: int,
                      taint: np.ndarray | None = None) -> np.ndarray:
    """Eliminate every color above `floor`, largest first, vertex by vertex.

    Equal to one synchronous pass per color, max(w) down to floor+1, each
    giving that color's vertices the least color absent among their
    neighbors: replacements land in [floor] and are never re-targeted, and
    same-color vertices are never adjacent.  `taint` is updated as in `_greedy`.
    """
    x = w.astype(np.int64, copy=True)
    todo = np.nonzero(x > floor)[0]
    _greedy(x, g, todo[np.argsort(x[todo], kind="stable")][::-1], taint)
    return x


def greedy_fallback(x: np.ndarray, g: FiniteGraph, prio: np.ndarray,
                    taint: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Color unresolved vertices, highest dedicated priority first.

    Each takes the least color absent among already-colored neighbors;
    lower-priority unresolved neighbors are pending and do not block.
    Returns (colors, fallback mask).
    """
    x = x.copy()
    un = np.nonzero(x == INF)[0]
    _greedy(x, g, un[np.argsort(prio[un], kind="stable")][::-1], taint)
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


def tower_coloring(g, field, delta: int | None = None, kmax: int = 3,
                   stream_prefix: str = "tower") -> TowerWindow:
    """Stack almost colorings over levels 1..kmax, eliminating oversized
    colors after each level; a greedy fallback colors whatever is still
    unresolved.  Output is a proper (delta+1)-coloring of g.
    """
    graph, axes, full, ddef = _as_parts(g)
    if delta is None:
        delta = ddef
    kmax = min(kmax, feasible_levels(delta, kmax))
    seq = color_sequence(delta, kmax)
    kmax = min(kmax, seq.kmax)
    cache = FamilyCache(field, delta, seq)
    nbr = graph.neighbor_matrix

    x = np.zeros(graph.n, dtype=np.int64)
    level = np.zeros(graph.n, dtype=np.int64)
    xtaint = np.zeros(graph.n, dtype=bool)
    ytaint = ~full
    for k in range(1, kmax + 1):
        # level k only decides sites unresolved so far
        y = almost_coloring(g, k, seq, cache, field, stream=f"{stream_prefix}:u",
                            need=x == INF).values
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
    return TowerWindow(x, level, tainted, delta, kmax, seq, fb_needed)


# ---------------------------------------------------------------------------
# tower coloring, demand engine


class TowerQuery:
    """Demand evaluation of the tower at single lattice sites.

    Elimination recurses only into neighbors whose pre-color is strictly
    larger, which reproduces the largest-first cascade exactly; the walk is
    collected iteratively so long chains cannot blow the stack.
    """

    def __init__(self, field, spec: LatticeSpec, kmax: int = 3,
                 stream_prefix: str = "tower", delta: int | None = None):
        self.fld = field
        self.spec = spec
        self.delta = spec.degree if delta is None else delta
        self.kmax = min(kmax, feasible_levels(self.delta, kmax))
        self.seq = color_sequence(self.delta, self.kmax)
        self.kmax = min(self.kmax, self.seq.kmax)
        self.prefix = stream_prefix
        self._u: dict[tuple, float] = {}
        self._z: dict[tuple, int] = {}
        self._x: dict[tuple, int] = {}
        self._rows: dict[tuple, np.ndarray] = {}
        self._fb: dict[tuple, int] = {}

    # one uniform per site, shared by every level's base label
    def _uni(self, v) -> float:
        if v not in self._u:
            self._u[v] = float(self.fld.uniform(f"{self.prefix}:u", v))
        return self._u[v]

    def _label(self, k: int, v) -> int:
        nk = self.seq.n_k(k)
        return min(max(int(np.ceil(nk * self._uni(v))), 1), nk)

    def _base(self, k: int, v) -> int:
        mine = self._label(k, v)
        for u in self.spec.neighbors(v):
            if self._label(k, u) == mine:
                return INF
        return mine

    def _row(self, i: int, j: int) -> np.ndarray:
        key = (i, j)
        if key not in self._rows:
            self._rows[key] = family_rows(
                self.fld, f"family:d{self.delta}/l{i}", [j - 1], self.seq.n_k(i))[0]
        return self._rows[key]

    def _zval(self, k: int, i: int, v) -> int:
        key = (k, i, v)
        if key in self._z:
            return self._z[key]
        if i == k:
            out = self._base(k, v)
        else:
            mine = self._zval(k, i + 1, v)
            if mine == INF:
                out = INF
            else:
                rest = self._row(i, mine).copy()
                for u in self.spec.neighbors(v):
                    zu = self._zval(k, i + 1, u)
                    if zu != INF:
                        rest &= ~self._row(i, zu)
                out = int(least_members(rest[None])[0])
        self._z[key] = out
        return out

    def _w(self, k: int, v) -> int:
        xprev = self._xval(k - 1, v) if k > 1 else INF
        if xprev != INF:
            return xprev
        y = self._zval(k, 1, v)
        return y + self.delta + 1 if y != INF else INF

    def _xval(self, k: int, v) -> int:
        if k == 0:
            return INF
        key = (k, v)
        if key in self._x:
            return self._x[key]
        w = self._w(k, v)
        if w == INF or w <= self.delta + 1:
            self._x[key] = w
            return w
        # closure of strictly-increasing pre-color walks, then resolve downward
        need = {v: w}
        stack = [v]
        while stack:
            a = stack.pop()
            wa = need[a]
            for u in self.spec.neighbors(a):
                if u in need or (k, u) in self._x:
                    continue
                wu = self._w(k, u)
                if wu == INF or wu <= self.delta + 1:
                    continue
                if wu == wa:
                    raise AssertionError("adjacent equal pre-colors")
                if wu > wa:
                    need[u] = wu
                    stack.append(u)
        for a in sorted(need, key=need.get, reverse=True):
            seen = set()
            for u in self.spec.neighbors(a):
                xu = self._x.get((k, u))
                if xu is None:  # pending neighbors above delta+1 do not block
                    wu = self._w(k, u)
                    xu = wu if wu <= self.delta + 1 else INF
                seen.add(xu)
            self._x[(k, a)] = _least_absent(seen)
        return self._x[key]

    def _fallback(self, v) -> int:
        if v in self._fb:
            return self._fb[v]
        prio_stream = f"{self.prefix}:prio"
        region = {v: float(self.fld.uniform(prio_stream, v))}
        border: dict[tuple, int] = {}
        stack = [v]
        while stack:
            a = stack.pop()
            for u in self.spec.neighbors(a):
                if u in region or u in border:
                    continue
                xu = self._xval(self.kmax, u)
                if xu == INF:
                    region[u] = float(self.fld.uniform(prio_stream, u))
                    stack.append(u)
                else:
                    border[u] = xu
        for a in sorted(region, key=region.get, reverse=True):
            self._fb[a] = _least_absent(
                {self._fb.get(u, border.get(u, INF)) for u in self.spec.neighbors(a)})
        return self._fb[v]

    def color(self, v) -> tuple[int, int]:
        """(color, level); level 0 means the greedy fallback resolved it."""
        v = tuple(int(c) for c in v)
        for k in range(1, self.kmax + 1):
            x = self._xval(k, v)
            if x != INF:
                return x, k
        return self._fallback(v), 0


def tower_color_at(field, v, spec: LatticeSpec, kmax: int = 3,
                   stream_prefix: str = "tower") -> tuple[int, int]:
    return TowerQuery(field, spec, kmax, stream_prefix).color(v)


# ---------------------------------------------------------------------------
# nets


@dataclass
class NetWindow:
    indicator: np.ndarray
    colors: np.ndarray
    tainted: np.ndarray
    q: int


def net_window(g, field, kmax: int = 3, stream_prefix: str = "net") -> NetWindow:
    """m-net on a window: greedy independent set scanned by color class.

    Original 1's always stand (no two are adjacent); each later class q, q-1,
    ..., 2 joins exactly its members with no current 1 in their ball.  A
    vertex recolored away from its class has a 1-neighbor from that moment
    on, so it can never join later: scanning original classes once is exact.
    """
    tw = tower_coloring(g, field, kmax=kmax, stream_prefix=stream_prefix)
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

    def __init__(self, field, spec: LatticeSpec, kmax: int = 3,
                 stream_prefix: str = "net"):
        self.tower = TowerQuery(field, spec, kmax, stream_prefix)
        self.spec = spec
        self._one: dict[tuple, bool] = {}
        self._xc: dict[tuple, int] = {}

    def _color(self, v) -> int:
        if v not in self._xc:
            self._xc[v] = self.tower.color(v)[0]
        return self._xc[v]

    def indicator(self, v) -> bool:
        v = tuple(int(c) for c in v)
        if v in self._one:
            return self._one[v]
        xv = self._color(v)
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
            for u in self.spec.neighbors(a):
                if u in need or u in self._one:
                    continue
                xu = self._color(u)
                if xu == 1:
                    self._one[u] = True
                elif xu > xa:
                    need[u] = xu
                    stack.append(u)
        for a in sorted(need, key=need.get, reverse=True):
            xa = need[a]
            ok = True
            for u in self.spec.neighbors(a):
                xu = self._color(u)
                if xu == 1 or (xu > xa and self._one[u]):
                    ok = False
                    break
            self._one[a] = ok
        return self._one[v]


# ---------------------------------------------------------------------------
# lattice process wrappers


class LongRangeColoring:
    """Coloring of Z^d where sites within norm-distance m always differ,
    using q = |ball(m)| colors."""

    def __init__(self, d: int, m: int, norm: str = "l1", field=None,
                 kmax: int = 3, stream_prefix: str = "net"):
        self.spec = LatticeSpec(d, m, norm)
        self.q = self.spec.degree + 1
        self.field = field
        self.kmax = kmax
        self.prefix = stream_prefix

    def at(self, v, field=None) -> tuple[int, int]:
        f = field if field is not None else self.field
        return tower_color_at(f, v, self.spec, self.kmax, self.prefix)

    def window(self, window: Window, field=None) -> TowerWindow:
        f = field if field is not None else self.field
        wg = WindowGraph.build(window, self.spec.m, self.spec.norm)
        return tower_coloring(wg, f, kmax=self.kmax, stream_prefix=self.prefix)


class MNet(LongRangeColoring):
    """Indicator process of an m-net of Z^d: 1's pairwise farther than m,
    every site within m of a 1."""

    def at(self, v, field=None) -> bool:
        f = field if field is not None else self.field
        return NetQuery(f, self.spec, self.kmax, self.prefix).indicator(v)

    def window(self, window: Window, field=None) -> NetWindow:
        f = field if field is not None else self.field
        wg = WindowGraph.build(window, self.spec.m, self.spec.norm)
        return net_window(wg, f, kmax=self.kmax, stream_prefix=self.prefix)


def net_packing_bound(d: int, m: int, c: int, norm: str = "l1") -> int:
    """Net points within distance c*m of a site fit disjoint m/2-balls."""
    half = m // 2
    return ball_size(d, c * m + half, norm) // max(ball_size(d, half, norm), 1)
