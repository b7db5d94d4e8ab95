"""Three-coloring of the plane from critical diagonal percolation.

Every unit square draws exactly one of its two diagonals, each with
probability 1/2, independently across squares; drawn diagonals connect
vertices of equal coordinate-sum parity, so the edge set splits into a bond
percolation process on the even sublattice and its planar dual on the odd
one.  Every cluster is surrounded by a unique adjacent cluster of the other
parity, its parent.  Clusters get iid sign labels through the max-label
vertex, a cluster is special when its sign is + but its parent's is -, and
the color is 1 on special clusters, else 2 or 3 by the parity of the
distance to the nearest special ancestor.  Adjacent clusters are parent and
child, so the rule never gives equal colors across an edge.

Parents come from the cluster labels alone.  Each unit square is two
triangles split by its drawn diagonal, and a triangle's two lattice sides
each join its right-angle corner to one end of its diagonal, so every
triangle carries a pair of clusters: its corner's and its diagonal's.  Two
triangles glued across an undrawn lattice side share that side's two ends,
hence the pair, so every face of the drawn-diagonal subdivision carries one
(child, parent) pair.  Four facts follow for every closed cluster C (one
with no vertex on the window rim):

1. The parent is one label read.  Let t be C's top-right vertex (largest
   key j*nx + i).  The square with lower-left corner t holds the falling
   diagonal, since the rising one would put (t_i + 1, t_j + 1) in C, so its
   west triangle has the pair {C, cluster of (t_i, t_j + 1)}, and that
   cluster is C's parent, the one whose boundary holds the face just north
   of t.  The face is never open: a triangle on an outer side of the window
   has both ends of that side on the rim, so both clusters of its pair are
   open.
2. The face's box is C's box shifted.  Every triangle of the face has a
   corner in C, and the squares just left of and just below C's extreme
   vertices always hold a face triangle, so in square indices the face
   spans (cluster_lo - 1, cluster_hi).
3. So the base requirement box of C, the cluster padded by 1 and its face
   padded by (1, 2), is (cluster_lo - 2, cluster_hi + 2).
4. A parent's box holds its child's with a step to spare on every side.
   From the child's vertex of largest i, the straight 4-adjacent path
   towards larger i meets no child vertex, and only the parent can block
   it from the rim, so the parent has a vertex of larger i; likewise in the
   other three directions.  Up a chain C, ..., S to the special ancestor S
   and its parent P, every base box therefore lies inside P's box padded
   by 1, and that padded box is the whole requirement box.

The build is array passes only.  Clusters are the connected components of
the drawn-diagonal graph, written as a padded neighbor matrix listing every
edge from its lower end and handed to scipy as CSR, with int32 ids while
they fit.  Clusters are numbered by least vertex, i-major, so each one's
least i is that of its first member.  The open clusters are the
`lattice.rim_clusters`, and a cluster's sign anchor is its
`lattice.cluster_anchors` entry: two scatter-max passes, the cluster's
largest v, then the largest top-right key j*nx + i among the vertices
reaching it.  The distance to the nearest special ancestor comes from
pointer jumping up the parent chains, a logarithmic number of rounds over
all clusters at once, and the requirement box is read off the special
ancestor's parent (fact 4).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .field import DEFAULT_BUDGET, BudgetExceeded
from .lattice import Window, cluster_anchors, rim_clusters, row_count

STREAM_PREFIX = "three2d"
# the first half-width of the doubling windows a radius is measured in
START_HALF = 4

UNKNOWN = -1


def _index_dtype(n: int):
    """int32 when every value in 0..n fits in it, else int64."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _components(nbr: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph with padded neighbor matrix `nbr`.

    Row v lists neighbors of v and -1 fills the unused slots; listing each
    edge from one end suffices.  Ids number the components in order of
    their least vertex.
    """
    n = len(nbr)
    used = nbr >= 0
    indptr = np.zeros(n + 1, dtype=_index_dtype(nbr.size))
    np.cumsum(row_count(used), dtype=indptr.dtype, out=indptr[1:])
    indices = nbr[used]
    del nbr, used  # the caller hands over nbr; free it before scipy copies
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    return connected_components(graph, directed=False)


def _square_grid(window: Window) -> tuple[int, int]:
    """Extent (nx, ny) of a planar window that holds a unit square."""
    if window.d != 2:
        raise ValueError(f"diagonal percolation needs a planar window, "
                         f"not one of dimension {window.d}")
    nx, ny = (int(e) for e in window.extent)
    if min(nx, ny) < 2:
        raise ValueError(f"window extent {window.extent} has no unit square: "
                         "each extent must be at least 2")
    return nx, ny


def _first_members(ids: np.ndarray) -> np.ndarray:
    """Position of each id's first entry, for ids numbered in order of first
    appearance (as `_components` numbers them, by least vertex)."""
    top = np.maximum.accumulate(ids)
    return np.flatnonzero(np.concatenate(([True], top[1:] != top[:-1])))


def diagonal_rule(du: float, bprime: int) -> int:
    """0 for the rising diagonal (lower-left to upper-right), 1 for the
    falling one; exact zeros fall to the falling diagonal."""
    return 0 if du * bprime > 0 else 1


def choose_diagonals(s, field) -> int:
    """Diagonal of the unit square with lower-left corner s."""
    x, y = (int(c) for c in s)
    corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    u = [field.uniform(f"{STREAM_PREFIX}:u", c) for c in corners]
    b = [field.coin(f"{STREAM_PREFIX}:b", c) for c in corners]
    du = (u[0] + u[2]) - (u[1] + u[3])
    return diagonal_rule(du, b[0] * b[1] * b[2] * b[3])


class PercWindow:
    """Diagonal configuration and cluster genealogy over one window.

    Arrays are indexed [i, j] for the vertex at origin + (i, j); clusters
    touching the window rim are open (their vertex sets may continue
    outside) and everything derived from them stays unknown.
    """

    def __init__(self, window: Window, diag: np.ndarray, vlabel: np.ndarray,
                 wlabel: np.ndarray, ties: int = 0):
        self.window = window
        self.diag = diag
        self.ties = ties
        nx, ny = _square_grid(window)
        if diag.shape != (nx - 1, ny - 1):
            raise ValueError("diagonal grid must have one entry per unit square")
        self.nclusters, labels = _components(self._diag_neighbors(diag, nx, ny))
        self.labels = labels.reshape(nx, ny)

        self.closed = ~rim_clusters(self.labels, self.nclusters)

        self._build_parents(nx, ny)
        self._build_labels(vlabel, wlabel, nx, ny)
        self._build_colors()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, field, window: Window) -> "PercWindow":
        _square_grid(window)
        axes = window.ix_axes()
        diag, ties = cls._diagonals(field, axes)
        v = field.uniform_box(f"{STREAM_PREFIX}:v", axes)
        w = field.coin_box(f"{STREAM_PREFIX}:w", axes)
        return cls(window, diag, v, w, ties=ties)

    @staticmethod
    def _diagonals(field, axes) -> tuple[np.ndarray, int]:
        """Diagonal of every unit square (the grid form of choose_diagonals)
        and the number of exact ties."""
        u = field.uniform_box(f"{STREAM_PREFIX}:u", axes)
        b = field.coin_box(f"{STREAM_PREFIX}:b", axes)
        du = (u[:-1, :-1] + u[1:, 1:]) - (u[1:, :-1] + u[:-1, 1:])
        bprime = b[:-1, :-1] * b[1:, :-1] * b[1:, 1:] * b[:-1, 1:]
        val = du * bprime
        return np.where(val > 0, 0, 1).astype(np.int8), int((val == 0).sum())

    @staticmethod
    def _diag_neighbors(diag: np.ndarray, nx: int, ny: int) -> np.ndarray:
        # each drawn diagonal listed from its lower end: slot 0 of (i, j)
        # holds the rising diagonal of square (i, j), slot 1 of (i + 1, j)
        # the falling one
        vid = np.arange(nx * ny, dtype=_index_dtype(nx * ny)).reshape(nx, ny)
        nbr = np.full((nx, ny, 2), -1, dtype=vid.dtype)
        nbr[:-1, :-1, 0] = np.where(diag == 0, vid[1:, 1:], -1)
        nbr[1:, :-1, 1] = np.where(diag == 1, vid[:-1, 1:], -1)
        return nbr.reshape(nx * ny, 2)

    def _build_parents(self, nx: int, ny: int) -> None:
        ncl = self.nclusters
        i, j = np.indices((nx, ny))
        flat = self.labels.ravel()
        top = np.full(ncl, -1, dtype=np.int64)
        np.maximum.at(top, flat, (j * nx + i).ravel())

        self.cluster_lo = np.full((ncl, 2), max(nx, ny), dtype=np.int64)
        self.cluster_hi = np.full((ncl, 2), -1, dtype=np.int64)
        self.cluster_lo[:, 0] = _first_members(flat) // ny  # ids by least vertex
        np.minimum.at(self.cluster_lo[:, 1], flat, j.ravel())
        np.maximum.at(self.cluster_hi[:, 0], flat, i.ravel())
        self.cluster_hi[:, 1] = top // nx  # the top-right key's j is the largest

        # a closed cluster's parent holds the vertex just north of its
        # top-right vertex (module docstring, fact 1)
        parent = np.full(ncl, UNKNOWN, dtype=np.int64)
        t = top[self.closed]
        parent[self.closed] = self.labels[t % nx, t // nx + 1]
        self.parent = parent

    def _build_labels(self, vlabel: np.ndarray, wlabel: np.ndarray,
                      nx: int, ny: int) -> None:
        # Each cluster's sign comes from its anchor (`lattice.cluster_anchors`):
        # the vertex of largest v, ties to the top-right key j*nx + i.
        def top_right(at):
            i, j = np.divmod(at, ny)
            return j * nx + i

        anchor = cluster_anchors(self.labels, self.nclusters, vlabel, top_right)
        self.ylabel = wlabel[anchor % nx, anchor // nx].astype(np.int64)

        p = np.where(self.parent == UNKNOWN, 0, self.parent)
        self.special_known = self.closed & (self.parent != UNKNOWN) & self.closed[p]
        self.special = self.special_known \
            & (self.ylabel == 1) & (self.ylabel[p] == -1)

    def _build_colors(self) -> None:
        # Chains are walked by pointer jumping.  A cluster that is known and
        # not special steps to its parent; every other cluster is a
        # terminal.  Each cluster carries its pointer and the number of steps
        # it stands for; a round doubles every live pointer's reach.  A
        # cluster whose terminal is special is known, at that distance.
        #
        # The requirement box is the bounding box a centered box window must
        # cover (minus its rim) for the per-vertex query to certify the same
        # answer: the special ancestor's parent padded by 1, which holds every
        # other box the chain needs (module docstring, fact 4).
        ncl = self.nclusters
        live = self.special_known & ~self.special
        nxt = np.where(live, self.parent, np.arange(ncl))
        steps = live.astype(np.int64)
        for _ in range((ncl - 1).bit_length() + 1):
            act = np.nonzero(live[nxt])[0]
            if not act.size:
                break
            to = nxt[act]
            steps[act] += steps[to]
            nxt[act] = nxt[to]
        if live[nxt].any():
            raise RuntimeError("cluster parents form a cycle")

        known = self.special[nxt]
        dist = np.where(known, steps, UNKNOWN)  # steps to special ancestor
        outer = self.parent[nxt[known]]
        self.req_lo = np.zeros((ncl, 2), dtype=np.int64)
        self.req_hi = np.zeros((ncl, 2), dtype=np.int64)
        self.req_lo[known] = self.cluster_lo[outer] - 1
        self.req_hi[known] = self.cluster_hi[outer] + 1
        color = np.zeros(ncl, dtype=np.int64)
        color[known & (dist == 0)] = 1
        color[known & (dist % 2 == 1)] = 2
        color[known & (dist != 0) & (dist % 2 == 0)] = 3
        self.dist = dist
        self.color = color
        self.color_known = known

    # -- queries -----------------------------------------------------------

    def _index(self, v) -> tuple[int, int]:
        i, j = (int(c) - int(o) for c, o in zip(v, self.window.origin))
        nx, ny = self.window.extent
        if not (0 <= i < nx and 0 <= j < ny):
            raise ValueError(f"{tuple(v)} outside window")
        return i, j

    def cluster_id(self, v) -> int:
        i, j = self._index(v)
        return int(self.labels[i, j])

    def colors_grid(self) -> tuple[np.ndarray, np.ndarray]:
        grid = self.color[self.labels]
        return grid, grid > 0


def three2d_window(field, window: Window, *, margin: int = 128):
    """Color a window, certifying through a padded surrounding region.

    Returns (colors, valid, perc); colors is 0 where the cluster's chain to
    its nearest special ancestor cannot be certified inside the padded
    region.
    """
    perc = PercWindow.build(field, window.grow(margin))
    grid, valid = perc.colors_grid()
    core = tuple(slice(margin, margin + e) for e in window.extent)
    return grid[core], valid[core], perc


def radii_margin(cap: int) -> int:
    """How far `coding_radii` grows its window for a radius cap: far enough
    that censoring at the cap is exact, never window-limited."""
    return cap // 2 + 2


def half_widths(cap: int) -> list[int]:
    """The three2d window schedule: every half-width START_HALF * 2^j whose
    window reaches 2 * half-width <= cap, smallest first."""
    out, h = [], START_HALF
    while 2 * h <= cap:
        out.append(h)
        h *= 2
    return out


def scheduled_radius(need: np.ndarray, cap: int) -> np.ndarray:
    """Elementwise 2 * the first of `half_widths(cap)` that is >= need: the
    reach of the first window whose half-width covers `need`, or 0 where no
    window within the cap does."""
    halves = np.array(half_widths(cap), dtype=np.int64)
    return 2 * np.append(halves, 0)[np.searchsorted(halves, need)]


def coding_radii(field, window: Window, *, cap: int = 512):
    """Exact per-vertex coding radii over a window, via one shared build.

    A box certifies the same chain as the infinite volume exactly when the
    cluster requirement box sits inside it minus the rim, so the radius the
    demand-driven query would report is computable from per-cluster data:
    twice the first of `half_widths(cap)` that reaches the half-width the
    requirement box needs around the vertex (`scheduled_radius`).
    Returns (radii, resolved, colors, perc); radii and colors are 0 where
    the query would pass the cap instead (resolved False).  The surrounding
    margin is `radii_margin(cap)`.
    """
    margin = radii_margin(cap)
    perc = PercWindow.build(field, window.grow(margin))
    core = tuple(slice(margin, margin + e) for e in window.extent)
    lab = perc.labels[core]
    i, j = np.indices(lab.shape)
    i += margin
    j += margin
    need = np.maximum.reduce([
        i - perc.req_lo[lab, 0], perc.req_hi[lab, 0] - i,
        j - perc.req_lo[lab, 1], perc.req_hi[lab, 1] - j])
    radii = scheduled_radius(need, cap)
    resolved = perc.color_known[lab] & (radii > 0)
    colors = np.where(resolved, perc.color[lab], 0)
    return np.where(resolved, radii, 0), resolved, colors, perc


def three_color_2d(v, field, *, radius_cap: int | None = None) -> int:
    """Color at one vertex by growing centered windows until certified.

    The windows run through `half_widths(cap)`; the answer is
    window-independent because every certificate (closed cluster, closed
    parent) is stable under growth.  Raises when the cap is passed.  The
    query's coding radius is what a `Tracker` records of its reads: the
    1-norm reach 2 * half-width of the last window built.
    """
    cap = DEFAULT_BUDGET.radius_cap if radius_cap is None else radius_cap
    v = tuple(int(c) for c in v)
    if len(v) != 2:
        raise ValueError("diagonal percolation coloring is planar only")
    for h in half_widths(cap):
        win = Window((v[0] - h, v[1] - h), (2 * h + 1, 2 * h + 1))
        perc = PercWindow.build(field, win)
        cid = perc.cluster_id(v)
        if perc.color_known[cid]:
            return int(perc.color[cid])
    raise BudgetExceeded("radius", cap, STREAM_PREFIX, v)
