"""Lattice geometry and finite graphs.

Windows are half-open boxes given by an origin and positive extents.  A
finite graph over 0..n-1 is stored as one padded neighbor matrix: row v holds
v's neighbors, and -1 fills the unused slots, anywhere in the row.  Every
graph-generic pass reads only that matrix.  A lattice window writes column j
of its matrix straight from the j-th offset of `nonzero_offsets`, with -1
where that neighbor falls outside the window, and an interior mask marks the
vertices whose full neighborhood lies inside it.  The demand engines take
their neighbors from the same cached offsets: `LatticeSpec.neighbors` is the
one neighbor rule, and the tower and net queries build each site's list
through it once per query and keep it.

Every per-row count or `any` over a padded neighbor matrix, or over a
matrix gathered through one, goes through `row_count`, which adds the
matrix column by column instead of reducing each row.  Rows are short (2 to
8 entries on a lattice window), and numpy reduces a short last axis row by
row at many times the cost of its data.  On a (12544, 4) bool matrix (one
112^2 window), `any(axis=1)` took 465 us and `sum(axis=1)` 360 us, where
`row_count` takes 30 us and 36 us (best of 7, 2-vCPU Xeon host).  Counts
over wide rows, as in the four-coloring's candidate graphs, are no slower:
57 us against 67 us on a (1100, 54) matrix.

Two box-geometry primitives serve every construction and audit.
`close_pairs` finds all pairs of points within a reach in the l1 or linf
norm: `sweep_pairs` sorts them along axis 0 and pairs each with the later
ones within reach, and only those pairs are measured, in exact int64.
`overlap` gives the slices of two boxes that select their shared cells.

Three more rules have their one copy here.  `ball_mask` is the ball of Z^d,
as a read-only bool box: `ball_offsets` lists its cells in C order, which is
the order of `nonzero_offsets`, of the `WindowGraph` columns and of
`LatticeSpec.neighbors`, and `ball_mask(d, 1)` is the adjacency structure
every cluster labelling and dilation uses.
`cluster_anchors` picks each cluster's anchor, the site of largest value
with ties to the largest key.  `rim_clusters` marks the clusters that touch
the rim of a grid, which the grid may not hold whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import comb
from operator import add
from typing import Iterator, Sequence

import numpy as np


@lru_cache(maxsize=32)
def ball_mask(d: int, r: int, norm: str = "l1") -> np.ndarray:
    """The ball |x| <= r of the given norm in its (2r+1)^d box, read-only.

    Cell x + r holds offset x.  The l1 ball holds only the radius left after
    the leading d - 1 axes as integers, so the peak stays near the mask's own
    size; the linf ball is the whole box."""
    if norm == "linf":
        ball = np.ones((2 * r + 1,) * d, dtype=bool)
    else:
        off = np.abs(np.arange(-r, r + 1))
        left = np.int64(r)
        for _ in range(d - 1):
            left = np.subtract.outer(left, off)
        ball = np.greater_equal.outer(left, off)
    ball.flags.writeable = False
    return ball


def ball_offsets(d: int, r: int, norm: str = "l1") -> list[tuple[int, ...]]:
    """All offsets with |x| <= r in the given norm, origin included, in
    lexicographic order (the C order of `ball_mask`)."""
    return list(map(tuple, (np.argwhere(ball_mask(d, r, norm)) - r).tolist()))


def ball_size(d: int, r: int, norm: str = "l1") -> int:
    if norm == "linf":
        return (2 * r + 1) ** d
    # sum over k of C(d,k) 2^k C(r,k): choose k axes that are nonzero... via
    # standard lattice-point count of the cross-polytope
    return sum(comb(d, k) * 2**k * comb(r, k) for k in range(0, min(d, r) + 1))


@lru_cache(maxsize=None)
def nonzero_offsets(d: int, m: int, norm: str = "l1") -> tuple[tuple[int, ...], ...]:
    """The offsets u - v of the neighbors u of v in Z^d_(m), in ball_offsets
    order: every nonzero offset with |x| <= m in the given norm."""
    return tuple(off for off in ball_offsets(d, m, norm) if any(off))


def row_count(a: np.ndarray, dtype=None) -> np.ndarray:
    """The number of True entries in each row of the 2-D bool array `a`.

    Counts are of `dtype`, by default the least unsigned integer type that
    holds the row width.  With dtype=bool they say whether any entry is
    True, since numpy adds booleans as a logical or.  The matrix is copied
    to column-major order in one pass and its columns are added whole (see
    the module docstring).
    """
    if dtype is None:
        dtype = np.min_scalar_type(a.shape[1])
    return np.add.reduce(np.ascontiguousarray(a.T), axis=0, dtype=dtype)


def sweep_pairs(keys: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b), each unordered pair once, of the entries of the
    1-d array `keys` at most `reach` apart, in order of the stably sorted
    positions of a, then b.  Keys must lie within +-2^62."""
    order = np.argsort(keys, kind="stable")
    level = keys[order]
    k = len(level)
    # the sorted positions p < q with level[q] - level[p] <= reach
    count = np.searchsorted(level, level + reach, side="right") - np.arange(1, k + 1)
    p = np.repeat(np.arange(k), count)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(count) - count, count)
    return order[p], order[q]


def close_pairs(points, reach: int, norm: str = "l1"):
    """(i, j, dist) for every ordered pair i != j of rows of `points` at
    distance <= reach in the given norm, i-major and j increasing.

    Candidates come from `sweep_pairs` along axis 0, and distances are
    folded one axis at a time (see `row_count`).  Each axis's difference is
    capped at reach + 1, so the int64 distances are exact for coordinates
    within +-2^62.
    """
    pts = np.asarray(points, dtype=np.int64)
    a, b = sweep_pairs(pts[:, 0], reach)
    fold = np.maximum if norm == "linf" else np.add
    dist = np.zeros(len(a), dtype=np.int64)
    for col in np.ascontiguousarray(pts.T):
        fold(dist, np.minimum(np.abs(col[a] - col[b]), reach + 1), out=dist)
    near = dist <= reach
    i = np.concatenate([a[near], b[near]])
    j = np.concatenate([b[near], a[near]])
    at = np.argsort(i * len(pts) + j, kind="stable")
    return i[at], j[at], np.concatenate([dist[near]] * 2)[at]


def overlap(lo_a, shape_a, lo_b, shape_b) -> tuple[tuple, tuple]:
    """Slices of box a and of box b, each given by its least corner and
    shape, that select the cells the two boxes share (empty when none).
    With a grid at the origin as box a and at `off` as box b, grid[at_b] and
    grid[at_a] are the cells x and x + off.  Bounds are compared as Python
    ints, without `max` and `min` calls: on a few axes that beats arrays."""
    lo_a = lo_a.tolist() if isinstance(lo_a, np.ndarray) else lo_a
    lo_b = lo_b.tolist() if isinstance(lo_b, np.ndarray) else lo_b
    at_a, at_b = [], []
    for la, na, lb, nb in zip(lo_a, shape_a, lo_b, shape_b):
        lo = la if la > lb else lb
        hi = la + na if la + na < lb + nb else lb + nb
        if hi < lo:
            hi = lo
        at_a.append(slice(lo - la, hi - la))
        at_b.append(slice(lo - lb, hi - lb))
    return tuple(at_a), tuple(at_b)


def cluster_anchors(ids: np.ndarray, n: int, values: np.ndarray, key=None) -> np.ndarray:
    """Each cluster's anchor: for every id in 0..n-1, the largest tie key
    among the cluster's sites of largest value (-1 for an id with no site).

    `ids` and `values` give each site's cluster and value, read in flat
    order.  `key` maps an array of flat site indices to their tie keys, and
    is called only on the sites that hold their cluster's largest value; by
    default the key is the flat index, so a tie goes to the last site in C
    order.  Two scatter-max passes: the first takes each cluster's largest
    value, the second the largest key among the sites that reach it."""
    flat, v = ids.ravel(), values.ravel()
    best = np.empty(n, dtype=v.dtype)
    best[flat] = v  # any member's value starts the max, in the values' dtype
    np.maximum.at(best, flat, v)
    top = np.flatnonzero(v == best[flat])
    anchor = np.full(n, -1, dtype=np.int64)
    np.maximum.at(anchor, flat[top], top if key is None else key(top))
    return anchor


def rim_clusters(ids: np.ndarray, n: int) -> np.ndarray:
    """Mask over ids 0..n-1 of the clusters with a site on the rim of the
    grid `ids`: a cluster the grid may cut off."""
    rim = np.zeros(n, dtype=bool)
    for a in range(ids.ndim):
        rim[ids.take([0, -1], axis=a)] = True
    return rim


@dataclass(frozen=True)
class LatticeSpec:
    """The infinite lattice Z^d with power-graph adjacency, for demand engines."""

    d: int
    m: int = 1
    norm: str = "l1"

    @cached_property
    def degree(self) -> int:
        return ball_size(self.d, self.m, self.norm) - 1

    def neighbors(self, v: tuple[int, ...]) -> list[tuple[int, ...]]:
        """All u != v with dist(u, v) <= m, in nonzero_offsets order; v is a
        tuple of ints."""
        offs = nonzero_offsets(self.d, self.m, self.norm)
        return [tuple(map(add, v, off)) for off in offs]


@dataclass(frozen=True)
class Window:
    """Half-open box: {origin + x : 0 <= x_i < extent_i}."""

    origin: tuple[int, ...]
    extent: tuple[int, ...]

    def __post_init__(self):
        if len(self.origin) != len(self.extent) or any(e <= 0 for e in self.extent):
            raise ValueError("window needs matching origin/extent with positive extents")

    @property
    def d(self) -> int:
        return len(self.origin)

    @property
    def size(self) -> int:
        n = 1
        for e in self.extent:
            n *= e
        return n

    def contains(self, v: Sequence[int]) -> bool:
        return all(o <= c < o + e for c, o, e in zip(v, self.origin, self.extent))

    def ix_axes(self) -> tuple[np.ndarray, ...]:
        """The window's coordinates as an `np.ix_` box of one range per axis.

        The ranges broadcast to the extents, and the C order of that
        broadcast is the window's vertex order."""
        return np.ix_(*(np.arange(o, o + e) for o, e in zip(self.origin, self.extent)))

    def index(self, v: Sequence[int]) -> int:
        idx = 0
        for c, o, e in zip(v, self.origin, self.extent):
            if not (o <= c < o + e):
                raise KeyError(f"{v} outside window")
            idx = idx * e + (c - o)
        return idx

    def vertex(self, idx: int) -> tuple[int, ...]:
        out = []
        for e, o in zip(reversed(self.extent), reversed(self.origin)):
            out.append(idx % e + o)
            idx //= e
        return tuple(reversed(out))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for off in product(*(range(e) for e in self.extent)):
            yield tuple(o + x for o, x in zip(self.origin, off))

    def grow(self, margin: int) -> "Window":
        return Window(tuple(o - margin for o in self.origin),
                      tuple(e + 2 * margin for e in self.extent))


class FiniteGraph:
    """Immutable graph over vertices 0..n-1, stored as a padded neighbor matrix.

    `neighbor_matrix` is a read-only (n, width) int64 array: row v lists v's
    neighbors, and -1 fills its unused slots, in any position.  Index -1 reads
    the last entry of an array, so an array of n + 1 values whose last entry
    is a neutral value can be gathered through the matrix without a mask.
    """

    def __init__(self, n: int, neighbor_matrix: np.ndarray):
        nbr = np.asarray(neighbor_matrix, dtype=np.int64).view()
        if nbr.ndim != 2 or nbr.shape[0] != n:
            raise ValueError("the neighbor matrix needs one row per vertex")
        nbr.flags.writeable = False
        self.n = n
        self.neighbor_matrix = nbr

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "FiniteGraph":
        """Each row lists its neighbors in the order the edges name them."""
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if (e[:, 0] == e[:, 1]).any():
            raise ValueError("no self-loops")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
        # entry 2i is edge i seen from its first end, entry 2i + 1 from its
        # second; a stable sort by vertex keeps each row in entry order
        src, dst = e.ravel(), e[:, ::-1].ravel()
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        deg = np.bincount(src, minlength=n)
        nbr = np.full((n, deg.max(initial=0)), -1, dtype=np.int64)
        nbr[src, np.arange(src.size) - (np.cumsum(deg) - deg)[src]] = dst
        return cls(n, nbr)

    @property
    def indices(self) -> np.ndarray:
        """The matrix's neighbor entries, row by row, padding dropped."""
        return self.neighbor_matrix[self.neighbor_matrix >= 0]

    def neighbors(self, v: int) -> np.ndarray:
        row = self.neighbor_matrix[v]
        return row[row >= 0]

    @cached_property
    def max_degree(self) -> int:
        return int(row_count(self.neighbor_matrix >= 0).max(initial=0))

    def degree(self, v: int) -> int:
        return int((self.neighbor_matrix[v] >= 0).sum())

    def edge_list(self) -> np.ndarray:
        """(m, 2) array of edges with a < b."""
        src, dst = np.nonzero(self.neighbor_matrix >= 0)[0], self.indices
        mask = src < dst
        return np.stack([src[mask], dst[mask]], axis=1)


@dataclass
class WindowGraph:
    """A lattice window with power-graph adjacency and an interior mask.

    Two sites are adjacent when 0 < dist(u, v) <= m in the given norm.  Column
    j of the neighbor matrix holds each site's neighbor at the j-th offset of
    `nonzero_offsets`, or -1 where that neighbor falls outside the window.
    Vertices whose whole neighborhood does not fit carry interior=False;
    graph-generic passes still see them (as lower-degree boundary vertices)
    but audits only score interior claims.
    """

    window: Window
    graph: FiniteGraph
    interior: np.ndarray
    m: int
    norm: str

    @classmethod
    def build(cls, window: Window, m: int = 1, norm: str = "l1") -> "WindowGraph":
        offs = nonzero_offsets(window.d, m, norm)
        idx = np.arange(window.size).reshape(window.extent)
        step = np.array(idx.strides) // idx.itemsize  # flat index per unit move
        nbr = np.full(window.extent + (len(offs),), -1, dtype=np.int64)
        for j, off in enumerate(offs):
            # the sites whose neighbor at this offset is inside the window
            box = tuple(slice(max(-o, 0), max(e - o, 0))
                        for o, e in zip(off, window.extent))
            nbr[box + (j,)] = idx[box] + int(np.dot(off, step))
        nbr = nbr.reshape(window.size, len(offs))
        return cls(window, FiniteGraph(window.size, nbr), ~row_count(nbr < 0, bool),
                   m, norm)
