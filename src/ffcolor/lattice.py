"""Lattice geometry and finite graphs.

Windows are half-open boxes given by an origin and positive extents.  A
finite graph over 0..n-1 is stored as one padded neighbor matrix: row v holds
v's neighbors, and -1 fills the unused slots, anywhere in the row.  Every
graph-generic pass reads only that matrix.  A lattice window writes column j
of its matrix straight from the j-th offset of `nonzero_offsets`, with -1
where that neighbor falls outside the window, and an interior mask marks the
vertices whose full neighborhood lies inside it.  The demand engines take
their neighbor lists from the same cached offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import comb
from operator import add
from typing import Iterator, Sequence

import numpy as np


def l1(v: Sequence[int]) -> int:
    return sum(abs(int(c)) for c in v)


def linf(v: Sequence[int]) -> int:
    return max(abs(int(c)) for c in v)


def ball_offsets(d: int, r: int, norm: str = "l1") -> list[tuple[int, ...]]:
    """All offsets with |x| <= r in the given norm, origin included."""
    if norm == "linf":
        return [off for off in product(range(-r, r + 1), repeat=d)]
    out = []

    def rec(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == d - 1:
            for c in range(-left, left + 1):
                out.append(prefix + (c,))
            return
        for c in range(-left, left + 1):
            rec(prefix + (c,), left - abs(c))

    rec((), r)
    return out


def ball_size(d: int, r: int, norm: str = "l1") -> int:
    if norm == "linf":
        return (2 * r + 1) ** d
    # sum over k of C(d,k) 2^k C(r,k): choose k axes that are nonzero... via
    # standard lattice-point count of the cross-polytope
    return sum(comb(d, k) * 2**k * comb(r, k) for k in range(0, min(d, r) + 1))


def sphere_offsets(d: int, r: int, norm: str = "l1") -> list[tuple[int, ...]]:
    if r == 0:
        return [(0,) * d]
    dist = l1 if norm == "l1" else linf
    return [off for off in ball_offsets(d, r, norm) if dist(off) == r]


@lru_cache(maxsize=None)
def nonzero_offsets(d: int, m: int, norm: str = "l1") -> tuple[tuple[int, ...], ...]:
    """The offsets u - v of the neighbors u of v in Z^d_(m), in ball_offsets
    order: every nonzero offset with |x| <= m in the given norm."""
    return tuple(off for off in ball_offsets(d, m, norm) if any(off))


@dataclass(frozen=True)
class LatticeSpec:
    """The infinite lattice Z^d with power-graph adjacency, for demand engines."""

    d: int
    m: int = 1
    norm: str = "l1"

    @property
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

    def axes(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis, shape = extents."""
        grids = np.indices(self.extent)
        return [grids[i] + self.origin[i] for i in range(self.d)]

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
        # second; column c takes each vertex's first entry not yet placed
        src, dst = e.ravel(), e[:, ::-1].ravel()
        nbr = np.full((n, np.bincount(src, minlength=n).max(initial=0)), -1,
                      dtype=np.int64)
        todo = np.ones(src.size, dtype=bool)
        for c in range(nbr.shape[1]):
            first = np.full(n, src.size)
            np.minimum.at(first, src[todo], np.flatnonzero(todo))
            first = first[first < src.size]
            nbr[src[first], c] = dst[first]
            todo[first] = False
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
        return int((self.neighbor_matrix >= 0).sum(axis=1).max(initial=0))

    def degree(self, v: int) -> int:
        return int((self.neighbor_matrix[v] >= 0).sum())

    def edge_list(self) -> np.ndarray:
        """(m, 2) array of edges with a < b."""
        src, dst = np.nonzero(self.neighbor_matrix >= 0)[0], self.indices
        mask = src < dst
        return np.stack([src[mask], dst[mask]], axis=1)


def path_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


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
    coords: np.ndarray  # (n, d) int64
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
        coords = np.stack([a.ravel() for a in window.axes()], axis=1).astype(np.int64)
        return cls(window, FiniteGraph(window.size, nbr), (nbr >= 0).all(axis=1),
                   coords, m, norm)

    def axes(self) -> list[np.ndarray]:
        return [self.coords[:, i] for i in range(self.window.d)]
