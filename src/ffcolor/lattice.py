"""Lattice geometry and finite graphs.

Windows are half-open boxes given by an origin and positive extents.  Finite
graphs are CSR adjacency over 0..n-1; lattice windows build their own CSR for
the graph-generic algorithms, with an explicit interior mask marking vertices
whose full neighborhood lies inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb
from typing import Callable, Iterator, Sequence

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


def power_graph_neighbors(v: Sequence[int], m: int, norm: str = "l1",
                          d: int | None = None) -> list[tuple[int, ...]]:
    """All u != v with dist(u, v) <= m; the adjacency of Z^d_(m)."""
    if d is None:
        d = len(v)
    v = tuple(int(c) for c in v)
    return [tuple(a + b for a, b in zip(v, off))
            for off in ball_offsets(d, m, norm) if any(c != 0 for c in off)]


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
        return power_graph_neighbors(v, self.m, self.norm, self.d)


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
    """Immutable CSR adjacency over vertices 0..n-1.

    `max_degree` and `neighbor_matrix` are derived once per graph and cached.
    """

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = n
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.shape != (n + 1,):
            raise ValueError("bad indptr")

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "FiniteGraph":
        deg = np.zeros(n, dtype=np.int64)
        for a, b in edges:
            if a == b:
                raise ValueError("no self-loops")
            deg[a] += 1
            deg[b] += 1
        indptr = np.concatenate([[0], np.cumsum(deg)])
        indices = np.empty(indptr[-1], dtype=np.int64)
        fill = indptr[:-1].copy()
        for a, b in edges:
            indices[fill[a]] = b
            fill[a] += 1
            indices[fill[b]] = a
            fill[b] += 1
        return cls(n, indptr, indices)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    @cached_property
    def max_degree(self) -> int:
        return int(np.max(np.diff(self.indptr))) if self.n else 0

    @cached_property
    def neighbor_matrix(self) -> np.ndarray:
        """Read-only (n, max_degree) neighbor indices, each row padded with -1.

        Row v lists v's CSR neighbors in order.  Index -1 reads the last entry
        of an array, so an array of n + 1 values whose last entry is a neutral
        value can be gathered through this matrix without a mask.
        """
        deg = np.diff(self.indptr)
        nbr = np.full((self.n, self.max_degree), -1, dtype=np.int64)
        rows = np.repeat(np.arange(self.n), deg)
        nbr[rows, np.arange(rows.size) - self.indptr[rows]] = self.indices
        nbr.flags.writeable = False
        return nbr

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edge_list(self) -> np.ndarray:
        """(m, 2) array of edges with a < b."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)


def path_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@dataclass
class WindowGraph:
    """A lattice window with power-graph adjacency, CSR plus interior mask.

    Two sites are adjacent when 0 < dist(u, v) <= m in the given norm.
    Vertices whose whole neighborhood escapes the window carry interior=False;
    graph-generic passes still see them (as lower-degree boundary vertices) but
    audits only score interior claims.
    """

    window: Window
    graph: FiniteGraph
    interior: np.ndarray
    coords: np.ndarray  # (n, d) int64
    m: int
    norm: str

    @classmethod
    def build(cls, window: Window, m: int = 1, norm: str = "l1") -> "WindowGraph":
        d = window.d
        offs = [o for o in ball_offsets(d, m, norm) if any(c != 0 for c in o)]
        ext = np.array(window.extent)
        coords_nd = np.stack([a.ravel() for a in np.indices(window.extent)], axis=1)
        n = coords_nd.shape[0]
        strides = np.ones(d, dtype=np.int64)
        for i in range(d - 2, -1, -1):
            strides[i] = strides[i + 1] * ext[i + 1]
        src_all, dst_all = [], []
        interior = np.ones(n, dtype=bool)
        for off in offs:
            shifted = coords_nd + np.array(off)
            ok = np.all((shifted >= 0) & (shifted < ext), axis=1)
            interior &= ok
            idx = np.nonzero(ok)[0]
            src_all.append(idx)
            dst_all.append(shifted[idx] @ strides)
        src = np.concatenate(src_all)
        dst = np.concatenate(dst_all)
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        indptr = np.searchsorted(src, np.arange(n + 1))
        g = FiniteGraph(n, indptr, dst)
        abs_coords = coords_nd + np.array(window.origin)
        return cls(window, g, interior, abs_coords.astype(np.int64), m, norm)

    def axes(self) -> list[np.ndarray]:
        return [self.coords[:, i] for i in range(self.window.d)]
