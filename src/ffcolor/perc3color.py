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

Parent extraction works on the faces of the drawn-diagonal subdivision:
each square is two triangles separated by its diagonal, triangles glue
across undrawn lattice sides, and the face just north of a cluster's
topmost-rightmost vertex has its outer boundary inside exactly one cluster,
the parent; the face's topmost-rightmost corner lies on that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .field import DEFAULT_BUDGET, BudgetExceeded
from .lattice import Window

STREAM_PREFIX = "three2d"

UNKNOWN = -1


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    m = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    return connected_components(m, directed=False)


def diagonal_rule(du: float, bprime: int) -> int:
    """0 for the rising diagonal (lower-left to upper-right), 1 for the
    falling one; exact zeros fall to the falling diagonal."""
    return 0 if du * bprime > 0 else 1


def choose_diagonals(s, field, stream_prefix: str = STREAM_PREFIX) -> int:
    """Diagonal of the unit square with lower-left corner s."""
    x, y = (int(c) for c in s)
    corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    u = [field.uniform(f"{stream_prefix}:u", c) for c in corners]
    b = [field.coin(f"{stream_prefix}:b", c) for c in corners]
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
        nx, ny = (int(e) for e in window.extent)
        if diag.shape != (nx - 1, ny - 1):
            raise ValueError("diagonal grid must have one entry per unit square")
        self.nclusters, labels = _components(nx * ny, *self._diag_edges(diag, ny))
        self.labels = labels.reshape(nx, ny)

        rim = np.zeros((nx, ny), dtype=bool)
        rim[[0, -1], :] = True
        rim[:, [0, -1]] = True
        self.closed = np.bincount(labels[rim.ravel()],
                                  minlength=self.nclusters) == 0

        self._build_faces(nx, ny)
        self._build_parents(nx, ny)
        self._build_labels(vlabel, wlabel, nx, ny)
        self._build_colors()

    # -- construction ------------------------------------------------------

    @staticmethod
    def _diag_edges(diag: np.ndarray, ny: int):
        i, j = np.nonzero(diag == 0)
        rows = [i * ny + j]
        cols = [(i + 1) * ny + (j + 1)]
        i, j = np.nonzero(diag == 1)
        rows.append((i + 1) * ny + j)
        cols.append(i * ny + (j + 1))
        return np.concatenate(rows), np.concatenate(cols)

    @classmethod
    def build(cls, field, window: Window,
              stream_prefix: str = STREAM_PREFIX) -> "PercWindow":
        axes = window.axes()
        u = field.uniform_box(f"{stream_prefix}:u", axes)
        b = field.coin_box(f"{stream_prefix}:b", axes).astype(np.int64)
        v = field.uniform_box(f"{stream_prefix}:v", axes)
        w = field.coin_box(f"{stream_prefix}:w", axes).astype(np.int64)
        du = (u[:-1, :-1] + u[1:, 1:]) - (u[1:, :-1] + u[:-1, 1:])
        bprime = b[:-1, :-1] * b[1:, :-1] * b[1:, 1:] * b[:-1, 1:]
        val = du * bprime
        diag = np.where(val > 0, 0, 1).astype(np.int8)
        return cls(window, diag, v, w, ties=int((val == 0).sum()))

    def _build_faces(self, nx: int, ny: int) -> None:
        # triangle 2*sq+0 touches the square's west side, 2*sq+1 its east
        # side; the north side belongs to triangle `diag`, the south side to
        # `1 - diag`.  Triangles glue across lattice sides, never across the
        # drawn diagonal.
        nsx, nsy = nx - 1, ny - 1
        diag = self.diag
        sq = np.arange(nsx * nsy).reshape(nsx, nsy)
        rows = [2 * sq[:-1, :].ravel() + 1, 2 * sq[:, :-1].ravel() + diag[:, :-1].ravel()]
        cols = [2 * sq[1:, :].ravel(), 2 * sq[:, 1:].ravel() + 1 - diag[:, 1:].ravel()]
        self.nfaces, self.face = _components(
            2 * nsx * nsy, np.concatenate(rows), np.concatenate(cols))

        open_tris = np.concatenate([
            2 * sq[0, :], 2 * sq[-1, :] + 1,
            2 * sq[:, 0] + 1 - diag[:, 0], 2 * sq[:, -1] + diag[:, -1]])
        self.face_open = np.bincount(self.face[open_tris],
                                     minlength=self.nfaces) > 0

        # top-right corner (lexicographic by (y, x)) of every face
        i, j = np.indices((nsx, nsy))
        key = {
            "s1": j * nx + i, "s2": j * nx + (i + 1),
            "s3": (j + 1) * nx + (i + 1), "s4": (j + 1) * nx + i,
        }
        main = diag == 0
        west = np.maximum(key["s1"], np.where(main, np.maximum(key["s4"], key["s3"]),
                                              np.maximum(key["s2"], key["s4"])))
        east = np.where(main, np.maximum(key["s1"], np.maximum(key["s2"], key["s3"])),
                        np.maximum(key["s2"], np.maximum(key["s3"], key["s4"])))
        face_key = np.full(self.nfaces, -1, dtype=np.int64)
        np.maximum.at(face_key, self.face[2 * sq.ravel()], west.ravel())
        np.maximum.at(face_key, self.face[2 * sq.ravel() + 1], east.ravel())
        self.face_key = face_key

        # square-index bounding box of every face
        both = np.concatenate([self.face[2 * sq.ravel()], self.face[2 * sq.ravel() + 1]])
        si = np.concatenate([i.ravel(), i.ravel()])
        sj = np.concatenate([j.ravel(), j.ravel()])
        self.face_lo = np.full((self.nfaces, 2), max(nsx, nsy), dtype=np.int64)
        self.face_hi = np.full((self.nfaces, 2), -1, dtype=np.int64)
        np.minimum.at(self.face_lo[:, 0], both, si)
        np.minimum.at(self.face_lo[:, 1], both, sj)
        np.maximum.at(self.face_hi[:, 0], both, si)
        np.maximum.at(self.face_hi[:, 1], both, sj)

    def _build_parents(self, nx: int, ny: int) -> None:
        ncl = self.nclusters
        i, j = np.indices((nx, ny))
        key = j * nx + i
        flat = self.labels.ravel()
        top = np.full(ncl, -1, dtype=np.int64)
        np.maximum.at(top, flat, key.ravel())
        ti, tj = top % nx, top // nx

        self.cluster_lo = np.full((ncl, 2), max(nx, ny), dtype=np.int64)
        self.cluster_hi = np.full((ncl, 2), -1, dtype=np.int64)
        np.minimum.at(self.cluster_lo[:, 0], flat, i.ravel())
        np.minimum.at(self.cluster_lo[:, 1], flat, j.ravel())
        np.maximum.at(self.cluster_hi[:, 0], flat, i.ravel())
        np.maximum.at(self.cluster_hi[:, 1], flat, j.ravel())

        parent = np.full(ncl, UNKNOWN, dtype=np.int64)
        cface = np.full(ncl, UNKNOWN, dtype=np.int64)
        cand = np.nonzero(self.closed)[0]
        if cand.size:
            tri = 2 * (ti[cand] * (ny - 1) + tj[cand])  # west triangle of square(t)
            faces = self.face[tri]
            ok = ~self.face_open[faces]
            corner = self.face_key[faces[ok]]
            ci, cj = corner % nx, corner // nx
            parent[cand[ok]] = self.labels[ci, cj]
            cface[cand[ok]] = faces[ok]
        self.parent = parent
        self.cluster_face = cface

    def _build_labels(self, vlabel: np.ndarray, wlabel: np.ndarray,
                      nx: int, ny: int) -> None:
        flat = self.labels.ravel()
        i, j = np.indices((nx, ny))
        order = np.lexsort(((j * nx + i).ravel(), vlabel.ravel(), flat))
        last = np.nonzero(np.diff(flat[order], append=-1))[0]
        anchor = order[last]  # max-v vertex (ties to top-right) per cluster
        self.ylabel = np.zeros(self.nclusters, dtype=np.int64)
        self.ylabel[flat[anchor]] = wlabel.ravel()[anchor]

        p = np.where(self.parent == UNKNOWN, 0, self.parent)
        self.special_known = self.closed & (self.parent != UNKNOWN) & self.closed[p]
        self.special = self.special_known \
            & (self.ylabel == 1) & (self.ylabel[p] == -1)

    def _build_colors(self) -> None:
        # Alongside the ancestor distances, accumulate per cluster the
        # bounding box a centered box window must cover (minus its rim) for
        # the per-vertex query to certify the same answer: the cluster and
        # every chain ancestor padded by 1, their parent-extraction faces as
        # square indices padded by (1, 2), and the special ancestor's parent.
        ncl = self.nclusters
        color = np.zeros(ncl, dtype=np.int64)
        dist = np.full(ncl, UNKNOWN, dtype=np.int64)  # steps to special ancestor
        base_lo = np.minimum(self.cluster_lo - 1,
                             self.face_lo[self.cluster_face] - 1)
        base_hi = np.maximum(self.cluster_hi + 1,
                             self.face_hi[self.cluster_face] + 2)
        req_lo = np.zeros((ncl, 2), dtype=np.int64)
        req_hi = np.zeros((ncl, 2), dtype=np.int64)
        for c in range(ncl):
            chain = []
            cur = c
            while dist[cur] == UNKNOWN and self.special_known[cur] \
                    and not self.special[cur]:
                chain.append(cur)
                cur = int(self.parent[cur])
            if dist[cur] != UNKNOWN:
                base = dist[cur]
            elif self.special_known[cur] and self.special[cur]:
                base = dist[cur] = 0
                p = self.parent[cur]
                req_lo[cur] = np.minimum(base_lo[cur], self.cluster_lo[p] - 1)
                req_hi[cur] = np.maximum(base_hi[cur], self.cluster_hi[p] + 1)
            else:
                continue  # chain leaves the window; everything on it stays unknown
            for step, k in enumerate(reversed(chain), start=1):
                dist[k] = base + step
                p = self.parent[k]
                req_lo[k] = np.minimum(base_lo[k], req_lo[p])
                req_hi[k] = np.maximum(base_hi[k], req_hi[p])
        known = dist != UNKNOWN
        color[known & (dist == 0)] = 1
        color[known & (dist % 2 == 1)] = 2
        color[known & (dist != 0) & (dist % 2 == 0)] = 3
        self.dist = dist
        self.color = color
        self.color_known = known
        self.req_lo = req_lo
        self.req_hi = req_hi

    # -- queries -----------------------------------------------------------

    def _index(self, v) -> tuple[int, int]:
        i, j = (int(c) - int(o) for c, o in zip(v, self.window.origin))
        nx, ny = self.window.extent
        if not (0 <= i < nx and 0 <= j < ny):
            raise ValueError(f"{tuple(v)} outside window")
        return i, j

    def cluster_of(self, v) -> tuple[np.ndarray, bool]:
        """Vertices (absolute coordinates) of v's cluster and its closed flag."""
        i, j = self._index(v)
        cid = int(self.labels[i, j])
        ii, jj = np.nonzero(self.labels == cid)
        coords = np.stack([ii + self.window.origin[0],
                           jj + self.window.origin[1]], axis=1)
        return coords, bool(self.closed[cid])

    def cluster_id(self, v) -> int:
        i, j = self._index(v)
        return int(self.labels[i, j])

    def parent_of(self, cid: int) -> int:
        """Cluster id of the surrounding adjacent cluster, or UNKNOWN."""
        return int(self.parent[cid])

    def color_of(self, v) -> int:
        """Color at v, 0 when the ancestor chain leaves the window."""
        i, j = self._index(v)
        return int(self.color[self.labels[i, j]])

    def colors_grid(self) -> tuple[np.ndarray, np.ndarray]:
        grid = self.color[self.labels]
        return grid, grid > 0


def three2d_window(field, window: Window, *, margin: int = 128,
                   stream_prefix: str = STREAM_PREFIX):
    """Color a window, certifying through a padded surrounding region.

    Returns (colors, valid, perc); colors is 0 where the cluster's chain to
    its nearest special ancestor cannot be certified inside the padded
    region.
    """
    perc = PercWindow.build(field, window.grow(margin), stream_prefix)
    grid, valid = perc.colors_grid()
    core = tuple(slice(margin, margin + e) for e in window.extent)
    return grid[core], valid[core], perc


def coding_radii(field, window: Window, *, cap: int = 512, start_half: int = 4,
                 stream_prefix: str = STREAM_PREFIX):
    """Exact per-vertex coding radii over a window, via one shared build.

    A box certifies the same chain as the infinite volume exactly when the
    cluster requirement box sits inside it minus the rim, so the radius the
    demand-driven query would report is computable from per-cluster data:
    twice the first scheduled half-width reaching the requirement box.
    Returns (radii, resolved, colors, perc); radii and colors are 0 where
    the query would pass the cap instead (resolved False).  The surrounding
    margin is sized so censoring is exact, never window-limited.
    """
    margin = cap // 2 + 2
    perc = PercWindow.build(field, window.grow(margin), stream_prefix)
    core = tuple(slice(margin, margin + e) for e in window.extent)
    lab = perc.labels[core]
    i, j = np.indices(lab.shape)
    i += margin
    j += margin
    need = np.maximum.reduce([
        i - perc.req_lo[lab, 0], perc.req_hi[lab, 0] - i,
        j - perc.req_lo[lab, 1], perc.req_hi[lab, 1] - j])
    need = np.maximum(need, start_half)
    sched = np.exp2(np.ceil(np.log2(need / start_half))).astype(np.int64) \
        * start_half
    radii = 2 * sched
    resolved = perc.color_known[lab] & (radii <= cap)
    colors = np.where(resolved, perc.color[lab], 0)
    return np.where(resolved, radii, 0), resolved, colors, perc


def three_color_2d(v, field, *, start_half: int = 4, radius_cap: int | None = None,
                   stream_prefix: str = STREAM_PREFIX) -> tuple[int, int]:
    """Color at one vertex by growing centered windows until certified.

    Windows double in half-width; the answer is window-independent because
    every certificate (closed cluster, closed face, closed parent) is stable
    under growth.  Returns (color, radius) with radius the 1-norm reach of
    the final window read, 2 * half-width; raises when the cap is passed.
    """
    cap = DEFAULT_BUDGET.radius_cap if radius_cap is None else radius_cap
    v = tuple(int(c) for c in v)
    if len(v) != 2:
        raise ValueError("diagonal percolation coloring is planar only")
    h = start_half
    while 2 * h <= cap:
        win = Window((v[0] - h, v[1] - h), (2 * h + 1, 2 * h + 1))
        perc = PercWindow.build(field, win, stream_prefix)
        cid = perc.cluster_id(v)
        if perc.color_known[cid]:
            return int(perc.color[cid]), 2 * h
        h *= 2
    raise BudgetExceeded("radius", cap, stream_prefix, v)
