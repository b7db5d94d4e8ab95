"""Hierarchical ball tiling of Z^d and the checkerboard-pair three-coloring on it.

Scale j works with balls of 1-norm radius 13^j around surviving Bernoulli
centers (candidates with another candidate within 4*13^j are mutually
excluded).  Level-1 tiles are exactly the balls; a higher tile is the
1-neighborhood of its ball plus every nearby lower clump, minus all earlier
tiles.  Tiles form a forest (a lower tile contained in that union becomes a
child), and clumps are the components of tiles at set distance <= 2.

A clump is one member list on its root, its one tile of top level.  A root's
list is fixed from the root's creation until its absorption, and every tile
painted inside a new ball is absorbed; so a new tile lists itself and the
lists of the roots it merges, and takes its children from the tiles it
absorbed.

Tile masks are disjoint: the center spacing keeps level-1 balls apart, and
every later mask is cut to cells no earlier tile holds.  So one paint grid of
tile ids records the whole tiling, each cell painted by exactly the tile whose
mask holds it, and the clumps near a new tile, the colors of a window and the
audit of the tiling are all read through that grid.

Colors come from a graph homomorphism of the forest into the six-vertex
graph of two-color checkerboards: a fair coin per tile marks "special" tiles
(own coin heads, next two ancestors tails), each special tile draws a uniform
checkerboard, and every tile walks `canonical_path` between the phase-shifted
checkerboards of its two nearest special ancestors; that walk is computed
from the checkerboards' ring positions in `HEX_INDEX`.  Reading the tile's
checkerboard at the vertex itself yields a proper 3-coloring wherever the
forest covers.

At honest center densities the forest is empty at any reachable scale, so
window colorings accept a density multiplier and close off roots (a root
counts as special with its own phase); the per-vertex query keeps the true
semantics and reports a budget refusal when the ancestor chain outruns the
radius cap.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .field import BudgetExceeded, DEFAULT_BUDGET
from .lattice import Window, ball_mask, close_pairs, overlap
from .verify import AuditReport

SCALE_BASE = 13
HEX_DIAMETER = 3
STREAM_PREFIX = "tiling"


def center_density(d: int, j: int, density_scale: float = 1.0) -> float:
    """The level-j center density density_scale * 13^(-j*d) in Z^d."""
    return density_scale * float(SCALE_BASE) ** (-j * d)


def center_pad(j: int) -> int:
    """4*13^j: level-j centers exclude each other within this 1-norm
    distance, and the center scan pads its box by it."""
    return 4 * SCALE_BASE ** j


# -- checkerboard-pair graph ------------------------------------------------

HEX_VERTICES = ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))
HEX_INDEX = {q: i for i, q in enumerate(HEX_VERTICES)}


def translate_phase(q: tuple, parity: int) -> tuple:
    """Checkerboard translated by any vector of the given 1-norm parity."""
    return q if parity % 2 == 0 else (q[1], q[0])


def phase_color(q: tuple, v) -> int:
    """Color the checkerboard q assigns to vertex v."""
    return q[int(sum(int(c) for c in v)) % 2]


def canonical_path(a: tuple, b: tuple) -> tuple:
    """The canonical shortest walk from checkerboard a to b, both ends kept.

    The six checkerboards form a ring, each with a self-loop: ring
    neighbors exchange the unused color for one used color, and antipodal
    pairs swap the two used colors.  From ring position i to k the walk runs
    forward when (k - i) mod 6 < 3 and backward when it is > 3; between
    antipodes it goes the way whose first step is lexicographically smaller.
    """
    i, ahead = HEX_INDEX[a], (HEX_INDEX[b] - HEX_INDEX[a]) % 6
    forward = HEX_VERTICES[(i + 1) % 6] < HEX_VERTICES[i - 1] if ahead == 3 else ahead < 3
    step = 1 if forward else -1
    return tuple(HEX_VERTICES[(i + step * t) % 6]
                 for t in range(min(ahead, 6 - ahead) + 1))


# -- center discovery -------------------------------------------------------

def _bernoulli_points(field, stream: str, lo, hi, p: float, core=None) -> np.ndarray:
    """All vertices of [lo, hi) whose uniform label falls below p (p <= 1),
    in lexicographic order, or none when the sub-box `core` holds none.

    `core` is a tuple of slices of the box's index space, as for
    `u64_below`; None is the whole box.  For p < 1, uniform < p exactly when
    u64 < ceil(p * 2^53) << 11 (see the field module), so `u64_below` finds
    the hits block by block without building the box's labels, and hashes
    the rest of the box around the core only when the core holds a hit.  At
    p = 1 every vertex is a hit, and one `u64_box` read records the box and
    returns all of it, whatever the core.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    if np.any(hi <= lo):
        return np.empty((0, lo.size), dtype=np.int64)
    axes = np.ix_(*map(np.arange, lo, hi))
    if p < 1:
        flat = field.u64_below(stream, axes, math.ceil(p * 2.0**53) << 11, core)
    else:
        flat = np.arange(field.u64_box(stream, axes).size)
    return np.stack(np.unravel_index(flat, tuple(hi - lo)), axis=1) + lo


def centers(field, j: int, lo, hi, *, density_scale: float = 1.0) -> np.ndarray:
    """Level-j centers inside [lo, hi), in lexicographic order.

    Candidates are Bernoulli(density_scale * 13^(-j*d)) per vertex; a
    candidate with any other candidate within 1-norm distance 4*13^j
    (inclusive) is dropped, and so is that other candidate.  The scan reads
    the box padded by 4*13^j, so every returned center's exclusion
    certificate is complete, but hashes the pad only when [lo, hi), its
    core, holds a candidate: thinning returns only core candidates, so a
    core without one has no centers whatever the pad holds.  A tracked
    scan records the whole padded box either way.  A density outside
    [0, 1] raises ValueError.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.int64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.int64))
    d = lo.size
    pad = center_pad(j)
    p = center_density(d, j, density_scale)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"level-{j} center density {p} is not in [0, 1]")
    core = tuple(slice(pad, pad + n) for n in np.maximum(hi - lo, 0).tolist())
    pts = _bernoulli_points(field, f"{STREAM_PREFIX}:w:{j}", lo - pad, hi + pad, p, core)
    inside = np.all((pts >= lo) & (pts < hi), axis=1)
    crowded = np.zeros(len(pts), dtype=bool)
    crowded[close_pairs(pts, pad)[0]] = True
    return pts[inside & ~crowded]


# -- tiles and the forest ---------------------------------------------------

_FAR = 1 << 40  # beyond any signed coordinate sum of a grid cell


@lru_cache(maxsize=8)
def _sign_rows(d: int) -> np.ndarray:
    """The 2^(d-1) sign vectors (1, +-1, ..., +-1), one per row: the 1-norm
    of x is the largest |<sign row, x>|."""
    bits = np.arange(1 << (d - 1))[:, None] >> np.arange(d - 1)
    rows = np.hstack([np.ones((len(bits), 1), dtype=np.int64), 1 - 2 * (bits & 1)])
    rows.flags.writeable = False
    return rows


class Tile:
    __slots__ = ("tid", "level", "center", "lo", "mask", "parent", "children",
                 "clump_members")

    def __init__(self, tid: int, level: int, center: tuple, lo: np.ndarray,
                 mask: np.ndarray):
        self.tid = tid
        self.level = level
        self.center = center
        self.lo = lo
        self.mask = mask
        self.parent = None
        self.children = []
        self.clump_members = (tid,)


class TileForest:
    """All tiles a family of per-level centers generates, with audits.

    The forest is anchored to the centers it is given: invariants that only
    depend on center spacing (partition, parent links, clump geometry) hold
    exactly for the truncated system, while coverage is whatever the balls
    reach.  `region` bounds the coverage/coloring box; masks may extend past
    it and the paint grid is sized to hold them all.  Each grid cell holds the
    id of exactly the tile whose mask holds it (-1 where none does), so "some
    member's mask meets these cells" is a lookup of those cells in the grid.

    `_root[t]` is the root of tile t's clump, whose `clump_members` is the
    clump's only member list: a root's list is fixed from its creation until
    its absorption.  Every tile painted inside a new ball is absorbed, since
    painting is disjoint and the spacing and clump-reach invariants `audit`
    checks keep each level-j clump off the other level-j balls.  So the
    earlier tiles inside S_B are the absorbed ones, and the children are
    those of them with no parent and a nonempty mask.
    """

    def __init__(self, d: int, region_lo, region_hi, centers_by_level: dict,
                 *, coin_fn, h_fn):
        self.d = d
        self.lo = np.asarray(region_lo, dtype=np.int64)
        self.hi = np.asarray(region_hi, dtype=np.int64)
        self.levels = {}
        for j in sorted(centers_by_level):
            pts = np.asarray(centers_by_level[j], dtype=np.int64).reshape(-1, d)
            self.levels[j] = pts[np.lexsort(pts.T[::-1])]
            self._check_spacing(j, self.levels[j])
        self.coin_fn = coin_fn
        self.h_fn = h_fn
        self.tiles: list[Tile] = []
        self.overlaps = 0
        self._lost: list[tuple[int, np.ndarray]] = []  # see _paint
        self._alloc_grid()
        self._root: list[int] = []
        for j in sorted(self.levels):
            self._build_level(j)
        self._coin_cache: dict[int, int] = {}
        self._h_cache: dict[int, tuple] = {}
        self.special: dict[int, bool | None] = {}
        self.g: dict[int, tuple | None] = {}

    # -- construction ------------------------------------------------------

    def _check_spacing(self, j: int, pts: np.ndarray) -> None:
        i, k, _ = close_pairs(pts, center_pad(j))
        if len(i):
            raise ValueError(
                f"level-{j} centers {tuple(pts[i[0]].tolist())} and "
                f"{tuple(pts[k[0]].tolist())} violate the 4*13^{j} separation")

    def _alloc_grid(self) -> None:
        glo = self.lo.copy()
        ghi = self.hi.copy()
        for j, pts in self.levels.items():
            if len(pts) == 0:
                continue
            reach = 3 * SCALE_BASE ** j // 2 + 4
            glo = np.minimum(glo, pts.min(axis=0) - reach)
            ghi = np.maximum(ghi, pts.max(axis=0) + reach + 1)
        self.grid_lo = glo
        self.grid = np.full(tuple(ghi - glo), -1, dtype=np.int32)

    def _paint(self, tile: Tile) -> None:
        """Paint the tile's id on its unpainted mask cells.  Cells an earlier
        tile holds stay that tile's; they count in `overlaps`, and `_lost`
        keeps their indices in the raveled grid under this tile's id."""
        at = overlap(self.grid_lo, self.grid.shape, tile.lo, tile.mask.shape)[0]
        sub = self.grid[at]
        clash = tile.mask & (sub >= 0)
        count = int(np.count_nonzero(clash))
        if count:
            self.overlaps += count
            self._lost.append((tile.tid, np.ravel_multi_index(
                [c + s.start for c, s in zip(np.nonzero(clash), at)], self.grid.shape)))
        sub[tile.mask & (sub < 0)] = tile.tid

    def _new_tile(self, level: int, center, lo, mask) -> Tile:
        tile = Tile(len(self.tiles), level, tuple(int(c) for c in center),
                    np.asarray(lo, dtype=np.int64), mask)
        self.tiles.append(tile)
        self._paint(tile)
        self._root.append(tile.tid)
        return tile

    def _build_level(self, j: int) -> None:
        pts = self.levels[j]
        r = SCALE_BASE ** j
        if j == 1:
            # every level-1 tile holds the one cached, read-only ball as its mask
            for c in pts:
                self._new_tile(1, c, c - r, ball_mask(self.d, r))
            return
        for c in pts:
            self._build_tile(j, c, r)

    def _clump_roots(self, tids: np.ndarray, j: int) -> list[int]:
        """Roots, ascending, of the clumps below level j that own these
        paint-grid entries; unpainted entries (-1) belong to no clump."""
        roots = {self._root[t] for t in np.unique(tids[tids >= 0]).tolist()}
        return sorted(r for r in roots if self.tiles[r].level < j)

    def _build_tile(self, j: int, c: np.ndarray, r: int) -> None:
        half = r + 3 * SCALE_BASE ** (j - 1) + 8
        lo = c - half
        shape = (2 * half + 1,) * self.d
        s_mask = np.zeros(shape, dtype=bool)
        s_mask[(slice(half - r, half + r + 1),) * self.d] = ball_mask(self.d, r)
        sub = self.grid[overlap(self.grid_lo, self.grid.shape, lo, shape)[0]]

        # S_B: the ball and every sub-level clump with a member within
        # distance 2 of it
        reach = sub[(slice(half - r - 2, half + r + 3),) * self.d]
        roots = self._clump_roots(reach[ball_mask(self.d, r + 2)], j)
        absorbed = sorted(m for root in roots for m in self.tiles[root].clump_members)
        for tid in absorbed:
            t = self.tiles[tid]
            inside = s_mask[overlap(lo, shape, t.lo, t.mask.shape)[0]]
            if inside.shape != t.mask.shape:
                raise AssertionError("clump member escapes its tile box")
            inside |= t.mask
        t_mask = ndimage.binary_dilation(s_mask, structure=ball_mask(self.d, 1))
        t_mask &= sub < 0
        tile = self._new_tile(j, c, lo, t_mask)

        # children: the absorbed tiles not yet claimed
        for tid in absorbed:
            t = self.tiles[tid]
            if t.parent is None and t.mask.any():
                t.parent = tile.tid
                tile.children.append(tid)

        # the new clump: this tile plus every sub-level clump within distance 2
        near = ndimage.binary_dilation(t_mask, structure=ball_mask(self.d, 1),
                                       iterations=2)
        members = [tile.tid]
        for root in self._clump_roots(sub[near], j):
            members += self.tiles[root].clump_members
        for tid in members:
            self._root[tid] = tile.tid
        tile.clump_members = tuple(members)

    # -- lookups -------------------------------------------------------------

    def tile_at(self, v) -> int:
        """Tile id covering v, or -1."""
        v = np.asarray(v, dtype=np.int64)
        rel = v - self.grid_lo
        if np.any(rel < 0) or np.any(rel >= self.grid.shape):
            return -1
        return int(self.grid[tuple(rel)])

    def coin(self, tid: int) -> int:
        if tid not in self._coin_cache:
            self._coin_cache[tid] = int(self.coin_fn(self.tiles[tid].center))
        return self._coin_cache[tid]

    def h(self, tid: int) -> tuple:
        if tid not in self._h_cache:
            q = tuple(self.h_fn(self.tiles[tid].center))
            if q not in HEX_INDEX:
                raise ValueError(f"h draw {q} is not a checkerboard pair")
            self._h_cache[tid] = q
        return self._h_cache[tid]

    def h_prime(self, tid: int) -> tuple:
        c = self.tiles[tid].center
        return translate_phase(self.h(tid), sum(c) % 2)

    # -- specials and the homomorphism ---------------------------------------

    def mark_specials(self, *, root_closure: bool) -> None:
        """Special: own coin heads, the next two ancestors' coins tails.

        With root_closure, missing ancestors count as tails and every root is
        special outright.  Without it, a tile whose two ancestors are not both
        present gets None (undecidable from this forest) unless its own coin
        already settles the matter.
        """
        self.special = {}
        for t in self.tiles:
            if root_closure and t.parent is None:
                self.special[t.tid] = True
                continue
            if self.coin(t.tid) < 0:
                self.special[t.tid] = False
                continue
            flag: bool | None = True
            cur = t.parent
            for _ in range(HEX_DIAMETER - 1):
                if cur is None:
                    if not root_closure:
                        flag = None
                    break
                if self.coin(cur) > 0:
                    flag = False
                    break
                cur = self.tiles[cur].parent
            self.special[t.tid] = flag

    def nearest_special(self, tid: int) -> tuple[int, int] | None:
        """(ancestor id, generation count); the tile itself if it is a root
        under closure.  None when undecidable in this forest."""
        if self.special.get(tid) is True and self.tiles[tid].parent is None:
            return tid, 0
        steps = 0
        cur = self.tiles[tid].parent
        while cur is not None:
            steps += 1
            flag = self.special.get(cur)
            if flag is None:
                return None
            if flag:
                return cur, steps
            cur = self.tiles[cur].parent
        return None

    def homomorphism(self, tid: int) -> tuple | None:
        """g(T): the checkerboard the nearest special ancestors give tile
        `tid`, or None when this forest cannot decide it."""
        walk = self.nearest_special(tid)
        if walk is None:
            return None
        a, gens = walk
        if gens >= HEX_DIAMETER:
            return self.h_prime(a)
        up = self.nearest_special(a)
        if up is None:
            return None
        aa = up[0]
        parity = sum(self.tiles[aa].center) % 2
        path = [translate_phase(z, parity) for z in canonical_path(
            self.h(aa), translate_phase(self.h_prime(a), parity))]
        return path[min(gens, len(path) - 1)]

    def assign_colorings(self, *, root_closure: bool) -> dict[int, tuple | None]:
        """The homomorphism value g(T) per tile (None where undecidable)."""
        self.mark_specials(root_closure=root_closure)
        self.g = {t.tid: self.homomorphism(t.tid) for t in self.tiles}
        return self.g

    def colors_grid(self, window: Window | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(colors, valid) over `window` (default: the forest region).

        One lookup through the paint grid: row t of the board holds tile t's
        colors on cells of even and of odd coordinate sum, and a cell reads
        entry 2 * id + parity of the flattened board.  Id -1 (unpainted)
        reads the last row, which holds zeros; so does a tile without a
        coloring.  Cells outside the grid read as unpainted.  Colors are
        1..3, so a cell is valid exactly where its color is nonzero.
        """
        if window is None:
            window = Window(tuple(self.lo), tuple(self.hi - self.lo))
        ids = np.full(window.extent, -1, dtype=np.int32)
        at_ids, at_grid = overlap(window.origin, window.extent,
                                  self.grid_lo, self.grid.shape)
        ids[at_ids] = self.grid[at_grid]
        board = np.zeros((len(self.tiles) + 1, 2), dtype=np.int8)
        board[list(self.g)] = np.reshape([q or (0, 0) for q in self.g.values()], (-1, 2))
        colors = board.ravel()[2 * ids + (sum(window.ix_axes()) & 1)]
        return colors, colors > 0

    # -- audits --------------------------------------------------------------

    def audit(self) -> AuditReport:
        """The tiling invariants, checked exhaustively on this forest.

        Each check reads the paint grid in a fixed number of whole-array
        passes (one more per tile level for the balls); none walks a tile's
        mask box.  A tile's cells are its grid cells and its lost cells, the
        cells of its mask that an earlier tile had painted (`_paint` keeps
        them; `overlaps` counts them).  The grid holds every mask whole, and
        painting writes only unpainted cells, so the two make up exactly the
        tile's mask, and each check equals a walk of every mask:

        - empty-tile, tile-outside-ball, clump-diameter and
          clump-outside-ball read per-tile extremes of the signed sums <s, x>
          over the sign rows s = (1, +-1, ...).  The 1-norm of x is the
          largest |<s, x>|, so a tile's reach from its center, and a clump's
          diameter and reach, are maxima over the extremes of its tiles.
          Each <s, x> grows along axis 0, so on a tile it peaks at a cell
          whose next cell along axis 0 is not the tile's, and is least at
          one whose previous cell is not: the extremes are scattered by id
          from the cells that end and start the runs of equal ids along
          axis 0, and from the lost cells.  A tile with none is empty.
        - uncovered-ball-vertex sets the union of the center balls against
          the painted cells of the region.
        - adjacent-nonkin takes the id pairs across every two 1-neighbor
          cells whose ids differ, in both orders, and the ids at and beside
          each lost cell; a tile's own id, its parent and its children are
          kin.
        - descendant-gap reads the ids in the balls of each level's tiles
          from one window view of the grid, and tests each against its
          tile's subtree, which a depth-first numbering along parent links
          makes one interval of numbers.
        """
        rep = AuditReport("tiling", Window(tuple(self.lo), tuple(self.hi - self.lo)))
        rep.stats["tiles"] = len(self.tiles)
        rep.stats["levels"] = {int(j): int(len(p)) for j, p in self.levels.items()}
        rep.stats["overlap_cells"] = self.overlaps
        if self.overlaps:
            rep.add("tile-overlap", self.overlaps)

        n = len(self.tiles)
        lost = np.concatenate([at for _, at in self._lost] + [np.empty(0, np.int64)])
        lost_ids = np.repeat(np.array([t for t, _ in self._lost], dtype=np.int64),
                             [len(at) for _, at in self._lost])
        steps = [self._id_steps(k) for k in range(self.d)]
        signs = _sign_rows(self.d)
        top, bottom, filled = self._extremes(steps[0], lost_ids, lost, signs)
        centers = np.array([t.center for t in self.tiles], dtype=np.int64).reshape(n, self.d)
        at_center = (centers - self.grid_lo) @ signs.T
        level = np.array([t.level for t in self.tiles], dtype=np.int64)
        r = SCALE_BASE ** level

        reach = np.maximum(top - at_center, at_center - bottom).max(axis=1)
        for t in self.tiles:
            if not filled[t.tid]:
                rep.add("empty-tile", t.center)
                continue
            if reach[t.tid] > 3 * r[t.tid] // 2:
                rep.add("tile-outside-ball", t.center)
            if t.parent is not None and level[t.parent] <= t.level:
                rep.add("parent-level", t.center)

        # a clump's extremes over the extremes of its members; an empty member
        # holds -_FAR and _FAR, which no extreme of a cell passes
        sizes = [len(t.clump_members) for t in self.tiles]
        owner = np.repeat(np.arange(n), sizes)
        members = np.fromiter((m for t in self.tiles for m in t.clump_members),
                              dtype=np.int64, count=len(owner))
        ctop = np.full_like(top, -_FAR)
        cbottom = np.full_like(bottom, _FAR)
        np.maximum.at(ctop, owner, top[members])
        np.minimum.at(cbottom, owner, bottom[members])
        diameter = (ctop - cbottom).max(axis=1)
        creach = np.maximum(ctop - at_center, at_center - cbottom).max(axis=1)
        for t in self.tiles:
            if sizes[t.tid] == 0:
                rep.add("empty-clump", t.center)
                continue
            if diameter[t.tid] > 3 * r[t.tid]:
                rep.add("clump-diameter", t.center)
            if creach[t.tid] > 3 * r[t.tid] // 2:
                rep.add("clump-outside-ball", t.center)

        self._audit_coverage(rep)
        self._audit_adjacency(rep, steps, lost_ids, lost)
        self._audit_descendants(rep, centers, level)
        rep.stats.setdefault("violations_total", 0)
        return rep

    def _id_steps(self, k: int) -> tuple:
        """(i, below, above) over the pairs of cells one apart along axis k
        whose ids differ: i is the lower cell's index in the raveled grid,
        i + stride the upper one's, and below and above are their ids."""
        flat = self.grid.ravel()
        step = self.grid.strides[k] // self.grid.itemsize
        i = np.flatnonzero(flat[:-step] != flat[step:])
        # raveled, the last cell of each line along axis k abuts the next line
        i = i[i // step % self.grid.shape[k] < self.grid.shape[k] - 1]
        return i, flat[i], flat[i + step]

    def _extremes(self, steps0, lost_ids, lost, signs) -> tuple:
        """(top, bottom, filled): per tile and sign row s, the largest and
        least <s, x> over its cells, and whether it has a cell at all.

        Tops are read at the cells that end a run of equal ids along axis 0
        (the grid's last slab ends each run in it) and bottoms at the cells
        that start one; the lost cells are read for both."""
        i, below, above = steps0
        flat = self.grid.ravel()
        step = self.grid.strides[0] // self.grid.itemsize
        ends = np.concatenate([i[below >= 0],
                               flat.size - step + np.flatnonzero(flat[-step:] >= 0)])
        starts = np.concatenate([i[above >= 0] + step, np.flatnonzero(flat[:step] >= 0)])
        out = []
        for fold, fill, at in ((np.maximum, -_FAR, ends), (np.minimum, _FAR, starts)):
            cells = np.stack(np.unravel_index(np.concatenate([at, lost]), self.grid.shape))
            ext = np.full((len(self.tiles), len(signs)), fill, dtype=np.int64)
            fold.at(ext, np.concatenate([flat[at], lost_ids]), (signs @ cells).T)
            out.append(ext)
        top, bottom = out
        return top, bottom, top[:, 0] > -_FAR

    def _audit_coverage(self, rep: AuditReport) -> None:
        shape = tuple((self.hi - self.lo).tolist())
        cover = np.zeros(shape, dtype=bool)
        for j, pts in self.levels.items():
            r = SCALE_BASE ** j
            ball = ball_mask(self.d, r)
            for c in pts:
                at_cover, at_ball = overlap(self.lo, shape, c - r, ball.shape)
                cover[at_cover] |= ball[at_ball]
        tiled = self.grid[overlap(self.grid_lo, self.grid.shape,
                                  self.lo, shape)[0]] >= 0
        missing = cover & ~tiled
        rep.stats["region_cells"] = int(np.prod(shape))
        rep.stats["ball_covered"] = int(np.count_nonzero(cover))
        rep.stats["tiled"] = int(np.count_nonzero(tiled))
        rep.add_mask("uncovered-ball-vertex", missing, lambda idx: tuple(idx + self.lo))

    def _audit_adjacency(self, rep: AuditReport, steps, lost_ids, lost) -> None:
        n = len(self.tiles)
        a = [lost_ids]
        b = [self.grid.ravel()[lost]]
        for k, (_, below, above) in enumerate(steps):
            both = (below >= 0) & (above >= 0)
            a += [below[both], above[both]]
            b += [above[both], below[both]]
            # the ids beside each lost cell along axis k
            step = self.grid.strides[k] // self.grid.itemsize
            at = lost // step % self.grid.shape[k]
            for near, inside in ((lost + step, at < self.grid.shape[k] - 1),
                                 (lost - step, at > 0)):
                a.append(lost_ids[inside])
                b.append(self.grid.ravel()[near[inside]])
        a, b = np.concatenate(a).astype(np.int64), np.concatenate(b).astype(np.int64)
        kin = [t.tid * (n + 1) for t in self.tiles]  # each tile with itself
        kin += [t.tid * n + t.parent for t in self.tiles if t.parent is not None]
        kin = np.sort(kin + [t.tid * n + c for t in self.tiles for c in t.children])
        pairs = np.unique(a[b >= 0] * n + b[b >= 0])
        # a pair is kin when its place among the sorted kin codes holds it
        is_kin = kin[np.searchsorted(kin, pairs).clip(max=len(kin) - 1)] == pairs
        a, b = np.divmod(pairs[~is_kin], n)
        rep.add_rows("adjacent-nonkin", len(a),
                     lambda i: (self.tiles[a[i]].center, self.tiles[b[i]].center))

    def _subtrees(self) -> tuple:
        """(first, after): tile u is tile t or a descendant of it, by parent
        links, exactly when first[t] <= first[u] < after[t].  A tile whose
        parent links loop is alone in its subtree."""
        n = len(self.tiles)
        kids = [[] for _ in range(n)]
        for t in self.tiles:
            if t.parent is not None:
                kids[t.parent].append(t.tid)
        first = np.full(n, -1, dtype=np.int64)
        after = np.zeros(n, dtype=np.int64)
        count = 0
        stack = [(t.tid, False) for t in self.tiles if t.parent is None]
        while stack:
            u, done = stack.pop()
            if done:
                after[u] = count
                continue
            first[u] = count
            count += 1
            stack.append((u, True))
            stack.extend((c, False) for c in kids[u])
        loose = first < 0
        first[loose] = count + np.arange(np.count_nonzero(loose))
        after[loose] = first[loose] + 1
        return first, after

    def _audit_descendants(self, rep: AuditReport, centers, level) -> None:
        n = len(self.tiles)
        first, after = self._subtrees()
        order = np.append(first, 0).astype(np.int32)  # unpainted cells (-1) read the last entry
        gaps = [np.empty(0, dtype=np.int64)]
        # one pass per level over the ball boxes of its tiles, cut from a
        # window view of the grid (padded only if some box sticks out of it)
        for j in sorted(set(level.tolist())):
            tids = np.flatnonzero(level == j)
            r = SCALE_BASE ** j
            ball = ball_mask(self.d, r)
            corner = centers[tids] - r - self.grid_lo
            pad = max(0, -corner.min(), (corner + 2 * r + 1 - self.grid.shape).max())
            grid = np.pad(self.grid, pad, constant_values=-1) if pad else self.grid
            ids = sliding_window_view(grid, ball.shape)[tuple((corner + pad).T)]
            at = order.take(ids)
            lo, hi = (x[tids].reshape((-1,) + (1,) * self.d) for x in (first, after))
            bad = np.flatnonzero(ball & (ids >= 0) & ((at < lo) | (at >= hi)))
            gaps.append(tids[bad // ball.size] * n + ids.ravel()[bad])
        t, u = np.divmod(np.unique(np.concatenate(gaps)), n)
        rep.add_rows("descendant-gap", len(t),
                     lambda i: (self.tiles[t[i]].center, self.tiles[u[i]].center))


# -- field-driven construction ----------------------------------------------

def _field_coin(field):
    return lambda c: field.coin(f"{STREAM_PREFIX}:coin", c)


def _field_h(field):
    return lambda c: HEX_VERTICES[field.discrete(f"{STREAM_PREFIX}:h", c, 6) - 1]


def build_tiles(field, region: Window, maxlevel: int = 8, *,
                density_scale: float = 1.0) -> TileForest:
    """The tile forest generated by all centers inside `region`."""
    lo = np.asarray(region.origin, dtype=np.int64)
    hi = lo + np.asarray(region.extent, dtype=np.int64)
    by_level = {j: centers(field, j, lo, hi, density_scale=density_scale)
                for j in range(1, maxlevel + 1)}
    return TileForest(len(region.extent), lo, hi, by_level,
                      coin_fn=_field_coin(field), h_fn=_field_h(field))


def threegen_window(field, window: Window, *, maxlevel: int = 8,
                    density_scale: float = 1.0, margin: int = 0
                    ) -> tuple[np.ndarray, np.ndarray, TileForest]:
    """Root-closed coloring of a window: every covered vertex gets a color.

    Roots of the truncated forest count as special with their own phase, so
    the result is a proper coloring of the covered set but not a sample of
    the infinite-volume process; the per-vertex query keeps true semantics.
    """
    region = window.grow(margin) if margin else window
    forest = build_tiles(field, region, maxlevel, density_scale=density_scale)
    forest.assign_colorings(root_closure=True)
    colors, valid = forest.colors_grid(window)
    return colors, valid, forest


# -- demand-driven per-vertex query ------------------------------------------

def _stage_zones(level: int) -> dict[int, tuple[int, int]]:
    """Per-level (candidate half-width, scan pad) read plan for one stage.

    Top-level centers matter only as potential claimants of the query's
    ancestor chain (within ~1.21 r of the vertex); lower levels must cover
    every construction ball the chain can touch (within ~3 r of the vertex).
    The resulting worst read stays within (3/2+4) r of the vertex for
    stages past the first, which is the radius the chain bound promises.
    """
    zones = {}
    r_top = SCALE_BASE ** level
    forest_half = 3 * r_top + 16
    for j in range(1, level + 1):
        r = SCALE_BASE ** j
        if j == level:
            half = 5 * r // 4 + 2 * level + 8
        else:
            half = forest_half + 2 * r + 4
        zones[j] = (half, center_pad(j))
    return zones


def _stages(d: int, cap: int):
    """The stages of `three_color_general` that fit the radius cap `cap`, as
    (level, zones, half): zones as `_stage_zones`, half the largest scan
    half-width with its pad.  A stage's reach is d * half, and it grows with
    the level, so the stages stop at the first that reads past the cap."""
    level = 1
    while True:
        zones = _stage_zones(level)
        half = max(h + pad for h, pad in zones.values())
        if d * half > cap:
            return
        yield level, zones, half
        level += 1


def scan_half(d: int, cap: int) -> int:
    """Half-width of the largest center-scan box that a stage of
    `three_color_general` reads within radius cap `cap`, 0 when the first
    stage passes the cap."""
    return max((half for _, _, half in _stages(d, cap)), default=0)


def three_color_general(v, d: int, field, *, density_scale: float = 1.0,
                        radius_cap: int | None = None,
                        centers_source=None, coin_fn=None, h_fn=None) -> int:
    """Color of one vertex under the true (un-closed) chain semantics.

    Grows the examined region level by level until the nearest-special walk
    is decided inside it, and raises a radius refusal when the next stage
    would read past the cap.  The query's coding radius is what a `Tracker`
    records of its reads.
    """
    v = tuple(int(c) for c in v)
    if len(v) != d:
        raise ValueError(f"vertex {v} is not {d}-dimensional")
    cap = DEFAULT_BUDGET.radius_cap if radius_cap is None else radius_cap
    if centers_source is None:
        centers_source = lambda fld, j, lo, hi: centers(
            fld, j, lo, hi, density_scale=density_scale)
    if coin_fn is None:
        coin_fn = _field_coin(field)
    if h_fn is None:
        h_fn = _field_h(field)
    base = np.asarray(v, dtype=np.int64)

    level = 0
    for level, zones, _ in _stages(d, cap):
        by_level = {}
        for j, (half, _) in zones.items():
            by_level[j] = centers_source(field, j, base - half, base + half + 1)
        forest = TileForest(d, base, base + 1, by_level,
                            coin_fn=coin_fn, h_fn=h_fn)
        forest.mark_specials(root_closure=False)
        tid = forest.tile_at(v)
        if tid < 0:
            continue
        q = forest.homomorphism(tid)
        if q is not None:
            return phase_color(q, v)
    raise BudgetExceeded("radius", cap, f"{STREAM_PREFIX}:w:{level + 1}", v)
