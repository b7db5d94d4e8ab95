"""Hierarchical ball tiling of Z^d and the checkerboard-pair three-coloring on it.

Scale j works with balls of 1-norm radius 13^j around surviving Bernoulli
centers (candidates with another candidate within 4*13^j are mutually
excluded).  Level-1 tiles are exactly the balls; a higher tile is the
1-neighborhood of its ball plus every nearby lower clump, minus all earlier
tiles.  Tiles form a forest (a lower tile contained in that union becomes a
child), and clumps are the components of tiles at set distance <= 2.

Colors come from a graph homomorphism of the forest into the six-vertex
graph of two-color checkerboards: a fair coin per tile marks "special" tiles
(own coin heads, next two ancestors tails), each special tile draws a uniform
checkerboard, and every tile walks a canonical path between the phase-shifted
checkerboards of its two nearest special ancestors.  Reading the tile's
checkerboard at the vertex itself yields a proper 3-coloring wherever the
forest covers.

At honest center densities the forest is empty at any reachable scale, so
window colorings accept a density multiplier and close off roots (a root
counts as special with its own phase); the per-vertex query keeps the true
semantics and reports a budget refusal when the ancestor chain outruns the
radius cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .field import BudgetExceeded, DEFAULT_BUDGET
from .lattice import Window
from .verify import AuditReport, check_coloring

SCALE_BASE = 13
HEX_DIAMETER = 3
STREAM_PREFIX = "tiling"
_SCAN_CHUNK = 1 << 22


@dataclass(frozen=True)
class ScaleSystem:
    """Radii 13^j and center densities scale * 13^(-j*d)."""

    d: int
    density_scale: float = 1.0

    def r(self, j: int) -> int:
        return SCALE_BASE ** j

    def density(self, j: int) -> float:
        return self.density_scale * float(SCALE_BASE) ** (-j * self.d)


# -- checkerboard-pair graph ------------------------------------------------

HEX_VERTICES = ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))


def translate_phase(q: tuple, parity: int) -> tuple:
    """Checkerboard translated by any vector of the given 1-norm parity."""
    return q if parity % 2 == 0 else (q[1], q[0])


def phase_color(q: tuple, v) -> int:
    """Color the checkerboard q assigns to vertex v."""
    return q[int(sum(int(c) for c in v)) % 2]


class HexGraph:
    """Six checkerboards in a cycle, self-loops, canonical shortest paths.

    Ring neighbors exchange the unused color for one used color; antipodal
    pairs swap the two used colors.  Between antipodes the two shortest paths
    tie and the one whose first step is lexicographically smaller wins.
    """

    def __init__(self):
        self.vertices = HEX_VERTICES
        self.index = {q: i for i, q in enumerate(HEX_VERTICES)}
        self._paths = {}
        n = len(HEX_VERTICES)
        for i, a in enumerate(HEX_VERTICES):
            for k, b in enumerate(HEX_VERTICES):
                delta = (k - i) % n
                if delta <= 2:
                    steps = [(i + t) % n for t in range(delta + 1)]
                elif delta >= 4:
                    steps = [(i - t) % n for t in range(n - delta + 1)]
                else:
                    fwd = [(i + t) % n for t in range(4)]
                    bwd = [(i - t) % n for t in range(4)]
                    steps = fwd if HEX_VERTICES[fwd[1]] < HEX_VERTICES[bwd[1]] else bwd
                self._paths[(a, b)] = tuple(HEX_VERTICES[s] for s in steps)

    def distance(self, a: tuple, b: tuple) -> int:
        return len(self._paths[(a, b)]) - 1

    def adjacent(self, a: tuple, b: tuple) -> bool:
        """Edge test, counting the self-loop at every vertex."""
        return self.distance(a, b) <= 1

    def canonical_path(self, a: tuple, b: tuple) -> tuple:
        return self._paths[(a, b)]


@lru_cache(maxsize=1)
def hexgraph() -> HexGraph:
    return HexGraph()


# -- center discovery -------------------------------------------------------

def _bernoulli_points(field, stream: str, lo, hi, p: float) -> np.ndarray:
    """All vertices of [lo, hi) whose uniform label falls below p."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    d = lo.size
    if np.any(hi <= lo):
        return np.empty((0, d), dtype=np.int64)
    tail = int(np.prod(hi[1:] - lo[1:], dtype=np.int64)) if d > 1 else 1
    rows = max(1, _SCAN_CHUNK // max(1, tail))
    hits = []
    for x0 in range(int(lo[0]), int(hi[0]), rows):
        x1 = min(x0 + rows, int(hi[0]))
        ranges = [np.arange(x0, x1)] + [np.arange(lo[i], hi[i]) for i in range(1, d)]
        axes = np.ix_(*ranges)
        u = field.uniform_box(stream, axes)
        idx = np.argwhere(u < p)
        if idx.size:
            idx[:, 0] += x0
            idx[:, 1:] += lo[1:]
            hits.append(idx)
    if not hits:
        return np.empty((0, d), dtype=np.int64)
    return np.concatenate(hits).astype(np.int64)


def centers(field, j: int, lo, hi, *, density_scale: float = 1.0) -> np.ndarray:
    """Level-j centers inside [lo, hi), in lexicographic order.

    Candidates are Bernoulli(density_scale * 13^(-j*d)) per vertex; a
    candidate with any other candidate within 1-norm distance 4*13^j
    (inclusive) is dropped, and so is that other candidate.  The scan pads
    the box by 4*13^j so every returned center's exclusion certificate is
    complete.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.int64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.int64))
    d = lo.size
    r = SCALE_BASE ** j
    pad = 4 * r
    p = ScaleSystem(d, density_scale).density(j)
    pts = _bernoulli_points(field, f"{STREAM_PREFIX}:w:{j}", lo - pad, hi + pad, p)
    if len(pts) == 0:
        return pts
    core = np.all((pts >= lo) & (pts < hi), axis=1)
    if not core.any():
        return np.empty((0, d), dtype=np.int64)
    crowded = np.zeros(len(pts), dtype=bool)
    pairs = cKDTree(pts).query_pairs(pad, p=1.0, output_type="ndarray")
    if len(pairs):
        crowded[pairs.ravel()] = True
    keep = pts[core & ~crowded]
    return keep[np.lexsort(keep.T[::-1])]


# -- tiles and the forest ---------------------------------------------------

@lru_cache(maxsize=32)
def _ball_mask(d: int, r: int) -> np.ndarray:
    grids = np.indices((2 * r + 1,) * d)
    return np.abs(grids - r).sum(axis=0) <= r


def _l1_structure(d: int):
    return ndimage.generate_binary_structure(d, 1)


def _l1_diameter(mask: np.ndarray) -> int:
    """Max 1-norm distance between two True cells (0 for singletons)."""
    if not mask.any():
        return 0
    d = mask.ndim
    axes_idx = [np.arange(n) for n in mask.shape]
    best = 0
    for bits in range(1 << (d - 1)) if d > 1 else [0]:
        signs = [1] + [1 if (bits >> (i - 1)) & 1 == 0 else -1 for i in range(1, d)]
        proj = sum(s * ax.reshape([-1 if i == k else 1 for i in range(d)])
                   for k, (s, ax) in enumerate(zip(signs, axes_idx)))
        vals = np.broadcast_to(proj, mask.shape)[mask]
        best = max(best, int(vals.max() - vals.min()))
    return best


def _center_dist(mask_shape, lo, center) -> np.ndarray:
    d = len(mask_shape)
    return sum(np.abs(np.arange(lo[k], lo[k] + mask_shape[k]) - int(center[k]))
               .astype(np.int32)
               .reshape([-1 if i == k else 1 for i in range(d)])
               for k in range(d))


def _mask_reach(mask: np.ndarray, lo: np.ndarray, center) -> int:
    """Max 1-norm distance from center to a True cell."""
    if not mask.any():
        return 0
    dist = _center_dist(mask.shape, lo, center)
    return int(np.broadcast_to(dist, mask.shape)[mask].max())


def _mask_min_dist(mask: np.ndarray, lo: np.ndarray, center) -> int:
    """Min 1-norm distance from center to a True cell."""
    dist = _center_dist(mask.shape, lo, center)
    return int(np.broadcast_to(dist, mask.shape)[mask].min())


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

    @property
    def hi(self) -> np.ndarray:
        return self.lo + np.asarray(self.mask.shape, dtype=np.int64)

    def size(self) -> int:
        return int(self.mask.sum())


def _box_gap(alo, ahi, blo, bhi) -> int:
    """1-norm distance between two boxes given by inclusive corner pairs."""
    gaps = np.maximum(0, np.maximum(alo - bhi, blo - ahi))
    return int(gaps.sum())


class TileForest:
    """All tiles a family of per-level centers generates, with audits.

    The forest is anchored to the centers it is given: invariants that only
    depend on center spacing (partition, parent links, clump geometry) hold
    exactly for the truncated system, while coverage is whatever the balls
    reach.  `region` bounds the coverage/coloring box; masks may extend past
    it and the paint grid is sized to hold them all.
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
        self._alloc_grid()
        self._dsu: list[int] = []
        self._clump_data: dict[int, dict] = {}
        for j in sorted(self.levels):
            self._build_level(j)
        self._coin_cache: dict[int, int] = {}
        self._h_cache: dict[int, tuple] = {}
        self.special: dict[int, bool | None] = {}
        self.g: dict[int, tuple | None] = {}

    # -- construction ------------------------------------------------------

    def _check_spacing(self, j: int, pts: np.ndarray) -> None:
        if len(pts) < 2:
            return
        pairs = cKDTree(pts).query_pairs(4 * SCALE_BASE ** j, p=1.0,
                                         output_type="ndarray")
        if len(pairs):
            a, b = pts[pairs[0][0]], pts[pairs[0][1]]
            raise ValueError(
                f"level-{j} centers {tuple(a)} and {tuple(b)} violate the "
                f"4*13^{j} separation")

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

    def _grid_slices(self, lo, shape) -> tuple:
        rel = lo - self.grid_lo
        return tuple(slice(int(rel[k]), int(rel[k]) + shape[k])
                     for k in range(self.d))

    def _paint(self, tile: Tile) -> None:
        sub = self.grid[self._grid_slices(tile.lo, tile.mask.shape)]
        clash = tile.mask & (sub >= 0)
        self.overlaps += int(clash.sum())
        sub[tile.mask & (sub < 0)] = tile.tid

    def _find(self, a: int) -> int:
        while self._dsu[a] != a:
            self._dsu[a] = self._dsu[self._dsu[a]]
            a = self._dsu[a]
        return a

    def _merge_into(self, root: int, other: int) -> None:
        other = self._find(other)
        if other == root:
            return
        self._dsu[other] = root
        dst, src = self._clump_data[root], self._clump_data.pop(other)
        dst["members"].extend(src["members"])
        dst["lo"] = np.minimum(dst["lo"], src["lo"])
        dst["hi"] = np.maximum(dst["hi"], src["hi"])
        dst["max_level"] = max(dst["max_level"], src["max_level"])

    def _new_tile(self, level: int, center, lo, mask) -> Tile:
        tile = Tile(len(self.tiles), level, tuple(int(c) for c in center),
                    np.asarray(lo, dtype=np.int64), mask)
        self.tiles.append(tile)
        self._paint(tile)
        self._dsu.append(tile.tid)
        self._clump_data[tile.tid] = {
            "members": [tile.tid], "lo": tile.lo.copy(), "hi": tile.hi.copy(),
            "max_level": level}
        return tile

    def _build_level(self, j: int) -> None:
        pts = self.levels[j]
        r = SCALE_BASE ** j
        if j == 1:
            for c in pts:
                tile = self._new_tile(1, c, c - r, _ball_mask(self.d, r).copy())
                tile.clump_members = (tile.tid,)
            return
        for c in pts:
            self._build_tile(j, c, r)

    def _clumps_near_ball(self, c: np.ndarray, r: int, j: int) -> list[int]:
        """Roots of sub-level-j clumps with a member within distance 2 of
        ball(c, r)."""
        out = []
        for root, data in self._clump_data.items():
            if data["max_level"] >= j:
                continue
            if _box_gap(data["lo"], data["hi"] - 1, c, c) > r + 2:
                continue
            hit = False
            for tid in data["members"]:
                t = self.tiles[tid]
                if _box_gap(t.lo, t.hi - 1, c, c) > r + 2:
                    continue
                if _mask_min_dist(t.mask, t.lo, c) <= r + 2:
                    hit = True
                    break
            if hit:
                out.append(root)
        return out

    def _build_tile(self, j: int, c: np.ndarray, r: int) -> None:
        half = r + 3 * SCALE_BASE ** (j - 1) + 8
        lo = c - half
        shape = (2 * half + 1,) * self.d
        box = np.zeros(shape, dtype=bool)
        ball = _ball_mask(self.d, r)
        box[tuple(slice(half - r, half + r + 1) for _ in range(self.d))] = ball

        absorbed = self._clumps_near_ball(c, r, j)
        member_tiles = [tid for root in absorbed
                        for tid in self._clump_data[root]["members"]]
        for tid in member_tiles:
            t = self.tiles[tid]
            rel = t.lo - lo
            if np.any(rel < 0) or np.any(rel + t.mask.shape > shape):
                raise AssertionError("clump member escapes its tile box")
            box[tuple(slice(int(rel[k]), int(rel[k]) + t.mask.shape[k])
                      for k in range(self.d))] |= t.mask

        s_mask = box
        t_mask = ndimage.binary_dilation(s_mask, structure=_l1_structure(self.d))
        sub = self.grid[self._grid_slices(lo, shape)]
        t_mask &= sub < 0
        inside_s = sub[s_mask]
        candidates = sorted(set(inside_s[inside_s >= 0].tolist()))
        tile = self._new_tile(j, c, lo, t_mask)

        # children: existing tiles inside S_B not yet claimed
        for tid in candidates:
            t = self.tiles[tid]
            rel = t.lo - lo
            if np.any(rel < 0) or np.any(rel + t.mask.shape > shape):
                continue
            inside = s_mask[tuple(slice(int(rel[k]), int(rel[k]) + t.mask.shape[k])
                                  for k in range(self.d))]
            if np.all(inside[t.mask]) and t.parent is None:
                t.parent = tile.tid
                tile.children.append(tid)

        # the new clump: this tile plus every sub-level clump within distance 2
        near = ndimage.binary_dilation(t_mask, structure=_l1_structure(self.d),
                                       iterations=2)
        root = self._find(tile.tid)
        snapshot = [tile.tid]
        for other in list(self._clump_data):
            if other == root:
                continue
            data = self._clump_data[other]
            if data["max_level"] >= j:
                continue
            if _box_gap(data["lo"], data["hi"] - 1, lo, lo + np.asarray(shape) - 1) > 2:
                continue
            touch = False
            for tid in data["members"]:
                t = self.tiles[tid]
                ilo = np.maximum(t.lo, lo)
                ihi = np.minimum(t.hi, lo + np.asarray(shape))
                if np.any(ilo >= ihi):
                    continue
                a = t.mask[tuple(slice(int(x), int(y)) for x, y in
                                 zip(ilo - t.lo, ihi - t.lo))]
                b = near[tuple(slice(int(x), int(y)) for x, y in
                               zip(ilo - lo, ihi - lo))]
                if np.any(a & b):
                    touch = True
                    break
            if touch:
                snapshot.extend(data["members"])
                self._merge_into(root, other)
        tile.clump_members = tuple(snapshot)

    # -- lookups -------------------------------------------------------------

    def tile_at(self, v) -> int:
        """Tile id covering v, or -1."""
        v = np.asarray(v, dtype=np.int64)
        rel = v - self.grid_lo
        if np.any(rel < 0) or np.any(rel >= self.grid.shape):
            return -1
        return int(self.grid[tuple(rel)])

    def roots(self) -> list[int]:
        return [t.tid for t in self.tiles if t.parent is None]

    def coin(self, tid: int) -> int:
        if tid not in self._coin_cache:
            self._coin_cache[tid] = int(self.coin_fn(self.tiles[tid].center))
        return self._coin_cache[tid]

    def h(self, tid: int) -> tuple:
        if tid not in self._h_cache:
            q = tuple(self.h_fn(self.tiles[tid].center))
            if q not in hexgraph().index:
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
        path = [translate_phase(z, parity) for z in hexgraph().canonical_path(
            self.h(aa), translate_phase(self.h_prime(a), parity))]
        return path[min(gens, len(path) - 1)]

    def assign_colorings(self, *, root_closure: bool) -> dict[int, tuple | None]:
        """The homomorphism value g(T) per tile (None where undecidable)."""
        self.mark_specials(root_closure=root_closure)
        self.g = {t.tid: self.homomorphism(t.tid) for t in self.tiles}
        return self.g

    def colors_grid(self, window: Window | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(colors, valid) over `window` (default: the forest region)."""
        if window is None:
            window = Window(tuple(self.lo), tuple(self.hi - self.lo))
        lo = np.asarray(window.origin, dtype=np.int64)
        shape = tuple(window.extent)
        colors = np.zeros(shape, dtype=np.int8)
        valid = np.zeros(shape, dtype=bool)
        hi = lo + np.asarray(shape)
        parity0 = np.indices(shape).sum(axis=0)
        parity = (parity0 + int(lo.sum())) % 2
        for t in self.tiles:
            q = self.g.get(t.tid)
            if q is None:
                continue
            ilo = np.maximum(t.lo, lo)
            ihi = np.minimum(t.hi, hi)
            if np.any(ilo >= ihi):
                continue
            msk = t.mask[tuple(slice(int(x), int(y)) for x, y in
                               zip(ilo - t.lo, ihi - t.lo))]
            dst = tuple(slice(int(x), int(y)) for x, y in zip(ilo - lo, ihi - lo))
            pick = np.where(parity[dst] == 0, q[0], q[1])
            colors[dst] = np.where(msk, pick, colors[dst])
            valid[dst] |= msk
        return colors, valid

    # -- audits --------------------------------------------------------------

    def audit(self) -> AuditReport:
        """The tiling invariants, checked exhaustively on this forest."""
        rep = AuditReport("tiling", Window(tuple(self.lo), tuple(self.hi - self.lo)))
        rep.stats["tiles"] = len(self.tiles)
        rep.stats["levels"] = {int(j): int(len(p)) for j, p in self.levels.items()}
        rep.stats["overlap_cells"] = self.overlaps
        if self.overlaps:
            rep.add("tile-overlap", self.overlaps)

        for t in self.tiles:
            r = SCALE_BASE ** t.level
            if not t.mask.any():
                rep.add("empty-tile", t.center)
                continue
            if _mask_reach(t.mask, t.lo, t.center) > 3 * r // 2:
                rep.add("tile-outside-ball", t.center)
            if t.parent is not None and self.tiles[t.parent].level <= t.level:
                rep.add("parent-level", t.center)

        for t in self.tiles:
            if len(t.clump_members) == 0:
                rep.add("empty-clump", t.center)
                continue
            r = SCALE_BASE ** t.level
            lo = np.minimum.reduce([self.tiles[m].lo for m in t.clump_members])
            hi = np.maximum.reduce([self.tiles[m].hi for m in t.clump_members])
            box = np.zeros(tuple(hi - lo), dtype=bool)
            for m in t.clump_members:
                tm = self.tiles[m]
                rel = tm.lo - lo
                box[tuple(slice(int(rel[k]), int(rel[k]) + tm.mask.shape[k])
                          for k in range(self.d))] |= tm.mask
            if _l1_diameter(box) > 3 * r:
                rep.add("clump-diameter", t.center)
            if _mask_reach(box, lo, t.center) > 3 * r // 2:
                rep.add("clump-outside-ball", t.center)

        self._audit_coverage(rep)
        self._audit_adjacency(rep)
        self._audit_descendants(rep)
        rep.stats.setdefault("violations_total", 0)
        return rep

    def _audit_coverage(self, rep: AuditReport) -> None:
        shape = tuple(self.hi - self.lo)
        cover = np.zeros(shape, dtype=bool)
        for j, pts in self.levels.items():
            r = SCALE_BASE ** j
            ball = _ball_mask(self.d, r)
            for c in pts:
                ilo = np.maximum(c - r, self.lo)
                ihi = np.minimum(c + r + 1, self.hi)
                if np.any(ilo >= ihi):
                    continue
                src = tuple(slice(int(x), int(y)) for x, y in
                            zip(ilo - (c - r), ihi - (c - r)))
                dst = tuple(slice(int(x), int(y)) for x, y in
                            zip(ilo - self.lo, ihi - self.lo))
                cover[dst] |= ball[src]
        tiled = self.grid[self._grid_slices(self.lo, shape)] >= 0
        missing = cover & ~tiled
        rep.stats["region_cells"] = int(np.prod(shape))
        rep.stats["ball_covered"] = int(cover.sum())
        rep.stats["tiled"] = int(tiled.sum())
        count = int(missing.sum())
        if count:
            rep.stats["violations_total"] = rep.stats.get("violations_total", 0) \
                + count - min(count, 20)
            for idx in np.argwhere(missing)[:20]:
                rep.add("uncovered-ball-vertex", tuple(idx + self.lo))

    def _audit_adjacency(self, rep: AuditReport) -> None:
        for t in self.tiles:
            kin = {t.tid, t.parent} | set(t.children)
            near = ndimage.binary_dilation(
                np.pad(t.mask, 1), structure=_l1_structure(self.d))
            sub = self.grid[self._grid_slices(t.lo - 1, near.shape)]
            ids = np.unique(sub[near])
            for other in ids:
                if other >= 0 and int(other) not in kin:
                    rep.add("adjacent-nonkin", (t.center, self.tiles[int(other)].center))

    def _audit_descendants(self, rep: AuditReport) -> None:
        for t in self.tiles:
            r = SCALE_BASE ** t.level
            c = np.asarray(t.center, dtype=np.int64)
            glo = self.grid_lo
            ilo = np.maximum(c - r, glo)
            ihi = np.minimum(c + r + 1, glo + np.asarray(self.grid.shape))
            ball = _ball_mask(self.d, r)
            src = tuple(slice(int(x), int(y)) for x, y in
                        zip(ilo - (c - r), ihi - (c - r)))
            dst = tuple(slice(int(x), int(y)) for x, y in zip(ilo - glo, ihi - glo))
            ids = np.unique(self.grid[dst][ball[src]])
            for tid in ids:
                if tid < 0:
                    continue
                cur = int(tid)
                while cur is not None and cur != t.tid:
                    cur = self.tiles[cur].parent
                if cur is None:
                    rep.add("descendant-gap", (t.center, self.tiles[int(tid)].center))

    def audit_coloring(self) -> AuditReport:
        """Properness of the painted colors plus the homomorphism edge check."""
        colors, valid = self.colors_grid()
        rep = check_coloring(colors, valid=valid,
                             window=Window(tuple(self.lo), tuple(self.hi - self.lo)),
                             construction="threegen")
        hexg = hexgraph()
        edges = 0
        for t in self.tiles:
            if t.parent is None:
                continue
            qa, qb = self.g.get(t.tid), self.g.get(t.parent)
            if qa is None or qb is None:
                continue
            edges += 1
            if not hexg.adjacent(qa, qb):
                rep.add("not-homomorphism", (t.center, self.tiles[t.parent].center))
        rep.stats["forest_edges_checked"] = edges
        return rep


# -- field-driven construction ----------------------------------------------

def _field_coin(field):
    return lambda c: field.coin(f"{STREAM_PREFIX}:coin", c)


def _field_h(field):
    return lambda c: HEX_VERTICES[field.discrete(f"{STREAM_PREFIX}:h", c, 6) - 1]


def build_tiles(field, region: Window, maxlevel: int = 8, *,
                density_scale: float = 1.0,
                known_centers: dict | None = None) -> TileForest:
    """The tile forest generated by all centers inside `region`.

    `known_centers` supplies already-scanned levels (same field, same
    parameters) so a caller that located a rare high-level center does not
    pay for its discovery scan twice.
    """
    lo = np.asarray(region.origin, dtype=np.int64)
    hi = lo + np.asarray(region.extent, dtype=np.int64)
    by_level = {}
    for j in range(1, maxlevel + 1):
        if known_centers and j in known_centers:
            pts = np.asarray(known_centers[j], dtype=np.int64)
        else:
            pts = centers(field, j, lo, hi, density_scale=density_scale)
        by_level[j] = pts
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

def _stage_zones(d: int, level: int) -> dict[int, tuple[int, int]]:
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
        zones[j] = (half, 4 * r)
    return zones


def three_color_general(v, d: int, field, *, density_scale: float = 1.0,
                        radius_cap: int | None = None,
                        centers_source=None, coin_fn=None, h_fn=None
                        ) -> tuple[int, int]:
    """Color of one vertex under the true (un-closed) chain semantics.

    Grows the examined region level by level until the nearest-special walk
    is decided inside it, and raises a radius refusal when the next stage
    would read past the cap.  The returned radius is the worst 1-norm reach
    of any read the resolving stage planned.
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
    while True:
        level += 1
        zones = _stage_zones(d, level)
        reach = max(d * (half + pad) for half, pad in zones.values())
        if reach > cap:
            raise BudgetExceeded("radius", cap, f"{STREAM_PREFIX}:w:{level}", v)
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
            return phase_color(q, v), reach
