"""Four-coloring of the lattice (d >= 2) via separated boxes, plus a
percolation baseline for d = 2.

Pipeline: a hard-core net of box centers at scale M, a proper coloring of
the net graph (edges at distance <= 4M+3), box radii drawn from [M, 2M) so
that same-direction faces stay more than distance 2 apart, a +-1 sign per
vertex read off its lowest-color covering box, and a checkerboard split of
the sign clusters into four colors.  The face separation forces every
equal-sign cluster to have sup-norm diameter at most 1, which makes the
final coloring proper.

The baseline assigns fair +-1 coins per site and checkerboards the
(+)-clusters with {1,2} and the (-)-clusters with {3,4}; both cluster types
are subcritical on the planar lattice, so per-site queries terminate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .field import BudgetExceeded
from .lattice import LatticeSpec, Window
from .verify import AuditReport

CAND_STREAM = "fixture:boxnet"
ORDER_STREAM = "four:order"
PHASE_STREAM = "four:phase"
BASE_SIGN_STREAM = "baseline4:sign"
BASE_PHASE_STREAM = "baseline4:phase"
CANDIDATES_PER_CELL = 6  # fixture_net candidate positions per M-cell
CONTEXT_SCALE = 6  # four_color_window pads its net region by this many M
BASELINE_MAX_SITES = 1_000_000  # baseline query: largest sign cluster explored
_PLANE = LatticeSpec(2, 1, "l1")


def choose_M(d: int) -> tuple[int, int, int]:
    """Scale constants (M, C, C') for the box construction in dimension d.

    C bounds the number of net centers within distance 4M+2 of one center
    (disjoint half-balls volume bound, independent of M once M >= 6); every
    face of a nearby box prohibits at most 7 radius values, giving
    C' = 14*d*C prohibitions, and M = C'+1 keeps [M, 2M) nonempty after
    removing them.  Computed as a fixed point starting from the minimum
    feasible scale.
    """
    if d < 2:
        raise ValueError("box construction needs d >= 2")
    m = 14 * d + 1
    while True:
        c = ((2 * (4 * m + 2) + m + 1) // m) ** d
        m_next = 14 * d * c + 1
        if m_next == m:
            return m, c, m_next - 1
        m = m_next


@dataclass(frozen=True)
class BoxSystem:
    """Axis-aligned boxes: centers (n, d), radii (n,) in [M, 2M), scale M.

    Valid systems cover every vertex of the region of interest and keep
    same-direction faces of distinct boxes more than distance 2 apart.
    """

    centers: np.ndarray
    radii: np.ndarray
    M: int

    @property
    def d(self) -> int:
        return self.centers.shape[1]

    def __len__(self) -> int:
        return len(self.radii)


def fixture_net(field, lo, hi, M: int, *, ensure=None,
                stream: str = CAND_STREAM) -> np.ndarray:
    """Hard-core net on the box [lo, hi): centers pairwise > M apart.

    Draws CANDIDATES_PER_CELL candidate positions in every M-cell meeting the
    region (a non-spatial table read keyed by cell index) and keeps candidates in
    decreasing priority order, dropping any within distance M of a kept
    one.  Greedy thinning is maximal over the candidates, not the lattice,
    so rare coverage pockets can survive; with ensure=(elo, ehi) every
    vertex of that subregion is additionally brought within M of a center
    by filling lexicographically first gap vertices.  A gap vertex is
    farther than M from all kept points, so packing survives the fill.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    d = len(lo)
    if (hi <= lo).any():
        raise ValueError("empty region")
    cell_lo = lo // M
    cell_hi = (hi - 1) // M
    ranges = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(cell_lo, cell_hi)]
    grids = np.meshgrid(*ranges, np.arange(CANDIDATES_PER_CELL, dtype=np.int64),
                        indexing="ij")
    cells = [g.ravel() for g in grids[:d]]
    cand = grids[d].ravel()

    axes = [c[:, None] for c in cells] + [cand[:, None], np.arange(d)[None, :]]
    offs = field.discrete_box(stream + ":pos", axes, M) - 1
    pos = np.stack(cells, axis=1) * M + offs
    prio = field.uniform_box(stream + ":prio", [*cells, cand])

    kept = np.empty_like(pos)
    k = 0
    for i in np.argsort(-prio, kind="stable"):
        p = pos[i]
        if k and (np.abs(kept[:k] - p).max(axis=1) <= M).any():
            continue
        kept[k] = p
        k += 1
    kept = kept[:k]
    if ensure is not None:
        elo = np.asarray(ensure[0], dtype=np.int64)
        ehi = np.asarray(ensure[1], dtype=np.int64)
        shape = tuple(int(x) for x in ehi - elo)
        covered = np.zeros(shape, dtype=bool)

        def paint(p):
            sl = tuple(slice(max(int(p[a] - M - elo[a]), 0),
                             min(int(p[a] + M + 1 - elo[a]), shape[a]))
                       for a in range(d))
            if all(s.start < s.stop for s in sl):
                covered[sl] = True

        for p in kept:
            paint(p)
        while not covered.all():
            gap = elo + np.array(
                np.unravel_index(int(np.argmax(~covered)), shape), dtype=np.int64)
            kept = np.vstack([kept, gap[None, :]])
            paint(gap)
    return kept[np.lexsort(kept.T[::-1])]


def net_coloring(centers: np.ndarray, reach: int, field,
                 stream: str = ORDER_STREAM) -> np.ndarray:
    """Greedy proper coloring of the net graph with edges at distance <= reach.

    Centers take the least color unused among already-colored neighbors, in
    decreasing order of a dedicated uniform label at the center.
    """
    centers = np.asarray(centers, dtype=np.int64)
    n = len(centers)
    prio = np.array([field.uniform(stream, tuple(int(x) for x in c)) for c in centers])
    colors = np.zeros(n, dtype=np.int64)
    for i in np.argsort(-prio, kind="stable"):
        dist = np.abs(centers - centers[i]).max(axis=1)
        dist[i] = reach + 1
        used = {int(c) for c in colors[dist <= reach]} - {0}
        c = 1
        while c in used:
            c += 1
        colors[i] = c
    return colors


def _prohibited(s: np.ndarray, t: np.ndarray, rt: int, M: int) -> set[int]:
    """Radius values for a new box at s whose faces would come within
    distance 2 of a face of the existing box (t, rt)."""
    d = len(s)
    out: set[int] = set()
    ext_lo = t - rt
    ext_hi = t + rt
    for a in range(d):
        for level in (int(t[a]) + rt, int(t[a]) - rt - 1):
            # new face level is s[a] + r (high side) or s[a] - r - 1 (low side);
            # unit level intervals are within distance 2 iff starts differ by <= 3
            for base in (level - int(s[a]), int(s[a]) - 1 - level):
                for r in range(max(base - 3, M), min(base + 3, 2 * M - 1) + 1):
                    ok = True
                    for i in range(d):
                        if i == a:
                            continue
                        gap = max(0, int(ext_lo[i]) - (int(s[i]) + r),
                                  (int(s[i]) - r) - int(ext_hi[i]))
                        if gap > 2:
                            ok = False
                            break
                    if ok:
                        out.add(r)
    return out


def _least_radius(s: np.ndarray, prev_centers: np.ndarray,
                  prev_radii: np.ndarray, M: int) -> int:
    bad: set[int] = set()
    for t, rt in zip(prev_centers, prev_radii):
        bad |= _prohibited(s, t, int(rt), M)
    for r in range(M, 2 * M):
        if r not in bad:
            return r
    raise AssertionError("no admissible radius in [M, 2M); packing bound violated")


def assign_radii(centers: np.ndarray, colors: np.ndarray, M: int) -> np.ndarray:
    """Box radii in [M, 2M), least allowable value first.

    Color classes are processed in increasing order; within a class, choices
    are independent because equal-colored centers are more than 4M+3 apart.
    A radius is allowable when no face of its box comes within distance 2 of
    a face of the same direction on an already-fixed box.
    """
    centers = np.asarray(centers, dtype=np.int64)
    colors = np.asarray(colors, dtype=np.int64)
    n = centers.shape[0]
    reach = 4 * M + 3
    for i in range(n):
        dist = np.abs(centers - centers[i]).max(axis=1)
        dist[i] = reach + 1
        if (dist <= M).any():
            raise ValueError("centers violate hard-core packing at scale M")
        if ((dist <= reach) & (colors == colors[i])).any():
            raise ValueError(f"net coloring not proper at reach {reach}")
    radii = np.zeros(n, dtype=np.int64)
    fixed = np.zeros(n, dtype=bool)
    for j in np.unique(colors):
        cls = np.nonzero(colors == j)[0]
        chosen = {}
        for i in cls:
            dist = np.abs(centers - centers[i]).max(axis=1)
            near = np.nonzero(fixed & (dist <= 4 * M + 2))[0]
            chosen[int(i)] = _least_radius(centers[i], centers[near], radii[near], M)
        for i, r in chosen.items():
            radii[i] = r
        fixed[cls] = True
    return radii


def _faces_axis(boxes: BoxSystem, axis: int):
    """Site boxes (lo, hi inclusive) of all faces perpendicular to axis."""
    c = boxes.centers
    r = boxes.radii
    n = len(r)
    lo = np.repeat(c - r[:, None], 2, axis=0)
    hi = np.repeat(c + r[:, None], 2, axis=0)
    lo[0::2, axis] = c[:, axis] + r
    hi[0::2, axis] = c[:, axis] + r + 1
    lo[1::2, axis] = c[:, axis] - r - 1
    hi[1::2, axis] = c[:, axis] - r
    owner = np.repeat(np.arange(n), 2)
    return lo, hi, owner


def audit_faces(boxes: BoxSystem) -> AuditReport:
    """Exhaustive check: same-direction faces pairwise more than distance 2."""
    rep = AuditReport("faces", None)
    rep.stats["violations_total"] = 0
    for axis in range(boxes.d):
        lo, hi, owner = _faces_axis(boxes, axis)
        k = len(owner)
        for start in range(0, k, 256):
            blo = lo[start:start + 256]
            bhi = hi[start:start + 256]
            gap = np.maximum(blo[:, None, :] - hi[None, :, :],
                             lo[None, :, :] - bhi[:, None, :])
            near = np.maximum(gap, 0).max(axis=2) <= 2
            ii, jj = np.nonzero(near)
            for bi, j in zip(ii, jj):
                i = start + bi
                if i < j:
                    rep.add("face-separation",
                            (axis, int(owner[i]), int(owner[j]),
                             tuple(int(x) for x in lo[i]),
                             tuple(int(x) for x in lo[j])))
    rep.stats["faces_checked"] = 2 * boxes.d * len(boxes)
    return rep


def sign_process(v, boxes: BoxSystem, net_colors: np.ndarray) -> int:
    """Sign at v: parity of the 1-norm offset from the center of the
    lowest-colored covering box; +1 at even offsets."""
    v = np.asarray(v, dtype=np.int64)
    dist = np.abs(boxes.centers - v).max(axis=1)
    cov = np.nonzero(dist <= boxes.radii)[0]
    if cov.size == 0:
        raise ValueError(f"vertex {tuple(int(x) for x in v)} not covered by any box")
    cols = net_colors[cov]
    cmin = cols.min()
    if int((cols == cmin).sum()) > 1:
        raise AssertionError("two covering boxes share the lowest net color")
    s = boxes.centers[cov[np.argmin(cols)]]
    return 1 if int(np.abs(s - v).sum()) % 2 == 0 else -1


def sign_window(window: Window, boxes: BoxSystem,
                net_colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sign field over a window.

    Returns (signs, covered); signs is 0 where no box covers the vertex.
    Asserts that no vertex is covered by two boxes of equal net color.
    """
    axes = window.axes()
    shape = tuple(window.extent)
    lo = np.asarray(window.origin, dtype=np.int64)
    hi = lo + np.asarray(window.extent, dtype=np.int64) - 1
    nearest = np.clip(boxes.centers, lo, hi)
    touches = (np.abs(boxes.centers - nearest).max(axis=1) <= boxes.radii)

    big = np.iinfo(np.int64).max
    best = np.full(shape, big, dtype=np.int64)
    signs = np.zeros(shape, dtype=np.int8)
    for col in np.unique(net_colors):
        count = np.zeros(shape, dtype=np.int16)
        for i in np.nonzero(touches & (net_colors == col))[0]:
            c = boxes.centers[i]
            r = int(boxes.radii[i])
            inside = np.ones(shape, dtype=bool)
            dist1 = np.zeros(shape, dtype=np.int64)
            for a, ax in enumerate(axes):
                da = np.abs(ax - int(c[a]))
                inside &= da <= r
                dist1 += da
            count += inside
            claim = inside & (best > col)
            signs[claim] = np.where(dist1[claim] % 2 == 0, 1, -1).astype(np.int8)
            best[claim] = col
        if (count > 1).any():
            raise AssertionError("two covering boxes share a net color")
    return signs, best < big


def audit_sign_clusters(signs: np.ndarray, *, bound: int = 1) -> AuditReport:
    """Exhaustive check: equal-sign clusters have sup-norm diameter <= bound."""
    rep = AuditReport("sign-clusters", None)
    rep.stats["violations_total"] = 0
    structure = ndimage.generate_binary_structure(signs.ndim, 1)
    checked = 0
    for val in (1, -1):
        lab, nlab = ndimage.label(signs == val, structure=structure)
        checked += nlab
        for sl in ndimage.find_objects(lab):
            if sl is None:
                continue
            span = [s.stop - s.start - 1 for s in sl]
            if max(span) > bound:
                rep.add("cluster-diameter",
                        (int(val), tuple(int(s.start) for s in sl), tuple(span)))
    rep.stats["clusters_checked"] = checked
    return rep


def _cluster_phases(values: np.ndarray, u: np.ndarray, *, bound: int | None = None,
                    forbidden: np.ndarray | None = None):
    """Per-vertex parity of the 1-norm distance to the max-u vertex of its
    equal-value cluster.

    Vertices whose cluster touches the grid rim (or a forbidden vertex, or
    one of its lattice neighbors) are marked invalid: the cluster might
    extend past what the grid shows.  With bound set, any cluster spanning
    more than bound raises a budget error.
    """
    shape = values.shape
    nd = values.ndim
    parity = np.zeros(shape, dtype=np.int8)
    valid = np.ones(shape, dtype=bool)
    structure = ndimage.generate_binary_structure(nd, 1)
    coords = np.indices(shape)
    rim = np.ones(shape, dtype=bool)
    if all(e > 2 for e in shape):
        rim[tuple(slice(1, -1) for _ in range(nd))] = False
    if forbidden is not None and forbidden.any():
        rim |= ndimage.binary_dilation(forbidden, structure=structure)
        valid &= ~forbidden
    for val in np.unique(values):
        mask = values == val
        lab, nlab = ndimage.label(mask, structure=structure)
        if nlab == 0:
            continue
        if bound is not None:
            for sl in ndimage.find_objects(lab):
                if sl is not None and any(s.stop - s.start - 1 > bound for s in sl):
                    raise BudgetExceeded("radius", bound, "cluster",
                                         tuple(int(s.start) for s in sl))
        wpos = np.asarray(ndimage.maximum_position(
            u, labels=lab, index=np.arange(1, nlab + 1)), dtype=np.int64)
        wpos = wpos.reshape(nlab, nd)
        ok = np.ones(nlab + 1, dtype=bool)
        ok[np.unique(lab[rim & mask])] = False
        inmask = lab > 0
        l = lab[inmask]
        dist = np.zeros(l.shape, dtype=np.int64)
        for a in range(nd):
            dist += np.abs(coords[a][inmask] - wpos[l - 1, a])
        parity[inmask] = (dist % 2).astype(np.int8)
        valid[inmask] &= ok[l]
    return parity, valid


def checkerboard_4color(values: np.ndarray, u: np.ndarray, *,
                        bound: int | None = None,
                        forbidden: np.ndarray | None = None):
    """Four-coloring of a {1,2}-valued grid with bounded equal-value clusters.

    Each cluster is split by the parity of the 1-norm distance to its max-u
    vertex: value + 1 + (-1)^parity, sending 1-clusters to {1,3} and
    2-clusters to {2,4}.  Returns (colors, valid); colors are 0 where the
    cluster is not fully visible.
    """
    check = values if forbidden is None else values[~forbidden]
    if not np.isin(check, (1, 2)).all():
        raise ValueError("values must be 1 or 2")
    parity, valid = _cluster_phases(values, u, bound=bound, forbidden=forbidden)
    colors = values + 1 + (1 - 2 * parity.astype(np.int64))
    return np.where(valid, colors, 0), valid


@dataclass
class FourColoring:
    """Window result of the box pipeline, with the pieces audits consult."""

    window: Window
    colors: np.ndarray
    signs: np.ndarray
    valid: np.ndarray
    boxes: BoxSystem
    net_colors: np.ndarray
    M: int
    C: int
    Cprime: int


def four_color_window(field, window: Window) -> FourColoring:
    """Run the full box pipeline over a window.

    Net and radii are generated on the window padded by CONTEXT_SCALE * M,
    so every box that can touch the window sees its whole interaction
    neighborhood; the sign field is computed on the window padded by 2 so
    sign clusters (diameter <= 1 when the face audit passes) are complete.
    """
    d = window.d
    M, C, Cp = choose_M(d)
    pad = 2
    zwin = window.grow(pad)
    margin = CONTEXT_SCALE * M + 6
    zlo = np.asarray(zwin.origin, dtype=np.int64)
    lo = zlo - margin
    hi = zlo + np.asarray(zwin.extent, dtype=np.int64) + margin
    centers = fixture_net(field, lo, hi, M,
                          ensure=(zlo, zlo + np.asarray(zwin.extent, dtype=np.int64)))
    colors = net_coloring(centers, 4 * M + 3, field)
    radii = assign_radii(centers, colors, M)
    boxes = BoxSystem(centers, radii, M)

    signs, covered = sign_window(zwin, boxes, colors)
    two = np.where(signs > 0, 1, 2)
    u = field.uniform_box(PHASE_STREAM, zwin.axes())
    forbidden = ~covered if not covered.all() else None
    x4, valid = checkerboard_4color(two, u, forbidden=forbidden)

    core = tuple(slice(pad, pad + e) for e in window.extent)
    return FourColoring(window=window, colors=x4[core], signs=signs[core],
                        valid=valid[core], boxes=boxes, net_colors=colors,
                        M=M, C=C, Cprime=Cp)


def baseline_percolation_4color(v, field) -> int:
    """Percolation four-coloring of the plane, queried at one vertex.

    Fair +-1 coins per site; the sign cluster of v is explored fully, and
    the color is 1 (plus signs) or 3 (minus signs) plus the parity of the
    1-norm distance to the cluster's max-phase vertex.
    """
    v = tuple(int(x) for x in v)
    if len(v) != 2:
        raise ValueError("baseline runs on the planar lattice")
    sv = field.coin(BASE_SIGN_STREAM, v)
    stack = [v]
    seen = {v}
    cluster = []
    while stack:
        x = stack.pop()
        cluster.append(x)
        if len(cluster) > BASELINE_MAX_SITES:
            raise BudgetExceeded("access", BASELINE_MAX_SITES, BASE_SIGN_STREAM, x)
        for nb in _PLANE.neighbors(x):
            if nb not in seen:
                seen.add(nb)
                if field.coin(BASE_SIGN_STREAM, nb) == sv:
                    stack.append(nb)
    w = max(cluster, key=lambda x: (field.uniform(BASE_PHASE_STREAM, x), x))
    par = (abs(v[0] - w[0]) + abs(v[1] - w[1])) % 2
    return (1 if sv > 0 else 3) + par


def baseline_window(field, window: Window, *, margin: int = 64):
    """Vectorized baseline over a window.

    Coins and phases are read on the window padded by margin; vertices whose
    sign cluster touches the padded rim are unresolved (color 0).
    """
    if window.d != 2:
        raise ValueError("baseline runs on the planar lattice")
    big = window.grow(margin)
    axes = big.axes()
    signs = field.coin_box(BASE_SIGN_STREAM, axes)
    u = field.uniform_box(BASE_PHASE_STREAM, axes)
    parity, valid = _cluster_phases(signs, u)
    colors = np.where(signs > 0, 1, 3) + parity.astype(np.int64)
    colors = np.where(valid, colors, 0)
    core = tuple(slice(margin, margin + e) for e in window.extent)
    return colors[core], valid[core]
