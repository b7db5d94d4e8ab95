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

Every pass is an array pass over a padded neighbor matrix.  The net
thinning keeps the greedy independent set of the candidates' conflict graph
(sup-distance <= M) in decreasing priority order, computed by
`reduction.greedy_independent_set` in keep/drop rounds; the graph is built
from the candidates' offsets within their cells, one comparison per axis.
The net coloring is a sequential greedy coloring of the net graph, run as
`reduction._greedy`; its order labels are read in one `u64_points` call.
Box radii are chosen one color class at a time: the face geometry of every
near pair is computed once, and each class adds its fixed radii, scatters
the values they prohibit into one mask and takes the least free value per
row.  Near pairs of centers come from `lattice.close_pairs`, and the face
audit pairs faces by the same sweep over their levels along each axis, so it
measures only faces at most 3 levels apart.

Cluster phases label every value once and pick each cluster's anchor with
`lattice.cluster_anchors`, two scatter-max passes: the site of largest phase
label, and on a tie the last one in raster order, which is the largest
coordinate tuple.  That is the rule of the per-site query, the largest
(phase, x) pair over its cluster, so window and query agree even where phase
labels tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy import ndimage

from .field import BudgetExceeded
from .lattice import FiniteGraph, Window, ball_mask, close_pairs, cluster_anchors, \
    nonzero_offsets, overlap, rim_clusters, sweep_pairs
from .reduction import _greedy, greedy_independent_set
from .verify import AuditReport

CAND_STREAM = "fixture:boxnet"
ORDER_STREAM = "four:order"
PHASE_STREAM = "four:phase"
BASE_SIGN_STREAM = "baseline4:sign"
BASE_PHASE_STREAM = "baseline4:phase"
CANDIDATES_PER_CELL = 6  # fixture_net candidate positions per M-cell
CONTEXT_SCALE = 6  # four_color_window pads its net region by this many M
BASELINE_MAX_SITES = 1_000_000  # baseline query: largest sign cluster explored
_PLANE_STEPS = nonzero_offsets(2, 1)  # the baseline query's neighbor offsets


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


def fixture_net(field, lo, hi, M: int, *, ensure=None) -> np.ndarray:
    """Hard-core net on the box [lo, hi): centers pairwise > M apart.

    Draws CANDIDATES_PER_CELL candidate positions in every M-cell meeting the
    region (a non-spatial table read keyed by cell index) and keeps candidates in
    decreasing priority order (ties by index), dropping any within distance
    M of a kept one: the greedy independent set of their conflict graph.
    Greedy thinning is maximal over the candidates, not the lattice,
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
    offs = field.discrete_box(CAND_STREAM + ":pos", axes, M) - 1
    pos = np.stack(cells, axis=1) * M + offs
    prio = field.uniform_box(CAND_STREAM + ":prio", [*cells, cand])

    # the kept set of the thinning: decreasing priority, ties by index
    keep = greedy_independent_set(_candidate_graph(offs, [len(r) for r in ranges]), prio)
    kept = pos[keep]
    if ensure is not None:
        elo = np.asarray(ensure[0], dtype=np.int64)
        ehi = np.asarray(ensure[1], dtype=np.int64)
        shape = tuple(int(x) for x in ehi - elo)
        covered = np.zeros(shape, dtype=bool)

        def paint(p):
            covered[overlap(elo, shape, p - M, (2 * M + 1,) * d)[0]] = True

        # only centers within M of the ensure box paint any of it
        for p in kept[((kept >= elo - M) & (kept < ehi + M)).all(axis=1)]:
            paint(p)
        while not covered.all():
            gap = elo + np.array(
                np.unravel_index(int(np.argmax(~covered)), shape), dtype=np.int64)
            kept = np.vstack([kept, gap[None, :]])
            paint(gap)
    return kept[np.lexsort(kept.T[::-1])]


def _candidate_graph(offs: np.ndarray, ncell) -> FiniteGraph:
    """Conflict graph of fixture_net candidates: edges at distance <= M.

    Candidates are laid out cell-major, CANDIDATES_PER_CELL per M-cell, and
    `offs` holds each one's offset in [0, M) from its cell's least corner,
    so a conflict is at most one cell away along every axis.  Column block j
    holds the candidates of the cell at the j-th step in {-1, 0, 1}^d, -1
    where that cell leaves the region or the pair is farther than M apart,
    as `WindowGraph.build` writes its columns.

    Along an axis where the cells are a step e apart, the coordinates of
    candidates p and q differ by e M + q_a - p_a with both offsets in
    [0, M), so they are within M iff e q_a <= e p_a: always when e = 0,
    and otherwise by one comparison of offsets, with no distance and no M.
    The blocks are read from the cell grid padded by one cell, so every
    step is one slice and the test one broadcast per axis.
    """
    k = CANDIDATES_PER_CELL
    n, d = offs.shape
    steps = np.array(list(product((-1, 0, 1), repeat=d)), dtype=np.int64)

    def shifted(a, fill):
        # (*ncell, steps, k): a's entries at each cell's neighbor cells
        rimmed = np.full([e + 2 for e in ncell] + [k], fill, dtype=np.int64)
        rimmed[(slice(1, -1),) * d] = a.reshape(*ncell, k)
        return np.stack([rimmed[tuple(slice(1 + e, 1 + e + c) for e, c in zip(step, ncell))]
                         for step in steps.tolist()], axis=d)

    idx = shifted(np.arange(n), -1)[..., None, :, :]
    near = idx >= 0
    for a in range(d):
        e, u = steps[:, a], offs[:, a]
        near = near & ((shifted(u, 0) * e[:, None])[..., None, :, :]
                       <= (u.reshape(*ncell, k, 1) * e)[..., None])
    ar = np.arange(k)
    near[..., ar, len(steps) // 2, ar] = False  # a candidate is not its own neighbor
    # the neighbor's index where near, -1 elsewhere
    nbr = (idx + 1) * near
    nbr -= 1
    return FiniteGraph(n, nbr.reshape(n, -1))


def net_coloring(centers: np.ndarray, reach: int, field, *, pairs=None) -> np.ndarray:
    """Greedy proper coloring of the net graph with edges at distance <= reach.

    Centers take the least color unused among already-colored neighbors, in
    decreasing order of a dedicated uniform label at the center, and on a
    tie in the order of the rows.  The labels are read in one `u64_points`
    call, which records the scattered centers as points (a bulk read would
    be recorded as their bounding box), and are converted as
    `field.uniform` converts one label, so ties are those of the floats.
    `pairs` is `close_pairs(centers, reach, "linf")` when the caller has it.
    """
    centers = np.asarray(centers, dtype=np.int64)
    n = len(centers)
    h = np.array(field.u64_points(ORDER_STREAM, list(map(tuple, centers.tolist()))),
                 dtype=np.uint64)
    prio = (h >> np.uint64(11)) * 2.0**-53
    i, j, _ = close_pairs(centers, reach, "linf") if pairs is None else pairs
    colors = np.zeros(n, dtype=np.int64)
    _greedy(colors, FiniteGraph.from_edges(n, np.stack([i, j], axis=1)[i < j]),
            np.arange(n), prio, None, later_first=False)
    return colors


def assign_radii(centers: np.ndarray, colors: np.ndarray, M: int, *,
                 pairs=None) -> np.ndarray:
    """Box radii in [M, 2M), least allowable value first.

    Color classes are processed in increasing order; within a class, choices
    are independent because equal-colored centers are more than 4M+3 apart.
    A radius is allowable when no face of its box comes within distance 2 of
    a face of the same direction on an already-fixed box.

    For a new box at s and a fixed one (t, rt), along axis a a fixed face
    sits at level t_a + rt or t_a - rt - 1 and a new face at s_a + r or
    s_a - r - 1; unit level intervals are within distance 2 iff their starts
    differ by <= 3, so each (level, side) names 7 candidate values
    r = b + e rt + k, k in [-3, 3], with b one of t_a - s_a,
    s_a - t_a - 1, t_a - s_a - 1 and s_a - t_a, and e = +1, -1, -1, +1.
    Along every other axis i the two faces span [t_i - rt, t_i + rt] and
    [s_i - r, s_i + r], within distance 2 iff r >= |t_i - s_i| - rt - 2.  A
    candidate in [M, 2M) that meets this bound on every other axis is
    prohibited.  The terms without rt are computed once for every near
    pair; each class adds its fixed radii and scatters its prohibitions
    into one mask, then takes the least free value per row.  `pairs` is
    `close_pairs(centers, 4 * M + 3, "linf")` when the caller has it.
    """
    centers = np.asarray(centers, dtype=np.int64)
    colors = np.asarray(colors, dtype=np.int64)
    n, d = centers.shape
    reach = 4 * M + 3
    i, j, dist = close_pairs(centers, reach, "linf") if pairs is None else pairs
    packing = np.zeros(n, dtype=bool)
    packing[i[dist <= M]] = True
    improper = np.zeros(n, dtype=bool)
    improper[i[colors[i] == colors[j]]] = True
    bad = np.flatnonzero(packing | improper)
    if bad.size:
        if packing[bad[0]]:
            raise ValueError("centers violate hard-core packing at scale M")
        raise ValueError(f"net coloring not proper at reach {reach}")
    # only boxes of a lower color are fixed when a class is chosen; pairs
    # are grouped by the class of their new box
    near = np.flatnonzero((dist <= 4 * M + 2) & (colors[j] < colors[i]))
    near = near[np.argsort(colors[i[near]], kind="stable")]
    i, j = i[near], j[near]
    delta = centers[j] - centers[i]
    off = np.abs(delta)
    other = np.stack([np.delete(off, a, axis=1).max(axis=1, initial=0)
                      for a in range(d)], axis=1) - 2
    base = np.stack([delta, -delta - 1, delta - 1, -delta], axis=2)
    sign = np.array([1, -1, -1, 1])
    # fixed radii lie in [M, 2M) too, so a (pair, axis, face pair) can
    # prohibit a value only if its b lies in [-M - 2, M + 2] (e = +1) or in
    # [2M - 3, 4M + 1] (e = -1); only those are kept, in pair order
    pair, axis, face = np.nonzero(np.where(sign > 0, np.abs(base) <= M + 2,
                                           (base >= 2 * M - 3) & (base <= 4 * M + 1)))
    b, e = base[pair, axis, face], sign[face]
    least = other[pair, axis]
    # classes in increasing order, each one's members in increasing order,
    # and each center's row in its class
    by_class = np.argsort(colors, kind="stable")
    classes, first, size = np.unique(colors[by_class], return_index=True,
                                     return_counts=True)
    row = np.empty(n, dtype=np.int64)
    row[by_class] = np.arange(n) - np.repeat(first, size)
    spot = (row[i[pair]] * M - M)[:, None]
    fixed = j[pair]
    # a class without near pairs keeps the least radius
    radii = np.full(n, M, dtype=np.int64)
    start = np.searchsorted(colors[i[pair]], classes)
    stop = np.append(start[1:], len(pair))
    for f, k, lo, hi in zip(first.tolist(), size.tolist(), start.tolist(), stop.tolist()):
        if lo == hi:
            continue
        rt = radii[fixed[lo:hi]]
        r = (b[lo:hi] + e[lo:hi] * rt)[:, None] + np.arange(-3, 4)
        hit = (r >= np.maximum(least[lo:hi] - rt, M)[:, None]) & (r < 2 * M)
        banned = np.zeros((k, M), dtype=bool)
        banned.ravel()[(r + spot[lo:hi])[hit]] = True
        if banned.all(axis=1).any():
            raise AssertionError("no admissible radius in [M, 2M); packing bound violated")
        radii[by_class[f:f + k]] = M + np.argmin(banned, axis=1)
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
    """Exhaustive check: same-direction faces pairwise more than distance 2.

    A face perpendicular to an axis is two sites thick along it, so two of
    them are within distance 2 only if their levels on that axis differ by
    at most 3.  `sweep_pairs` pairs the faces at most 3 levels apart, and
    only those pairs are measured.  Violations are recorded axis by axis, in
    increasing order of the face pair (i, j), i < j, with exact totals.
    """
    rep = AuditReport("faces", None)
    rep.stats["violations_total"] = 0
    for axis in range(boxes.d):
        lo, hi, owner = _faces_axis(boxes, axis)
        a, b = sweep_pairs(lo[:, axis], 3)
        i, j = np.minimum(a, b), np.maximum(a, b)
        close = np.maximum(lo[i] - hi[j], lo[j] - hi[i]).max(axis=1) <= 2
        at = np.lexsort((j[close], i[close]))
        i, j = i[close][at].tolist(), j[close][at].tolist()
        own, los = owner.tolist(), lo.tolist()
        rep.add_rows("face-separation", len(i),
                     lambda r: (axis, own[i[r]], own[j[r]], tuple(los[i[r]]),
                                tuple(los[j[r]])))
    rep.stats["faces_checked"] = 2 * boxes.d * len(boxes)
    return rep


def sign_window(window: Window, boxes: BoxSystem,
                net_colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sign field over a window.

    Returns (signs, covered); signs is 0 where no box covers the vertex.
    Boxes paint their slices of the window in increasing net color, each
    claiming the vertices no lower color holds, with sign + where the 1-norm
    distance to the center is even: coordinate sums give its parity.
    Asserts that no vertex is covered by two boxes of equal net color.
    """
    shape = tuple(window.extent)
    lo = np.asarray(window.origin, dtype=np.int64)
    hi = lo + np.asarray(window.extent, dtype=np.int64) - 1
    nearest = np.clip(boxes.centers, lo, hi)
    touches = np.flatnonzero(np.abs(boxes.centers - nearest).max(axis=1) <= boxes.radii)

    odd = sum(window.ix_axes()) & 1
    last = np.full(shape, -1, dtype=np.int64)  # net color of the last box painted
    signs = np.zeros(shape, dtype=np.int8)
    for i in touches[np.argsort(net_colors[touches], kind="stable")].tolist():
        c, r, col = boxes.centers[i], int(boxes.radii[i]), net_colors[i]
        at = overlap(window.origin, shape, c - r, (2 * r + 1,) * window.d)[0]
        seen = last[at]
        if (seen == col).any():
            raise AssertionError("two covering boxes share a net color")
        seen[...] = col
        sub = signs[at]
        free = sub == 0
        sub[free] = 1 - 2 * (odd[at][free] ^ (int(c.sum()) & 1))
    return signs, last >= 0


def audit_sign_clusters(signs: np.ndarray, *, bound: int = 1) -> AuditReport:
    """Exhaustive check: equal-sign clusters have sup-norm diameter <= bound."""
    rep = AuditReport("sign-clusters", None)
    rep.stats["violations_total"] = 0
    structure = ball_mask(signs.ndim, 1)
    checked = 0
    for val in (1, -1):
        lab, nlab = ndimage.label(signs == val, structure=structure)
        checked += nlab
        at = np.flatnonzero(lab)
        ids = lab.ravel()[at] - 1
        # each cluster's least and largest index along every axis
        lo = np.full((signs.ndim, nlab), max(signs.shape), dtype=np.int64)
        hi = np.full((signs.ndim, nlab), -1, dtype=np.int64)
        for a, pos in enumerate(np.unravel_index(at, signs.shape)):
            np.minimum.at(lo[a], ids, pos)
            np.maximum.at(hi[a], ids, pos)
        span = hi - lo
        for i in np.flatnonzero(span.max(axis=0) > bound):
            rep.add("cluster-diameter",
                    (int(val), tuple(lo[:, i].tolist()), tuple(span[:, i].tolist())))
    rep.stats["clusters_checked"] = checked
    return rep


def _cluster_phases(values: np.ndarray, u: np.ndarray):
    """Per-vertex parity of the 1-norm distance to the anchor of its
    equal-value cluster: the vertex of largest u, and on a tie the last one
    in raster order (the largest coordinate tuple).

    Vertices whose cluster touches the grid rim are marked invalid: the
    cluster might extend past what the grid shows.
    """
    shape = values.shape
    structure = ball_mask(values.ndim, 1)
    # one label array: the clusters of each value follow those of the last
    lab = np.zeros(shape, dtype=np.int64)
    n = 0
    for val in np.unique(values):
        mask = values == val
        part, k = ndimage.label(mask, structure=structure)
        lab += part  # 0 off the mask
        lab += mask * n
        n += k
    anchor = cluster_anchors(lab, n + 1, u)
    # |x - w| and x - w agree mod 2, so the parity needs only coordinate sums
    odd = sum(np.ix_(*map(np.arange, shape))) & 1
    parity = (odd ^ odd.ravel()[anchor][lab]).astype(np.int8)
    return parity, ~rim_clusters(lab, n + 1)[lab]


def checkerboard_4color(values: np.ndarray, u: np.ndarray):
    """Four-coloring of a {1,2}-valued grid with bounded equal-value clusters.

    Each cluster is split by the parity of the 1-norm distance to its max-u
    vertex (on a tie, the one with the largest coordinate tuple): value + 1 +
    (-1)^parity, sending 1-clusters to {1,3} and 2-clusters to {2,4}.  Returns
    (colors, valid); colors are 0 where the cluster is not fully visible.
    """
    if not np.isin(values, (1, 2)).all():
        raise ValueError("values must be 1 or 2")
    parity, valid = _cluster_phases(values, u)
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
    Every vertex of that padded window is within sup-distance M of a net
    center and every radius is at least M, so an uncovered vertex raises.
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
    # one scan of the near pairs serves the net coloring and the radii
    pairs = close_pairs(centers, 4 * M + 3, "linf")
    colors = net_coloring(centers, 4 * M + 3, field, pairs=pairs)
    radii = assign_radii(centers, colors, M, pairs=pairs)
    boxes = BoxSystem(centers, radii, M)

    signs, covered = sign_window(zwin, boxes, colors)
    if not covered.all():
        raise AssertionError("a window vertex lies in no box")
    two = np.where(signs > 0, 1, 2)
    u = field.uniform_box(PHASE_STREAM, zwin.ix_axes())
    x4, valid = checkerboard_4color(two, u)

    core = tuple(slice(pad, pad + e) for e in window.extent)
    return FourColoring(window=window, colors=x4[core], signs=signs[core],
                        valid=valid[core], boxes=boxes, net_colors=colors,
                        M=M, C=C, Cprime=Cp)


def baseline_percolation_4color(v, field) -> int:
    """Percolation four-coloring of the plane, queried at one vertex.

    Fair +-1 coins per site: the sign is the coin's top bit.  The sign
    cluster of v is explored level by level.  Each frontier's unseen
    neighbors have their coins read in one `u64_points` call, and those of
    v's sign form the next frontier.  The phases of the whole cluster are
    then read in one call.  The color is 1 (plus signs) or 3 (minus signs)
    plus the parity of the 1-norm distance to the cluster's anchor: its
    vertex of largest phase label, and on a tie the largest coordinate
    tuple.

    The labels read are the cluster and its outer boundary, a set that does
    not depend on the order of exploration, so the value, the tracked radius
    and the access count are those of any other complete exploration.
    """
    v = tuple(int(x) for x in v)
    if len(v) != 2:
        raise ValueError("baseline runs on the planar lattice")
    top = field.u64(BASE_SIGN_STREAM, v) >> 63
    seen = {v}
    cluster = [v]
    frontier = [v]
    while frontier:
        fresh = []
        for x, y in frontier:
            for dx, dy in _PLANE_STEPS:
                nb = (x + dx, y + dy)
                if nb not in seen:
                    seen.add(nb)
                    fresh.append(nb)
        coins = field.u64_points(BASE_SIGN_STREAM, fresh)
        frontier = [nb for nb, h in zip(fresh, coins) if h >> 63 == top]
        cluster += frontier
        if len(cluster) > BASELINE_MAX_SITES:
            raise BudgetExceeded("access", BASELINE_MAX_SITES, BASE_SIGN_STREAM,
                                 cluster[BASELINE_MAX_SITES])
    phases = field.u64_points(BASE_PHASE_STREAM, cluster)
    # h >> 11 orders sites as their uniform phase (h >> 11) * 2^-53 does
    _, w = max(zip([h >> 11 for h in phases], cluster))
    par = (abs(v[0] - w[0]) + abs(v[1] - w[1])) % 2
    return 1 + 2 * top + par


def baseline_window(field, window: Window, *, margin: int = 64):
    """Vectorized baseline over a window.

    Coins and phases are read on the window padded by margin; vertices whose
    sign cluster touches the padded rim are unresolved (color 0).
    """
    if window.d != 2:
        raise ValueError("baseline runs on the planar lattice")
    axes = window.grow(margin).ix_axes()
    signs = field.coin_box(BASE_SIGN_STREAM, axes)
    u = field.uniform_box(BASE_PHASE_STREAM, axes)
    parity, valid = _cluster_phases(signs, u)
    colors = np.where(signs > 0, 1, 3) + parity.astype(np.int64)
    colors = np.where(valid, colors, 0)
    core = tuple(slice(margin, margin + e) for e in window.extent)
    return colors[core], valid[core]
