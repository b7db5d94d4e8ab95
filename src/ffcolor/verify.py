"""Unconditional audits over produced windows, and radius-tail tables.

Audits look only at outputs (color grids, indicator grids, validity masks),
never at construction internals.  A vertex is "interior-valid" when its mask
entry is True; audits that need a whole neighborhood additionally require the
neighborhood to sit inside the grid (and be valid where the semantics demand
it).  Violation lists are capped at VIOLATION_CAP entries; exact totals are
always in stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import Window, ball_offsets, nonzero_offsets, overlap

VIOLATION_CAP = 10_000


@dataclass
class AuditReport:
    construction: str
    window: Window | None
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.stats.get("violations_total", len(self.violations)) == 0

    def add(self, kind: str, where) -> None:
        self.stats["violations_total"] = self.stats.get("violations_total", 0) + 1
        if len(self.violations) < VIOLATION_CAP:
            self.violations.append((kind, where))

    def add_rows(self, kind: str, count: int, where) -> None:
        """Count `count` violations in the total, and record the first ones
        that fit under the cap, the r-th at `where(r)`."""
        self.stats["violations_total"] = self.stats.get("violations_total", 0) + count
        room = min(count, VIOLATION_CAP - len(self.violations))
        self.violations.extend((kind, where(r)) for r in range(room))

    def merge(self, other: "AuditReport") -> None:
        """Add another report's total, its violations up to the cap, and
        its other counters."""
        total = other.stats.get("violations_total", len(other.violations))
        self.stats["violations_total"] = self.stats.get("violations_total", 0) + total
        self.violations.extend(other.violations[:VIOLATION_CAP - len(self.violations)])
        self.stats.update((k, v) for k, v in other.stats.items()
                          if k != "violations_total")

    def add_mask(self, kind: str, bad: np.ndarray, where) -> None:
        """`add_rows` over the True cells of `bad`, each recorded at
        `where(index row)`."""
        count = int(np.count_nonzero(bad))
        room = VIOLATION_CAP - len(self.violations)
        # only when rows are recorded: on a clean 1024^2 mask `argwhere`
        # takes about 40 times as long as the count
        idx = np.argwhere(bad)[:room] if count and room > 0 else None
        self.add_rows(kind, count, lambda r: where(idx[r]))

    def to_json(self) -> dict:
        return {
            "construction": self.construction,
            "window": None if self.window is None else
                      {"origin": list(self.window.origin),
                       "extent": list(self.window.extent)},
            "passed": self.passed,
            "violations_total": self.stats.get("violations_total", 0),
            "violations_sample": [
                {"kind": k, "at": _coerce(w)} for k, w in self.violations[:50]],
            "stats": {k: v for k, v in self.stats.items()},
        }

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        total = self.stats.get("violations_total", 0)
        return f"{self.construction or 'audit'}: {status} ({total} violations)"


def _coerce(w):
    if isinstance(w, tuple):
        return [_coerce(x) for x in w]
    if isinstance(w, (np.integer, int)):
        return int(w)
    return w


def _positive_offsets(d: int, m: int, norm: str) -> list[tuple[int, ...]]:
    """One representative per +/- pair of nonzero ball offsets."""
    return [off for off in nonzero_offsets(d, m, norm)
            if next(c for c in off if c) > 0]


def _audit_radius(shape, m: int, norm: str) -> int:
    """min(m, D + 1), D the grid's diameter in the norm: no two cells lie
    farther apart than D, and from every cell the ball of radius D + 1
    leaves the grid, so an audit reads the same at m as at this radius."""
    spans = [max(n - 1, 0) for n in shape]
    return min(m, (max(spans, default=0) if norm == "linf" else sum(spans)) + 1)


def check_coloring(colors: np.ndarray, m: int = 1, norm: str = "l1",
                   valid: np.ndarray | None = None,
                   construction: str = "coloring") -> AuditReport:
    """Every pair at norm-distance <= m must differ, among valid positive cells."""
    colors = np.asarray(colors)
    d = colors.ndim
    m = _audit_radius(colors.shape, m, norm)
    if valid is None:
        valid = np.ones(colors.shape, dtype=bool)
    ok = valid & (colors > 0)
    rep = AuditReport(construction, None)
    checked = 0
    for off in _positive_offsets(d, m, norm):
        # colors[src] and colors[dst] are the cells x and x + off
        dst, src = overlap((0,) * d, colors.shape, off, colors.shape)
        both = ok[src] & ok[dst]
        checked += int(both.sum())
        rep.add_mask("proper", both & (colors[src] == colors[dst]),
                     lambda idx: _pair(idx, off))
    rep.stats.setdefault("violations_total", 0)
    rep.stats["pairs_checked"] = checked
    rep.stats["cells_valid"] = int(ok.sum())
    return rep


def check_palette(colors: np.ndarray, q: int,
                  valid: np.ndarray | None = None) -> AuditReport:
    """Every cell, or every valid cell where `valid` is given, holds a color in 1..q."""
    colors = np.asarray(colors)
    bad = (colors < 1) | (colors > q)
    rep = AuditReport("palette", None)
    rep.add_mask("palette", bad if valid is None else bad & valid, _cell)
    rep.stats["cells_checked"] = bad.size if valid is None else int(valid.sum())
    return rep


def _cell(idx) -> tuple:
    """A grid index as a tuple of ints."""
    return tuple(int(i) for i in idx)


def _pair(idx, off) -> tuple:
    """The two cells of a shifted-slice violation at `idx`, `off` apart."""
    base = tuple(int(i) + max(-o, 0) for i, o in zip(idx, off))
    return base, tuple(b + o for b, o in zip(base, off))


def check_net(indicator: np.ndarray, m: int = 1, norm: str = "l1",
              valid: np.ndarray | None = None,
              construction: str = "net") -> AuditReport:
    """Packing: no two valid 1's within m.  Covering: every cell whose whole
    ball is in-grid and valid sees a 1 in its ball."""
    j = np.asarray(indicator).astype(bool)
    d = j.ndim
    m = _audit_radius(j.shape, m, norm)
    if valid is None:
        valid = np.ones(j.shape, dtype=bool)
    rep = AuditReport(construction, None)
    for off in _positive_offsets(d, m, norm):
        dst, src = overlap((0,) * d, j.shape, off, j.shape)
        rep.add_mask("packing", j[src] & j[dst] & valid[src] & valid[dst],
                     lambda idx: _pair(idx, off))
    offs = ball_offsets(d, m, norm)
    has_one = np.zeros(j.shape, dtype=bool)
    ball_ok = np.ones(j.shape, dtype=bool)
    for off in offs:
        dst, src = overlap((0,) * d, j.shape, off, j.shape)
        contrib = np.zeros(j.shape, dtype=bool)
        contrib[dst] = j[src]
        has_one |= contrib
        inside = np.zeros(j.shape, dtype=bool)
        inside[dst] = valid[src]
        ball_ok &= inside
    rep.add_mask("covering", ball_ok & ~has_one, _cell)
    rep.stats["ones"] = int((j & valid).sum())
    rep.stats["checkable_cells"] = int(ball_ok.sum())
    return rep


# ---------------------------------------------------------------------------
# height function of proper 3-colorings


def _steps_grid(colors: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized height steps along an axis: (values, properness mask).
    Colors are widened to int64 first: a difference taken in an unsigned
    dtype wraps, and the wrapped value is wrong mod 3."""
    r = np.diff(colors.astype(np.int64, copy=False), axis=axis) % 3
    return np.where(r == 1, 1, -1), r != 0


def _running(a: np.ndarray, axis: int) -> np.ndarray:
    """Running sums of `a` along `axis` from a leading 0, so the sum over a
    segment of the axis is a difference of two entries."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (1, 0)
    return np.pad(np.cumsum(a, axis=axis), pad)


def check_heights(colors: np.ndarray, valid: np.ndarray | None = None,
                  rectangles: int = 100, rng_seed: int = 0,
                  construction: str = "heights") -> AuditReport:
    """Zero circulation around every unit square whose corners are valid,
    plus sampled rectangles.

    Up to `rectangles * 20` rectangles [x0, x1] x [y0, y1] are drawn
    uniformly over the whole grid, and the first `rectangles` whose whole
    boundary is valid (every cell valid, every edge proper) are checked.  A
    rectangle with one bad cell or edge anywhere on its boundary is skipped,
    so on output where few cells are valid no rectangle is checked: three2d
    windows, where 1-2% of sites are valid, check none.  Each side's height
    change and count of bad edges are differences of running sums.  A grid
    that is not planar raises ValueError.
    """
    colors = np.asarray(colors)
    if colors.ndim != 2:
        raise ValueError(f"height circulation needs a planar grid, "
                         f"not one of dimension {colors.ndim}")
    nx, ny = colors.shape
    if valid is None:
        valid = np.ones(colors.shape, dtype=bool)
    valid = valid & (colors > 0)
    rep = AuditReport(construction, None)
    hx, okx = _steps_grid(colors, 0)   # (nx-1, ny) steps along x
    hy, oky = _steps_grid(colors, 1)   # (nx, ny-1) steps along y
    sq_valid = valid[:-1, :-1] & valid[1:, :-1] & valid[:-1, 1:] & valid[1:, 1:]
    sq_proper = okx[:, :-1] & okx[:, 1:] & oky[:-1, :] & oky[1:, :]
    rep.add_mask("non-proper-edge", sq_valid & ~sq_proper, _cell)
    circ = hx[:, :-1] + hy[1:, :] - hx[:, 1:] - hy[:-1, :]
    rep.add_mask("circulation", sq_valid & sq_proper & (circ != 0), _cell)
    checked = int((sq_valid & sq_proper).sum())
    sx, sy = _running(hx, 0), _running(hy, 1)
    bx = _running(~okx | ~valid[:-1, :] | ~valid[1:, :], 0)
    by = _running(~oky | ~valid[:, :-1] | ~valid[:, 1:], 1)
    # row i is draw i's x pair then y pair, as drawing one rectangle at a
    # time reads them from the generator
    draws = rectangles * 20 if nx > 1 and ny > 1 else 0
    xy = np.random.default_rng(rng_seed).integers(0, (nx, nx, ny, ny), size=(draws, 4))
    x0, x1 = np.sort(xy[:, :2], axis=1).T
    y0, y1 = np.sort(xy[:, 2:], axis=1).T
    ok = ((x0 < x1) & (y0 < y1)
          & (bx[x0, y0] == bx[x1, y0]) & (by[x1, y0] == by[x1, y1])
          & (bx[x0, y1] == bx[x1, y1]) & (by[x0, y0] == by[x0, y1]))
    done = np.flatnonzero(ok)[:rectangles]
    x0, x1, y0, y1 = x0[done], x1[done], y0[done], y1[done]
    # counterclockwise: along y0, up x1, back along y1, down x0
    delta = (sx[x1, y0] - sx[x0, y0] + sy[x1, y1] - sy[x1, y0]
             - sx[x1, y1] + sx[x0, y1] - sy[x0, y1] + sy[x0, y0])
    for i in np.flatnonzero(delta):
        rep.add("circulation-rect", ((int(x0[i]), int(y0[i])), (int(x1[i]), int(y1[i]))))
    rep.stats["circuits_checked"] = checked + len(done)
    rep.stats["rectangles_checked"] = len(done)
    return rep


# ---------------------------------------------------------------------------
# radius tails


def radius_tail_rows(radii: list, cap: int) -> list[tuple[str, int, int, str]]:
    """Survival table rows (r, count_gt, total, survival) from tracked radii.

    Censored entries (None) exceeded the cap: they count as > r for every
    r <= cap, and produce the final ">cap" row.
    """
    total = len(radii)
    if total == 0:
        return []
    finite = sorted(x for x in radii if x is not None)
    censored = sum(1 for x in radii if x is None)
    rows = []
    values = sorted(set(finite))
    import bisect

    for r in values:
        gt = len(finite) - bisect.bisect_right(finite, r) + censored
        rows.append((str(r), gt, total, _decimal(gt, total)))
    rows.append((f">{cap}", censored, total, _decimal(censored, total)))
    return rows


def _decimal(num: int, den: int) -> str:
    # positional decimal of a fraction, exact for terminating denominators
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 30
        s = format(Decimal(num) / Decimal(den), "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s or "0"


def radius_tail_csv(radii: list, cap: int) -> str:
    lines = ["r,count_gt,total,survival"]
    for r, gt, total, s in radius_tail_rows(radii, cap):
        lines.append(f"{r},{gt},{total},{s}")
    return "\n".join(lines) + "\n"
