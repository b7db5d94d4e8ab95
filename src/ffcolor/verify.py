"""Unconditional audits over produced windows, plus two oracles.

Audits look only at outputs (color grids, indicator grids, validity masks),
never at construction internals.  A vertex is "interior-valid" when its mask
entry is True; audits that need a whole neighborhood additionally require the
neighborhood to sit inside the grid (and be valid where the semantics demand
it).  Violation lists are capped at VIOLATION_CAP entries; exact totals are
always in stats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import Window, ball_offsets, nonzero_offsets

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


def _shift_slices(shape, off):
    """Index slices (src, dst) so grid[src] aligns with grid shifted by off."""
    src, dst = [], []
    for s, o in zip(shape, off):
        if o >= 0:
            src.append(slice(0, s - o))
            dst.append(slice(o, s))
        else:
            src.append(slice(-o, s))
            dst.append(slice(0, s + o))
    return tuple(src), tuple(dst)


def check_coloring(colors: np.ndarray, m: int = 1, norm: str = "l1",
                   valid: np.ndarray | None = None, window: Window | None = None,
                   construction: str = "coloring") -> AuditReport:
    """Every pair at norm-distance <= m must differ, among valid positive cells."""
    colors = np.asarray(colors)
    d = colors.ndim
    if valid is None:
        valid = np.ones(colors.shape, dtype=bool)
    ok = valid & (colors > 0)
    rep = AuditReport(construction, window)
    checked = 0
    for off in _positive_offsets(d, m, norm):
        src, dst = _shift_slices(colors.shape, off)
        both = ok[src] & ok[dst]
        checked += int(both.sum())
        bad = both & (colors[src] == colors[dst])
        for idx in np.argwhere(bad)[:VIOLATION_CAP]:
            base = tuple(int(i) + max(-o, 0) for i, o in zip(idx, off))
            other = tuple(b + o for b, o in zip(base, off))
            rep.add("proper", (_abs(base, window), _abs(other, window)))
        extra = int(bad.sum()) - len(np.argwhere(bad)[:VIOLATION_CAP])
        if extra > 0:
            rep.stats["violations_total"] = rep.stats.get("violations_total", 0) + extra
    rep.stats.setdefault("violations_total", 0)
    rep.stats["pairs_checked"] = checked
    rep.stats["cells_valid"] = int(ok.sum())
    return rep


def _abs(idx: tuple, window: Window | None) -> tuple:
    if window is None:
        return idx
    return tuple(i + o for i, o in zip(idx, window.origin))


def check_net(indicator: np.ndarray, m: int = 1, norm: str = "l1",
              valid: np.ndarray | None = None, window: Window | None = None,
              construction: str = "net") -> AuditReport:
    """Packing: no two valid 1's within m.  Covering: every cell whose whole
    ball is in-grid and valid sees a 1 in its ball."""
    j = np.asarray(indicator).astype(bool)
    d = j.ndim
    if valid is None:
        valid = np.ones(j.shape, dtype=bool)
    rep = AuditReport(construction, window)
    for off in _positive_offsets(d, m, norm):
        src, dst = _shift_slices(j.shape, off)
        bad = j[src] & j[dst] & valid[src] & valid[dst]
        for idx in np.argwhere(bad)[:VIOLATION_CAP]:
            base = tuple(int(i) + max(-o, 0) for i, o in zip(idx, off))
            rep.add("packing", (_abs(base, window),
                                _abs(tuple(b + o for b, o in zip(base, off)), window)))
    offs = ball_offsets(d, m, norm)
    has_one = np.zeros(j.shape, dtype=bool)
    ball_ok = np.ones(j.shape, dtype=bool)
    for off in offs:
        src, dst = _shift_slices(j.shape, off)
        contrib = np.zeros(j.shape, dtype=bool)
        contrib[dst] = j[src]
        has_one |= contrib
        inside = np.zeros(j.shape, dtype=bool)
        inside[dst] = valid[src]
        ball_ok &= inside
    uncovered = ball_ok & ~has_one
    for idx in np.argwhere(uncovered)[:VIOLATION_CAP]:
        rep.add("covering", _abs(tuple(int(i) for i in idx), window))
    extra = int(uncovered.sum()) - min(int(uncovered.sum()), VIOLATION_CAP)
    if extra > 0:
        rep.stats["violations_total"] = rep.stats.get("violations_total", 0) + extra
    rep.stats.setdefault("violations_total", 0)
    rep.stats["ones"] = int((j & valid).sum())
    rep.stats["checkable_cells"] = int(ball_ok.sum())
    return rep


# ---------------------------------------------------------------------------
# height function of proper 3-colorings


def height_step(a: int, b: int) -> int:
    """+1 or -1 for a proper-3-coloring edge: the mod-3 increment of b - a."""
    r = (int(b) - int(a)) % 3
    if r == 1:
        return 1
    if r == 2:
        return -1
    raise ValueError(f"edge {a}->{b} is not proper")


def height_delta(colors: np.ndarray, path) -> int:
    """Sum of height steps along a lattice path given as index tuples."""
    colors = np.asarray(colors)
    total = 0
    for u, v in zip(path, path[1:]):
        if sum(abs(a - b) for a, b in zip(u, v)) != 1:
            raise ValueError(f"path step {u}->{v} is not a lattice edge")
        total += height_step(colors[tuple(u)], colors[tuple(v)])
    return total


def rectangle_circuit(lo: tuple[int, int], hi: tuple[int, int]) -> list[tuple[int, int]]:
    """Closed boundary walk of the rectangle [lo, hi], counterclockwise."""
    (x0, y0), (x1, y1) = lo, hi
    path = [(x, y0) for x in range(x0, x1 + 1)]
    path += [(x1, y) for y in range(y0 + 1, y1 + 1)]
    path += [(x, y1) for x in range(x1 - 1, x0 - 1, -1)]
    path += [(x0, y) for y in range(y1 - 1, y0 - 1, -1)]
    return path


def _steps_grid(colors: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized height steps along an axis: (values, properness mask)."""
    a = colors
    b = np.roll(colors, -1, axis=axis)
    sl = [slice(None)] * colors.ndim
    sl[axis] = slice(0, colors.shape[axis] - 1)
    r = (b[tuple(sl)] - a[tuple(sl)]) % 3
    vals = np.where(r == 1, 1, -1)
    return vals, r != 0


def check_heights(colors: np.ndarray, valid: np.ndarray | None = None,
                  rectangles: int = 100, rng_seed: int = 0,
                  window: Window | None = None,
                  construction: str = "heights") -> AuditReport:
    """Zero circulation around every unit square whose corners are valid,
    plus sampled all-valid rectangles."""
    colors = np.asarray(colors)
    nx, ny = colors.shape
    if valid is None:
        valid = np.ones(colors.shape, dtype=bool)
    valid = valid & (colors > 0)
    rep = AuditReport(construction, window)
    hx, okx = _steps_grid(colors, 0)   # (nx-1, ny) steps along x
    hy, oky = _steps_grid(colors, 1)   # (nx, ny-1) steps along y
    sq_valid = valid[:-1, :-1] & valid[1:, :-1] & valid[:-1, 1:] & valid[1:, 1:]
    sq_proper = okx[:, :-1] & okx[:, 1:] & oky[:-1, :] & oky[1:, :]
    for idx in np.argwhere(sq_valid & ~sq_proper)[:VIOLATION_CAP]:
        rep.add("non-proper-edge", _abs(tuple(int(i) for i in idx), window))
    circ = hx[:, :-1] + hy[1:, :] - hx[:, 1:] - hy[:-1, :]
    bad = sq_valid & sq_proper & (circ != 0)
    for idx in np.argwhere(bad)[:VIOLATION_CAP]:
        rep.add("circulation", _abs(tuple(int(i) for i in idx), window))
    checked = int((sq_valid & sq_proper).sum())
    rng = np.random.default_rng(rng_seed)
    done = 0
    for _ in range(rectangles * 20):
        if done >= rectangles or nx < 2 or ny < 2:
            break
        x0, x1 = sorted(rng.integers(0, nx, 2).tolist())
        y0, y1 = sorted(rng.integers(0, ny, 2).tolist())
        if x0 == x1 or y0 == y1:
            continue
        circuit = rectangle_circuit((x0, y0), (x1, y1))
        if not all(valid[p] for p in circuit):
            continue
        try:
            delta = height_delta(colors, circuit)
        except ValueError:
            continue
        done += 1
        checked += 1
        if delta != 0:
            rep.add("circulation-rect", ((x0, y0), (x1, y1)))
    rep.stats.setdefault("violations_total", 0)
    rep.stats["circuits_checked"] = checked
    rep.stats["rectangles_checked"] = done
    return rep


# ---------------------------------------------------------------------------
# correlation diagnostic


def rho_probes(r: int) -> list[tuple[tuple, tuple]]:
    """Fixed probe family: pairs of same-orientation edges with midpoint-sum
    separation >= 2r; both orientations, both sides, 8 anchor offsets."""
    probes = []
    for axis in (0, 1):
        e = (1, 0) if axis == 0 else (0, 1)
        for side in (1, -1):
            for extra in range(4):
                for perp in (0, 1):
                    dx = side * (r + extra)
                    anchor = (dx, perp) if axis == 0 else (perp, dx)
                    probes.append((e, anchor))
    return probes


def rho_estimate(colorfn, r: int, samples: int) -> float:
    """Empirical max covariance of height steps over the probe family.

    colorfn(seed) must return a proper-3-colored grid covering
    [-r-6, r+6]^2 relative to its center; the center is taken at
    shape // 2.  Probes whose edges hit non-proper cells are skipped.
    """
    if r < 1:
        raise ValueError("r >= 1")
    probes = rho_probes(r)
    obs = {i: ([], []) for i in range(len(probes))}
    for seed in range(samples):
        grid = np.asarray(colorfn(seed))
        cx, cy = grid.shape[0] // 2, grid.shape[1] // 2
        for i, (e, anchor) in enumerate(probes):
            try:
                h1 = height_step(grid[cx, cy], grid[cx + e[0], cy + e[1]])
                ax, ay = cx + anchor[0], cy + anchor[1]
                h2 = height_step(grid[ax, ay], grid[ax + e[0], ay + e[1]])
            except (ValueError, IndexError):
                continue
            obs[i][0].append(h1)
            obs[i][1].append(h2)
    best = 0.0
    for h1s, h2s in obs.values():
        if len(h1s) < 2:
            continue
        a, b = np.array(h1s, dtype=float), np.array(h2s, dtype=float)
        cov = float(np.mean(a * b) - np.mean(a) * np.mean(b))
        best = max(best, cov)
    return best


# ---------------------------------------------------------------------------
# collision-probability oracle


def min_collision_probability(r: int, q: int, base_size: int) -> Fraction:
    """Exact min over all f: B^r -> [q] of P[f(U_1..U_r) = f(U_2..U_{r+1})],
    U iid uniform on base_size atoms.  Full enumeration."""
    if r < 1 or q < 1 or base_size < 1:
        raise ValueError("r, q, base_size must be positive")
    n_inputs = base_size ** r
    n_funcs = q ** n_inputs
    if n_funcs > 10 ** 6:
        raise ValueError(f"enumeration of {n_funcs} functions is infeasible")
    # index of (x_2..x_r, b) given index of (x_1..x_r): drop the leading digit
    shift = [[(x % (base_size ** (r - 1))) * base_size + b
              for b in range(base_size)] for x in range(n_inputs)]
    best = None
    for fi in range(n_funcs):
        f = []
        t = fi
        for _ in range(n_inputs):
            f.append(t % q)
            t //= q
        hits = sum(1 for x in range(n_inputs) for b in range(base_size)
                   if f[x] == f[shift[x][b]])
        p = Fraction(hits, base_size ** (r + 1))
        if best is None or p < best:
            best = p
    return best


def min_collision_r1_partition(q: int, base_size: int) -> Fraction:
    """r=1 closed form: min over partitions of the atoms into <= q classes
    of sum (k/B)^2.  Independent check for the enumerator."""
    best = None
    for cuts in itertools.combinations_with_replacement(range(base_size + 1), q - 1):
        parts = []
        prev = 0
        for c in sorted(cuts):
            parts.append(c - prev)
            prev = c
        parts.append(base_size - prev)
        if any(p < 0 for p in parts):
            continue
        val = sum(Fraction(p, base_size) ** 2 for p in parts)
        if best is None or val < best:
            best = val
    return best


# ---------------------------------------------------------------------------
# radius tails


CENSORED = None  # marker for budget-exceeded queries


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
    from decimal import Decimal, getcontext

    getcontext().prec = 30
    s = format(Decimal(num) / Decimal(den), "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s or "0"


def radius_tail_csv(radii: list, cap: int) -> str:
    lines = ["r,count_gt,total,survival"]
    for r, gt, total, s in radius_tail_rows(radii, cap):
        lines.append(f"{r},{gt},{total},{s}")
    return "\n".join(lines) + "\n"


def survival_points(radii: list, cap: int) -> list[tuple[int, float]]:
    """(r, P(R > r)) pairs at integer radii, censoring-aware, for fits."""
    rows = radius_tail_rows(radii, cap)[:-1]  # drop the ">cap" row
    return [(int(r), gt / total) for r, gt, total, _ in rows if int(r) <= cap]
