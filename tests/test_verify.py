"""Audits and oracles: properness, nets, heights, collision probabilities.

The scalar height step, the height-step correlation diagnostic, the
collision-probability enumerators and the rectangle boundary walk that
`check_heights` is compared against live here, beside the only tests that
use them."""

import decimal
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor.field import LabelField
from ffcolor.lattice import Window, WindowGraph
from ffcolor.reduction import net_window, tower_coloring
from ffcolor.verify import (
    VIOLATION_CAP,
    check_coloring,
    check_heights,
    check_net,
    check_palette,
    radius_tail_csv,
    radius_tail_rows,
)


# ---------------------------------------------------------------------------
# properness audit


def test_constant_window_all_edges_violate():
    rep = check_coloring(np.full((4, 4), 7), m=1)
    assert not rep.passed
    assert rep.stats["violations_total"] == 2 * 4 * 3


def test_checkerboard_passes():
    x = (np.indices((6, 6)).sum(axis=0) % 2) + 1
    assert check_coloring(x, m=1).passed


def test_validity_mask_excludes_pairs():
    x = np.array([[1, 1]])
    valid = np.array([[True, False]])
    assert check_coloring(x, m=1, valid=valid).passed
    assert not check_coloring(x, m=1).passed


def test_zero_cells_are_unresolved_not_violations():
    x = np.array([[0, 0], [0, 5]])
    assert check_coloring(x, m=1).passed


def test_range_m_catches_distance_two():
    x = np.array([[1, 2, 1]])
    assert check_coloring(x, m=1).passed
    rep = check_coloring(x, m=2)
    assert rep.stats["violations_total"] == 1
    assert rep.violations[0][0] == "proper"


def test_reach_longer_than_the_grid():
    # offsets that leave the grid pair no cells
    rep = check_coloring(np.arange(1, 10).reshape(3, 3), m=4)
    assert rep.passed and rep.stats["pairs_checked"] == 36
    rep = check_net(np.eye(3, dtype=bool), m=4)
    assert rep.stats["violations_total"] == 3
    assert {k for k, _ in rep.violations} == {"packing"}


def test_tower_window_audit_end_to_end():
    wg = WindowGraph.build(Window((0, 0), (64, 64)), 1, "l1")
    tw = tower_coloring(wg, LabelField(3))
    grid = tw.colors.reshape(64, 64)
    assert check_coloring(grid, m=1).passed


@pytest.mark.parametrize("audit, total", [
    (check_coloring, 2 * 200 * 199),
    (lambda g: check_net(g.astype(bool)), 2 * 200 * 199),
    (lambda g: check_heights(g, rectangles=0), 199 * 199),
], ids=["coloring", "net-packing", "heights-non-proper"])
def test_totals_stay_exact_past_the_violation_cap(audit, total):
    # every edge of a constant grid violates, far more often than the cap
    rep = audit(np.ones((200, 200), dtype=int))
    assert rep.stats["violations_total"] == total
    assert len(rep.violations) == VIOLATION_CAP


def test_check_palette_over_valid_cells_or_every_cell():
    x = np.array([[1, 4, 0], [3, 5, 2]])
    valid = np.array([[True, True, False], [True, False, True]])
    rep = check_palette(x, 4, valid=valid)
    assert rep.passed and rep.stats["cells_checked"] == 4
    rep = check_palette(x, 4)
    assert rep.stats["violations_total"] == 2 and rep.stats["cells_checked"] == 6
    assert rep.violations == [("palette", (0, 2)), ("palette", (1, 1))]
    assert not check_palette(x, 3, valid=valid).passed


# ---------------------------------------------------------------------------
# net audit


def test_all_zeros_covering_violations():
    rep = check_net(np.zeros((7, 7), dtype=bool), m=1)
    assert rep.stats["violations_total"] == 25  # cells with full ball inside
    assert all(k == "covering" for k, _ in rep.violations)


def test_single_one_small_window_passes():
    j = np.zeros((3, 3), dtype=bool)
    j[1, 1] = True
    assert check_net(j, m=1).passed


def test_adjacent_ones_packing_violation():
    j = np.zeros((4, 4), dtype=bool)
    j[1, 1] = j[1, 2] = True
    rep = check_net(j, m=1)
    kinds = {k for k, _ in rep.violations}
    assert "packing" in kinds


def test_net_output_passes_audit():
    wg = WindowGraph.build(Window((0, 0), (48, 48)), 1, "l1")
    nw = net_window(wg, LabelField(6))
    grid = nw.indicator.reshape(48, 48)
    ok = (~nw.tainted).reshape(48, 48)
    assert check_net(grid, m=1, valid=ok).passed


# ---------------------------------------------------------------------------
# heights


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


def _walk_rectangles(colors, valid, rectangles, rng_seed):
    """The sampled rectangles of `check_heights`, drawn one at a time and
    walked around: (number checked, corners of those with nonzero
    circulation)."""
    nx, ny = colors.shape
    if valid is None:
        valid = np.ones(colors.shape, dtype=bool)
    valid = valid & (colors > 0)
    rng = np.random.default_rng(rng_seed)
    done, bad = 0, []
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
        if delta != 0:
            bad.append(((x0, y0), (x1, y1)))
    return done, bad


def test_height_step_values():
    assert height_step(1, 2) == 1
    assert height_step(2, 3) == 1
    assert height_step(3, 1) == 1
    assert height_step(2, 1) == -1
    assert height_step(1, 3) == -1
    with pytest.raises(ValueError):
        height_step(2, 2)


def test_height_delta_rejects_non_edges():
    x = np.array([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        height_delta(x, [(0, 0), (1, 1)])


def _periodic(nx, ny):
    return (np.add.outer(np.arange(nx), 2 * np.arange(ny)) % 3) + 1


def test_unit_square_circuit_zero():
    x = _periodic(4, 4)
    assert height_delta(x, rectangle_circuit((0, 0), (1, 1))) == 0


def test_check_heights_periodic_passes():
    rep = check_heights(_periodic(12, 12))
    assert rep.passed and rep.stats["circuits_checked"] > 120


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int8])
def test_check_heights_same_report_in_any_integer_dtype(dtype):
    # (x - y) % 3 + 1 is proper with zero circulation; a corrupted copy is not
    proper = np.subtract.outer(np.arange(6), np.arange(6)) % 3 + 1
    bad = _periodic(8, 8)
    bad[3, 3] = bad[3, 4]
    bad[5, 1] = 0
    for x in (proper, bad):
        want = check_heights(x.astype(np.int64)).to_json()
        assert check_heights(x.astype(dtype)).to_json() == want
    assert check_heights(proper.astype(dtype)).passed


@pytest.mark.parametrize("shape", [(12,), (4, 4, 4)])
def test_check_heights_refuses_a_grid_that_is_not_planar(shape):
    with pytest.raises(ValueError, match=f"planar grid.*dimension {len(shape)}"):
        check_heights(np.ones(shape, dtype=np.int64))


def test_check_heights_flags_corruption():
    x = _periodic(8, 8)
    x[3, 3] = x[3, 4]  # break properness
    rep = check_heights(x)
    assert not rep.passed
    assert any(k == "non-proper-edge" for k, _ in rep.violations)


def test_path_independence_exhaustive_monotone():
    # all monotone lattice paths between opposite corners of a 5x5 window
    x = _periodic(5, 5)
    deltas = set()
    for steps in set(permutations("RRRRUUUU")):
        path = [(0, 0)]
        for s in steps:
            px, py = path[-1]
            path.append((px + 1, py) if s == "R" else (px, py + 1))
        deltas.add(height_delta(x, path))
    assert len(deltas) == 1


def test_path_independence_random_walk_pairs():
    rng = np.random.default_rng(5)
    x = _periodic(16, 16)

    def wander(seed):
        r = np.random.default_rng(seed)
        path = [(8, 8)]
        while path[-1] != (12, 12):
            px, py = path[-1]
            moves = [(px + 1, py), (px - 1, py), (px, py + 1), (px, py - 1)]
            moves = [(a, b) for a, b in moves if 0 <= a < 16 and 0 <= b < 16]
            weights = [3 if (a > px or b > py) else 1 for a, b in moves]
            pick = r.choice(len(moves), p=np.array(weights) / sum(weights))
            path.append(moves[pick])
            if len(path) > 400:
                return None
        return path

    vals = set()
    for s in range(40):
        p = wander(s)
        if p is not None:
            vals.add(height_delta(x, p))
    assert len(vals) == 1


def test_heights_skip_unresolved_cells():
    x = _periodic(6, 6)
    valid = np.ones((6, 6), dtype=bool)
    x[2, 2] = 0
    valid[2, 2] = False
    rep = check_heights(x, valid=valid)
    assert rep.passed


# a ring of eight cells around an unresolved center whose height steps sum to
# 6: rectangles along tiled copies of it have proper boundaries and nonzero
# circulation
_VORTEX = np.array([[1, 2, 1], [2, 0, 3], [3, 1, 2]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 30),
       st.sampled_from(["periodic", "vortex", "random"]), st.sampled_from([0, 0.02, 0.2]),
       st.sampled_from([0, 0.02, 0.2]), st.sampled_from(["none", "sparse", "full", "one"]),
       st.sampled_from([0, 7, 100]))
def test_rectangles_match_boundary_walk(seed, nx, ny, base, zeros, improper, mask,
                                        rectangles):
    rng = np.random.default_rng(seed)
    if base == "periodic":
        a, b = rng.integers(1, 3, size=2)
        colors = (np.add.outer(a * np.arange(nx), b * np.arange(ny)) % 3) + 1
    elif base == "vortex":
        colors = np.tile(_VORTEX, (nx // 3 + 1, ny // 3 + 1))[:nx, :ny]
    else:
        colors = rng.integers(1, 4, size=(nx, ny))
    colors = np.where(rng.random((nx, ny)) < zeros, 0, colors)
    # copy a cell onto its successor along x: an improper edge
    at = np.argwhere(rng.random((nx - 1, ny)) < improper)
    colors[at[:, 0] + 1, at[:, 1]] = colors[at[:, 0], at[:, 1]]
    valid = {"none": None, "sparse": rng.random((nx, ny)) < 0.9,
             "full": np.ones((nx, ny), dtype=bool),
             "one": np.arange(nx * ny).reshape(nx, ny) != rng.integers(nx * ny)}[mask]
    rep = check_heights(colors, valid, rectangles=rectangles, rng_seed=seed)
    done, bad = _walk_rectangles(colors, valid, rectangles, seed)
    squares = check_heights(colors, valid, rectangles=0).stats["circuits_checked"]
    assert rep.stats["rectangles_checked"] == done
    assert rep.stats["circuits_checked"] == squares + done
    assert [w for k, w in rep.violations if k == "circulation-rect"] == bad
    assert rep.stats["violations_total"] == len(rep.violations)


# ---------------------------------------------------------------------------
# rho diagnostic


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


def test_rho_periodic_is_zero():
    def colorfn(seed):
        return _periodic(30, 30)

    assert rho_estimate(colorfn, r=3, samples=20) == 0.0


def test_rho_rejects_bad_r():
    with pytest.raises(ValueError):
        rho_estimate(lambda s: _periodic(10, 10), 0, 5)


# ---------------------------------------------------------------------------
# collision oracle


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
    for cuts in combinations_with_replacement(range(base_size + 1), q - 1):
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


def test_collision_base_cases():
    assert min_collision_probability(1, 2, 2) == Fraction(1, 2)
    assert min_collision_probability(1, 3, 3) == Fraction(1, 3)


def test_collision_r2_exact_and_bounded():
    v = min_collision_probability(2, 2, 2)
    assert v == Fraction(1, 2)  # frozen from the 16-function enumeration
    assert v >= Fraction(1, 256)


def test_collision_matches_partition_form():
    for q in (1, 2, 3):
        for b in (1, 2, 3, 4):
            assert (min_collision_probability(1, q, b)
                    == min_collision_r1_partition(q, b))


def test_collision_infeasible_guard():
    with pytest.raises(ValueError):
        min_collision_probability(3, 4, 4)  # 4^64 functions


# ---------------------------------------------------------------------------
# radius tails


def test_radius_tail_rows_and_censoring():
    rows = radius_tail_rows([3, 5, 5, None, 12, 3], cap=64)
    assert rows[0] == ("3", 4, 6, "0.666666666666666666666666666667")
    assert rows[-1][0] == ">64" and rows[-1][1] == 1
    surv = [float(r[3]) for r in rows]
    assert all(a >= b for a, b in zip(surv, surv[1:]))


def test_radius_tail_exact_terminating_decimals():
    rows = radius_tail_rows([1, 2, 2, 4], cap=8)
    assert [r[3] for r in rows] == ["0.75", "0.25", "0", "0"]


def test_radius_tail_csv_schema():
    csv = radius_tail_csv([2, 7], cap=16)
    lines = csv.strip().split("\n")
    assert lines[0] == "r,count_gt,total,survival"
    assert lines[-1].startswith(">16,")


def test_radius_tail_keeps_the_callers_decimal_precision():
    want = radius_tail_csv([3, 5, 5, None, 12, 3], cap=64)
    with decimal.localcontext() as ctx:
        ctx.prec = 7
        assert radius_tail_csv([3, 5, 5, None, 12, 3], cap=64) == want
        assert decimal.getcontext().prec == 7
