"""End-to-end checks of the command-line surface: artifact formats, exit
codes, byte-stable reruns, and audit wiring."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor import cli
from ffcolor.cli import PALETTE, _sample_vertices, main, read_ppm, write_ppm
from ffcolor.field import Budget, BudgetExceeded, LabelField, tracked
from ffcolor.fourcolor import baseline_percolation_4color
from ffcolor.lattice import LatticeSpec, Window
from ffcolor.perc3color import three_color_2d
from ffcolor.reduction import MNet, tower_color_at
from ffcolor.tiling3color import three_color_general
from ffcolor.verify import VIOLATION_CAP, check_heights, radius_tail_csv


COL3 = "3 2\n1 2\n1 3\n2 1\n2 3\n3 1\n3 2\n"
COL2 = "2 2\n1 2\n2 1\n"


def run(*argv):
    return main([str(a) for a in argv])


# -- pixmap round trip ---------------------------------------------------------

def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in ((1, 1), (7, 3), (40, 25)):
        grid = rng.integers(0, 6, size=shape)
        p = tmp_path / "rt.ppm"
        write_ppm(p, grid)
        assert np.array_equal(read_ppm(p), grid)


def test_ppm_rejects_foreign_pixels(tmp_path):
    p = tmp_path / "x.ppm"
    write_ppm(p, np.ones((4, 4), dtype=int))
    raw = bytearray(p.read_bytes())
    raw[-3:] = b"\x01\x02\x03"
    p.write_bytes(bytes(raw))
    from ffcolor.cli import ConfigError
    with pytest.raises(ConfigError):
        read_ppm(p)


@pytest.mark.parametrize("bad", [(0, 0, 0), (255, 255, 255), (20, 20, 21), (230, 58, 70)])
def test_ppm_names_the_first_foreign_pixel_in_xy_order(tmp_path, bad):
    # keys below, above and next to palette keys; pixel (x, y) sits at row
    # y, so the file's byte order would meet (2, 1) before (1, 3)
    from ffcolor.cli import ConfigError
    p = tmp_path / "x.ppm"
    write_ppm(p, np.full((4, 5), 3))
    raw = bytearray(p.read_bytes())
    for x, y in ((2, 1), (1, 3)):
        at = len(raw) - 3 * 4 * 5 + 3 * (4 * y + x)
        raw[at:at + 3] = bytes(bad)
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match=r"^pixel \(1, 3\) is not in the palette$"):
        read_ppm(p)


@pytest.mark.parametrize("raw", [b"P6\n# x", b"P6\nx 2\n255\n", b"P6\n3 ", b"P6 3 2",
                                 b"P6\n0 2\n255\n", b"", b"P5\n1 1\n255\n\0"])
def test_malformed_ppm_is_config_error(tmp_path, raw):
    p = tmp_path / "bad.ppm"
    p.write_bytes(raw)
    from ffcolor.cli import ConfigError
    with pytest.raises(ConfigError):
        read_ppm(p)
    assert run("verify", "--image", p) == 2


def test_verify_missing_image_exits_2(tmp_path):
    assert run("verify", "--image", tmp_path / "absent.ppm") == 2


@pytest.fixture(scope="module")
def valid_ppm(tmp_path_factory):
    """(scratch directory, bytes of a 6x5 proper 5-coloring image)."""
    root = tmp_path_factory.mktemp("ppm")
    x, y = np.indices((6, 5))
    write_ppm(root / "valid.ppm", (x + 2 * y) % 5 + 1)
    return root, (root / "valid.ppm").read_bytes()


# a cut after some byte, or one to three bytes XORed with nonzero masks;
# positions are taken modulo the file length
DAMAGE = st.one_of(
    st.integers(0, 10**6).map(lambda n: ("cut", n)),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
             min_size=1, max_size=3).map(lambda flips: ("flip", flips)))


@given(DAMAGE, st.sampled_from(["coloring", "three-coloring", "net"]))
@settings(max_examples=150, deadline=None)
def test_verify_never_raises_on_damaged_ppm(valid_ppm, damage, kind):
    root, raw = valid_ppm
    how, arg = damage
    if how == "cut":
        raw = raw[:arg % len(raw)]
    else:
        raw = bytearray(raw)
        for i, mask in arg:
            raw[i % len(raw)] ^= mask
    p = root / "damaged.ppm"
    p.write_bytes(bytes(raw))
    assert run("verify", "--image", p, "--kind", kind) in (0, 1, 2)


def test_ppm_1d_is_one_row_high(tmp_path):
    p = tmp_path / "line.ppm"
    write_ppm(p, np.array([1, 2, 3]))
    head = p.read_bytes().split(b"\n")[:2]
    assert head == [b"P6", b"3 1"]


# -- color ---------------------------------------------------------------------

def test_baseline4_image_has_exactly_four_pixel_values(tmp_path):
    out = tmp_path / "base"
    assert run("color", "--construction", "baseline4", "--d", "2",
               "--window", "0,0,256,256", "--seed", "7", "--out", out) == 0
    colors = read_ppm(tmp_path / "base.ppm")
    assert sorted(np.unique(colors)) == [1, 2, 3, 4]
    man = json.loads((tmp_path / "base.json").read_text())
    assert man["seed"] == 7 and man["construction"] == "baseline4"
    assert man["version"] and man["valid_fraction"] == 1.0


def test_same_command_twice_is_byte_identical(tmp_path):
    args = ("color", "--construction", "three2d", "--d", "2",
            "--window", "0,0,96,96", "--seed", "3", "--cap", "256")
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub / "run"
        assert run(*args, "--out", out) == 0
        blobs.append(tuple((out.parent / n).read_bytes() for n in
                           ("run.ppm", "run.json", "run.radii.csv")))
    assert blobs[0] == blobs[1]


def test_three2d_refuses_d3():
    assert run("color", "--construction", "three2d", "--d", "3",
               "--window", "0,0,0,8,8,8", "--seed", "1",
               "--out", "/tmp/ffcolor-test-no") == 2


def test_bad_window_string_is_config_error(tmp_path):
    assert run("color", "--construction", "baseline4", "--d", "2",
               "--window", "0,0,banana,8", "--out", tmp_path / "x") == 2
    assert run("color", "--construction", "baseline4", "--d", "2",
               "--window", "0,0,8", "--out", tmp_path / "x") == 2


@pytest.mark.parametrize("construction,window", [
    ("tower", "0,0,99999999999,99999999999"),
    ("threegen", "0,0,99999999999,99999999999"),
    ("baseline4", "0,0,65536,65537"),
    ("tower", "99999999999999999999,0,8,8"),
    ("four", "0,-4611686018427387904,8,8"),
])
def test_oversized_window_is_config_error(tmp_path, capsys, construction, window):
    # refused while parsing, before any array is allocated
    assert run("color", "--construction", construction, "--d", "2",
               f"--window={window}", "--out", tmp_path / "x") == 2
    assert "config error: window" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name,d", [(n, d) for n, c in cli.CONSTRUCTIONS.items()
                                    for d in c.dims])
def test_manifest_lists_the_declared_audits(tmp_path, name, d):
    # windows wide enough that threegen's default flags leave tiles to audit
    extent = {1: 2000, 2: 96, 3: 12}[d]
    window = ",".join(["0"] * d + [str(extent)] * d)
    assert run("color", "--construction", name, "--d", d, f"--window={window}",
               "--out", tmp_path / "run") == 0
    man = json.loads((tmp_path / "run.json").read_text())
    assert man["valid_fraction"] > 0
    # each audit's verdict and counters, as the audit reports them
    entry = cli.CONSTRUCTIONS[name]
    args = cli.build_parser().parse_args(
        ["color", "--construction", name, "--d", str(d), f"--window={window}"])
    colors, valid, _, _, engine = entry.window(args, LabelField(args.seed),
                                               cli._parse_window(window, d))
    reports = {a: audit(colors, valid, engine) for a, audit in entry.audits_at(d).items()}
    assert all(rep.passed and rep.stats for rep in reports.values())
    assert man["audits"] == json.loads(json.dumps(
        {a: {"passed": True, **rep.stats} for a, rep in reports.items()}))
    assert "forest_audit" not in man["constants"]


def test_manifest_records_an_audit_that_checked_nothing(tmp_path):
    # threegen's default density leaves no tile on this line: its audits pass
    # on 0 checked cells, and the manifest says so
    assert run("color", "--construction", "threegen", "--d", "1", "--window", "0,400",
               "--out", tmp_path / "run") == 0
    audits = json.loads((tmp_path / "run.json").read_text())["audits"]
    assert all(a["passed"] for a in audits.values())
    assert audits["palette"]["cells_checked"] == 0
    assert audits["proper"]["cells_valid"] == audits["proper"]["pairs_checked"] == 0
    assert audits["forest"]["tiles"] == 0


def test_color_exits_1_when_an_audit_fails(tmp_path, monkeypatch, capsys):
    def one_color(args, field, window):
        shape = window.extent
        return np.ones(shape, dtype=int), np.ones(shape, dtype=bool), None, {}, None
    entry = cli.CONSTRUCTIONS["tower"]
    monkeypatch.setitem(cli.CONSTRUCTIONS, "tower", entry._replace(window=one_color))
    assert run("color", "--construction", "tower", "--window", "0,0,8,8",
               "--out", tmp_path / "bad") == 1
    audits = json.loads((tmp_path / "bad.json").read_text())["audits"]
    assert audits["proper"] == {"passed": False, "violations_total": 2 * 7 * 8,
                                "pairs_checked": 2 * 7 * 8, "cells_valid": 64}
    assert audits["palette"]["passed"]
    assert np.array_equal(read_ppm(tmp_path / "bad.ppm"), np.ones((8, 8)))
    assert "audit failed: proper" in capsys.readouterr().err


def test_density_scale_one_is_accepted(tmp_path):
    assert run("color", "--construction", "threegen", "--d", "1",
               "--window", "0,8", "--density-scale", "1", "--maxlevel", "1",
               "--margin", "0", "--out", tmp_path / "x") == 0


def test_python_dash_m_runs_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-m", "ffcolor", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "usage: ffcolor" in out.stdout


def test_unknown_construction_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        run("color", "--construction", "pentagon", "--window", "0,0,8,8")
    assert e.value.code == 2


def test_radius_budget_exit_and_flagged_manifest(tmp_path):
    out = tmp_path / "bud"
    assert run("color", "--construction", "four", "--d", "2",
               "--window", "0,0,64,64", "--seed", "5", "--out", out,
               "--radius-budget", "1000") == 3
    man = json.loads((tmp_path / "bud.json").read_text())
    assert man["budget_exceeded"]["kind"] == "radius"
    assert man["budget_exceeded"]["limit"] == 1000
    assert not (tmp_path / "bud.ppm").exists()


@pytest.mark.parametrize("name,d", [(n, d) for n, c in cli.CONSTRUCTIONS.items()
                                    for d in c.dims])
def test_color_then_verify_round_trip(tmp_path, name, d):
    window = ",".join(["0"] * d + ["12"] * d)
    assert run("color", "--construction", name, "--d", d, f"--window={window}",
               "--out", tmp_path / "run") == 0
    if d > 2:
        # a pixmap holds at most a plane: a cube gets its manifest only
        man = json.loads((tmp_path / "run.json").read_text())
        assert man["outputs"]["image"] is None and man["valid_fraction"] == 1.0
        assert not (tmp_path / "run.ppm").exists()
        return
    kind = "three-coloring" if "heights" in cli.CONSTRUCTIONS[name].audits_at(d) \
        else "coloring"
    assert run("verify", "--image", tmp_path / "run.ppm", "--kind", kind) == 0


def test_tower_d2_manifest_carries_color_counts(tmp_path):
    out = tmp_path / "tw"
    assert run("color", "--construction", "tower", "--d", "2",
               "--window", "0,0,64,64", "--seed", "2", "--out", out) == 0
    man = json.loads((tmp_path / "tw.json").read_text())
    ks = man["constants"]["n_k"]
    assert len(ks) == 3 and ks[0] > man["constants"]["delta"] ** 2
    counts = {int(k): v for k, v in man["color_counts"].items()}
    assert sum(counts.values()) == 64 * 64
    assert max(counts) <= 5


# -- verify ----------------------------------------------------------------------

def test_verify_passes_on_pipeline_output_and_fails_on_corruption(tmp_path):
    out = tmp_path / "f4"
    assert run("color", "--construction", "four", "--d", "2",
               "--window", "0,0,96,96", "--seed", "5", "--out", out) == 0
    img = tmp_path / "f4.ppm"
    assert run("verify", "--image", img, "--json", tmp_path / "rep.json") == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["passed"] and rep["violations_total"] == 0

    colors = read_ppm(img)
    x, y = 40, 40
    colors[x, y] = colors[x + 1, y]
    bad = tmp_path / "bad.ppm"
    write_ppm(bad, colors)
    assert run("verify", "--image", bad, "--json", tmp_path / "bad.json") == 1
    rep = json.loads((tmp_path / "bad.json").read_text())
    assert rep["violations_total"] >= 1
    hits = {tuple(v["at"][0]) for v in rep["violations_sample"]}
    assert (x, y) in hits or (x + 1, y) in hits


def test_verify_three_coloring_checks_heights(tmp_path):
    out = tmp_path / "tg"
    assert run("color", "--construction", "threegen", "--d", "2",
               "--window", "0,0,300,300", "--seed", "3", "--maxlevel", "2",
               "--margin", "128", "--out", out) == 0
    assert run("verify", "--image", tmp_path / "tg.ppm",
               "--kind", "three-coloring", "--json", tmp_path / "rep.json") == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["stats"]["circuits_checked"] > 0


def test_verify_three_coloring_total_passes_the_violation_cap(tmp_path):
    # the height report alone passes the cap, and its whole total still counts
    colors = np.ones((120, 120), dtype=int)
    write_ppm(tmp_path / "flat.ppm", colors)
    assert run("verify", "--image", tmp_path / "flat.ppm", "--kind", "three-coloring",
               "--json", tmp_path / "rep.json") == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    heights = check_heights(colors).stats["violations_total"]
    assert heights > VIOLATION_CAP
    assert rep["violations_total"] == 2 * 120 * 119 + heights == 42_721


@pytest.mark.parametrize("kind,bad", [("four-coloring", 36), ("a-five", 1)])
def test_verify_three_coloring_checks_the_palette(tmp_path, kind, bad):
    # heights are read mod 3, so colors 4 and 5 pass every other check
    x, y = np.indices((12, 12))
    if kind == "four-coloring":
        colors = x % 2 + 2 * (y % 2) + 1
    else:
        colors = (x + y) % 2 + 1
        colors[5, 6] = 5  # for a 2, as 5 is 2 mod 3
    write_ppm(tmp_path / "c.ppm", colors)
    assert run("verify", "--image", tmp_path / "c.ppm", "--kind", "three-coloring",
               "--json", tmp_path / "rep.json") == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["violations_total"] == bad
    assert {v["kind"] for v in rep["violations_sample"]} == {"palette"}
    assert rep["stats"]["cells_checked"] == 144
    if kind == "a-five":
        assert rep["violations_sample"][0]["at"] == [5, 6]


def test_verify_three_coloring_reports_every_height_counter(tmp_path):
    x, y = np.indices((40, 30))
    colors = (x + y) % 3 + 1
    write_ppm(tmp_path / "diag.ppm", colors)
    assert run("verify", "--image", tmp_path / "diag.ppm", "--kind", "three-coloring",
               "--json", tmp_path / "rep.json") == 0
    stats = json.loads((tmp_path / "rep.json").read_text())["stats"]
    heights = check_heights(colors).stats
    assert heights["rectangles_checked"] == 100
    for key, value in heights.items():
        assert stats[key] == value, key


def test_verify_net_flags_covering_gap(tmp_path):
    f = LabelField(6)
    nw = MNet(1, 2, "l1").window(Window((0,), (400,)), f)
    # The image must be a window of the net, so take the longest contiguous
    # untainted run; closing up the tainted gaps would join distant points.
    edges = np.flatnonzero(np.diff(np.r_[0, ~nw.tainted, 0].astype(np.int8)))
    starts, stops = edges[::2], edges[1::2]
    i = int(np.argmax(stops - starts))
    grid = np.where(nw.indicator, 1, 0)[starts[i]:stops[i]]
    good = tmp_path / "net.ppm"
    write_ppm(good, grid)
    assert run("verify", "--image", good, "--kind", "net", "--m", "2",
               "--json", tmp_path / "net.json") == 0
    rep = json.loads((tmp_path / "net.json").read_text())
    assert rep["violations_total"] == 0 and rep["stats"]["checkable_cells"] > 0
    pts = np.flatnonzero(grid)
    grid[pts[len(pts) // 2]] = 0
    bad = tmp_path / "gap.ppm"
    write_ppm(bad, grid)
    assert run("verify", "--image", bad, "--kind", "net", "--m", "2",
               "--json", tmp_path / "gap.json") == 1
    rep = json.loads((tmp_path / "gap.json").read_text())
    kinds = [v["kind"] for v in rep["violations_sample"]]
    assert len(kinds) == rep["violations_total"] > 0
    assert set(kinds) == {"covering"}


def test_verify_valid_mask_leaves_tainted_cells_out(tmp_path):
    f = LabelField(6)
    nw = MNet(1, 2, "l1").window(Window((0,), (400,)), f)
    # the whole window, its tainted sites written as 0: their net points are
    # missing, so the cells beside them fail covering unless the mask drops them
    img, mask = tmp_path / "net.ppm", tmp_path / "mask.ppm"
    write_ppm(img, np.where(nw.indicator & ~nw.tainted, 1, 0))
    write_ppm(mask, np.where(nw.tainted, 0, 1))
    assert run("verify", "--image", img, "--kind", "net", "--m", "2",
               "--json", tmp_path / "bare.json") == 1
    rep = json.loads((tmp_path / "bare.json").read_text())
    assert {v["kind"] for v in rep["violations_sample"]} == {"covering"}
    assert sorted(v["at"][0] for v in rep["violations_sample"]) == \
        [2, 3, 394, 395, 396, 397]
    assert run("verify", "--image", img, "--kind", "net", "--m", "2",
               "--valid", mask, "--json", tmp_path / "masked.json") == 0
    rep = json.loads((tmp_path / "masked.json").read_text())
    assert rep["stats"]["checkable_cells"] > 300
    # a coloring audit reads the same mask
    assert run("verify", "--image", img, "--m", "2", "--valid", mask) == 0


def test_verify_mask_of_another_size_exits_2(tmp_path):
    img, mask = tmp_path / "img.ppm", tmp_path / "mask.ppm"
    write_ppm(img, np.indices((8, 6)).sum(axis=0) % 2 + 1)
    write_ppm(mask, np.ones((6, 8), dtype=int))
    assert run("verify", "--image", img, "--valid", mask) == 2
    assert run("verify", "--image", img, "--valid", tmp_path / "absent.ppm") == 2
    write_ppm(mask, np.ones((8, 6), dtype=int))
    assert run("verify", "--image", img, "--valid", mask) == 0


# -- stats -----------------------------------------------------------------------

B4_STATS = ("stats", "--construction", "baseline4", "--samples", "300",
            "--cap", "64", "--seed", "3", "--out")


def test_stats_survival_is_nonincreasing_with_censor_marker(tmp_path, capsys):
    out = tmp_path / "b4.csv"
    assert run(*B4_STATS, out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,count_gt,total,survival"
    surv = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert all(a >= b for a, b in zip(surv, surv[1:]))
    assert lines[-1].startswith(">64,1,")
    assert capsys.readouterr().out == (
        f"wrote {out} (300 queries, 1 censored: 1 by the radius budget 64)\n")


def test_stats_names_each_refusal_kind(tmp_path, monkeypatch, capsys):
    # 3 queries of this sample read more than 900 labels, and 1 passes the cap
    out = tmp_path / "b4.csv"
    monkeypatch.setattr(cli, "Budget", lambda radius_cap: Budget(radius_cap=radius_cap,
                                                                 access_cap=900))
    assert run(*B4_STATS, out) == 0
    assert capsys.readouterr().out == (
        f"wrote {out} (300 queries, 4 censored: 3 by the access budget 900, "
        "1 by the radius budget 64)\n")
    # the table still counts every refusal above the cap
    assert out.read_text().splitlines()[-1].startswith(">64,4,300,")


def test_stats_threegen_is_fully_censored_at_desk_caps(tmp_path):
    out = tmp_path / "tg.csv"
    assert run("stats", "--construction", "threegen", "--samples", "3",
               "--cap", "256", "--seed", "1", "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[-1] == ">256,3,3,1"


def test_stats_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run("stats", "--construction", "tower", "--d", "1",
                   "--samples", "100", "--seed", "4", "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name,d,seed,samples,cap,query", [
    pytest.param("tower", 1, 4, 100, 512,
                 lambda f, v: tower_color_at(f, v, LatticeSpec(1, 1, "l1")), id="tower"),
    pytest.param("baseline4", 2, 4, 100, 64,
                 lambda f, v: baseline_percolation_4color(v, f), id="baseline4"),
    pytest.param("three2d", 2, 3, 20, 64,
                 lambda f, v: three_color_2d(v, f, radius_cap=64), id="three2d"),
    pytest.param("threegen", 2, 1, 3, 256, lambda f, v: three_color_general(
        v, 2, f, density_scale=1 / 32, radius_cap=256), id="threegen"),
])
def test_stats_tabulates_tracked_coding_radius(tmp_path, name, d, seed, samples, cap,
                                               query):
    # the table is the demand engine's tracked radius at each sampled site
    out = tmp_path / "t.csv"
    assert run("stats", "--construction", name, "--d", d, "--samples", samples,
               "--cap", cap, "--seed", seed, "--out", out) == 0
    fld, radii = LabelField(seed), []
    for v in _sample_vertices(seed, samples, d):
        try:
            radii.append(tracked(lambda f: query(f, v), fld, v,
                                 Budget(radius_cap=cap)).radius)
        except BudgetExceeded:
            radii.append(None)
    assert out.read_text() == radius_tail_csv(radii, cap)
    if name == "tower":
        assert max(radii) > 3  # above every resolving level, so not a level


def test_stats_checks_dims_and_runs_threegen_in_1d(tmp_path, monkeypatch):
    out = tmp_path / "s.csv"
    for name, d in (("baseline4", 3), ("three2d", 1)):
        assert run("stats", "--construction", name, "--d", d, "--samples", "3",
                   "--out", out) == 2
    seen = []

    def spy(v, d, field, **kw):
        seen.append((len(v), d))
        return three_color_general(v, d, field, **kw)

    monkeypatch.setattr(cli, "three_color_general", spy)
    assert run("stats", "--construction", "threegen", "--d", "1", "--samples", "3",
               "--cap", "256", "--seed", "1", "--out", out) == 0
    assert seen == [(1, 1)] * 3


@pytest.mark.parametrize("name,engine,widest", [
    ("three2d", "three_color_2d", 65_535),  # windows of 32,769^2 sites
    ("threegen", "three_color_general", 299_921),  # scans of 23,097^2 sites
])
def test_stats_refuses_a_cap_whose_widest_read_color_refuses(tmp_path, monkeypatch,
                                                            capsys, name, engine, widest):
    # the spy stands in for every query, so no cap here reads a label
    calls = []
    monkeypatch.setattr(cli, engine, lambda *a, **kw: calls.append(a) or 1)
    out = tmp_path / "s.csv"
    for cap in (10_000_000_000_000, widest + 1):
        capsys.readouterr()
        assert run("stats", "--construction", name, "--samples", "2", "--cap", cap,
                   "--out", out) == 2
        assert capsys.readouterr().err.startswith("config error: ")
    assert calls == [] and not out.exists()
    assert run("stats", "--construction", name, "--samples", "2", "--cap", widest,
               "--out", out) == 0
    assert len(calls) == 2


def test_stats_threegen_passes_cap_to_query(tmp_path, monkeypatch):
    # the query's own radius cap must be --cap, not the default budget's 4096
    caps = []

    def spy(v, d, field, **kw):
        caps.append(kw.get("radius_cap"))
        return three_color_general(v, d, field, **kw)

    monkeypatch.setattr(cli, "three_color_general", spy)
    assert run("stats", "--construction", "threegen", "--d", "1", "--samples", "2",
               "--cap", "300", "--seed", "1", "--out", tmp_path / "s.csv") == 0
    assert caps == [300, 300]

# -- output paths ----------------------------------------------------------------

WRITERS = ["color", "verify --json", "stats --out", "sft generate --out"]


def _writing_to(name, tmp_path, out):
    """The argv of a command that writes to `out`, and the file it writes."""
    spec = tmp_path / "c3.txt"
    spec.write_text(COL3)
    board = tmp_path / "board.ppm"
    write_ppm(board, np.indices((6, 6)).sum(axis=0) % 2 + 1)
    stats = ("stats", "--construction", "baseline4", "--samples", "2")
    return {
        "color": (("color", "--construction", "tower", "--window", "0,0,8,8", "--out", out),
                  out.parent / (out.name + ".ppm")),
        "verify --json": (("verify", "--image", board, "--json", out), out),
        "stats --out": (stats + ("--out", out), out),
        "sft generate --out": (("sft", "generate", spec, "--length", "20", "--out", out), out),
    }[name]


@pytest.mark.parametrize("name", WRITERS)
def test_output_parent_directories_are_made(tmp_path, name):
    argv, written = _writing_to(name, tmp_path, tmp_path / "new" / "deeper" / "out")
    assert run(*argv) == 0
    assert written.is_file()


@pytest.mark.parametrize("name", WRITERS)
def test_unwritable_output_path_is_config_error(tmp_path, capsys, name):
    argv, written = _writing_to(name, tmp_path, tmp_path / "out")
    written.mkdir()  # a directory where the file goes
    assert run(*argv) == 2
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv, _ = _writing_to(name, tmp_path, blocker / "out")  # a parent that is a file
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: ") for line in err)


@pytest.mark.parametrize("name", sorted(cli.CONSTRUCTIONS))
def test_unwritable_out_fails_before_the_window_engine(tmp_path, monkeypatch, capsys,
                                                       name):
    def spy(*args):
        raise AssertionError("the window engine ran")

    monkeypatch.setitem(cli.CONSTRUCTIONS, name,
                        cli.CONSTRUCTIONS[name]._replace(window=spy))
    blocker = tmp_path / "afile"
    blocker.write_text("")
    d = cli.CONSTRUCTIONS[name].dims[-1]
    assert run("color", "--construction", name, "--d", d,
               "--window", ",".join(["0"] * d + ["8"] * d), "--out", blocker / "x") == 2
    assert capsys.readouterr().err.startswith("config error: ")


# (construction, engine the CLI calls, flags): each read region passes
# MAX_WINDOW_SITES or COORD_LIMIT; the engines are spies, so nothing is read
HUGE_READS = [
    ("three2d", "coding_radii", ["--cap", "10000000000000"]),
    ("baseline4", "baseline_window", ["--margin", "10000000000000"]),
    ("threegen", "threegen_window", ["--maxlevel", "5"]),
    ("threegen", "threegen_window", ["--maxlevel", "1000000000"]),
    ("threegen", "threegen_window", ["--margin", str(2**62)]),
]


@pytest.mark.parametrize("name, engine, flags", HUGE_READS)
def test_huge_read_region_is_config_error(tmp_path, monkeypatch, capsys, name, engine,
                                          flags):
    calls = []
    monkeypatch.setattr(cli, engine, lambda *a, **k: calls.append(a))
    assert run("color", "--construction", name, "--window", "0,0,96,96", *flags,
               "--out", tmp_path / "x") == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("config error: the region read with ")


def test_read_region_at_the_site_cap_is_accepted(tmp_path, monkeypatch):
    # three2d at --cap 60 reads the window grown by 32 on each side
    monkeypatch.setattr(cli, "MAX_WINDOW_SITES", (4 + 64) ** 2)
    assert run("color", "--construction", "three2d", "--window", "0,0,4,4",
               "--cap", "60", "--out", tmp_path / "x") == 0
    assert run("color", "--construction", "three2d", "--window", "0,0,4,4",
               "--cap", "62", "--out", tmp_path / "y") == 2


# -- sft -------------------------------------------------------------------------

def test_sft_classify_text(tmp_path, capsys):
    s3 = tmp_path / "c3.txt"
    s3.write_text(COL3)
    assert run("sft", "classify", s3) == 0
    assert capsys.readouterr().out.strip() == "non-lattice, w=(1,2), gcd=1"
    s2 = tmp_path / "c2.txt"
    s2.write_text(COL2)
    assert run("sft", "classify", s2) == 0
    assert capsys.readouterr().out.strip() == "lattice"


def test_sft_generate_writes_members_and_refuses_lattice(tmp_path):
    s3 = tmp_path / "c3.txt"
    s3.write_text(COL3)
    out = tmp_path / "run.txt"
    assert run("sft", "generate", s3, "--length", "5000", "--seed", "9",
               "--out", out) == 0
    letters = [int(x) for x in out.read_text().split()]
    assert len(letters) == 5000
    assert all(a != b for a, b in zip(letters, letters[1:]))

    again = tmp_path / "run2.txt"
    assert run("sft", "generate", s3, "--length", "5000", "--seed", "9",
               "--out", again) == 0
    assert out.read_bytes() == again.read_bytes()

    s2 = tmp_path / "c2.txt"
    s2.write_text(COL2)
    assert run("sft", "generate", s2, "--length", "10", "--seed", "1",
               "--out", tmp_path / "no.txt") == 4
    assert not (tmp_path / "no.txt").exists()


def test_sft_generate_shorter_than_a_word_is_config_error(tmp_path, capsys):
    spec = tmp_path / "c3.txt"
    spec.write_text(COL3)
    out = tmp_path / "run.txt"
    assert run("sft", "generate", spec, "--length", "1", "--out", out) == 2
    assert "word length k=2" in capsys.readouterr().err
    assert not out.exists()
    assert run("sft", "generate", spec, "--length", "2", "--out", out) == 0
    assert len(out.read_text().split()) == 2


def test_sft_missing_specfile_is_config_error(tmp_path):
    assert run("sft", "classify", tmp_path / "absent.txt") == 2


def test_non_utf8_specfile_is_config_error(tmp_path, capsys):
    spec = tmp_path / "bad.txt"
    spec.write_bytes(b"\xff\xfe\n")
    assert run("sft", "classify", spec) == 2
    assert run("sft", "generate", spec, "--length", "10", "--out", tmp_path / "o") == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(argv) -> int:
    """main's return value, or argparse's exit code."""
    try:
        return run(*argv)
    except SystemExit as e:
        return e.code


@st.composite
def _spec_text(draw) -> bytes:
    """A head line and words of mostly the head's length, letters near 1..q."""
    q, k = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    word = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    words = draw(st.lists(word | st.lists(st.integers(-1, 4), max_size=4), max_size=9))
    lines = [f"{q} {k}"] + [" ".join(map(str, w)) for w in words]
    return "\n".join(lines).encode()


SPEC_BYTES = st.one_of(st.binary(max_size=48), _spec_text())


@given(SPEC_BYTES, st.sampled_from(["classify", "generate"]))
@settings(max_examples=150, deadline=None)
def test_sft_never_raises_on_random_spec_bytes(fuzz_dir, raw, command):
    spec = fuzz_dir / "spec.txt"
    spec.write_bytes(raw)
    argv = ["sft", command, spec]
    if command == "generate":
        argv += ["--length", "40", "--out", fuzz_dir / "letters.txt"]
    assert _exit_code(argv) in (0, 2, 4)


_WILD = st.one_of(st.integers(-2**65, 2**65),
                  st.sampled_from([2**62 - 5, 2**62, -2**62 + 1, 2**63,
                                   "", " ", "x", "1.5", "+3", "1_0", "0x10"]))


def _window_text(d: int):
    """Free text, 2d small integers, or about 2d of them with wild entries."""
    def splice(args):
        parts, wild = args
        for i, v in wild:
            parts[i % len(parts)] = v
        return ",".join(map(str, parts))
    exact = st.lists(st.integers(-2, 8), min_size=2 * d, max_size=2 * d)
    near = st.lists(st.integers(-2, 8), min_size=2 * d - 1, max_size=2 * d + 1)
    wild = st.lists(st.tuples(st.integers(0, 2 * d), _WILD), min_size=1, max_size=2)
    return st.one_of(st.text(alphabet="0123456789,-+ x_.", max_size=24),
                     exact.map(lambda parts: ",".join(map(str, parts))),
                     st.tuples(near, wild).map(splice))


WINDOW_ARGS = st.sampled_from([("tower", 1), ("tower", 2), ("baseline4", 2)]).flatmap(
    lambda c: st.tuples(st.just(c), _window_text(c[1])))


@given(WINDOW_ARGS)
@settings(max_examples=150, deadline=None)
def test_color_never_raises_on_random_window_strings(fuzz_dir, args):
    # a window the parser accepts is colored in full; the site cap is
    # lowered here only so that such a window stays small, yet leaves room
    # for the region baseline4 reads with --margin 8
    (name, d), text = args
    with mock.patch.object(cli, "MAX_WINDOW_SITES", 1024):
        code = _exit_code(["color", "--construction", name, "--d", d,
                           f"--window={text}", "--margin", "8",
                           "--out", fuzz_dir / "run"])
    assert code in (0, 2, 4)


@pytest.mark.parametrize("argv", [
    ["sft", "generate", "SPEC", "--length", "0", "--out", "OUT"],
    ["stats", "--construction", "tower", "--cap", "0", "--out", "OUT"],
    ["stats", "--construction", "tower", "--samples", "0", "--out", "OUT"],
    ["stats", "--construction", "threegen", "--density-scale", "0", "--out", "OUT"],
    ["color", "--construction", "tower", "--window", "0,0,4,4", "--kmax", "-1",
     "--out", "OUT"],
    ["color", "--construction", "threegen", "--window", "0,0,4,4", "--margin", "-3",
     "--out", "OUT"],
    ["color", "--construction", "threegen", "--window", "0,0,4,4", "--maxlevel", "0",
     "--out", "OUT"],
    ["color", "--construction", "three2d", "--window", "0,0,4,4", "--cap", "x",
     "--out", "OUT"],
    ["stats", "--construction", "threegen", "--density-scale", "1.5", "--out", "OUT"],
    ["stats", "--construction", "threegen", "--density-scale", "nan", "--out", "OUT"],
    ["color", "--construction", "threegen", "--window", "0,0,8,8",
     "--density-scale", "inf", "--out", "OUT"],
    ["color", "--construction", "threegen", "--window", "0,0,8,8",
     "--density-scale", "1e6", "--out", "OUT"],
    ["verify", "--image", "IMG", "--m", "0"],
    ["verify", "--image", "IMG", "--m", "-1"],
    ["color", "--construction", "tower", "--window", "0,0,4,4",
     "--radius-budget", "-1", "--out", "OUT"],
])
def test_bad_numeric_flag_exits_2(tmp_path, argv):
    spec = tmp_path / "c3.txt"
    spec.write_text(COL3)
    img = tmp_path / "img.ppm"
    write_ppm(img, np.array([[1, 2], [2, 1]]))
    subs = {"SPEC": spec, "IMG": img, "OUT": tmp_path / "out"}
    with pytest.raises(SystemExit) as e:
        run(*[subs.get(a, a) for a in argv])
    assert e.value.code == 2
    assert not any(tmp_path.glob("out*"))


def test_palette_is_injective():
    assert len({PALETTE[k] for k in PALETTE}) == len(PALETTE)
