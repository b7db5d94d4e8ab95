"""End-to-end checks of the command-line surface: artifact formats, exit
codes, byte-stable reruns, and audit wiring."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor import cli
from ffcolor.cli import PALETTE, _sample_vertices, main, read_ppm, write_ppm
from ffcolor.field import Budget, LabelField, tracked
from ffcolor.lattice import LatticeSpec, Window
from ffcolor.reduction import MNet, tower_color_at
from ffcolor.tiling3color import three_color_general
from ffcolor.verify import radius_tail_csv


COL3 = "3 2\n1 2\n1 3\n2 1\n2 3\n3 1\n3 2\n"
COL2 = "2 2\n1 2\n2 1\n"


def run(*argv):
    return main([str(a) for a in argv])


# -- pixmap round trip ---------------------------------------------------------

def test_ppm_roundtrip():
    rng = np.random.default_rng(0)
    for shape in ((1, 1), (7, 3), (40, 25)):
        grid = rng.integers(0, 6, size=shape)
        p = Path("/tmp/ffcolor-test-rt.ppm")
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


def test_verify_net_flags_covering_gap(tmp_path):
    f = LabelField(6)
    nw = MNet(1, 2, "l1", f).window(Window((0,), (400,)), f)
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


# -- stats -----------------------------------------------------------------------

def test_stats_survival_is_nonincreasing_with_censor_marker(tmp_path):
    out = tmp_path / "b4.csv"
    assert run("stats", "--construction", "baseline4", "--samples", "300",
               "--cap", "64", "--seed", "3", "--out", out,
               "--plot", tmp_path / "pts.csv") == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,count_gt,total,survival"
    surv = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert all(a >= b for a, b in zip(surv, surv[1:]))
    assert lines[-1].startswith(">64,")
    pts = (tmp_path / "pts.csv").read_text().splitlines()
    assert pts[0] == "r,survival" and len(pts) > 3


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


def test_stats_tower_tabulates_tracked_coding_radius(tmp_path):
    out = tmp_path / "t.csv"
    assert run("stats", "--construction", "tower", "--d", "1",
               "--samples", "100", "--seed", "4", "--out", out) == 0
    spec, fld = LatticeSpec(1, 1, "l1"), LabelField(4)
    radii = [tracked(lambda f: tower_color_at(f, v, spec), fld, v,
                     Budget(radius_cap=512)).radius
             for v in _sample_vertices(4, 100, 1)]
    assert out.read_text() == radius_tail_csv(radii, 512)
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


def test_sft_missing_specfile_is_config_error(tmp_path):
    assert run("sft", "classify", tmp_path / "absent.txt") == 2


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
])
def test_bad_numeric_flag_exits_2(tmp_path, argv):
    spec = tmp_path / "c3.txt"
    spec.write_text(COL3)
    subs = {"SPEC": spec, "OUT": tmp_path / "out"}
    with pytest.raises(SystemExit) as e:
        run(*[subs.get(a, a) for a in argv])
    assert e.value.code == 2
    assert not any(tmp_path.glob("out*"))


def test_palette_is_injective():
    assert len({PALETTE[k] for k in PALETTE}) == len(PALETTE)
