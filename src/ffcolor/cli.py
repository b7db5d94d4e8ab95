"""Command-line surface: render colorings to images, audit outputs, tabulate
coding-radius tails, and classify or generate one-dimensional subshift runs.

`CONSTRUCTIONS` is the one place a construction is declared: `color` runs its
window engine and every audit its output must pass, `stats` its demand engine,
and both read their choices from it.  `color` writes its outputs, records each
audit's verdict in the manifest, and exits 1 if any audit failed.

Every command is a pure function of (seed, flags, package version): reruns are
byte-identical.  Exit codes: 0 ok, 1 audit failure, 2 config error, 3 budget
exhaustion, 4 refusal.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .field import Budget, BudgetExceeded, LabelField, Tracker, TrackedField, \
    tracked
from .fourcolor import audit_faces, audit_sign_clusters, baseline_percolation_4color, \
    baseline_window, four_color_window
from .lattice import LatticeSpec, Window, WindowGraph
from .perc3color import START_HALF, coding_radii, half_widths, radii_margin, \
    three_color_2d
from .reduction import tower_color_at, tower_coloring
from .sft import LatticeRefusal, choose_base, classify, generate, parse_spec, \
    recurrence_gcd, verify_membership
from .tiling3color import center_pad, scan_half, three_color_general, threegen_window
from .verify import check_coloring, check_heights, check_net, check_palette, \
    radius_tail_csv

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_REFUSAL = 4

# Fixed palette: color index -> RGB.  0 renders unresolved cells; 5 only
# appears in tower output (d = 2 needs degree + 1 = 5 colors).
PALETTE = {
    0: (20, 20, 20),
    1: (230, 57, 70),
    2: (69, 123, 157),
    3: (42, 157, 143),
    4: (233, 196, 106),
    5: (142, 202, 230),
}
_RGB = np.array([PALETTE[i] for i in range(6)], dtype=np.uint8)
# each palette pixel as one 24-bit key r << 16 | g << 8 | b, the keys sorted,
# and the color of each sorted key: `read_ppm` looks pixels up in them
_SORTED_KEYS, _KEY_COLOR = np.unique(
    _RGB.astype(np.int32) @ np.array([1 << 16, 1 << 8, 1], dtype=np.int32),
    return_index=True)

# A window, or the region an engine reads around it, larger than this could
# not be held in memory as one array, and coordinates beyond COORD_LIMIT would
# wrap in the int64 arrays of the window engines once margins are added.
MAX_WINDOW_SITES = 1 << 32
COORD_LIMIT = 1 << 62


class ConfigError(Exception):
    pass


# -- file formats --------------------------------------------------------------

def _make_parent(path) -> Path:
    """Make the parent directories of `path`; a parent that cannot be made is
    a config error."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(str(e))
    return path


def _write(path, data) -> None:
    """Write text or bytes to `path`, making its parent directories; a path
    that cannot be written is a config error."""
    path = _make_parent(path)
    try:
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
    except OSError as e:
        raise ConfigError(str(e))


def write_ppm(path, colors: np.ndarray) -> None:
    """Binary pixmap of a color grid; pixel (x, y) sits at row y, column x.

    A 1-d grid is written one row high; `cmd_verify` audits a one-row image
    as that 1-d grid, except for the three-coloring audit."""
    colors = np.asarray(colors)
    if colors.ndim == 1:
        colors = colors[:, None]
    if colors.ndim != 2:
        raise ConfigError("images need a 1d or 2d color grid")
    if colors.min() < 0 or colors.max() >= len(_RGB):
        raise ConfigError(f"color {int(colors.max())} has no palette entry")
    img = _RGB[colors.T]
    header = f"P6\n{colors.shape[0]} {colors.shape[1]}\n255\n".encode()
    _write(path, header + img.tobytes())


# whitespace and comments between header fields; the maxval is followed by
# exactly one whitespace byte, then the pixels
_PPM_GAP = rb"(?:\s|#[^\n]*\n)+"
_PPM_HEADER = re.compile(rb"P6" + _PPM_GAP + rb"(\d+)" + _PPM_GAP + rb"(\d+)"
                         + _PPM_GAP + rb"255\s")


def read_ppm(path) -> np.ndarray:
    """Invert the palette; raises ConfigError on any file that is not a
    palette image, foreign pixels included, so audits see real colors."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise ConfigError(str(e))
    header = _PPM_HEADER.match(raw)
    if header is None:
        raise ConfigError("expected a binary P6 pixmap with maxval 255")
    w, h = int(header[1]), int(header[2])
    if w == 0 or h == 0:
        raise ConfigError("pixmap has no pixels")
    img = np.frombuffer(raw[header.end():], dtype=np.uint8)
    if img.size != w * h * 3:
        raise ConfigError("pixmap payload has the wrong size")
    # one plane per channel, indexed [x, y]
    r, g, b = img.reshape(h, w, 3).transpose(2, 1, 0).astype(np.int32, order="C")
    key = (r << 16) | (g << 8) | b
    at = np.minimum(np.searchsorted(_SORTED_KEYS, key), len(_SORTED_KEYS) - 1)
    foreign = _SORTED_KEYS[at] != key
    if foreign.any():
        x, y = np.argwhere(foreign)[0]
        raise ConfigError(f"pixel ({x}, {y}) is not in the palette")
    return _KEY_COLOR[at]


def _write_json(path, payload: dict) -> None:
    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- color ----------------------------------------------------------------------

def _at_least(low, kind=int, strict: bool = False, high=None):
    """argparse type: a `kind` number >= low, or > low when strict, and
    <= high when high is given."""
    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind.__name__}")
        if not (x > low if strict else x >= low):
            raise argparse.ArgumentTypeError(
                f"{text} is not {'>' if strict else '>='} {low}")
        if high is not None and not x <= high:
            raise argparse.ArgumentTypeError(f"{text} is not <= {high}")
        return x
    return parse


_POSITIVE = _at_least(1)
_NONNEGATIVE = _at_least(0)
_UNIT_REAL = _at_least(0, float, strict=True, high=1)


def _parse_window(text: str, d: int) -> Window:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"window {text!r} is not a comma-separated integer list")
    if len(parts) != 2 * d:
        raise ConfigError(f"window needs {2 * d} integers for d={d} "
                          "(origin then extents)")
    try:
        window = Window(tuple(parts[:d]), tuple(parts[d:]))
    except ValueError as e:
        raise ConfigError(str(e))
    return _check_region(window, "window")


def _check_region(region: Window, name: str) -> Window:
    """`region`, if its coordinates lie within COORD_LIMIT and it has at most
    MAX_WINDOW_SITES sites; a config error otherwise."""
    if any(abs(o) >= COORD_LIMIT or abs(o + e) >= COORD_LIMIT
           for o, e in zip(region.origin, region.extent)):
        raise ConfigError(f"{name} coordinates must lie within +-{COORD_LIMIT}")
    if region.size > MAX_WINDOW_SITES:
        raise ConfigError(f"{name} has {region.size} sites; at most "
                          f"{MAX_WINDOW_SITES} are supported")
    return region


def _tower(args, field, window):
    wg = WindowGraph.build(window, 1, "l1")
    tw = tower_coloring(wg, field, kmax=args.kmax)
    consts = {"delta": tw.delta, "kmax": tw.kmax, "fallback_count": tw.fallback_count,
              "n_k": [tw.seq.n_k(k) for k in range(1, tw.kmax + 1)]}
    return (tw.colors.reshape(window.extent),
            (~tw.tainted & wg.interior).reshape(window.extent), None, consts, None)


def _four(args, field, window):
    fc = four_color_window(field, window)
    return fc.colors, fc.valid, None, {"M": fc.M, "C": fc.C, "Cprime": fc.Cprime}, fc


def _three2d(args, field, window):
    _check_region(window.grow(radii_margin(args.cap)),
                  f"the region read with --cap {args.cap}")
    radii, resolved, colors, _ = coding_radii(field, window, cap=args.cap)
    tails = [int(r) if ok else None for r, ok in zip(radii.ravel(), resolved.ravel())]
    return colors, resolved, tails, {"cap": args.cap, "start_half": START_HALF}, None


def _threegen(args, field, window):
    # the top level's center scan reads farthest; from level 17 on its pad
    # alone passes COORD_LIMIT, so the pad of a higher level is not computed
    _check_region(window.grow(args.margin + center_pad(min(args.maxlevel, 17))),
                  f"the region read with --margin {args.margin} "
                  f"--maxlevel {args.maxlevel}")
    consts = {k: vars(args)[k] for k in ("maxlevel", "density_scale", "margin")}
    colors, valid, forest = threegen_window(field, window, **consts)
    consts["levels"] = {str(j): len(p) for j, p in forest.levels.items()}
    return colors, valid, None, consts, forest


def _baseline4(args, field, window):
    _check_region(window.grow(args.margin), f"the region read with --margin {args.margin}")
    colors, valid = baseline_window(field, window, margin=args.margin)
    return colors, valid, None, {"margin": args.margin}, None


def _coloring_audits(q: Callable, every_cell: bool = False) -> dict:
    """Properness, and colors in 1..q(d) on the valid cells or on every cell."""
    return {"proper": lambda colors, valid, _: check_coloring(colors, valid=valid),
            "palette": lambda colors, valid, _: check_palette(
                colors, q(colors.ndim), None if every_cell else valid)}


_THREE_COLORING_AUDITS = {**_coloring_audits(lambda d: 3),
                          "heights": lambda colors, valid, _: check_heights(colors, valid)}


class Construction(NamedTuple):
    """`window(args, field, window)` -> (colors, valid, radii-or-None, constants,
    engine-or-None); `demand(args, field, v)` answers one site, censored past
    `args.cap`, or is None.  `audits` maps a name to `audit(colors, valid,
    engine)` -> AuditReport.  `window_value(answer)` is the color of a demand
    answer, or None where the window is not the factor the demand engine
    computes.  `demand_half(args)` is the half-width of the largest box one
    demand query reads within `args.cap`, or None where the cap does not
    bound its reads.  A query's coding radius is what its tracker records,
    never a value it returns.  Engines are looked up by name at call time, so
    tests can spy on them."""
    dims: tuple
    window: Callable
    demand: Callable | None
    audits: dict
    window_value: Callable | None
    demand_half: Callable | None = None

    def audits_at(self, d: int) -> dict:
        # the height check walks unit squares, which a line does not have
        return {name: a for name, a in self.audits.items() if d == 2 or name != "heights"}


CONSTRUCTIONS = {
    "tower": Construction((1, 2), _tower, lambda args, f, v: tower_color_at(
        f, v, LatticeSpec(args.d, 1, "l1")),  # answers (color, level)
        _coloring_audits(lambda d: 2 * d + 1), lambda answer: answer[0]),
    "four": Construction((2, 3), _four, None, {
        **_coloring_audits(lambda d: 4, every_cell=True),
        "faces": lambda colors, valid, fc: audit_faces(fc.boxes),
        "sign-clusters": lambda colors, valid, fc: audit_sign_clusters(fc.signs)}, None),
    "three2d": Construction((2,), _three2d, lambda args, f, v: three_color_2d(
        v, f, radius_cap=args.cap), _THREE_COLORING_AUDITS, lambda answer: answer,
        lambda args: max(half_widths(args.cap), default=0)),
    # a root-closed window is not the factor the query computes
    "threegen": Construction((1, 2), _threegen, lambda args, f, v: three_color_general(
        v, args.d, f, density_scale=args.density_scale, radius_cap=args.cap),
        {**_THREE_COLORING_AUDITS, "forest": lambda colors, valid, forest: forest.audit()},
        None, lambda args: scan_half(args.d, args.cap)),
    "baseline4": Construction(
        (2,), _baseline4, lambda args, f, v: baseline_percolation_4color(v, f),
        _coloring_audits(lambda d: 4), lambda answer: answer),
}


def _construction(args) -> Construction:
    entry = CONSTRUCTIONS[args.construction]
    if args.d not in entry.dims:
        raise ConfigError(f"{args.construction} runs on d in {entry.dims}, not d={args.d}")
    return entry


def cmd_color(args) -> int:
    entry = _construction(args)
    window = _parse_window(args.window, args.d)
    field = LabelField(args.seed)
    if args.radius_budget is not None:
        center = tuple(o + e // 2 for o, e in zip(window.origin, window.extent))
        field = TrackedField(field, Tracker(
            center, Budget(radius_cap=args.radius_budget)))
    prefix = Path(args.out)
    img_path, csv_path, json_path = (prefix.parent / (prefix.name + ext)
                                     for ext in (".ppm", ".radii.csv", ".json"))
    _make_parent(json_path)  # an unwritable --out fails before the engine runs
    manifest = {
        "version": __version__, "command": "color",
        "construction": args.construction, "d": args.d, "seed": args.seed,
        "window": {"origin": list(window.origin), "extent": list(window.extent)},
        "palette": {str(k): list(v) for k, v in PALETTE.items()},
    }
    try:
        colors, valid, radii, consts, engine = entry.window(args, field, window)
    except BudgetExceeded as e:
        manifest["budget_exceeded"] = {"kind": e.kind, "limit": e.limit,
                                       "stream": e.stream, "where": list(e.where)}
        _write_json(json_path, manifest)
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    reports = {name: audit(colors, valid, engine)
               for name, audit in entry.audits_at(args.d).items()}
    colors = np.where(valid, colors, 0)
    # a pixmap holds a line or a plane; a grid of more axes has the manifest only
    outputs = {"image": None, "radii": None}
    if colors.ndim <= 2:
        write_ppm(img_path, colors)
        outputs["image"] = img_path.name
    if radii is not None:
        _write(csv_path, radius_tail_csv(radii, args.cap))
        outputs["radii"] = csv_path.name
    counts = {str(c): int((colors == c).sum()) for c in np.unique(colors)}
    manifest.update({
        "constants": consts, "outputs": outputs,
        "valid_fraction": float(valid.mean()), "color_counts": counts,
        "audits": {name: {"passed": rep.passed, "violations_total": 0, **rep.stats}
                   for name, rep in reports.items()},
    })
    _write_json(json_path, manifest)
    print(f"wrote {img_path if outputs['image'] else json_path} "
          f"({valid.mean():.1%} of cells resolved)")
    failed = [name for name, rep in reports.items() if not rep.passed]
    if failed:
        print(f"audit failed: {', '.join(failed)}", file=sys.stderr)
    return EXIT_AUDIT if failed else EXIT_OK


# -- verify -----------------------------------------------------------------------

def cmd_verify(args) -> int:
    """Audit an image written by `color`.

    A one-row image is audited as the 1-d grid `write_ppm` made it from, so
    that covering balls of radius m fit inside it.  `three-coloring` stays
    2-d: its height check walks unit squares.  For a 2-d window one row high
    the 1-d reading changes no packing or properness verdict, since those
    compare pairs within the row.  With `--valid`, the mask image's color-0
    pixels are left out of the audit, as tainted or unresolved cells."""
    colors = read_ppm(args.image)
    valid = np.ones(colors.shape, dtype=bool)
    if args.valid is not None:
        mask = read_ppm(args.valid)
        if mask.shape != colors.shape:
            raise ConfigError(f"mask is {mask.shape[0]}x{mask.shape[1]} pixels, "
                              f"image {colors.shape[0]}x{colors.shape[1]}")
        valid = mask > 0
    if colors.shape[1] == 1 and args.kind != "three-coloring":
        colors, valid = colors[:, 0], valid[:, 0]
    if args.kind == "net":
        rep = check_net(colors > 0, m=args.m, norm=args.norm, valid=valid,
                        construction="net")
    else:
        valid = valid & (colors > 0)
        rep = check_coloring(colors, m=args.m, norm=args.norm, valid=valid,
                             construction=args.kind)
        if args.kind == "three-coloring":
            rep.merge(check_heights(colors, valid, construction="heights"))
            rep.merge(check_palette(colors, 3, valid))
    print(rep.summary())
    for kind, where in rep.violations[:10]:
        print(f"  {kind} at {where}")
    if args.json:
        _write_json(args.json, rep.to_json())
    return EXIT_OK if rep.passed else EXIT_AUDIT


# -- stats ------------------------------------------------------------------------

def _sample_vertices(seed: int, n: int, d: int, span: int = 1_000_000):
    rng = np.random.default_rng(seed)
    return [tuple(int(x) for x in row)
            for row in rng.integers(-span, span, size=(n, d))]


def cmd_stats(args) -> int:
    entry, field = _construction(args), LabelField(args.seed)
    if entry.demand_half is not None:
        # the limits `color` puts on the region it reads, not a memory bound
        h = entry.demand_half(args)
        _check_region(Window((-h,) * args.d, (2 * h + 1,) * args.d),
                      f"the region one query reads with --cap {args.cap}")
    radii, refused = [], Counter()
    for v in _sample_vertices(args.seed, args.samples, args.d):
        try:
            radii.append(tracked(lambda f: entry.demand(args, f, v), field, v,
                                 Budget(radius_cap=args.cap)).radius)
        except BudgetExceeded as e:
            radii.append(None)
            refused[f"{e.kind} budget {e.limit}"] += 1
    _write(args.out, radius_tail_csv(radii, args.cap))
    summary = f"{len(radii)} queries, {radii.count(None)} censored"
    if refused:
        summary += ": " + ", ".join(f"{n} by the {why}" for why, n in sorted(refused.items()))
    print(f"wrote {Path(args.out)} ({summary})")
    return EXIT_OK


# -- sft --------------------------------------------------------------------------

def _load_spec(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(str(e))
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text: {e}")
    try:
        return parse_spec(text)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}")


def cmd_sft(args) -> int:
    spec = _load_spec(args.specfile)
    if args.sft_command == "classify":
        kind = classify(spec)
        if kind == "non-lattice":
            w = choose_base(spec)
            g = recurrence_gcd(spec, w)
            wtxt = "(" + ",".join(str(a) for a in w) + ")"
            print(f"non-lattice, w={wtxt}, gcd={g}")
        else:
            print(kind)
        return EXIT_OK
    if args.length < spec.k:
        raise ConfigError(f"--length {args.length} is below the word length "
                          f"k={spec.k} of {args.specfile}")
    field = LabelField(args.seed)
    run = generate(spec, field, Window((0,), (args.length,)))
    bad = verify_membership(run.letters, spec)
    if bad:
        raise RuntimeError(f"generated run fails membership at {bad[:5]}")
    _write(args.out, " ".join(str(x) for x in run.letters) + "\n")
    wtxt = "(" + ",".join(str(a) for a in run.w) + ")"
    lo = run.window.origin[0]
    inside = int(((run.net_points >= lo) &
                  (run.net_points < lo + args.length)).sum())
    print(f"wrote {args.out} ({args.length} letters, w={wtxt}, m={run.m}, "
          f"{inside} net points)")
    return EXIT_OK


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ffcolor",
        description="finitary colorings of lattice windows, with audits")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("color", help="color a window; write image + manifest")
    c.add_argument("--construction", required=True, choices=sorted(CONSTRUCTIONS))
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--window", required=True,
                   help="origin then extents, comma-separated (half-open box); "
                        "write --window=-8,-8,16,16 when the origin is negative")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default="out/run", help="output path prefix")
    c.add_argument("--kmax", type=_POSITIVE, default=3,
                   help="tower levels asked for; the tower stops early where the "
                        "color sequence ends or a level's set family would pass "
                        "the bit cap, and the manifest records the kmax used")
    c.add_argument("--cap", type=_POSITIVE, default=512, help="radius cap (three2d)")
    c.add_argument("--maxlevel", type=_POSITIVE, default=2, help="tiling levels")
    c.add_argument("--density-scale", type=_UNIT_REAL, default=1 / 32,
                   help="tiling seed-density multiplier, in (0, 1]")
    c.add_argument("--margin", type=_NONNEGATIVE, default=64,
                   help="context margin (threegen, baseline4)")
    c.add_argument("--radius-budget", type=_NONNEGATIVE, default=None,
                   help="fail (exit 3) if any read leaves this 1-norm "
                        "radius around the window center")
    c.set_defaults(fn=cmd_color)

    v = sub.add_parser(
        "verify", help="audit an image produced by color",
        description="Audit an image produced by color.  A one-row image is "
                    "audited as a 1-d grid, except for --kind three-coloring, "
                    "whose height check needs unit squares.")
    v.add_argument("--image", required=True)
    v.add_argument("--kind", default="coloring",
                   choices=("coloring", "three-coloring", "net"))
    v.add_argument("--m", type=_POSITIVE, default=1)
    v.add_argument("--norm", default="l1", choices=("l1", "linf"))
    v.add_argument("--valid", default=None, metavar="MASK.ppm",
                   help="palette image of the same size; its color-0 pixels are "
                        "left out of the audit")
    v.add_argument("--json", default=None, help="also write the report as JSON")
    v.set_defaults(fn=cmd_verify)

    table = ("survival table of the tracked radii of the demand engine at independent "
             "sites in [-10^6, 10^6)^d; a query past --cap is censored")
    s = sub.add_parser("stats", help=table, description=table)
    s.add_argument("--construction", required=True,
                   choices=[n for n, c in CONSTRUCTIONS.items() if c.demand])
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=_POSITIVE, default=1000)
    s.add_argument("--cap", type=_POSITIVE, default=512)
    s.add_argument("--density-scale", type=_UNIT_REAL, default=1 / 32)
    s.add_argument("--out", default="out/radii.csv")
    s.set_defaults(fn=cmd_stats)

    f = sub.add_parser("sft", help="one-dimensional subshift tools")
    fsub = f.add_subparsers(dest="sft_command", required=True)
    fc = fsub.add_parser("classify", help="lattice / non-lattice / empty-interest")
    fc.add_argument("specfile")
    fc.set_defaults(fn=cmd_sft)
    fg = fsub.add_parser("generate", help="emit a sequence from the subshift")
    fg.add_argument("specfile")
    fg.add_argument("--length", type=_POSITIVE, required=True)
    fg.add_argument("--seed", type=int, default=0)
    fg.add_argument("--out", required=True)
    fg.set_defaults(fn=cmd_sft)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except LatticeRefusal as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_REFUSAL


if __name__ == "__main__":
    sys.exit(main())
