"""Command-line surface: render colorings to images, audit outputs, tabulate
coding-radius tails, and classify or generate one-dimensional subshift runs.

Every command is a pure function of (seed, flags, package version): reruns are
byte-identical.  Exit codes: 0 ok, 1 audit failure, 2 config error, 3 budget
exhaustion, 4 refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .field import Budget, BudgetExceeded, LabelField, Tracker, TrackedField, \
    tracked
from .fourcolor import baseline_percolation_4color, baseline_window, four_color_window
from .lattice import LatticeSpec, Window, WindowGraph
from .perc3color import coding_radii, three2d_window
from .reduction import tower_color_at, tower_coloring
from .sft import LatticeRefusal, choose_base, classify, generate, parse_spec, \
    recurrence_gcd, verify_membership
from .tiling3color import three_color_general, threegen_window
from .verify import check_coloring, check_heights, check_net, radius_tail_csv, \
    survival_points

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

COLOR_DIMS = {"tower": (1, 2), "four": (2,), "three2d": (2,),
              "threegen": (1, 2), "baseline4": (2,)}
STATS_CONSTRUCTIONS = ("tower", "three2d", "threegen", "baseline4")


class ConfigError(Exception):
    pass


# -- file formats --------------------------------------------------------------

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
    Path(path).write_bytes(header + img.tobytes())


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
    img = img.reshape(h, w, 3)
    colors = np.full((w, h), -1, dtype=np.int64)
    for c, rgb in PALETTE.items():
        colors[np.all(img.transpose(1, 0, 2) == rgb, axis=2)] = c
    if (colors < 0).any():
        x, y = np.argwhere(colors < 0)[0]
        raise ConfigError(f"pixel ({x}, {y}) is not in the palette")
    return colors


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- color ----------------------------------------------------------------------

def _at_least(low, kind=int, strict: bool = False):
    """argparse type: a `kind` number >= low, or > low when strict."""
    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind.__name__}")
        if not (x > low if strict else x >= low):
            raise argparse.ArgumentTypeError(
                f"{text} is not {'>' if strict else '>='} {low}")
        return x
    return parse


_POSITIVE = _at_least(1)
_NONNEGATIVE = _at_least(0)
_POSITIVE_REAL = _at_least(0, float, strict=True)


def _parse_window(text: str, d: int) -> Window:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"window {text!r} is not a comma-separated integer list")
    if len(parts) != 2 * d:
        raise ConfigError(f"window needs {2 * d} integers for d={d} "
                          "(origin then extents)")
    try:
        return Window(tuple(parts[:d]), tuple(parts[d:]))
    except ValueError as e:
        raise ConfigError(str(e))


def _run_color(args, field, window):
    """(colors, valid, radii-or-None, constants) for one construction."""
    name = args.construction
    if name == "tower":
        wg = WindowGraph.build(window, 1, "l1")
        tw = tower_coloring(wg, field, kmax=args.kmax)
        colors = tw.colors.reshape(window.extent)
        valid = (~tw.tainted & wg.interior).reshape(window.extent)
        consts = {"delta": tw.delta, "kmax": tw.kmax,
                  "n_k": [tw.seq.n_k(k) for k in range(1, tw.kmax + 1)],
                  "fallback_count": tw.fallback_count}
        return colors, valid, None, consts
    if name == "four":
        fc = four_color_window(field, window)
        return fc.colors, fc.valid, None, {"M": fc.M, "C": fc.C, "Cprime": fc.Cprime}
    if name == "three2d":
        radii, resolved, colors, _ = coding_radii(field, window, cap=args.cap)
        tails = [int(r) if ok else None
                 for r, ok in zip(radii.ravel(), resolved.ravel())]
        return colors, resolved, tails, {"cap": args.cap, "start_half": 4}
    if name == "threegen":
        colors, valid, forest = threegen_window(
            field, window, maxlevel=args.maxlevel,
            density_scale=args.density_scale, margin=args.margin)
        levels = {str(j): len(p) for j, p in forest.levels.items()}
        return colors, valid, None, {"maxlevel": args.maxlevel,
                                     "density_scale": args.density_scale,
                                     "margin": args.margin, "levels": levels}
    fc = baseline_window(field, window, margin=args.margin)
    return fc[0], fc[1], None, {"margin": args.margin}


def _check_dims(args) -> None:
    dims = COLOR_DIMS[args.construction]
    if args.d not in dims:
        raise ConfigError(f"{args.construction} runs on d in {dims}, not d={args.d}")


def cmd_color(args) -> int:
    _check_dims(args)
    window = _parse_window(args.window, args.d)
    field = LabelField(args.seed)
    if args.radius_budget is not None:
        center = tuple(o + e // 2 for o, e in zip(window.origin, window.extent))
        field = TrackedField(field, Tracker(
            center, Budget(radius_cap=args.radius_budget)))
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    img_path = prefix.parent / (prefix.name + ".ppm")
    csv_path = prefix.parent / (prefix.name + ".radii.csv")
    json_path = prefix.parent / (prefix.name + ".json")
    manifest = {
        "version": __version__, "command": "color",
        "construction": args.construction, "d": args.d, "seed": args.seed,
        "window": {"origin": list(window.origin), "extent": list(window.extent)},
        "palette": {str(k): list(v) for k, v in PALETTE.items()},
    }
    try:
        colors, valid, radii, consts = _run_color(args, field, window)
    except BudgetExceeded as e:
        manifest["budget_exceeded"] = {"kind": e.kind, "limit": e.limit,
                                       "stream": e.stream, "where": list(e.where)}
        _write_json(json_path, manifest)
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    colors = np.where(valid, colors, 0)
    write_ppm(img_path, colors)
    outputs = {"image": img_path.name, "radii": None}
    if radii is not None:
        csv_path.write_text(radius_tail_csv(radii, args.cap))
        outputs["radii"] = csv_path.name
    counts = {str(c): int((colors == c).sum()) for c in np.unique(colors)}
    manifest.update({
        "constants": consts, "outputs": outputs,
        "valid_fraction": float(valid.mean()), "color_counts": counts,
    })
    _write_json(json_path, manifest)
    print(f"wrote {img_path} ({valid.mean():.1%} of cells resolved)")
    return EXIT_OK


# -- verify -----------------------------------------------------------------------

def cmd_verify(args) -> int:
    """Audit an image written by `color`.

    A one-row image is audited as the 1-d grid `write_ppm` made it from, so
    that covering balls of radius m fit inside it.  `three-coloring` stays
    2-d: its height check walks unit squares.  For a 2-d window one row high
    the 1-d reading changes no packing or properness verdict, since those
    compare pairs within the row."""
    colors = read_ppm(args.image)
    if colors.shape[1] == 1 and args.kind != "three-coloring":
        colors = colors[:, 0]
    if args.kind == "net":
        rep = check_net(colors > 0, m=args.m, norm=args.norm,
                        construction="net")
    else:
        valid = colors > 0
        rep = check_coloring(colors, m=args.m, norm=args.norm, valid=valid,
                             construction=args.kind)
        if args.kind == "three-coloring":
            hrep = check_heights(colors, valid, construction="heights")
            for kind, where in hrep.violations:
                rep.add(kind, where)
            rep.stats["circuits_checked"] = hrep.stats["circuits_checked"]
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


def _stats_radii(args, field) -> list:
    name = args.construction
    if name == "three2d":
        side = math.isqrt(args.samples - 1) + 1
        radii, resolved, _, _ = coding_radii(
            field, Window((0, 0), (side, side)), cap=args.cap)
        return [int(r) if ok else None
                for r, ok in zip(radii.ravel(), resolved.ravel())][:args.samples]
    if name == "tower":
        spec = LatticeSpec(args.d, 1, "l1")
        query = lambda f, v: tower_color_at(f, v, spec)
    elif name == "baseline4":
        query = lambda f, v: baseline_percolation_4color(v, f)
    else:
        query = lambda f, v: three_color_general(
            v, args.d, f, density_scale=args.density_scale, radius_cap=args.cap)
    budget = Budget(radius_cap=args.cap)
    out = []
    for v in _sample_vertices(args.seed, args.samples, args.d):
        try:
            out.append(tracked(lambda f: query(f, v), field, v, budget).radius)
        except BudgetExceeded:
            out.append(None)
    return out


def cmd_stats(args) -> int:
    _check_dims(args)
    field = LabelField(args.seed)
    radii = _stats_radii(args, field)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(radius_tail_csv(radii, args.cap))
    if args.plot:
        lines = ["r,survival"]
        lines += [f"{r},{s}" for r, s in survival_points(radii, args.cap)]
        Path(args.plot).write_text("\n".join(lines) + "\n")
    censored = sum(1 for r in radii if r is None)
    print(f"wrote {out} ({len(radii)} queries, {censored} censored at "
          f"cap {args.cap})")
    return EXIT_OK


# -- sft --------------------------------------------------------------------------

def _load_spec(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(str(e))
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
    field = LabelField(args.seed)
    run = generate(spec, field, Window((0,), (args.length,)))
    bad = verify_membership(run.letters, spec)
    if bad:
        raise RuntimeError(f"generated run fails membership at {bad[:5]}")
    Path(args.out).write_text(" ".join(str(x) for x in run.letters) + "\n")
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
    c.add_argument("--construction", required=True, choices=sorted(COLOR_DIMS))
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--window", required=True,
                   help="origin then extents, comma-separated (half-open box); "
                        "write --window=-8,-8,16,16 when the origin is negative")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default="out/run", help="output path prefix")
    c.add_argument("--kmax", type=_POSITIVE, default=3, help="tower levels")
    c.add_argument("--cap", type=_POSITIVE, default=512, help="radius cap (three2d)")
    c.add_argument("--maxlevel", type=_POSITIVE, default=2, help="tiling levels")
    c.add_argument("--density-scale", type=_POSITIVE_REAL, default=1 / 32,
                   help="tiling seed-density multiplier")
    c.add_argument("--margin", type=_NONNEGATIVE, default=64,
                   help="context margin (threegen, baseline4)")
    c.add_argument("--radius-budget", type=int, default=None,
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
    v.add_argument("--m", type=int, default=1)
    v.add_argument("--norm", default="l1", choices=("l1", "linf"))
    v.add_argument("--json", default=None, help="also write the report as JSON")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("stats", help="coding-radius survival table")
    s.add_argument("--construction", required=True, choices=STATS_CONSTRUCTIONS)
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=_POSITIVE, default=1000)
    s.add_argument("--cap", type=_POSITIVE, default=512)
    s.add_argument("--density-scale", type=_POSITIVE_REAL, default=1 / 32)
    s.add_argument("--out", default="out/radii.csv")
    s.add_argument("--plot", default=None, help="also write (r, survival) pairs")
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
