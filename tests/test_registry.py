"""One gate over every construction of the CLI registry.

Each entry runs with the flags `color` parses, on seeded small windows.  The
gate checks that the window output passes the entry's audits (for threegen,
also the audit of its tile forest that `color` records), that a tracked
window run replayed through `PerturbedField` (base labels where the tracker
saw a read, foreign labels elsewhere) gives the same output, and that each
tracked demand answer, censored ones included, replays the same way.

Where the demand engine computes the same factor as the window engine, the
two agree on every valid site.  Where the window also reports radii, a site
is valid exactly when its query resolves within the cap, at that radius.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor.cli import CONSTRUCTIONS, build_parser
from ffcolor.field import Budget, BudgetExceeded, LabelField, PerturbedField, \
    TrackedField, Tracker
from ffcolor.lattice import Window
from ffcolor.verify import check_coloring, check_heights


def proper(colors, valid):
    return check_coloring(colors, m=1, valid=valid).passed


def palette(q):
    """Colors of valid sites lie in 1..q(d)."""
    def in_palette(colors, valid):
        return np.isin(colors[valid], np.arange(1, q(colors.ndim) + 1)).all()
    return in_palette


def heights(colors, valid):
    # the height check walks unit squares, which a line does not have
    return colors.ndim == 1 or check_heights(colors, valid).passed


def complete(colors, valid):
    return valid.all()


AUDITS = {
    "tower": (proper, palette(lambda d: 2 * d + 1)),
    "four": (proper, palette(lambda d: 4), complete),
    "three2d": (proper, palette(lambda d: 3), heights),
    "threegen": (proper, palette(lambda d: 3), heights),
    "baseline4": (proper, palette(lambda d: 4)),
}

# A demand answer, mapped to what the window reports at that site: its color,
# and its radius where the window reports radii.  threegen has no row:
# `threegen_window` is root-closed, so it is not the factor its query computes.
WINDOW_VALUE = {
    "tower": lambda answer: answer[0],  # (color, level)
    "three2d": lambda answer: answer,  # (color, radius)
    "baseline4": lambda answer: answer,
}

# (name, d) -> (color flags beyond the defaults, largest extent per axis).
# three2d runs at cap 256, not 512, so that a censored query stays affordable;
# threegen's flags give its windows some covered sites.  At d = 3 four's scale
# M = 30,619 puts a small window inside one box, so that row checks the
# pipeline's run and replay more than its seams.
GATE = {
    ("tower", 1): ([], 48),
    ("tower", 2): ([], 20),
    ("four", 2): ([], 32),
    ("four", 3): ([], 4),
    ("three2d", 2): (["--cap", "256"], 40),
    ("threegen", 1): (["--density-scale", "0.125", "--margin", "16"], 400),
    ("threegen", 2): (["--maxlevel", "1", "--margin", "16"], 160),
    ("baseline4", 2): ([], 6),
}
UNLIMITED = Budget(radius_cap=10**9, access_cap=10**9)


def test_gate_covers_the_registry():
    assert set(AUDITS) == set(CONSTRUCTIONS)
    assert set(GATE) == {(n, d) for n, c in CONSTRUCTIONS.items() for d in c.dims}
    assert set(WINDOW_VALUE) | {"threegen"} == {n for n, c in CONSTRUCTIONS.items()
                                                if c.demand}


def _same(a, b) -> bool:
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b, strict=True))


def _answer(demand, args, field, v):
    """(answer, tracker) of one query capped as `stats` caps it; a censored
    query answers with the budget it ran past."""
    tr = Tracker(v, Budget(radius_cap=args.cap))
    try:
        return demand(args, TrackedField(field, tr), v), tr
    except BudgetExceeded as e:
        return ("censored", e.kind, e.stream), tr


@pytest.mark.parametrize("name,d", list(GATE), ids=[f"{n}-{d}" for n, d in GATE])
@given(seed=st.integers(0, 2**64 - 1), data=st.data())
@settings(derandomize=True, database=None, max_examples=6, deadline=None)
def test_registry_gate(name, d, seed, data):
    flags, most = GATE[name, d]
    window = Window(data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * d)),
                    data.draw(st.tuples(*[st.integers(1, most)] * d)))
    args = build_parser().parse_args(["color", "--construction", name, "--d", str(d),
                                      "--window", "", *flags])
    entry = CONSTRUCTIONS[name]
    base, alt = LabelField(seed), LabelField(seed ^ 0x5EED)

    center = tuple(o + e // 2 for o, e in zip(window.origin, window.extent))
    tr = Tracker(center, UNLIMITED)
    out = entry.window(args, TrackedField(base, tr), window)
    assert _same(entry.window(args, PerturbedField(base, tr, alt), window), out)
    colors, valid, radii, consts = out
    for audit in AUDITS[name]:
        assert audit(colors, valid), audit.__name__
    if name == "threegen":
        assert consts["forest_audit"] == {"passed": True, "violations_total": 0}

    if entry.demand is None:
        return
    # the origin is queried even where the window leaves it unresolved
    sites = {window.origin}
    if name in WINDOW_VALUE:
        sites |= {tuple(map(int, np.add(i, window.origin))) for i in np.argwhere(valid)}
    for v in sorted(sites):
        answer, tr = _answer(entry.demand, args, base, v)
        assert _answer(entry.demand, args, PerturbedField(base, tr, alt), v)[0] == answer
        if name not in WINDOW_VALUE:
            continue
        at = tuple(np.subtract(v, window.origin))
        if radii is not None:
            r = radii[np.ravel_multi_index(at, window.extent)]
            assert (r is None) == (answer[0] == "censored") == (not valid[at]), v
            assert r is None or r == tr.radius
        if valid[at]:
            expect = colors[at] if radii is None else (colors[at], r)
            assert WINDOW_VALUE[name](answer) == expect, v
