"""One gate over every construction of the CLI registry.

Each entry runs with the flags `color` parses, on seeded small windows.  The
gate checks that the window output passes every audit its registry entry
declares at that d, that a tracked window run replayed through
`PerturbedField` (base labels where the tracker saw a read, foreign labels
elsewhere) gives the same output, and that each tracked demand answer,
censored ones included, replays the same way.

Where an entry has a `window_value`, the demand and window engines compute the
same factor and agree on every valid site.  Where the window also reports
radii, a site is valid exactly when its query resolves within the cap, and its
radius is the query's tracked radius.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor.cli import CONSTRUCTIONS, build_parser
from ffcolor.field import Budget, BudgetExceeded, LabelField, PerturbedField, \
    TrackedField, Tracker
from ffcolor.lattice import Window

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
    assert set(GATE) == {(n, d) for n, c in CONSTRUCTIONS.items() for d in c.dims}
    assert all(c.demand for c in CONSTRUCTIONS.values() if c.window_value)


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
    assert _same(entry.window(args, PerturbedField(base, tr, alt), window)[:4], out[:4])
    colors, valid, radii, _, engine = out
    for audit_name, audit in entry.audits_at(d).items():
        assert audit(colors, valid, engine).passed, audit_name

    if entry.demand is None:
        return
    # the origin is queried even where the window leaves it unresolved
    sites = {window.origin}
    if entry.window_value:
        sites |= {tuple(map(int, np.add(i, window.origin))) for i in np.argwhere(valid)}
    for v in sorted(sites):
        answer, tr = _answer(entry.demand, args, base, v)
        assert _answer(entry.demand, args, PerturbedField(base, tr, alt), v)[0] == answer
        if not entry.window_value:
            continue
        at = tuple(np.subtract(v, window.origin))
        if radii is not None:
            r = radii[np.ravel_multi_index(at, window.extent)]
            censored = isinstance(answer, tuple) and answer[0] == "censored"
            assert (r is None) == censored == (not valid[at]), v
            assert r is None or r == tr.radius
        if valid[at]:
            assert entry.window_value(answer) == colors[at], v
