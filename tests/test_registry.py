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

A finitary factor applies the same rule at every vertex, so the translation
gate checks that each engine commutes with shifts: on `ShiftedField(f, s)`,
which reads f at v + s, the window at o and each query at v answer as the
window at o + s and the query at v + s do on f.
"""

from operator import add

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ffcolor.cli import CONSTRUCTIONS, build_parser
from ffcolor.field import Budget, BudgetExceeded, LabelField, PerturbedField, \
    TrackedField, Tracker, is_spatial
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


class ShiftedField(LabelField):
    """`base` read at v + s on spatial streams; the `family:` and `fixture:`
    streams, whose coordinates are table indices, are read as they are.

    Only the four `u64` primitives are overridden, so every derived read
    shifts through them.  Coordinates past the first len(s) (a per-site
    index) are not shifted.
    """

    def __init__(self, base: LabelField, s: tuple):
        super().__init__(base.seed)
        self.base, self.s = base, tuple(s)

    def _at(self, stream, p):
        return tuple(map(add, p, self.s)) + tuple(p[len(self.s):]) if is_spatial(stream) else p

    def u64(self, stream, coords):
        return self.base.u64(stream, self._at(stream, tuple(map(int, coords))))

    def u64_points(self, stream, points):
        return self.base.u64_points(stream, [self._at(stream, p) for p in points])

    def u64_grid(self, stream, axes):
        if is_spatial(stream):
            axes = [np.add(a, c) for a, c in zip(axes, self.s)] + list(axes[len(self.s):])
        return self.base.u64_grid(stream, axes)

    def u64_below(self, stream, lo, hi, below, pad=0):
        if not is_spatial(stream):
            return self.base.u64_below(stream, lo, hi, below, pad)
        pts = self.base.u64_below(stream, np.add(lo, self.s), np.add(hi, self.s), below, pad)
        return pts - self.s


# `four` fills coverage gaps of its net from its window (ROADMAP direction 3),
# so its windows change under a shift; a strict expected failure fails the
# suite as soon as such a row passes
NOT_EQUIVARIANT = {("four", 2), ("four", 3)}
SHIFTS = st.integers(-2**61, 2**61)  # windows and read margins stay within +-2^62


def _translation_rows():
    for name, d in GATE:
        marks = [pytest.mark.xfail(strict=True, raises=AssertionError,
                                   reason="four's net is not the same rule at every vertex "
                                   "until ROADMAP direction 3 lands")] \
            if (name, d) in NOT_EQUIVARIANT else []
        yield pytest.param(name, d, marks=marks, id=f"{name}-{d}")


@pytest.mark.parametrize("name,d", _translation_rows())
def test_translation_gate(name, d):
    flags, most = GATE[name, d]
    args = build_parser().parse_args(["color", "--construction", name, "--d", str(d),
                                      "--window", "", *flags])
    entry = CONSTRUCTIONS[name]
    # an expected failure is not shrunk: its first failing example is enough
    phases = [p for p in Phase if p != Phase.shrink or (name, d) not in NOT_EQUIVARIANT]

    @given(seed=st.integers(0, 2**64 - 1), data=st.data())
    @settings(derandomize=True, database=None, max_examples=10, deadline=None, phases=phases)
    def check(seed, data):
        window = Window(data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * d)),
                        data.draw(st.tuples(*[st.integers(1, most)] * d)))
        s = data.draw(st.tuples(*[SHIFTS] * d))
        base = LabelField(seed)
        shifted = ShiftedField(base, s)
        colors, valid, radii = entry.window(args, shifted, window)[:3]
        want = entry.window(args, base, Window(tuple(map(add, window.origin, s)),
                                               window.extent))
        assert np.array_equal(valid, want[1])
        assert np.array_equal(colors[valid], want[0][valid])
        assert radii == want[2]
        if entry.demand is None:
            return
        sites = {window.origin}
        if entry.window_value:
            sites |= {tuple(map(int, np.add(i, window.origin))) for i in np.argwhere(valid)}
        for v in sorted(sites):
            answer, tr = _answer(entry.demand, args, shifted, v)
            moved, moved_tr = _answer(entry.demand, args, base, tuple(map(add, v, s)))
            assert (answer, tr.radius) == (moved, moved_tr.radius), v

    check()
