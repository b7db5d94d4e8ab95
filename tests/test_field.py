import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor.field import (
    Budget,
    BudgetExceeded,
    LabelField,
    MASK64,
    PerturbedField,
    Tracker,
    TrackedField,
    _BLOCK,
    mix64,
    stream_key,
    tracked,
)

coords2 = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


def test_mix64_known_values():
    # pinned outputs so the hash can never silently change
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(0xDEADBEEF) == 5622224078331092714
    assert mix64((1 << 64) - 1) == 13029008266876403067


def test_stream_key_is_fnv1a():
    # FNV-1a of empty string is the offset basis
    assert stream_key("") == 0xCBF29CE484222325
    assert stream_key("a") == (((0xCBF29CE484222325 ^ 0x61) * 0x100000001B3) & ((1 << 64) - 1))


@given(coords2, st.integers(0, 2**64 - 1))
@settings(max_examples=200)
def test_scalar_vector_agree_u64(c, seed):
    f = LabelField(seed)
    xs = np.array([c[0]])
    ys = np.array([c[1]])
    assert f.u64_grid("u", [xs, ys])[0] == f.u64("u", c)


@given(coords2)
def test_scalar_vector_agree_uniform_coin_discrete(c):
    f = LabelField(7)
    xs = np.array([c[0]])
    ys = np.array([c[1]])
    assert f.uniform_grid("u", [xs, ys])[0] == f.uniform("u", c)
    assert f.coin_grid("b", [xs, ys])[0] == f.coin("b", c)
    for n in (1, 2, 3, 17, 479):
        assert f.discrete_grid("z", [xs, ys], n)[0] == f.discrete("z", c, n)


def test_uniform_range_and_moments():
    f = LabelField(123)
    ax = np.arange(200)
    u = f.uniform_grid("u", [ax[:, None], ax[None, :]])
    assert np.all((u >= 0.0) & (u < 1.0))
    # 40k samples: mean within 5 sigma of 1/2, variance near 1/12
    assert abs(u.mean() - 0.5) < 5 * (1 / 12) ** 0.5 / 200
    assert abs(u.var() - 1 / 12) < 0.01


def test_coin_is_fair_enough():
    f = LabelField(5)
    ax = np.arange(300)
    b = f.coin_grid("b", [ax[:, None], ax[None, :]]).astype(np.float64)
    assert abs(b.mean()) < 5 / 300  # 5 sigma for 90000 fair coins


def test_discrete_bounds_and_distribution():
    f = LabelField(99)
    ax = np.arange(100)
    z = f.discrete_grid("z", [ax[:, None], ax[None, :]], 7)
    assert z.min() >= 1 and z.max() <= 7
    counts = np.bincount(z.ravel(), minlength=8)[1:]
    assert np.all(counts > 10000 / 7 * 0.8)


def test_streams_decorrelated():
    f = LabelField(1)
    ax = np.arange(1000)
    a = f.uniform_grid("u", [ax])
    b = f.uniform_grid("v", [ax])
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_seed_changes_field():
    a = LabelField(1).u64("u", (0, 0))
    b = LabelField(2).u64("u", (0, 0))
    assert a != b


def test_tracker_radius_is_l1_reach():
    t = Tracker(origin=(10, 10))
    t.record("u", (10, 10))
    assert t.radius == 0
    t.record("u", (12, 7))
    assert t.radius == 5
    t.record_box("u", (8, 8), (11, 11))
    assert t.radius == max(5, 2 + 2)


def test_nonspatial_streams_skip_radius():
    t = Tracker(origin=(0, 0))
    t.record("family:d4/l1", (100000, 3), spatial=False)
    assert t.radius == 0
    assert t.access_count == 1


def test_radius_budget_raises():
    t = Tracker(origin=(0, 0), budget=Budget(radius_cap=3))
    with pytest.raises(BudgetExceeded):
        t.record("u", (4, 0))


def test_access_budget_raises():
    t = Tracker(origin=(0, 0), budget=Budget(access_cap=10))
    with pytest.raises(BudgetExceeded):
        t.record_box("u", (0, 0), (3, 3))  # 16 > 10


def test_tracked_field_records_and_matches_base():
    base = LabelField(42)

    def probe(fld):
        return (fld.uniform("u", (3, -2)), fld.coin("b", (0, 0)))

    ev = tracked(probe, base, origin=(0, 0))
    assert ev.value == (base.uniform("u", (3, -2)), base.coin("b", (0, 0)))
    assert ev.radius == 5
    assert ev.tracker.inside("u", [(3, 3), (-2, -1)]).tolist() == [True, False]


def test_perturbed_field_base_inside_alt_outside():
    base, alt = LabelField(1), LabelField(2)
    t = Tracker(origin=(0, 0))
    t.record("u", (0, 0))
    t.record_box("u", (5, 5), (6, 6))
    p = PerturbedField(base, t, alt)
    assert p.uniform("u", (0, 0)) == base.uniform("u", (0, 0))
    assert p.uniform("u", (5, 6)) == base.uniform("u", (5, 6))
    assert p.uniform("u", (1, 0)) == alt.uniform("u", (1, 0))
    xs = np.array([0, 1, 5])
    ys = np.array([0, 0, 5])
    got = p.uniform_grid("u", [xs, ys])
    assert got[0] == base.uniform("u", (0, 0))
    assert got[1] == alt.uniform("u", (1, 0))
    assert got[2] == base.uniform("u", (5, 5))
    # every read kind, scalar and bulk, picks base or alt at its u64
    xs, ys = np.meshgrid(np.arange(-1, 8), np.arange(-1, 8), indexing="ij")
    inside = ((xs == 0) & (ys == 0)) | ((xs >= 5) & (xs <= 6) & (ys >= 5) & (ys <= 6))
    for kind, extra in (("u64", ()), ("uniform", ()), ("coin", ()), ("discrete", (7,))):
        b = getattr(base, f"{kind}_grid")("u", [xs, ys], *extra)
        a = getattr(alt, f"{kind}_grid")("u", [xs, ys], *extra)
        want = np.where(inside, b, a)
        assert np.any(want != b) and np.any(want != a)  # both picks show
        for bulk in ("grid", "box"):
            got = getattr(p, f"{kind}_{bulk}")("u", [xs, ys], *extra)
            assert got.dtype == want.dtype and np.array_equal(got, want), (kind, bulk)
        scalar = [getattr(p, kind)("u", (int(x), int(y)), *extra)
                  for x, y in zip(xs.ravel(), ys.ravel())]
        assert scalar == want.ravel().tolist(), kind


def test_replay_through_perturbation_reproduces_value():
    base, alt = LabelField(3), LabelField(999)

    def fn(fld):
        s = 0.0
        for x in range(-2, 3):
            s += fld.uniform("u", (x, 0))
        return s

    ev = tracked(fn, base, origin=(0, 0))
    replay = fn(PerturbedField(base, ev.tracker, alt))
    assert replay == ev.value


# -- cached stream state ----------------------------------------------------------

# u64 values read from the field before its stream state was cached
PINNED_U64 = {
    (0, "coin", (0, 0)): 0x60EDE40F51331402,
    (0, "tower:u", (3, -5)): 0x6DE348916679E449,
    (0, "family:d4/l1", (12, 2)): 0x44CBB58B3474F741,
    (0, "u", (-1,)): 0x52EDF04F6C62C1E5,
    (7, "coin", (0, 0)): 0x1F88A21E0596ADAB,
    (7, "tower:u", (3, -5)): 0x11955C21C9702A1F,
    (7, "baseline:sign", (10**6, -10**6)): 0x44F7FC0D0C83CDCC,
    (2**64 - 1, "coin", (0, 0)): 0x53C2619DD2E5790,
    (2**64 - 1, "family:d4/l1", (12, 2)): 0x6A7698F996613722,
    (2**64 - 1, "u", (-1,)): 0x12B723B31C6943EA,
}
CACHE_SEEDS = (0, 7, 2**64 - 1, 12345)


def _reference_u64(seed: int, stream: str, coords) -> int:
    h = mix64(seed ^ stream_key(stream))
    for c in coords:
        h = mix64(h ^ (c & MASK64))
    return h


_stream = st.one_of(st.sampled_from(["coin", "tower:u", "family:d4/l1", "u", "tower:prio"]),
                    st.text(alphabet="ab:/1", max_size=4))
_coord = st.one_of(st.integers(-10**6, 10**6), st.integers(-2**63, 2**63 - 1))
_read = st.tuples(st.integers(0, len(CACHE_SEEDS) - 1), _stream,
                  st.lists(_coord, min_size=1, max_size=3).map(tuple),
                  st.sampled_from(["u64", "uniform", "coin", "discrete"]),
                  st.integers(1, 1000))


@given(st.lists(_read, min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_cached_stream_state_keeps_every_scalar_read(reads):
    # several fields read the same streams in alternation, plain and tracked
    fields = [LabelField(s) for s in CACHE_SEEDS]
    budget = Budget(radius_cap=2**70)
    tracked_fields = [TrackedField(f, Tracker((0, 0, 0), budget)) for f in fields]
    for i, stream, c, kind, n in reads:
        f, tf = fields[i], tracked_fields[i]
        axes = [np.array([x]) for x in c]
        h = _reference_u64(CACHE_SEEDS[i], stream, c)
        assert f.u64_grid(stream, axes)[0] == h
        extra = (n,) if kind == "discrete" else ()
        want = getattr(f, f"{kind}_grid")(stream, axes, *extra)[0]
        before = tf.tracker.access_count
        assert getattr(f, kind)(stream, c, *extra) == want
        assert getattr(tf, kind)(stream, c, *extra) == want
        assert tf.tracker.access_count == before + 1 and \
            tf.tracker.inside(stream, axes).tolist() == [True]
    for (seed, stream, c), h in PINNED_U64.items():
        i = CACHE_SEEDS.index(seed)
        assert fields[i].u64(stream, c) == h
        assert tracked_fields[i].u64(stream, c) == h
        assert fields[i].u64_grid(stream, [np.array([x]) for x in c])[0] == h


# -- the bulk hash against the scalar reads ---------------------------------------

# shapes around the hash's block of _BLOCK = 2^15 labels: just below, at and
# just above it (7·31·151, 2^15, 3²·11·331), and one whose last block of
# rows is short (257 rows of 129)
BLOCK_SHAPES = [(_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,),
                (217, 151), (128, 256), (99, 331), (257, 129),
                (7, 31, 151), (32, 32, 32), (9, 11, 331), (3, 257, 43)]
LAYOUTS = ("ix", "flat", "indices", "mixed")


def _layout(shape, bases, layout, forms=()):
    """Coordinate axes of the box bases + [0, shape) in one of four layouts.

    `mixed` is an (n, 1) column for the first coordinate, then each other
    coordinate over the remaining sites as an (m,) row, or a (1, m) row where
    `forms` says True.
    """
    ranges = [np.arange(n, dtype=np.int64) + b for n, b in zip(shape, bases)]
    if layout == "ix":
        return list(np.ix_(*ranges))
    grids = [g + r[0] for g, r in zip(np.indices(shape, dtype=np.int64), ranges)]
    if layout == "indices":
        return grids
    if layout == "flat":
        return [g.ravel() for g in grids]
    n = shape[0]
    rest = [g.reshape(n, -1)[0] for g in grids[1:]]
    forms = list(forms) + [False] * len(rest)
    return [ranges[0][:, None]] + [r[None, :] if row else r for r, row in zip(rest, forms)]


def _assert_fresh(out, axes, shape, dtype):
    assert isinstance(out, np.ndarray) and out.dtype == dtype and out.shape == shape
    assert out.flags.writeable and out.flags.owndata
    assert not any(np.shares_memory(out, a) for a in axes)


def _check_bulk_reads(axes, seed, n, picks=None):
    """Every bulk read of `axes` against the scalar reads, site by site.

    u64 is checked at every site; the derived reads, which convert the u64
    array in place, at the sites `picks` (all sites when None).
    """
    f = LabelField(seed)
    shape = np.broadcast_shapes(*(a.shape for a in axes))
    sites = list(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(*axes))))
    picks = range(len(sites)) if picks is None else picks
    h = f.u64_box("u", axes)
    _assert_fresh(h, axes, shape, np.uint64)
    assert h.ravel().tolist() == [f.u64("u", c) for c in sites]
    again = f.u64_box("u", axes)
    assert not np.shares_memory(h, again) and np.array_equal(h, again)
    for kind, extra, dtype in (("uniform", (), np.float64), ("coin", (), np.int8),
                               ("discrete", (n,), np.int64)):
        got = getattr(f, f"{kind}_box")("u", axes, *extra)
        _assert_fresh(got, axes, shape, dtype)
        flat = got.ravel()
        assert [flat[i] for i in picks] == [getattr(f, kind)("u", sites[i], *extra)
                                             for i in picks], kind
    # a tracked read records the bounding box and its site count
    lo = tuple(int(a.min()) for a in axes)
    hi = tuple(int(a.max()) for a in axes)
    tf = TrackedField(f, Tracker(lo, Budget(radius_cap=2**70)))
    assert np.array_equal(tf.u64_box("u", axes), h)
    assert tf.tracker.boxes == {"u": [(lo, hi)]}
    assert tf.tracker.access_count == math.prod(b - a + 1 for a, b in zip(lo, hi))
    # `inside` holds a site exactly where a box or a point of its stream has
    # it; "u" holds two boxes and points in and out of them, and a box of
    # another dimension and a stream of its own must not count
    t = Tracker(lo, Budget(radius_cap=2**70))
    t.record_box("u", lo, tuple((a + b) // 2 for a, b in zip(lo, hi)))
    t.record_box("u", hi[:1] + lo[1:], hi)
    t.record_points("u", [sites[-1], sites[len(sites) // 3], tuple(c + 1 for c in hi)])
    t.record_box("u", lo + (0,), hi + (0,))
    t.record_box("v", lo, hi)
    t.record("v", sites[0])
    keep = t.inside("u", axes)
    assert keep.dtype == bool and keep.shape == shape
    flat = keep.ravel()
    assert [flat[i] for i in picks] == [_recorded(t, "u", sites[i]) for i in picks]
    assert flat[-1] and flat[len(sites) // 3]
    # a perturbed read takes base inside the region, alt elsewhere
    alt = LabelField(seed ^ 1)
    p = PerturbedField(f, t, alt)
    merged = p.u64_box("u", axes)
    _assert_fresh(merged, axes, shape, np.uint64)
    assert np.array_equal(merged, np.where(keep, h, alt.u64_box("u", axes)))
    flat = merged.ravel()
    assert [flat[i] for i in picks] == [p.u64("u", sites[i]) for i in picks]
    assert flat[-1] == h.ravel()[-1]


def _recorded(tracker, stream, site) -> bool:
    """Brute-force membership: a recorded point, or a recorded box of the
    site's dimension holding it."""
    return site in tracker.points.get(stream, ()) or any(
        len(lo) == len(site) and all(a <= c <= b for a, c, b in zip(lo, site, hi))
        for lo, hi in tracker.boxes.get(stream, ()))


_base = st.one_of(st.integers(-10**6, 10**6), st.integers(2**62 - 2**20, 2**62),
                  st.integers(-2**62, -2**62 + 2**20))


@st.composite
def _small_box(draw):
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=d, max_size=d)))
    bases = draw(st.lists(_base, min_size=d, max_size=d))
    forms = draw(st.lists(st.booleans(), min_size=d - 1, max_size=d - 1))
    return _layout(shape, bases, draw(st.sampled_from(LAYOUTS)), forms)


@given(_small_box(), st.integers(0, 2**64 - 1), st.integers(1, 1000))
@settings(max_examples=150, deadline=None)
def test_bulk_reads_match_scalar_reads(axes, seed, n):
    _check_bulk_reads(axes, seed, n)


# in 1-d the ix, flat and indices layouts are the same (n,) axis
@pytest.mark.parametrize("shape,layout", [
    (shape, layout) for shape in BLOCK_SHAPES for layout in LAYOUTS
    if len(shape) > 1 or layout in ("flat", "mixed")], ids=str)
def test_bulk_reads_match_scalar_reads_at_block_edges(shape, layout):
    # offsets near +2^62 and -2^62; the derived reads at 64 sites
    i = BLOCK_SHAPES.index(shape)
    bases = [(-1) ** (i + j) * (2**62 - 2**16) for j in range(len(shape))]
    size = math.prod(shape)
    picks = sorted({0, size - 1, *np.random.default_rng(i).integers(0, size, 62).tolist()})
    _check_bulk_reads(_layout(shape, bases, layout, forms=[True]), 2**64 - 1 - i, 479, picks)
