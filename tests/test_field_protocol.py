"""The field protocol: every field answers the same scalar, point-list, bulk
and below-threshold reads, and a tracked read records through its `u64`
primitive exactly once."""

import inspect
import math
from operator import sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor import field as field_mod
from ffcolor.field import (_BLOCK, _M1, _M2, MASK64, Budget, BudgetExceeded, LabelField,
                           PerturbedField, Tracker, TrackedField, untracked)

AXES = [np.arange(-3, 5)[:, None], np.arange(10, 16)[None, :]]
READS = [("u64", ()), ("uniform", ()), ("coin", ()), ("discrete", (7,))]


def _fields(base):
    covering = Tracker((0, 0))
    covering.record_box("s", (-3, 10), (4, 15))  # the whole read: base answers
    return {"LabelField": base,
            "TrackedField": TrackedField(base, Tracker((0, 0))),
            "PerturbedField": PerturbedField(base, covering, LabelField(99)),
            "untracked": untracked(base)}


@pytest.mark.parametrize("kind,extra", READS)
def test_every_field_answers_box_reads_like_the_raw_grid(kind, extra):
    # and the scalar read at every point of the box like LabelField's
    base = LabelField(5)
    want = getattr(base, f"{kind}_grid")("s", AXES, *extra)
    points = [(int(x), int(y)) for x in AXES[0].ravel() for y in AXES[1].ravel()]
    want_scalar = [getattr(base, kind)("s", c, *extra) for c in points]
    for name, fld in _fields(base).items():
        got = getattr(fld, f"{kind}_box")("s", AXES, *extra)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        got_scalar = [getattr(fld, kind)("s", c, *extra) for c in points]
        assert got_scalar == want_scalar, name
        assert list(map(type, got_scalar)) == list(map(type, want_scalar)), name


@pytest.mark.parametrize("kind,extra", READS)
def test_tracked_reads_record_one_access_per_label(kind, extra):
    # reads_per_query counts these records, so a derived read that recorded
    # again through its primitive would double the metric
    tr = Tracker((0, 0))
    fld = TrackedField(LabelField(5), tr)
    getattr(fld, kind)("s", (1, 2), *extra)
    assert tr.access_count == 1
    getattr(fld, f"{kind}_box")("s", AXES, *extra)
    assert tr.access_count == 1 + 8 * 6


def test_tracked_discrete_refuses_n0_before_recording():
    tr = Tracker((0, 0))
    fld = TrackedField(LabelField(5), tr)
    with pytest.raises(ValueError):
        fld.discrete("s", (1, 2), 0)
    with pytest.raises(ValueError):
        fld.discrete_box("s", AXES, 0)
    assert tr.access_count == 0 and not tr.points and not tr.boxes


def test_every_field_that_overrides_u64_overrides_u64_points():
    # an inherited u64_points or u64_below would hash past the override: a
    # perturbed or tracked field would answer a point list or a threshold
    # scan unlike its own scalar and box reads
    fields = [cls for _, cls in inspect.getmembers(field_mod, inspect.isclass)
              if cls.__module__ == field_mod.__name__ and "u64" in vars(cls)]
    assert {c.__name__ for c in fields} >= {"LabelField", "TrackedField", "PerturbedField"}
    assert [c.__name__ for c in fields if "u64_points" not in vars(c)] == []
    assert [c.__name__ for c in fields if "u64_below" not in vars(c)] == []


EMPTY_AXES = [[np.arange(0)], [np.arange(3)[:, None], np.arange(5, 5)[None, :]],
              [np.zeros((2, 0, 1), dtype=np.int64), np.arange(4)[None, None, :],
               np.arange(2)[:, None, None]]]


@pytest.mark.parametrize("axes", EMPTY_AXES, ids=["1d", "2d", "3d"])
def test_empty_bulk_reads_return_empty_and_record_nothing(axes):
    base = LabelField(5)
    shape = np.broadcast_shapes(*(a.shape for a in axes))
    fields = _fields(base)
    for name, fld in fields.items():
        for kind, extra in READS:
            got = getattr(fld, f"{kind}_box")("s", axes, *extra)
            want = getattr(base, f"{kind}_grid")("s", axes, *extra)
            assert got.shape == shape and got.dtype == want.dtype, (name, kind)
        got = fld.u64_below("s", (0,) * len(shape), shape, 2**63)
        assert got.shape == (0, len(shape)) and got.dtype == np.int64, name
    tr = fields["TrackedField"].tracker
    assert (tr.access_count, tr.points, tr.radius, tr.boxes) == (0, {}, 0, {})


COORD = st.one_of(st.integers(-40, 40), st.integers(-2**40, 2**40),
                  st.integers(2**32, 2**33))


@st.composite
def point_lists(draw):
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[COORD] * d), max_size=12))
    if pts:  # repeat some points, anywhere in the list
        pts += draw(st.lists(st.sampled_from(pts), max_size=6))
        pts = draw(st.permutations(pts))
    origin = draw(st.tuples(*[COORD] * d))
    return d, pts, origin


UNCAPPED = Budget(radius_cap=2**70, access_cap=2**70)


def _scalar_record(stream, pts, origin, budget=UNCAPPED):
    tr = Tracker(origin, budget)
    fld = TrackedField(LabelField(5), tr)
    return [fld.u64(stream, p) for p in pts], tr


@settings(max_examples=150, deadline=None, derandomize=True)
@given(point_lists(), st.sampled_from(["s", "family:s"]), st.integers(0, 2**64 - 1))
def test_point_reads_equal_scalar_reads(case, stream, alt_seed):
    d, pts, origin = case
    base = LabelField(5)
    want = [base.u64(stream, p) for p in pts]
    assert base.u64_points(stream, pts) == want

    want_tracked, scalar_tr = _scalar_record(stream, pts, origin)
    tr = Tracker(origin, UNCAPPED)
    assert TrackedField(base, tr).u64_points(stream, pts) == want_tracked == want
    assert (tr.access_count, tr.points, tr.radius, tr.boxes) == \
        (scalar_tr.access_count, scalar_tr.points, scalar_tr.radius, scalar_tr.boxes)

    # half of the points are covered: base answers there, the alt field elsewhere
    covering = Tracker(origin, UNCAPPED)
    for p in pts[::2]:
        covering.record(stream, p)
    pert = PerturbedField(base, covering, LabelField(alt_seed))
    assert pert.u64_points(stream, pts) == [pert.u64(stream, p) for p in pts]


@pytest.mark.parametrize("stream", ["s", "family:s"])
def test_empty_point_list_reads_and_records_nothing(stream):
    base = LabelField(5)
    tr = Tracker((3, 4))
    fields = [base, TrackedField(base, tr), PerturbedField(base, Tracker((0, 0)), LabelField(6))]
    for fld in fields:
        assert fld.u64_points(stream, []) == []
    assert (tr.access_count, tr.points, tr.radius, tr.boxes) == (0, {}, 0, {})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(point_lists(), st.sampled_from(["s", "family:s"]), st.integers(0, 20),
       st.integers(0, 2**41), st.integers(0, 3))
def test_point_reads_over_a_cap_raise_budget_exceeded(case, stream, access_cap,
                                                      radius_cap, used):
    # whichever cap the list crosses, the read censors as the scalar loop does
    d, pts, origin = case
    budget = Budget(radius_cap=radius_cap, access_cap=access_cap)
    try:
        want = _scalar_record(stream, [origin] * used + pts, origin, budget)[0][used:]
    except BudgetExceeded:
        want = BudgetExceeded
    tr = Tracker(origin, budget)
    fld = TrackedField(LabelField(5), tr)
    try:
        for _ in range(used):
            fld.u64(stream, origin)
        got = fld.u64_points(stream, pts)
    except BudgetExceeded:
        got = BudgetExceeded
    assert got == want


# -- u64_below: the coordinates of the labels below a threshold -------------

# a pre-final state s (the chain before the last xorshift) and its label
# s ^ (s >> 31) have the same bit length, so label < below forces
# s < 2^below.bit_length(); the scan finishes only such states
def _final(s: int) -> int:
    return s ^ (s >> 31)


def _unshift(y: int, k: int) -> int:
    # inverse of y = x ^ (x >> k) on 64 bits
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def _unpremix(s: int) -> int:
    # the input of mix64 whose state before the final xorshift is s
    s = _unshift((s * pow(_M2, -1, 2**64)) & MASK64, 27)
    return _unshift((s * pow(_M1, -1, 2**64)) & MASK64, 30)


BELOW = [0, 1, 2**11, 2**33 - 1, 2**33, 2**33 + 1, 2**40, 2**52 + 5,
         2**63 - 1, 2**63, 2**64 - 2**11]


def _edge_states(below: int) -> list[int]:
    # around 2^31 and 2^33, where the shifted copy starts and stops meeting
    # the top bits, around 2^nb, the prefilter's bound, and the states whose
    # labels lie just below, at and just above the threshold
    nb = below.bit_length()
    states = {below - 1, below, below + 1}
    states |= {_unshift(t, 31) for t in (below - 1, below, below + 1) if 0 <= t <= MASK64}
    for e in {31, 33, nb, min(nb + 1, 64)}:
        for t in (2**e - 1, 2**e, 2**e + 1, 2**e - 2**31, 2**e + 2**31):
            states |= {t, t ^ (2**31 - 1)}
    return sorted(x for x in states if 0 <= x <= MASK64)


@pytest.mark.parametrize("below", BELOW)
def test_prefilter_keeps_every_label_below_the_threshold(below):
    bound = 2 ** below.bit_length()
    states = _edge_states(below)
    for s in states:
        assert _final(s).bit_length() == s.bit_length()
        if _final(s) < below:
            assert s < bound, (hex(s), hex(below))
    # and end to end: a 1-d box whose chains reach exactly these pre-final
    # states, padded past one block, scanned like the raw grid
    f = LabelField(8)
    start = f._start("s")
    picked = [_unpremix(s) ^ start for s in states]
    assert [field_mod.mix64(c ^ start) for c in picked] == [_final(s) for s in states]
    coords = np.array(picked + list(range(_BLOCK)), dtype=np.uint64).view(np.int64)
    got = f._scan_below("s", [coords], below)
    assert got.tolist() == np.flatnonzero(f.u64_grid("s", [coords]) < below).tolist()
    assert got[got < len(states)].tolist() == \
        [i for i, s in enumerate(states) if _final(s) < below]


# boxes below, at and above one block of _BLOCK labels
BELOW_SHAPES = [(7,), (_BLOCK + 3,), (9, 13), (1, _BLOCK + 1), (_BLOCK + 1, 1), (203, 167),
                (3, 4, 5), (1, 1, _BLOCK + 2), (33, 34, 35), (2, 150, 111)]
THRESHOLDS = st.one_of(st.sampled_from(BELOW), st.integers(0, 63).map(lambda k: 1 << k),
                       st.integers(0, 2**64 - 1))


@st.composite
def below_reads(draw):
    # the box [lo - pad, hi + pad) of one of BELOW_SHAPES and its core
    # [lo, hi): the pad is 0, small, or so wide that it empties the core or
    # leaves it a negative extent, and one core axis may be cut to hi <= lo,
    # which shrinks the box along it
    shape = draw(st.sampled_from(BELOW_SHAPES))
    corner = draw(st.lists(st.one_of(st.integers(-50, 50), st.integers(2**62 - 99, 2**62),
                                     st.integers(-2**62, -2**62 + 99)),
                           min_size=len(shape), max_size=len(shape)))
    pad = draw(st.one_of(st.just(0), st.integers(1, 3), st.integers(0, min(shape) // 2 + 1)))
    lo = [c + pad for c in corner]
    hi = [c + n - pad for c, n in zip(corner, shape)]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(shape) - 1))
        hi[k] = min(hi[k], lo[k] - draw(st.integers(0, 4)))
    # thresholds from 2^56 up make hits common enough that padded cores hold some
    return lo, hi, pad, draw(st.one_of(THRESHOLDS, st.integers(2**56, 2**64 - 1)))


def _box_scan(raw, lo, hi, below, pad):
    """The reference answer: `np.argwhere` of the box's hits, when its core
    holds one; the box's bounds, as a tracked scan records them."""
    first = np.subtract(lo, pad)
    last = np.add(hi, pad) - 1
    hit = raw("s", np.ix_(*map(np.arange, first, last + 1))) < np.uint64(below)
    core = tuple(slice(pad, pad + n) for n in np.maximum(np.subtract(hi, lo), 0).tolist())
    want = np.argwhere(hit) + first if hit[core].any() else np.empty((0, len(lo)))
    bounds = (tuple(first.tolist()), tuple(last.tolist()))
    return want, bounds if np.all(first <= last) else None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(below_reads(), st.integers(0, 2**64 - 1))
def test_u64_below_equals_argwhere_of_the_box(read, alt_seed):
    # the box's hits when the core holds one, none otherwise; a tracked scan
    # records the padded box whenever it is nonempty, whatever the core
    lo, hi, pad, below = read
    base = LabelField(5)
    first, mid = np.subtract(lo, pad), (np.subtract(lo, pad) + np.add(hi, pad)) // 2
    half = Tracker(lo, UNCAPPED)
    half.record_box("s", first, np.maximum(first, mid))  # base answers here, alt elsewhere
    fields = {"LabelField": base, "TrackedField": TrackedField(base, Tracker(lo, UNCAPPED)),
              "PerturbedField": PerturbedField(base, half, LabelField(alt_seed)),
              "untracked": untracked(base)}
    for name, fld in fields.items():
        raw = fld.u64_grid if name == "PerturbedField" else base.u64_grid
        want, box = _box_scan(raw, lo, hi, below, pad)
        got = fld.u64_below("s", lo, hi, below, pad)
        assert got.dtype == np.int64 and got.shape == (len(want), len(lo)), name
        assert got.tolist() == want.tolist(), name
        if name == "TrackedField":
            assert fld.tracker.boxes == ({"s": [box]} if box else {})
        if box:  # and the whole box as its own core
            end = np.add(box[1], 1)
            whole = fld.u64_below("s", box[0], end, below)
            assert whole.tolist() == _box_scan(raw, box[0], end, below, 0)[0].tolist(), name


@pytest.mark.parametrize("lo,hi", [((-3, 10), (5, 16)), ((0, -90), (190, 90)),
                                   ((2**40,), (2**40 + _BLOCK + 9,))],
                         ids=["small", "blocked", "1d"])
@pytest.mark.parametrize("stream", ["s", "family:s"])
def test_tracked_u64_below_records_what_u64_box_records(lo, hi, stream):
    # whatever the pad, and whether the core it leaves holds a hit, is empty
    # or has a negative extent, a scan records the whole box
    origin = (7,) * len(lo)
    m = min(map(sub, hi, lo))
    reads = [lambda f: f.u64_box(stream, np.ix_(*map(np.arange, lo, hi)))]
    reads += [lambda f, p=p, b=b: f.u64_below(stream, np.add(lo, p), np.subtract(hi, p), b, p)
              for p in (0, 1, m // 2, m // 2 + 1) for b in (2**60, 1)]
    records = []
    for read in reads:
        tr = Tracker(origin, UNCAPPED)
        read(TrackedField(LabelField(5), tr))
        records.append((tr.access_count, tr.radius, tr.boxes, tr.points))
    assert all(r == records[0] for r in records)
    assert records[0][0] == math.prod(map(sub, hi, lo))


@pytest.fixture
def hashed(monkeypatch):
    """The coordinates of every label LabelField hashes, one row per label,
    as the raw grid and the blocked scan hash them."""
    rows = []

    def log(axes, shape):
        rows.append(np.stack([np.broadcast_to(np.asarray(a).view(np.int64), shape).ravel()
                              for a in axes], axis=1))

    grid, blocks = LabelField.u64_grid, field_mod._premixed_blocks

    def spy_grid(self, stream, axes):
        out = grid(self, stream, axes)
        log(axes, out.shape)
        return out

    def spy_blocks(h, axes, shape, out=None):
        log(axes, shape)
        return blocks(h, axes, shape, out)

    monkeypatch.setattr(LabelField, "u64_grid", spy_grid)
    monkeypatch.setattr(field_mod, "_premixed_blocks", spy_blocks)
    return rows


@pytest.mark.parametrize("lo,hi,pad", [
    ((-1, 12), (2, 14), 2),
    ((250, -100), (350, -60), 200),
    ((10, 2**62 - 21, -30), (12, 2**62 - 20, 10), 20),
    ((-2**40 + _BLOCK,), (-2**40 + _BLOCK + 9,), _BLOCK)],
    ids=["small", "blocked", "3d", "1d"])
def test_u64_below_hashes_the_core_alone_or_each_label_once(hashed, lo, hi, pad):
    first = np.subtract(lo, pad)
    axes = np.ix_(*map(np.arange, first, np.add(hi, pad)))
    shape = np.broadcast_shapes(*(a.shape for a in axes))
    box = np.stack([np.broadcast_to(a, shape).ravel() for a in axes], axis=1)
    core = tuple(slice(pad, n - pad) for n in shape)
    inner = np.zeros(shape, dtype=bool)
    inner[core] = True
    base = LabelField(5)
    labels = base.u64_grid("s", axes)
    hashed.clear()
    seen = set()
    for below in (0, 1 << 40, 1 << 62, 1 << 63):
        found = base.u64_below("s", lo, hi, below, pad)
        rows = np.concatenate(hashed)
        hashed.clear()
        hit = bool((labels[core] < below).any())
        seen.add(hit)
        want = box if hit else box[inner.ravel()]
        assert np.array_equal(np.unique(rows, axis=0), np.unique(want, axis=0))
        assert len(rows) == len(want)  # each label once
        assert found.tolist() == ((np.argwhere(labels < below) + first).tolist() if hit else [])
    assert seen == {False, True}
