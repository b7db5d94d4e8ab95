"""The field protocol: names that span tracing patches stay defined where it
looks for them, every field answers the same scalar, point-list and bulk
reads, and a tracked read records through its `u64` primitive exactly once."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor import field as field_mod
from ffcolor.field import (Budget, BudgetExceeded, LabelField, PerturbedField, Tracker,
                           TrackedField, untracked)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_ffcolor_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_span_targets_are_defined_where_tracing_patches_them():
    # tracing swaps cls.__dict__[attr] for methods and module attributes for
    # functions, so a renamed or inherited target breaks every traced run
    missing = []
    for modname, clsname, attr, _, _ in _targets():
        mod = importlib.import_module(f"ffcolor.{modname}")
        owner = vars(getattr(mod, clsname)) if clsname else vars(mod)
        if attr not in owner:
            missing.append((modname, clsname, attr))
    assert missing == []


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
    # an inherited u64_points would hash past the override: a perturbed or
    # tracked field would answer a point list unlike its own scalar reads
    fields = [cls for _, cls in inspect.getmembers(field_mod, inspect.isclass)
              if cls.__module__ == field_mod.__name__ and "u64" in vars(cls)]
    assert {c.__name__ for c in fields} >= {"LabelField", "TrackedField", "PerturbedField"}
    assert [c.__name__ for c in fields if "u64_points" not in vars(c)] == []


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
