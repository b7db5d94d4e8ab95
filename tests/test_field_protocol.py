"""The field protocol: names that span tracing patches stay defined where it
looks for them, every field answers the same scalar and bulk reads, and a
tracked read records through its `u64` primitive exactly once."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ffcolor.field import LabelField, PerturbedField, Tracker, TrackedField, untracked

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
