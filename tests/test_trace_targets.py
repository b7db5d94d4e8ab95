"""Every span target of the benchmark's tracer names a live package object.

`perfbench/spans.py` wraps the functions and methods listed in its `TARGETS`
by name.  A refactor that renames or drops one, or moves a method onto a base
class, would only show when a traced benchmark run fails; these tests load
the tracer module from its file (without changing it) and resolve each entry
as `Tracer.install` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load_spans()


def _resolve(modname: str, clsname: str | None, attr: str):
    """The target's current object, looked up the way `Tracer.install` does."""
    mod = importlib.import_module(f"ffcolor.{modname}")
    if clsname is None:
        return getattr(mod, attr)
    # install reads the class's own __dict__: an inherited method would
    # raise KeyError there
    return getattr(mod, clsname).__dict__[attr]


@pytest.mark.parametrize("target", spans.TARGETS,
                         ids=[f"{t[0]}.{t[1] or ''}.{t[2]}" for t in spans.TARGETS])
def test_target_resolves(target):
    modname, clsname, attr, layer, counters = target
    orig = _resolve(modname, clsname, attr)
    fn = orig.__func__ if isinstance(orig, (classmethod, staticmethod)) else orig
    assert callable(fn)
    assert all(callable(c) for c in counters.values())


def test_install_wraps_every_target_and_remove_restores_it():
    before = {t[:3]: _resolve(*t[:3]) for t in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for t, orig in before.items():
            now = _resolve(*t)
            inner = now.__func__ if isinstance(now, classmethod) else now
            assert now is not orig and getattr(inner, "__wrapped__", None) is not None, t
    finally:
        tracer.remove()
    assert all(_resolve(*t) is orig for t, orig in before.items())
