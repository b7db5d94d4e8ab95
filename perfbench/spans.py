"""Span tracing of the ffcolor layers, installed from outside the package.

`Tracer.install` swaps wrappers in for the public functions and methods
named in `TARGETS` and `remove` puts the originals back; nothing in the
package is edited.  Methods are replaced on their class and functions on every
module that holds a reference to them, so no instance gains or loses an
attribute and the `hasattr(field, "*_box")` dispatch inside the package takes
the same branch with tracing on or off.

Each wrapped call is a span (layer, start, end, parent).  Self time (span
minus its child spans) and counts are aggregated per layer as spans close, so
memory stays flat however many label reads a run makes; the first
`SPAN_CAP` spans are also kept whole and written out at the end of a run.
A call counts toward its layer's `calls` and counter only when its parent span
belongs to another layer, so `TrackedField.uniform -> LabelField.uniform ->
LabelField.u64` is one scalar read, not three.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

SPAN_CAP = 100_000


def _size(args, kwargs, result):
    return int(np.size(result))


def _edges(args, kwargs, result):
    return int(result.graph.indices.size) // 2


def _family_bits(args, kwargs, result):
    return int(result.nsets) * int(result.ground)


def _rows(args, kwargs, result):
    return int(np.shape(args[1])[0])


def _above_floor(args, kwargs, result):
    w = args[0]
    floor = kwargs["floor"] if "floor" in kwargs else args[2]
    return int(np.count_nonzero(w > floor))


def _unresolved(args, kwargs, result):
    return int(np.count_nonzero(args[0] == 0))


def _len(args, kwargs, result):
    return len(result)


def _perc_build(args, kwargs, result):
    return int(result.labels.size)


def _perc_clusters(args, kwargs, result):
    return int(result.nclusters)


def _tiles(args, kwargs, result):
    return len(args[0].tiles)


# (module, class or None, attribute, layer, {counter name: counter})
TARGETS = [
    ("field", "LabelField", "u64", "field.scalar", {}),
    ("field", "LabelField", "uniform", "field.scalar", {}),
    ("field", "LabelField", "coin", "field.scalar", {}),
    ("field", "LabelField", "discrete", "field.scalar", {}),
    ("field", "TrackedField", "u64", "field.scalar", {}),
    ("field", "TrackedField", "uniform", "field.scalar", {}),
    ("field", "TrackedField", "coin", "field.scalar", {}),
    ("field", "TrackedField", "discrete", "field.scalar", {}),
    ("field", "LabelField", "u64_grid", "field.grid", {"labels": _size}),
    ("field", "LabelField", "uniform_grid", "field.grid", {"labels": _size}),
    ("field", "LabelField", "coin_grid", "field.grid", {"labels": _size}),
    ("field", "LabelField", "discrete_grid", "field.grid", {"labels": _size}),
    ("field", "TrackedField", "u64_box", "field.grid", {"labels": _size}),
    ("field", "TrackedField", "uniform_box", "field.grid", {"labels": _size}),
    ("field", "TrackedField", "coin_box", "field.grid", {"labels": _size}),
    ("field", "TrackedField", "discrete_box", "field.grid", {"labels": _size}),
    ("field", "Tracker", "record", "field.tracker", {}),
    ("field", "Tracker", "record_box", "field.tracker", {}),
    ("lattice", "WindowGraph", "build", "lattice.window_graph", {"edges": _edges}),
    ("lattice", "LatticeSpec", "neighbors", "lattice.neighbors", {}),
    ("covfree", "SetFamily", "build", "covfree.family_build", {"bits": _family_bits}),
    ("covfree", "SetFamily", "reduce_min", "covfree.reduce_min", {"rows": _rows}),
    ("reduction", None, "almost_coloring", "reduction.almost_coloring", {}),
    ("reduction", None, "elimination_sweep", "reduction.elimination_sweep",
     {"vertices": _above_floor}),
    ("reduction", None, "greedy_fallback", "reduction.greedy_fallback",
     {"vertices": _unresolved}),
    ("reduction", None, "tower_coloring", "reduction.tower_coloring", {}),
    ("reduction", None, "net_window", "reduction.net_scan", {}),
    ("reduction", "TowerQuery", "color", "reduction.tower_query", {}),
    ("reduction", "MNet", "window", "reduction.mnet_window", {}),
    ("fourcolor", None, "fixture_net", "fourcolor.fixture_net", {"centers": _len}),
    ("fourcolor", None, "net_coloring", "fourcolor.net_coloring", {}),
    ("fourcolor", None, "assign_radii", "fourcolor.assign_radii", {}),
    ("fourcolor", None, "sign_window", "fourcolor.sign_window", {}),
    ("fourcolor", None, "checkerboard_4color", "fourcolor.checkerboard", {}),
    ("fourcolor", None, "four_color_window", "fourcolor.four_color_window", {}),
    ("fourcolor", None, "baseline_window", "fourcolor.baseline_window", {}),
    ("fourcolor", None, "baseline_percolation_4color", "fourcolor.baseline_query", {}),
    ("perc3color", "PercWindow", "build", "perc3color.build",
     {"sites": _perc_build, "clusters": _perc_clusters}),
    ("perc3color", None, "coding_radii", "perc3color.coding_radii", {}),
    ("perc3color", None, "three2d_window", "perc3color.three2d_window", {}),
    ("tiling3color", None, "centers", "tiling3color.centers", {"found": _len}),
    ("tiling3color", "TileForest", "__init__", "tiling3color.forest", {"tiles": _tiles}),
    ("tiling3color", "TileForest", "assign_colorings", "tiling3color.assign_colorings", {}),
    ("tiling3color", "TileForest", "colors_grid", "tiling3color.colors_grid", {}),
    ("tiling3color", None, "three_color_general", "tiling3color.query", {}),
    ("tiling3color", None, "threegen_window", "tiling3color.threegen_window", {}),
    ("sft", None, "generate", "sft.generate", {}),
    ("sft", None, "verify_membership", "verify.verify_membership", {}),
    ("verify", None, "check_coloring", "verify.check_coloring", {}),
    ("verify", None, "check_net", "verify.check_net", {}),
    ("verify", None, "check_heights", "verify.check_heights", {}),
    ("fourcolor", None, "audit_faces", "verify.audit_faces", {}),
    ("fourcolor", None, "audit_sign_clusters", "verify.audit_sign_clusters", {}),
    ("tiling3color", "TileForest", "audit", "verify.tile_forest_audit", {}),
]

# layers whose call count is a reported metric, and that metric's name
CALL_COUNTED = {"field.scalar": "calls", "field.tracker": "records",
                "lattice.neighbors": "calls", "reduction.mnet_window": "calls",
                "sft.generate": "calls"}


def layer_metric_names() -> list[str]:
    """Every metric a traced rotation yields from spans, in table order."""
    names = []
    for _, _, _, layer, counters in TARGETS:
        for name in [f"{layer}.self_s"] + [f"{layer}.{c}" for c in counters]:
            if name not in names:
                names.append(name)
        if layer in CALL_COUNTED and f"{layer}.{CALL_COUNTED[layer]}" not in names:
            names.append(f"{layer}.{CALL_COUNTED[layer]}")
    return names


class Tracer:
    """Installs span wrappers around the TARGETS and aggregates per layer."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, layer, start, end, parent id)
        self.span_total = 0
        self._stack: list[list] = []
        self._agg: dict[str, dict[str, float]] = {}
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: str, counters: dict):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer.span_total
            tracer.span_total += 1
            frame = [layer, perf_counter(), 0.0, sid]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                agg = tracer._agg.setdefault(layer, {"self_s": 0.0})
                agg["self_s"] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if parent is None or parent[0] != layer:
                    agg["calls"] = agg.get("calls", 0) + 1
                    if ok:
                        for name, count in counters.items():
                            agg[name] = agg.get(name, 0) + count(args, kwargs, result)
                if sid < SPAN_CAP:
                    pid = parent[3] if parent is not None else -1
                    tracer.spans.append((sid, layer, frame[1], end, pid))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules[f"ffcolor.{name}"] for name in {t[0] for t in TARGETS}}
        all_mods = [m for n, m in sys.modules.items()
                    if n == "ffcolor" or n.startswith("ffcolor.")]
        for modname, clsname, attr, layer, counters in TARGETS:
            mod = mods[modname]
            if clsname is None:
                orig = getattr(mod, attr)
                wrapped = self._wrap(orig, layer, counters)
                for m in all_mods:
                    if m.__dict__.get(attr) is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapped)
                continue
            cls = getattr(mod, clsname)
            orig = cls.__dict__[attr]
            if isinstance(orig, classmethod):
                wrapped = classmethod(self._wrap(orig.__func__, layer, counters))
            else:
                wrapped = self._wrap(orig, layer, counters)
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def take(self) -> dict[str, float]:
        """Per-layer metrics aggregated since the last take, then reset."""
        out = {}
        for layer, agg in self._agg.items():
            out[f"{layer}.self_s"] = agg["self_s"]
            for name, value in agg.items():
                if name == "calls":
                    if layer in CALL_COUNTED:
                        out[f"{layer}.{CALL_COUNTED[layer]}"] = value
                elif name != "self_s":
                    out[f"{layer}.{name}"] = value
        self._agg = {}
        return out
