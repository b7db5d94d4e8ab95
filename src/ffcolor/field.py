"""Deterministic label field: keyed counter-mode hashing of lattice sites.

Every random object in the package is a pure function of (seed, stream, coords).
A stream is a short string naming one iid family ("u", "coin", "prio", ...);
coords is an integer tuple.  Scalar and vectorized paths share the exact same
arithmetic, bit for bit, so window runs and single-site queries agree.

Access tracking lives here too.  A Tracker records which (stream, coord) pairs
an evaluation touched; the 1-norm reach of the touched *spatial* coordinates is
an upper-bound witness for the coding radius of that query.  Streams flagged
non-spatial (shared global tables such as set-family bits) count against the
access budget but not the radius.  `Tracker.inside(stream, axes)` is the one
rule for whether a label was read.

Field protocol: every field (LabelField, TrackedField, PerturbedField) answers
the scalar reads `u64`, `uniform`, `coin`, `discrete`, the point-list read
`u64_points`, the bulk reads `u64_box`, `uniform_box`, `coin_box`,
`discrete_box`, and the threshold scan `u64_below`; the bulk reads and the
scan take broadcast coordinate axes.  The scan also takes a core, a sub-box
of its box (None is the whole box), and answers the box's hits when the
core holds one and nothing otherwise.  Every field keeps that rule, and
TrackedField records the scan's whole box whatever its core, as below.
Constructions call only these names.
PerturbedField answers like `base` inside a region and like `alt` outside;
a region is any object with `inside`, and the package's only one is Tracker.
`u64_grid` is LabelField's raw vectorized hash, which the bulk reads of
every field bottom out in.  `uniform_grid`, `coin_grid` and `discrete_grid`
are aliases of the `*_box` reads, kept as the names that `perfbench/spans.py`
traces.  An empty box reads as an empty result and records nothing.

One rule keeps the fields in step: a field overrides only its `u64`
primitives (`u64`, `u64_points`, `u64_grid`, `u64_box`, `u64_below`), and
every derived read is LabelField's.  A field that overrides `u64` overrides
`u64_points` and `u64_below` too, or a point list or a scan would be hashed
past its override.  `uniform`, `coin` and `discrete` are elementwise
functions of the `u64` value, computed in
LabelField alone, so a tracked read records exactly one access and a
perturbed read picks base or alt once, at the `u64`.
The bulk primitives return a new array on every call, which the derived reads
convert in place.

`u64_points` reads a list of scattered points, such as one frontier of a
cluster search, and returns Python ints.  A tracked point list is recorded in
one pass: its access count, its points and its 1-norm reach, so a query that
reads its labels a list at a time records exactly what its scalar reads
would.  The points are hashed in Python with the scalar chain.  A demand
query's lists are small (about nine points per frontier in the baseline
query), and one numpy pass costs more per call in array set-up than it saves
in hashing.

Stream state is cached.  `stream_key` is memoized per stream name (the
package uses a few dozen names; the memo is bounded all the same), and each
LabelField keeps its per-stream start value `mix64(seed ^ stream_key(stream))`
in a dict, so a scalar read does one `mix64` per coordinate and no FNV pass.
This is safe because a label is a pure function of (seed, stream, coords): the
start value depends on nothing else, a field's seed is fixed when it is made,
and the cache is per field, so fields of different seeds never share an entry.

The bulk hash works per axis prefix.  The label at (c0, ..., c_{d-1}) is the
chain mix64(...mix64(mix64(start ^ c0) ^ c1)... ^ c_{d-1}), so its first i
links depend on c0..c_{i-1} alone.  `u64_grid` therefore mixes axis i at the
broadcast shape of axes 0..i, not at the shape of the whole box: the leading
axis of an `np.ix_` box is mixed once per row, and every site of that row
starts its chain from the same, exactly shared, prefix value.  Each link is
the same uint64 arithmetic as the scalar `mix64`, so the result is bit for
bit the scalar path's.

Boxes of more than _BLOCK = 2^15 labels are finished in blocks of
leading-axis rows of about that many labels.  One block and its scratch
buffer for the shifted copies take 256 KiB each, so every in-place step of
the mix works in a core's L2 cache instead of streaming the whole box
through memory once per step.  Smaller boxes (the 2-4-site family and tower
reads) take a plain in-place path with no block bookkeeping.

A Bernoulli(p) test can skip the float conversion.  `uniform` is
(u64 >> 11) * 2^-53, exactly, and p * 2^53 is exact too, so for p in [0, 1)
uniform < p  <=>  u64 >> 11 < ceil(p * 2^53)  <=>  u64 < ceil(p * 2^53) << 11,
where the threshold is at most (2^53 - 1) << 11 and fits in a uint64.  At
p = 1 every label passes, and the threshold 2^64 does not fit, so that case
needs its own branch.

`u64_below(stream, axes, below, core)` runs that test over a box without
building its labels: it returns the flat indices, in C order, of the labels
below `below`, or none when the sub-box `core` holds none.  The core is
hashed first, and the 2d slabs that partition the rest of the box (before
and after the core along each axis) only when the core holds a hit, so no
label is hashed twice and a scan whose core is empty of hits costs only its
core.  A caller that keeps only hits in the core, as the center thinning
does, loses nothing by it.  A tracked scan still records the whole box,
before it reads a label: when the core holds a hit the answer depends on
the whole box, and recording it either way keeps a query's boxes, access
count, radius and budget refusals independent of what its cores hold.

A box above one block goes through the same blocked loop as the bulk hash,
into one reused block and scratch buffer, and keeps only each block's hits.
Each block is tested before its last xorshift.  Write s for a
label's state before the final step h = s ^ (s >> 31), and nb for
below.bit_length().  Then  h < below  implies  s < 2^nb:
  s >> 31 is shorter than s (or both are 0), so the xor keeps the highest
  set bit of s and sets none above it: h and s have the same bit length.
  h < below gives bitlen(h) <= nb, so bitlen(s) <= nb, and s < 2^nb.
So only the states up to 2^nb - 1 are finished and compared with `below`;
every other label of the block is at least 2^nb, above it.  At the center
densities of the tile scans, that leaves about 2^-12 of the sites at level 1
and 2^-19 at level 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce
from operator import sub
from typing import Iterable, Sequence

import numpy as np

MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# splitmix64 finalizer constants
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(h: int) -> int:
    """splitmix64 finalizer; the only scrambling primitive used anywhere."""
    h &= MASK64
    h ^= h >> 30
    h = (h * _M1) & MASK64
    h ^= h >> 27
    h = (h * _M2) & MASK64
    h ^= h >> 31
    return h


@lru_cache(maxsize=1024)
def stream_key(stream: str) -> int:
    """FNV-1a over the stream name's utf-8 bytes."""
    h = _FNV_OFFSET
    for b in stream.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & MASK64
    return h


_U30, _U27, _U31, _U11, _U63 = (np.uint64(s) for s in (30, 27, 31, 11, 63))
_UM1, _UM2 = np.uint64(_M1), np.uint64(_M2)

# labels per block of the blocked hash: the block and its scratch buffer
# (256 KiB each) stay in a core's L2 cache
_BLOCK = 1 << 15


def _mix64_arr(h: np.ndarray) -> np.ndarray:
    """`mix64` of every entry of a uint64 array, in place; returns h.

    A uint64 scalar (the hash of 0-d axes) is rebound, not changed, so
    callers keep the return value.
    """
    h ^= h >> _U30
    h *= _UM1
    h ^= h >> _U27
    h *= _UM2
    h ^= h >> _U31
    return h


def _premix_block(h: np.ndarray, tmp: np.ndarray) -> None:
    """Every step of `mix64` but the final xorshift, on h in place, with the
    shifted copies written into `tmp` (h's shape)."""
    np.right_shift(h, _U30, out=tmp)
    h ^= tmp
    h *= _UM1
    np.right_shift(h, _U27, out=tmp)
    h ^= tmp
    h *= _UM2


def _finish_block(h: np.ndarray, tmp: np.ndarray) -> None:
    """The final xorshift of `mix64`, on h in place, through `tmp`."""
    np.right_shift(h, _U31, out=tmp)
    h ^= tmp


def _premixed_blocks(h, axes: list, shape: tuple, out: np.ndarray | None = None):
    """Run the hash chain from state `h` over `axes` in blocks; yield
    (flat index of the block's first label, block, scratch) per block.

    The axes whose running broadcast shape is still smaller than `shape` are
    mixed at that smaller shape; the rest are mixed block by block, each block
    being leading-axis rows of about _BLOCK labels.  A yielded block holds the
    chain up to the final xorshift of its last link.  Blocks are views of
    `out` when it is given, else of one buffer reused for every block.
    """
    k, cur = 0, ()
    while (cur := np.broadcast_shapes(cur, axes[k].shape)) != shape:
        h = _mix64_arr(axes[k] ^ h)
        k += 1
    row = math.prod(shape[1:])
    rows = max(1, _BLOCK // row)
    scratch = np.empty(rows * row, dtype=np.uint64)
    buf = np.empty(rows * row, dtype=np.uint64) if out is None else None
    h = np.broadcast_to(h, shape)
    first, *rest = (np.broadcast_to(a, shape) for a in axes[k:])
    for r in range(0, shape[0], rows):
        n = min(rows, shape[0] - r)
        block = out[r:r + n] if buf is None else buf[:n * row].reshape((n,) + shape[1:])
        tmp = scratch[:block.size].reshape(block.shape)
        np.bitwise_xor(h[r:r + n], first[r:r + n], out=block)
        for a in rest:
            _premix_block(block, tmp)
            _finish_block(block, tmp)
            block ^= a[r:r + n]
        _premix_block(block, tmp)
        yield r * row, block, tmp


def _hash_blocked(h, axes: list, shape: tuple) -> np.ndarray:
    """Finish the hash chain from state `h` over `axes`, as a new array."""
    out = np.empty(shape, dtype=np.uint64)
    for _, block, tmp in _premixed_blocks(h, axes, shape, out):
        _finish_block(block, tmp)
    return out


# The input is a new array from a bulk primitive, so a helper may convert it
# in place; keeping it alive beside a converted copy slows reads of large
# boxes by about a fifth.

def _uniform_arr(h: np.ndarray) -> np.ndarray:
    # top 53 bits -> [0, 1)
    h >>= _U11
    u = h.astype(np.float64)
    u *= 2.0**-53
    return u


def _coin_arr(h: np.ndarray) -> np.ndarray:
    # top bit 0 -> +1, 1 -> -1
    h >>= _U63
    c = h.astype(np.int8)
    c *= -2
    c += 1
    return c


def _discrete_arr(u: np.ndarray, n: int) -> np.ndarray:
    u *= n
    k = np.ceil(u, out=u).astype(np.int64)
    np.maximum(k, 1, out=k)
    return np.minimum(k, n, out=k)


def _core_bounds(core, shape: tuple) -> tuple[tuple, tuple]:
    """(lo, hi) index bounds of the sub-box `core` (a tuple of step-1
    slices, one per dimension of `shape`; None is the whole box)."""
    if core is None:
        return (0,) * len(shape), tuple(shape)
    if len(core) != len(shape):
        raise ValueError(f"core {core!r} is not a sub-box of a box of shape {shape}")
    lo, hi = [], []
    for s, n in zip(core, shape):
        a, b, step = s.indices(n)
        if step != 1:
            raise ValueError(f"core slice {s!r} does not have step 1")
        lo.append(a)
        hi.append(max(a, b))
    return tuple(lo), tuple(hi)


def _cut(axes: list, shape: tuple, lo: tuple, hi: tuple) -> list:
    """The coordinate axes of the sub-box [lo, hi) of their broadcast box
    `shape`.  An axis keeps its length-1 (broadcast) dimensions unless the
    sub-box is empty there, so an `np.ix_` box cuts to an `np.ix_` box."""
    out = []
    for a in axes:
        k = len(shape) - a.ndim
        out.append(a[tuple(slice(None) if n == 1 and b > l else slice(l, b)
                           for n, l, b in zip(a.shape, lo[k:], hi[k:]))])
    return out


def _frame(lo: tuple, hi: tuple, shape: tuple):
    """The nonempty ones of the 2d slabs that partition the box `shape`
    minus its nonempty sub-box [lo, hi), as (lo, hi) bounds: slab (k, side)
    spans the sub-box along the axes before k, one side of it along axis k
    and the whole box along the axes after k."""
    d = len(shape)
    for k in range(d):
        for a, b in ((0, lo[k]), (hi[k], shape[k])):
            if a < b:
                yield lo[:k] + (a,) + (0,) * (d - k - 1), hi[:k] + (b,) + shape[k + 1:]


class BudgetExceeded(Exception):
    """An evaluation ran past its radius or access budget.

    Carries enough context to right-censor the query instead of crashing a run.
    """

    def __init__(self, kind: str, limit: int, stream: str = "", where: tuple = ()):
        self.kind = kind  # "radius" | "access"
        self.limit = limit
        self.stream = stream
        self.where = where
        super().__init__(f"{kind} budget {limit} exceeded at {stream}{where!r}")


@dataclass(frozen=True)
class Budget:
    radius_cap: int = 4096
    access_cap: int = 100_000_000


DEFAULT_BUDGET = Budget()


class LabelField:
    """Seeded, immutable source of iid labels indexed by (stream, coords)."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._starts: dict[str, int] = {}

    def _start(self, stream: str) -> int:
        """The hash state before any coordinate: mix64(seed ^ stream_key)."""
        h = self._starts.get(stream)
        if h is None:
            h = self._starts[stream] = mix64(self.seed ^ stream_key(stream))
        return h

    # -- scalar path ------------------------------------------------------

    def u64(self, stream: str, coords: Sequence[int]) -> int:
        h = self._starts.get(stream)
        if h is None:
            h = self._start(stream)
        for c in coords:
            h = mix64(h ^ (int(c) & MASK64))
        return h

    def u64_points(self, stream: str, points: Sequence[tuple]) -> list[int]:
        """`u64` at each point of a list of int tuples, as a list of ints."""
        start = self._starts.get(stream)
        if start is None:
            start = self._start(stream)
        out = []
        for p in points:
            h = start
            for c in p:
                h = mix64(h ^ (c & MASK64))
            out.append(h)
        return out

    def uniform(self, stream: str, coords: Sequence[int]) -> float:
        # top 53 bits -> [0, 1)
        return (self.u64(stream, coords) >> 11) * 2.0**-53

    def coin(self, stream: str, coords: Sequence[int]) -> int:
        """Fair +-1 coin from the top bit."""
        return 1 if (self.u64(stream, coords) >> 63) == 0 else -1

    def discrete(self, stream: str, coords: Sequence[int], n: int) -> int:
        """Uniform value in {1, ..., n} via ceil(n * U)."""
        if n < 1:
            raise ValueError("discrete needs n >= 1")
        k = math.ceil(n * self.uniform(stream, coords))
        return min(max(k, 1), n)

    # -- vectorized path (bit-identical to the scalar path) ----------------

    def u64_grid(self, stream: str, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Hash broadcast coordinate arrays; axes[i] is the i-th coordinate.

        Returns a new array of the full broadcast shape.  Each axis is mixed
        at its running broadcast shape, so the leading axis of an `np.ix_`
        box is mixed once per row; boxes above one block go through
        `_hash_blocked`.
        """
        axes = [np.asarray(a, dtype=np.int64).view(np.uint64) for a in axes]
        h = np.uint64(self._start(stream))
        if math.prod(a.size for a in axes) > _BLOCK:
            shape = np.broadcast_shapes(*(a.shape for a in axes))
            if math.prod(shape) > _BLOCK:
                return _hash_blocked(h, axes, shape)
        for a in axes:
            h = _mix64_arr(a ^ h)
        return np.asarray(h)

    # -- bulk reads: the field protocol's names for the vectorized path ------

    def u64_box(self, stream: str, axes: Sequence[np.ndarray]) -> np.ndarray:
        return self.u64_grid(stream, axes)

    def u64_below(self, stream: str, axes: Sequence[np.ndarray], below: int,
                  core: Sequence[slice] | None = None) -> np.ndarray:
        """Flat indices, in C order over the broadcast shape of `axes`, of the
        labels whose u64 is below `below` (an int in [0, 2^64)), when the
        sub-box `core` holds one of them; an empty array when it holds none.

        `core` is a tuple of step-1 slices, one per dimension of the box, as
        for indexing it; None is the whole box.  The core is scanned first,
        and the 2d slabs that partition the rest of the box only when the
        core holds a hit, so no label is hashed twice.
        """
        shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
        axes = [np.asarray(a, dtype=np.int64) for a in axes]
        lo, hi = _core_bounds(core, shape)
        hits = self._scan_below(stream, _cut(axes, shape, lo, hi), below)
        if not hits.size:
            return hits
        parts = [(lo, hi, hits)]
        parts += [(a, b, self._scan_below(stream, _cut(axes, shape, a, b), below))
                  for a, b in _frame(lo, hi, shape)]
        if len(parts) == 1:  # the core is the whole box
            return hits
        flat = []
        for a, b, h in parts:
            at = np.unravel_index(h, tuple(map(sub, b, a)))
            flat.append(np.ravel_multi_index([i + o for i, o in zip(at, a)], shape))
        flat = np.concatenate(flat)
        flat.sort()
        return flat

    def _scan_below(self, stream: str, axes: list, below: int) -> np.ndarray:
        """`u64_below` of the whole box of `axes`.

        A box above one block is hashed block by block into one reused
        buffer, and only each block's hits are kept.  A block is first tested
        before its final xorshift, and only the candidates that test passes
        are finished (see the module docstring).
        """
        below = np.uint64(below)
        shape = np.broadcast_shapes(*(a.shape for a in axes))
        if math.prod(shape) <= _BLOCK:
            return np.flatnonzero(self.u64_grid(stream, axes) < below)
        top = np.uint64((1 << int(below).bit_length()) - 1)
        axes = [a.view(np.uint64) for a in axes]
        hits = []
        for at, block, _ in _premixed_blocks(np.uint64(self._start(stream)), axes, shape):
            flat = block.reshape(-1)
            cand = np.flatnonzero(flat <= top)
            h = flat[cand]
            h ^= h >> _U31
            hits.append(cand[h < below] + at)
        return np.concatenate(hits)

    def uniform_box(self, stream: str, axes: Sequence[np.ndarray]) -> np.ndarray:
        return _uniform_arr(self.u64_box(stream, axes))

    def coin_box(self, stream: str, axes: Sequence[np.ndarray]) -> np.ndarray:
        return _coin_arr(self.u64_box(stream, axes))

    def discrete_box(self, stream: str, axes: Sequence[np.ndarray], n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("discrete needs n >= 1")
        return _discrete_arr(self.uniform_box(stream, axes), n)

    uniform_grid = uniform_box
    coin_grid = coin_box
    discrete_grid = discrete_box


class Tracker:
    """Record of every label access made while answering one query.

    One tracker per query; never share across concurrent evaluations.
    Point accesses are kept exactly; rectangular bulk reads are kept as
    (lo, hi) inclusive boxes.  Radius is the running max 1-norm distance
    from the query origin over spatial accesses.  `inside` is its membership
    rule, which makes a tracker a PerturbedField region.
    """

    def __init__(self, origin: Sequence[int], budget: Budget = DEFAULT_BUDGET):
        self.origin = tuple(int(c) for c in origin)
        self.budget = budget
        self.points: dict[str, set[tuple]] = {}
        self.boxes: dict[str, list[tuple[tuple, tuple]]] = {}
        self.access_count = 0
        self.radius = 0

    def _bump(self, count: int, stream: str, where: tuple) -> None:
        self.access_count += count
        if self.access_count > self.budget.access_cap:
            raise BudgetExceeded("access", self.budget.access_cap, stream, where)

    def record(self, stream: str, coords: tuple, spatial: bool = True) -> None:
        """Record one point; coords must be a tuple of Python ints."""
        self.access_count += 1
        if self.access_count > self.budget.access_cap:
            raise BudgetExceeded("access", self.budget.access_cap, stream, coords)
        pts = self.points.get(stream)
        if pts is None:
            pts = self.points[stream] = set()
        pts.add(coords)
        if spatial:
            r = sum(map(abs, map(sub, coords, self.origin)))
            if r > self.radius:
                if r > self.budget.radius_cap:
                    raise BudgetExceeded("radius", self.budget.radius_cap, stream, coords)
                self.radius = r

    def record_points(self, stream: str, points: Sequence[tuple],
                      spatial: bool = True) -> None:
        """Record a list of points at once, as `record` on each of them would
        count, keep and bound them; points must be tuples of Python ints."""
        if not points:
            return
        self.access_count += len(points)
        if self.access_count > self.budget.access_cap:
            first = len(points) - (self.access_count - self.budget.access_cap)
            raise BudgetExceeded("access", self.budget.access_cap, stream, points[first])
        pts = self.points.get(stream)
        if pts is None:
            pts = self.points[stream] = set()
        pts.update(points)
        if spatial:
            o = self.origin
            reach = [sum(map(abs, map(sub, p, o))) for p in points]
            r = max(reach)
            if r > self.radius:
                cap = self.budget.radius_cap
                if r > cap:
                    far = next(p for p, q in zip(points, reach) if q > cap)
                    raise BudgetExceeded("radius", cap, stream, far)
                self.radius = r

    def record_box(self, stream: str, lo: Sequence[int], hi: Sequence[int],
                   spatial: bool = True) -> None:
        """Record an inclusive coordinate box [lo, hi]."""
        lo = tuple(int(c) for c in lo)
        hi = tuple(int(c) for c in hi)
        count = 1
        for a, b in zip(lo, hi):
            if b < a:
                raise ValueError("empty box")
            count *= b - a + 1
        self._bump(count, stream, lo)
        self.boxes.setdefault(stream, []).append((lo, hi))
        if spatial:
            # farthest corner in 1-norm
            r = sum(max(abs(a - o), abs(b - o)) for a, b, o in zip(lo, hi, self.origin))
            if r > self.radius:
                if r > self.budget.radius_cap:
                    raise BudgetExceeded("radius", self.budget.radius_cap, stream, lo)
                self.radius = r

    def inside(self, stream: str, axes: Sequence) -> np.ndarray:
        """Bool array, over the broadcast shape of coordinate `axes`, of the
        sites recorded in `stream`.  Boxes are tested per axis; points are
        matched by row, one set lookup per site that no box holds (a row of
        coordinates up to +-2^62 does not pack into one int64).
        """
        axes = [np.asarray(a, dtype=np.int64) for a in axes]
        hit = np.zeros(np.broadcast_shapes(*(a.shape for a in axes)), dtype=bool)
        for lo, hi in self.boxes.get(stream, ()):
            if len(lo) == len(axes):
                hit |= reduce(np.logical_and, [(a >= l) & (a <= h)
                                               for a, l, h in zip(axes, lo, hi)])
        pts = self.points.get(stream)
        if pts:
            flat = hit.reshape(-1)
            out = np.flatnonzero(~flat)
            cols = (np.broadcast_to(a, hit.shape).reshape(-1)[out].tolist() for a in axes)
            flat[out] = [s in pts for s in zip(*cols)]
        return hit


# streams whose coordinates are table indices, not lattice sites
NONSPATIAL_PREFIXES = ("family:", "fixture:")


@lru_cache(maxsize=1024)
def is_spatial(stream: str) -> bool:
    return not stream.startswith(NONSPATIAL_PREFIXES)


class TrackedField:
    """LabelField wrapper that records every access into a Tracker.

    Only the primitives have bodies here: `u64` records one point,
    `u64_points` its list of points, and `u64_box` and `u64_below` the
    bounding box they scan (a scan's whole box, whatever its core).
    The derived reads are LabelField's own functions, bound by name, so each
    records exactly once, through them.  Not a LabelField subclass: the raw
    `u64_grid` read would skip `base`.
    """

    def __init__(self, base: LabelField, tracker: Tracker):
        self.base = base
        self.tracker = tracker
        self.seed = base.seed

    def u64(self, stream: str, coords: Sequence[int]) -> int:
        c = tuple(map(int, coords))
        self.tracker.record(stream, c, is_spatial(stream))
        return self.base.u64(stream, c)

    def u64_points(self, stream: str, points: Sequence[tuple]) -> list[int]:
        self.tracker.record_points(stream, points, is_spatial(stream))
        return self.base.u64_points(stream, points)

    def _record_box(self, stream: str, axes: Sequence[np.ndarray]) -> None:
        """Record the bounding box of a bulk read; an empty read records nothing."""
        if all(np.size(a) for a in axes):
            lo = [int(np.min(a)) for a in axes]
            hi = [int(np.max(a)) for a in axes]
            self.tracker.record_box(stream, lo, hi, spatial=is_spatial(stream))

    def u64_box(self, stream: str, axes: Sequence[np.ndarray]) -> np.ndarray:
        self._record_box(stream, axes)
        return self.base.u64_grid(stream, axes)

    def u64_below(self, stream: str, axes: Sequence[np.ndarray], below: int,
                  core: Sequence[slice] | None = None) -> np.ndarray:
        self._record_box(stream, axes)
        return self.base.u64_below(stream, axes, below, core)

    uniform = LabelField.uniform
    coin = LabelField.coin
    discrete = LabelField.discrete
    uniform_box = LabelField.uniform_box
    coin_box = LabelField.coin_box
    discrete_box = LabelField.discrete_box


class PerturbedField(LabelField):
    """Answers like `base` inside the region `keep`, like `alt` outside it.

    A region is any object with `inside(stream, axes)`, the one membership
    rule.  Each `u64` primitive calls it once, a scalar read as a one-point
    list, and every derived read is LabelField's.  The replay tests pass a
    query's own Tracker: the perturbation of what it read must reproduce its
    answer, otherwise the tracker under-reported what the query read.
    """

    def __init__(self, base: LabelField, keep, alt: LabelField):
        self.base = base
        self.keep = keep
        self.alt = alt
        self.seed = base.seed

    def u64(self, stream: str, coords: Sequence[int]) -> int:
        return self.u64_points(stream, [tuple(map(int, coords))])[0]

    def u64_points(self, stream: str, points: Sequence[tuple]) -> list[int]:
        if not points:
            return []
        keep = self.keep.inside(stream, list(zip(*points))).tolist()
        return [(self.base if k else self.alt).u64(stream, p) for k, p in zip(keep, points)]

    def u64_grid(self, stream: str, axes: Sequence[np.ndarray]) -> np.ndarray:
        return np.where(self.keep.inside(stream, axes), self.base.u64_grid(stream, axes),
                        self.alt.u64_grid(stream, axes))

    def u64_below(self, stream: str, axes: Sequence[np.ndarray], below: int,
                  core: Sequence[slice] | None = None) -> np.ndarray:
        hit = self.u64_grid(stream, axes) < np.uint64(below)
        if not hit[tuple(map(slice, *_core_bounds(core, hit.shape)))].any():
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(hit)


@dataclass
class TrackedEvaluation:
    value: object
    tracker: Tracker

    @property
    def radius(self) -> int:
        return self.tracker.radius

    @property
    def access_count(self) -> int:
        return self.tracker.access_count


def tracked(fn, field: LabelField, origin: Sequence[int],
            budget: Budget = DEFAULT_BUDGET) -> TrackedEvaluation:
    """Run fn(tracked_field) and return its value with the access record."""
    t = Tracker(origin, budget)
    return TrackedEvaluation(fn(TrackedField(field, t)), t)


def untracked(base: LabelField) -> LabelField:
    """Return `base`: a LabelField already answers every read of the protocol."""
    return base
