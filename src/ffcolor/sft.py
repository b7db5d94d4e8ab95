"""One-dimensional shifts of finite type driven by sparse nets.

A subshift is the set of bi-infinite sequences over an alphabet [q] whose
every length-k window lies in an allowed word set.  Words overlap like
dominoes, so admissible sequences are exactly the bi-infinite walks of the
overlap digraph on the words.  A word whose closed-walk lengths have gcd 1
can recur at every sufficiently large time offset; anchoring it on a sparse
net and splicing fixed closed walks across the gaps turns any such subshift
into a finite-range factor of iid labels.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import gcd

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .lattice import Window
from .reduction import MNet

__all__ = [
    "SftSpec", "OverlapGraph", "CyclePlan", "LatticeRefusal", "GeneratedRun",
    "coloring_spec", "parse_spec", "recurrence_gcd",
    "classify", "choose_base", "frobenius_threshold", "build_cycle_plan",
    "generate", "verify_membership",
]


@dataclass(frozen=True)
class SftSpec:
    """Alphabet size, window length, and the allowed words, kept sorted."""

    q: int
    k: int
    words: tuple

    def __post_init__(self):
        if self.q < 1 or self.k < 1:
            raise ValueError("alphabet size and window length must be >= 1")
        seen = set()
        for w in self.words:
            if len(w) != self.k:
                raise ValueError(f"word {w} is not of length {self.k}")
            if any(not 1 <= a <= self.q for a in w):
                raise ValueError(f"word {w} has letters outside 1..{self.q}")
            if w in seen:
                raise ValueError(f"duplicate word {w}")
            seen.add(w)
        object.__setattr__(self, "words", tuple(sorted(self.words)))


def parse_spec(text: str) -> SftSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty spec text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be: q k")
    q, k = int(head[0]), int(head[1])
    words = [tuple(int(a) for a in ln.split()) for ln in lines[1:]]
    return SftSpec(q, k, tuple(words))


def coloring_spec(q: int, k: int = 2) -> SftSpec:
    """All length-k words over [q] with no two equal adjacent letters."""
    words = [(a,) for a in range(1, q + 1)] if k == 1 else None
    if k == 1:
        return SftSpec(q, 1, tuple(words))
    out = []

    def extend(prefix):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for a in range(1, q + 1):
            if not prefix or prefix[-1] != a:
                extend(prefix + [a])

    extend([])
    return SftSpec(q, k, tuple(out))


class OverlapGraph:
    """Directed graph on the words: u feeds v when u's tail equals v's head."""

    def __init__(self, spec: SftSpec):
        self.spec = spec
        self.words = spec.words
        self.index = {w: i for i, w in enumerate(self.words)}
        n = len(self.words)
        self.succ = [[] for _ in range(n)]
        heads = {}
        for j, v in enumerate(self.words):
            heads.setdefault(v[:-1], []).append(j)
        for i, u in enumerate(self.words):
            self.succ[i] = sorted(heads.get(u[1:], []))
        rows = [i for i in range(n) for _ in self.succ[i]]
        cols = [j for i in range(n) for j in self.succ[i]]
        if n:
            adj = csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)),
                             shape=(n, n))
            _, self.scc = connected_components(adj, directed=True,
                                               connection="strong")
        else:
            self.scc = np.zeros(0, dtype=int)

    def component(self, i: int) -> list[int]:
        return [j for j in range(len(self.words)) if self.scc[j] == self.scc[i]]


def recurrence_gcd(spec: SftSpec, w, graph: OverlapGraph | None = None) -> int:
    """gcd of the closed-walk lengths through w; 0 when w lies on no cycle.

    Within w's strong component, every closed-walk length is a multiple of
    the component period, and the period is attained; it equals the gcd of
    level(u) + 1 - level(v) over internal edges of any search tree.
    """
    g = graph or OverlapGraph(spec)
    w = tuple(w)
    if w not in g.index:
        raise ValueError(f"{w} is not an allowed word")
    i = g.index[w]
    comp = set(g.component(i))
    edges = [(u, v) for u in comp for v in g.succ[u] if v in comp]
    if not edges:
        return 0
    level = {i: 0}
    frontier = [i]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.succ[u]:
                if v in comp and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return reduce(gcd, (level[u] + 1 - level[v] for u, v in edges), 0)


def classify(spec: SftSpec) -> str:
    """'non-lattice' | 'lattice' | 'empty-interest'.

    Interesting subshifts need a word on a cycle; with none, no bi-infinite
    sequence exists.  Non-lattice means some word recurs at coprime times.
    """
    g = OverlapGraph(spec)
    gcds = [recurrence_gcd(spec, w, g) for w in spec.words]
    if not any(gcds):
        return "empty-interest"
    if any(v == 1 for v in gcds):
        return "non-lattice"
    return "lattice"


def choose_base(spec: SftSpec) -> tuple | None:
    """Least word with coprime recurrence times, or None."""
    g = OverlapGraph(spec)
    for w in spec.words:
        if recurrence_gcd(spec, w, g) == 1:
            return w
    return None


def _exact_reach(g: OverlapGraph, i: int, steps: int) -> np.ndarray:
    """exact_reach[s, j]: a length-s walk from word i to word j exists."""
    n = len(g.words)
    out = np.zeros((steps + 1, n), dtype=bool)
    out[0, i] = True
    for s in range(steps):
        cur = out[s]
        nxt = out[s + 1]
        for u in np.flatnonzero(cur):
            nxt[g.succ[u]] = True
    return out


def frobenius_threshold(spec: SftSpec, w,
                        graph: OverlapGraph | None = None) -> int:
    """Largest time offset at which w cannot recur.

    Needs coprime recurrence times.  An aperiodic strong component links any
    two of its words by walks of every length past the primitivity index
    (n-1)^2 + 1, so scanning exact walk lengths up to that bound decides
    every offset.
    """
    g = graph or OverlapGraph(spec)
    w = tuple(w)
    if recurrence_gcd(spec, w, g) != 1:
        raise ValueError(f"recurrence times of {w} are not coprime")
    i = g.index[w]
    n_comp = len(g.component(i))
    bound = (n_comp - 1) ** 2 + 1
    reach = _exact_reach(g, i, bound)
    hit = reach[1:, i]
    misses = np.flatnonzero(~hit)
    return int(misses[-1]) + 1 if len(misses) else 0


@dataclass(frozen=True)
class CyclePlan:
    """Base word, its recurrence threshold, and one fixed closed walk per
    realizable gap length."""

    w: tuple
    m: int
    cycles: dict

    @property
    def net_spacing(self) -> int:
        return max(self.m, 1)

    @cached_property
    def first_letters(self) -> np.ndarray:
        """first_letters[t, off]: first letter of the word `off` steps into the
        closed walk for gap t, an int16 table of shape (2*span + 2, 2*span + 1).

        Rows below span+1 are unused and hold 0; column 0 of every gap row is
        the base word's first letter.
        """
        span = self.net_spacing
        out = np.zeros((2 * span + 2, 2 * span + 1), dtype=np.int16)
        for t, cyc in self.cycles.items():
            out[t, :t] = [y[0] for y in cyc[:t]]
        return out


def _lex_closed_walk(g: OverlapGraph, i: int, t: int) -> list[int]:
    """Least closed walk of length exactly t through word i."""
    back = np.zeros((t + 1, len(g.words)), dtype=bool)
    back[0, i] = True
    for s in range(t):
        src = np.flatnonzero(back[s])
        for u in range(len(g.words)):
            if any(v in src for v in g.succ[u]):
                back[s + 1, u] = True
    if not back[t, i]:
        raise ValueError(f"no closed walk of length {t}")
    walk = [i]
    cur = i
    for s in range(t, 0, -1):
        cur = next(v for v in g.succ[cur] if back[s - 1, v])
        walk.append(cur)
    return walk


def build_cycle_plan(spec: SftSpec, w=None) -> CyclePlan:
    g = OverlapGraph(spec)
    w = tuple(w) if w is not None else choose_base(spec)
    if w is None or recurrence_gcd(spec, w, g) != 1:
        raise ValueError("cycle plan needs a word with coprime recurrences")
    m = frobenius_threshold(spec, w, g)
    i = g.index[w]
    span = max(m, 1)
    cycles = {}
    for t in range(span + 1, 2 * span + 2):
        walk = _lex_closed_walk(g, i, t)
        cycles[t] = tuple(g.words[j] for j in walk)
    return CyclePlan(w, m, cycles)


@lru_cache(maxsize=64)
def _kind_and_plan(spec: SftSpec) -> tuple[str, CyclePlan | None]:
    """`classify(spec)`, and the cycle plan when the spec is non-lattice.

    A pure function of the spec, built once: it costs three overlap graphs
    and their strong components, a third of a short window's `generate`.
    Every call gets the same plan object, which `generate` only reads.
    """
    kind = classify(spec)
    return kind, build_cycle_plan(spec) if kind == "non-lattice" else None


class LatticeRefusal(Exception):
    """The subshift admits no mixing process, so no iid-driven generator."""


@dataclass
class GeneratedRun:
    letters: np.ndarray
    window: Window
    w: tuple
    m: int
    net_points: np.ndarray
    gaps: np.ndarray
    reach: np.ndarray


def generate(spec: SftSpec, field, window: Window) -> GeneratedRun:
    """A sample of the subshift on a window, anchored on an m-net.

    Net points carry the base word; each gap is spliced with the fixed
    closed walk of its exact length, and every site emits the first letter
    of its word.  `reach` holds each site's distance to the farther of its
    two anchoring net points (the block reach on top of the net process).

    The splice is three array passes over the core: each site p finds its
    gap g by `searchsorted(net_points, p, side="right") - 1`, sits `off =
    p - net_points[g]` steps into it, emits `plan.first_letters[t, off]` for
    the gap's length t and reaches `max(off, t - off)`.  A net point has
    off = 0: it emits the base word's first letter whether or not a gap
    starts there, and its reach is 0, since it knows its word from its own
    indicator alone.
    """
    kind, plan = _kind_and_plan(spec)
    if plan is None:
        raise LatticeRefusal(
            f"{kind} subshift: no mixing process lies in it, refusing")
    span = plan.net_spacing
    net = MNet(1, span, "l1")
    core_lo = int(window.origin[0])
    core_n = int(window.extent[0])
    pad = 4 * (span + 1)
    while True:
        grown = window.grow(pad)
        nw = net.window(grown, field)
        lo = int(grown.origin[0])
        a = core_lo - lo - (2 * span + 2)
        b = core_lo - lo + core_n + (2 * span + 2)
        if not nw.tainted[a:b].any():
            break
        pad *= 2
    ones = np.flatnonzero(nw.indicator[a:b]) + lo + a
    if len(ones) < 2 or ones[0] > core_lo or ones[-1] < core_lo + core_n - 1:
        raise RuntimeError("net points do not bracket the window")
    gaps = np.diff(ones)
    bad = (gaps < span + 1) | (gaps > 2 * span + 1)
    if bad.any():
        t = int(gaps[bad.argmax()])
        raise RuntimeError(f"net gap {t} outside [{span + 1}, {2 * span + 1}]")
    p = np.arange(core_lo, core_lo + core_n)
    g = np.searchsorted(ones, p, side="right") - 1
    off = p - ones[g]
    # the last net point starts no gap; at off = 0 every gap row reads w[0]
    t = np.append(gaps, span + 1)[g]
    letters = plan.first_letters[t, off]
    reach = np.where(off == 0, 0, np.maximum(off, t - off)).astype(np.int32)
    return GeneratedRun(letters, window, plan.w, plan.m, ones, gaps, reach)


@lru_cache(maxsize=64)
def _word_rows(spec: SftSpec) -> tuple[np.dtype, np.ndarray]:
    """The letter type, and the spec's words as sorted k-letter void scalars.

    Letters are stored in the least unsigned type that holds q + 1, and one
    more word of k letters q + 1 is added: `verify_membership` maps every
    letter outside 1..q to 0, so no window equals it, and the table is never
    empty.
    """
    dt = np.min_scalar_type(spec.q + 1)
    rows = np.array(spec.words + ((spec.q + 1,) * spec.k,), dtype=dt)
    return dt, np.sort(rows.view(np.dtype((np.void, rows.itemsize * spec.k))).ravel())


def verify_membership(x, spec: SftSpec) -> list[int]:
    """Start offsets (0-based) of the length-k windows outside the word set.

    Each window is one row of letters, compared whole with the sorted word
    rows; a letter outside 1..q is read as 0, which no word holds.
    """
    x = np.asarray(x).ravel()
    k = spec.k
    n = len(x) - k + 1
    if n < 1:
        raise ValueError(f"need at least {k} letters")
    dt, words = _word_rows(spec)
    letters = np.where((x > 0) & (x < spec.q + 1), x, 0).astype(dt)
    rows = np.empty((n, k), dtype=dt)
    for j in range(k):
        rows[:, j] = letters[j:j + n]
    rows = rows.view(words.dtype).ravel()
    pos = np.minimum(np.searchsorted(words, rows), len(words) - 1)
    return np.flatnonzero(words[pos] != rows).tolist()
