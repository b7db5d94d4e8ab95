"""One-dimensional shifts of finite type driven by sparse nets.

A subshift is the set of bi-infinite sequences over an alphabet [q] whose
every length-k window lies in an allowed word set.  Words overlap like
dominoes, so admissible sequences are exactly the bi-infinite walks of the
overlap digraph on the words.  A word whose closed-walk lengths have gcd 1
can recur at every sufficiently large time offset; anchoring it on a sparse
net and splicing fixed closed walks across the gaps turns any such subshift
into a finite-range factor of iid labels.

The cycle plan rests on two facts about the overlap graph.

1. A word's recurrence gcd is the period of its strong component: every
   closed walk through a word stays in its component, and the component's
   words split into period-many classes that each edge advances by one.
   One search tree per component gives levels, and the period is the gcd
   of level(u) + 1 - level(v) over the component's edges: this sums to the
   length of any closed walk, and is 0 mod the period on every edge.
2. One table answers the rest.  back[s, u] says that some walk of length
   s leads from word u to the base word w.  Column w gives the recurrence
   threshold m, the last s >= 1 with back[s, w] false.  The same table
   gives the lexicographically least closed walk of each length t: from w,
   with s steps left after a step, the step goes to the least successor v
   with back[s, v].
   The table stops at the first s where every word of w's component
   reaches w, and that is exact.  Each word of the component has a
   successor inside it, so back[s + 1] covers the component too, and so
   does every later row.  A closed walk through w never leaves the
   component, and no successor of a component word outside it reaches w,
   so every later row equals the last on the words such a walk looks at.
   Wielandt's bound (n-1)^2 + 1 on the primitivity index of an aperiodic
   component of n words guarantees that the stop comes.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .lattice import Window
from .reduction import MNet

__all__ = [
    "SftSpec", "OverlapGraph", "CyclePlan", "LatticeRefusal", "GeneratedRun",
    "coloring_spec", "parse_spec", "recurrence_gcd",
    "classify", "choose_base", "build_cycle_plan",
    "generate", "verify_membership",
]


@dataclass(frozen=True)
class SftSpec:
    """Alphabet size, window length, and the allowed words, kept sorted.

    Each word is stored as a tuple of Python ints, whatever sequence of
    integer letters it was given as; bools and other letters are refused.
    """

    q: int
    k: int
    words: tuple

    def __post_init__(self):
        if self.q < 1 or self.k < 1:
            raise ValueError("alphabet size and window length must be >= 1")
        seen = set()
        for w in self.words:
            try:
                letters = tuple(w)
            except TypeError:
                raise ValueError(f"word {w!r} is not a sequence of letters") from None
            if len(letters) != self.k:
                raise ValueError(f"word {w} is not of length {self.k}")
            if not all(isinstance(a, (int, np.integer)) and not isinstance(a, bool)
                       for a in letters):
                raise ValueError(f"word {w!r} has a letter that is not an int")
            letters = tuple(int(a) for a in letters)
            if any(not 1 <= a <= self.q for a in letters):
                raise ValueError(f"word {w} has letters outside 1..{self.q}")
            if letters in seen:
                raise ValueError(f"duplicate word {w}")
            seen.add(letters)
        object.__setattr__(self, "words", tuple(sorted(seen)))


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
    words = [w for w in product(range(1, q + 1), repeat=k)
             if all(a != b for a, b in zip(w, w[1:]))]
    return SftSpec(q, k, tuple(words))


class OverlapGraph:
    """Directed graph on the words: u feeds v when u's tail equals v's head.

    `period[i]` is the period of word i's strong component, which is the
    gcd of the closed-walk lengths through word i (0 off every cycle), and
    `base` is the least word of period 1, or None.
    """

    def __init__(self, spec: SftSpec):
        self.words = spec.words
        self.index = {w: i for i, w in enumerate(self.words)}
        n = len(self.words)
        heads = {}
        for j, v in enumerate(self.words):
            heads.setdefault(v[:-1], []).append(j)
        self.succ = [heads.get(u[1:], []) for u in self.words]
        rows = np.array([i for i in range(n) for _ in self.succ[i]], dtype=int)
        cols = np.array([j for s in self.succ for j in s], dtype=int)
        self.adj = csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)),
                              shape=(n, n))
        _, self.scc = connected_components(self.adj, directed=True,
                                           connection="strong")
        # levels of one search tree per component, over internal edges only
        scc, level = self.scc.tolist(), [-1] * n
        for root in range(n):
            if level[root] >= 0:
                continue
            level[root] = 0
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in self.succ[u]:
                        if level[v] < 0 and scc[v] == scc[u]:
                            level[v] = level[u] + 1
                            nxt.append(v)
                frontier = nxt
        level = np.array(level, dtype=int)
        inner = self.scc[rows] == self.scc[cols]
        period = np.zeros(n, dtype=int)
        np.gcd.at(period, self.scc[rows[inner]],
                  level[rows[inner]] + 1 - level[cols[inner]])
        self.period = period[self.scc].tolist()
        self.base = next((w for w, p in zip(self.words, self.period) if p == 1),
                         None)

    def position(self, w) -> int:
        w = tuple(w)
        if w not in self.index:
            raise ValueError(f"{w} is not an allowed word")
        return self.index[w]

    def walks_home(self, i: int) -> np.ndarray:
        """back[s, u]: some walk of length s leads from word u to word i.

        Word i must have period 1.  Rows stop at the first s where every word
        of i's component reaches i; every longer length reaches too.
        """
        comp = self.scc == self.scc[i]
        back = [np.zeros(len(self.words), dtype=bool)]
        back[0][i] = True
        while not back[-1][comp].all():
            back.append(self.adj @ back[-1])
        return np.array(back)


def recurrence_gcd(spec: SftSpec, w) -> int:
    """gcd of the closed-walk lengths through w; 0 when w lies on no cycle."""
    g = OverlapGraph(spec)
    return g.period[g.position(w)]


def classify(spec: SftSpec) -> str:
    """'non-lattice' | 'lattice' | 'empty-interest'.

    Interesting subshifts need a word on a cycle; with none, no bi-infinite
    sequence exists.  Non-lattice means some word recurs at coprime times.
    """
    period = OverlapGraph(spec).period
    if not any(period):
        return "empty-interest"
    return "non-lattice" if 1 in period else "lattice"


def choose_base(spec: SftSpec) -> tuple | None:
    """Least word with coprime recurrence times, or None."""
    return OverlapGraph(spec).base


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


def build_cycle_plan(spec: SftSpec, w=None) -> CyclePlan:
    """The cycle plan of w, by default the least word of period 1.

    The closed walk for gap t is the lexicographically least one: from w,
    each step takes the least successor that still reaches w in the steps
    left, read from row min(s, last) of the `walks_home` table.
    """
    g = OverlapGraph(spec)
    w = g.base if w is None else g.words[g.position(w)]
    if w is None or g.period[g.index[w]] != 1:
        raise ValueError("cycle plan needs a word with coprime recurrences")
    i = g.index[w]
    back = g.walks_home(i)
    # m: the largest length s >= 1 of no closed walk through w, or 0
    misses = np.flatnonzero(~back[1:, i])
    m = int(misses[-1]) + 1 if len(misses) else 0
    span = max(m, 1)
    cycles = {}
    for t in range(span + 1, 2 * span + 2):
        walk = [i]
        for s in range(t - 1, -1, -1):
            row = back[min(s, len(back) - 1)]
            walk.append(next(v for v in g.succ[walk[-1]] if row[v]))
        cycles[t] = tuple(g.words[j] for j in walk)
    return CyclePlan(w, m, cycles)


@lru_cache(maxsize=64)
def _kind_and_plan(spec: SftSpec) -> tuple[str, CyclePlan | None]:
    """`classify(spec)`, and the cycle plan when the spec is non-lattice.

    A pure function of the spec, built once: it costs two overlap graphs,
    one each in `classify` and `build_cycle_plan`.
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
