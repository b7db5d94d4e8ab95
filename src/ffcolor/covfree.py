"""Cover-free set families and the color-count sequence they induce.

A family of n sets over ground set [k] is Delta-cover-free when no set is
contained in the union of any Delta others.  Random fair-bit families achieve
this at rate n ~ e^{c k} with c(Delta) = -ln(1 - 2^-Delta) / (Delta + 1); the
induced sequence n_1 < n_2 < ... (n_{i+1} = floor(e^{c n_i})) sets the color
counts used by the reduction tower.

Floors of e^{c n} are computed exactly: k <= e^{cn} holds iff
k^(Delta+1) * (2^Delta - 1)^n <= 2^(Delta n), an integer comparison, so no
precision parameter exists to tune.  Every count is decided by that test; a
float only supplies the first guess.  (This matters: at Delta=1, e^{c*6} = 8
exactly, and float64 floors it to 7.)  The sequences are cached, so each
Delta pays for its exact tests once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

# sequences stop once the next value would exceed this
N_LIMIT = 10**7

# largest delta*n decided by direct big-integer comparison
INT_CUTOFF = 1 << 18

# largest tuple count SetFamily.audit checks exhaustively
EXHAUSTIVE_LIMIT = 200_000


def cover_free_constant(delta: int) -> float:
    if delta < 1:
        raise ValueError("delta >= 1")
    return -math.log1p(-(2.0**-delta)) / (delta + 1)


def _le_exp_exact(k: int, n: int, delta: int) -> bool:
    """k <= e^{c(delta) n}, exactly."""
    if delta == 1:
        return k * k <= 1 << n
    if delta * n <= INT_CUTOFF:
        return k ** (delta + 1) * (2**delta - 1) ** n <= 1 << (delta * n)
    # For delta >= 2 the two sides are never equal (the odd factor
    # (2^delta - 1)^n cannot divide a power of two), so logarithms at
    # escalating precision always separate them.
    prec = 40
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            lhs = (Decimal(k).ln() * (delta + 1)
                   + Decimal((1 << delta) - 1).ln() * n)
            rhs = Decimal(delta * n) * Decimal(2).ln()
            eps = Decimal(10) ** (8 - prec) * (abs(rhs) + 1)
            if abs(rhs - lhs) > eps:
                return lhs <= rhs
        prec *= 2


def exact_floor_exp(n: int, delta: int) -> int:
    """floor(e^{c(delta) n}), exactly; the float floor is only the first guess."""
    x = cover_free_constant(delta) * n
    if x > math.log(N_LIMIT * 4):
        raise OverflowError(f"e^(c*{n}) beyond sequence limit")
    k = math.floor(math.exp(x))
    while _le_exp_exact(k + 1, n, delta):
        k += 1
    while not _le_exp_exact(k, n, delta):
        k -= 1
    return k


@lru_cache(maxsize=None)
def first_color_count(delta: int) -> int:
    """Smallest n >= 1 with floor(e^{cn}) > n, i.e. n+1 <= e^{cn}, exactly."""
    hi = max(4, int(3.0 / cover_free_constant(delta)))
    while not _le_exp_exact(hi + 1, hi, delta):
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _le_exp_exact(mid + 1, mid, delta):
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class ColorSequence:
    """n_1 < n_2 < ... < n_kmax for a given max degree."""

    delta: int
    n: tuple[int, ...]

    @property
    def kmax(self) -> int:
        return len(self.n)

    def n_k(self, k: int) -> int:
        return self.n[k - 1]


@lru_cache(maxsize=None)
def color_sequence(delta: int, kmax: int) -> ColorSequence:
    ns = [first_color_count(delta)]
    while len(ns) < kmax:
        try:
            nxt = exact_floor_exp(ns[-1], delta)
        except OverflowError:
            break
        if nxt > N_LIMIT:
            break
        ns.append(nxt)
    return ColorSequence(delta, tuple(ns))


# 256 MB of membership bits; levels needing more are dropped
FAMILY_BIT_CAP = 256 * 8 * 2**20


def feasible_levels(delta: int, kmax: int) -> int:
    """Largest usable tower level: every reduction family must fit the cap."""
    seq = color_sequence(delta, kmax)
    k = 1
    while k < seq.kmax:
        # reduction from level k+1 values needs n_{k+1} sets over [n_k]
        if seq.n_k(k + 1) * seq.n_k(k) > FAMILY_BIT_CAP:
            break
        k += 1
    return k


@lru_cache(maxsize=None)
def tower_schedule(delta: int, kmax: int) -> ColorSequence:
    """The tower's color counts n_1..n_K for degree `delta`, asked for kmax
    levels: K is where the sequence ends or the next reduction family would
    pass FAMILY_BIT_CAP, if that comes first.  Both tower engines read their
    levels from here."""
    if kmax < 1:
        raise ValueError("the tower needs kmax >= 1")
    return color_sequence(delta, min(kmax, feasible_levels(delta, kmax)))


def family_rows(field, stream: str, rows, ground: int) -> np.ndarray:
    """Packed words of the 0-based `rows` of a family over [ground].

    Rows are conditioned nonempty by rejection: an empty set would be covered
    by anything, and min over it is bottomless.  Attempt a reads a row's words
    at columns [a*nwords, (a+1)*nwords), so a row read alone equals the same
    row read in any batch.
    """
    nwords = (ground + 63) // 64
    tail = np.uint64((1 << (ground % 64)) - 1) if ground % 64 else None
    rows = np.asarray(rows, dtype=np.int64)[:, None]

    def read_attempt(which_rows, attempt):
        cols = np.arange(attempt * nwords, (attempt + 1) * nwords,
                         dtype=np.int64)[None, :]
        w = np.asarray(field.u64_box(stream, [which_rows, cols]), dtype=np.uint64)
        if tail is not None:
            w[:, -1] &= tail
        return w

    words = read_attempt(rows, 0)
    attempt = 1
    empty = ~words.any(axis=1)
    while empty.any():
        words[empty] = read_attempt(rows[empty], attempt)
        empty = ~words.any(axis=1)
        attempt += 1
    return words


def least_members(words: np.ndarray) -> np.ndarray:
    """Least element of each row of packed sets, 1-based; 0 for an empty row.

    words: (m, nwords) uint64, bit b of word j standing for element 64*j+b+1.
    Scans for each row's first nonzero word and isolates its lowest set bit
    with w & (~w + 1); that power of two converts to float64 exactly, and
    frexp reads off its exponent, the bit index + 1.  An empty row scans to
    word 0, isolates 0 and has exponent 0, so it reads 0.
    """
    words = np.asarray(words, dtype=np.uint64)
    first = (words != 0).argmax(axis=1)
    w = words[np.arange(words.shape[0]), first]
    low = w & (~w + np.uint64(1))
    return first * 64 + np.frexp(low.astype(np.float64))[1].astype(np.int64)


class SetFamily:
    """nsets random subsets of [ground], packed 64 bits per word.

    Membership bits come from the label field on a non-spatial stream keyed by
    (delta, level); coordinates are (row, word).  The same seed always yields
    the same family.
    """

    def __init__(self, words: np.ndarray, ground: int, stream: str):
        self.words = words  # (nsets, nwords) uint64
        self.nsets = words.shape[0]
        self.ground = ground
        self.nwords = words.shape[1]
        self.stream = stream

    @classmethod
    def build(cls, field, delta: int, level: int, ground: int,
              nsets: int) -> "SetFamily":
        if not _le_exp_exact(nsets, ground, delta):
            raise ValueError(
                f"{nsets} sets over [{ground}] is beyond the delta={delta} rate")
        if nsets * ground > FAMILY_BIT_CAP:
            raise MemoryError("family exceeds bit cap")
        stream = f"family:d{delta}/l{level}"
        return cls(family_rows(field, stream, np.arange(nsets), ground), ground, stream)

    def contains(self, row: int, element: int) -> bool:
        """element is 1-based in [ground]."""
        e = element - 1
        return bool((int(self.words[row - 1, e >> 6]) >> (e & 63)) & 1)

    # -- the reduction primitive ------------------------------------------

    def reduce_min(self, own: np.ndarray, neighbor_union: np.ndarray) -> np.ndarray:
        """min(S(own) \\ union) per row pair of packed words; 0 means empty.

        own, neighbor_union: (m, nwords) uint64.  Returns 1-based elements.
        `family_rows` zeroes the bits past `ground`, so none can be the min.
        """
        return least_members(own & ~neighbor_union)

    def audit(self, rng_tuples: np.ndarray | None = None, *,
              delta: int) -> dict:
        """Check the cover-free property.

        Exhaustive when the tuple count is at most EXHAUSTIVE_LIMIT, otherwise
        over the supplied (t, delta+1) index array of sampled tuples (rows
        1-based, distinct).
        Returns counts; defects are expected to be rare, not absent, at the
        pinned sizes.
        """
        checked = 0
        bad = 0
        import itertools

        def is_bad(i0: int, others: tuple[int, ...]) -> bool:
            u = np.zeros(self.nwords, dtype=np.uint64)
            for j in others:
                u |= self.words[j - 1]
            return not bool(np.any(self.words[i0 - 1] & ~u))

        total = self.nsets * math.comb(self.nsets - 1, delta)
        if total <= EXHAUSTIVE_LIMIT:
            for i0 in range(1, self.nsets + 1):
                rest = [j for j in range(1, self.nsets + 1) if j != i0]
                for others in itertools.combinations(rest, delta):
                    checked += 1
                    bad += is_bad(i0, others)
            mode = "exhaustive"
        else:
            if rng_tuples is None:
                raise ValueError("family too large for exhaustive audit; pass sampled tuples")
            for row in rng_tuples:
                checked += 1
                bad += is_bad(int(row[0]), tuple(int(x) for x in row[1:]))
            mode = "sampled"
        return {"mode": mode, "checked": checked, "bad": bad}
