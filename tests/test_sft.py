"""Tests for the one-dimensional subshift module."""

import hashlib
from functools import reduce
from itertools import product
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor import sft
from ffcolor.field import LabelField
from ffcolor.lattice import Window
from ffcolor.sft import (LatticeRefusal, OverlapGraph, SftSpec, build_cycle_plan,
                         choose_base, classify, coloring_spec, generate, parse_spec,
                         recurrence_gcd, verify_membership)

PETAL = SftSpec(6, 2, ((1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 6), (6, 1)))
ONE_LETTER = SftSpec(2, 1, ((1,), (2,)))
# non-lattice specs with m = 0, 0, 1, 1, 3 (k = 3), 5 and 7
SPLICE_SPECS = [
    ONE_LETTER, SftSpec(2, 2, ((1, 1), (1, 2), (2, 1))), coloring_spec(3),
    coloring_spec(4), coloring_spec(3, 3),
    SftSpec(5, 2, ((1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 1))), PETAL,
]


# -- specs and parsing ---------------------------------------------------------

def test_spec_roundtrip():
    spec = coloring_spec(3)
    assert len(spec.words) == 6
    lines = [f"{spec.q} {spec.k}"] + [" ".join(map(str, w)) for w in spec.words]
    again = parse_spec("\n".join(lines) + "\n")
    assert again == spec
    assert (1, 2) in again.words and (1, 1) not in again.words


def test_spec_validation():
    with pytest.raises(ValueError):
        SftSpec(3, 2, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        SftSpec(3, 2, ((1, 4),))
    with pytest.raises(ValueError):
        SftSpec(3, 2, ((1, 2, 3),))
    with pytest.raises(ValueError):
        parse_spec("")
    with pytest.raises(ValueError):
        parse_spec("3\n1 2\n")


def test_spec_stores_words_as_int_tuples():
    spec = SftSpec(2, 2, ([2, 1], np.array([1, 2])))
    assert spec.words == ((1, 2), (2, 1))
    assert all(type(a) is int for w in spec.words for a in w)
    assert spec == SftSpec(2, 2, ((1, 2), (2, 1)))
    with pytest.raises(ValueError, match="duplicate"):
        SftSpec(2, 2, ([1, 2], (1, 2)))


@pytest.mark.parametrize("word", [(1, True), (1, 2.0), (1, "2"), "12", 12])
def test_spec_refuses_letters_that_are_not_ints(word):
    with pytest.raises(ValueError):
        SftSpec(2, 2, (word,))


def test_overlap_edges():
    g = OverlapGraph(coloring_spec(3))
    succ = {g.words[i]: {g.words[j] for j in g.succ[i]}
            for i in range(len(g.words))}
    assert succ[(1, 2)] == {(2, 1), (2, 3)}
    assert succ[(3, 1)] == {(1, 2), (1, 3)}


# -- recurrence and classification ----------------------------------------------

def test_recurrence_gcd_examples():
    assert recurrence_gcd(coloring_spec(2), (1, 2)) == 2
    assert recurrence_gcd(coloring_spec(3), (1, 2)) == 1
    dead = SftSpec(3, 2, ((1, 2), (2, 3)))
    assert recurrence_gcd(dead, (1, 2)) == 0
    assert recurrence_gcd(dead, (2, 3)) == 0
    with pytest.raises(ValueError):
        recurrence_gcd(coloring_spec(3), (1, 1))


def test_classification_of_colorings():
    got = {q: classify(coloring_spec(q)) for q in (1, 2, 3, 4, 5)}
    assert got == {1: "empty-interest", 2: "lattice", 3: "non-lattice",
                   4: "non-lattice", 5: "non-lattice"}


def test_classification_edge_cases():
    assert classify(SftSpec(3, 2, ((1, 2), (2, 3)))) == "empty-interest"
    assert classify(SftSpec(2, 2, ((1, 1), (1, 2)))) == "non-lattice"
    assert classify(PETAL) == "non-lattice"


def test_classification_is_relabeling_invariant():
    rng = np.random.default_rng(2)
    for spec in (coloring_spec(2), coloring_spec(3), PETAL,
                 SftSpec(3, 3, ((1, 2, 1), (2, 1, 2), (1, 2, 3),
                                (2, 3, 1), (3, 1, 2)))):
        for _ in range(5):
            perm = rng.permutation(spec.q) + 1
            words = tuple(tuple(int(perm[a - 1]) for a in w)
                          for w in spec.words)
            assert classify(SftSpec(spec.q, spec.k, words)) == classify(spec)


def test_choose_base_is_least_coprime_word():
    assert choose_base(coloring_spec(3)) == (1, 2)
    assert choose_base(coloring_spec(2)) is None
    assert choose_base(PETAL) == (1, 2)


# -- recurrence thresholds -------------------------------------------------------

def test_threshold_for_walk_lengths_two_and_three():
    assert build_cycle_plan(coloring_spec(3), (1, 2)).m == 1


def test_threshold_for_walk_lengths_three_and_five():
    assert build_cycle_plan(PETAL, (1, 2)).m == 7


def test_threshold_of_self_loop_is_zero():
    assert build_cycle_plan(SftSpec(2, 2, ((1, 1), (1, 2), (2, 1))), (1, 1)).m == 0


def test_threshold_requires_coprime_recurrences():
    with pytest.raises(ValueError):
        build_cycle_plan(coloring_spec(2), (1, 2))


# -- cycle plans -----------------------------------------------------------------

def test_cycle_plan_walks_are_valid_and_frozen():
    plan = build_cycle_plan(coloring_spec(3))
    assert plan.w == (1, 2) and plan.m == 1
    assert sorted(plan.cycles) == [2, 3]
    assert plan.cycles[2] == ((1, 2), (2, 1), (1, 2))
    assert plan.cycles[3] == ((1, 2), (2, 3), (3, 1), (1, 2))


def test_cycle_plan_covers_every_gap_length():
    plan = build_cycle_plan(PETAL)
    assert sorted(plan.cycles) == list(range(8, 16))
    g = OverlapGraph(PETAL)
    for t, cyc in plan.cycles.items():
        assert len(cyc) == t + 1
        assert cyc[0] == cyc[-1] == plan.w
        for u, v in zip(cyc, cyc[1:]):
            assert g.index[v] in g.succ[g.index[u]]


def _plan_by_walk_lengths(spec):
    """Reference plan builder: scan every walk length up to (n-1)^2 + 1.

    Returns each word's recurrence gcd, and, per word of gcd 1, its
    threshold and its least closed walk for every gap length.  Plain
    matrix powers over all n words, with no strong components and no
    stopping rule; powers run to 2n^2 + 3, past every gap length and far
    enough that the gcd of a periodic word is reached too.
    """
    words, n = spec.words, len(spec.words)
    adj = np.array([[u[1:] == v[:-1] for v in words] for u in words],
                   dtype=np.int64).reshape(n, n)
    power = [np.eye(n, dtype=np.int64)]
    for _ in range(2 * n * n + 3):
        power.append(np.minimum(power[-1] @ adj, 1))
    gcds = [reduce(gcd, [s for s in range(1, len(power)) if power[s][i, i]], 0)
            for i in range(n)]
    plans = {}
    for i in (i for i in range(n) if gcds[i] == 1):
        misses = [s for s in range(1, (n - 1) ** 2 + 2) if not power[s][i, i]]
        m = misses[-1] if misses else 0
        span = max(m, 1)
        cycles = {}
        for t in range(span + 1, 2 * span + 2):
            walk = [i]
            for s in range(t - 1, -1, -1):
                walk.append(next(v for v in range(n)
                                 if adj[walk[-1], v] and power[s][v, i]))
            cycles[t] = tuple(words[j] for j in walk)
        plans[words[i]] = (words[i], m, cycles)
    return gcds, plans


@st.composite
def _word_set(draw):
    q, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pool = list(product(range(1, q + 1), repeat=k))
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    return SftSpec(q, k, tuple(w for w, b in zip(pool, keep) if b))


@given(_word_set())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_plan_builder_matches_walk_length_scan(spec):
    gcds, plans = _plan_by_walk_lengths(spec)
    assert [recurrence_gcd(spec, w) for w in spec.words] == gcds
    kind = ("empty-interest" if not any(gcds) else
            "non-lattice" if 1 in gcds else "lattice")
    assert classify(spec) == kind
    assert choose_base(spec) == next(iter(plans), None)
    for w, d in zip(spec.words, gcds):
        if d != 1:
            with pytest.raises(ValueError, match="coprime recurrences"):
                build_cycle_plan(spec, w)
            continue
        plan = build_cycle_plan(spec, w)
        assert (plan.w, plan.m, plan.cycles) == plans[w]
    if plans:
        plan = build_cycle_plan(spec)
        assert (plan.w, plan.m, plan.cycles) == plans[spec.words[gcds.index(1)]]
    else:
        with pytest.raises(ValueError, match="coprime recurrences"):
            build_cycle_plan(spec)


def test_plan_builder_refuses_words_outside_the_spec():
    for f in (recurrence_gcd, build_cycle_plan):
        with pytest.raises(ValueError, match=r"^\(1, 1\) is not an allowed word$"):
            f(coloring_spec(3), (1, 1))


# pinned from the scan over every walk length up to (n-1)^2 + 1
@pytest.mark.parametrize("q, k, w, m, digest", [
    (5, 3, (1, 2, 1), 3,
     "ed49b7b1255514283d0068ce7c50d4b6eb98d472ecbf92fccd9d55ea3f4ea593"),
    (6, 3, (1, 2, 1), 3,
     "ed49b7b1255514283d0068ce7c50d4b6eb98d472ecbf92fccd9d55ea3f4ea593"),
])
def test_larger_coloring_plans_are_pinned(q, k, w, m, digest):
    plan = build_cycle_plan(coloring_spec(q, k))
    assert (plan.w, plan.m) == (w, m)
    cycles = repr(sorted(plan.cycles.items())).encode()
    assert hashlib.sha256(cycles).hexdigest() == digest


def test_coloring_spec_words():
    assert coloring_spec(3, 1).words == ((1,), (2,), (3,))
    assert coloring_spec(2, 3).words == ((1, 2, 1), (2, 1, 2))
    assert coloring_spec(1, 2).words == ()
    for q, k in ((3, 2), (4, 3), (3, 4)):
        want = [w for w in product(range(1, q + 1), repeat=k)
                if all(a != b for a, b in zip(w, w[1:]))]
        assert coloring_spec(q, k).words == tuple(want)
        assert len(want) == q * (q - 1) ** (k - 1)


# -- generation ------------------------------------------------------------------

def test_generate_three_coloring_window():
    spec = coloring_spec(3)
    run = generate(spec, LabelField(9), Window((0,), (2000,)))
    assert verify_membership(run.letters, spec) == []
    assert run.m == 1
    assert set(np.unique(run.gaps)) <= {2, 3}
    inside = run.net_points[(run.net_points >= 0) & (run.net_points < 1999)]
    for p in inside:
        assert tuple(run.letters[p:p + 2]) == run.w
    assert run.reach.max() <= 2 * max(run.m, 1) + 1
    assert (run.reach[inside] == 0).all()


def test_generate_is_deterministic():
    spec = coloring_spec(3)
    a = generate(spec, LabelField(9), Window((-300,), (900,)))
    b = generate(spec, LabelField(9), Window((-300,), (900,)))
    assert np.array_equal(a.letters, b.letters)
    assert np.array_equal(a.net_points, b.net_points)


def test_generate_petal_spec():
    run = generate(PETAL, LabelField(4), Window((0,), (1500,)))
    assert verify_membership(run.letters, PETAL) == []
    assert run.m == 7
    assert run.gaps.min() >= 8 and run.gaps.max() <= 15
    assert set(np.unique(run.letters)) <= set(range(1, 7))


def test_generate_single_letter_windows():
    spec = ONE_LETTER
    assert classify(spec) == "non-lattice"
    run = generate(spec, LabelField(5), Window((0,), (400,)))
    assert verify_membership(run.letters, spec) == []
    assert run.m == 0


def test_generate_refuses_lattice_and_empty():
    with pytest.raises(LatticeRefusal):
        generate(coloring_spec(2), LabelField(5), Window((0,), (50,)))
    with pytest.raises(LatticeRefusal):
        generate(SftSpec(3, 2, ((1, 2), (2, 3))), LabelField(5),
                 Window((0,), (50,)))


def test_generate_builds_each_plan_once(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(sft, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("classify", "build_cycle_plan"):
        monkeypatch.setattr(sft, name, counted(name))
    sft._kind_and_plan.cache_clear()
    spec = SftSpec(5, 2, ((1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 1)))
    runs = [generate(spec, LabelField(s), Window((0,), (300,))) for s in (1, 2, 1)]
    assert calls == ["classify", "build_cycle_plan"]
    sft._kind_and_plan.cache_clear()
    fresh = generate(spec, LabelField(1), Window((0,), (300,)))
    assert np.array_equal(runs[0].letters, fresh.letters)
    assert np.array_equal(runs[2].letters, fresh.letters)
    refused = coloring_spec(2)
    messages = []
    for _ in range(2):
        with pytest.raises(LatticeRefusal) as e:
            generate(refused, LabelField(5), Window((0,), (50,)))
        messages.append(str(e.value))
    assert messages[0] == messages[1] == "lattice subshift: no mixing process lies in it, refusing"


def _splice_by_gap(plan, ones, core_lo, core_n):
    """Reference splice: one gap at a time, as `generate` once did."""
    span = plan.net_spacing
    firsts = {t: np.array([y[0] for y in cyc], dtype=np.int16)
              for t, cyc in plan.cycles.items()}
    letters = np.zeros(core_n, dtype=np.int16)
    reach = np.zeros(core_n, dtype=np.int32)
    gaps = np.diff(ones)
    for i, t in zip(ones[:-1], gaps):
        t = int(t)
        if not span + 1 <= t <= 2 * span + 1:
            raise RuntimeError(f"net gap {t} outside [{span + 1}, {2 * span + 1}]")
        p0, p1 = max(int(i), core_lo), min(int(i) + t, core_lo + core_n)
        if p0 >= p1:
            continue
        idx = np.arange(p0, p1)
        letters[idx - core_lo] = firsts[t][idx - int(i)]
        reach[idx - core_lo] = np.maximum(idx - int(i), int(i) + t - idx)
    last = int(ones[-1])
    if core_lo <= last < core_lo + core_n:
        letters[last - core_lo] = plan.w[0]
    inside = ones[(ones >= core_lo) & (ones < core_lo + core_n)]
    reach[inside - core_lo] = 0
    return letters, reach


@given(st.sampled_from(SPLICE_SPECS), st.integers(0, 2**32 - 1),
       st.integers(-10**6, 10**6), st.integers(1, 400))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generate_matches_per_gap_splice(spec, seed, origin, extent):
    run = generate(spec, LabelField(seed), Window((origin,), (extent,)))
    plan = build_cycle_plan(spec)
    letters, reach = _splice_by_gap(plan, run.net_points, origin, extent)
    assert run.letters.dtype == np.int16 and run.reach.dtype == np.int32
    assert np.array_equal(run.letters, letters)
    assert np.array_equal(run.reach, reach)
    assert np.array_equal(run.gaps, np.diff(run.net_points))
    if extent >= spec.k:
        assert verify_membership(run.letters, spec) == []


def _stub_net(monkeypatch, points):
    """Make `generate` see a net whose points are exactly `points`, untainted."""
    def window(grown, field):
        lo, n = int(grown.origin[0]), int(grown.extent[0])
        indicator = np.zeros(n, dtype=bool)
        indicator[[p - lo for p in points if lo <= p < lo + n]] = True
        return SimpleNamespace(indicator=indicator, tainted=np.zeros(n, dtype=bool))
    monkeypatch.setattr(sft, "MNet", lambda *args: SimpleNamespace(window=window))


def test_generate_names_first_gap_out_of_range(monkeypatch):
    # coloring_spec(3) allows gaps 2 and 3; the gap of 4 left of the core
    # comes before the gap of 1 inside it
    points = [-4, 0, 1, 3, 5, 7, 9, 11]
    _stub_net(monkeypatch, points)
    with pytest.raises(RuntimeError, match=r"^net gap 4 outside \[2, 3\]$"):
        generate(coloring_spec(3), LabelField(0), Window((0,), (8,)))
    with pytest.raises(RuntimeError) as e:
        _splice_by_gap(build_cycle_plan(coloring_spec(3)), np.array(points), 0, 8)
    assert str(e.value) == "net gap 4 outside [2, 3]"


@pytest.mark.parametrize("points", [[], [3], [1, 3, 5, 7], [-1, 1, 3, 5]])
def test_generate_refuses_unbracketed_window(monkeypatch, points):
    _stub_net(monkeypatch, points)
    with pytest.raises(RuntimeError, match="^net points do not bracket the window$"):
        generate(coloring_spec(3), LabelField(0), Window((0,), (8,)))


# -- membership ------------------------------------------------------------------

def test_membership_examples():
    spec = coloring_spec(3)
    assert verify_membership([1, 2, 1, 2, 1, 2], spec) == []
    assert verify_membership([1, 1, 2, 3], spec) == [0]
    assert verify_membership([1, 2, 2, 3, 3], spec) == [1, 3]
    with pytest.raises(ValueError):
        verify_membership([1], spec)


def _membership_by_loop(x, spec):
    """Reference membership check: one tuple lookup per window."""
    x = [int(a) for a in np.asarray(x).ravel()]
    if len(x) < spec.k:
        raise ValueError(f"need at least {spec.k} letters")
    allowed = set(spec.words)
    return [i for i in range(len(x) - spec.k + 1)
            if tuple(x[i:i + spec.k]) not in allowed]


# q = 1000, k = 7: q^k is past int64, and letters need two bytes
WIDE = SftSpec(1000, 7, ((1, 2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 1000),
                         (1000, 999, 1, 1, 1, 256, 1), (7, 1, 2, 3, 4, 5, 6)))
MEMBERSHIP_SPECS = [coloring_spec(3), coloring_spec(3, 3), ONE_LETTER, PETAL,
                    SftSpec(255, 2, ((255, 1), (1, 255), (255, 255))),
                    SftSpec(4, 2, ()), WIDE]


@st.composite
def _membership_case(draw):
    spec = draw(st.sampled_from(MEMBERSHIP_SPECS))
    # mostly walks through allowed words, with letters 0, negative and > q,
    # and q + 256 (which wraps to a legal byte) spliced in
    n = draw(st.integers(spec.k, 60))
    letters = []
    while len(letters) < n:
        if spec.words and draw(st.booleans()):
            letters.extend(draw(st.sampled_from(spec.words)))
        else:
            letters.append(draw(st.sampled_from(
                [0, -1, -spec.q, spec.q + 1, spec.q + 256, 1, spec.q])))
    return spec, letters[:n]


@given(_membership_case(), st.sampled_from([np.int64, np.int16, object]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_membership_matches_loop(case, dtype):
    spec, letters = case
    x = np.array(letters, dtype=dtype)
    assert verify_membership(x, spec) == _membership_by_loop(x, spec)


def test_membership_of_wide_spec():
    word = [1000, 999, 1, 1, 1, 256, 1]
    assert verify_membership(word, WIDE) == []
    # a one-byte type would read 256 as 0 and 1000 as 232
    assert verify_membership([232, 999, 1, 1, 1, 0, 1], WIDE) == [0]
    assert verify_membership([1, 2, 3, 4, 5, 6, 7, 1000, 1], WIDE) == [2]
    with pytest.raises(ValueError, match="need at least 7 letters"):
        verify_membership(word[:6], WIDE)
