"""Tests for the one-dimensional subshift module."""

import numpy as np
import pytest

from ffcolor import sft
from ffcolor.field import LabelField
from ffcolor.lattice import Window
from ffcolor.sft import (CyclePlan, LatticeRefusal, OverlapGraph, SftSpec,
                         build_cycle_plan, choose_base, classify,
                         coloring_spec, frobenius_threshold, generate,
                         parse_spec, recurrence_gcd, verify_membership)

PETAL = SftSpec(6, 2, ((1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 6), (6, 1)))


# -- specs and parsing ---------------------------------------------------------

def test_spec_roundtrip():
    spec = coloring_spec(3)
    assert len(spec.words) == 6
    lines = [f"{spec.q} {spec.k}"] + [" ".join(map(str, w)) for w in spec.words]
    again = parse_spec("\n".join(lines) + "\n")
    assert again == spec
    assert (1, 2) in again and (1, 1) not in again


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
    assert frobenius_threshold(coloring_spec(3), (1, 2)) == 1


def test_threshold_for_walk_lengths_three_and_five():
    assert frobenius_threshold(PETAL, (1, 2)) == 7


def test_threshold_of_self_loop_is_zero():
    assert frobenius_threshold(SftSpec(2, 2, ((1, 1), (1, 2), (2, 1))),
                               (1, 1)) == 0


def test_threshold_requires_coprime_recurrences():
    with pytest.raises(ValueError):
        frobenius_threshold(coloring_spec(2), (1, 2))


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
    spec = SftSpec(2, 1, ((1,), (2,)))
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


# -- membership ------------------------------------------------------------------

def test_membership_examples():
    spec = coloring_spec(3)
    assert verify_membership([1, 2, 1, 2, 1, 2], spec) == []
    assert verify_membership([1, 1, 2, 3], spec) == [0]
    assert verify_membership([1, 2, 2, 3, 3], spec) == [1, 3]
    with pytest.raises(ValueError):
        verify_membership([1], spec)
