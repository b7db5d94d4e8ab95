"""Color-count sequences and random set families.

The n_k tables asserted here were computed independently with exact integer
arithmetic (k <= e^{cn} iff k^(delta+1) * (2^delta - 1)^n <= 2^(delta*n)) and
cross-checked at 60-digit precision; they are frozen oracle values.  The
delta=1 sequence is the interesting one: e^{6c} = 8 exactly, which float64
floors to 7, so the boundary case guards the exact path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcolor.covfree import (
    FAMILY_BIT_CAP,
    ColorSequence,
    SetFamily,
    family_rows,
    color_sequence,
    cover_free_constant,
    exact_floor_exp,
    feasible_levels,
    first_color_count,
    tower_schedule,
)
from ffcolor.field import LabelField, Tracker, TrackedField


def infeasible_family(field, delta: int, ground: int, nsets: int) -> SetFamily:
    """The level-1 family `SetFamily.build` would draw, built past its rate check."""
    stream = f"family:d{delta}/l1"
    return SetFamily(family_rows(field, stream, np.arange(nsets), ground), ground, stream)


def sample_tuples(field, nsets: int, delta: int, count: int) -> np.ndarray:
    """count distinct-entry (delta+1)-tuples of rows in [1, nsets], deterministic."""
    out = np.empty((count, delta + 1), dtype=np.int64)
    for t in range(count):
        seen: list[int] = []
        i = 0
        while len(seen) < delta + 1:
            r = field.discrete("family:audit", (t, i), nsets)
            i += 1
            if r not in seen:
                seen.append(r)
        out[t] = seen
    return out


def row_bits(fam: SetFamily, row: int) -> np.ndarray:
    return np.unpackbits(fam.words[row - 1].view(np.uint8), bitorder="little")[: fam.ground]

FROZEN = {
    1: (6, 8, 16, 256),
    2: (39, 42, 56, 214),
    3: (151, 154, 170, 291, 16554),
    4: (479, 484, 516, 780, 23576),
    8: (23105, 23106, 23116, 23216, 24248),
    10: (132814, 132823, 132929, 134187, 150050),
}


# color_sequence(delta, 6).n for delta = 1..40, as computed when a float test
# still settled the counts far from a floor boundary
PINNED_SEQUENCES = {
    1: (6, 8, 16, 256),
    2: (39, 42, 56, 214),
    3: (151, 154, 170, 291, 16554),
    4: (479, 484, 516, 780, 23576),
    5: (1365, 1370, 1407, 1711, 8549),
    6: (3646, 3650, 3683, 3967, 7516),
    7: (9324, 9332, 9405, 10103, 20029),
    8: (23105, 23106, 23116, 23216, 24248, 37983),
    9: (55916, 55925, 56023, 57107, 70588, 984805),
    10: (132814, 132823, 132929, 134187, 150050, 613974),
    11: (310729, 310731, 310756, 311072, 315099, 371217),
    12: (717915, 717927, 718089, 720277, 750494, 1323822),
    13: (1641193, 1641204, 1641361, 1643610, 1676161, 2226310),
    14: (3717910, 3717924, 3718136, 3721345, 3770256, 4600516),
    15: (8356248, 8356259, 8356434, 8359224, 8403827, 9150074),
    16: (18651707,),
    17: (41377776,),
    18: (91294744,),
    19: (200446189,),
    20: (438157628,),
    21: (953940667,),
    22: (2069305845,),
    23: (4473778432,),
    24: (9642471091,),
    25: (20723831058,),
    26: (44423373425,),
    27: (94993688654,),
    28: (202671651290,),
    29: (431491421533,),
    30: (916835959339,),
    31: (1944487663342,),
    32: (4116817864861,),
    33: (8701727889942,),
    34: (18364425953406,),
    35: (38700310470875,),
    36: (81442473295909,),
    37: (171166329964559,),
    38: (359290420047962,),
    39: (753285655463614,),
    40: (1577558215963348,),
}

# tower_schedule(delta, 5).n wherever the family bit cap cuts it below the
# sequence's first five counts
PINNED_SCHEDULE_CUTS = {
    9: (55916,),
    10: (132814,),
    11: (310729,),
    12: (717915,),
    13: (1641193,),
    14: (3717910,),
    15: (8356248,),
}


@pytest.mark.parametrize("delta", sorted(PINNED_SEQUENCES))
def test_pinned_color_counts(delta):
    assert color_sequence(delta, 6).n == PINNED_SEQUENCES[delta]
    assert tower_schedule(delta, 5).n == PINNED_SCHEDULE_CUTS.get(
        delta, PINNED_SEQUENCES[delta][:5])


def test_constant_closed_forms():
    assert math.isclose(cover_free_constant(1), math.log(2) / 2, rel_tol=1e-15)
    assert math.isclose(cover_free_constant(2), -math.log(3 / 4) / 3, rel_tol=1e-15)


def test_constant_decreasing():
    vals = [cover_free_constant(d) for d in range(1, 13)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("delta,expect", sorted(FROZEN.items()))
def test_frozen_sequences(delta, expect):
    seq = color_sequence(delta, len(expect))
    assert seq.n == expect
    assert first_color_count(delta) == expect[0]


def test_exact_boundary_delta1():
    # e^{c*6} = 2^3 exactly; naive float64 exp gives 7.999... and floors wrong
    assert exact_floor_exp(6, 1) == 8
    assert math.floor(math.exp(cover_free_constant(1) * 6)) == 7


@given(st.integers(1, 6), st.integers(1, 60))
@settings(max_examples=120, deadline=None)
def test_floor_exp_is_exact_floor(delta, n):
    from hypothesis import assume

    assume(cover_free_constant(delta) * n < math.log(10**7))
    f = exact_floor_exp(n, delta)
    # f <= e^{cn} < f+1, via the integer predicate that defines the bound
    def le(k):
        return k ** (delta + 1) * (2 ** delta - 1) ** n <= 1 << (delta * n)

    assert f >= 1 and le(f) and not le(f + 1)


def test_sequences_strictly_increase():
    for delta, expect in FROZEN.items():
        assert all(a < b for a, b in zip(expect, expect[1:]))


def test_feasible_levels():
    assert feasible_levels(4, 3) == 3
    assert feasible_levels(8, 3) == 3
    assert feasible_levels(10, 3) == 1  # level-2 family alone would be > 2 Gbit
    seq = color_sequence(10, 2)
    assert seq.n_k(1) * seq.n_k(2) > FAMILY_BIT_CAP


def test_tower_schedule_clamps_to_feasible_levels():
    assert tower_schedule(4, 3) == color_sequence(4, 3)
    assert tower_schedule(10, 3) == color_sequence(10, 1)
    assert tower_schedule(1, 50).kmax < 50  # the sequence itself ends first
    with pytest.raises(ValueError):
        tower_schedule(4, 0)


def test_build_rejects_infeasible_counts():
    fld = LabelField(1)
    with pytest.raises(ValueError):
        SetFamily.build(fld, 1, 1, ground=2, nsets=3)


def test_three_sets_over_two_points_always_violate():
    # the only antichains in the subsets of {1,2} have size <= 2, so every
    # 3-set family fails; built past the rate check
    for seed in range(5):
        fam = infeasible_family(LabelField(seed), 1, ground=2, nsets=3)
        report = fam.audit(delta=1)
        assert report["mode"] == "exhaustive"
        assert report["bad"] >= 1


def test_two_singleton_sets_pass():
    fam = SetFamily(np.array([[1], [2]], dtype=np.uint64), ground=2, stream="family:d1/l1")
    report = fam.audit(delta=1)
    assert (report["mode"], report["bad"]) == ("exhaustive", 0)


def test_sampled_audit_large_family_clean():
    # violation probability per triple is (3/4)^200 ~ 1e-25
    fld = LabelField(2024)
    fam = SetFamily.build(fld, 2, 1, ground=200, nsets=100)
    tuples = sample_tuples(fld, 100, 2, 100_000)
    report = fam.audit(rng_tuples=tuples, delta=2)
    assert report == {"mode": "sampled", "checked": 100_000, "bad": 0}


def test_family_determinism_and_stream_separation():
    a = SetFamily.build(LabelField(7), 2, 1, ground=60, nsets=20)
    b = SetFamily.build(LabelField(7), 2, 1, ground=60, nsets=20)
    c = SetFamily.build(LabelField(7), 2, 2, ground=60, nsets=20)
    d = SetFamily.build(LabelField(8), 2, 1, ground=60, nsets=20)
    assert np.array_equal(a.words, b.words)
    assert not np.array_equal(a.words, c.words)
    assert not np.array_equal(a.words, d.words)


def test_contains_matches_row_bits():
    fam = SetFamily.build(LabelField(3), 2, 1, ground=130, nsets=10)
    for row in (1, 4, 10):
        bits = row_bits(fam, row)
        assert len(bits) == 130
        for el in (1, 2, 63, 64, 65, 129, 130):
            assert fam.contains(row, el) == bool(bits[el - 1])


def test_reduce_min_hand_cases():
    # rows: {1,3}, {2}; ground 3
    words = np.array([[0b101], [0b010]], dtype=np.uint64)
    fam = SetFamily(words, ground=3, stream="x")
    own = words[[0, 0, 1]]
    union = words[[1, 0, 0]]
    out = fam.reduce_min(own, union)
    # {1,3}\{2} -> 1;  {1,3}\{1,3} -> empty;  {2}\{1,3} -> 2
    assert out.tolist() == [1, 0, 2]


def _reduce_min_unpacked(own, union, ground):
    # the reduction primitive as first written: unpack every bit, then argmax
    bits = np.unpackbits((own & ~union).view(np.uint8), axis=1,
                         bitorder="little")[:, :ground]
    return np.where(bits.any(axis=1), bits.argmax(axis=1) + 1, 0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 300))
@settings(max_examples=150, deadline=None)
def test_reduce_min_matches_unpacked_scan(seed, ground):
    # random rows, plus the rows a word scan can get wrong: empty, only bit 63
    # of a word, only the last ground bit, a lone bit in the last word
    rs = np.random.default_rng(seed)
    nwords = (ground + 63) // 64
    tail = (1 << (ground % 64)) - 1 if ground % 64 else (1 << 64) - 1
    mask = np.full(nwords, (1 << 64) - 1, dtype=np.uint64)
    mask[-1] = np.uint64(tail)
    fam = SetFamily(np.zeros((1, nwords), dtype=np.uint64), ground, "x")
    rand = rs.integers(0, 2**64, size=(40, nwords), dtype=np.uint64)
    sparse = rand & rs.integers(0, 2**64, size=(40, nwords), dtype=np.uint64) \
        & rs.integers(0, 2**64, size=(40, nwords), dtype=np.uint64)
    special = np.zeros((4, nwords), dtype=np.uint64)
    last = ground - 1
    special[1, last >> 6] = np.uint64(1) << np.uint64(last & 63)
    if ground >= 64:
        special[2, 0] = np.uint64(1) << np.uint64(63)
    special[3, -1] = np.uint64(1) << np.uint64((last & 63) // 2)
    own = np.vstack([rand, sparse, special, rand]) & mask
    union = np.vstack([sparse, rand & ~sparse, np.zeros_like(special), rand]) & mask
    got = fam.reduce_min(own, union)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reduce_min_unpacked(own, union, ground))
    assert (got[-40:] == 0).all() and got[80] == 0 and got[81] == ground


def test_tail_bits_masked():
    fam = SetFamily.build(LabelField(11), 2, 1, ground=70, nsets=8)
    assert fam.nwords == 2
    assert not any(int(w) >> 6 for w in fam.words[:, 1])  # bits past 70 are zero


@given(st.integers(0, 2**32), st.integers(2, 50))
@settings(max_examples=60, deadline=None)
def test_membership_rate_is_fair_bits(seed, ground):
    # each element lands in a set with probability 1/2; crude 5-sigma band
    fam = infeasible_family(LabelField(seed), 3, ground=ground, nsets=4)
    total = 4 * ground
    ones = int(sum(row_bits(fam, r).sum() for r in range(1, 5)))
    sd = math.sqrt(total * 0.25)
    assert abs(ones - total / 2) <= 5 * sd + 1


def test_custom_sequence_object():
    seq = ColorSequence(2, (40, 8))
    assert seq.kmax == 2 and seq.n_k(1) == 40 and seq.n_k(2) == 8


def test_exact_exp_paths_agree_past_the_integer_cutoff(monkeypatch):
    import ffcolor.covfree as cf

    # Force the escalating-precision path onto small inputs and compare it
    # with the direct integer comparison, knife-edge floors included.
    monkeypatch.setattr(cf, "INT_CUTOFF", 0)
    for delta in (2, 3, 14):
        for n in (37, 200, 1311):
            k0 = int(math.exp(cover_free_constant(delta) * n))
            for k in (max(k0 - 1, 1), k0, k0 + 1, 2 * k0 + 3):
                want = (k ** (delta + 1) * (2 ** delta - 1) ** n
                        <= 1 << (delta * n))
                assert cf._le_exp_exact(k, n, delta) is want


def test_large_degree_sequence_is_frozen():
    seq = color_sequence(14, 3)
    assert seq.n == (3717910, 3717924, 3718136)


def test_row_read_alone_matches_built_row_under_rejection():
    # over [3] a row is empty with probability 1/8, so some rows are redrawn
    fld = LabelField(11)
    fam = infeasible_family(fld, 2, ground=3, nsets=64)
    first = fld.u64_grid(fam.stream, [np.arange(64)[:, None], np.zeros((1, 1))])
    assert ((first & np.uint64(0b111)) == 0).sum() > 0
    assert all(fam.words.any(axis=1))
    for f in (fld, TrackedField(fld, Tracker((0,)))):
        for r in range(fam.nsets):
            assert np.array_equal(family_rows(f, fam.stream, [r], 3)[0], fam.words[r])
