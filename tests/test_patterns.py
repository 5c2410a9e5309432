import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import brute
from residue_lab import (
    PatternTooLong,
    WrongResidueClass,
    all_patterns,
    build_context,
    count_pattern,
    jacobsthal,
    pattern_census,
    pattern_counts_charsum,
    pattern_curve_count,
    primes_in,
    residue_word,
)
from residue_lab.claims import CLAIMS, _weil_law, _weil_limit
from residue_lab.patterns import _subset_char_sums


def test_residue_word_frozen_values():
    assert residue_word(build_context(17)) == "XXYXYYYXXYYYXYXX"
    assert residue_word(build_context(5)) == "XYYX"
    assert residue_word(build_context(13)) == "XYXXYYYYXXYX"


def test_residue_word_balanced():
    for p in primes_in(3, 300):
        w = residue_word(build_context(p))
        assert len(w) == p - 1
        assert w.count("X") == w.count("Y") == (p - 1) // 2


def test_pattern_word_validation():
    ctx = build_context(17)
    with pytest.raises(ValueError, match="empty pattern"):
        count_pattern(ctx, "")
    with pytest.raises(ValueError, match=r"must be X or Y, got \['Z'\]"):
        count_pattern(ctx, "XZ")
    assert count_pattern(ctx, "xyx") == 2  # case-insensitive


def test_count_pattern_census_17():
    ctx = build_context(17)
    for s in all_patterns(3):
        assert count_pattern(ctx, s) == (0 if s == "XXX" else 2)


def test_count_pattern_single_letter():
    for p in (5, 13, 29, 101):
        ctx = build_context(p)
        assert count_pattern(ctx, "X") == (p - 1) // 2
        assert count_pattern(ctx, "Y") == (p - 1) // 2


def test_count_pattern_matches_string_scan():
    for p in primes_in(5, 100):
        ctx = build_context(p)
        for ell in (1, 2, 3, 4):
            for s in all_patterns(ell):
                assert count_pattern(ctx, s) == brute.count_pattern_scan(p, s), (p, s)


def test_count_pattern_census_sums():
    for p in (13, 17, 101, 397):
        ctx = build_context(p)
        for ell in range(1, 6):
            assert sum(count_pattern(ctx, s) for s in all_patterns(ell)) == p - ell


def test_count_pattern_too_long():
    with pytest.raises(PatternTooLong):
        count_pattern(build_context(5), "XXXXX")
    for census in (pattern_census, pattern_counts_charsum):
        with pytest.raises(PatternTooLong):
            census(build_context(5), 5)
        with pytest.raises(PatternTooLong):  # 2^10 bins are more than 16p
            census(build_context(11), 10)
        with pytest.raises(ValueError):
            census(build_context(5), 0)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(primes_in(3, 300)), oracle=st.booleans())
def test_census_matches_scans_at_random_primes(p, oracle):
    ctx = build_context(p, counting_oracle=oracle)
    for ell in range(1, min(5, p - 1) + 1):
        census = pattern_census(ctx, ell)
        assert list(census) == all_patterns(ell)
        assert sum(census.values()) == p - ell
        for s in all_patterns(ell):
            assert census[s] == count_pattern(ctx, s) == brute.count_pattern_scan(p, s), (p, s)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from(primes_in(3, 2000)), oracle=st.booleans())
def test_charsum_expansion_matches_census_at_random_primes(p, oracle):
    ctx = build_context(p, counting_oracle=oracle)
    for ell in range(1, min(5, p - 1) + 1):
        assert pattern_counts_charsum(ctx, ell) == pattern_census(ctx, ell), (p, ell)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_charsum_expansion_at_longest_length(p):
    # the only window of length p - 1 is the whole word
    ctx = build_context(p)
    census = pattern_census(ctx, p - 1)
    assert census == {s: int(s == residue_word(ctx)) for s in all_patterns(p - 1)}
    assert pattern_counts_charsum(ctx, p - 1) == census


def test_charsum_expansion_memory_bounded():
    ctx = build_context(100003)
    tracemalloc.start()
    try:
        counts = pattern_counts_charsum(ctx, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert counts == pattern_census(ctx, 5)


def test_jacobsthal_frozen_values():
    assert jacobsthal(build_context(5)) == 2
    assert jacobsthal(build_context(13)) == -6
    assert jacobsthal(build_context(17)) == -2
    assert jacobsthal(build_context(29)) == 10
    with pytest.raises(WrongResidueClass):
        jacobsthal(build_context(7))


def test_jacobsthal_equals_truncated_oracle():
    for p in primes_in(5, 300, (1, 4)):
        assert jacobsthal(build_context(p)) == brute.jacobsthal_truncated(p)


def test_jacobsthal_structure():
    for p in primes_in(5, 2000, (1, 4)):
        J = jacobsthal(build_context(p))
        assert J % 2 == 0
        assert (J * J - 4) % 32 == 0
        b2 = p - J * J // 4
        assert isqrt(b2) ** 2 == b2, p  # J^2/4 is a summand of p


def _char_sum(ctx, offsets):
    """sum_a chi(prod_{j in offsets} (a + j)), read from the expansion's
    subset sums at the bitmask of the offsets."""
    ell = max(offsets) + 1
    mask = sum(1 << (ell - 1 - j) for j in offsets)
    return int(_subset_char_sums(ctx, ell)[mask])


def test_char_sum_values():
    for p in (5, 7, 13, 17, 101):
        ctx = build_context(p)
        assert _char_sum(ctx, (0,)) == 0
        assert _char_sum(ctx, (0, 1)) == -1
    assert _char_sum(build_context(13), (0, 1, 2)) == -6
    assert _subset_char_sums(build_context(13), 3)[0] == 13  # the empty product


def test_char_sum_matches_oracle():
    for p in primes_in(5, 60):
        ctx = build_context(p)
        for offsets in [(0, 2), (1, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]:
            assert _char_sum(ctx, offsets) == brute.char_sum(p, offsets), (p, offsets)


def test_charsum_count_agrees_with_scan():
    for p in primes_in(3, 200):
        ctx = build_context(p)
        for ell in range(1, min(5, p - 1) + 1):
            expansion = pattern_counts_charsum(ctx, ell)
            for s in all_patterns(ell):
                assert expansion[s] == count_pattern(ctx, s), (p, s)


def test_pattern_curve_count_frozen():
    assert pattern_curve_count(build_context(17), 3) == 0
    assert pattern_curve_count(build_context(17), 2) == 12
    assert pattern_curve_count(build_context(13), 2) == 8


def test_pattern_curve_count_matches_chain_enumeration():
    for p in (5, 13, 17, 29):
        for ell in (2, 3):
            assert pattern_curve_count(build_context(p), ell) == \
                brute.chain_curve_count(p, ell), (p, ell)


def test_pattern_curve_count_is_scaled_pattern_count():
    for p in primes_in(7, 1000):
        ctx = build_context(p)
        for ell in (2, 3, 4):
            assert pattern_curve_count(ctx, ell) == \
                (1 << ell) * count_pattern(ctx, "X" * ell), (p, ell)


def test_weil_deviation_17():
    ctx = build_context(17)
    dev, bound = _weil_law(17, count_pattern(ctx, "XXXX"))
    assert dev == Fraction(-1)
    assert bound == pytest.approx(3.8346, abs=1e-4)
    # XXXX is the first of the census's equal worst deviations, |16n - 16| = 16
    rec = CLAIMS["weil_bound"].run(ctx)
    assert rec.passed and rec.actual == {"violations": 0}
    assert rec.detail == {"worst_pattern": "XXXX", "worst_deviation": "-1",
                          "bound": bound}


def test_weil_limit_is_the_largest_integer_within_the_bound():
    # |16n - (p-1)| <= 11 sqrt(p) + 16 holds for d = 16n - (p-1) exactly
    # when |d| <= _weil_limit(p); the claim counts violations by it
    for p in primes_in(17, 3000):
        limit = _weil_limit(p)
        assert (limit - 16) ** 2 <= 121 * p < (limit - 15) ** 2, p


def test_weil_bound_holds_on_sample_range():
    for p in primes_in(17, 500):
        ctx = build_context(p)
        for s in all_patterns(4):
            n = count_pattern(ctx, s)
            dev, bound = _weil_law(p, n)
            assert abs(float(dev)) <= bound + 1e-9, (p, s)
            assert abs(16 * n - (p - 1)) <= _weil_limit(p), (p, s)
