import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import brute
from residue_lab import k3
from residue_lab import (
    WrongResidueClass,
    build_context,
    count_Mp,
    count_Np,
    count_S,
    count_Xprime,
    jacobsthal,
    primes_in,
)
from residue_lab.claims import CLAIMS, run_claim


def test_count_Mp_frozen():
    for p, m in ((3, 17), (5, 41), (7, 65), (13, 233), (17, 329)):
        assert count_Mp(build_context(p)) == m


def test_count_Mp_matches_brute():
    for p in (3, 5, 7, 11, 13):
        assert count_Mp(build_context(p)) == brute.count_Mp(p)


def test_count_Np():
    for p in (5, 7, 13):
        assert count_Np(build_context(p)) == 7
    assert count_Np(build_context(17)) == 15


def test_count_Np_supersingular_specialization():
    # the cubic is supersingular at p = 3 mod 4, so the affine count is p
    # and the surface count collapses to (p+1)^2 + 1
    for p in primes_in(3, 2000, (3, 4)):
        assert count_Np(build_context(p)) == p, p


def test_verify_identity5():
    for p, m in ((3, 17), (5, 41), (7, 65)):
        rec = CLAIMS["identity5"].run(build_context(p))
        assert rec.passed and rec.actual == m
    for p in primes_in(3, 150):
        assert CLAIMS["identity5"].run(build_context(p)).passed, p


def test_count_S_frozen():
    assert count_S(build_context(5)) == 24
    assert count_S(build_context(13)) == 184
    assert count_S(build_context(17)) == 264


def test_count_S_matches_brute():
    assert count_S(build_context(5)) == brute.count_S_5loop(5)
    for p in (5, 13, 17, 23):
        assert count_S(build_context(p)) == brute.count_S_rootloop(p), p


def test_verify_formula2():
    for p in primes_in(5, 150, (1, 4)):
        rec = CLAIMS["formula2"].run(build_context(p))
        assert rec.passed, p
    with pytest.raises(WrongResidueClass):
        CLAIMS["formula2"].run(build_context(7))


def test_bookkeeping_frozen():
    rec5 = CLAIMS["bookkeeping"].run(build_context(5))
    assert rec5.passed and rec5.actual == 17
    assert rec5.detail["locus_X_measured"] == 17
    assert rec5.detail["locus_S_measured"] == 8
    rec13 = CLAIMS["bookkeeping"].run(build_context(13))
    assert rec13.passed and rec13.actual == 49
    assert rec13.detail["locus_X_measured"] == 65
    assert rec13.detail["locus_S_measured"] == 24
    assert rec13.detail["locus_X_stated"] == 74
    assert rec13.detail["locus_S_stated"] == 25


def test_bookkeeping_net_identity():
    for p in primes_in(5, 150, (1, 4)):
        rec = CLAIMS["bookkeeping"].run(build_context(p))
        assert rec.passed, p
        assert rec.actual == 4 * p - 3, p


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(primes_in(3, 40)), oracle=st.booleans())
def test_kernels_match_brute_at_random_primes(p, oracle):
    ctx = build_context(p, counting_oracle=oracle)
    assert count_Mp(ctx) == brute.count_Mp(p)
    assert count_Xprime(ctx) == brute.xprime_counts(p)
    if p <= 23:
        assert count_S(ctx) == brute.count_S_rootloop(p)


_PIN_PRIMES = primes_in(3, 1999) + [10009, 10093, 19997]  # both classes mod 4


def _assert_kernels_match_square_class_scans(p):
    m, z0 = brute.m_scan_square_classes(p)
    s = brute.count_S_square_classes(p)
    for oracle in (False, True):
        ctx = build_context(p, counting_oracle=oracle)
        assert (count_Mp(ctx), k3._zero_count(ctx)) == (m, z0), (p, oracle)
        assert count_S(ctx) == s, (p, oracle)


def test_orbit_m_and_fft_s_match_square_class_scans():
    for p in _PIN_PRIMES:
        _assert_kernels_match_square_class_scans(p)


@settings(max_examples=10, deadline=None)
@given(p=st.sampled_from(primes_in(2000, 6000)))
def test_orbit_m_and_fft_s_match_square_class_scans_at_random_primes(p):
    _assert_kernels_match_square_class_scans(p)


def test_count_Mp_and_the_zero_count_frozen_near_10_to_the_5():
    # recorded from the orbit scan over the grid of square classes that
    # count_Mp replaced, one prime of each class mod 4
    ctx = build_context(100049)
    assert (count_Mp(ctx), k3._zero_count(ctx)) == (10010187401, 400185)
    ctx = build_context(100043)
    assert (count_Mp(ctx), k3._zero_count(ctx)) == (10008801937, 1)


def test_count_Mp_refuses_primes_past_its_exactness_limit(monkeypatch):
    monkeypatch.setattr(k3, "_M_MAX_P", 13)
    assert count_Mp(build_context(11)) == brute.count_Mp(11)
    with pytest.raises(ValueError):
        count_Mp(build_context(13))


def test_count_S_refuses_primes_past_its_exactness_limit(monkeypatch):
    monkeypatch.setattr(k3, "_S_MAX_P", 13)
    assert count_S(build_context(11)) == brute.count_S_rootloop(11)
    with pytest.raises(ValueError):
        count_S(build_context(13))


def test_spot_primes_past_the_acceptance_range():
    for p in (99989, 999961):
        assert run_claim("formula2", p).passed, p
    assert run_claim("identity5", 30011).passed


def test_count_S_memory_bounded_by_the_context_tables():
    p = 999961
    ctx = build_context(p)
    tables = ctx.chi.nbytes + ctx.root_counts.nbytes + ctx.squares.nbytes  # 17p bytes
    tracemalloc.start()
    try:
        count_S(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * tables, peak


@pytest.mark.parametrize("p", [1000033, 1000003])  # both routes of count_Mp
def test_count_Mp_memory_bounded_by_the_context_tables(p):
    ctx = build_context(p)
    tables = ctx.chi.nbytes + ctx.root_counts.nbytes + ctx.squares.nbytes  # 17p bytes
    tracemalloc.start()
    try:
        count_Mp(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * tables, peak


def _kernel_values(p):
    ctx = build_context(p)
    total, boundary, fibers = k3._xprime_scan(ctx)
    return (count_Mp(ctx), count_S(ctx), k3._locus_X_count(ctx),
            total, boundary, fibers.tolist())


@pytest.mark.parametrize("name, value", [
    ("_TILE_CELLS", 7),            # mostly one row per block
    ("_TILE_CELLS", 37),           # several rows per block, the last short
])
def test_kernels_independent_of_tiling_and_reduction(monkeypatch, name, value):
    primes = (5, 7, 19, 23, 41, 43, 101, 103)  # both classes mod 4
    want = {p: _kernel_values(p) for p in primes}
    monkeypatch.setattr(k3, name, value)
    for p in primes:
        assert _kernel_values(p) == want[p], p


def test_kernel_memory_bounded():
    ctx = build_context(10009)
    for kernel in (count_Mp, count_S, k3._xprime_scan):
        tracemalloc.start()
        try:
            kernel(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (kernel.__name__, peak)


def test_count_Xprime_frozen():
    assert count_Xprime(build_context(13)) == (220, 76)
    assert count_Xprime(build_context(5)) == (36, 20)


def test_count_Xprime_matches_brute():
    for p in (5, 13, 17):
        assert count_Xprime(build_context(p)) == brute.xprime_counts(p), p


def test_xprime_relations():
    for p in primes_in(3, 150):
        ctx = build_context(p)
        total, boundary = count_Xprime(ctx)
        assert total + p == count_Mp(ctx), p
        if p % 4 == 1:
            assert boundary == 7 * p - 15, p


def test_verify_fibration():
    rec13 = CLAIMS["fibration"].run(build_context(13))
    assert rec13.passed
    assert rec13.actual["interior"] == 144
    assert sorted(rec13.detail["quartic_traces"]) == [-6, -6, 6, 6]
    for p in primes_in(5, 150, (1, 4)):
        assert CLAIMS["fibration"].run(build_context(p)).passed, p


def test_chain_consistency():
    # count-level identity linking the two surface counts through 4p - 3
    for p in primes_in(5, 150, (1, 4)):
        ctx = build_context(p)
        m = count_Mp(ctx)
        s = count_S(ctx)
        n = count_Np(ctx)
        J = jacobsthal(ctx)
        assert J == n - p, p
        assert (m - 4 * p + 3) - s == 0, p
        assert ((p + 1) ** 2 + J ** 2 + 1) - ((p - 1) ** 2 + J ** 2 + 4) == 4 * p - 3, p
