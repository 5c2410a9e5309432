import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brute
from residue_lab.errors import StaleContext
from residue_lab.modarith import ContextArena, reduce_mod
from residue_lab import (
    NotOddPrime,
    WrongResidueClass,
    build_context,
    cm_decompose,
    is_prime,
    primes_in,
)


def test_context_k_present_iff_1_mod_4():
    assert build_context(17).k == 4
    assert build_context(13).k == 3
    assert build_context(7).k is None
    assert build_context(19).k is None


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 9, 15, 21, 91, 561, 6601])
def test_context_rejects_non_odd_primes(bad):
    with pytest.raises(NotOddPrime):
        build_context(bad)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(2000):
        assert is_prime(n) == trial(n), n
    sieved = set(primes_in(2, 200_000))
    for n in range(200_000):
        assert is_prime(n) == (n in sieved), n
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31)


@pytest.mark.parametrize("n", [
    2047,                   # strong pseudoprime to base 2
    3215031751,             # to bases 2, 3, 5 and 7
    4759123141,             # to bases 2, 7 and 61: the three-witness bound
    3825123056546413051,    # to bases 2 through 23
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_at_the_witnesses_and_below_the_bound():
    # a witness that is n itself is skipped; 4759123129 is the last prime
    # the three witnesses decide
    assert all(is_prime(q) for q in (2, 7, 61, 4759123129))


_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


@pytest.mark.parametrize("p", [3, 5, 29989, 2 ** 31 - 1, 2 ** 61 - 1])
def test_reduce_mod_equals_remainder(p):
    rng = np.random.default_rng(p)
    a = np.concatenate([
        rng.integers(-min(10 * p, 2 ** 62), min(10 * p, 2 ** 62), 5000),
        rng.integers(_INT64_MIN + p, _INT64_MAX, 5000, endpoint=True),
        np.arange(-3 * p, 3 * p + 1) if p < 100 else np.arange(-3, 4) * p,
        [_INT64_MAX, _INT64_MAX - 1, _INT64_MIN + p, _INT64_MIN + p + 1, 0, -1, 1],
    ]).astype(np.int64)
    want = a % p
    assert (reduce_mod(a, p) == want).all()
    out = np.empty_like(a)
    assert reduce_mod(a, p, out=out) is out and (out == want).all()
    in_place = a.copy()
    assert reduce_mod(in_place, p, out=in_place) is in_place
    assert (in_place == want).all()
    tile = a[:4096].reshape(64, 64)  # a view, reduced into itself
    reduce_mod(tile, p, out=tile)
    assert (a[:4096] == want[:4096]).all()


_SEQUENCE_PRIMES = primes_in(3, 400) + [1009, 2003]


@settings(max_examples=40, deadline=None)
@given(seq=st.lists(st.sampled_from(_SEQUENCE_PRIMES), min_size=1, max_size=12),
       order=st.sampled_from(["drawn", "ascending", "descending", "repeated"]),
       oracle=st.booleans())
def test_arena_contexts_equal_fresh_contexts(seq, order, oracle):
    if order == "ascending":
        seq = sorted(seq)
    elif order == "descending":
        seq = sorted(seq, reverse=True)
    elif order == "repeated":
        seq = [q for q in seq for _ in range(2)]
    arena = ContextArena()
    for i, p in enumerate(seq):
        got = build_context(p, counting_oracle=oracle, arena=arena)
        want = build_context(p, counting_oracle=oracle)
        for name in ("chi", "root_counts", "squares", "index"):
            table, fresh = getattr(got, name), getattr(want, name)
            assert table.dtype == fresh.dtype and table.tolist() == fresh.tolist(), (p, name)
        assert (got.p, got.k, got.delta) == (want.p, want.k, want.delta)
        assert arena.capacity == max(seq[:i + 1])


def test_fresh_context_matches_euler_criterion():
    for p in primes_in(3, 300):
        for oracle in (False, True):
            ctx = build_context(p, counting_oracle=oracle)
            assert ctx.chi.tolist() == [brute.legendre(a, p) for a in range(p)]
            assert ctx.squares.tolist() == [a * a % p for a in range(p)]
            assert ctx.delta == next(d for d in range(2, p) if brute.legendre(d, p) < 0)


def test_stale_context_raises():
    arena = ContextArena()
    old = build_context(101, arena=arena)
    assert int(old.chi.sum()) == 0
    new = build_context(13, arena=arena)
    for name in ("chi", "root_counts", "squares"):
        with pytest.raises(StaleContext):
            getattr(old, name)
        getattr(new, name)  # the current context stays readable
    assert (old.p, old.k, old.delta) == (101, 25, 2)  # scalars are not tables
    assert old.index.tolist() == list(range(101))  # never changes, never stale
    assert isinstance(StaleContext("x"), ArithmeticError)  # the CLI's exit 3
    fresh = build_context(17)
    build_context(19)
    assert int(fresh.chi.sum()) == 0  # a context built alone has an arena of its own


def test_index_rejects_writes():
    arena = ContextArena()
    for ctx in (build_context(13, arena=arena), build_context(13)):
        assert ctx.index.tolist() == list(range(13))
        with pytest.raises(ValueError):
            ctx.index[0] = 1
        with pytest.raises(ValueError):
            ctx.index += 1
    with pytest.raises(ValueError):
        arena.index[0] = 1
    build_context(101, arena=arena)  # a larger prime reallocates the buffer
    with pytest.raises(ValueError):
        arena.index[0] = 1
    assert arena.index.tolist() == list(range(101))


def test_chi_table_invariants():
    for p in primes_in(3, 200):
        ctx = build_context(p)
        assert ctx.chi[0] == 0
        assert int((ctx.chi == 1).sum()) == (p - 1) // 2
        assert int((ctx.chi == -1).sum()) == (p - 1) // 2
        assert ctx.chi[ctx.delta] == -1
        assert all(ctx.chi[d] == 1 for d in range(1, ctx.delta))
        assert (ctx.chi[p - 1] == 1) == (p % 4 == 1)


def test_chi_multiplicative():
    for p in primes_in(3, 61):
        ctx = build_context(p)
        a = np.arange(1, p, dtype=np.int64)
        prod_chi = ctx.chi[np.outer(a, a) % p]
        assert (prod_chi == np.outer(ctx.chi[a], ctx.chi[a])).all()


def test_legendre_sum_vanishes():
    for p in primes_in(3, 10000):
        ctx = build_context(p)
        assert int(ctx.chi.sum(dtype=np.int64)) == 0


def test_root_counts_match_enumeration():
    for p in primes_in(3, 500):
        ctx = build_context(p)
        enumerated = np.bincount(np.arange(p, dtype=np.int64) ** 2 % p, minlength=p)
        assert (ctx.root_counts == enumerated).all(), p


def test_primes_in():
    assert primes_in(3, 20, (1, 4)) == [5, 13, 17]
    assert primes_in(3, 20, (3, 4)) == [3, 7, 11, 19]
    assert primes_in(3, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert primes_in(2, 2) == [2]
    assert primes_in(3, 1000) == [n for n in range(3, 1001) if is_prime(n)]
    with pytest.raises(ValueError):
        primes_in(1, 10)
    with pytest.raises(ValueError):
        primes_in(10, 3)


@settings(max_examples=200, deadline=None)
@given(lo=st.integers(2, 3000), span=st.integers(0, 2000),
       r=st.integers(-300, 300), m=st.integers(1, 120) | st.just(1))
def test_primes_in_filter_equals_filtering_the_list(lo, span, r, m):
    hi = lo + span
    assert primes_in(lo, hi, (r, m)) == [q for q in primes_in(lo, hi) if q % m == r % m]


@pytest.mark.parametrize("m", [0, -1, -4])
def test_primes_in_refuses_a_modulus_below_one(m):
    with pytest.raises(ValueError, match=f"need a modulus m >= 1, got {m}"):
        primes_in(3, 100, (1, m))


def test_primes_in_memory_below_the_unfiltered_list():
    # the filter is applied while the sieve is read, so the primes it drops
    # are never listed: 2.6 bytes per p at 10^6, against 4.5 when the whole
    # list was built and then filtered
    hi = 10 ** 6
    tracemalloc.start()
    try:
        primes = primes_in(5, hi, (1, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 39175
    assert peak < 3.5 * hi, (peak, peak / hi)


def test_cm_decompose_examples():
    gauss, mod4 = cm_decompose(build_context(13))
    assert (gauss.a, gauss.b) == (3, 2)
    assert (mod4.a, mod4.b) == (-3, 2)
    gauss, mod4 = cm_decompose(build_context(5))
    assert (gauss.a, gauss.b) == (-1, 2)
    assert (mod4.a, mod4.b) == (1, 2)
    gauss, mod4 = cm_decompose(build_context(17))
    assert (gauss.a, gauss.b) == (1, 4)
    gauss, mod4 = cm_decompose(build_context(29))
    assert (gauss.a, mod4.a) == (-5, 5)
    with pytest.raises(WrongResidueClass):
        cm_decompose(build_context(7))


def test_cm_decompose_invariants():
    # The 2+2i uniqueness check runs inside cm_decompose on every call.
    for p in primes_in(5, 10000, (1, 4)):
        gauss, mod4 = cm_decompose(build_context(p))
        for g in (gauss, mod4):
            assert g.a * g.a + g.b * g.b == p
            assert g.a % 2 == 1 and g.b % 2 == 0 and g.b > 0
        assert abs(gauss.a) == abs(mod4.a)
        assert mod4.a % 4 == 1
        assert (gauss.a - 1 + gauss.b) % 4 == 0
        assert (gauss.b - gauss.a + 1) % 4 == 0


def test_context_is_immutable():
    ctx = build_context(13)
    with pytest.raises(AttributeError):
        ctx.p = 17
    with pytest.raises(ValueError):
        ctx.chi[0] = 5
