"""Prime-field substrate: quadratic character tables, prime enumeration,
exact array reduction and cyclic convolution mod p, and Gaussian-integer
decompositions p = a^2 + b^2.

Every counting kernel in the package works off a FieldContext, which holds
the full Legendre-symbol table chi for one odd prime.  The table costs O(p)
once and turns each square-root count into a single array lookup, which is
what makes the O(p^2) surface kernels feasible.

Every context keeps its tables in a ContextArena.  A loop over primes
builds its contexts in one arena, whose buffers are sized for the largest
p so far and refilled from prime to prime instead of being allocated and
faulted in afresh; a context built alone gets an arena of its own.
Building the next context in an arena makes the previous one stale:
reading its tables raises StaleContext rather than returning the new
prime's data.
"""

import math
import sys
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import NotOddPrime, StaleContext, WrongResidueClass

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Below this bound 2, 7 and 61 suffice (Jaeschke, Math. Comp. 61, 1993);
# the bound itself is the least strong pseudoprime to all three.
_MR_SMALL_BOUND = 4_759_123_141
_MR_SMALL_WITNESSES = (2, 7, 61)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for the 64-bit range."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_SMALL_WITNESSES if n < _MR_SMALL_BOUND else _MR_WITNESSES
    for a in witnesses:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GaussianInteger:
    """a + b*i with integer parts; for decompositions of p, a^2 + b^2 = p."""

    a: int
    b: int


def reduce_mod(a: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """a mod p elementwise, computed as a - (a // p) * p.

    Equal to `a % p` for every int64 entry a >= -2^63 + p.  numpy divides
    an int64 array by a scalar through a precomputed reciprocal
    (Granlund-Montgomery, PLDI 1994), while `%` takes a hardware division
    per element, so this is the faster exact reduction.

    With `out` distinct from `a` the quotient is formed in `out` and no
    temporary is allocated; with out=None one result array is; when `out`
    overlaps `a` one quotient temporary is.
    """
    if out is not None and np.may_share_memory(a, out):
        q = np.floor_divide(a, p)
    else:
        q = np.floor_divide(a, p, out=out)
    q *= p
    return np.subtract(a, q, out=q if out is None else out)


def cyclic_convolution(rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The cyclic convolution mod p = len(r) of each row of `rows` with r,
    c[i, s] = sum_t rows[i, t] r[(s - t) mod p], exact, as int64.

    One float64 rfft/irfft product, zero-padded to n = 2^k >= 2p - 1, gives
    the linear convolutions; they are rounded and folded mod p.  Percival's
    bound (Math. Comp. 72, 2003, Thm. 5.1) puts every entry's error below
    |row| |r| ((1 + e)^(6k) (1 + e sqrt 5)^(3k + 1) - 1), for the unit
    roundoff e = 2^-53, twiddles accurate to e and Euclidean norms |.|: below
    1/4 whenever |row| |r| <= 1.4 * 10^14 / (k + 1), which callers keep.  So
    a residue |c - round(c)| of 1/4 or more is a fault, not rounding, and
    raises ArithmeticError.  r is transformed alone first, so the peak holds
    len(rows) x n reals, len(rows) + 1 half spectra of n/2 + 1 complex
    numbers and the rounded linear convolutions.
    """
    p = len(r)
    n = 1 << (2 * p - 2).bit_length()
    r_spectrum = np.fft.rfft(r, n)
    buf = np.zeros((len(rows), n))  # the rows, then their convolutions
    buf[:, :p] = rows
    spectrum = np.fft.rfft(buf)
    spectrum *= r_spectrum
    del r_spectrum
    linear = np.fft.irfft(spectrum, n, out=buf)[:, :2 * p - 1]
    del spectrum
    rounded = np.rint(linear)
    residue = np.abs(np.subtract(linear, rounded, out=linear), out=linear).max()
    if residue >= 0.25:
        raise ArithmeticError(f"FFT convolution off an integer by {residue} at p={p}")
    rounded[:, :p - 1] += rounded[:, p:]  # fold index s + p onto s
    return rounded[:, :p].astype(np.int64)


class ContextArena:
    """Reusable buffers for the tables of one prime at a time.

    `capacity` is the largest p the buffers hold; build_context grows them
    to exactly p when a larger prime arrives.  `generation` counts the
    contexts built here: a context is current while it matches.  `index`
    holds 0..capacity-1 and is read-only, so it is never stale.
    """

    def __init__(self, capacity: int = 0):
        self.generation = 0
        self._allocate(capacity)

    def reserve(self, p: int) -> None:
        """Make room for the tables of p."""
        if p > self.capacity:
            self._allocate(p)

    def _allocate(self, p: int) -> None:
        self.capacity = p
        self.index = np.arange(p, dtype=np.int64)
        self.index.flags.writeable = False
        self.squares = np.empty(p, dtype=np.int64)
        self.root_counts = np.empty(p, dtype=np.int64)
        self.chi = np.empty(p, dtype=np.int8)


@dataclass(frozen=True, slots=True, eq=False)
class FieldContext:
    """Immutable arithmetic context for one odd prime p.

    Attributes:
        p: the prime.
        k: (p - 1) // 4 when p = 4k + 1, else None.
        delta: the smallest quadratic non-residue in 1..p-1.
        index: read-only int64 array, index[i] = i for i in 0..p-1.
        chi: int8 array, chi[a] = Legendre symbol (a/p) in {-1, 0, +1}.
        root_counts: int64 array, root_counts[t] = #{y : y^2 = t mod p}.
        squares: int64 array, squares[i] = i^2 mod p.

    The three tables are views of the buffers of the arena the context was
    built in; once that arena builds another context, reading any of them
    raises StaleContext.  `index` never changes, so it never goes stale.
    """

    p: int
    k: int | None
    delta: int
    index: np.ndarray = field(repr=False)
    _tables: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    _arena: ContextArena = field(repr=False)
    _generation: int = field(repr=False)

    def _table(self, i: int) -> np.ndarray:
        if self._arena.generation != self._generation:
            raise StaleContext(f"tables of the context for p={self.p} were read "
                               f"after its arena built another context")
        return self._tables[i]

    chi = property(lambda self: self._table(0))
    root_counts = property(lambda self: self._table(1))
    squares = property(lambda self: self._table(2))


def build_context(p: int, counting_oracle: bool = False,
                  arena: ContextArena | None = None) -> FieldContext:
    """Build the FieldContext for an odd prime p.

    With counting_oracle=True the root-count table is rebuilt by tallying
    y^2 over all y instead of being derived from chi, giving an independent
    path through every counting kernel.

    The tables are written into the buffers of `arena`, and every context
    built there before goes stale; without an arena the context gets one
    of its own.

    Raises NotOddPrime for anything that is not an odd prime.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    if arena is None:
        arena = ContextArena(p)
    else:
        arena.reserve(p)
    arena.generation += 1
    idx = arena.index[:p]
    squares, root_counts, chi = (arena.squares[:p], arena.root_counts[:p],
                                 arena.chi[:p])
    # i^2 = (p-i)^2: square the first half, then mirror it
    half = (p + 1) // 2
    np.multiply(idx[:half], idx[:half], out=root_counts[:half])  # i^2 < p^2
    reduce_mod(root_counts[:half], p, out=squares[:half])
    squares[half:] = squares[half - 1:0:-1]
    chi.fill(-1)
    chi[squares[1:half]] = 1  # the (p-1)/2 nonzero squares, once each
    chi[0] = 0
    delta = next(d for d in range(2, p) if chi[d] < 0)  # stops at the least one
    if counting_oracle:
        root_counts[:] = np.bincount(squares, minlength=p)
    else:
        np.add(chi, 1, out=root_counts)
    for table in (chi, root_counts, squares):
        table.flags.writeable = False  # the views; the arena's buffers stay writable
    k = (p - 1) // 4 if p % 4 == 1 else None
    return FieldContext(p, k, delta, idx, (chi, root_counts, squares), arena,
                        arena.generation)


def _check_range(lo: int, hi: int) -> None:
    """ValueError unless 2 <= lo <= hi < sys.maxsize, the ranges whose
    sieve primes_in can index."""
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if hi >= sys.maxsize:
        raise ValueError(f"need hi < {sys.maxsize}, got {hi}")


def primes_in(lo: int, hi: int, residue_filter: tuple[int, int] | None = None) -> list[int]:
    """Ascending primes in [lo, hi], optionally restricted to p = r mod m,
    read off the sieve in steps of m so that only those are listed.
    ValueError for a range _check_range refuses, or for m < 1."""
    _check_range(lo, hi)
    r, m = (0, 1) if residue_filter is None else residue_filter
    if m < 1:
        raise ValueError(f"need a modulus m >= 1, got {m}")
    sieve = bytearray([1]) * (hi + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q:: q] = bytearray(len(range(q * q, hi + 1, q)))
    start = lo + (r - lo) % m
    return list(compress(range(start, hi + 1, m), memoryview(sieve)[start::m]))


def _divisible_by_two_plus_two_i(a: int, b: int) -> bool:
    # (a - 1 + b*i) / (2 + 2i) = ((a-1+b) + (b-a+1)i) / 4
    return (a - 1 + b) % 4 == 0 and (b - a + 1) % 4 == 0


def _cornacchia_two_squares(p: int, nonresidue: int) -> tuple[int, int]:
    """One solution (x, y) of x^2 + y^2 = p with x, y > 0, via Cornacchia."""
    x0 = pow(nonresidue, (p - 1) // 4, p)  # square root of -1 mod p
    if 2 * x0 < p:
        x0 = p - x0
    a, b = p, x0
    limit = math.isqrt(p)
    while b > limit:
        a, b = b, a % b
    y2 = p - b * b
    y = math.isqrt(y2)
    if y * y != y2:
        raise ArithmeticError(f"Cornacchia descent failed for p={p}")
    return b, y


def cm_decompose(ctx: FieldContext) -> tuple[GaussianInteger, GaussianInteger]:
    """Both normalized writings of p = a^2 + b^2 (a odd, b even, b > 0).

    Returns (gauss, mod4): `gauss` is the representative whose a - 1 + b*i
    is divisible by 2 + 2i, `mod4` the one with a = 1 mod 4.  The two agree
    up to the sign of a.  Requires p = 1 mod 4.
    """
    if ctx.k is None:
        raise WrongResidueClass(f"p={ctx.p} is 3 mod 4, not a sum of two squares")
    x, y = _cornacchia_two_squares(ctx.p, ctx.delta)
    a0, b0 = (x, y) if x % 2 == 1 else (y, x)
    want = 1 if b0 % 4 == 0 else 3
    gauss_a = a0 if a0 % 4 == want else -a0
    mod4_a = a0 if a0 % 4 == 1 else -a0
    # The 2+2i condition must pick out exactly two of the eight
    # unit/conjugate variants, both with the same real part.
    variants = [(a0, b0), (-b0, a0), (-a0, -b0), (b0, -a0),
                (a0, -b0), (b0, a0), (-a0, b0), (-b0, -a0)]
    passing = [(a, b) for a, b in variants if _divisible_by_two_plus_two_i(a, b)]
    if len(passing) != 2 or {a for a, _ in passing} != {gauss_a}:
        raise ArithmeticError(f"2+2i normalization not unique for p={ctx.p}: {passing}")
    return GaussianInteger(gauss_a, b0), GaussianInteger(mod4_a, b0)
