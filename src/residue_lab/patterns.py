"""Residue words and pattern counts.

The word for p lists positions 1..p-1, writing X for quadratic residues
and Y for non-residues.  Words and patterns are plain strings over X and
Y; `count_pattern` takes a pattern in either case and refuses any other
letter.  Pattern occurrences are counted two independent
ways, and both must agree exactly:

- Window scan.  `pattern_census` codes every window of length ell as an
  ell-bit integer (Y = 1, first letter most significant, so the code of S
  is its index in `all_patterns(ell)`) and counts all 2^ell patterns with
  one bincount.  `count_pattern` scans the word for one pattern of any
  length.
- Character-sum expansion.  2^ell n_p(S) is the complete sum over a in F_p
  of prod_j (1 + eps_j chi(a + j)), less the ell windows that cross
  position 0.  Expanding the product gives the subset sums
  T(I) = sum_a chi(prod_{j in I} (a + j)) with sign prod_{j in I} eps_j =
  (-1)^|I & Y(S)|, so one Walsh-Hadamard transform of the vector T gives
  the full sum for every S at once.  `pattern_counts_charsum` computes each
  T(I) once per (p, ell), building the products depth-first.

Neither path reads the other's output.  Both refuse a length whose 2^ell
bins would not stay O(p).
"""

from itertools import product

import numpy as np

from .errors import PatternTooLong, WrongResidueClass
from .modarith import FieldContext, reduce_mod

# A census of length ell keeps 2^ell bins; refusing more than this many per
# unit of p keeps them O(p).  It admits every ell <= p - 1 for p <= 7.
_CENSUS_BINS_PER_P = 16


def all_patterns(ell: int) -> list[str]:
    """All 2^ell patterns of length ell, in lexicographic order."""
    return ["".join(t) for t in product("XY", repeat=ell)]


def residue_word(ctx: FieldContext) -> str:
    """The length-(p-1) word of residue/non-residue letters for positions 1..p-1."""
    return "".join(np.where(ctx.chi[1:] == 1, "X", "Y"))


def count_pattern(ctx: FieldContext, S: str) -> int:
    """Number of windows of consecutive positions in the word equal to S,
    a nonempty word over X and Y in either case."""
    s = S.upper()
    if not s:
        raise ValueError("empty pattern")
    bad = set(s) - {"X", "Y"}
    if bad:
        raise ValueError(f"pattern letters must be X or Y, got {sorted(bad)}")
    ell = len(s)
    p = ctx.p
    if ell > p - 1:
        raise PatternTooLong(f"pattern of length {ell} cannot occur for p={p}")
    is_x = ctx.chi[1:] == 1
    n = p - ell  # number of windows
    match = np.ones(n, dtype=bool)
    for j, ch in enumerate(s):
        match &= is_x[j:j + n] == (ch == "X")
    return int(match.sum())


def _check_census_length(p: int, ell: int) -> None:
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if ell > p - 1:
        raise PatternTooLong(f"pattern of length {ell} cannot occur for p={p}")
    if (1 << ell) > _CENSUS_BINS_PER_P * p:
        raise PatternTooLong(f"a census of length {ell} needs 2^{ell} bins, "
                             f"more than {_CENSUS_BINS_PER_P}p for p={p}")


def pattern_census(ctx: FieldContext, ell: int) -> dict[str, int]:
    """Window counts of every pattern of length ell, in `all_patterns` order.

    One integer code per window, then one bincount: O(ell * p) however many
    of the patterns are read.
    """
    p = ctx.p
    _check_census_length(p, ell)
    is_y = (ctx.chi[1:] != 1).astype(np.int64)
    n = p - ell  # number of windows
    codes = is_y[:n].copy()
    for j in range(1, ell):
        codes <<= 1
        codes |= is_y[j:j + n]
    counts = np.bincount(codes, minlength=1 << ell)
    return dict(zip(all_patterns(ell), counts.tolist()))


def jacobsthal(ctx: FieldContext) -> int:
    """Sum of chi(a(a+1)(a+2)) over all a mod p, for p = 4k + 1.

    The three terms with a zero factor vanish, so this complete sum equals
    the classical truncated one over 1..p-3.
    """
    if ctx.k is None:
        raise WrongResidueClass(f"p={ctx.p} is not 1 mod 4")
    p = ctx.p
    a = ctx.index
    t = a + 1
    t *= a  # a + 1 <= p: each product stays below p^2 + p
    f = reduce_mod(t, p)
    np.add(a, 2, out=t)
    f *= t
    return int(ctx.chi[reduce_mod(f, p, out=t)].sum())


def _subset_char_sums(ctx: FieldContext, ell: int) -> np.ndarray:
    """T(I) = sum_a chi(prod_{j in I} (a + j)) for every I within 0..ell-1,
    indexed by the bitmask of I (offset j is bit ell-1-j); T(empty) = p.

    Depth-first over the offsets: each product extends its parent's by one
    factor into the buffer of its depth, through one shared buffer for the
    unreduced product, so at most ell + 1 length-p arrays are live.
    """
    p = ctx.p
    # a + j = shifted[j:j+p]
    shifted = reduce_mod(np.arange(p + ell - 1, dtype=np.int64), p)
    buffers = np.empty((ell - 1, p), dtype=np.int64)
    unreduced = np.empty(p, dtype=np.int64)
    sums = np.zeros(1 << ell, dtype=np.int64)
    sums[0] = p

    def extend(prod: np.ndarray, mask: int, start: int, depth: int) -> None:
        sums[mask] = int(ctx.chi[prod].sum())
        for j in range(start, ell):
            np.multiply(prod, shifted[j:j + p], out=unreduced)
            child = reduce_mod(unreduced, p, out=buffers[depth])
            extend(child, mask | 1 << (ell - 1 - j), j + 1, depth + 1)

    for j in range(ell):
        extend(shifted[j:j + p], 1 << (ell - 1 - j), j + 1, 0)
    return sums


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """H[s] = sum_i (-1)^popcount(i & s) v[i] for len(v) a power of 2."""
    h = v
    step = 1
    while step < v.size:
        h = h.reshape(-1, 2, step)
        h = np.stack((h[:, 0] + h[:, 1], h[:, 0] - h[:, 1]), axis=1)
        step *= 2
    return h.reshape(-1)


def pattern_counts_charsum(ctx: FieldContext, ell: int) -> dict[str, int]:
    """pattern_census recomputed through complete character sums.

    2^ell * n_p(S) equals the full sum over a in F_p of
    prod_j (1 + eps_j * chi(a + j)) minus the same product summed over the
    ell window starts whose window crosses position 0.
    """
    p = ctx.p
    _check_census_length(p, ell)
    full = _walsh_hadamard(_subset_char_sums(ctx, ell))
    # eps[S, j] = -1 where letter j of pattern S is Y
    codes = np.arange(1 << ell, dtype=np.int64)
    eps = 1 - 2 * ((codes[:, None] >> np.arange(ell - 1, -1, -1)) & 1)
    crossing = np.zeros(1 << ell, dtype=np.int64)
    for j0 in range(ell):
        window = ctx.chi[(np.arange(ell) - j0) % p].astype(np.int64)
        crossing += np.prod(1 + eps * window, axis=1)
    diff = full - crossing
    if np.any(diff % (1 << ell)):
        raise ArithmeticError(f"character-sum expansion not divisible by 2^{ell} at p={p}")
    return dict(zip(all_patterns(ell), (diff >> ell).tolist()))


def pattern_curve_count(ctx: FieldContext, ell: int) -> int:
    """Points with all coordinates nonzero on the chain x_{j+1}^2 - x_j^2 = 1.

    Equals 2^ell times the count of the all-X pattern of length ell.
    """
    p = ctx.p
    if not 2 <= ell <= p - 1:
        raise ValueError(f"need 2 <= ell <= p-1, got ell={ell}, p={p}")
    nz_roots = ctx.root_counts.copy()
    nz_roots[0] = 0  # zero coordinates are excluded
    sq = ctx.squares[1:]  # x_1 runs over 1..p-1
    total = np.ones(p - 1, dtype=np.int64)
    for j in range(1, ell):
        total *= nz_roots[reduce_mod(sq + j, p)]
    return int(total.sum())
