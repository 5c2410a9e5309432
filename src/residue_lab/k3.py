"""Point counts on the two K3 surfaces and on a chart of the first.  The
identities tying them to the CM cubic are checked in `claims`.

Surface X:  z^2 = (x^2 y^2 + 1)(x^2 + y^2)  in 3-space.
Surface S:  y12^2 + y23^2 = y13^2,  y23^2 + y34^2 = y24^2,
            y12^2 + y23^2 + y34^2 = 1  in 5-space.
Chart X':   y1^2 = (t^2 x1^4 + 1)(t^2 + 1), with #X = #X' + p.

Every kernel is a brute-force sum over two free coordinates, with the
remaining coordinates resolved through the root-count table, regrouped
without changing its value:

- Square classes.  The chart integrand sees its free coordinates only
  through t^2 and x1^4, so the X' sum runs over the distinct values of
  `ctx.squares` and of `squares[squares]`, each weighted by its
  multiplicity: about p^2/8 cells (p^2/4 when p = 3 mod 4, where x1^4
  takes (p+1)/2 values).
- M off the grid.  `count_Mp` regroups the sum over (x, y) exactly, by an
  autocorrelation at p = 1 mod 4 and by three O(p) sums over the tables
  at p = 3 mod 4 (see its docstring).  Neither evaluates a Jacobi
  sum, N or a trace.  The z = 0 points are tallied apart, in O(p).
- S by convolution.  With A[t] = rc[t] rc[1 - t], the count is
  S = sum_s A[s] (A * rc)[s] for the cyclic convolution * mod p, computed
  exactly in O(p log p) by `modarith.cyclic_convolution`, a float64 FFT
  product whose every entry is checked to lie within 1/4 of an integer
  (see `count_S` for the p it accepts).
- Fixed tiles.  Rows of the chart's class grid are processed in blocks of
  about _TILE_CELLS cells, each reduced with a matrix-vector product
  against the column weights.  Every block is computed in place in the
  same few buffers, allocated once per scan, so no temporary exceeds one
  block and the scan does not churn the heap from block to block.  One of
  them holds each block's unreduced products, which `reduce_mod` reduces
  into the next without a temporary.

The kernels read only `ctx.squares` and `ctx.root_counts` (never chi, J or
a curve trace) and import no closed form, so an `--oracle` context drives
them down an independent path.
"""

import numpy as np

from .modarith import FieldContext, cyclic_convolution, reduce_mod
from . import curves

# Cells of the class grid reduced per block; bounds every temporary.
_TILE_CELLS = 1 << 14

# Largest p whose unreduced cell value (a*b + 1)*c < 2p^3 fits in int64;
# above it the first factor is reduced mod p before the product.
_ONE_REDUCTION_MAX_P = 1_600_000

# count_Mp and count_S refuse p at or above these: see their docstrings.
_M_MAX_P = 1 << 31
_S_MAX_P = 1 << 29


def _classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values, ascending, and how often each occurs."""
    counts = np.bincount(values)
    distinct = np.flatnonzero(counts)
    return distinct, counts[distinct]


def _zero_flagged(root_counts: np.ndarray, base: int) -> np.ndarray:
    """root_counts with `base` added at 0.  A weighted sum s of its entries
    splits as divmod(s, base) = (weighted zero tally, weighted root-count
    sum) whenever the root-count sum stays below `base`."""
    table = root_counts.astype(np.int64)
    table[0] += base
    return table


def _product_cell(a: np.ndarray, b: np.ndarray, c: np.ndarray, p: int,
                  out: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """(a*b + 1) * c mod p into out, for a column a, a row b and c < 2p;
    raw, of out's shape, takes the unreduced products."""
    np.multiply(a, b, out=raw)
    raw += 1
    if p > _ONE_REDUCTION_MAX_P:
        np.multiply(reduce_mod(raw, p, out=out), c, out=raw)
    else:
        raw *= c
    return reduce_mod(raw, p, out=out)


def _gather(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """table[index] into out.  Every index is already reduced mod p, so
    "clip" never acts; unlike the default mode it needs no temporary."""
    return np.take(table, index, out=out, mode="clip")


def count_Mp(ctx: FieldContext) -> int:
    """Number of solutions of z^2 = F(x, y) = (x^2 y^2 + 1)(x^2 + y^2), the
    sum M of rc[F] over (x, y), by an exact regrouping chosen by p mod 4.
    Each reads only `squares` and `root_counts`, with chi = rc - 1.

    p = 1 mod 4 (`_m_by_correlation`).  With i^2 = -1, (a, b) =
    (x + iy, x - iy) is a bijection of F_p^2 with 16 F = ab (16 - (a^2 -
    b^2)^2).  As chi is multiplicative and chi(16) = 1, M = p^2 +
    sum_d h(d) sum_A psi(A) psi(A - d) with h(d) = chi(16 - d^2) and
    psi(A) = sum_{a^2 = A} chi(a): one `cyclic_convolution`, and i itself
    is never computed.

    p = 3 mod 4 (`_m_by_square_classes`).  Off the axes put y = x r: F is
    x^2 (1 + r^2)(r^2 x^4 + 1), and a nonzero square factor leaves rc
    unchanged.  x -> x^4 covers the nonzero squares Q twice and u -> r^2 u
    permutes Q, so the torus gives 2 sum_{r != 0} G(1 + r^2) with
    G(c) = sum_{v in Q} rc[c (v + 1)], which depends only on the square
    class of c.  As -1 is not a square, 1 + r^2 is never 0, so the torus
    is 2 (n_sq G(1) + (p - 1 - n_sq) G(n)) for a non-square n, read off
    rc, and the number n_sq of r != 0 with 1 + r^2 a square.

    Exactness.  p >= 2^31 raises ValueError.  Below it every partial sum
    of h . (psi * psi) is at most (sum |psi|)^2 < p^2 < 2^62, and so is
    every product c (v + 1); |psi|^2 = 2(p - 1) meets the rounding bound
    of `cyclic_convolution` up to p = 2^40.
    """
    p = ctx.p
    if p >= _M_MAX_P:
        raise ValueError(f"count_Mp is exact only for p < {_M_MAX_P}, got p={p}")
    if p % 4 == 1:
        return _m_by_correlation(ctx)
    return _m_by_square_classes(ctx)


def _m_by_correlation(ctx: FieldContext) -> int:
    """M at p = 1 mod 4 by the autocorrelation of psi (see `count_Mp`)."""
    p = ctx.p
    sq = ctx.squares
    rc = ctx.root_counts
    half = (p + 1) // 2  # squares[1:half] holds each nonzero square once
    psi = np.zeros(p, dtype=np.int8)
    psi[sq[1:half]] = 2 * rc[1:half] - 2  # 2 chi(a), as chi(-a) = chi(a)
    r = np.concatenate((psi[:1], psi[:0:-1]))  # r[u] = psi(-u)
    c = cyclic_convolution(psi[None], r)[0]  # c[d] = sum_A psi(A) psi(A - d)
    h = rc[reduce_mod(16 - sq, p)] - 1
    return p * p + int(h @ c)


def _m_by_square_classes(ctx: FieldContext) -> int:
    """M at p = 3 mod 4 by three O(p) sums (see `count_Mp`)."""
    p = ctx.p
    sq = ctx.squares
    rc = ctx.root_counts
    shifted = sq[1:(p + 1) // 2] + 1  # v + 1 for each v in Q once
    n = int(np.argmin(rc))  # rc vanishes exactly at the non-squares
    g1, gn = (int(rc[reduce_mod(c * shifted, p)].sum()) for c in (1, n))
    n_sq = int(np.count_nonzero(rc[reduce_mod(1 + sq[1:], p)]))
    on_axes = int(rc[0]) + 2 * int(rc[sq[1:]].sum())  # F is x^2 or y^2 there
    return on_axes + 2 * (n_sq * g1 + (p - 1 - n_sq) * gn)


def count_Np(ctx: FieldContext) -> int:
    """Affine count of y^2 = x^3 - x."""
    return curves.affine_count(ctx, curves.WEIERSTRASS_CM)


def count_S(ctx: FieldContext) -> int:
    """Points on the three-quadric surface in 5-space.

    For fixed (y12, y23) the last equation forces y34^2 = 1 - y12^2 - y23^2,
    and every root leads to y23^2 + y34^2 = 1 - y12^2, so the two remaining
    coordinates contribute root-count factors independent of the root chosen:
    with s = y12^2 + y23^2, y34 has rc[1 - s] choices, y13 has rc[s] and
    y24 has rc[1 - y12^2].  Summing over the values a = y12^2 and
    b = y23^2, taken rc[a] and rc[b] times,

        S = sum_{a, b} rc[a] rc[1 - a] rc[b] A[a + b] = sum_s A[s] C[s]

    with A[t] = rc[t] rc[1 - t] and C = A * rc, the cyclic convolution mod
    p, computed exactly by `modarith.cyclic_convolution` in O(p log p).

    Exactness.  Every entry of C is an integer below 8p, and the int64 sum
    of A[s] C[s] <= 32 p^2 is exact for p < 2^29: larger p raise
    ValueError.  Below that, |A| |rc| < 4 sqrt 2 p < 3.1 * 10^9 with
    |A| <= 4 sqrt p and |rc| < sqrt(2p), far within the rounding bound of
    `cyclic_convolution`.
    """
    p = ctx.p
    if p >= _S_MAX_P:
        raise ValueError(f"count_S is exact only for p < {_S_MAX_P}, got p={p}")
    rc = ctx.root_counts
    a = rc * np.concatenate((rc[1::-1], rc[:1:-1]))  # rc[t] * rc[1 - t]
    return int(a @ cyclic_convolution(a[None], rc)[0])


def _zero_count(ctx: FieldContext) -> int:
    """Number of (x, y) with F = (x^2 y^2 + 1)(x^2 + y^2) = 0: x^2 + y^2 = 0
    at sum_x rc[-x^2] points, (xy)^2 = -1 at rc[-1] points (x, w/x) for
    each x != 0, where x^2 + y^2 = (x^4 - 1)/x^2 vanishes too exactly at
    the rc[1] + rc[-1] roots of x^4 = 1."""
    p = ctx.p
    rc = ctx.root_counts
    minus_one = int(rc[p - 1])
    on_circle = int(rc[reduce_mod(-ctx.squares, p)].sum())
    return on_circle + minus_one * (p - 1 - int(rc[1]) - minus_one)


def _locus_X_count(ctx: FieldContext) -> int:
    """Points of X with y = 0 or z = 0, by direct count."""
    on_y0 = int(ctx.root_counts[ctx.squares].sum())  # z^2 = x^2
    overlap = 1  # y = z = 0 forces x = 0
    return on_y0 + _zero_count(ctx) - overlap


def _locus_S_count(ctx: FieldContext) -> int:
    """Points of S with y13 = y12 or y23 = y34, by direct count."""
    p = ctx.p
    sq = ctx.squares
    rc = ctx.root_counts
    # y13 = y12 forces y23 = 0, leaving y12^2 + y34^2 = 1 with y24^2 = y34^2
    t = reduce_mod(1 - sq, p)
    v = rc[t] ** 2
    v[t == 0] = 1
    l1 = int(v.sum())
    # y23 = y34 = w: y12^2 = 1 - 2w^2, y13^2 = 1 - w^2, y24^2 = 2w^2
    l2 = int((rc[reduce_mod(1 - 2 * sq, p)] * rc[t] * rc[reduce_mod(2 * sq, p)]).sum())
    overlap = 2  # both conditions force (+-1, 0, 0, +-1, 0)
    return l1 + l2 - overlap


def _xprime_scan(ctx: FieldContext) -> tuple[int, int, np.ndarray]:
    """One pass over the chart X': total count, boundary count
    (x1 = 0 or y1 = 0 or t = 0), and the interior fiber count per t."""
    p = ctx.p
    sq = ctx.squares
    rc = ctx.root_counts
    t2, t_weight = _classes(sq)
    q, q_weight = _classes(sq[sq])  # classes of x1^4; x1 = 0 alone gives 0
    cols, weights = q[1:], q_weight[1:]
    # a row's weighted root-count sum over x1 != 0 is at most 2(p - 1)
    base = 2 * p + 1
    table = _zero_flagged(rc, base)
    # sums[i] = sum_j weights[j] * table[(t2[i] cols[j] + 1)(t2[i] + 1) mod p],
    # over rows of t2 in blocks of about _TILE_CELLS cells
    step = max(1, _TILE_CELLS // len(cols))
    index_buf = np.empty((min(step, len(t2)), len(cols)), dtype=np.int64)
    value_buf = np.empty_like(index_buf)
    sums = np.empty(len(t2), dtype=np.int64)
    for i in range(0, len(t2), step):
        a = t2[i:i + step, None]
        index = _product_cell(a, cols, a + 1, p, index_buf[:len(a)], value_buf[:len(a)])
        # the values are gathered only after the indices are done
        values = _gather(table, index, value_buf[:len(a)])
        np.matmul(values, weights, out=sums[i:i + step])
    zeros, roots = np.divmod(sums, base)
    # y1 = 0 happens exactly where the right side vanishes
    per_class = np.zeros(p, dtype=np.int64)
    per_class[t2] = roots - zeros
    fibers = per_class[sq]
    fibers[0] = 0
    # the x1 = 0 column: the right side is t^2 + 1
    total = int((roots + q_weight[0] * rc[reduce_mod(t2 + 1, p)]) @ t_weight)
    boundary = total - int(fibers.sum())
    return total, boundary, fibers


def count_Xprime(ctx: FieldContext) -> tuple[int, int]:
    """(total, boundary) for the chart X'."""
    total, boundary, _ = _xprime_scan(ctx)
    return total, boundary
