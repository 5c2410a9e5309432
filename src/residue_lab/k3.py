"""Point counts on the two K3 surfaces and on a chart of the first.  The
identities tying them to the CM cubic are checked in `claims`.

Surface X:  z^2 = (x^2 y^2 + 1)(x^2 + y^2)  in 3-space.
Surface S:  y12^2 + y23^2 = y13^2,  y23^2 + y34^2 = y24^2,
            y12^2 + y23^2 + y34^2 = 1  in 5-space.
Chart X':   y1^2 = (t^2 x1^4 + 1)(t^2 + 1), with #X = #X' + p.

Every kernel is a brute-force sum over two free coordinates, with the
remaining coordinates resolved through the root-count table, regrouped
without changing its value:

- Square classes.  Each integrand sees its free coordinates only through
  x^2, y^2 (M) or t^2, x1^4 (X'), so the sum runs over the distinct
  values of `ctx.squares` (or of `squares[squares]`), each weighted by its
  multiplicity.  That leaves about p^2/8 cells for X' (p^2/4 when
  p = 3 mod 4, where x1^4 takes (p+1)/2 values).
- Orbits of M.  Let F(x, y) = (x^2 y^2 + 1)(x^2 + y^2).  F(y, x) = F(x, y),
  and for x != 0, F(1/x, y) = (y^2/x^2 + 1)(1/x^2 + y^2) = F(x, y)/x^4, so
  (x, y, z) -> (1/x, y, z/x^2) maps the points of X with x != 0 one to one
  onto themselves, and likewise y -> 1/y.  On the grid of nonzero square
  classes (u, v) = (x^2, y^2) these three maps generate a group of order 8
  under which rc[F] is constant on every orbit (F changes by a nonzero
  square factor), and F = 0 on one cell exactly when on all of them.  So
  the torus x, y != 0 is summed over pair classes r = {u, 1/u}, each
  weighted by m(r) = |{u, 1/u}| (1 only for u = 1, and u = -1 when
  p = 1 mod 4), over the upper triangle of the pair-class grid: about
  p^2/32 cells.  The inverses come from square-and-multiply of u^(p-2),
  not from a primitive root or chi.  The axes add rc[x^2] or rc[y^2].
- S by convolution.  With A[t] = rc[t] rc[1 - t], the count is
  S = sum_s A[s] (A * rc)[s] for the cyclic convolution * mod p, computed
  exactly in O(p log p) by `modarith.cyclic_convolution`, a float64 FFT
  product whose every entry is checked to lie within 1/4 of an integer
  (see `count_S` for the p it accepts).
- Fixed tiles.  Rows of a class grid are processed in blocks of about
  _TILE_CELLS cells, each reduced with a matrix-vector product against the
  column weights.  Every block is computed in place in the same few
  buffers, allocated once per scan, so no temporary exceeds one block and
  the scan does not churn the heap from block to block.  One of them holds
  each block's unreduced products, which `reduce_mod` reduces into the
  next without a temporary.
- One fused M scan.  `_m_scan` returns M together with the tally of
  z = 0 points, which the locus count of the bookkeeping claim reads
  instead of scanning again.

The kernels read only `ctx.squares` and `ctx.root_counts` (never chi, J or
a curve trace) and import no closed form, so an `--oracle` context drives
them down an independent path.
"""

import numpy as np

from .modarith import FieldContext, cyclic_convolution, reduce_mod
from . import curves

# Cells of the class grid reduced per block; bounds every temporary.
_TILE_CELLS = 1 << 14

# Largest p whose unreduced cell value (a*b + 1)(a + b) < 2p^3 fits in int64;
# above it the first factor is reduced mod p before the product.
_ONE_REDUCTION_MAX_P = 1_600_000

# count_S refuses p at or above this: see its docstring.
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


def _inverses(u: np.ndarray, p: int) -> np.ndarray:
    """u^(p-2) mod p elementwise, by square-and-multiply: the inverse of
    every entry of u, all nonzero mod p."""
    inv = np.ones_like(u)
    power = u.copy()
    raw = np.empty_like(u)
    e = p - 2
    while e:
        if e & 1:
            reduce_mod(np.multiply(inv, power, out=raw), p, out=inv)
        e >>= 1
        if e:
            reduce_mod(np.multiply(power, power, out=raw), p, out=power)
    return inv


def _m_scan(ctx: FieldContext) -> tuple[int, int]:
    """(M, number of (x, y) with (x^2 y^2 + 1)(x^2 + y^2) = 0) in one pass."""
    p = ctx.p
    sq = ctx.squares
    rc = ctx.root_counts
    nonzero = _classes(sq)[0][1:]  # the (p-1)/2 nonzero squares
    inv = _inverses(nonzero, p)
    first = nonzero <= inv
    u = nonzero[first]  # one square of each pair class {u, 1/u}
    w = np.where(u == inv[first], 1, 2)  # m(r) = |{u, 1/u}|
    n = len(u)
    # a row's weighted root-count sum is at most 2 * 2 * (p-1)/2 (doubled
    # columns, weights summing to (p-1)/2)
    base = 2 * p + 1
    table = _zero_flagged(rc, base)
    # no block has more than max(_TILE_CELLS, n) cells, nor more than n^2
    size = min(n * n, max(_TILE_CELLS, n))
    sum_buf, index_buf, raw_buf = (np.empty(size, dtype=np.int64) for _ in range(3))
    sums = np.empty(n, dtype=np.int64)
    i = 0
    while i < n:
        j = min(n, i + max(1, _TILE_CELLS // (n - i)))
        a = u[i:j, None]
        b = u[i:]
        shape = (j - i, n - i)
        cells = shape[0] * shape[1]
        c = np.add(a, b, out=sum_buf[:cells].reshape(shape))
        index = _product_cell(a, b, c, p, index_buf[:cells].reshape(shape),
                              raw_buf[:cells].reshape(shape))
        vals = _gather(table, index, c)  # c is spent; its buffer takes the values
        # (r, s) and (s, r) give the same cell: columns past the block
        # stand for both orders, the block's own square for itself
        sums[i:j] = vals[:, :j - i] @ w[i:j] + 2 * (vals[:, j - i:] @ w[j:])
        i = j
    zeros, roots = np.divmod(sums, base)
    # each class cell stands for 2 * 2 (x, y); on the axes F is x^2 or y^2,
    # which vanishes only at the origin
    on_axes = int(rc[0]) + 2 * int(rc[sq[1:]].sum())
    return 4 * int(roots @ w) + on_axes, 4 * int(zeros @ w) + 1


def count_Mp(ctx: FieldContext) -> int:
    """Number of solutions of z^2 = (x^2 y^2 + 1)(x^2 + y^2)."""
    return _m_scan(ctx)[0]


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


def _locus_X(ctx: FieldContext, z0: int) -> int:
    """Points of X with y = 0 or z = 0, given the z = 0 tally of `_m_scan`."""
    on_y0 = int(ctx.root_counts[ctx.squares].sum())  # z^2 = x^2
    overlap = 1  # y = z = 0 forces x = 0
    return on_y0 + z0 - overlap


def _locus_X_count(ctx: FieldContext) -> int:
    """Points of X with y = 0 or z = 0, by direct count."""
    return _locus_X(ctx, _m_scan(ctx)[1])


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
