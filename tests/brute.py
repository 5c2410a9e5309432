"""Slow reference implementations used by the tests.

Everything here works from Euler-criterion Legendre symbols or from
squares tallied over all x, independent of the package's chi tables and
kernels.  All of it is pure Python nested loops except four numpy scans
that reach the primes the pure-Python counts cannot:
`count_classes_enumerated`, an enumeration of every quadruple;
`pair_tally`, the tiled scan of every pair (b, c) that `quadgraphs` ran
before it tallied them by FFT; and `m_scan_square_classes` and
`count_S_square_classes`, row-by-row scans of the grid of square classes
that `k3` ran before it took M off the grid and summed S by convolution.
`cyclic_convolution` is numpy's direct integer convolution, folded: the
reference for the FFT convolution the three FFT kernels now call.
"""

from itertools import combinations, product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def nroots(t, p):
    t %= p
    return sum(1 for y in range(p) if y * y % p == t)


def word(p):
    return "".join("X" if legendre(i, p) == 1 else "Y" for i in range(1, p))


def count_pattern_scan(p, s):
    w = word(p)
    return sum(1 for i in range(len(w) - len(s) + 1) if w[i:i + len(s)] == s)


def jacobsthal_truncated(p):
    return sum(legendre(i * (i + 1) * (i + 2), p) for i in range(1, p - 2))


def char_sum(p, offsets):
    total = 0
    for a in range(p):
        f = 1
        for i in offsets:
            f = f * (a + i) % p
        total += legendre(f, p)
    return total


def chain_curve_count(p, ell):
    """Nonzero-coordinate points on x_{j+1}^2 - x_j^2 = 1 by full recursion."""
    count = 0
    stack = [(x,) for x in range(1, p)]
    while stack:
        pt = stack.pop()
        if len(pt) == ell:
            count += 1
            continue
        t = (pt[-1] * pt[-1] + 1) % p
        for y in range(1, p):
            if y * y % p == t:
                stack.append(pt + (y,))
    return count


def poly_eval_horner(p, coeffs):
    """f(x) mod p for x in 0..p-1, reducing after every Horner step."""
    out = []
    for x in range(p):
        f = 0
        for c in reversed(coeffs):
            f = (f * x + c) % p
        out.append(f)
    return out


def poly_gcd_degree(f, g, p):
    """Degree of gcd(f, g) over F_p (coeff lists ascending, may be empty)."""
    def trim(h):
        while h and h[-1] % p == 0:
            h.pop()
        return h

    f, g = trim([c % p for c in f]), trim([c % p for c in g])
    while g:
        inv = pow(g[-1], p - 2, p)
        while len(f) >= len(g):
            factor = f[-1] * inv % p
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[i + shift] = (f[i + shift] - factor * c) % p
            f = trim(f)
            if not f:
                break
        f, g = g, f
    return len(f) - 1


def is_squarefree_mod(coeffs, p):
    """Whether f is squarefree over F_p: gcd(f, f') is a constant."""
    f = [c % p for c in coeffs]
    if not any(f):
        return False
    deriv = [i * c % p for i, c in enumerate(coeffs)][1:]
    return poly_gcd_degree(f, deriv, p) <= 0


def affine_count(p, coeffs, twist=1):
    total = 0
    for x in range(p):
        f = 0
        for c in reversed(coeffs):
            f = (f * x + c) % p
        total += sum(1 for y in range(p) if twist * y * y % p == f)
    return total


def edwards_affine(p):
    return sum(1 for x, y in product(range(p), repeat=2)
               if (x * x + y * y - (1 - x * x * y * y)) % p == 0)


def count_Mp(p):
    return sum(nroots((x * x * y * y + 1) * (x * x + y * y), p)
               for x, y in product(range(p), repeat=2))


def _square_classes(p):
    """Distinct values u of x^2 mod p, how often each occurs, and the
    root-count table rc[t] = #{y : y^2 = t}, tallied over all x."""
    rc = np.bincount(np.arange(p, dtype=np.int64) ** 2 % p, minlength=p)
    u = np.flatnonzero(rc)
    return u, rc[u], rc


def m_scan_square_classes(p):
    """(M, #{(x, y) : F = 0}) for F = (x^2 y^2 + 1)(x^2 + y^2), over the
    upper triangle of the grid of square classes (x^2, y^2), a row at a
    time: F is symmetric, so each cell off the diagonal stands for two."""
    u, w, rc = _square_classes(p)
    m = z0 = 0
    for i, (a, wa) in enumerate(zip(u, w)):
        f = (a * u[i:] + 1) * (a + u[i:]) % p  # below 2p^3, no overflow
        col = 2 * w[i:]
        col[0] = wa
        m += int(wa) * int(rc[f] @ col)
        z0 += int(wa) * int((f == 0) @ col)
    return m, z0


def count_S_square_classes(p):
    """#S over rows a = y12^2 and columns b = y23^2 of the grid of square
    classes: y24 has rc[1 - a] choices, y34 rc[1 - a - b] and y13
    rc[a + b]; rows with no choice of y24 are skipped."""
    u, w, rc = _square_classes(p)
    s = 0
    for a, wa in zip(u, w):
        outer = rc[(1 - a) % p]
        if outer:
            t = (a + u) % p
            s += int(wa * outer) * int((rc[(1 - t) % p] * rc[t]) @ w)
    return s


def count_S_5loop(p):
    n = 0
    for y12, y23, y34, y13, y24 in product(range(p), repeat=5):
        if ((y12 * y12 + y23 * y23 - y13 * y13) % p == 0
                and (y23 * y23 + y34 * y34 - y24 * y24) % p == 0
                and (y12 * y12 + y23 * y23 + y34 * y34 - 1) % p == 0):
            n += 1
    return n


def count_S_rootloop(p):
    n = 0
    for y12, y23 in product(range(p), repeat=2):
        for y34 in range(p):
            if (y12 * y12 + y23 * y23 + y34 * y34 - 1) % p:
                continue
            n += nroots(y12 * y12 + y23 * y23, p) * nroots(y23 * y23 + y34 * y34, p)
    return n


def xprime_counts(p):
    total = boundary = 0
    for x1, t in product(range(p), repeat=2):
        rhs = (t * t * pow(x1, 4, p) + 1) * (t * t + 1) % p
        for y1 in range(p):
            if y1 * y1 % p != rhs:
                continue
            total += 1
            if x1 == 0 or y1 == 0 or t == 0:
                boundary += 1
    return total, boundary


DEGREE_KEYS = {
    (0, 0, 0, 0): "Empty", (0, 0, 1, 1): "OneEdge", (1, 1, 1, 1): "TwoDisjointEdges",
    (0, 1, 1, 2): "PathP3", (0, 2, 2, 2): "TrianglePlusVertex", (1, 1, 2, 2): "PathP4",
    (1, 1, 1, 3): "StarK13", (2, 2, 2, 2): "CycleC4", (1, 2, 2, 3): "Paw",
    (2, 2, 3, 3): "Diamond", (3, 3, 3, 3): "K4",
}


def classify(p, quad):
    deg = [0, 0, 0, 0]
    for i, j in combinations(range(4), 2):
        if legendre(quad[i] - quad[j], p) == 1:
            deg[i] += 1
            deg[j] += 1
    return DEGREE_KEYS[tuple(sorted(deg))]


def count_classes(p):
    tallies = {name: 0 for name in DEGREE_KEYS.values()}
    for abc in combinations(range(1, p), 3):
        tallies[classify(p, (0,) + abc)] += 1
    assert all(v % 4 == 0 for v in tallies.values())
    return {name: v // 4 for name, v in tallies.items()}


def count_classes_enumerated(p):
    """count_classes(p) by a vectorized scan of all C(p-1, 3) subsets
    {0, a, b, c}: for each smallest element a, the (b, c) square over
    a < b, c is classified at once.  Each class of quadruples holds four
    such subsets, and the square counts every pair {b, c} twice."""
    is_r = np.array([legendre(t, p) == 1 for t in range(p)], dtype=np.uint8)
    pow5 = np.array([1, 5, 25, 125], dtype=np.int16)
    off = np.arange(p - 2, dtype=np.int32)
    # chi(-x) = chi(x) at p = 1 mod 4, so |c - b| indexes the edge b-c
    absdiff = np.abs(off[None, :] - off[:, None])
    hist = np.zeros(501, dtype=np.int64)
    for a in range(1, p - 2):
        m = p - 1 - a  # b, c run over a+1 .. p-1
        e1 = int(is_r[a])
        rb = is_r[a + 1: p]          # edge 0-b
        rba = is_r[1: m + 1]         # edge a-b, index b - a
        rcb = is_r[absdiff[:m, :m]]  # edge b-c
        d0 = (e1 + rb)[:, None] + rb[None, :]
        da = (e1 + rba)[:, None] + rba[None, :]
        s = rb + rba
        db = s[:, None] + rcb
        dc = s[None, :] + rcb
        key = pow5[d0] + pow5[da] + pow5[db] + pow5[dc]
        hist += np.bincount(key.ravel(), minlength=501)
        # remove the b == c diagonal
        key_diag = pow5[e1 + 2 * rb] + pow5[e1 + 2 * rba] + 2 * pow5[s]
        hist -= np.bincount(key_diag, minlength=501)
    out = {}
    for degrees, name in DEGREE_KEYS.items():
        tally = int(hist[sum(5 ** d for d in degrees)])
        assert tally % 8 == 0, (name, tally)
        out[name] = tally // 8
    return out


# Cells of the (b, c) grid classified per block of pair_tally.
_TILE_CELLS = 1 << 14

# Added by pair_tally to the key of a cell outside the grid (b or c in
# {0, a}, or b = c); every valid edge key is below it.
_OFF_GRID = 32


def pair_tally(is_r, a):
    """hist[key] = number of ordered pairs (b, c), b != c, both outside
    {0, a}, whose quadruple {0, a, b, c} has edge key `key`, packed as
    [0-c] + 2[a-c] + 4[0-b] + 8[a-b] + 16[b-c] for the residue indicator
    is_r (an intp array): every cell classified by its own edges, rows of
    b in tiles of about _TILE_CELLS cells."""
    p = len(is_r)
    # edges 0-x and a-x; x = 0 and x = a are off the grid
    col = is_r + 2 * np.roll(is_r, a)
    col[[0, a]] = _OFF_GRID
    # row i of the window holds the edge b-c for b = p - i and c = 0 .. p-1:
    # bc[(c - b) % p] is entry i + c of bc doubled; c = b is off the grid
    bc = 16 * is_r
    bc[0] = _OFF_GRID
    window = sliding_window_view(np.concatenate((bc, bc)), p)[1:p]
    row = 4 * col[:0:-1]  # b = p - 1 .. 1, the window's row order
    step = max(1, _TILE_CELLS // p)
    buf = np.empty((min(step, p - 1), p), dtype=np.intp)
    hist = np.zeros(_OFF_GRID, dtype=np.int64)
    for i in range(0, p - 1, step):
        rows = row[i:i + step, None]
        keys = np.add(rows, col, out=buf[:len(rows)])
        keys += window[i:i + step]
        hist += np.bincount(keys.ravel(), minlength=_OFF_GRID)[:_OFF_GRID]
    return hist


def cyclic_convolution(rows, r):
    """Cyclic convolution mod p = len(r) of each row with r: the int64
    linear convolution by np.convolve, entry s + p folded onto s."""
    p = len(r)
    out = np.empty((len(rows), p), dtype=np.int64)
    for row, folded in zip(rows, out):
        linear = np.convolve(np.asarray(row, dtype=np.int64), np.asarray(r, dtype=np.int64))
        folded[:] = linear[:p]
        folded[:p - 1] += linear[p:]
    return out


def cubic_trace(p, coeffs):
    return p - affine_count(p, coeffs)


def isomorphism_classes_on_4_vertices():
    """All 64 labeled graphs grouped under vertex permutations."""
    import itertools
    pairs = list(combinations(range(4), 2))
    classes = {}
    for bits in range(64):
        edges = frozenset(pairs[i] for i in range(6) if bits >> i & 1)
        canon = min(
            tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
            for perm in itertools.permutations(range(4)))
        classes.setdefault(canon, []).append(edges)
    return classes
