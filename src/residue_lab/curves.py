"""Point counts and Frobenius traces for the curves behind the pattern
and surface identities: the CM cubic y^2 = x^3 - x and its shifts, the
Edwards quartic x^2 + y^2 = 1 - x^2 y^2, the four lemniscatic quartic
twists u^2 = c s^4 + 1, and the genus-2 quintic with its extra involution.

Every curve is y^2 = f(x), given as the tuple of f's coefficients in
ascending degree: the twist t*y^2 = f(x) is Y^2 = t*f(x) under Y = t*y.
Each count is one Horner pass, or one table of s^4, and one root_counts
gather, and no count reads chi.  Every trace, cubic or quartic, comes
from one law checked against the Hasse bound.
A cubic or quartic model reduces well at p when p does not divide its
integer discriminant, a classical closed form computed at each call.
The identities these counts enter are checked in `claims`.

A trace has two routes, which share the good-reduction rule and the
trace law and nothing else.  curve_trace counts every point, in O(p),
and every trace a claim reads comes from it.  bsgs_traces finds the group
order of a few points by baby-step giant-step, in O(p^(1/4)) group
operations and no table, for a list of primes at once: numpy int64
lanes step in lockstep, in projective coordinates, with one modular
inverse per lane for the baby steps and one for the giant steps.  Only
stats.collect_traces takes it, and the tests pin it to curve_trace, its
oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularCurve, WrongResidueClass
from .modarith import FieldContext, reduce_mod


def discriminant(f: tuple[int, ...]) -> int:
    """disc(f) for a cubic or a quartic f, coefficients in ascending order,
    by the classical closed forms; for the quartic 27 disc = 4 I^3 - J^2
    with its invariants I and J.  ValueError for any other degree."""
    if len(f) == 4:
        d, c, b, a = f
        return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                - 27 * a * a * d * d + 18 * a * b * c * d)
    if len(f) == 5:
        e, d, c, b, a = f
        i = 12 * a * e - 3 * b * d + c * c
        j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c ** 3
        return (4 * i ** 3 - j * j) // 27
    raise ValueError("need a cubic or a quartic")


# Named cubics and the quartic used throughout; all have leading
# coefficient 1 and good reduction at every p >= 5.
WEIERSTRASS_CM = (0, -1, 0, 1)             # y^2 = x^3 - x
NAMED_CURVES = {
    "a": (0, 2, 3, 1),                     # x(x+1)(x+2)
    "b": (0, 3, 4, 1),                     # x(x+1)(x+3)
    "c": (0, 6, 5, 1),                     # x(x+2)(x+3)
    "d": (6, 11, 6, 1),                    # (x+1)(x+2)(x+3)
    "e": (0, 6, 11, 6, 1),                 # x(x+1)(x+2)(x+3)
}
GENUS2_QUINTIC = (0, 24, 50, 35, 10, 1)    # x(x+1)...(x+4)

QUARTIC_VARIANT_NAMES = {
    1: "u^2=s^4+1",
    2: "delta*u^2=s^4+1",
    3: "u^2=delta^2*s^4+1",
    4: "delta*u^2=delta^2*s^4+1",
}

_INT64_MAX = int(np.iinfo(np.int64).max)

# Values of x bsgs_traces tries before it leaves a prime to the Horner
# count.  Past p = 229 the curve or its twist has a point whose order has
# one multiple in the Hasse interval (Mestre, in Schoof 1995).  Over
# 500 <= p <= 10^5 the first point left more than one candidate at 3-7 %
# of the primes for e, a, b and the CM curve, and none needed more than 9.
_BSGS_POINTS = 16

# Lanes of one bsgs_traces round, one (prime, x) search each.  The round's
# largest temporaries are five tables of about s rows by _BSGS_LANES int64
# values (s = 25 near p = 10^5), so a call's peak is set by this constant
# and s, not by the number of primes: about 1.3 MB near p = 3 * 10^4 and
# 1.6 MB near 10^5 by tracemalloc.  Fewer lanes pay numpy's fixed cost
# per call more often.
_BSGS_LANES = 1024

# bsgs_traces multiplies residues in int64: below 2^31 every product of
# two residues, and every sum or difference of two such products, is exact.
_BSGS_MAX_P = 1 << 31

# Values of x per block of the genus-2 check; bounds its temporaries.
_GENUS2_CHUNK = 1 << 14


@dataclass(frozen=True)
class CountRecord:
    """Counts for one quartic model: affine points, rational points at
    infinity of the smooth model, points on {u=0} or {s=0}, and the trace."""

    p: int
    curve: str
    affine_count: int
    infinity_count: int
    zero_locus_count: int
    trace: int


def _poly_eval_all(ctx: FieldContext, coeffs) -> np.ndarray:
    """f(x) mod p for all x in 0..p-1, Horner, for f of degree >= 1.

    The first step lead*x + c starts from the context's index.  Reduces mod
    p only when the next multiply-add could pass the int64 range, judged by
    an exact bound on the unreduced values, and once at the end.
    """
    p = ctx.p
    x = ctx.index
    lead, c, *rest = [a % p for a in reversed(coeffs)]
    # lead*x + c < p^2 fits in int64 for every p whose tables fit in memory
    if lead == 1:
        vals = x + c
    else:
        vals = x * lead
        vals += c
    bound = lead * (p - 1) + c  # vals stay in [0, bound]
    spare = None  # each reduction writes into the other buffer
    for c in rest:
        if bound * (p - 1) + c > _INT64_MAX:
            vals, spare = reduce_mod(vals, p, out=spare), vals
            bound = p - 1
        np.multiply(vals, x, out=vals)
        if c:
            vals += c
        bound = bound * (p - 1) + c
    return reduce_mod(vals, p, out=spare)


def affine_count(ctx: FieldContext, f: tuple[int, ...]) -> int:
    """Number of (x, y) with y^2 = f(x), f's coefficients in ascending
    degree."""
    return int(ctx.root_counts[_poly_eval_all(ctx, f)].sum())


def _infinity_count(ctx: FieldContext, coeffs: tuple[int, ...]) -> int:
    """Rational points at infinity of the smooth model of y^2 = f(x): one
    for a cubic, and for a quartic two when its lead is a square mod p."""
    if len(coeffs) == 4:
        return 1
    return 2 if ctx.root_counts[coeffs[-1] % ctx.p] == 2 else 0


def _trace(p: int, affine: int, infinity: int) -> int:
    """The trace law p + 1 - #projective of a genus-1 smooth model, checked
    against the Hasse bound trace^2 < 4p."""
    trace = p + 1 - (affine + infinity)
    if trace * trace >= 4 * p:
        raise ArithmeticError(f"Hasse bound violated at p={p}: trace={trace}")
    return trace


def _singular_primes(primes, f: tuple[int, ...]) -> list[int]:
    """The one good-reduction rule both trace routes apply: those of
    `primes` that divide disc(f).  Raises ValueError unless f is a cubic
    or a quartic with a unit leading coefficient mod each p; with one, p
    divides disc(f) exactly when f is not squarefree mod p."""
    disc = discriminant(f)  # ValueError unless f is a cubic or a quartic
    if any(f[-1] % p == 0 for p in primes):
        raise ValueError("need a unit leading coefficient mod p")
    return [p for p in primes if disc % p == 0]


def curve_trace(ctx: FieldContext, f: tuple[int, ...]) -> int:
    """Frobenius trace p + 1 - #projective of the smooth model of
    y^2 = f(x), f's coefficients in ascending degree, by counting every
    point.  Raises SingularCurve where p divides disc(f), and ValueError
    as _singular_primes does."""
    if _singular_primes((ctx.p,), f):
        raise SingularCurve(f"f not squarefree mod {ctx.p}")
    return _trace(ctx.p, affine_count(ctx, f), _infinity_count(ctx, f))


def _weierstrass_model(p: int, f: tuple[int, ...]) -> tuple[int, int, int] | None:
    """(a, b, c) mod p of a cubic y^2 = x^3 + a x^2 + b x + c whose smooth
    model is isomorphic to that of y^2 = f(x), or None: f itself when it
    is a monic cubic, and for a quartic a4 x^4 + a3 x^3 + a2 x^2 + a1 x
    (a1 a unit where p does not divide disc(f)) its image
    V^2 = U^3 + a2 U^2 + a1 a3 U + a1^2 a4 under x = 1/X, U = a1 X,
    V = a1 y X^2.  Any other model is None."""
    if len(f) == 4 and f[3] % p == 1:
        return f[2] % p, f[1] % p, f[0] % p
    if len(f) == 5 and f[0] % p == 0:
        _, a1, a2, a3, a4 = f
        return a2 % p, a1 * a3 % p, a1 * a1 * a4 % p
    return None


def _chord(P, Q, p, A):
    """P + Q on Y^2 = X^3 + A X^2 + B X + C in projective coordinates
    (X : Y : Z), lane by lane, by the chord law (B and C do not enter); Q
    may be affine, a pair (x, y).  A point with Z = 0 is the point at
    infinity, and every one made here has X = 0.  In a lane where P or Q
    is at infinity, or where P = Q, it gives (0, 0, 0), and only there;
    where P = -Q it gives the point at infinity."""
    X1, Y1, Z1 = P
    if len(Q) == 2:
        (X2, Y2), zz, yz, xz = Q, Z1, Y1, X1
    else:
        X2, Y2, Z2 = Q
        zz, yz, xz = Z1 * Z2 % p, Y1 * Z2 % p, X1 * Z2 % p
    u = (Y2 * Z1 - yz) % p
    v = (X2 * Z1 - xz) % p
    vv = v * v % p
    vvv = vv * v % p
    r = vv * xz % p
    w = ((u * u - A * vv) % p * zz - vvv - 2 * r) % p
    return v * w % p, (u * (r - w) - vvv * yz) % p, vvv * zz % p


def _tangent(P, p, A, B):
    """2P on the same curve by the tangent law, lane by lane: the point at
    infinity where P is at infinity or has y = 0.  With D = 2YZ,
    X' = hD and Z' = D^3."""
    X, Y, Z = P
    xx, zz, xz2 = X * X % p, Z * Z % p, 2 * X * Z % p
    w = (A * xz2 + B * zz + 3 * xx) % p  # the slope's numerator
    D = 2 * Y * Z % p
    yd = Y * D % p
    q = X * yd % p
    dd = D * D % p
    h = (w * w - A * dd - 4 * q) % p
    return h * D % p, (w * (2 * q - h) - 2 * (yd * yd % p)) % p, D * dd % p


def _add(P, Q, p, A, B):
    """P + Q in every lane, Q projective or affine: the chord law, and in
    the few lanes where it gives (0, 0, 0) the other summand or, for
    P = Q, the tangent law."""
    R = _chord(P, Q, p, A)
    if np.count_nonzero(R[2]) == p.size:
        return R
    odd = np.flatnonzero((R[1] == 0) & (R[2] == 0))
    if odd.size:
        P, Q = (tuple(c[odd] for c in pt) for pt in (P, Q))
        if len(Q) == 2:
            Q = (*Q, np.ones_like(odd))
        D = _tangent(P, p[odd], A[odd], B[odd])
        for r, pc, qc, dc in zip(R, P, Q, D):
            r[odd] = np.where(P[2] == 0, qc, np.where(Q[2] == 0, pc, dc))
    return R


def _step(Q, T, T2, p, A):
    """Q + T in every lane for an affine T whose double T2 is known, as a
    walk adds one fixed point: the chord law, and where it gives (0, 0, 0)
    T itself (Q at infinity) or T2 (Q = T)."""
    R = _chord(Q, T, p, A)
    if np.count_nonzero(R[2]) == p.size:
        return R
    odd = np.flatnonzero((R[1] == 0) & (R[2] == 0))
    at_infinity = Q[2][odd] == 0
    for r, t, t2 in zip(R, (*T, np.ones_like(p)), T2):
        r[odd] = np.where(at_infinity, t[odd], t2[odd])
    return R


def _normalise(X, Y, Z, p):
    """X/Z and Y/Z in place, for tables of projective points with one row
    per point and one column per lane, by one inversion per lane
    (Montgomery's trick along the lane's points).  A point at infinity is
    read with Z = 1, so it keeps X = 0; Z is overwritten."""
    np.copyto(Z, 1, where=Z == 0)
    inv = Z.copy()  # prefix products, then the inverses
    for j in range(1, len(Z)):
        np.remainder(np.multiply(inv[j - 1], Z[j], out=inv[j]), p, out=inv[j])
    last = np.array([pow(z, -1, q) for z, q in zip(inv[-1].tolist(), p.tolist())])
    for j in range(len(Z) - 1, 0, -1):
        np.remainder(np.multiply(last, inv[j - 1], out=inv[j]), p, out=inv[j])
        last = last * Z[j] % p
    inv[0] = last
    for table in (X, Y):
        np.remainder(np.multiply(table, inv, out=table), p, out=table)


def _hasse_multiples(p, A, B, P) -> list:
    """For each lane, the multiples m of the order of the affine point P in
    the Hasse interval [lo, hi] = [p + 1 - t, p + 1 + t], t = isqrt(4p), by
    baby-step giant-step with s = isqrt(t) baby steps for the largest t.

    The baby steps jP, j = 1..s, and G = [2s + 1]P are normalised together,
    and so are the giant steps.  A first y = 0 at jP, or a first x shared
    by jP and j'P, gives the order 2j or j + j' when it is at most 2s, and
    every later coincidence, a step at infinity (read as x = 0) among
    them, a multiple of it, so the order is the least of them.  Otherwise
    the s x's are distinct.  [lo + s]P is reached w bits at a time, adding
    baby steps (2^w <= s + 1); then a giant step [mid]P at infinity, or
    with the x of jP, puts mid, or mid -+ j as its y is +-that of jP, in
    the window [mid - s, mid + s], and the windows tile [lo, hi].  The
    tables are updated in place, so that at most five of s or so rows by
    the number of lanes are held at once.
    """
    t = np.sqrt(4 * p).astype(np.int64)  # exact: 4p < 2^52
    lo, hi, s = p + 1 - t, p + 1 + t, math.isqrt(int(t.max()))
    lanes = np.arange(p.size)
    bx, by, bz = (np.empty((s + 1, p.size), dtype=np.int64) for _ in range(3))
    P2 = _tangent((*P, np.ones_like(p)), p, A, B)
    R = (*P, np.ones_like(p))
    for j in range(s):
        bx[j], by[j], bz[j] = R
        R = P2 if j == 0 else _step(R, P, P2, p, A)
    bx[s], by[s], bz[s] = _add((bx[s - 1], by[s - 1], bz[s - 1]), R, p, A, B)
    g_at_infinity = bz[s] == 0
    _normalise(bx, by, bz, p)
    del bz
    G, bx, by = (bx[s].copy(), by[s].copy()), bx[:s], by[:s]
    # Q = [lo + s]P, from the top window of w bits down
    n = lo + s
    w = (s + 1).bit_length() - 1
    shift = -(-int(n.max()).bit_length() // w) * w - w
    digit = n >> shift
    Q = (np.where(digit > 0, bx[digit - 1, lanes], 0),
         np.where(digit > 0, by[digit - 1, lanes], 1), (digit > 0).astype(np.int64))
    while shift:
        for _ in range(w):
            Q = _tangent(Q, p, A, B)
        shift -= w
        digit = n >> shift & (1 << w) - 1
        S = _add(Q, (bx[digit - 1, lanes], by[digit - 1, lanes]), p, A, B)
        Q = tuple(np.where(digit > 0, sc, qc) for sc, qc in zip(S, Q))
    # the baby steps sorted lane by lane, keyed by lane, x, j (s < 2^10)
    # and the parity of y, which tells y from p - y
    step = np.arange(1, s + 1)[:, None]
    order = np.where(by == 0, 2 * step, 2 * s + 1).min(axis=0)
    keys = bx << 11
    keys |= by & 1
    del bx, by
    keys |= step << 1
    keys |= lanes << 42
    keys = keys.ravel()
    keys.sort()
    pair = np.flatnonzero(keys[1:] >> 11 == keys[:-1] >> 11)
    np.minimum.at(order, keys[pair] >> 42, (keys[pair] >> 1 & 1023) + (keys[pair + 1] >> 1 & 1023))
    order[order > 2 * s] = 0
    giants = int(((hi - lo) // (2 * s + 1)).max()) + 1
    gx, gy, gz = (np.empty((giants, p.size), dtype=np.int64) for _ in range(3))
    G2 = _tangent((*G, np.ones_like(p)), p, A, B)
    for k in range(giants):
        if k:
            S = _step(Q, G, G2, p, A)
            Q = tuple(np.where(g_at_infinity, qc, sc) for sc, qc in zip(S, Q)) \
                if g_at_infinity.any() else S
        gx[k], gy[k], gz[k] = Q
    at_infinity = gz == 0
    _normalise(gx, gy, gz, p)
    del gz
    # each giant x looked up among the baby x's of its lane: the first key
    # at or past (lane, x, 0, 0) is that of the jP sharing its x
    gx <<= 11
    gx |= lanes << 42
    j = keys.take(np.searchsorted(keys, gx), mode="clip")
    gx ^= j
    hit = gx < 1 << 11
    gy ^= j
    gy &= 1
    twin = gy == 0
    del gx, gy
    j >>= 1
    j &= 1023
    windows = lo + s + (2 * s + 1) * np.arange(giants)[:, None]  # the mids
    np.negative(j, out=j, where=twin)
    np.add(windows, j, out=windows, where=hit & ~at_infinity)
    windows[~(hit | at_infinity) | (windows > hi)] = 0
    first = np.where(order > 0, -(-lo // np.maximum(order, 1)) * order, windows.max(axis=0))
    one = np.where(order > 0, first + order > hi, np.count_nonzero(windows, axis=0) == 1)
    return [(m,) if single else range(m, top + 1, n) if n else
            [v for v in windows[:, lane].tolist() if v]
            for lane, (single, m, n, top) in enumerate(zip(
                one.tolist(), first.tolist(), order.tolist(), hi.tolist()))]


def bsgs_traces(primes, f: tuple[int, ...]) -> list[int | None]:
    """The traces curve_trace counts at each of `primes`, a sequence, from
    the orders of a few points, in O(p^(1/4)) group operations each
    (baby-step giant-step, Shanks 1971), or None where this route cannot
    tell: f has no _weierstrass_model at p, or _BSGS_POINTS values of x
    leave more than one candidate.  Raises as curve_trace does where one
    of them reduces badly, and ValueError for p >= 2^31, before any work.
    Takes no FieldContext and reads no table.

    On the model y^2 = g(x) = x^3 + a x^2 + b x + c, for each x0 from
    p // 2 on with d = g(x0) != 0, the point (d x0, d^2) lies on the twist
    Y^2 = X^3 + a d X^2 + b d^2 X + c d^3, of order p + 1 - chi(d) a_p with
    chi(d) by Euler's criterion.  Every multiple of the point's order in
    the Hasse interval gives a candidate trace, and each point narrows the
    candidates the ones before it left.  Small fixed x0 would give
    rational torsion points, such as (0, 6) on the model of e.

    The searches run in lockstep, one numpy int64 lane per (prime, x0),
    up to _BSGS_LANES lanes a round with s baby steps for the round's
    largest prime.  A prime takes its next x0 only while it keeps more
    than one candidate, in the next round; once no new prime is left, it
    takes several of its remaining x0 in one round.  The candidates are
    the multiples of the point's order however the work is cut, so the
    traces do not depend on the rounds.
    """
    if primes and max(primes) >= _BSGS_MAX_P:
        raise ValueError("need p < 2^31 for exact int64 products")
    singular = _singular_primes(primes, f)
    if singular:
        raise SingularCurve(f"f not squarefree mod {singular[0]}")
    traces = [None] * len(primes)
    candidates = {}
    waiting = []  # (index, next x0 offset, model) of primes left undecided
    fresh = iter(range(len(primes)))
    while True:
        spans = [(i, k, k + 1, model) for i, k, model in waiting[:_BSGS_LANES]]
        waiting = waiting[_BSGS_LANES:]
        carried = len(spans)
        while len(spans) < _BSGS_LANES:
            i = next(fresh, None)
            if i is None:
                # no new prime left: the waiting ones take several x0 at once
                width = max(1, (_BSGS_LANES // 2 - len(spans)) // max(carried, 1) + 1)
                spans[:carried] = [(i, k, min(k + width, _BSGS_POINTS), model)
                                   for i, k, _, model in spans[:carried]]
                break
            model = _weierstrass_model(primes[i], f)
            if model is not None:
                spans.append((i, 0, 1, model))
        if not spans:
            return traces
        idx, p, offset, a, b, c = np.array(
            [(i, primes[i], k, *model) for i, k0, k1, model in spans for k in range(k0, k1)],
            dtype=np.int64).T
        x = (p // 2 + offset) % p
        d = (((x + a) * x % p + b) * x % p + c) % p
        idx, p, x, a, b, d = (v[d != 0] for v in (idx, p, x, a, b, d))
        multiples = _hasse_multiples(
            p, a * d % p, b * d % p * d % p, (d * x % p, d * d % p)) if idx.size else ()
        for i, q, e, ms in zip(idx.tolist(), p.tolist(), d.tolist(), multiples):
            if traces[i] is not None:
                continue  # told by an earlier x0 of this round
            chi = 1 if pow(e, (q - 1) // 2, q) == 1 else -1
            known = candidates.pop(i, None)
            if known is None and len(ms) == 1:
                traces[i] = chi * _trace(q, ms[0], 0)
                continue
            found = {chi * _trace(q, m, 0) for m in ms}
            known = found if known is None else known & found
            if not known:
                raise ArithmeticError(f"no group order in the Hasse interval at p={q}")
            if len(known) == 1:
                traces[i] = known.pop()
            else:
                candidates[i] = known
        del multiples  # before the next round's tables
        for i, _, k1, model in spans:
            if traces[i] is not None or k1 >= _BSGS_POINTS:
                candidates.pop(i, None)
            else:
                waiting.append((i, k1, model))


def named_curve_traces(ctx: FieldContext) -> dict[str, int]:
    """Traces of the five named genus-1 curves (smooth models); raises
    SingularCurve where one of them reduces badly, as b does at p = 3."""
    return {name: curve_trace(ctx, f) for name, f in NAMED_CURVES.items()}


def _biquadratic(ctx: FieldContext, c: int) -> np.ndarray:
    """c*s^4 + 1 mod p for every s in 0..p-1, from the table of squares."""
    f = ctx.squares[ctx.squares]  # s^4, a fresh array
    f *= c % ctx.p
    f += 1
    return reduce_mod(f, ctx.p)


def quartic_rows(ctx: FieldContext) -> list[CountRecord]:
    """The count records of the four twist variants, in variant order.

    Variant tw*u^2 = f, f = c*s^4 + 1, is counted as U^2 = tw*f.  Variants
    1-2 share c = 1 and variants 3-4 share c = delta^2, so each f is
    evaluated once.  The zero locus is {u = 0}, the zeros of f, plus
    {s = 0}, the roots of u^2 = 1/tw, as many as those of u^2 = tw.
    """
    p = ctx.p
    if p < 5:
        raise SingularCurve(f"p={p}: quartic degenerates")
    rows = []
    for c, pair in ((1, (1, 2)), (ctx.delta ** 2 % p, (3, 4))):
        f = _biquadratic(ctx, c)
        f_zeros = p - int(np.count_nonzero(f))
        for variant, tw in zip(pair, (1, ctx.delta)):
            vals = f if tw == 1 else reduce_mod(f * tw, p)
            affine = int(ctx.root_counts[vals].sum())
            infinity = _infinity_count(ctx, (tw, 0, 0, 0, tw * c))
            rows.append(CountRecord(
                p, QUARTIC_VARIANT_NAMES[variant], affine, infinity,
                f_zeros + int(ctx.root_counts[tw]),
                _trace(p, affine, infinity)))
    return rows


def edwards_affine(ctx: FieldContext) -> int:
    """Affine solutions of x^2 + y^2 = 1 - x^2 y^2 for p = 1 mod 4.

    For 1 + x^2 != 0 the solution count in y matches y^2 = 1 - x^4, from
    the quartic rows' table of s^4.  The two x with 1 + x^2 = 0 give one
    point (x, 0) of y^2 = 1 - x^4 each but none here, where it reads 0 = 2.
    """
    if ctx.k is None:
        raise WrongResidueClass(f"p={ctx.p} is not 1 mod 4")
    return int(ctx.root_counts[_biquadratic(ctx, -1)].sum()) - 2


def genus2_involution_check(ctx: FieldContext) -> tuple[int, int]:
    """Checks that (x, y) -> (-x-4, i*y) permutes the affine points of
    y^2 = x(x+1)(x+2)(x+3)(x+4) and that applying it twice flips y, and
    returns (mismatches, points checked).

    Every point is checked, _GENUS2_CHUNK values of x at a time, so the
    temporaries stay bounded at any p.  The points checked are two, (x, y)
    and (x, -y), for each x with f(x) a square or zero.
    """
    if ctx.k is None:
        raise WrongResidueClass(f"p={ctx.p} has no square root of -1")
    p = ctx.p
    f = _poly_eval_all(ctx, GENUS2_QUINTIC)
    i_unit = pow(ctx.delta, (p - 1) // 4, p)
    # one square root per residue class: later writes win, any root works
    some_root = np.zeros(p, dtype=np.int64)
    some_root[ctx.squares] = ctx.index
    xs = np.flatnonzero(ctx.root_counts[f] > 0)
    mismatches = 0
    for lo in range(0, xs.size, _GENUS2_CHUNK):
        x = xs[lo:lo + _GENUS2_CHUNK]
        y0 = some_root[f[x]]
        ix = reduce_mod(-x - 4, p)
        x_back = reduce_mod(-ix - 4, p) == x
        for y in (y0, reduce_mod(p - y0, p)):
            iy = reduce_mod(y * i_unit, p)
            on_curve = reduce_mod(iy * iy, p) == f[ix]
            y_flip = reduce_mod(iy * i_unit, p) == reduce_mod(p - y, p)
            mismatches += int((~on_curve).sum() + (~x_back).sum() + (~y_flip).sum())
    return mismatches, 2 * int(xs.size)
