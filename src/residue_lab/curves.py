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
and every trace a claim reads comes from it.  bsgs_trace finds the group
order of a few points by baby-step giant-step, in O(p^(1/4)) group
operations and no table; only stats.collect_traces takes it, and the
tests pin it to curve_trace, its oracle.
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

# Values of x bsgs_trace tries before it leaves a prime to the Horner
# count.  Past p = 229 the curve or its twist has a point whose order has
# one multiple in the Hasse interval (Mestre, in Schoof 1995).  Over
# 500 <= p <= 10^5 the first point left more than one candidate at 3-7 %
# of the primes for e, a, b and the CM curve, and none needed more than 9.
_BSGS_POINTS = 16

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


def _good_reduction(p: int, f: tuple[int, ...]) -> None:
    """The one rule both trace routes apply.  Raises ValueError unless f is
    a cubic or a quartic with a unit leading coefficient mod p, and
    SingularCurve when p divides disc(f): with a unit leading coefficient,
    exactly when f is not squarefree mod p."""
    disc = discriminant(f)  # ValueError unless f is a cubic or a quartic
    if f[-1] % p == 0:
        raise ValueError("need a unit leading coefficient mod p")
    if disc % p == 0:
        raise SingularCurve(f"f not squarefree mod {p}")


def curve_trace(ctx: FieldContext, f: tuple[int, ...]) -> int:
    """Frobenius trace p + 1 - #projective of the smooth model of
    y^2 = f(x), f's coefficients in ascending degree, by counting every
    point.  Raises as _good_reduction does."""
    _good_reduction(ctx.p, f)
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


def bsgs_trace(p: int, f: tuple[int, ...]) -> int | None:
    """The trace curve_trace counts, from the orders of a few points, in
    O(p^(1/4)) group operations each (baby-step giant-step, Shanks 1971),
    or None where this route cannot tell: f has no _weierstrass_model, or
    _BSGS_POINTS values of x leave more than one candidate.  Raises as
    _good_reduction does.  Takes no FieldContext and reads no table.

    On the model y^2 = g(x) = x^3 + a x^2 + b x + c, for each x0 from
    p // 2 on with d = g(x0) != 0, the point (d x0, d^2) lies on the twist
    Y^2 = X^3 + a d X^2 + b d^2 X + c d^3, of order p + 1 - chi(d) a_p with
    chi(d) by Euler's criterion.  Every multiple of the point's order in
    the Hasse interval gives a candidate trace, and each point narrows the
    candidates the ones before it left.  Small fixed x0 would give
    rational torsion points, such as (0, 6) on the model of e.
    """
    _good_reduction(p, f)
    model = _weierstrass_model(p, f)
    if model is None:
        return None
    a, b, c = model
    ta = tb = 0  # the twist's a d and b d^2, read by add

    def add(P, Q):
        # affine points as (x, y), the point at infinity as None
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + 2 * ta * x1 + tb) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - ta - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    def mul(n, P):
        R = P
        for bit in bin(n)[3:]:
            R = add(R, R)
            if bit == "1":
                R = add(R, P)
        return R

    t = math.isqrt(4 * p)  # |a_p| <= t, as 4p is not a square
    lo, hi = p + 1 - t, p + 1 + t
    s = math.isqrt(t)  # s baby steps, about as many giant steps
    traces = None
    for x0 in range(p // 2, p // 2 + _BSGS_POINTS):
        d = (((x0 + a) * x0 + b) * x0 + c) % p
        if d == 0:
            continue
        chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
        ta, tb = a * d % p, b * d * d % p
        P = (d * x0 % p, d * d % p)
        # baby steps jP, j = 1..s, keyed by x; the first y = 0 or repeated
        # x (jP = -j'P) gives the order of P when it is at most 2s
        baby, S, R, order = {}, None, P, 0
        for j in range(1, s + 1):
            x, y = R
            if y == 0:
                order = 2 * j
                break
            if x in baby:
                order = j + baby[x][0]
                break
            baby[x] = (j, y)
            S, R = R, add(R, P)
        if order:
            orders = range(-(-lo // order) * order, hi + 1, order)
        else:
            # giant steps: Q = [mid]P = +-jP puts mid -+ j in the window
            # [mid - s, mid + s]; the windows tile [lo, hi]
            G, Q, orders = add(S, R), mul(lo + s, P), []  # G = [2s + 1]P
            for mid in range(lo + s, hi + s + 1, 2 * s + 1):
                if Q is None:
                    orders.append(mid)
                elif Q[0] in baby:
                    j, y = baby[Q[0]]
                    orders.append(mid - j if Q[1] == y else mid + j)
                Q = add(Q, G)
        found = {chi * _trace(p, m, 0) for m in orders if m <= hi}
        traces = found if traces is None else traces & found
        if not traces:
            raise ArithmeticError(f"no group order in the Hasse interval at p={p}")
        if len(traces) == 1:
            return traces.pop()
    return None


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
