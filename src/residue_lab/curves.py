"""Point counts and Frobenius traces for the curves behind the pattern
and surface identities: the CM cubic y^2 = x^3 - x and its shifts, the
Edwards quartic x^2 + y^2 = 1 - x^2 y^2, the four lemniscatic quartic
twists u^2 = c s^4 + 1, and the genus-2 quintic with its extra involution.

All counts run over the tables of a FieldContext: one Horner pass and
one root_counts gather per curve, and no count reads chi.  Every trace,
cubic or quartic, comes from one law checked against the Hasse bound.
A cubic or quartic model reduces well at p when p does not divide its
integer discriminant, a classical closed form computed once per model.
The identities these counts enter are checked in `claims`.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SingularCurve, WrongResidueClass
from .modarith import FieldContext, reduce_mod


@dataclass(frozen=True)
class HyperellipticSpec:
    """Curve twist * y^2 = f(x), coeffs in ascending degree order."""

    coeffs: tuple[int, ...]
    twist: int = 1

    def degree(self) -> int:
        return len(self.coeffs) - 1

    @functools.cached_property
    def discriminant(self) -> int:
        """The integer discriminant of a cubic or a quartic f, computed once
        per spec; ValueError for any other degree."""
        return _discriminant(self.coeffs)


def _discriminant(coeffs: tuple[int, ...]) -> int:
    """disc(f) for a cubic or a quartic f, coefficients in ascending order,
    by the classical closed forms; for the quartic 27 disc = 4 I^3 - J^2
    with its invariants I and J."""
    if len(coeffs) == 4:
        d, c, b, a = coeffs
        return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                - 27 * a * a * d * d + 18 * a * b * c * d)
    if len(coeffs) == 5:
        e, d, c, b, a = coeffs
        i = 12 * a * e - 3 * b * d + c * c
        j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c ** 3
        return (4 * i ** 3 - j * j) // 27
    raise ValueError("need a cubic or a quartic")


# Named cubics and the quartic used throughout; all have leading
# coefficient 1 and good reduction at every p >= 5.
WEIERSTRASS_CM = HyperellipticSpec((0, -1, 0, 1))          # y^2 = x^3 - x
NAMED_CURVES = {
    "a": HyperellipticSpec((0, 2, 3, 1)),                  # x(x+1)(x+2)
    "b": HyperellipticSpec((0, 3, 4, 1)),                  # x(x+1)(x+3)
    "c": HyperellipticSpec((0, 6, 5, 1)),                  # x(x+2)(x+3)
    "d": HyperellipticSpec((6, 11, 6, 1)),                 # (x+1)(x+2)(x+3)
    "e": HyperellipticSpec((0, 6, 11, 6, 1)),              # x(x+1)(x+2)(x+3)
}
GENUS2_QUINTIC = HyperellipticSpec((0, 24, 50, 35, 10, 1))  # x(x+1)...(x+4)

QUARTIC_VARIANT_NAMES = {
    1: "u^2=s^4+1",
    2: "delta*u^2=s^4+1",
    3: "u^2=delta^2*s^4+1",
    4: "delta*u^2=delta^2*s^4+1",
}

_INT64_MAX = int(np.iinfo(np.int64).max)

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


def affine_count(ctx: FieldContext, spec: HyperellipticSpec) -> int:
    """Number of (x, y) with twist * y^2 = f(x)."""
    p = ctx.p
    tw = spec.twist % p
    if tw == 0:
        raise ValueError("twist vanishes mod p")
    vals = _poly_eval_all(ctx, spec.coeffs)
    if tw != 1:
        vals *= pow(tw, p - 2, p)
        vals = reduce_mod(vals, p)
    return int(ctx.root_counts[vals].sum())


def _infinity_count(ctx: FieldContext, spec: HyperellipticSpec) -> int:
    """Rational points at infinity of the smooth model: one for a cubic; for
    a quartic, two when lead/twist is a square mod p, none otherwise."""
    if spec.degree() == 3:
        return 1
    p = ctx.p
    lead = spec.coeffs[-1] * pow(spec.twist % p, p - 2, p) % p
    return 2 if ctx.root_counts[lead] == 2 else 0


def _trace(p: int, affine: int, infinity: int) -> int:
    """The trace law p + 1 - #projective of a genus-1 smooth model, checked
    against the Hasse bound trace^2 < 4p."""
    trace = p + 1 - (affine + infinity)
    if trace * trace >= 4 * p:
        raise ArithmeticError(f"Hasse bound violated at p={p}: trace={trace}")
    return trace


def curve_trace(ctx: FieldContext, spec: HyperellipticSpec) -> int:
    """Frobenius trace p + 1 - #projective of the smooth model of
    twist * y^2 = f(x).  Raises ValueError unless f is a cubic or a quartic
    with a unit leading coefficient mod p, and SingularCurve when p divides
    disc(f): with a unit leading coefficient, exactly when f is not
    squarefree mod p."""
    p = ctx.p
    disc = spec.discriminant  # ValueError unless f is a cubic or a quartic
    if spec.coeffs[-1] % p == 0:
        raise ValueError("need a unit leading coefficient mod p")
    if disc % p == 0:
        raise SingularCurve(f"f not squarefree mod {p}")
    return _trace(p, affine_count(ctx, spec), _infinity_count(ctx, spec))


def named_curve_traces(ctx: FieldContext) -> dict[str, int]:
    """Traces of the five named genus-1 curves (smooth models); raises
    SingularCurve where one of them reduces badly, as b does at p = 3."""
    return {name: curve_trace(ctx, spec) for name, spec in NAMED_CURVES.items()}


def quartic_spec(ctx: FieldContext, variant: int) -> HyperellipticSpec:
    """The four twist variants u^2 = s^4+1, d*u^2 = s^4+1, u^2 = d^2 s^4+1,
    d*u^2 = d^2 s^4+1, with d the context's non-residue."""
    if variant not in (1, 2, 3, 4):
        raise ValueError(f"variant must be 1..4, got {variant}")
    c = 1 if variant in (1, 2) else ctx.delta * ctx.delta % ctx.p
    tw = 1 if variant in (1, 3) else ctx.delta
    return HyperellipticSpec((1, 0, 0, 0, c), twist=tw)


def quartic_rows(ctx: FieldContext) -> list[CountRecord]:
    """The count records of the four twist variants, in variant order.

    Variants 1-2 share c = 1 and variants 3-4 share c = delta^2, so each
    quartic f = c*s^4 + 1 is evaluated once, from one table of s^4.  The
    zero locus is {u = 0}, the zeros of f, plus {s = 0}, the roots of
    u^2 = 1/twist.
    """
    p = ctx.p
    if p < 5:
        raise SingularCurve(f"p={p}: quartic degenerates")
    s4 = ctx.squares[ctx.squares]
    rows = []
    for pair in ((1, 2), (3, 4)):
        c = quartic_spec(ctx, pair[0]).coeffs[-1]
        if c == 1:
            f = s4 + 1
        else:
            f = s4 * c
            f += 1
        f = reduce_mod(f, p)
        f_zeros = p - int(np.count_nonzero(f))
        for variant in pair:
            spec = quartic_spec(ctx, variant)
            tw_inv = pow(spec.twist % p, p - 2, p)
            vals = f if tw_inv == 1 else reduce_mod(f * tw_inv, p)
            affine = int(ctx.root_counts[vals].sum())
            infinity = _infinity_count(ctx, spec)
            rows.append(CountRecord(
                p, QUARTIC_VARIANT_NAMES[variant], affine, infinity,
                f_zeros + int(ctx.root_counts[tw_inv]),
                _trace(p, affine, infinity)))
    return rows


def edwards_affine(ctx: FieldContext) -> int:
    """Affine solutions of x^2 + y^2 = 1 - x^2 y^2 for p = 1 mod 4.

    For 1 + x^2 != 0 the solution count in y matches y^2 = (1-x^2)(1+x^2);
    when 1 + x^2 = 0 there is no solution.
    """
    if ctx.k is None:
        raise WrongResidueClass(f"p={ctx.p} is not 1 mod 4")
    p = ctx.p
    sq = ctx.squares
    mask = reduce_mod(sq + 1, p) != 0
    vals = reduce_mod(1 - sq[sq], p)  # 1 - x^4
    return int(ctx.root_counts[vals[mask]].sum())


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
    f = _poly_eval_all(ctx, GENUS2_QUINTIC.coeffs)
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
