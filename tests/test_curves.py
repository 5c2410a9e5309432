import functools
import sys
import tracemalloc
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import brute
from residue_lab import (
    SingularCurve,
    WrongResidueClass,
    affine_count,
    build_context,
    curve_trace,
    edwards_affine,
    genus2_involution_check,
    jacobsthal,
    named_curve_traces,
    primes_in,
    quartic_rows,
)
from residue_lab import curves
from residue_lab.curves import GENUS2_QUINTIC, NAMED_CURVES, WEIERSTRASS_CM
from residue_lab.claims import CLAIMS, expected_quartic_table, fiber_buckets

_PRIMES_BELOW_2000 = primes_in(3, 1999)


def quartic_spec(ctx, variant):
    """The four twist variants u^2 = s^4+1, d*u^2 = s^4+1, u^2 = d^2 s^4+1,
    d*u^2 = d^2 s^4+1, with d the context's non-residue; the twist
    tw*u^2 = c*s^4 + 1 is the curve U^2 = tw*(c*s^4 + 1) under U = tw*u."""
    c = 1 if variant in (1, 2) else ctx.delta * ctx.delta % ctx.p
    tw = 1 if variant in (1, 3) else ctx.delta
    return (tw, 0, 0, 0, tw * c)


def test_affine_count_cm_cubic():
    for p in (5, 7, 13):
        assert affine_count(build_context(p), WEIERSTRASS_CM) == 7


def test_affine_count_matches_brute():
    specs = [WEIERSTRASS_CM, NAMED_CURVES["b"], NAMED_CURVES["e"],
             (3, 1, 0, 1), (1, 0, 0, 0, 1)]
    for p in primes_in(5, 50):
        ctx = build_context(p)
        for spec in specs:
            assert affine_count(ctx, spec) == brute.affine_count(p, spec), (p, spec)


def test_affine_count_with_twist():
    # the twist d*y^2 = f(x) is counted as Y^2 = d*f(x), Y = d*y
    f = WEIERSTRASS_CM
    for p in primes_in(5, 50):
        ctx = build_context(p)
        scaled = tuple(ctx.delta * a for a in f)
        assert affine_count(ctx, scaled) == brute.affine_count(p, f, twist=ctx.delta)


def test_weierstrass_trace_values():
    assert curve_trace(build_context(13), WEIERSTRASS_CM) == 6
    assert curve_trace(build_context(7), WEIERSTRASS_CM) == 0
    assert curve_trace(build_context(11), NAMED_CURVES["e"]) == 4
    with pytest.raises(ValueError):
        curve_trace(build_context(13), GENUS2_QUINTIC)


def test_singular_curve_detection():
    # x(x+1)(x+3) = x^2(x+1) mod 3 has a repeated root
    with pytest.raises(SingularCurve):
        curve_trace(build_context(3), NAMED_CURVES["b"])
    # x(x+1)(x+2) = x^3 - x mod 3 is squarefree (roots 0, 1, 2), so the
    # shifted CM cubic still reduces well at 3 and is supersingular there.
    assert curve_trace(build_context(3), NAMED_CURVES["a"]) == 0


def test_discriminant_values():
    assert curves.discriminant(WEIERSTRASS_CM) == 4    # -4a^3 - 27b^2
    assert curves.discriminant((1, 1, 0, 1)) == -31
    assert curves.discriminant(NAMED_CURVES["e"]) == (1 * 2 * 3 * 1 * 2 * 1) ** 2
    assert curves.discriminant((0, 0, 1, 1)) == 0      # x^2 (x + 1)


def test_discriminant_needs_a_cubic_or_a_quartic():
    with pytest.raises(ValueError):
        curves.discriminant(GENUS2_QUINTIC)


@settings(max_examples=200, deadline=None)
@given(lead=st.integers(-9, 9).filter(bool),
       roots=st.lists(st.integers(-20, 20), min_size=3, max_size=4))
def test_discriminant_from_roots(lead, roots):
    # f = lead * prod(x - r): disc(f) = lead^(2n-2) prod_{i<j} (r_i - r_j)^2
    coeffs = [lead]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    n = len(roots)
    disc = curves.discriminant(tuple(coeffs))
    assert disc == lead ** (2 * n - 2) * prod((r - s) ** 2 for r, s in combinations(roots, 2))
    assert (disc == 0) == (len(set(roots)) < n)
    # disc is homogeneous of degree 2n - 2 in the coefficients
    for t in range(-5, 6):
        if t:
            scaled = curves.discriminant(tuple(t * a for a in coeffs))
            assert scaled == t ** (2 * n - 2) * disc, (coeffs, t)


@functools.cache
def _contexts_below_2000():
    return [build_context(p) for p in _PRIMES_BELOW_2000]


def _agrees_with_gcd_oracle(coeffs):
    # curve_trace's rule: ValueError where p divides the leading
    # coefficient, else SingularCurve exactly when the gcd(f, f') oracle
    # finds f not squarefree mod p, and a trace otherwise.  Each trace
    # obeys the twist law: the quadratic twist by the non-residue delta
    # negates it, N(f) + N(delta f) = 2p + 2, and scaling f by a square
    # leaves it unchanged.
    f = tuple(coeffs)
    for ctx in _contexts_below_2000():
        p = ctx.p
        if coeffs[-1] % p == 0:
            with pytest.raises(ValueError):
                curve_trace(ctx, f)
        elif brute.is_squarefree_mod(coeffs, p):
            t = curve_trace(ctx, f)
            assert isinstance(t, int), (coeffs, p)
            s = 1 + p // 3  # a unit other than 1
            assert curve_trace(ctx, tuple(ctx.delta * a for a in f)) == -t, (coeffs, p)
            assert curve_trace(ctx, tuple(s * s * a for a in f)) == t, (coeffs, p)
        else:
            with pytest.raises(SingularCurve):
                curve_trace(ctx, f)


def test_squarefree_criterion_on_registry_curves():
    for spec in [WEIERSTRASS_CM, *NAMED_CURVES.values()]:
        _agrees_with_gcd_oracle(list(spec))


@settings(max_examples=60, deadline=None)
@given(coeffs=st.integers(3, 4).flatmap(lambda n: st.lists(
    st.integers(-30, 30), min_size=n + 1, max_size=n + 1).filter(lambda c: c[-1] != 0)))
def test_squarefree_criterion_on_random_polynomials(coeffs):
    # the discriminant criterion against the gcd(f, f') oracle at every
    # prime below 2000, 3 and 5 included
    _agrees_with_gcd_oracle(coeffs)


def test_named_curve_traces_frozen():
    assert named_curve_traces(build_context(11)) == {
        "a": 0, "b": 4, "c": -4, "d": 0, "e": 4}
    with pytest.raises(SingularCurve):
        named_curve_traces(build_context(3))


def test_named_curve_trace_relations():
    for p in primes_in(5, 300):
        tr = named_curve_traces(build_context(p))
        assert tr["a"] == tr["d"], p
        assert abs(tr["b"]) == abs(tr["c"]), p
        assert (tr["a"] == 0) == (p % 4 == 3), p
        for t in tr.values():
            assert t * t < 4 * p, p


def test_non_cm_witnesses():
    assert named_curve_traces(build_context(7))["b"] == -4
    assert named_curve_traces(build_context(7))["c"] == 4
    assert named_curve_traces(build_context(11))["e"] == 4


def test_quartic_row_frozen():
    r17 = quartic_rows(build_context(17))[0]
    assert (r17.infinity_count, r17.zero_locus_count) == (2, 6)
    assert r17.infinity_count + r17.zero_locus_count == 8
    r13 = quartic_rows(build_context(13))[0]
    assert (r13.infinity_count, r13.zero_locus_count) == (2, 2)
    assert abs(r13.trace) == 6 == abs(jacobsthal(build_context(13)))


def test_quartic_rows_match_table_for_split_primes():
    for p in primes_in(5, 400, (1, 4)):
        ctx = build_context(p)
        rows = quartic_rows(ctx)
        table = expected_quartic_table(p)
        for v, rec in enumerate(rows, start=1):
            inf, zero, total = table[v]
            assert rec.infinity_count == inf, (p, v)
            assert rec.zero_locus_count == zero, (p, v)
            assert rec.infinity_count + rec.zero_locus_count == total, (p, v)
        a = rows[0].trace
        assert [r.trace for r in rows] == [a, -a, -a, a], p


def test_quartic_rows_supersingular_at_3_mod_4():
    # All four twists have trace 0 there; the zero-locus column collapses to
    # (2, 0, 2, 0), which is why the split-prime table does not extend.
    for p in primes_in(5, 200, (3, 4)):
        rows = quartic_rows(build_context(p))
        assert [r.trace for r in rows] == [0, 0, 0, 0], p
        assert [r.infinity_count for r in rows] == [2, 0, 2, 0], p
        assert [r.zero_locus_count for r in rows] == [2, 0, 2, 0], p


@pytest.mark.parametrize("oracle", [False, True])
def test_curve_trace_matches_quartic_rows(oracle):
    # curve_trace runs Horner over the twist's spec; quartic_rows reads one
    # table of s^4 for all four twists
    for p in primes_in(5, 1999):
        ctx = build_context(p, counting_oracle=oracle)
        rows = quartic_rows(ctx)
        for v in (1, 2, 3, 4):
            assert curve_trace(ctx, quartic_spec(ctx, v)) == rows[v - 1].trace, (p, v)


def test_quartic_matches_brute_counts():
    # every counted column, on the twisted model tw*u^2 = c*s^4 + 1 itself
    for p in primes_in(5, 99):
        for oracle in (False, True):
            ctx = build_context(p, counting_oracle=oracle)
            for v, rec in enumerate(quartic_rows(ctx), start=1):
                c = 1 if v in (1, 2) else ctx.delta ** 2 % p
                tw = 1 if v in (1, 3) else ctx.delta
                assert rec.affine_count == brute.affine_count(p, (1, 0, 0, 0, c), tw), (p, v)
                lead = brute.legendre(c * pow(tw, -1, p), p)
                assert rec.infinity_count == (2 if lead == 1 else 0), (p, v)
                zeros = (sum(1 for s in range(p) if (c * s ** 4 + 1) % p == 0)
                         + sum(1 for u in range(p) if tw * u * u % p == 1))
                assert rec.zero_locus_count == zeros, (p, v)


def test_quartic_trace_ties_to_jacobsthal():
    for p in primes_in(5, 9999, (1, 4)):
        ctx = build_context(p)
        assert abs(quartic_rows(ctx)[0].trace) == abs(jacobsthal(ctx)) \
            == abs(curve_trace(ctx, WEIERSTRASS_CM)), p


def test_edwards_affine_frozen():
    assert edwards_affine(build_context(5)) == 4
    assert edwards_affine(build_context(13)) == 4
    assert edwards_affine(build_context(17)) == 12
    assert edwards_affine(build_context(29)) == 36
    with pytest.raises(WrongResidueClass):
        edwards_affine(build_context(7))


def test_edwards_affine_matches_brute():
    for p in primes_in(5, 60, (1, 4)):
        assert edwards_affine(build_context(p)) == brute.edwards_affine(p), p


@pytest.mark.parametrize("oracle", [False, True])
def test_edwards_affine_matches_horner_route(oracle):
    # y^2 = 1 - x^4 by Horner, less its two points (+-sqrt(-1), 0), which
    # the Edwards curve lacks
    quartic = (1, 0, 0, 0, -1)
    for p in primes_in(5, 1999, (1, 4)):
        ctx = build_context(p, counting_oracle=oracle)
        assert edwards_affine(ctx) == affine_count(ctx, quartic) - 2, p


def test_verify_gauss_edwards():
    for p in (5, 13, 29):
        rec = CLAIMS["gauss_edwards"].run(build_context(p))
        assert rec.passed
        assert rec.expected == 8 if p in (5, 13) else True
    for p in primes_in(5, 1000, (1, 4)):
        assert CLAIMS["gauss_edwards"].run(build_context(p)).passed, p


def test_verify_J_relations_details():
    rec5 = CLAIMS["j_relations"].run(build_context(5))
    assert rec5.passed
    assert rec5.detail == {"sign_rule_gauss": False, "sign_rule_mod4": True}
    rec17 = CLAIMS["j_relations"].run(build_context(17))
    assert rec17.passed
    assert rec17.detail == {"sign_rule_gauss": True, "sign_rule_mod4": True}
    for p in primes_in(5, 1000, (1, 4)):
        rec = CLAIMS["j_relations"].run(build_context(p))
        assert rec.passed, p
        # the a = 1 mod 4 normalization satisfies the sign rule on this range
        assert rec.detail["sign_rule_mod4"], p


def test_genus2_involution():
    for p in primes_in(5, 300, (1, 4)):
        mismatches, checked = genus2_involution_check(build_context(p))
        assert mismatches == 0 and checked > 0, p
    with pytest.raises(WrongResidueClass):
        genus2_involution_check(build_context(7))


def test_genus2_involution_checks_every_point_above_old_prefix():
    # p = 50021 = 1 mod 4 has more than 50,000 points; all are checked
    p = 50021
    mismatches, checked = genus2_involution_check(build_context(p))
    f = brute.poly_eval_horner(p, GENUS2_QUINTIC)
    on_curve_x = sum(1 for v in f if brute.legendre(v, p) >= 0)
    assert mismatches == 0
    assert checked == 2 * on_curve_x > 50000


def test_genus2_spot_point():
    # (1, 4) lies on the quintic mod 13; its image under the involution is
    # (-5, 4i) = (8, 4i), and (4i)^2 = -16 = 10 = f(8) mod 13.
    p = 13
    ctx = build_context(p)
    i_unit = pow(ctx.delta, (p - 1) // 4, p)
    f = lambda x: x * (x + 1) * (x + 2) * (x + 3) * (x + 4) % p
    assert 4 * 4 % p == f(1)
    assert (i_unit * 4) ** 2 % p == f((-1 - 4) % p)


def test_fiber_pattern_counts():
    def counts(ctx):
        return {key: int(mask.sum()) for key, mask in fiber_buckets(ctx).items()}

    assert counts(build_context(13)) == {"RR": 4, "RN": 2, "NR": 0, "NN": 4}
    for p in primes_in(5, 300, (1, 4)):
        ctx = build_context(p)
        buckets = counts(ctx)
        assert sum(buckets.values()) == p - 3, p
        rows = quartic_rows(ctx)
        for name, rec in zip(("RR", "RN", "NR", "NN"), rows):
            interior = rec.affine_count - rec.zero_locus_count
            assert interior % 4 == 0, (p, name)
            assert buckets[name] == interior // 4, (p, name)


@pytest.mark.parametrize("p, spec", [
    # the quintic at 10007 and the quartic at 65537 and 100003 would pass
    # 2^63 - 1 unreduced, so the deferred path must reduce mid-way
    (10007, GENUS2_QUINTIC),
    (65537, NAMED_CURVES["e"]),
    (100003, NAMED_CURVES["e"]),
    (100003, WEIERSTRASS_CM),  # a negative coefficient
    # leading coefficients other than 1, which no registered curve has
    (101, (5, 3)),
    (10007, (7, 0, -2, 3)),
    (100003, (1, 2, 3, 4, 99991)),
    (100003, (0, 0, 0, 0, 0, -1)),
])
def test_poly_eval_all_matches_per_step_horner(p, spec):
    ctx = build_context(p)
    got = curves._poly_eval_all(ctx, spec)
    assert got.tolist() == brute.poly_eval_horner(p, spec)
    assert ctx.index.tolist() == list(range(p))


# The baby-step giant-step route of collect_traces, against the Horner
# count it is pinned to.
_REGISTRY_SPECS = {"weierstrass": WEIERSTRASS_CM, **NAMED_CURVES}


# The primes at which bsgs_traces gives up on each registry curve, so that
# collect_traces counts every point there: below p = 229 a curve and its
# twist may have no point whose order has one multiple in the Hasse
# interval (Mestre), and each point narrows the candidates of the ones
# before, which is what lets the route answer at most small primes.
BSGS_GIVES_UP = {"weierstrass": [5, 7, 11, 29], "a": [5, 7, 11, 29],
                 "b": [5, 7, 11, 17], "c": [5, 7, 11, 17],
                 "d": [5, 7, 11, 29], "e": [5, 7, 11, 23]}


# Every prime 5 <= p <= 3000 is checked, in two parts split at p = 500,
# where satotate once switched from counting every point to the
# baby-step giant-step route: below it the route gives up exactly at the
# pinned primes, from it on it answers at every prime.
_CUTOFF = 500


def test_bsgs_trace_below_the_cutoff_is_exact_or_gives_up():
    gave_up = {}
    primes = primes_in(5, _CUTOFF - 1)
    contexts = [build_context(p) for p in primes]
    for name, f in _REGISTRY_SPECS.items():
        for p, ctx, trace in zip(primes, contexts, curves.bsgs_traces(primes, f)):
            if trace is None:
                gave_up.setdefault(name, []).append(p)
            else:
                assert trace == curve_trace(ctx, f), (name, p)
    assert gave_up == BSGS_GIVES_UP


def test_bsgs_trace_equals_horner_from_the_cutoff_to_3000():
    primes = primes_in(_CUTOFF, 3000)
    contexts = [build_context(p) for p in primes]
    for name, f in _REGISTRY_SPECS.items():
        for p, ctx, trace in zip(primes, contexts, curves.bsgs_traces(primes, f)):
            assert trace == curve_trace(ctx, f), (name, p)


@pytest.mark.parametrize("p", [99991, 100003, 999983, 1000003])
def test_bsgs_trace_equals_horner_at_spot_primes(p):
    ctx = build_context(p)
    for name, f in _REGISTRY_SPECS.items():
        assert curves.bsgs_traces([p], f) == [curve_trace(ctx, f)], name


def test_bsgs_trace_applies_the_good_reduction_rule():
    with pytest.raises(SingularCurve):
        curves.bsgs_traces([3], NAMED_CURVES["b"])
    with pytest.raises(SingularCurve):
        curves.bsgs_traces([601], (0, 0, 1, 1))  # x^2 (x + 1)
    with pytest.raises(ValueError):
        curves.bsgs_traces([601], (1, 0, 0, 601))
    with pytest.raises(ValueError):
        curves.bsgs_traces([601], GENUS2_QUINTIC)
    # models with no Weierstrass form here keep the Horner route
    assert curves.bsgs_traces([601], (1, 0, 0, 2)) == [None]
    assert curves.bsgs_traces([601], (1, 0, 0, 0, 1)) == [None]
    # a bad prime anywhere in the list stops the call before any work
    with pytest.raises(SingularCurve):
        curves.bsgs_traces([601, 607, 3], NAMED_CURVES["b"])


def test_bsgs_traces_refuses_primes_past_int64_products():
    # p >= 2^31 is refused before the rule or any lane is computed; just
    # below, where residue products still fit in int64, the CM curve has
    # trace 0 at p = 2^31 - 1 = 3 mod 4
    with pytest.raises(ValueError, match="2\\^31"):
        curves.bsgs_traces([601, 2 ** 31 + 11], WEIERSTRASS_CM)
    assert curves.bsgs_traces([2 ** 31 - 1], WEIERSTRASS_CM) == [0]


# The exceptional cases of a lane, each at a (curve, p) where the scalar
# route this one replaced met it, on the curve's first point: the point's
# order at most 2s, told by the baby steps; a giant step on the point at
# infinity; and the chord law met with P = Q inside the scalar multiple
# [lo + s]P.  At the primes 1621, 12301 and 13729 the CM curve needs 9
# points, the most below 30000.
@pytest.mark.parametrize("name, p", [
    ("d", 541), ("weierstrass", 523), ("weierstrass", 1093),
    ("weierstrass", 1621), ("weierstrass", 12301), ("weierstrass", 13729)])
def test_bsgs_traces_exceptional_lanes(name, p):
    f = _REGISTRY_SPECS[name]
    assert curves.bsgs_traces([p], f) == [curve_trace(build_context(p), f)]


def test_bsgs_traces_do_not_depend_on_the_cut(monkeypatch):
    # give-up primes on both sides of every cut, so that some lanes are
    # carried from round to round, and the give-up primes again after the
    # last new prime, where the waiting ones take several x0 at once
    f = _REGISTRY_SPECS["weierstrass"]
    primes = [5, 7, 11, 29, *primes_in(1500, 1700), 5, 7, 11, 29, 1621]
    alone = [curves.bsgs_traces([p], f)[0] for p in primes]
    assert alone == [None if p in BSGS_GIVES_UP["weierstrass"]
                     else curve_trace(build_context(p), f) for p in primes]
    assert curves.bsgs_traces(primes, f) == alone
    for lanes in (4, 7, 16):
        monkeypatch.setattr(curves, "_BSGS_LANES", lanes)
        assert curves.bsgs_traces(primes, f) == alone, lanes
        assert curves.bsgs_traces(primes[:13], f) + curves.bsgs_traces(primes[13:], f) \
            == alone, lanes
    # and across the module's own round of lanes, past p = 9000
    monkeypatch.undo()
    primes = [*primes_in(5, 9000), 5, 7, 11, 29]
    assert len(primes) > curves._BSGS_LANES
    whole = curves.bsgs_traces(primes, f)
    assert whole == curves.bsgs_traces(primes[:600], f) + curves.bsgs_traces(primes[600:], f)
    assert [p for p, t in zip(primes, whole) if t is None] == [5, 7, 11, 29] * 2


def test_bsgs_traces_memory_is_bounded_by_the_round():
    # four rounds' worth of primes near 10^5 peak no higher than one round
    # of the largest of them, less the output list: the lanes, and the
    # primes still undecided, are the route's only state
    f = NAMED_CURVES["e"]
    primes = primes_in(100000, 200000)[:4 * curves._BSGS_LANES]

    def peak_less_output(ps):
        tracemalloc.start()
        try:
            traces = curves.bsgs_traces(ps, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert None not in traces
        return peak - sys.getsizeof(traces) - sum(
            sys.getsizeof(t) for t in traces if not -5 <= t <= 256)

    one = peak_less_output(primes[-curves._BSGS_LANES:])
    four = peak_less_output(primes)
    assert four < 1.05 * one, (four, one)
    assert one < 3 << 20, one


def test_quartic_to_cubic_map_on_e():
    # x = 1/X, U = 6X, V = 6yX^2 takes y^2 = x(x+1)(x+2)(x+3) to
    # V^2 = U^3 + 11U^2 + 36U + 36: every affine point with x != 0 lands on
    # the cubic, and the two smooth models have one trace
    e = NAMED_CURVES["e"]
    for p in primes_in(5, 200):
        assert curves._weierstrass_model(p, e) == (11 % p, 36 % p, 36 % p), p
        for x in range(1, p):
            for y in range(p):
                if (y * y - x * (x + 1) * (x + 2) * (x + 3)) % p == 0:
                    u = 6 * pow(x, -1, p) % p
                    v = 6 * y * pow(x, -2, p) % p
                    assert (v * v - (u ** 3 + 11 * u * u + 36 * u + 36)) % p == 0, (p, x, y)
    for p in primes_in(5, 1999):
        ctx = build_context(p)
        assert curve_trace(ctx, e) == curve_trace(ctx, (36, 36, 11, 1)), p


# Random models are drawn at primes from 500 on: below p = 229 a model and
# its twist may have no point whose order has one multiple in the Hasse
# interval (Mestre), and there the route may give up rather than answer.
_RANDOM_MODELS_FROM = 500
_BSGS_PRIMES = primes_in(_RANDOM_MODELS_FROM, 20000)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(_BSGS_PRIMES),
       f=st.one_of(
           st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=3, max_size=3)
           .map(lambda c: (*c, 1)),
           st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=4, max_size=4)
           .map(lambda c: (0, *c))))
def test_bsgs_trace_equals_horner_on_random_models(p, f):
    # random monic cubics and quartics with f(0) = 0 at random good primes;
    # the twist by the non-residue delta, as a cubic x^3 + d a x^2 +
    # d^2 b x + d^3 c or as the quartic delta*f, has the negative trace
    assume(f[-1] % p and curves.discriminant(f) % p)
    ctx = build_context(p)
    [trace] = curves.bsgs_traces([p], f)
    assert trace == curve_trace(ctx, f)
    d = ctx.delta
    twist = (d ** 3 * f[0], d * d * f[1], d * f[2], 1) if len(f) == 4 \
        else tuple(d * a for a in f)
    assert curves.bsgs_traces([p], twist) == [-trace]
