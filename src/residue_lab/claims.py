"""Registry of per-prime verifiable claims driven by the CLI, and every
check they make.

The kernel modules (`k3`, `curves`, `quadgraphs`) only count; the closed
forms and tables their counts are checked against live here, next to one
`_run_<claim>` per claim, so no kernel imports the identity it is tested
by.  Each claim owns its eligible residue class and minimum prime, and
`ClaimDef.applies` states that rule once: `eligible_primes` lists only
those primes and `run_claim` refuses any other, so no runner checks them
again; a user filter can only restrict the set further.  Runners return
one VerificationRecord per prime, the record type the CLI writes, which
passes when expected == actual.
Each task of primes builds its contexts in one ContextArena; no context
outlives the claim run that built it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import WrongResidueClass
from .modarith import (ContextArena, FieldContext, build_context, cm_decompose,
                       primes_in, reduce_mod)
from .patterns import jacobsthal, pattern_census, pattern_counts_charsum
from .quadgraphs import GraphClass, count_graph_classes
from . import curves, k3


@dataclass
class VerificationRecord:
    """Outcome of one named identity at one prime.

    The record passes exactly when expected == actual; `detail` carries
    informational values that are reported but not gated.
    """

    p: int
    claim: str
    expected: object
    actual: object
    detail: dict | None = None

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_obj(self) -> dict:
        obj = {"p": self.p, "claim": self.claim, "expected": self.expected,
               "actual": self.actual, "pass": self.passed}
        if self.detail is not None:
            obj["detail"] = self.detail
        return obj


# ------------------------------------------------------------ closed forms

# Expected (infinity, zero-locus, sum) per quartic twist variant, after
# reduction of the prime mod 8; the trace column is the sign pattern
# (a, -a, -a, a).
QUARTIC_TABLE_PM1 = {1: (2, 6, 8), 2: (0, 4, 4), 3: (2, 2, 4), 4: (0, 0, 0)}
QUARTIC_TABLE_PM3 = {1: (2, 2, 4), 2: (0, 0, 0), 3: (2, 6, 8), 4: (0, 4, 4)}


def d_of_J(J: int) -> int:
    """(J^2 - 4) / 32, defined only when the division is exact."""
    num = J * J - 4
    if num % 32:
        raise ArithmeticError(f"({J}^2 - 4) is not divisible by 32")
    return num // 32


def goncharova_K4(ctx: FieldContext) -> int:
    """Closed form for the K4 class count at p = 4k + 1:
    (k(k-1)(k-4) + 2k*d) / 24 with d = (J^2 - 4) / 32."""
    k = ctx.k
    d = d_of_J(jacobsthal(ctx))
    num = k * (k - 1) * (k - 4) + 2 * k * d
    if num % 24:
        raise ArithmeticError(f"K4 numerator {num} not divisible by 24 at p={ctx.p}")
    return num // 24


def expected_quartic_table(p: int) -> dict[int, tuple[int, int, int]]:
    """Table of (infinity, zero-locus, sum) selected by p mod 8."""
    return QUARTIC_TABLE_PM1 if p % 8 in (1, 7) else QUARTIC_TABLE_PM3


def fiber_buckets(ctx: FieldContext) -> dict[str, np.ndarray]:
    """Masks over t = 1..p-1 of the t with t^2 + 1 != 0, bucketed by the
    residue pattern of (t, t^2 + 1); R = residue, N = non-residue.  Keys
    RR, RN, NR, NN follow the quartic variants 1..4."""
    t = ctx.index[1:]
    tt1 = reduce_mod(t * t + 1, ctx.p)
    valid = tt1 != 0
    t_res = ctx.chi[1:] == 1
    s_res = ctx.chi[tt1] == 1
    return {
        "RR": valid & t_res & s_res,
        "RN": valid & t_res & ~s_res,
        "NR": valid & ~t_res & s_res,
        "NN": valid & ~t_res & ~s_res,
    }


def _weil_limit(p: int) -> int:
    """The largest integer |16n - (p-1)| within 11*sqrt(p) + 16, that is
    16 + isqrt(121p): the bound on a length-4 pattern count n at p, scaled
    by 16 and checked in integers."""
    return 16 + math.isqrt(121 * p)


def _weil_law(p: int, n: int) -> tuple[Fraction, float]:
    """For a length-4 pattern count n at p: the deviation n - (p-1)/16 as an
    exact fraction, and the bound (11*sqrt(p)+16)/16."""
    deviation = Fraction(16 * n - (p - 1), 16)
    return deviation, (11.0 * math.sqrt(p) + 16.0) / 16.0


# ----------------------------------------------------------------- runners

def _run_formula2(ctx: FieldContext) -> VerificationRecord:
    """#S = (p-1)^2 + J^2 + 4 for p = 1 mod 4."""
    p = ctx.p
    s = k3.count_S(ctx)
    return VerificationRecord(p, "formula2", (p - 1) ** 2 + jacobsthal(ctx) ** 2 + 4, s)


def _run_identity5(ctx: FieldContext) -> VerificationRecord:
    """M = (p+1)^2 + (N-p)^2 + 1."""
    p = ctx.p
    m = k3.count_Mp(ctx)
    n = k3.count_Np(ctx)
    return VerificationRecord(p, "identity5", (p + 1) ** 2 + (n - p) ** 2 + 1, m)


def _run_goncharova1(ctx: FieldContext) -> VerificationRecord:
    p = ctx.p
    counts = count_graph_classes(ctx)
    expected = {
        "K4": goncharova_K4(ctx),
        "class_total": (p - 1) * (p - 2) * (p - 3) // 24,
    }
    actual = {
        "K4": counts[GraphClass.K4],
        "class_total": sum(counts.values()),
    }
    return VerificationRecord(p, "goncharova1", expected, actual)


def _run_tables(ctx: FieldContext) -> VerificationRecord:
    p = ctx.p
    rows = curves.quartic_rows(ctx)
    table = expected_quartic_table(p)
    traces = [r.trace for r in rows]
    sign_ok = (traces[1] == -traces[0] and traces[2] == -traces[0]
               and traces[3] == traces[0])
    expected = {
        "infinity": [table[v][0] for v in (1, 2, 3, 4)],
        "zero_locus": [table[v][1] for v in (1, 2, 3, 4)],
        "sum": [table[v][2] for v in (1, 2, 3, 4)],
        "sign_pattern_ok": True,
    }
    actual = {
        "infinity": [r.infinity_count for r in rows],
        "zero_locus": [r.zero_locus_count for r in rows],
        "sum": [r.infinity_count + r.zero_locus_count for r in rows],
        "sign_pattern_ok": sign_ok,
    }
    return VerificationRecord(p, "tables", expected, actual, detail={"traces": traces})


def _run_fibration(ctx: FieldContext) -> VerificationRecord:
    """All chart-level identities at one prime p = 1 mod 4:

    - #X = #X' + p,
    - boundary #X'_0 = 7p - 15,
    - interior = (1/4) sum of squared quartic interior counts
               = p^2 - 6p + 17 + a^2 with a the quartic trace,
    - each interior fiber count equals the interior count of the quartic
      matching the residue pattern of (t, t^2 + 1).
    """
    p = ctx.p
    total, boundary, fibers = k3._xprime_scan(ctx)
    interior = total - boundary
    m = k3.count_Mp(ctx)
    rows = curves.quartic_rows(ctx)
    # affine points with both coordinates nonzero
    circ = [r.affine_count - r.zero_locus_count for r in rows]
    quarter_sum = sum(c * c for c in circ)
    if quarter_sum % 4:
        raise ArithmeticError(f"sum of squared interior counts not divisible by 4 at p={p}")
    quarter_sum //= 4
    a = rows[0].trace
    closed = p * p - 6 * p + 17 + a * a
    # per-fiber: each bucket of t matches its quartic variant's interior
    inner_fibers = fibers[1:]
    fibers_ok = all(
        bool((inner_fibers[mask] == c).all())
        for mask, c in zip(fiber_buckets(ctx).values(), circ))
    expected = {"total_plus_p": m, "boundary": 7 * p - 15,
                "interior": quarter_sum, "interior_closed": closed,
                "fibers_ok": True}
    actual = {"total_plus_p": total + p, "boundary": boundary,
              "interior": interior, "interior_closed": interior,
              "fibers_ok": fibers_ok}
    return VerificationRecord(p, "fibration", expected, actual,
                              detail={"quartic_traces": [r.trace for r in rows]})


def _run_gauss_edwards(ctx: FieldContext) -> VerificationRecord:
    """Smooth-model Edwards count (affine + 4) against (a-1)^2 + b^2 for
    the 2+2i-normalized decomposition of p."""
    gauss, _ = cm_decompose(ctx)
    expected = (gauss.a - 1) ** 2 + gauss.b ** 2
    return VerificationRecord(ctx.p, "gauss_edwards", expected,
                              curves.edwards_affine(ctx) + 4)


def _run_j_relations(ctx: FieldContext) -> VerificationRecord:
    """Jacobsthal sum against the CM cubic's point count and the CM
    decomposition: J = #projective - p - 1 and |2a| = |J|.

    The sign rule 2a = (-1)^(k+1) J is reported per normalization in
    `detail` without gating; the two normalizations differ in sign of a
    whenever b = 2 mod 4, so at most one of them can satisfy it there.
    """
    J = jacobsthal(ctx)
    projective = k3.count_Np(ctx) + 1
    gauss, mod4 = cm_decompose(ctx)
    expected = {"curve_excess": J, "abs_2a": abs(J)}
    actual = {"curve_excess": projective - ctx.p - 1, "abs_2a": abs(2 * gauss.a)}
    sign = 1 if ctx.k % 2 else -1  # (-1)^(k+1)
    detail = {
        "sign_rule_gauss": 2 * gauss.a == sign * J,
        "sign_rule_mod4": 2 * mod4.a == sign * J,
    }
    return VerificationRecord(ctx.p, "j_relations", expected, actual, detail=detail)


def _run_bookkeeping(ctx: FieldContext) -> VerificationRecord:
    """The transfer identity M - #S = 4p - 3.

    The individual divisor loci are also counted directly and reported in
    `detail` next to the stated values 6p-4 and 2p-1; only the net
    difference is gated, since the locus definitions admit several readings
    and only the difference is forced by the counts.
    """
    p = ctx.p
    m, z0 = k3._m_scan(ctx)
    s = k3.count_S(ctx)
    detail = {
        "locus_X_measured": k3._locus_X(ctx, z0),
        "locus_X_stated": 6 * p - 4,
        "locus_S_measured": k3._locus_S_count(ctx),
        "locus_S_stated": 2 * p - 1,
    }
    return VerificationRecord(p, "bookkeeping", 4 * p - 3, m - s, detail=detail)


def _run_charsum_consistency(ctx: FieldContext) -> VerificationRecord:
    p = ctx.p
    mismatched = []
    checked = 0
    for ell in range(1, min(5, p - 1) + 1):
        expansion = pattern_counts_charsum(ctx, ell)
        for s, n in pattern_census(ctx, ell).items():
            checked += 1
            if n != expansion[s]:
                mismatched.append(s)
    return VerificationRecord(
        p, "charsum_consistency", {"mismatches": 0},
        {"mismatches": len(mismatched)},
        detail={"patterns_checked": checked, "mismatched": mismatched})


def _run_weil_bound(ctx: FieldContext) -> VerificationRecord:
    p = ctx.p
    census = pattern_census(ctx, 4)
    d16 = {s: abs(16 * n - (p - 1)) for s, n in census.items()}
    limit = _weil_limit(p)
    violations = [s for s, d in d16.items() if d > limit]
    worst = max(d16, key=d16.get)  # the first of equal maxima in census order
    dev, bound = _weil_law(p, census[worst])
    return VerificationRecord(
        p, "weil_bound", {"violations": 0}, {"violations": len(violations)},
        detail={"worst_pattern": worst, "worst_deviation": str(dev),
                "bound": bound})


def _run_genus2(ctx: FieldContext) -> VerificationRecord:
    mismatches, checked = curves.genus2_involution_check(ctx)
    return VerificationRecord(ctx.p, "genus2", 0, mismatches,
                              detail={"points_checked": checked})


def _run_cm_traces(ctx: FieldContext) -> VerificationRecord:
    tr = curves.named_curve_traces(ctx)
    expected = {"a_supersingular": ctx.p % 4 == 3, "a_eq_d": True,
                "abs_b_eq_abs_c": True}
    actual = {"a_supersingular": tr["a"] == 0, "a_eq_d": tr["a"] == tr["d"],
              "abs_b_eq_abs_c": abs(tr["b"]) == abs(tr["c"])}
    return VerificationRecord(ctx.p, "cm_traces", expected, actual, detail={"traces": tr})


@dataclass(frozen=True)
class ClaimDef:
    name: str
    residue: tuple[int, int] | None  # (r, m) eligibility, None = all odd p
    min_p: int
    run: Callable[[FieldContext], VerificationRecord]
    # the cost of a prime grows about as p**cost_exponent: 2 for the claims
    # that scan a p x p grid of cells, 1 for the rest
    cost_exponent: int = 1

    def applies(self, p: int) -> bool:
        """Whether the claim applies at p: its one eligibility rule."""
        return p >= self.min_p and (self.residue is None
                                    or p % self.residue[1] == self.residue[0])


CLAIMS = {c.name: c for c in [
    ClaimDef("formula2", (1, 4), 5, _run_formula2),
    ClaimDef("identity5", None, 3, _run_identity5, 2),
    ClaimDef("goncharova1", (1, 4), 5, _run_goncharova1, 2),
    ClaimDef("tables", None, 5, _run_tables),
    ClaimDef("fibration", (1, 4), 5, _run_fibration, 2),
    ClaimDef("gauss_edwards", (1, 4), 5, _run_gauss_edwards),
    ClaimDef("j_relations", (1, 4), 5, _run_j_relations),
    ClaimDef("bookkeeping", (1, 4), 5, _run_bookkeeping, 2),
    ClaimDef("charsum_consistency", None, 3, _run_charsum_consistency),
    ClaimDef("weil_bound", None, 17, _run_weil_bound),
    ClaimDef("genus2", (1, 4), 5, _run_genus2),
    ClaimDef("cm_traces", None, 5, _run_cm_traces),
]}


def eligible_primes(claim: ClaimDef, min_p: int, max_p: int,
                    user_filter: tuple[int, int] | None) -> list[int]:
    """Primes the claim applies to in [min_p, max_p], after the user filter."""
    lo = max(min_p, 2)  # the least prime; the claim decides the rest
    if lo > max_p:
        return []
    return [p for p in primes_in(lo, max_p, user_filter) if claim.applies(p)]


def run_claim(claim_name: str, p: int, oracle: bool = False,
              arena: ContextArena | None = None) -> VerificationRecord:
    """Build the context for p, in `arena` when given, and run one claim.

    Raises WrongResidueClass where the claim does not apply (below its
    minimum or outside its residue class): the runners do not check.
    """
    claim = CLAIMS[claim_name]
    if not claim.applies(p):
        raise WrongResidueClass(f"claim {claim_name} does not apply at p={p}")
    return claim.run(build_context(p, counting_oracle=oracle, arena=arena))


def _verify_worker(args: tuple[str, list[int], bool]) -> list[dict]:
    """Records of one claim at ascending primes, all built in one arena."""
    claim_name, primes, oracle = args
    arena = ContextArena(max(primes))
    return [run_claim(claim_name, p, oracle, arena).to_obj() for p in primes]
