"""Registry of per-prime verifiable claims driven by the CLI.

Each claim owns its eligible residue class and minimum prime; a user
filter can only restrict the set further.  Runners return one
VerificationRecord per prime, with pass defined as expected == actual.
A run over many primes builds their contexts in one ContextArena; no
context outlives the claim run that built it.
"""

import time
from dataclasses import dataclass
from typing import Callable

from .modarith import (ContextArena, FieldContext, build_context, cm_decompose,
                       primes_in)
from .patterns import (_weil_law, _weil_limit, pattern_census,
                       pattern_counts_charsum)
from .quadgraphs import GraphClass, count_graph_classes, goncharova_K4
from .records import VerificationRecord
from . import curves, k3


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
    return VerificationRecord(p, "goncharova1", expected, actual,
                              expected == actual)


def _run_tables(ctx: FieldContext) -> VerificationRecord:
    p = ctx.p
    rows = curves.quartic_rows(ctx)
    table = curves.expected_quartic_table(p)
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
    return VerificationRecord(p, "tables", expected, actual,
                              expected == actual, detail={"traces": traces})


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
        {"mismatches": len(mismatched)}, not mismatched,
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
        p, "weil_bound", {"violations": 0},
        {"violations": len(violations)}, not violations,
        detail={"worst_pattern": worst, "worst_deviation": str(dev),
                "bound": bound})


def _run_cm_traces(ctx: FieldContext) -> VerificationRecord:
    tr = curves.named_curve_traces(ctx)
    expected = {"a_supersingular": ctx.p % 4 == 3, "a_eq_d": True,
                "abs_b_eq_abs_c": True}
    actual = {"a_supersingular": tr["a"] == 0, "a_eq_d": tr["a"] == tr["d"],
              "abs_b_eq_abs_c": abs(tr["b"]) == abs(tr["c"])}
    return VerificationRecord(ctx.p, "cm_traces", expected, actual,
                              expected == actual, detail={"traces": tr})


@dataclass(frozen=True)
class ClaimDef:
    name: str
    residue: tuple[int, int] | None  # (r, m) eligibility, None = all odd p
    min_p: int
    run: Callable[[FieldContext], VerificationRecord]
    description: str


CLAIMS = {c.name: c for c in [
    ClaimDef("formula2", (1, 4), 5, k3.verify_formula2,
             "three-quadric surface count equals (p-1)^2 + J^2 + 4"),
    ClaimDef("identity5", None, 3, k3.verify_identity5,
             "surface count equals (p+1)^2 + (N-p)^2 + 1"),
    ClaimDef("goncharova1", (1, 4), 5, _run_goncharova1,
             "closed form for the K4 quadruple count, plus class-total conservation"),
    ClaimDef("tables", None, 5, _run_tables,
             "quartic twist rows match the counts table for p mod 8"),
    ClaimDef("fibration", (1, 4), 5, k3.verify_fibration,
             "chart identities: total, boundary, interior, per-fiber counts"),
    ClaimDef("gauss_edwards", (1, 4), 5, curves.verify_gauss_edwards,
             "Edwards smooth count equals (a-1)^2 + b^2"),
    ClaimDef("j_relations", (1, 4), 5, curves.verify_J_relations,
             "Jacobsthal sum vs curve count and CM decomposition"),
    ClaimDef("bookkeeping", (1, 4), 5, k3.verify_lemma_bookkeeping,
             "surface difference M - S equals 4p - 3"),
    ClaimDef("charsum_consistency", None, 3, _run_charsum_consistency,
             "window scan equals character-sum expansion, lengths <= 5"),
    ClaimDef("weil_bound", None, 17, _run_weil_bound,
             "length-4 deviations within (11 sqrt p + 16)/16"),
    ClaimDef("genus2", (1, 4), 5, curves.genus2_involution_check,
             "quintic involution permutes the point set"),
    ClaimDef("cm_traces", None, 5, _run_cm_traces,
             "trace relations among the five named curves"),
]}


def eligible_primes(claim: ClaimDef, min_p: int, max_p: int,
                    user_filter: tuple[int, int] | None) -> list[int]:
    """Primes the claim applies to in [min_p, max_p], after the user filter."""
    lo = max(min_p, claim.min_p)
    if lo > max_p:
        return []
    primes = primes_in(lo, max_p, claim.residue)
    if user_filter is not None:
        r, m = user_filter
        primes = [p for p in primes if p % m == r % m]
    return primes


def run_claim(claim_name: str, p: int, oracle: bool = False,
              arena: ContextArena | None = None) -> VerificationRecord:
    """Build the context for p, in `arena` when given, and run one claim,
    timing it."""
    claim = CLAIMS[claim_name]
    start = time.perf_counter()
    ctx = build_context(p, counting_oracle=oracle, arena=arena)
    record = claim.run(ctx)
    record.elapsed = time.perf_counter() - start
    return record


def _verify_worker(args: tuple[str, list[int], bool]) -> list[dict]:
    """Records of one claim at ascending primes, all built in one arena."""
    claim_name, primes, oracle = args
    arena = ContextArena(max(primes, default=0))
    return [run_claim(claim_name, p, oracle, arena).to_obj() for p in primes]


def cm_payload(p: int) -> dict:
    """Both normalized decompositions of p, JSON-shaped."""
    ctx = build_context(p)
    gauss, mod4 = cm_decompose(ctx)
    return {"p": p, "gauss": {"a": gauss.a, "b": gauss.b},
            "jacobsthal": {"a": mod4.a, "b": mod4.b}}
