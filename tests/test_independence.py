"""Read-set audit: which FieldContext fields each kernel and closed form reads.

A brute-force kernel counts points through `squares`, `root_counts` and
the read-only `index`; the closed forms it is checked against read `chi`
or `delta`.  A default context derives `root_counts` from `chi`, but an
`--oracle` context builds it by tallying squares, so as long as the read
sets stay apart the two sides of every identity run down independent
paths.  Pinning the sets makes a kernel that starts reading `chi`, or a
closed form that starts reading `root_counts`, fail here.  The kernel
modules also hold no closed form, claim runner or record type, so none of
them can call the identity it is checked against; and at run time a
profile of every claim checks that no closed form is called while a
kernel runs, and no kernel while a closed form runs.
"""

import ast
import inspect
import sys
import typing
from pathlib import Path

import pytest

from residue_lab import claims, curves, k3, modarith, patterns, quadgraphs
from residue_lab.curves import (NAMED_CURVES, WEIERSTRASS_CM, affine_count,
                               curve_trace, edwards_affine, named_curve_traces)
from residue_lab.modarith import ContextArena, FieldContext, build_context, cm_decompose
from residue_lab.patterns import (count_pattern, jacobsthal, pattern_census,
                                  pattern_counts_charsum, pattern_curve_count)

_FIELDS = ("chi", "root_counts", "squares", "index", "delta")


class RecordingContext(FieldContext):
    """A FieldContext that logs which of _FIELDS are read from it."""

    __slots__ = ("reads",)

    def __init__(self, ctx: FieldContext):
        # the tables are taken through the properties; the copy's own arena
        # never builds another context, so the copy never goes stale
        super().__init__(ctx.p, ctx.k, ctx.delta, ctx.index,
                         (ctx.chi, ctx.root_counts, ctx.squares), ContextArena(), 0)
        object.__setattr__(self, "reads", set())

    def __getattribute__(self, name):
        if name in _FIELDS:
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


# quartic_rows and genus2_involution_check are not here: they read
# `delta`, which defines the quartic twists and the square root i of -1
# they count over, not a closed form they are checked against.
_KERNEL_READS = {
    "k3.count_Mp": (k3.count_Mp, {"squares", "root_counts"}),
    "k3.count_S": (k3.count_S, {"root_counts"}),
    "k3._xprime_scan": (k3._xprime_scan, {"squares", "root_counts"}),
    "k3._locus_X_count": (k3._locus_X_count, {"squares", "root_counts"}),
    "k3._locus_S_count": (k3._locus_S_count, {"squares", "root_counts"}),
    "quadgraphs.count_graph_classes": (quadgraphs.count_graph_classes, {"root_counts"}),
    "curves.affine_count": (lambda ctx: affine_count(ctx, WEIERSTRASS_CM),
                            {"index", "root_counts"}),
    "curves.edwards_affine": (edwards_affine, {"squares", "root_counts"}),
    "curves.curve_trace quartic": (lambda ctx: curve_trace(ctx, NAMED_CURVES["e"]),
                                   {"index", "root_counts"}),
    "curves.named_curve_traces": (named_curve_traces, {"index", "root_counts"}),
    "patterns.pattern_curve_count": (lambda ctx: pattern_curve_count(ctx, 3),
                                     {"squares", "root_counts"}),
}

_CLOSED_FORM_READS = {
    "patterns.pattern_census": (lambda ctx: pattern_census(ctx, 4), {"chi"}),
    "patterns.count_pattern": (lambda ctx: count_pattern(ctx, "XYX"), {"chi"}),
    "patterns.pattern_counts_charsum": (lambda ctx: pattern_counts_charsum(ctx, 4),
                                        {"chi"}),
    "patterns.jacobsthal": (jacobsthal, {"chi", "index"}),
    "claims.goncharova_K4": (claims.goncharova_K4, {"chi", "index"}),
    "claims.fiber_buckets": (claims.fiber_buckets, {"chi", "index"}),
    "modarith.cm_decompose": (cm_decompose, {"delta"}),
}


def _reads(fn, p: int, oracle: bool) -> set[str]:
    ctx = RecordingContext(build_context(p, counting_oracle=oracle))
    fn(ctx)
    return ctx.reads


@pytest.mark.parametrize("p", [13, 101])
@pytest.mark.parametrize("oracle", [False, True])
def test_kernel_read_sets(p, oracle):
    for name, (fn, want) in _KERNEL_READS.items():
        got = _reads(fn, p, oracle)
        assert "chi" not in got and "delta" not in got, (name, got)
        assert got == want, name


@pytest.mark.parametrize("p", [13, 101])
@pytest.mark.parametrize("oracle", [False, True])
def test_closed_form_read_sets(p, oracle):
    for name, (fn, want) in _CLOSED_FORM_READS.items():
        got = _reads(fn, p, oracle)
        assert "root_counts" not in got and "squares" not in got, (name, got)
        assert got == want, name


def test_recording_context_sees_every_field():
    ctx = RecordingContext(build_context(13))
    for name in _FIELDS:
        getattr(ctx, name)
    assert ctx.reads == set(_FIELDS)


def test_only_modarith_reads_the_raw_tables():
    # the stale check and this audit each see a table read only when it
    # goes through the chi, root_counts or squares property
    files = [*Path(modarith.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    readers = {path.name for path in files
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "_tables"}
    assert readers == {"modarith.py"}


@pytest.mark.parametrize("kernel", [k3, curves, quadgraphs], ids=lambda m: m.__name__)
def test_kernel_modules_hold_no_closed_form(kernel):
    banned = (claims, patterns, patterns.jacobsthal, modarith.cm_decompose)
    for name, value in vars(kernel).items():
        assert not any(value is b for b in banned), name
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ not in (claims.__name__, patterns.__name__), name


# Call-graph audit.  A kernel is any function in k3, curves or quadgraphs.
# A closed form is any function claims defines but the runners and the
# record machinery, with the Jacobsthal sum and the CM decomposition.
_KERNEL_FILES = {m.__file__ for m in (k3, curves, quadgraphs)}
_CLOSED_FORMS = {
    fn.__code__ for name, fn in vars(claims).items()
    if inspect.isfunction(fn) and fn.__module__ == claims.__name__
    and not name.startswith("_run_")
    and name not in ("eligible_primes", "run_claim", "_verify_worker")
} | {jacobsthal.__code__, cm_decompose.__code__}


def test_read_set_table_covers_every_closed_form_taking_a_context():
    # the two audits share one list of closed forms, so neither can drift
    takes_context = {
        f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        for fn in (*vars(claims).values(), jacobsthal, cm_decompose)
        if inspect.isfunction(fn) and fn.__code__ in _CLOSED_FORMS
        and FieldContext in typing.get_type_hints(fn).values()}
    assert {"claims.fiber_buckets", "patterns.jacobsthal"} <= takes_context
    assert not takes_context - set(_CLOSED_FORM_READS), takes_context - set(_CLOSED_FORM_READS)


def _side(code) -> str | None:
    if code in _CLOSED_FORMS:
        return "closed form"
    if code.co_filename in _KERNEL_FILES:
        return "kernel"
    return None


def _audited_run(claim: str, p: int) -> tuple[dict[str, int], list[tuple[str, str]]]:
    """Runs one claim at p under sys.setprofile, and returns the calls made
    to each side and every (caller, callee) pair in which a function of one
    side was called while one of the other side was on the stack."""
    calls = {"kernel": 0, "closed form": 0}
    crossings = []

    def profile(frame, event, arg):
        if event != "call" or (side := _side(frame.f_code)) is None:
            return
        calls[side] += 1
        outer = frame.f_back
        while outer is not None:
            if _side(outer.f_code) not in (None, side):
                crossings.append((outer.f_code.co_qualname, frame.f_code.co_qualname))
                break
            outer = outer.f_back

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        claims.run_claim(claim, p)
    finally:
        sys.setprofile(previous)
    return calls, crossings


def test_call_audit_sees_both_sides():
    assert {code.co_name for code in _CLOSED_FORMS} == {
        "d_of_J", "goncharova_K4", "expected_quartic_table", "fiber_buckets",
        "_weil_limit", "_weil_law", "jacobsthal", "cm_decompose"}
    calls, _ = _audited_run("formula2", 13)  # count_S against jacobsthal
    assert calls["kernel"] > 0 and calls["closed form"] > 0, calls


@pytest.mark.parametrize("claim", sorted(claims.CLAIMS))
def test_no_call_crosses_between_kernels_and_closed_forms(claim):
    for p in (13, 17, 19, 29, 31):
        if claims.CLAIMS[claim].applies(p):
            assert _audited_run(claim, p)[1] == [], p
