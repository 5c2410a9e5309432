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
kernel runs, and no kernel while a closed form runs.  The trace route of
`stats.collect_traces`, `curves.bsgs_traces`, takes primes, not a context,
and no claim reaches it; nor does the pair tally of `count_graph_classes`,
which sees only the residue indicator it is handed, nor the one exact
convolution that tally, `count_S` and `count_Mp` share, which sees only
arrays.
"""

import ast
import inspect
import sys
import typing
from pathlib import Path

import pytest

from residue_lab import claims, curves, k3, modarith, patterns, quadgraphs
from residue_lab.curves import (NAMED_CURVES, WEIERSTRASS_CM, affine_count,
                               curve_trace, edwards_affine, genus2_involution_check,
                               named_curve_traces, quartic_rows)
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


_KERNEL_READS = {
    "k3.count_Mp": (k3.count_Mp, {"squares", "root_counts"}),
    "k3._m_by_correlation": (k3._m_by_correlation, {"squares", "root_counts"}),
    "k3._m_by_square_classes": (k3._m_by_square_classes, {"squares", "root_counts"}),
    "k3._zero_count": (k3._zero_count, {"squares", "root_counts"}),
    "k3.count_Np": (k3.count_Np, {"index", "root_counts"}),
    "k3.count_Xprime": (k3.count_Xprime, {"squares", "root_counts"}),
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

# Kernels that take a context but read `delta`, each with its reason: the
# read set is checked to hold `delta` and no `chi`.
_KERNEL_EXEMPT = {
    "curves.quartic_rows": (
        quartic_rows, "delta defines the quartic twists it counts, not a "
                      "closed form they are checked against"),
    "curves.genus2_involution_check": (
        genus2_involution_check, "delta gives the square root i of -1 the "
                                 "involution multiplies by"),
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


def test_exempt_kernels_read_delta_and_no_chi():
    for name, (fn, _) in _KERNEL_EXEMPT.items():
        got = _reads(fn, 13, False)
        assert "delta" in got and "chi" not in got, (name, got)


def _codes_called(fn, *args) -> set:
    """The code objects of every Python function fn(*args) calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return called


def test_read_set_table_covers_every_kernel_taking_a_context():
    # each function of k3, curves and quadgraphs that takes a FieldContext
    # is in _KERNEL_READS, is called by a function listed there (so its
    # reads are in that function's set), or is exempt with its reason
    takes_context = {
        f"{m.__name__.rsplit('.', 1)[1]}.{name}": fn
        for m in (k3, curves, quadgraphs) for name, fn in vars(m).items()
        if inspect.isfunction(fn) and fn.__module__ == m.__name__
        and FieldContext in typing.get_type_hints(fn).values()}
    listed = {key.split()[0] for key in _KERNEL_READS}
    reached = set()
    for fn, _ in _KERNEL_READS.values():
        reached |= _codes_called(fn, build_context(101))
    covered = listed | set(_KERNEL_EXEMPT) | {
        name for name, fn in takes_context.items() if fn.__code__ in reached}
    assert set(takes_context) - covered == set(), set(takes_context) - covered
    assert set(_KERNEL_EXEMPT) <= set(takes_context)
    # the trace route of stats.collect_traces takes primes, not a context,
    # so it has no read set: it counts no table at all
    assert "curves.bsgs_traces" not in takes_context
    assert list(inspect.signature(curves.bsgs_traces).parameters) == ["primes", "f"]
    # the pair tally of count_graph_classes takes the residue indicator its
    # caller reads from root_counts, so its reads are in that caller's set
    assert "quadgraphs._pair_tally" not in takes_context
    assert list(inspect.signature(quadgraphs._pair_tally).parameters) == ["is_r", "a"]
    # so does the convolution it, count_S and count_Mp share
    assert list(inspect.signature(modarith.cyclic_convolution).parameters) == ["rows", "r"]


def test_count_S_and_the_graph_tally_share_one_convolution():
    # so does count_Mp, at p = 1 mod 4
    for kernel in (k3.count_S, quadgraphs.count_graph_classes, k3.count_Mp):
        assert modarith.cyclic_convolution.__code__ in _codes_called(kernel, build_context(101))
    # and no other statement of the package, in k3, quadgraphs or
    # elsewhere, refers to np.fft
    users = {(path.name, getattr(stmt, "name", None))
             for path in Path(modarith.__file__).parent.glob("*.py")
             for stmt in ast.parse(path.read_text()).body
             if any(isinstance(node, ast.Attribute) and node.attr == "fft"
                    for node in ast.walk(stmt))}
    assert users == {("modarith.py", "cyclic_convolution")}, users


def test_the_bsgs_route_builds_no_context_and_calls_no_closed_form():
    # every package function it calls is in curves, which holds no closed
    # form and builds no context
    for f in (WEIERSTRASS_CM, *NAMED_CURVES.values()):
        for p in (601, 99991):
            files = {code.co_filename for code in _codes_called(curves.bsgs_traces, [p], f)
                     if "residue_lab" in code.co_filename}
            assert files == {curves.__file__}, f


def test_no_claim_reaches_the_bsgs_route():
    # every trace a claim reads is counted point by point; only
    # stats.collect_traces takes the baby-step giant-step route
    for claim in sorted(claims.CLAIMS):
        called = _codes_called(claims.run_claim, claim, 601)
        assert curves.bsgs_traces.__code__ not in called, claim


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
