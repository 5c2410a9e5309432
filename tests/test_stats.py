import math
import tracemalloc

import numpy as np
import pytest

from residue_lab import (
    EmptySample,
    SingularCurve,
    UnknownCurve,
    build_context,
    collect_traces,
    ks_distance,
    primes_in,
)
from residue_lab import curves, stats
from residue_lab.stats import _REGISTRY, _cdf_values, curve_ids, histogram
from test_curves import BSGS_GIVES_UP


def test_collect_traces_cm_split():
    coll = collect_traces("weierstrass", 13, (1, 4))
    assert [(s.p, s.t) for s in coll.samples] == [
        (5, -2 / (2 * math.sqrt(5))), (13, 6 / (2 * math.sqrt(13)))]
    assert coll.skipped == []


def test_collect_traces_cm_inert():
    coll = collect_traces("weierstrass", 13, (3, 4))
    assert [(s.p, s.t) for s in coll.samples] == [(7, 0.0), (11, 0.0)]


def test_collect_traces_quartic_starts_at_5():
    coll = collect_traces("e", 5)
    assert [s.p for s in coll.samples] == [5]
    assert coll.samples[0].t == -2 / (2 * math.sqrt(5))


def test_collect_traces_unknown_curve():
    with pytest.raises(UnknownCurve):
        collect_traces("zeta", 100)
    with pytest.raises(ValueError):
        collect_traces("e", 3)


def test_collect_traces_refuses_bounds_past_the_route_before_sieving():
    # the route refuses p >= 2^31, so a larger bound is refused before its
    # sieve of `bound` bytes is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^31"):
            collect_traces("e", 2 ** 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_traces_strictly_inside_interval():
    for curve in ("a", "b", "e", "weierstrass"):
        for s in collect_traces(curve, 2000).samples:
            assert -1.0 < s.t < 1.0, (curve, s)


def test_cm_inert_traces_all_zero():
    for s in collect_traces("weierstrass", 100000, (3, 4)).samples:
        assert s.t == 0.0


def test_semicircle_cdf():
    assert _cdf_values(np.array([-1.0, 0.0, 1.0]), "semicircle") == \
        pytest.approx([0.0, 0.5, 1.0])
    grid = np.linspace(-1, 1, 10001)
    vals = _cdf_values(grid, "semicircle")
    assert (np.diff(vals) >= 0).all()
    # its slope is the density (2/pi) sqrt(1 - t^2)
    inner = slice(100, -100)
    assert np.gradient(vals, grid)[inner] == \
        pytest.approx(2 / math.pi * np.sqrt(1 - grid[inner] ** 2), abs=1e-3)
    with pytest.raises(ValueError):
        _cdf_values(np.zeros(1), "normal")


def test_ks_distance_basics():
    assert ks_distance([0.0], "uniform") == pytest.approx(0.5)
    assert ks_distance([0.0], "semicircle") == pytest.approx(0.5)
    assert ks_distance([0.0], "arcsine") == pytest.approx(0.5)
    with pytest.raises(EmptySample):
        ks_distance([], "uniform")
    with pytest.raises(ValueError):
        ks_distance([0.0], "gauss")


def test_ks_distance_on_exact_quantile_grid():
    n = 10 ** 4
    grid = [-1 + 2 * (i - 0.5) / n for i in range(1, n + 1)]
    assert ks_distance(grid, "uniform") < 1e-3
    # t_i = -cos(pi (i - 1/2) / n) are the arcsine quantiles at (i - 1/2) / n
    grid = [-math.cos(math.pi * (i - 0.5) / n) for i in range(1, n + 1)]
    assert ks_distance(grid, "arcsine") < 1e-3
    assert ks_distance(grid, "uniform") > 0.1


def test_ks_distance_permutation_invariant():
    xs = [0.3, -0.7, 0.1, 0.9, -0.2]
    assert ks_distance(xs, "semicircle") == ks_distance(list(reversed(xs)), "semicircle")


def test_st_report_shape():
    # the pieces the satotate report is composed of
    ts = [s.t for s in collect_traces("weierstrass", 1500).samples]
    assert len(ts) == len(primes_in(5, 1500))
    hist = histogram(ts)
    assert len(hist) == 40
    assert sum(c for _, _, c in hist) == len(ts)
    assert 0.0 <= ks_distance(ts, "uniform") <= 1.0
    assert 0.0 <= ks_distance(ts, "semicircle") <= 1.0
    assert hist[0][0] == -1.0
    assert hist[-1][1] == 1.0


def test_unfiltered_cm_histogram_has_central_spike():
    ts = [s.t for s in collect_traces("weierstrass", 5000).samples]
    hist = histogram(ts)
    spike = max(c for _, _, c in hist)
    zero_bin = next(c for lo, hi, c in hist if lo <= 0.0 < hi)
    assert zero_bin == spike
    assert spike >= 0.4 * len(ts)


def test_registered_models_reduce_well_from_5():
    # a unit leading coefficient and a discriminant with no prime factor
    # above 3 give good reduction at every p >= 5
    discriminants = []
    for curve in curve_ids():
        f = _REGISTRY[curve]
        assert abs(f[-1]) == 1, curve
        d = curves.discriminant(f)
        assert d != 0, curve
        while d % 2 == 0:
            d //= 2
        while d % 3 == 0:
            d //= 3
        assert abs(d) == 1, (curve, curves.discriminant(f))
        discriminants.append(curves.discriminant(f))
        assert collect_traces(curve, 2000).skipped == [], curve
    assert discriminants == [4, 36, 36, 4, 144, 4]


def test_cm_split_traces_follow_arcsine_law():
    # Angles of the Gaussian primes equidistribute, so the traces follow
    # cos(uniform): close to the arcsine CDF and bounded away from the
    # uniform CDF (sup distance between those two laws is about 0.105).
    coll = collect_traces("weierstrass", 30000, (1, 4))
    xs = np.sort(np.array([s.t for s in coll.samples]))
    n = xs.size
    arcsine = 0.5 + np.arcsin(np.clip(xs, -1, 1)) / math.pi
    steps = np.arange(1, n + 1) / n
    ks_arcsine = max(np.abs(arcsine - steps).max(),
                     np.abs(arcsine - steps + 1.0 / n).max())
    assert ks_arcsine < 0.05
    assert ks_distance(xs, "uniform") > 0.08


def test_residual_within_scaled_weil_bound():
    import residue_lab as rl

    for p in primes_in(17, 1000):
        ctx = rl.build_context(p)
        n = rl.count_pattern(ctx, "XXXX")
        xi = (n - (p - 1) / 16.0) / (2.0 * math.sqrt(p))
        assert abs(xi) <= 11 / 32 + 1 / (2 * math.sqrt(p)) + 1e-12, p


def test_collect_traces_builds_contexts_only_where_bsgs_gives_up(monkeypatch):
    built = []

    def recording_build_context(p, **kwargs):
        built.append(p)
        return stats_build_context(p, **kwargs)

    stats_build_context = stats.build_context
    monkeypatch.setattr(stats, "build_context", recording_build_context)
    for curve in curve_ids():
        built.clear()
        collect_traces(curve, 3000)
        assert built == BSGS_GIVES_UP[curve], curve


@pytest.mark.parametrize("residue_filter", [None, (1, 4), (3, 4)])
def test_collect_traces_equals_counting_every_point(residue_filter):
    # every trace and every skipped prime as if each were a Horner count
    for curve in curve_ids():
        f, want = _REGISTRY[curve], stats.TraceCollection(curve)
        for p in primes_in(5, 3000, residue_filter):
            try:
                trace = curves.curve_trace(build_context(p), f)
            except SingularCurve:
                want.skipped.append(p)
                continue
            want.samples.append(stats.TraceSample(p, trace / (2.0 * math.sqrt(p))))
        assert collect_traces(curve, 3000, residue_filter) == want, curve


def test_collect_traces_memory_below_one_context():
    # no p-sized arena above the cutoff: a collection to 10^5 peaks below
    # 10 bytes per p, when the tables of one context at p = 10^5 take 25
    # (about 6 bytes per p, the prime sieve and list and one round of 300
    # lanes, against 42 when every trace was a Horner count).  The filter
    # keeps 300 primes, since tracemalloc slows the collection about 8- to
    # 16-fold; the curves tests bound a full round's peak by the round.
    bound = 100000
    tracemalloc.start()
    try:
        coll = collect_traces("e", bound, (1, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(coll.samples) == len(primes_in(5, bound, (1, 64)))
    assert peak < 10 * bound, (peak, peak / bound)
