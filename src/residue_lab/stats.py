"""Distribution of normalized Frobenius traces over prime ranges.

For a fixed curve the traces a_p / (2 sqrt p) land in (-1, 1); the module
collects them, compares the empirical CDF against the uniform law, the
semicircle law (non-CM curves) and the arcsine law (CM curves at split
primes, cos of a uniform angle) by Kolmogorov-Smirnov distance, and bins
them into fixed 40-bin histograms.  The `satotate` command composes its
report from these three pieces.

The traces are data for these statistics, and no closed form checks
them, so collect_traces may take them from baby-step giant-step, for
all its primes in one call, rather than a count of every point; its
docstring gives the rule.  The two routes give the same integers, and
the claims read only counted traces.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySample, UnknownCurve
from .modarith import _check_range, build_context, primes_in
from . import curves

HISTOGRAM_BINS = 40

# Models per curve id; every registered model has good reduction at all
# p >= 5.
_REGISTRY = dict(curves.NAMED_CURVES)
_REGISTRY["weierstrass"] = curves.WEIERSTRASS_CM


@dataclass(frozen=True)
class TraceSample:
    p: int
    t: float


@dataclass
class TraceCollection:
    curve: str
    samples: list[TraceSample] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)


def curve_ids() -> list[str]:
    return sorted(_REGISTRY)


def _check_bound(bound: int) -> None:
    """ValueError unless collect_traces takes `bound`, before any sieve is
    built: at least 5, a range primes_in can index, and below 2^31, where
    the trace route stops."""
    if bound < 5:
        raise ValueError("need bound >= 5")
    _check_range(5, bound)
    if bound >= curves._BSGS_MAX_P:
        raise ValueError("need bound < 2^31, the trace route's limit")


def collect_traces(curve: str, bound: int,
                   residue_filter: tuple[int, int] | None = None) -> TraceCollection:
    """Normalized traces at all good primes in [5, bound] passing the filter.

    Primes below 5 stay out of every collection (the quartic models lose
    good reduction there); bad-reduction primes inside the range are
    recorded in `skipped`, by the one rule both routes apply.  The traces
    come from one call of curves.bsgs_traces on the good primes, which
    needs no tables and holds a round of lanes at a time, and at a prime
    that route cannot tell from the Horner count curves.curve_trace, its
    oracle in the tests, on a context built for that prime alone.
    """
    spec = _REGISTRY.get(curve)
    if spec is None:
        raise UnknownCurve(f"unknown curve {curve!r}; known: {curve_ids()}")
    _check_bound(bound)
    primes = primes_in(5, bound, residue_filter)
    coll = TraceCollection(curve, skipped=curves._singular_primes(primes, spec))
    good = [p for p in primes if p not in coll.skipped]
    for p, trace in zip(good, curves.bsgs_traces(good, spec)):
        if trace is None:
            trace = curves.curve_trace(build_context(p), spec)
        # a_p / (2 sqrt p), which the Hasse bound puts in (-1, 1)
        coll.samples.append(TraceSample(p, trace / (2.0 * math.sqrt(p))))
    return coll


def _cdf_values(xs: np.ndarray, law: str) -> np.ndarray:
    if law == "uniform":
        return (xs + 1.0) / 2.0
    if law == "semicircle":
        return 0.5 + (xs * np.sqrt(1.0 - xs * xs) + np.arcsin(xs)) / math.pi
    if law == "arcsine":
        return 0.5 + np.arcsin(xs) / math.pi
    raise ValueError(
        f"unknown law {law!r}; use 'uniform', 'semicircle' or 'arcsine'")


def ks_distance(samples, law: str) -> float:
    """One-sample two-sided Kolmogorov-Smirnov distance to a target law
    on [-1, 1]."""
    xs = np.sort(np.asarray(list(samples), dtype=np.float64))
    n = xs.size
    if n == 0:
        raise EmptySample("no samples")
    cdf = _cdf_values(np.clip(xs, -1.0, 1.0), law)
    steps = np.arange(1, n + 1) / n
    return float(max(np.abs(cdf - steps).max(), np.abs(cdf - steps + 1.0 / n).max()))


def histogram(values) -> list[tuple[float, float, int]]:
    """(lo, hi, count) of each of HISTOGRAM_BINS equal bins over [-1, 1]."""
    counts, edges = np.histogram(np.asarray(list(values), dtype=np.float64),
                                 bins=HISTOGRAM_BINS, range=(-1.0, 1.0))
    return [(float(edges[i]), float(edges[i + 1]), int(c))
            for i, c in enumerate(counts)]
