import tracemalloc

import pytest

from residue_lab import WrongResidueClass, primes_in
from residue_lab.claims import CLAIMS, eligible_primes, run_claim

_RESTRICTED = sorted(name for name, c in CLAIMS.items()
                     if c.residue is not None or c.min_p > 3)


@pytest.mark.parametrize("name", _RESTRICTED)
def test_run_claim_refuses_primes_outside_the_claim(name):
    # the ClaimDef alone decides which primes a claim applies to; the
    # runners do not check again
    claim = CLAIMS[name]
    inside = eligible_primes(claim, 3, 40, None)
    outside = [p for p in primes_in(3, 40) if p not in inside]
    assert inside and outside
    for p in outside:
        with pytest.raises(WrongResidueClass, match=f"{name} does not apply at p={p}"):
            run_claim(name, p)
    for p in inside:
        assert run_claim(name, p).p == p



# Bytes per p that one run_claim may allocate at p = 100049, context
# included: the peak RSS per p of one prime near 1.6e7 in ROADMAP item 19's
# table (interpreter excluded), plus 25 % headroom, rounded up.  The
# context alone is 25 bytes per p.  At 100049 the tracemalloc peaks were
# 41, 41, 41, 55, 57, 97 and 201 bytes per p, in this order.
_BYTES_PER_P = {
    "cm_traces": 52,
    "gauss_edwards": 52,
    "weil_bound": 53,
    "genus2": 63,
    "tables": 72,
    "formula2": 135,
    "charsum_consistency": 243,
}


@pytest.mark.parametrize("claim", sorted(_BYTES_PER_P))
def test_claim_memory_bounded_per_p(claim):
    p = 100049  # 1 mod 4, so every one of the claims applies
    tracemalloc.start()
    try:
        run_claim(claim, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _BYTES_PER_P[claim] * p, (peak, peak / p)
