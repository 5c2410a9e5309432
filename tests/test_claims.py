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

