import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brute
from residue_lab import quadgraphs
from residue_lab import (
    GraphClass,
    WrongResidueClass,
    build_context,
    count_graph_classes,
    primes_in,
)
from residue_lab.claims import d_of_J, goncharova_K4
from residue_lab.quadgraphs import DEGREE_KEY

P13_CLASSES = {
    "Empty": 0, "OneEdge": 3, "TwoDisjointEdges": 3, "PathP3": 12,
    "TrianglePlusVertex": 2, "PathP4": 15, "StarK13": 2, "CycleC4": 3,
    "Paw": 12, "Diamond": 3, "K4": 0,
}
P17_CLASSES = {
    "Empty": 0, "OneEdge": 12, "TwoDisjointEdges": 6, "PathP3": 24,
    "TrianglePlusVertex": 8, "PathP4": 40, "StarK13": 8, "CycleC4": 6,
    "Paw": 24, "Diamond": 12, "K4": 0,
}


def test_degree_multiset_is_complete_invariant():
    # Group all 64 labeled graphs on 4 vertices by isomorphism and check the
    # degree multiset separates the classes exactly as the lookup table says.
    classes = brute.isomorphism_classes_on_4_vertices()
    assert len(classes) == 11
    seen_keys = {}
    for canon, members in classes.items():
        deg = [0, 0, 0, 0]
        for a, b in canon:
            deg[a] += 1
            deg[b] += 1
        key = tuple(sorted(deg))
        assert key not in seen_keys, "degree multiset collision"
        seen_keys[key] = len(members)
    assert set(seen_keys) == set(DEGREE_KEY.values())
    assert sum(seen_keys.values()) == 64


def _classify(ctx, quad):
    """Class of a quadruple by the packed edge key of count_graph_classes,
    after translating its first residue to 0."""
    p = ctx.p
    a, b, c = ((x - quad[0]) % p for x in quad[1:])

    def edge(x, y):
        return int(ctx.chi[(x - y) % p] == 1)

    key = edge(0, c) + 2 * edge(a, c) + 4 * edge(0, b) + 8 * edge(a, b) + 16 * edge(b, c)
    return quadgraphs._edge_key_class(edge(0, a), key)


def test_classify_examples():
    ctx = build_context(13)
    assert _classify(ctx, (0, 1, 3, 9)) == GraphClass.STAR_K13
    assert _classify(ctx, (1, 2, 4, 10)) == GraphClass.STAR_K13  # shifted
    assert brute.classify(13, (0, 1, 3, 9)) == GraphClass.STAR_K13.value


def test_classify_matches_brute_and_is_invariant():
    rng = random.Random(20260810)
    for p in (13, 29, 53):
        ctx = build_context(p)
        for _ in range(40):
            quad = tuple(rng.sample(range(p), 4))
            cls = _classify(ctx, quad)
            assert cls.value == brute.classify(p, quad)
            shift = rng.randrange(p)
            assert _classify(ctx, tuple((a + shift) % p for a in quad)) == cls
            perm = rng.choice(list(permutations(range(4))))
            assert _classify(ctx, tuple(quad[i] for i in perm)) == cls


def test_count_graph_classes_frozen_values():
    got13 = {c.value: n for c, n in count_graph_classes(build_context(13)).items()}
    assert got13 == P13_CLASSES
    got17 = {c.value: n for c, n in count_graph_classes(build_context(17)).items()}
    assert got17 == P17_CLASSES
    assert count_graph_classes(build_context(29))[GraphClass.K4] == 7
    with pytest.raises(WrongResidueClass):
        count_graph_classes(build_context(11))


def test_count_graph_classes_matches_brute():
    for p in (5, 13, 17, 29, 37):
        got = {c.value: n for c, n in count_graph_classes(build_context(p)).items()}
        assert got == brute.count_classes(p), p


def _class_values(ctx):
    return {c.value: n for c, n in count_graph_classes(ctx).items()}


def test_count_graph_classes_matches_enumerator():
    for p in primes_in(5, 319, (1, 4)) + [613]:
        assert _class_values(build_context(p)) == brute.count_classes_enumerated(p), p


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from(primes_in(5, 1500, (1, 4))), oracle=st.booleans())
def test_count_graph_classes_properties_at_random_primes(p, oracle):
    ctx = build_context(p, counting_oracle=oracle)
    counts = count_graph_classes(ctx)
    assert all(n >= 0 for n in counts.values())
    assert sum(counts.values()) == (p - 1) * (p - 2) * (p - 3) // 24
    assert counts[GraphClass.K4] == goncharova_K4(ctx)
    if p < 60:
        assert _class_values(ctx) == brute.count_classes(p)


def test_count_graph_classes_oracle_context_agrees():
    for p in primes_in(5, 400, (1, 4)):
        assert (count_graph_classes(build_context(p, counting_oracle=True))
                == count_graph_classes(build_context(p))), p


def _tally_inputs(ctx):
    """The residue indicator and the two values of a that
    count_graph_classes tallies, read as it reads them."""
    is_r = (ctx.root_counts == 2).astype(np.intp)
    return is_r, (1, int(np.argmax(ctx.root_counts == 0)))


def test_pair_tally_matches_the_tile_oracle():
    # the FFT tally against the tile scan on an Euler-criterion indicator,
    # for a = 1 and a = delta, read from a default and an --oracle context
    for p in primes_in(5, 1999, (1, 4)) + [5009, 10009]:
        euler = np.array([brute.legendre(t, p) == 1 for t in range(p)], dtype=np.intp)
        delta = next(d for d in range(2, p) if brute.legendre(d, p) < 0)
        want = {a: brute.pair_tally(euler, a) for a in (1, delta)}
        for oracle in (False, True):
            is_r, anchors = _tally_inputs(build_context(p, counting_oracle=oracle))
            assert (is_r == euler).all() and anchors == (1, delta), (p, oracle)
            for a in anchors:
                assert (quadgraphs._pair_tally(is_r, a) == want[a]).all(), (p, a, oracle)


@pytest.mark.parametrize("cells", [7, 37])  # one row per block; several, the last short
def test_count_graph_classes_independent_of_tiling(monkeypatch, cells):
    # the tile oracle's tally does not depend on its block size
    monkeypatch.setattr(brute, "_TILE_CELLS", cells)
    for p in (5, 13, 17, 29, 37, 41, 101, 109):
        is_r, anchors = _tally_inputs(build_context(p))
        for a in anchors:
            assert (brute.pair_tally(is_r, a) == quadgraphs._pair_tally(is_r, a)).all(), (p, a)


def test_count_graph_classes_memory_bounded():
    ctx = build_context(5009)
    tracemalloc.start()
    try:
        count_graph_classes(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_count_graph_classes_memory_bounded_per_p():
    # the tracemalloc peak is 288 bytes per p at this prime, where the
    # transform length is 3.27p; the bound is 25 % above the 282 it first had
    p = 20021
    ctx = build_context(p)
    tracemalloc.start()
    try:
        count_graph_classes(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 353 * p, (peak, peak / p)


def test_count_graph_classes_refuses_primes_past_its_exactness_limit(monkeypatch):
    monkeypatch.setattr(quadgraphs, "_TALLY_MAX_P", 13)
    assert _class_values(build_context(5)) == brute.count_classes(5)
    with pytest.raises(ValueError, match="exact only for p < 13"):
        count_graph_classes(build_context(13))
    # refused before anything of the order of p is allocated
    ctx = build_context(5009)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            count_graph_classes(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak


def test_class_total_conservation():
    for p in primes_in(5, 101, (1, 4)):
        counts = count_graph_classes(build_context(p))
        assert sum(counts.values()) == (p - 1) * (p - 2) * (p - 3) // 24, p


def test_d_of_J():
    assert d_of_J(-6) == 1
    assert d_of_J(2) == 0
    assert d_of_J(-2) == 0
    assert d_of_J(10) == 3
    with pytest.raises(ArithmeticError, match=r"\(4\^2 - 4\) is not divisible by 32"):
        d_of_J(4)


def test_goncharova_K4_frozen_values():
    assert goncharova_K4(build_context(13)) == 0
    assert goncharova_K4(build_context(17)) == 0
    assert goncharova_K4(build_context(29)) == 7
    with pytest.raises(WrongResidueClass):
        goncharova_K4(build_context(19))


def test_goncharova_K4_matches_brute_force():
    for p in primes_in(5, 101, (1, 4)):
        ctx = build_context(p)
        formula = goncharova_K4(ctx)
        assert formula >= 0
        assert formula == count_graph_classes(ctx)[GraphClass.K4], p
