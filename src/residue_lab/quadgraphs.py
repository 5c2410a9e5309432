"""Difference graphs of residue quadruples.

Four pairwise distinct residues mod p (p = 4k + 1, so the edge relation is
symmetric) span a graph: i and j are joined when a_i - a_j is a nonzero
square.  Quadruples are counted up to permutation and translation.  The
degree multiset is a complete isomorphism invariant on 4 vertices, so
classification is a table lookup.

`count_graph_classes` is the brute-force count over every quadruple
{0, a, b, c}, regrouped without changing its value (its docstring gives
the weights): scaling by a nonzero square fixes 0 and preserves every
edge, so only a = 1 and a non-residue a = delta are tallied, each over
all pairs (b, c).  The pairs are grouped by their edges to 0 and to a,
and the b-c edges between two groups are counted by an exact cyclic
convolution with the residue indicator, `modarith.cyclic_convolution`, in
O(p log p) (see `_pair_tally`).
It reads the residue indicator and the non-residue from
`ctx.root_counts`, never chi, J or a curve trace, so an `--oracle`
context drives it down an independent path and the closed form in
`claims` stays an independent check of its K4 count.
"""

from enum import Enum

import numpy as np

from .errors import WrongResidueClass
from .modarith import FieldContext, cyclic_convolution


class GraphClass(Enum):
    EMPTY = "Empty"
    ONE_EDGE = "OneEdge"
    TWO_DISJOINT_EDGES = "TwoDisjointEdges"
    PATH_P3 = "PathP3"
    TRIANGLE_PLUS_VERTEX = "TrianglePlusVertex"
    PATH_P4 = "PathP4"
    STAR_K13 = "StarK13"
    CYCLE_C4 = "CycleC4"
    PAW = "Paw"
    DIAMOND = "Diamond"
    K4 = "K4"


# Sorted degree multiset of each isomorphism class; all eleven are distinct,
# so the multiset alone is a canonical key (the tests verify this against a
# brute-force isomorphism check over all 64 labeled graphs).
DEGREE_KEY = {
    GraphClass.EMPTY: (0, 0, 0, 0),
    GraphClass.ONE_EDGE: (0, 0, 1, 1),
    GraphClass.TWO_DISJOINT_EDGES: (1, 1, 1, 1),
    GraphClass.PATH_P3: (0, 1, 1, 2),
    GraphClass.TRIANGLE_PLUS_VERTEX: (0, 2, 2, 2),
    GraphClass.PATH_P4: (1, 1, 2, 2),
    GraphClass.STAR_K13: (1, 1, 1, 3),
    GraphClass.CYCLE_C4: (2, 2, 2, 2),
    GraphClass.PAW: (1, 2, 2, 3),
    GraphClass.DIAMOND: (2, 2, 3, 3),
    GraphClass.K4: (3, 3, 3, 3),
}

# The class of each sorted degree multiset: the inverse of DEGREE_KEY.
_DEGREE_CLASS = {key: cls for cls, key in DEGREE_KEY.items()}

# count_graph_classes refuses p at or above this: see _pair_tally.
_TALLY_MAX_P = 1 << 31

# Row k of _pair_tally's mask stack is the mask of column code k.
_CODES = np.arange(4)[:, None]
_EYE = np.eye(4, dtype=np.int64)


def _edge_key_class(e: int, key: int) -> GraphClass:
    """Class of {0, a, b, c} from its edge 0-a (e) and its other five edges,
    packed as key = [0-c] + 2[a-c] + 4[0-b] + 8[a-b] + 16[b-c]."""
    c0, ca, b0, ba, bc = (key >> bit & 1 for bit in range(5))
    deg = (e + b0 + c0, e + ba + ca, b0 + ba + bc, c0 + ca + bc)
    return _DEGREE_CLASS[tuple(sorted(deg))]


# _EDGE_KEY_CLASS[e][key, k] = 1 when _edge_key_class(e, key) is the k-th
# GraphClass, for each of the 32 edge keys: a key tally times it is a class tally
_CLASSES = list(GraphClass)
_EDGE_KEY_CLASS = np.eye(len(_CLASSES), dtype=np.int64)[
    [[_CLASSES.index(_edge_key_class(e, key)) for key in range(32)] for e in (0, 1)]]


def _pair_tally(is_r: np.ndarray, a: int) -> np.ndarray:
    """hist[key] = number of ordered pairs (b, c), b != c, both outside
    {0, a}, whose quadruple {0, a, b, c} has edge key `key`.

    F_k masks the x outside {0, a} with col(x) = [0-x] + 2[a-x] = k, so a
    pair in F_i x F_j has key 4i + j + 16[b-c].  Of those pairs
    E_ij = sum_b F_i(b) (F_j * r)(b) are joined, for the residue indicator
    r (r(0) = 0 drops b = c) and * the cyclic convolution mod p, and
    N_ij = |F_i| (|F_j| - [i = j]) - E_ij are not.  The four F_j * r come
    from `cyclic_convolution`.

    Exactness.  Each entry of F_j * r is an integer below p, and the int64
    tallies, at most p^2, are exact for p < 2^31, the limit the caller
    enforces.  Below it |F_j| |r| <= p, with |F_j| and |r| at most sqrt p,
    far within the rounding bound of `cyclic_convolution`.

    Memory.  The transform holds four rows of n reals and five half
    spectra of n/2 + 1 complex numbers, 72n bytes with n < 4p: the
    tracemalloc peak was 288 bytes per p at p = 20021 (n = 3.27p) and 340
    at 16417 (n = 3.99p).
    """
    p = len(is_r)
    col = is_r + 2 * np.concatenate((is_r[-a:], is_r[:-a]))  # r(x) + 2 r(x - a)
    col[[0, a]] = 4  # x = 0 and x = a are in no mask
    masks = np.equal(_CODES, col)
    edges = masks.astype(np.int64) @ cyclic_convolution(masks, is_r).T
    sizes = np.bincount(col, minlength=5)[:4]  # |F_k|
    pairs = sizes[:, None] * (sizes - _EYE) - edges
    return np.concatenate((pairs.ravel(), edges.ravel()))


def count_graph_classes(ctx: FieldContext) -> dict[GraphClass, int]:
    """n_p for each of the 11 classes, counting quadruples up to
    permutation and translation.

    Each class of quadruples holds four subsets {0, a, b, c}, each giving
    six ordered triples (a, b, c) of distinct nonzero residues, so a class
    tally over those triples, each classified by its own six edges, is 24
    times the class count.  For a nonzero square s, x -> s*x fixes 0 and
    maps the graph to itself (chi(s(x - y)) = chi(x - y)), so the tally
    T(a) over the pairs (b, c) is the same for every a in an orbit: the
    (p-1)/2 squares or the (p-1)/2 non-squares.  Only a = 1 and a = delta
    are tallied, each by `_pair_tally` in O(p log p), and each class count
    is (p-1)/2 * (T(1) + T(delta)) / 24, weight (p-1)/48.  A weighted tally
    not divisible by 24, or a transform off an integer, raises
    ArithmeticError; p >= 2^31, past the tally's exactness limit, raises
    ValueError before anything is allocated.
    """
    if ctx.k is None:
        raise WrongResidueClass(f"p={ctx.p} is not 1 mod 4; edge relation not symmetric")
    p = ctx.p
    if p >= _TALLY_MAX_P:
        raise ValueError(f"count_graph_classes is exact only for p < {_TALLY_MAX_P}, got p={p}")
    is_r = (ctx.root_counts == 2).astype(np.intp)
    delta = int(np.argmax(ctx.root_counts == 0))
    # int64 is exact: the (p-2)(p-3) pairs of each a are below 2^62
    tally = sum(_pair_tally(is_r, a) @ _EDGE_KEY_CLASS[is_r[a]] for a in (1, delta))
    out = {}
    for cls, n in zip(_CLASSES, tally.tolist()):
        weighted = (p - 1) // 2 * n
        if weighted % 24:
            raise ArithmeticError(f"tally for {cls} not divisible by 24 at p={p}")
        out[cls] = weighted // 24
    return out
