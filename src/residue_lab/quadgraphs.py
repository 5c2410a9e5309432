"""Difference graphs of residue quadruples.

Four pairwise distinct residues mod p (p = 4k + 1, so the edge relation is
symmetric) span a graph: i and j are joined when a_i - a_j is a nonzero
square.  Quadruples are counted up to permutation and translation.  The
degree multiset is a complete isomorphism invariant on 4 vertices, so
classification is a table lookup.

`count_graph_classes` is the brute-force count over every quadruple
{0, a, b, c}, regrouped without changing its value (its docstring gives
the weights): scaling by a nonzero square fixes 0 and preserves every
edge, so only a = 1 and a non-residue a = delta are scanned, each over
all pairs (b, c) in row tiles of about _TILE_CELLS cells.  It reads the
residue indicator and the non-residue from `ctx.root_counts`, never chi,
J or a curve trace, so an `--oracle` context drives it down an
independent path and the closed form in `claims` stays an independent
check of its K4 count.
"""

from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import WrongResidueClass
from .modarith import FieldContext


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

# Cells of the (b, c) grid classified per block; bounds every temporary.
_TILE_CELLS = 1 << 14

# Added to the key of a cell outside the grid (b or c in {0, a}, or b = c);
# every valid edge key is below it.
_OFF_GRID = 32


def _edge_key_class(e: int, key: int) -> GraphClass:
    """Class of {0, a, b, c} from its edge 0-a (e) and its other five edges,
    packed as key = [0-c] + 2[a-c] + 4[0-b] + 8[a-b] + 16[b-c]."""
    c0, ca, b0, ba, bc = (key >> bit & 1 for bit in range(5))
    deg = (e + b0 + c0, e + ba + ca, b0 + ba + bc, c0 + ca + bc)
    return _DEGREE_CLASS[tuple(sorted(deg))]


# _EDGE_KEY_CLASS[e][key] = _edge_key_class(e, key) for every edge key
_EDGE_KEY_CLASS = [[_edge_key_class(e, key) for key in range(_OFF_GRID)] for e in (0, 1)]


def _pair_tally(is_r: np.ndarray, a: int) -> np.ndarray:
    """hist[key] = number of ordered pairs (b, c), b != c, both outside
    {0, a}, whose quadruple {0, a, b, c} has edge key `key`."""
    p = len(is_r)
    # edges 0-x and a-x; x = 0 and x = a are off the grid
    col = is_r + 2 * np.roll(is_r, a)
    col[[0, a]] = _OFF_GRID
    # row i of the window holds the edge b-c for b = p - i and c = 0 .. p-1:
    # bc[(c - b) % p] is entry i + c of bc doubled; c = b is off the grid
    bc = 16 * is_r
    bc[0] = _OFF_GRID
    window = sliding_window_view(np.concatenate((bc, bc)), p)[1:p]
    row = 4 * col[:0:-1]  # b = p - 1 .. 1, the window's row order
    step = max(1, _TILE_CELLS // p)
    buf = np.empty((min(step, p - 1), p), dtype=np.intp)
    hist = np.zeros(_OFF_GRID, dtype=np.int64)
    for i in range(0, p - 1, step):
        rows = row[i:i + step, None]
        keys = np.add(rows, col, out=buf[:len(rows)])
        keys += window[i:i + step]
        hist += np.bincount(keys.ravel(), minlength=_OFF_GRID)[:_OFF_GRID]
    return hist


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
    are scanned, rows of b in tiles of about _TILE_CELLS cells, and each
    class count is (p-1)/2 * (T(1) + T(delta)) / 24, weight (p-1)/48.  A
    weighted tally not divisible by 24 raises ArithmeticError.
    """
    if ctx.k is None:
        raise WrongResidueClass(f"p={ctx.p} is not 1 mod 4; edge relation not symmetric")
    p = ctx.p
    is_r = (ctx.root_counts == 2).astype(np.intp)
    delta = int(np.argmax(ctx.root_counts == 0))
    tally = dict.fromkeys(GraphClass, 0)
    for a in (1, delta):
        for cls, n in zip(_EDGE_KEY_CLASS[is_r[a]], _pair_tally(is_r, a).tolist()):
            tally[cls] += n
    out = {}
    for cls, n in tally.items():
        weighted = (p - 1) // 2 * n
        if weighted % 24:
            raise ArithmeticError(f"tally for {cls} not divisible by 24 at p={p}")
        out[cls] = weighted // 24
    return out
