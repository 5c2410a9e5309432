"""Counting identities for quadratic residue patterns: residue words,
quadruple difference graphs, the curves and K3 surfaces whose point counts
realize them, and batch verification over prime ranges."""

from .errors import (
    EmptySample,
    NotOddPrime,
    PatternTooLong,
    ResidueLabError,
    SingularCurve,
    UnknownCurve,
    WrongResidueClass,
)
from .modarith import (
    FieldContext,
    GaussianInteger,
    build_context,
    cm_decompose,
    is_prime,
    primes_in,
)
from .patterns import (
    all_patterns,
    count_pattern,
    jacobsthal,
    pattern_census,
    pattern_counts_charsum,
    pattern_curve_count,
    residue_word,
)
from .quadgraphs import (
    GraphClass,
    count_graph_classes,
)
from .curves import (
    CountRecord,
    affine_count,
    curve_trace,
    edwards_affine,
    genus2_involution_check,
    named_curve_traces,
    quartic_rows,
)
from .k3 import (
    count_Mp,
    count_Np,
    count_S,
    count_Xprime,
)
from .stats import (
    TraceSample,
    collect_traces,
    ks_distance,
)
from .claims import VerificationRecord

__version__ = "0.1.0"
