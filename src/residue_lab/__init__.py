"""Counting identities for quadratic residue patterns: residue words,
quadruple difference graphs, the curves and K3 surfaces whose point counts
realize them, and batch verification over prime ranges."""

from .errors import (
    DuplicateResidues,
    EmptySample,
    NotIntegral,
    NotOddPrime,
    OutOfDomain,
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
    legendre,
    primes_in,
    sqrt_count,
)
from .patterns import (
    IndexSet,
    PatternWord,
    all_patterns,
    char_sum,
    count_pattern,
    count_pattern_charsum,
    jacobsthal,
    pattern_census,
    pattern_counts_charsum,
    pattern_curve_count,
    pattern_curve_genus,
    residue_word,
    weil_bound_ok,
    weil_deviation,
)
from .quadgraphs import (
    GraphClass,
    classify_quadruple,
    count_graph_classes,
    d_of_J,
    goncharova_K4,
)
from .curves import (
    CountRecord,
    HyperellipticSpec,
    affine_count,
    edwards_affine,
    fiber_pattern_counts,
    genus2_involution_check,
    named_curve_traces,
    quartic_row,
    quartic_rows,
    verify_J_relations,
    verify_gauss_edwards,
    weierstrass_trace,
)
from .k3 import (
    count_Mp,
    count_Np,
    count_S,
    count_Xprime,
    verify_fibration,
    verify_formula2,
    verify_identity5,
    verify_lemma_bookkeeping,
)
from .stats import (
    DistributionReport,
    TraceSample,
    collect_traces,
    ks_distance,
    semicircle_cdf,
    st_report,
)
from .records import RunManifest, VerificationRecord

__version__ = "0.1.0"
