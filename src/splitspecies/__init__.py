"""Exact enumeration, structure theory, and asymptotics of split graphs.

A split graph partitions into a clique and a stable set; a bicolored graph
carries an ordered green/red coloring with every edge bichromatic.  This
package provides:

* the structural classification of split graphs (balanced / ambiguous /
  k-canonical / s-canonical) via their swing vertices;
* invertible, relabeling-equivariant bijections between the classes;
* exhaustive enumeration oracles, labeled and unlabeled, for small sizes;
* exact generating-function chains and closed-form counters, cross-checked
  against each other and against the oracles;
* asymptotic ratio reports with exact inequality checks.

Everything is computed in exact integer (or rational) arithmetic, on the
standard library alone; the asymptotic report prints its irrational ratios
from integer brackets.  The coin flips of the seeded random suite are the
only floats.
"""

from .errors import (
    BrokenInvariant,
    ConventionMismatch,
    InternalError,
    IsolatedGreen,
    LabelClash,
    LengthMismatch,
    MalformedInput,
    MonochromeEdge,
    NonIntegralResult,
    NotAPartition,
    NotAUnit,
    NotSMax,
    NotSplit,
    OutOfRange,
    SelfLoop,
    SplitSpeciesError,
    TooLarge,
    TooSmall,
    WrongClass,
)
from .graphs import (
    BicoloredGraph,
    Graph,
    canonical_code,
    canonical_code_bicolored,
    complement,
    degree_sequence,
    is_split,
    make_bicolored,
    make_graph,
    relabel,
)
from .structure import (
    ColoredSplitGraph,
    KSPartition,
    SplitClass,
    SwingReport,
    all_colorings,
    canonical_partition,
    classify,
    clique_number,
    independence_number,
    k_max_partitions,
    ks_partitions,
    s_max_partitions,
    swing_report,
)
from .bijections import (
    EmbeddedColored,
    EmbeddedGraph,
    PointedSet,
    amb_compose,
    amb_decompose,
    bicolored_to_split,
    cuk_compose,
    cuk_decompose,
    split_to_bicolored,
    uk_compose,
    uk_decompose,
)
from .enumeration import (
    Census,
    ClassTag,
    class_census,
    count_labeled,
    count_unlabeled,
    enumerate_labeled,
)
from .series import (
    EGF,
    OGF,
    RationalSeries,
    SeriesName,
    derive_labeled_chain,
    derive_unlabeled_chain,
    named,
)
from .counting import (
    bicolored_labeled,
    split_labeled,
    split_labeled_bp,
    unbalanced_labeled,
)
from .asymptotics import (
    RatioReport,
    asymptotic_bicolored,
    check_b_ratio,
    check_b_ratio_unlabeled,
    ratio_report,
    theta,
    u_over_s_bound_violations,
    u_over_s_monotone_from,
)
from .checks import CrossCheckReport, cross_check

__version__ = "0.1.0"
