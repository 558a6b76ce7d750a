"""Degree-sequence lower bounds for induced linear, caterpillar, and star
forests, with certified constructors and an exact oracle."""

from .check import (
    CATERPILLAR_FOREST,
    LINEAR_FOREST,
    STAR_FOREST,
    ForestCertificate,
    ForestClass,
    certificate_from_text,
    certificate_to_text,
    verify_certificate,
)
from .construct import (
    ReductionStep,
    ReductionTrace,
    ab_construct,
    abc_construct,
    caterpillar_forest,
    cubic_partition,
    greedy_linear_forest,
    k_caterpillar_forest,
    star_forest,
)
from .errors import (
    BoundMiss,
    DegreeZero,
    EpsOutOfRange,
    ForestBoundError,
    InfeasibleDegree,
    InvalidSpec,
    MissingPartition,
    NotCubic,
    ParseError,
    RetryLimit,
    UnknownVertex,
)
from .exact import OracleResult, alpha_exact, alpha_exact_partitioned
from .generate import GenSpec, generate, gnp, parse_gen_spec, random_regular
from .graph import Graph, format_edge_list, parse_edge_list
from .harness import HarnessReport, run_suite
from .partition import Partition, format_partition, parse_partition_file
from .weights import (
    BoundSpec,
    ab_star_weight,
    abc_weight,
    epsilon_star,
    f_k,
    f_k_eps,
    f_lin,
    gain,
    graph_counts,
    parse_bound_spec,
    star_epsilon_opt,
    star_f_eps,
    total_weight,
)

__version__ = "0.1.0"
