"""conceptlab: exact combinatorics for finite multiclass concept classes.

Computes shattering dimensions (VC, DS, Natarajan, graph) with replayable
witnesses, generates the standard hard families, verifies sample compression
schemes exhaustively, extracts disambiguations from key spaces, and ties
them to chromatic-number certificates on complete graphs.
"""

from conceptlab.core import (
    STAR,
    ClassKind,
    ConceptClass,
    Sample,
    dual,
    dumps_class,
    enumerate_realizable_samples,
    loads_class,
    union_disjoint,
)
from conceptlab.dimensions import (
    DimensionResult,
    ShatterKind,
    ShatterWitness,
    dimension,
    ds_shatters,
    ds_shatters_bruteforce,
    g_shatters,
    n_shatters,
    vc_shatters,
)
from conceptlab.constructions import (
    BicliquePartition,
    Graph,
    biclique_class,
    complete_graph,
    disjoint_pairs_family,
    graph_dim_blowup_example,
    haussler_long_class,
    star_partition,
    unique_label_disambiguation,
)
from conceptlab.compression import (
    CompressionKey,
    CompressionScheme,
    SchemeReport,
    TableScheme,
    boosted_scheme,
    counting_bound,
    extract_disambiguation,
    min_compression_certificate,
    star_biclique_scheme,
    to_binary_class,
    verify_scheme,
)
from conceptlab.lowerbound import (
    Coloring,
    PipelineReport,
    chromatic_number,
    extract_coloring,
    pipeline_certificate,
)

__version__ = "0.1.0"

# The DS kernels have one pure-Python build; the benchmark still records this.
KERNEL_BACKEND = "pure"
