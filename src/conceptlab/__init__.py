"""conceptlab: exact combinatorics for finite multiclass concept classes.

Computes shattering dimensions (VC, DS, Natarajan, graph) with replayable
witnesses, generates the standard hard families, verifies sample compression
schemes exhaustively, extracts disambiguations from key spaces, and ties
them to chromatic-number certificates on complete graphs.
"""

__version__ = "0.1.0"

# The DS kernels have one pure-Python build; the benchmark still records this.
KERNEL_BACKEND = "pure"
