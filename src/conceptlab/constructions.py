"""Generators for the concrete classes and graphs used throughout.

* complete graphs with their star biclique partitions (t-1 stars cover K_t),
* the partial class attached to a biclique partition (one concept per
  vertex, one domain point per part),
* unique-label disambiguation of any partial class,
* the disjoint-label-pairs family (tiny primal DS dimension, dual DS
  dimension equal to the row count),
* the bounded-support maximum class (all vectors with at most d nonzero
  entries; its Natarajan dimension is d),
* a hand-sized worked pair showing graph-dimension blow-up under
  disambiguation.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from conceptlab.core import STAR, ClassKind, ConceptClass, check_table_size
from conceptlab.errors import BudgetError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices {0, ..., vertex_count-1}."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge {edge} out of range")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))


def complete_graph(t: int) -> Graph:
    if t < 1:
        raise ValueError("complete graph needs at least one vertex")
    edges = frozenset(
        (u, v) for u in range(t) for v in range(u + 1, t)
    )
    return Graph(vertex_count=t, edges=edges)


@dataclass(frozen=True)
class BicliquePartition:
    """An edge partition of a graph into complete bipartite pieces.

    Each part is a disjoint (left, right) vertex pair; the union of the
    left x right edge sets must cover every edge exactly once.  Verified at
    construction.
    """

    graph: Graph
    parts: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self) -> None:
        parts = tuple(
            (frozenset(left), frozenset(right)) for left, right in self.parts
        )
        covered: set[tuple[int, int]] = set()
        for p, (left, right) in enumerate(parts):
            if left & right:
                raise ValueError(f"part {p} has overlapping sides")
            for u in left | right:
                if not 0 <= u < self.graph.vertex_count:
                    raise ValueError(f"part {p} mentions unknown vertex {u}")
            for u in left:
                for v in right:
                    edge = (min(u, v), max(u, v))
                    if edge in covered:
                        raise ValueError(
                            f"edge {edge} covered twice (part {p})"
                        )
                    covered.add(edge)
        if covered != set(self.graph.edges):
            missing = sorted(set(self.graph.edges) - covered)
            extra = sorted(covered - set(self.graph.edges))
            raise ValueError(
                f"parts do not partition the edge set: missing {missing}, "
                f"extra {extra}"
            )
        object.__setattr__(self, "parts", parts)

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    def part_of_edge(self, u: int, v: int) -> int:
        """Index of the unique part covering edge (u, v)."""
        for p, (left, right) in enumerate(self.parts):
            if (u in left and v in right) or (v in left and u in right):
                return p
        raise ValueError(f"({u}, {v}) is not an edge of the partitioned graph")


def star_partition(t: int) -> BicliquePartition:
    """K_t partitioned into t-1 stars: part i joins vertex i to all later
    vertices.  Exactly covers the edge set; the minimum possible part count
    for a complete graph is t-1.

    BudgetError when its biclique class, t concepts over t-1 points, would
    exceed the table budget (``core.check_table_size``)."""
    if t < 2:
        raise ValueError("star partition needs t >= 2")
    check_table_size(t, t - 1)
    parts = tuple(
        (frozenset({i}), frozenset(range(i + 1, t))) for i in range(t - 1)
    )
    return BicliquePartition(graph=complete_graph(t), parts=parts)


def biclique_class(partition: BicliquePartition) -> ConceptClass:
    """One partial concept per vertex over one domain point per part:
    label 0 on parts where the vertex sits left, 1 where it sits right,
    undefined elsewhere."""
    concepts = []
    for v in range(partition.graph.vertex_count):
        row = []
        for left, right in partition.parts:
            if v in left:
                row.append(0)
            elif v in right:
                row.append(1)
            else:
                row.append(STAR)
        concepts.append(tuple(row))
    return ConceptClass(
        domain_size=partition.n_parts,
        concepts=tuple(concepts),
        kind=ClassKind.PARTIAL,
    )


def unique_label_disambiguation(cls: ConceptClass) -> ConceptClass:
    """Totalize a partial class by filling concept i's undefined entries
    with the fresh label max_label + i (1-based i), so concept 1 takes the
    first label unused by the class, concept 2 the next, and so on.

    The offset guarantees freshness for any input alphabet; each fresh
    label appears in exactly one output concept, which is what keeps the DS
    dimension from growing.  Every sample realizable by the input is
    realizable by the output.
    """
    if cls.kind is ClassKind.TOTAL:
        warnings.warn("class is already total; returned unchanged", stacklevel=2)
        return cls
    labels = cls.labels_used()
    base = max(labels) if labels else -1
    concepts = []
    for i, concept in enumerate(cls.concepts, start=1):
        fresh = base + i
        concepts.append(tuple(fresh if v == STAR else v for v in concept))
    return ConceptClass(
        domain_size=cls.domain_size,
        concepts=tuple(concepts),
        kind=ClassKind.TOTAL,
    )


def disjoint_pairs_family(rows: int) -> ConceptClass:
    """``rows`` total concepts over 2^rows points, where concept j uses its
    own private label pair {2j-1, 2j} and the points run through every
    subset of rows.

    Since no two concepts ever share a label, no pair of points is
    DS-shattered; the transpose, by contrast, realizes a full product cube
    and DS-shatters all ``rows`` transposed points.
    """
    if rows < 1:
        raise ValueError("rows must be at least 1")
    if rows > 10:
        raise BudgetError(f"rows={rows} would create 2^{rows} domain points")
    n_points = 1 << rows
    concepts = []
    for j in range(1, rows + 1):
        row = tuple(
            2 * j - 1 + ((point >> (rows - j)) & 1) for point in range(n_points)
        )
        concepts.append(row)
    return ConceptClass(
        domain_size=n_points, concepts=tuple(concepts), kind=ClassKind.TOTAL
    )


def haussler_long_class(
    domain_size: int, n_labels: int, max_nonzero: int
) -> ConceptClass:
    """All total concepts over ``domain_size`` points with labels below
    ``n_labels`` and at most ``max_nonzero`` nonzero entries.

    The class has sum_{i<=max_nonzero} C(domain_size, i) * (n_labels-1)^i
    concepts and Natarajan dimension exactly ``max_nonzero``.  The sum is
    checked against the table budget (``core.check_table_size``) term by
    term, before any concept is built.
    """
    if not 1 <= max_nonzero <= domain_size:
        raise ValueError("need 1 <= max_nonzero <= domain_size")
    if n_labels < 2:
        raise ValueError("need at least two labels")
    n_concepts = 0
    for size in range(max_nonzero + 1):
        n_concepts += math.comb(domain_size, size) * (n_labels - 1) ** size
        check_table_size(n_concepts, domain_size)
    concepts = []
    for size in range(max_nonzero + 1):
        for positions in itertools.combinations(range(domain_size), size):
            for values in itertools.product(range(1, n_labels), repeat=size):
                row = [0] * domain_size
                for pos, val in zip(positions, values):
                    row[pos] = val
                concepts.append(tuple(row))
    return ConceptClass(
        domain_size=domain_size, concepts=tuple(concepts), kind=ClassKind.TOTAL
    )


def graph_dim_blowup_example() -> tuple[ConceptClass, ConceptClass]:
    """A worked 8-concept pair over 3 points: a partial class whose DS
    dimension is 0, and a fresh-label disambiguation of it whose graph
    dimension is 3 (anchored at the all-zeros concept)."""
    partial = ConceptClass(
        domain_size=3,
        concepts=(
            (0, 0, 0),
            (STAR, 0, 0),
            (0, STAR, 0),
            (0, 0, STAR),
            (STAR, STAR, 0),
            (STAR, 0, STAR),
            (0, STAR, STAR),
            (STAR, STAR, STAR),
        ),
        kind=ClassKind.PARTIAL,
    )
    total = ConceptClass(
        domain_size=3,
        concepts=(
            (0, 0, 0),
            (3, 0, 0),
            (0, 7, 0),
            (0, 0, 11),
            (20, 20, 0),
            (39, 0, 39),
            (0, 53, 53),
            (100, 100, 100),
        ),
        kind=ClassKind.TOTAL,
    )
    return partial, total
