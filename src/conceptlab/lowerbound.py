"""Lower-bound pipeline on concrete graphs: any total class disambiguating
the partial class of a biclique partition properly colors the underlying
graph, so its size is at least the chromatic number; a compression scheme's
key space caps the size from above.  Composing the two yields per-instance
certificates: counting ceiling >= extracted disambiguation size >= chromatic
floor.  The chromatic floor is exact, from the list-coloring search that the
minimum-compression oracle also uses (``compression.class_coloring``).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

from conceptlab.compression import (
    CompressionScheme,
    class_coloring,
    counting_bound,
    extract_disambiguation,
    replay_scheme,
)
from conceptlab.constructions import (
    BicliquePartition,
    Graph,
    biclique_class,
    star_partition,
)
from conceptlab.core import STAR, ClassKind, ConceptClass
from conceptlab.errors import BudgetError, ContractViolationError

CHROMATIC_MAX_VERTICES = 12


@dataclasses.dataclass(frozen=True)
class Coloring:
    """A vertex-color assignment; proper iff no edge is monochromatic."""

    graph: Graph
    color_of: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.color_of) != self.graph.vertex_count:
            raise ValueError("one color per vertex required")
        object.__setattr__(self, "color_of", tuple(self.color_of))

    def n_colors(self) -> int:
        return len(set(self.color_of))

    def is_proper(self) -> bool:
        return all(self.color_of[u] != self.color_of[v] for u, v in self.graph.edges)


def extract_coloring(
    partition: BicliquePartition,
    disambiguation: ConceptClass,
    assignment: Mapping[int, int],
) -> Coloring:
    """Color each vertex by the label vector of its assigned disambiguating
    concept (identical vectors share a color id).

    ``assignment`` maps each vertex to a concept index that must agree with
    the vertex's partial concept wherever the latter is defined.  The
    returned coloring is asserted proper: adjacent vertices disagree on the
    part covering their edge, so their disambiguators must differ; a
    violation raises ContractViolationError naming the edge and part.
    """
    if disambiguation.kind is not ClassKind.TOTAL:
        raise ValueError("disambiguation must be a total class")
    if disambiguation.domain_size != partition.n_parts:
        raise ValueError(
            "disambiguation domain must be the partition's part-index domain"
        )
    partial = biclique_class(partition)
    vertex_count = partition.graph.vertex_count
    vectors = []
    for v in range(vertex_count):
        if v not in assignment:
            raise ValueError(f"assignment misses vertex {v}")
        idx = assignment[v]
        if not 0 <= idx < disambiguation.n_concepts:
            raise ValueError(f"assignment of vertex {v} is out of range: {idx}")
        concept = disambiguation.concepts[idx]
        source = partial.concepts[v]
        for i, value in enumerate(source):
            if value != STAR and concept[i] != value:
                raise ValueError(
                    f"concept {idx} does not disambiguate vertex {v}: differs "
                    f"at part {i}"
                )
        vectors.append(concept)
    distinct = sorted(set(vectors))
    ids = {vector: c for c, vector in enumerate(distinct)}
    coloring = Coloring(
        graph=partition.graph, color_of=tuple(ids[v] for v in vectors)
    )
    for u, v in sorted(partition.graph.edges):
        if coloring.color_of[u] == coloring.color_of[v]:
            part = partition.part_of_edge(u, v)
            raise ContractViolationError(
                f"edge ({u}, {v}) is monochromatic although its endpoints "
                f"must disagree on part {part}"
            )
    return coloring


def chromatic_number(graph: Graph) -> int:
    """Exact chromatic number (at most 12 vertices): the smallest c for
    which ``class_coloring`` colors the graph when every vertex lists the
    one class of c interchangeable colors, trying c = 0, 1, 2, ... in turn.
    """
    n = graph.vertex_count
    if n > CHROMATIC_MAX_VERTICES:
        raise BudgetError(
            f"exact chromatic search capped at {CHROMATIC_MAX_VERTICES} "
            f"vertices, got {n}"
        )
    conflicts = [0] * n
    for u, v in graph.edges:
        conflicts[u] |= 1 << v
        conflicts[v] |= 1 << u
    c = 0
    while class_coloring([[(0, 0, c)]] * n, [c], conflicts) is None:
        c += 1
    return c


def check_pipeline_size(t: int, k: int, bit_budget: int) -> None:
    """BudgetError when K_t has more than ``CHROMATIC_MAX_VERTICES``
    vertices, so that the exact chromatic floor is out of reach; raised
    before anything of size t is built.  Its ``report`` holds the pipeline
    fields known without the search (``_fields_before_search``)."""
    if t > CHROMATIC_MAX_VERTICES:
        raise BudgetError(
            f"exact chromatic search capped at {CHROMATIC_MAX_VERTICES} "
            f"vertices, got {t}",
            report=_fields_before_search(t, k, bit_budget),
        )


def _fields_before_search(t: int, k: int, bit_budget: int) -> dict:
    """The pipeline fields known before any search, ``chromatic_floor``
    None.  When the counting ceiling is past ``COUNTING_BIT_BUDGET``, a
    BudgetError whose ``report`` holds them, ``counting_ceiling`` None."""
    n = t - 1  # the star partition of K_t has t - 1 parts
    fields = dict(
        t=t, n_parts=n, k=k, bit_budget=bit_budget, chromatic_floor=None,
        counting_ceiling=None,
    )
    try:
        fields["counting_ceiling"] = counting_bound(n, 2, k, bit_budget)
    except BudgetError as exc:
        raise BudgetError(str(exc), report=fields) from None
    return fields


@dataclasses.dataclass(frozen=True)
class PipelineReport:
    """Certificate for one (t, k, bit_budget, scheme) pipeline run.

    ``feasible`` is the a-priori counting check (ceiling >= chromatic
    floor); when it fails, no valid scheme with that key space can exist and
    the remaining fields stay None.  ``ok`` means every applicable assertion
    held.
    """

    t: int
    n_parts: int
    k: int
    bit_budget: int
    chromatic_floor: int
    counting_ceiling: int
    feasible: bool
    scheme_valid: Optional[bool] = None
    disambiguation_size: Optional[int] = None
    size_ge_floor: Optional[bool] = None
    size_le_ceiling: Optional[bool] = None
    ok: bool = True

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def pipeline_certificate(
    t: int,
    scheme: CompressionScheme,
    k: int,
    bit_budget: int,
) -> PipelineReport:
    """Run the full chain on K_t with its star partition: verify the scheme
    on the partial class at every sample size up to the support size, all
    sizes from one walk (``replay_scheme``, whose last outcome decides),
    extract the disambiguation from the key space (subsamples of size <= k,
    bit strings of length <= bit_budget), and check

        chromatic number of K_t  <=  extracted size  <=  counting ceiling.

    Key spaces whose counting ceiling is below the chromatic floor are
    reported infeasible a priori and skip verification and extraction.  A
    scheme that fails verification, or breaks the contract
    (ContractViolationError), is reported invalid; any other exception it
    raises propagates.  As with one size at a time, the first size that is
    not valid decides, and no larger size is checked after it.

    Past ``CHROMATIC_MAX_VERTICES`` vertices ``check_pipeline_size`` raises
    BudgetError before anything is built.  A counting ceiling past
    ``COUNTING_BIT_BUDGET`` bits raises BudgetError before the search, its
    ``report`` holding the fields known then.  When extraction runs out of
    its key budget, the BudgetError's ``report`` holds every field known by
    then, with ``disambiguation_size`` and the checks that need it None.
    """
    check_pipeline_size(t, k, bit_budget)
    partition = star_partition(t)
    partial = biclique_class(partition)
    n = partition.n_parts
    ceiling = _fields_before_search(t, k, bit_budget)["counting_ceiling"]
    floor = chromatic_number(partition.graph)
    report = PipelineReport(
        t=t,
        n_parts=n,
        k=k,
        bit_budget=bit_budget,
        chromatic_floor=floor,
        counting_ceiling=ceiling,
        feasible=ceiling >= floor,
    )
    if not report.feasible:
        return report
    # every outcome before the last is a valid report, so the last decides
    last = replay_scheme(partial, scheme, 1, n)[-1]
    if isinstance(last, Exception) and not isinstance(last, ContractViolationError):
        raise last
    if isinstance(last, Exception) or last.valid is not True:
        return dataclasses.replace(report, scheme_valid=False, ok=False)
    report = dataclasses.replace(report, scheme_valid=True)
    try:
        size = extract_disambiguation(partial, scheme, k, bit_budget).n_concepts
    except BudgetError as exc:
        raise BudgetError(
            str(exc), report={**report.to_json(), "ok": None}
        ) from None
    return dataclasses.replace(
        report,
        disambiguation_size=size,
        size_ge_floor=size >= floor,
        size_le_ceiling=size <= ceiling,
        ok=floor <= size <= ceiling,
    )
