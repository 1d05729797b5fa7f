"""Compositions of package calls that the tests use and the package does
not.  Unlike ``oracles``, these reuse the package: each is a shorthand for
a few package calls, not an independent reference.  ``list_coloring`` also
calls the private ``compression._color_classes``, the layout that key
search gives ``class_coloring``."""

from typing import Optional, Sequence

from conceptlab.compression import (
    _color_classes,
    class_coloring,
    min_compression_certificate,
    verify_scheme,
)
from conceptlab.core import ConceptClass, Sample, dual
from conceptlab.dimensions import ShatterKind, dimension
from conceptlab.errors import ContractViolationError


def is_realizable(cls: ConceptClass, sample: Sample) -> bool:
    """True iff a single concept is defined and agrees on every entry; the
    sample's points are checked first."""
    for index, _ in sample.entries:
        cls.check_index(index)
    return cls.agreeing(sample.entries) != 0


def restrict(
    cls: ConceptClass, indices: Sequence[int]
) -> frozenset[tuple[int, ...]]:
    """Distinct label vectors of the class on the given index sequence, its
    indices checked first.  Indices may repeat (the column repeats with
    them); STAR entries are preserved."""
    indices = tuple(indices)
    for i in indices:
        cls.check_index(i)
    return frozenset(cls.project(indices))


def dual_dimension(cls: ConceptClass, kind: ShatterKind) -> int:
    """Dimension of the transposed class."""
    return dimension(dual(cls), kind).value


def min_compression_size(cls: ConceptClass, m: int, bit_budget: int) -> int:
    """The least k of ``min_compression_certificate``, after its table
    replays through ``verify_scheme``."""
    k, table = min_compression_certificate(cls, m, bit_budget)
    report = verify_scheme(cls, table.as_scheme("min-compression"), m)
    if report.valid is not True:
        raise ContractViolationError(
            f"certificate at k={k} failed replay: {report.failures[:3]}"
        )
    return k


def list_coloring(
    lists: Sequence[Sequence[int]],
    conflicts: Sequence[int],
    *,
    node_budget: Optional[int] = None,
) -> Optional[list[int]]:
    """``class_coloring`` on lists of color ids: vertex v may take the
    colors ``lists[v]``, distinct non-negative ints in ascending order.
    Colors listed by exactly the same vertices form a class, ranked by id;
    each color of a list becomes a one-color run, and the coloring found
    is given back in ids."""
    holders: dict[int, list[int]] = {}
    for v, colors in enumerate(lists):
        for c in colors:
            holders.setdefault(c, []).append(v)
    classes, runs, capacity = _color_classes(holders, 1, len(lists))
    found = class_coloring(runs, capacity, conflicts, node_budget=node_budget)
    return None if found is None else [classes[cl][r] for cl, r in found]
