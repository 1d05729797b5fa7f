"""Seeded random class generators for oracle-equivalence and property
sweeps.  All draws come from a caller-supplied ``random.Random`` so runs are
reproducible bit for bit."""

from __future__ import annotations

import functools
import random
from typing import Callable

from conceptlab.core import STAR, ClassKind, ConceptClass, check_table_size


def _random_class(
    domain_size: int,
    n_concepts: int,
    n_labels: int,
    kind: ClassKind,
    draw: Callable[[], int],
) -> ConceptClass:
    """Up to ``n_concepts`` distinct concepts, one ``draw()`` per entry, from
    at most 50 * n_concepts tries; BudgetError past the table budget
    (``core.check_table_size``)."""
    if domain_size < 1 or n_concepts < 1 or n_labels < 1:
        raise ValueError("domain_size, n_concepts and n_labels must be positive")
    check_table_size(n_concepts, domain_size)
    seen = set()
    for _ in range(50 * n_concepts):
        if len(seen) == n_concepts:
            break
        seen.add(tuple(draw() for _ in range(domain_size)))
    return ConceptClass(
        domain_size=domain_size, concepts=tuple(sorted(seen)), kind=kind
    )


def random_total_class(
    rng: random.Random, domain_size: int, n_concepts: int, n_labels: int
) -> ConceptClass:
    """A total class with up to ``n_concepts`` distinct random concepts;
    BudgetError past the table budget (``core.check_table_size``)."""
    draw = functools.partial(rng.randrange, n_labels)
    return _random_class(domain_size, n_concepts, n_labels, ClassKind.TOTAL, draw)


def random_partial_class(
    rng: random.Random,
    domain_size: int,
    n_concepts: int,
    n_labels: int,
    star_probability: float = 0.3,
) -> ConceptClass:
    """A partial class; each entry is undefined with ``star_probability``,
    which must lie in [0, 1] (ValueError otherwise, NaN included).
    BudgetError past the table budget (``core.check_table_size``)."""
    if not 0 <= star_probability <= 1:
        raise ValueError(f"star probability must be in [0, 1], got {star_probability}")

    def draw() -> int:
        return STAR if rng.random() < star_probability else rng.randrange(n_labels)

    return _random_class(domain_size, n_concepts, n_labels, ClassKind.PARTIAL, draw)
