"""Seeded random class generators for oracle-equivalence and property
sweeps.  All draws come from a caller-supplied ``random.Random`` so runs are
reproducible bit for bit."""

from __future__ import annotations

import random

from conceptlab.core import STAR, ClassKind, ConceptClass, check_table_size


def random_total_class(
    rng: random.Random, domain_size: int, n_concepts: int, n_labels: int
) -> ConceptClass:
    """A total class with up to ``n_concepts`` distinct random concepts;
    BudgetError past the table budget (``core.check_table_size``)."""
    if domain_size < 1 or n_concepts < 1 or n_labels < 1:
        raise ValueError("domain_size, n_concepts and n_labels must be positive")
    check_table_size(n_concepts, domain_size)
    seen = set()
    attempts = 0
    while len(seen) < n_concepts and attempts < 50 * n_concepts:
        attempts += 1
        seen.add(
            tuple(rng.randrange(n_labels) for _ in range(domain_size))
        )
    return ConceptClass(
        domain_size=domain_size, concepts=tuple(sorted(seen)), kind=ClassKind.TOTAL
    )


def random_partial_class(
    rng: random.Random,
    domain_size: int,
    n_concepts: int,
    n_labels: int,
    star_probability: float = 0.3,
) -> ConceptClass:
    """A partial class; each entry is undefined with ``star_probability``.
    BudgetError past the table budget (``core.check_table_size``)."""
    if domain_size < 1 or n_concepts < 1 or n_labels < 1:
        raise ValueError("domain_size, n_concepts and n_labels must be positive")
    check_table_size(n_concepts, domain_size)
    seen = set()
    attempts = 0
    while len(seen) < n_concepts and attempts < 50 * n_concepts:
        attempts += 1
        concept = tuple(
            STAR if rng.random() < star_probability else rng.randrange(n_labels)
            for _ in range(domain_size)
        )
        seen.add(concept)
    return ConceptClass(
        domain_size=domain_size, concepts=tuple(sorted(seen)), kind=ClassKind.PARTIAL
    )
