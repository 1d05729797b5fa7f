"""Finite multiclass concept classes, partial or total.

The data model is deliberately small:

* labels are non-negative integers; the distinguished "undefined" mark is the
  module constant ``STAR`` (it equals itself and no defined label),
* a concept is a tuple of labels, one per domain index,
* a ConceptClass is an ordered, duplicate-free table of concepts over a fixed
  finite domain,
* a Sample is a canonicalized (sorted) multiset of (index, label) entries.

Everything is immutable after construction; all operations are pure and safe
for concurrent use on shared values.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

STAR: int = -1
"""Sentinel for an undefined label; never a valid defined label."""


class ClassKind(str, Enum):
    PARTIAL = "partial"
    TOTAL = "total"


def _check_label(value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"label must be an int, got {value!r}")
    if value < 0 and value != STAR:
        raise ValueError(f"defined labels must be non-negative, got {value}")
    return value


@dataclass(frozen=True)
class ConceptClass:
    """A finite table of concepts over the domain {0, ..., domain_size-1}.

    Concepts are stored in construction order (several generators rely on a
    stable enumeration order); duplicates are rejected.  A TOTAL class must
    not contain STAR anywhere.
    """

    domain_size: int
    concepts: tuple[tuple[int, ...], ...]
    kind: ClassKind

    def __post_init__(self) -> None:
        if self.domain_size < 0:
            raise ValueError("domain_size must be non-negative")
        kind = ClassKind(self.kind)
        concepts = tuple(
            tuple(_check_label(v) for v in concept) for concept in self.concepts
        )
        for concept in concepts:
            if len(concept) != self.domain_size:
                raise ValueError(
                    f"concept {concept} has length {len(concept)}, "
                    f"expected {self.domain_size}"
                )
            if kind is ClassKind.TOTAL and any(v == STAR for v in concept):
                raise ValueError(f"total class contains undefined entry: {concept}")
        if len(set(concepts)) != len(concepts):
            raise ValueError("duplicate concepts are not allowed")
        object.__setattr__(self, "concepts", concepts)
        object.__setattr__(self, "kind", kind)

    @property
    def n_concepts(self) -> int:
        return len(self.concepts)

    @property
    def is_total(self) -> bool:
        return self.kind is ClassKind.TOTAL

    def labels_used(self) -> tuple[int, ...]:
        """Distinct defined labels appearing anywhere in the table, sorted."""
        out = {v for concept in self.concepts for v in concept if v != STAR}
        return tuple(sorted(out))

    def support_indices(self) -> tuple[int, ...]:
        """Domain indices carrying at least one defined label."""
        out = {
            i
            for concept in self.concepts
            for i, v in enumerate(concept)
            if v != STAR
        }
        return tuple(sorted(out))

    def check_index(self, index: int) -> None:
        if not 0 <= index < self.domain_size:
            raise ValueError(
                f"domain index {index} out of range for domain of size "
                f"{self.domain_size}"
            )


@dataclass(frozen=True)
class Sample:
    """A multiset of (domain index, defined label) entries.

    Entries are canonicalized to sorted order at construction; all schemes
    and verifiers in this package are insensitive to entry order.  Duplicate
    indices with contradictory labels are representable but unrealizable by
    any class.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        entries = []
        for entry in self.entries:
            index, label = entry
            if not isinstance(index, int) or index < 0:
                raise ValueError(f"sample index must be a non-negative int: {entry}")
            _check_label(label)
            if label == STAR:
                raise ValueError("samples cannot carry undefined labels")
            entries.append((index, label))
        object.__setattr__(self, "entries", tuple(sorted(entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def content(self) -> tuple[tuple[int, int], ...]:
        """Distinct entries (the multiset collapsed to a set, sorted)."""
        return tuple(sorted(set(self.entries)))


@dataclass(frozen=True)
class PatternSet:
    """Distinct label vectors a class realizes on a fixed index sequence."""

    width: int
    patterns: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        patterns = frozenset(tuple(p) for p in self.patterns)
        for p in patterns:
            if len(p) != self.width:
                raise ValueError(f"pattern {p} does not match width {self.width}")
        object.__setattr__(self, "patterns", patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, pattern: tuple[int, ...]) -> bool:
        return tuple(pattern) in self.patterns


def _pattern_sort_key(pattern: Sequence[int]) -> tuple[tuple[int, int], ...]:
    # lexicographic with STAR ordered after every defined label
    return tuple((1, 0) if v == STAR else (0, v) for v in pattern)


def restrict(cls: ConceptClass, indices: Sequence[int]) -> PatternSet:
    """Distinct label vectors of the class on the given index sequence.

    Indices may repeat (the column repeats with them); STAR entries are
    preserved.
    """
    for i in indices:
        cls.check_index(i)
    patterns = {tuple(concept[i] for i in indices) for concept in cls.concepts}
    return PatternSet(width=len(tuple(indices)), patterns=frozenset(patterns))


def is_realizable(cls: ConceptClass, sample: Sample) -> bool:
    """True iff a single concept is defined and agrees on every entry."""
    for index, _ in sample.entries:
        cls.check_index(index)
    for concept in cls.concepts:
        if all(concept[i] == y for i, y in sample.entries):
            return True
    return False


def enumerate_realizable_samples(cls: ConceptClass, m: int) -> Iterator[Sample]:
    """Yield every realizable sample of size exactly m, in canonical order.

    Samples are multisets; one realizable by several concepts is yielded
    once.  The stream is finite and deterministic.
    """
    if m < 1:
        raise ValueError("sample size must be at least 1")
    seen: set[tuple[tuple[int, int], ...]] = set()
    for concept in cls.concepts:
        pairs = [(i, v) for i, v in enumerate(concept) if v != STAR]
        for combo in itertools.combinations_with_replacement(pairs, m):
            seen.add(combo)
    for entries in sorted(seen):
        yield Sample(entries)


def dual(cls: ConceptClass) -> ConceptClass:
    """Transpose the class: concepts become domain points and vice versa.

    Entry (j, i) of the dual equals entry (i, j) of the input; duplicate
    dual concepts (identical original columns) are dropped, keeping the
    first occurrence in domain order.
    """
    if cls.n_concepts == 0:
        raise ValueError("cannot dualize an empty class")
    columns = []
    seen = set()
    for j in range(cls.domain_size):
        col = tuple(concept[j] for concept in cls.concepts)
        if col not in seen:
            seen.add(col)
            columns.append(col)
    has_star = any(v == STAR for col in columns for v in col)
    return ConceptClass(
        domain_size=cls.n_concepts,
        concepts=tuple(columns),
        kind=ClassKind.PARTIAL if has_star else ClassKind.TOTAL,
    )


def union_disjoint(classes: Sequence[ConceptClass]) -> ConceptClass:
    """Concatenate domains; each concept is extended with STAR outside its
    own block, so supports of distinct blocks are disjoint by construction.

    The result is always PARTIAL.  Identical extended concepts (possible
    only for all-STAR concepts) collapse to one.
    """
    if not classes:
        raise ValueError("union_disjoint needs at least one class")
    for cls in classes:
        if cls.n_concepts == 0:
            raise ValueError("union_disjoint requires nonempty classes")
    offsets = []
    total = 0
    for cls in classes:
        offsets.append(total)
        total += cls.domain_size
    concepts: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for cls, offset in zip(classes, offsets):
        suffix = total - offset - cls.domain_size
        for concept in cls.concepts:
            extended = (STAR,) * offset + concept + (STAR,) * suffix
            if extended not in seen:
                seen.add(extended)
                concepts.append(extended)
    return ConceptClass(
        domain_size=total, concepts=tuple(concepts), kind=ClassKind.PARTIAL
    )


# --- JSON wire formats -----------------------------------------------------
#
# Class files:   {"domain_size": n, "kind": "partial"|"total",
#                 "concepts": [[0, "*", 2], ...]}   with "*" encoding STAR.
# Sample format: [[index, label], ...]
#
# Serialization canonicalizes: concepts sorted lexicographically with "*"
# ordered after all integers.  Parsing an emitted file and re-serializing it
# is byte-identical.

STAR_JSON = "*"


def _entry_to_json(value: int) -> int | str:
    return STAR_JSON if value == STAR else value


def _entry_from_json(value: object) -> int:
    if value == STAR_JSON:
        return STAR
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ValueError(f"invalid concept entry in class file: {value!r}")


def class_to_json(cls: ConceptClass) -> dict:
    ordered = sorted(cls.concepts, key=_pattern_sort_key)
    return {
        "domain_size": cls.domain_size,
        "kind": cls.kind.value,
        "concepts": [[_entry_to_json(v) for v in concept] for concept in ordered],
    }


def class_from_json(data: object) -> ConceptClass:
    if not isinstance(data, dict):
        raise ValueError("class file must be a JSON object")
    try:
        domain_size = data["domain_size"]
        kind = ClassKind(data["kind"])
        raw = data["concepts"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed class file: {exc}") from exc
    if not isinstance(raw, list):
        raise ValueError("concepts must be a JSON array")
    concepts = tuple(tuple(_entry_from_json(v) for v in row) for row in raw)
    return ConceptClass(domain_size=domain_size, concepts=concepts, kind=kind)


def dumps_class(cls: ConceptClass) -> str:
    return json.dumps(class_to_json(cls), indent=2) + "\n"


def loads_class(text: str) -> ConceptClass:
    return class_from_json(json.loads(text))


def sample_to_json(sample: Sample) -> list[list[int]]:
    return [[i, y] for i, y in sample.entries]


def sample_from_json(data: object) -> Sample:
    if not isinstance(data, list):
        raise ValueError("sample must be a JSON array of [index, label] pairs")
    entries = []
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"invalid sample entry: {item!r}")
        entries.append((item[0], item[1]))
    return Sample(tuple(entries))
