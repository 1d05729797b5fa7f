"""Finite multiclass concept classes, partial or total.

The data model is deliberately small:

* labels are non-negative integers; the distinguished "undefined" mark is the
  module constant ``STAR`` (it equals itself and no defined label),
* a concept is a tuple of labels, one per domain index,
* a ConceptClass is an ordered, duplicate-free table of concepts over a fixed
  finite domain,
* a Sample is a canonicalized (sorted) multiset of (index, label) entries,
* ``ConceptClass.holders`` maps each defined (point, label) pair to the int
  bitset of the concepts holding it; every consistency question reads it.

Everything is immutable after construction; all operations are pure and safe
for concurrent use on shared values.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from conceptlab.errors import BudgetError

STAR: int = -1
"""Sentinel for an undefined label; never a valid defined label."""

TABLE_ENTRY_BUDGET = 1_000_000
"""Most table entries (concepts times domain points) a generator builds."""

SAMPLE_SIZE_BUDGET = 1_000_000
"""Most entries in a sample ``walk_realizable_samples`` builds."""


class ClassKind(str, Enum):
    PARTIAL = "partial"
    TOTAL = "total"


def is_nonnegative_int(value: object) -> bool:
    """True for an int that is not a bool and is at least 0."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_table_size(n_concepts: int, domain_size: int) -> None:
    """BudgetError when ``n_concepts`` concepts over ``domain_size`` points
    exceed ``TABLE_ENTRY_BUDGET`` table entries.  Generators call it before
    they build anything."""
    if n_concepts * domain_size > TABLE_ENTRY_BUDGET:
        raise BudgetError(
            f"{n_concepts} concepts over {domain_size} points exceed the "
            f"table budget of {TABLE_ENTRY_BUDGET} entries"
        )


def label_bits(columns: Iterable[Sequence[int]]) -> list[dict[int, int]]:
    """``by[i][y]``: the int bitset of the rows carrying label y in column i
    (bit r for row r)."""
    by = []
    for column in columns:
        bits: dict[int, int] = {}
        for r, label in enumerate(column):
            bits[label] = bits.get(label, 0) | (1 << r)
        by.append(bits)
    return by


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

    @functools.cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The table by domain point: ``columns[i][c]`` is concept c's
        label at point i.  Computed on first use and kept on the instance;
        not a field, so equality, hashing and the wire format ignore it."""
        if not self.concepts:
            return ((),) * self.domain_size
        return tuple(zip(*self.concepts))

    def project(self, indices: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Each concept's labels on the index sequence, in concept order,
        read from ``columns``.  The indices are not checked."""
        if not indices:
            return iter(((),) * len(self.concepts))
        return zip(*map(self.columns.__getitem__, indices))

    @functools.cached_property
    def holders(self) -> dict[tuple[int, int], int]:
        """``holders[i, y]``: the int bitset of the concepts (bit c for
        ``concepts[c]``) labelled y at point i, defined labels only.  Kept
        like ``columns``."""
        return {
            (i, y): bits
            for i, by in enumerate(label_bits(self.columns))
            for y, bits in by.items()
            if y != STAR
        }

    def agreeing(self, entries: Iterable[tuple[int, int]]) -> int:
        """The int bitset of the concepts agreeing with every (point, label)
        entry.  The points are not checked."""
        live = (1 << len(self.concepts)) - 1
        holders = self.holders
        for entry in entries:
            live &= holders.get(entry, 0)
        return live

    def labels_used(self) -> tuple[int, ...]:
        """Distinct defined labels appearing anywhere in the table, sorted."""
        return tuple(sorted({y for _, y in self.holders}))

    def support_indices(self) -> tuple[int, ...]:
        """Domain indices carrying at least one defined label."""
        return tuple(sorted({i for i, _ in self.holders}))

    def check_index(self, index: int) -> None:
        if not isinstance(index, int) or isinstance(index, bool):
            raise ValueError(f"domain index must be an int, got {index!r}")
        if not 0 <= index < self.domain_size:
            raise ValueError(
                f"domain index {index} out of range for domain of size "
                f"{self.domain_size}"
            )


@dataclass(frozen=True, slots=True)
class Sample:
    """A multiset of (domain index, defined label) entries.

    Entries are canonicalized to sorted order at construction; all schemes
    and verifiers in this package are insensitive to entry order.  Duplicate
    indices with contradictory labels are representable but unrealizable by
    any class.  The one field is a slot, so a sample holds no ``__dict__``.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        entries = []
        for entry in self.entries:
            index, label = entry
            if not is_nonnegative_int(index):
                raise ValueError(f"sample index must be a non-negative int: {entry}")
            _check_label(label)
            if label == STAR:
                raise ValueError("samples cannot carry undefined labels")
            entries.append((index, label))
        object.__setattr__(self, "entries", tuple(sorted(entries)))

    @classmethod
    def _canonical(cls, entries: tuple[tuple[int, int], ...]) -> "Sample":
        """Trusted construction from entries that are already canonical:
        sorted (index, defined label) pairs with non-negative ints.  Skips
        the checks and the sort; public construction keeps both."""
        sample = object.__new__(cls)
        cls.entries.__set__(sample, entries)
        return sample

    def __len__(self) -> int:
        return len(self.entries)


def _pattern_sort_key(pattern: Sequence[int]) -> tuple[tuple[int, int], ...]:
    # lexicographic with STAR ordered after every defined label
    return tuple((1, 0) if v == STAR else (0, v) for v in pattern)


def walk_realizable_samples(
    cls: ConceptClass, low: int, high: int
) -> Iterator[tuple[Sample, int]]:
    """Yield ``(sample, ranks)`` for every realizable sample whose size lies
    in [low, high], where ``ranks`` is the int bitset of the positions, in
    ``sorted(cls.holders)``, of the sample's distinct entries.

    The walk is a pre-order depth-first search over those sorted pairs: it
    picks pair indices in nondecreasing order, ANDs the bitsets of the
    concepts holding each pair, and drops a prefix as soon as no concept is
    left.  A sample comes right after the prefix it extends, so the samples
    of any one size come in canonical order (ascending sorted entry tuples),
    each multiset once.  Beyond that index the walk's state grows with the
    depth it has reached, not with ``high``: the pairs picked so far are
    one list, cut back on backtrack, the per-depth state is grown when a
    depth is first reached, and a sample's tuple is built only when it is
    yielded.  The walk is empty when high < low, and ValueError when
    low < 1.

    No sample of more than ``SAMPLE_SIZE_BUDGET`` entries is built.  Where
    the walk would first go deeper than that, it stops descending: it
    yields the rest of the samples of the sizes within the budget, then
    raises BudgetError.  The check runs only when a depth is first
    reached, so no sample pays for it, and a class that realizes no
    sample past the budget never trips it.
    """
    if low < 1:
        raise ValueError("sample size must be at least 1")
    if high < low:
        return
    holders = cls.holders
    pairs = sorted(holders)
    masks = [holders[p] for p in pairs]
    tails = [(p,) for p in pairs]
    bits = [1 << r for r in range(len(pairs))]
    n = len(pairs)
    alloc = object.__new__
    put = Sample.entries.__set__  # ``Sample._canonical``, inlined
    prefix: list[tuple[int, int]] = []  # the pair picked at each depth above
    below = [0]  # the prefix's ranks per depth
    alive = [(1 << cls.n_concepts) - 1]  # the concepts left per depth
    start = [0]  # next pair index to try at each depth
    last = high - 1
    depth = reached = 0  # the current and the deepest depth so far
    while depth >= 0:
        del prefix[depth:]
        j = start[depth]
        live = alive[depth]
        ranks = below[depth]
        if depth == last:
            # the last entry: every pair some live concept holds completes one
            head = tuple(prefix)
            for k in range(j, n):
                if live & masks[k]:
                    sample = alloc(Sample)
                    put(sample, head + tails[k])
                    yield sample, ranks | bits[k]
            depth -= 1
            continue
        while j < n and not live & masks[j]:
            j += 1
        if j == n:
            depth -= 1
            continue
        start[depth] = j + 1
        prefix.append(pairs[j])
        ranks |= bits[j]
        if depth >= low - 1:
            sample = alloc(Sample)
            put(sample, tuple(prefix))
            yield sample, ranks
        depth += 1
        if depth > reached:  # the walk first reaches this depth
            if depth == SAMPLE_SIZE_BUDGET:
                # its samples would pass the budget: the depth above becomes
                # the last, so that its remaining samples still come out
                last = depth = depth - 1
                if depth < low - 1:  # no size within the budget is asked for
                    break
                continue
            reached = depth
            below.append(0)
            alive.append(0)
            start.append(0)
        below[depth] = ranks
        alive[depth] = live & masks[j]
        start[depth] = j
    if last < high - 1:
        raise BudgetError(f"sample size budget {SAMPLE_SIZE_BUDGET} exhausted")


def enumerate_realizable_samples(cls: ConceptClass, m: int) -> Iterator[Sample]:
    """Yield every realizable sample of size exactly m, in canonical order:
    the samples of ``walk_realizable_samples(cls, m, m)``.

    Samples are multisets; one realizable by several concepts is yielded
    once.  The order is ascending lexicographic order of the sorted entry
    tuples.  The stream is finite, deterministic and lazy, and holds O(m)
    state beyond the class's pair index.
    """
    for sample, _ in walk_realizable_samples(cls, m, m):
        yield sample


def dual(cls: ConceptClass) -> ConceptClass:
    """Transpose the class: concepts become domain points and vice versa.

    Entry (j, i) of the dual equals entry (i, j) of the input; duplicate
    dual concepts (identical original columns) are dropped, keeping the
    first occurrence in domain order.
    """
    if cls.n_concepts == 0:
        raise ValueError("cannot dualize an empty class")
    columns = tuple(dict.fromkeys(cls.columns))
    has_star = any(STAR in col for col in columns)
    return ConceptClass(
        domain_size=cls.n_concepts,
        concepts=columns,
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
    check_table_size(sum(cls.n_concepts for cls in classes), total)
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
    if is_nonnegative_int(value):
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
    if not is_nonnegative_int(domain_size):
        raise ValueError(
            f"domain_size must be a non-negative integer, got {domain_size!r}"
        )
    if not isinstance(raw, list):
        raise ValueError("concepts must be a JSON array")
    for row in raw:
        if not isinstance(row, list):
            raise ValueError(f"concept row must be a JSON array, got {row!r}")
    concepts = tuple(tuple(_entry_from_json(v) for v in row) for row in raw)
    return ConceptClass(domain_size=domain_size, concepts=concepts, kind=kind)


def dumps_class(cls: ConceptClass) -> str:
    return json.dumps(class_to_json(cls), indent=2) + "\n"


def parse_json(text: str) -> object:
    """``json.loads``, except that text nested past the parser's recursion
    limit is a ValueError, as other malformed JSON is.  Every file the
    package reads goes through it."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def loads_class(text: str) -> ConceptClass:
    return class_from_json(parse_json(text))


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
