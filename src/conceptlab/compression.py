"""Sample compression schemes: contract, verifiers, exact oracles, and the
compression-to-disambiguation extractor.

The exact minimum-size oracle is a list coloring (the compression-coloring
link of Alon, Hanneke, Holzman and Moran, FOCS 2021): realizable samples are
the vertices, a sample's candidate keys are its list, and samples that
disagree on a shared point must not share a key.  ``class_coloring`` is
the one exact search behind it and behind ``lowerbound.chromatic_number``.

A scheme is a deterministic pair (compress, reconstruct): compress maps a
realizable sample to a key holding a subsample of it plus a bit string;
reconstruct maps the key to a total concept that must agree with every entry
of the original sample.  The measured size at sample length m is the maximum
over samples of max(|subsample|, |bits|).

Schemes here are order-insensitive: samples are canonical multisets, and
compress/reconstruct are pure functions of the canonical form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from conceptlab import core
from conceptlab.core import (
    STAR,
    ClassKind,
    ConceptClass,
    Sample,
    enumerate_realizable_samples,
    is_nonnegative_int,
    sample_from_json,
    sample_to_json,
    walk_realizable_samples,
)
from conceptlab.dimensions import ShatterKind, dimension
from conceptlab.errors import (
    BudgetError,
    ContractViolationError,
    ConvergenceError,
    RealizabilityError,
)


@dataclass(frozen=True)
class CompressionKey:
    """A subsample plus a bit string ('0'/'1' characters)."""

    subsample: Sample
    bits: str = ""

    def __post_init__(self) -> None:
        if self.bits.strip("01"):
            raise ValueError(f"bits must be a 0/1 string, got {self.bits!r}")


@dataclass(frozen=True)
class CompressionScheme:
    """Deterministic compress/reconstruct pair.

    ``reconstruct`` returns a full total concept (tuple of defined labels,
    one per domain point).
    """

    name: str
    compress: Callable[[Sample], CompressionKey]
    reconstruct: Callable[[CompressionKey], tuple[int, ...]]


@dataclass(frozen=True)
class SchemeReport:
    """Outcome of exhaustively verifying a scheme at one sample size.

    ``valid`` is None when verification was cut short by a budget;
    ``k_of_m`` is the maximum of max(|subsample|, |bits|) over the samples
    checked; each failure records the sample and the offending domain index.
    """

    valid: Optional[bool]
    m: int
    k_of_m: int
    failures: tuple[tuple[Sample, int], ...]
    samples_checked: int

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "m": self.m,
            "k_of_m": self.k_of_m,
            "samples_checked": self.samples_checked,
            "failures": [
                {"sample": sample_to_json(s), "index": i} for s, i in self.failures
            ],
        }


def _is_concept(concept: Sequence[object], domain_size: int) -> bool:
    """True when the concept is total over the domain: one non-negative int
    label per point."""
    return len(concept) == domain_size and all(map(is_nonnegative_int, concept))


def _check_reconstruction(
    scheme: CompressionScheme,
    key: CompressionKey,
    concept: Sequence[int],
    domain_size: int,
) -> None:
    """ContractViolationError unless the concept is total over the domain."""
    if not _is_concept(concept, domain_size):
        raise ContractViolationError(
            f"scheme {scheme.name!r} reconstructed an invalid concept "
            f"{concept} for key {key}"
        )


def replay_scheme(
    cls: ConceptClass,
    scheme: CompressionScheme,
    low: int,
    high: int,
    *,
    sample_budget: Optional[int] = None,
) -> list[SchemeReport | Exception]:
    """Replay the scheme at every sample size from ``low`` to ``high`` in one
    walk (``core.walk_realizable_samples``) and give each size the outcome
    that ``verify_scheme`` at that size alone gives: its SchemeReport, or
    the exception it raises (a sample-budget BudgetError included).

    The outcomes come in ascending size and stop at the first one that is
    not a valid report, since a failure or an exception at size d stops the
    checking of every size above d; an exception also ends its own size.
    The walk is read one way: a sample larger than the largest size still
    checked is skipped, and the walk ends as soon as no size is left to
    check.  The per-size state covers [low, high] only.  When the walk
    stops at ``core.SAMPLE_SIZE_BUDGET``, the sizes within the budget are
    complete, and the first size past it that is still checked gets the
    walk's BudgetError, carrying its empty report (``valid`` None), as a
    sample-budget cut does.

    Each distinct key (subsample entries, bits) is measured once: its size,
    the bitset of the pair ranks of its entries (an entry no concept holds
    gets a rank that no sample has), one ``reconstruct`` call and, once that
    concept passes ``_check_reconstruction``, the bitset of the sample pairs
    it agrees with.  A concept that fails the check is not kept, so it
    raises again at the next use of its key.  A sample then costs two int
    tests, containment and agreement; only a failure scans its entries, to
    report the same index as an entry-by-entry check.  The memo holds one
    entry per distinct key met, so it never outgrows the samples checked.

    ValueError, before anything is enumerated, when ``sample_budget`` is
    negative or ``low`` is below 1.
    """
    if sample_budget is not None and sample_budget < 0:
        raise ValueError(f"sample budget must be non-negative, got {sample_budget}")
    compress = scheme.compress
    reconstruct = scheme.reconstruct
    domain_size = cls.domain_size
    pairs = sorted(cls.holders)
    rank_bit = {pair: 1 << r for r, pair in enumerate(pairs)}
    outside = 1 << len(pairs)  # the rank of a pair no concept holds
    known: dict[tuple, list] = {}  # key -> [size, ranks, concept, agree]
    # per size, indexed by size - low
    failures: list[list[tuple[Sample, int]]] = [[] for _ in range(low, high + 1)]
    k_of = [0] * (high - low + 1)
    checked = [0] * (high - low + 1)
    raised: Optional[Exception] = None  # what ended size top + 1, if anything
    top = high - low  # the largest size still checked, as an index
    try:
        for sample, ranks in walk_realizable_samples(cls, low, high):
            entries = sample.entries
            d = len(entries) - low
            if d > top:
                continue
            if sample_budget is not None and checked[d] == sample_budget:
                raised = BudgetError(
                    f"sample budget {sample_budget} exhausted at size {d + low}",
                    report=SchemeReport(
                        None, d + low, k_of[d], tuple(failures[d]), checked[d]
                    ),
                )
                top = d - 1
            else:
                checked[d] += 1
                try:
                    key = compress(sample)
                    sub = key.subsample.entries
                    ident = (sub, key.bits)
                    facts = known.get(ident)
                    if facts is None:
                        key_ranks = 0
                        for entry in sub:
                            key_ranks |= rank_bit.get(entry, outside)
                        size = max(len(sub), len(key.bits))
                        facts = known[ident] = [size, key_ranks, None, 0]
                    size, key_ranks, concept, agree = facts
                    if size > k_of[d]:
                        k_of[d] = size
                    # element-wise containment: a key may repeat an entry of
                    # the sample (block padding does) but may not add one it
                    # lacks
                    if key_ranks & ~ranks:
                        bad = next(e for e in sub if e not in entries)[0]
                    else:
                        if concept is None:
                            concept = reconstruct(key)
                            _check_reconstruction(scheme, key, concept, domain_size)
                            agree = 0
                            for pair in enumerate(concept):
                                agree |= rank_bit.get(pair, 0)
                            facts[2:] = concept, agree
                        if not ranks & ~agree:
                            continue
                        bad = next(i for i, y in entries if concept[i] != y)
                    failures[d].append((sample, bad))
                    top, raised = d, None
                except Exception as exc:
                    top, raised = d - 1, exc
            if top < 0:
                break
    except BudgetError as exc:  # the walk's sample-size budget
        d = max(core.SAMPLE_SIZE_BUDGET + 1 - low, 0)  # the first size past it
        if d <= top:
            raised = BudgetError(str(exc), report=SchemeReport(None, low + d, 0, (), 0))
            top = d - 1
    outcomes: list[SchemeReport | Exception] = [
        SchemeReport(not failed, low + d, k_of[d], tuple(failed), checked[d])
        for d, failed in enumerate(failures[: top + 1])
    ]
    if raised is not None:
        outcomes.append(raised)
    return outcomes


def verify_scheme(
    cls: ConceptClass,
    scheme: CompressionScheme,
    m: int,
    *,
    sample_budget: Optional[int] = None,
) -> SchemeReport:
    """Run the scheme over every realizable sample of size m and check the
    compression contract: the subsample is drawn from the sample, and the
    reconstruction agrees with every entry.  This is ``replay_scheme`` at
    the one size m.

    Under the determinism contract (compress and reconstruct are pure
    functions of the canonical sample and key), ``reconstruct`` runs once
    per distinct key, and each reconstructed concept is checked for being
    total over the domain before any sample is tested against it.

    Raises BudgetError (carrying the partial report, valid=None) when more
    than ``sample_budget`` samples would be checked, and ValueError, before
    enumerating anything, when ``sample_budget`` is negative.
    """
    (outcome,) = replay_scheme(cls, scheme, m, m, sample_budget=sample_budget)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


COUNTING_BIT_BUDGET = 1 << 18
"""Most bits in a bound ``counting_bound`` returns (262,144 bits, 78,914
decimal digits); printing a bound takes time quadratic in its length."""


def counting_bound(m: int, c: int, k: int, bit_budget: int) -> int:
    """Exact count of keys with at most k entries over an m-point domain,
    c labels per entry, and a bit string of length at most ``bit_budget``:
    sum_{i<=k} C(m, i) * c^i * (2^(bit_budget+1) - 1).

    The terms are built in turn, each from the one before, so the cost is
    linear in the number of terms summed.  Raises BudgetError as soon as the
    partial sum has more than ``COUNTING_BIT_BUDGET`` bits, without building
    anything when the bit budget alone says so.
    """
    if m < 0 or c < 0 or k < 0 or bit_budget < 0:
        raise ValueError("counting_bound arguments must be non-negative")
    if bit_budget < COUNTING_BIT_BUDGET:  # else 2^(bit_budget+1) - 1 is past it
        term = bound = 2 ** (bit_budget + 1) - 1  # i = 0: the bit strings alone
        for i in range(min(k, m)):
            # exact, since C(m, i) (m - i) / (i + 1) = C(m, i + 1)
            term = term * (m - i) // (i + 1) * c
            bound += term
            if bound.bit_length() > COUNTING_BIT_BUDGET:
                break
        else:
            return bound
    raise BudgetError(f"counting bound past {COUNTING_BIT_BUDGET} bits")


def _bit_string(j: int) -> str:
    """Bit string number j (from 0) in the order shortest first, then
    lexicographic: j + 1 in binary without its leading 1."""
    return format(j + 1, "b")[1:]


def _sub_multisets(entries: tuple[tuple[int, int], ...], size_cap: int):
    """The distinct nonempty sub-multisets of the sorted entries with at
    most ``size_cap`` entries: increasing size, lexicographic within."""
    for size in range(1, size_cap + 1):
        # repeated entries repeat combinations; keep the first of each
        yield from dict.fromkeys(itertools.combinations(entries, size))


# --- lookup-table schemes ----------------------------------------------------


@dataclass(frozen=True)
class TableScheme:
    """A finite scheme given by explicit lookup tables.

    Compression maps a canonical sample to its key; reconstruction maps a
    key to a total concept, falling back to ``default_concept`` on keys
    outside the table (the extractor may probe such keys).  Round-trips
    through JSON.
    """

    domain_size: int
    compress_table: tuple[tuple[Sample, CompressionKey], ...]
    reconstruct_table: tuple[tuple[CompressionKey, tuple[int, ...]], ...]
    default_concept: tuple[int, ...]

    def as_scheme(self, name: str = "table") -> CompressionScheme:
        # keyed by the entries, which hash and compare as a plain tuple
        compress_map = {sample.entries: key for sample, key in self.compress_table}
        reconstruct_map = dict(self.reconstruct_table)

        def compress(sample: Sample) -> CompressionKey:
            try:
                return compress_map[sample.entries]
            except KeyError:
                raise RealizabilityError(
                    f"sample {sample.entries} is outside the compression table"
                ) from None

        def reconstruct(key: CompressionKey) -> tuple[int, ...]:
            return reconstruct_map.get(key, self.default_concept)

        return CompressionScheme(name=name, compress=compress, reconstruct=reconstruct)

    def to_json(self) -> dict:
        return {
            "kind": "table",
            "domain_size": self.domain_size,
            "default": list(self.default_concept),
            "compress": [
                [sample_to_json(s), [sample_to_json(k.subsample), k.bits]]
                for s, k in self.compress_table
            ],
            "reconstruct": [
                [sample_to_json(k.subsample), k.bits, list(concept)]
                for k, concept in self.reconstruct_table
            ],
        }

    @staticmethod
    def from_json(data: object) -> "TableScheme":
        """Parse the document ``to_json`` writes; ValueError when any part
        of it has the wrong shape or type."""
        if not isinstance(data, dict) or data.get("kind") != "table":
            raise ValueError("not a table-scheme document")
        domain_size = data.get("domain_size")
        if not is_nonnegative_int(domain_size):
            raise ValueError(
                f"domain_size must be a non-negative integer, got {domain_size!r}"
            )
        compress_table = []
        for raw_sample, raw_key in _table_rows(data, "compress", 2):
            if not isinstance(raw_key, list) or len(raw_key) != 2:
                raise ValueError(
                    f"compression key must be a [subsample, bits] array, got "
                    f"{raw_key!r}"
                )
            compress_table.append(
                (sample_from_json(raw_sample), _key_from_json(*raw_key))
            )
        reconstruct_table = tuple(
            (_key_from_json(raw_sub, bits), _concept_from_json(concept, domain_size))
            for raw_sub, bits, concept in _table_rows(data, "reconstruct", 3)
        )
        return TableScheme(
            domain_size=domain_size,
            compress_table=tuple(compress_table),
            reconstruct_table=reconstruct_table,
            default_concept=_concept_from_json(data.get("default"), domain_size),
        )


def _table_rows(data: dict, name: str, width: int) -> list:
    rows = data.get(name)
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == width for row in rows
    ):
        raise ValueError(f"{name!r} must be an array of {width}-element arrays")
    return rows


def _key_from_json(raw_sub: object, bits: object) -> CompressionKey:
    if not isinstance(bits, str):
        raise ValueError(f"bits must be a 0/1 string, got {bits!r}")
    return CompressionKey(sample_from_json(raw_sub), bits)


def _concept_from_json(raw: object, domain_size: int) -> tuple[int, ...]:
    if not isinstance(raw, list) or not _is_concept(raw, domain_size):
        raise ValueError(
            f"concept must be an array of {domain_size} non-negative integer "
            f"labels, got {raw!r}"
        )
    return tuple(raw)


# --- exact list coloring -----------------------------------------------------


def _clique_exceeds_lists(
    classes: Sequence[tuple], sizes: Sequence[int], capacity: Sequence[int],
    conflicts: Sequence[int],
) -> bool:
    """True when a greedy clique of pairwise conflicting vertices has more
    members than the union of their lists, which no list coloring survives.
    Vertex v lists every color of the classes ``classes[v]``, ``sizes[v]``
    colors in all, and class cl has ``capacity[cl]`` colors.

    The clique starts at the vertex with the shortest list (ties: most
    conflicts, then lowest index) and repeatedly adds the candidate that
    brings the fewest new colors (ties: most conflicts within the remaining
    candidates, then lowest index).  There is at least one vertex.
    """
    start = min(
        range(len(classes)),
        key=lambda v: (sizes[v], -conflicts[v].bit_count(), v),
    )
    covered = set(classes[start])
    colors = sizes[start]
    size = 1
    candidates = conflicts[start]
    while candidates and size <= colors:
        best = None
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            rank = (
                sum(capacity[cl] for cl in classes[w] if cl not in covered),
                -(conflicts[w] & candidates).bit_count(),
                w,
            )
            if best is None or rank < best:
                best = rank
        w = best[2]
        covered.update(classes[w])
        colors += best[0]
        size += 1
        candidates &= conflicts[w]
    return size > colors


def class_coloring(
    runs: Sequence[Sequence[tuple[int, int, int]]],
    capacity: Sequence[int],
    conflicts: Sequence[int],
    *,
    node_budget: Optional[int] = None,
) -> Optional[list[tuple[int, int]]]:
    """One color per vertex, taken from its list, such that no two
    conflicting vertices share a color; None when exhaustive search rules
    every such coloring out.

    A color is a pair (class, rank): class cl has the ranks
    0..``capacity[cl]``-1.  Vertex v lists the colors of the runs
    ``runs[v]``, in order: a run (cl, lo, hi) stands for ranks lo..hi-1 of
    class cl, ascending.  A vertex that lists a class lists every rank of
    it, in one run or in several, so the colors of a class are listed by
    exactly the same vertices and are interchangeable.  ``conflicts[v]`` is
    the int bitset of the vertices that conflict with v (symmetric, without
    v itself).

    The search is iterative, with an explicit stack:

    * a greedy clique whose members outnumber the union of their lists
      refutes the instance before any search;
    * the next vertex is the unassigned one with the fewest usable colors
      (DSatur, Brelaz 1979), ties to the lowest index, except that the
      lowest-indexed one with at most one usable color goes first; the
      usable-color counts are kept up to date as colors are taken and
      given back, not recounted at every node;
    * a class opens its colors in rank order, so of those that no vertex
      uses yet only the lowest is tried (for one class of capacity c this
      is the usual "open color max+1" rule); a color has a state only
      while some vertex holds it, so memory does not grow with capacities;
    * a vertex tries its usable colors in list order.

    Raises BudgetError when more than ``node_budget`` colors have been
    tried (one node per color tried).
    """
    n = len(runs)
    if not n:
        return []
    # each vertex's classes, once each (as tuples, far smaller than sets)
    classes = [tuple({cl for cl, _, _ in spans}) for spans in runs]
    sizes = [sum(map(capacity.__getitem__, of)) for of in classes]
    if _clique_exceeds_lists(classes, sizes, capacity, conflicts):
        return None
    listers = [0] * len(capacity)  # vertices listing the class
    for v, of in enumerate(classes):
        for cl in of:
            listers[cl] |= 1 << v
    # Classes open their colors in rank order and close them in reverse
    # (stack order), so the used colors of a class are always a prefix of
    # it: rank r is usable when it is used and not forbidden, or when it is
    # the first unused one.  Only a used color has a state:
    # ``forbidden[cl][r]``, the vertices conflicting with a holder of
    # color (cl, r).
    forbidden: list[list[int]] = [[] for _ in capacity]
    opened = [0] * len(capacity)  # class -> how many of its colors are used
    color_of: list = [None] * n

    def usable(v: int, bit: int) -> list[tuple[int, int]]:
        """v's usable colors, in list order."""
        out = []
        for cl, lo, hi in runs[v]:
            head = opened[cl]
            if head <= lo:
                if head == lo:
                    out.append((cl, lo))
            elif hi - lo == 1:  # the common one-color run, already used
                if not forbidden[cl][lo] & bit:
                    out.append((cl, lo))
            else:
                used = forbidden[cl]
                for r in range(lo, hi if hi < head else head):
                    if not used[r] & bit:
                        out.append((cl, r))
                if head < hi:
                    out.append((cl, head))
        return out

    # How many colors each vertex may take now, kept for every vertex in
    # binary: bit j of v's count is bit v of plane[j], so adding 1 to (or
    # taking 1 from) a whole set of vertices is a ripple of carries (or
    # borrows) through the planes.  At the start v may take the first color
    # of each class it lists.
    plane = [
        sum(1 << v for v, of in enumerate(classes) if len(of) >> j & 1)
        for j in range(max(1, max(sizes, default=0).bit_length()))
    ]
    free = (1 << n) - 1

    def shift(vertices: int, delta: int) -> None:
        """Add delta (1 or -1) to the count of each of ``vertices``."""
        j = 0
        while vertices:  # the vertices still carrying (or borrowing)
            p = plane[j]
            plane[j] = p ^ vertices
            vertices &= p if delta > 0 else ~p
            j += 1

    def select(free: int) -> list:
        """The stack frame of the next vertex among ``free`` (nonzero):
        [vertex, its usable colors, next option, the forbidden set of the
        color it holds before it took it, the vertices whose counts that
        color moved, and by how much]."""
        low = free
        for p in plane[1:]:
            low &= ~p
        if not low:
            # none has at most one color: narrow to the fewest, digit by
            # digit from the top
            low = free
            for p in reversed(plane):
                rest = low & ~p
                if rest:
                    low = rest
        bit = low & -low
        v = bit.bit_length() - 1
        return [v, usable(v, bit), 0, 0, 0, 0]

    nodes = 0
    stack = [select(free)]
    while stack:
        frame = stack[-1]
        v, options, i, saved, moved, delta = frame
        bit = 1 << v
        if color_of[v] is not None:
            cl, r = color_of[v]
            if saved < 0:  # v opened the color: the class closes it
                forbidden[cl].pop()
                opened[cl] -= 1
            else:
                forbidden[cl][r] = saved
            shift(moved, -delta)
            color_of[v] = None
            free |= bit
        if i == len(options):
            stack.pop()
            continue
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetError(f"node budget {node_budget} exhausted")
        cl, r = color_of[v] = options[i]
        used = forbidden[cl]
        if r < opened[cl]:
            # its listers that v's conflicts newly forbid lose it
            saved = used[r]
            used[r] = saved | conflicts[v]
            moved, delta = listers[cl] & conflicts[v] & ~saved, -1
        else:
            # it opens: every lister gains the class's next color, if there
            # is one, and those among v's conflicts lose this one
            saved = -1
            used.append(conflicts[v])
            opened[cl] += 1
            if r + 1 < capacity[cl]:
                moved, delta = listers[cl] & ~conflicts[v], 1
            else:
                moved, delta = listers[cl] & conflicts[v], -1
        free ^= bit
        shift(moved, delta)
        frame[2:] = i + 1, saved, moved, delta
        if not free:
            return color_of
        stack.append(select(free))
    return None


def _color_classes(
    holders: dict, width: int, n: int
) -> tuple[list[list], list[list[tuple[int, int, int]]], list[int]]:
    """The classes and runs of ``class_coloring`` for n vertices, where
    ``holders`` maps each item to the vertices listing it, ascending, and
    an item stands for ``width`` interchangeable colors.  Items with the
    same holders form one class, their colors ranked by item, then by
    position within the item; a vertex gets one run per item it lists, in
    ascending item order.  Returns each class's items, each vertex's runs
    and each class's capacity."""
    classes: dict[tuple[int, ...], tuple[int, list]] = {}  # by holders
    runs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for item in sorted(holders):
        holding = holders[item]
        cl, items = classes.setdefault(tuple(holding), (len(classes), []))
        run = (cl, len(items) * width, (len(items) + 1) * width)
        items.append(item)
        for v in holding:
            runs[v].append(run)
    groups = [items for _, items in classes.values()]
    return groups, runs, [len(items) * width for items in groups]


# --- exact minimum-size oracle ----------------------------------------------

NODE_BUDGET = 1_000_000
"""Default search nodes per k-level in ``min_compression_certificate``."""

SAMPLE_BUDGET = 20_000
"""Most realizable samples ``min_compression_certificate`` searches over."""

KEY_LIST_BUDGET = 5_000_000
"""Most sub-multisets ``_find_assignment`` lists over all samples of one
k-level."""


class _KeySpace:
    """The key-search state of one list of samples: built once, and grown
    one k-level at a time by ``_find_assignment``.

    ``conflicts[v]`` is the int bitset of the samples that disagree with
    sample v on a shared point; no level changes it.  At level k, a
    sample's keys are its distinct sub-multisets of at most k entries, each
    with one of the first ``width`` bit strings in ``_bit_string`` order.
    ``holders`` maps every listed sub-multiset to the samples listing it,
    ascending.  ``layout`` groups the sub-multisets with the same holders
    into one class of interchangeable keys, whose rank p * width + j is its
    p-th sub-multiset, ascending, with bit string j; each sample gets one
    run (class, p * width, (p + 1) * width) per sub-multiset, in ascending
    order, so that the runs follow the candidate order (sub-multiset, then
    bits) and no key is listed one by one: the state does not grow with the
    bit budget.  A new space stands at level 0, where each sample lists the
    empty sub-multiset.
    """

    def __init__(self, samples: Sequence[Sample], bit_budget: int) -> None:
        self.samples = samples
        n = len(samples)
        # ``class_coloring`` never opens more colors of a class than there
        # are samples, so no bit string past the first n is ever tried
        self.width = min(n, 2 ** min(bit_budget + 1, n.bit_length()) - 1)
        self.conflicts = _conflict_rows(samples)
        self.level = 0
        self.holders = {(): list(range(n))}

    def grow(self) -> None:
        """Extend every list from the current level to the next: each
        sample adds its distinct size-(level + 1) sub-multisets.
        BudgetError, before anything changes, when the lists would then
        hold more than ``KEY_LIST_BUDGET`` sub-multisets."""
        size = self.level + 1
        # repeated entries repeat combinations; keep the first of each
        added = [
            dict.fromkeys(itertools.combinations(s.entries, size))
            for s in self.samples
        ]
        listed = sum(map(len, [*self.holders.values(), *added]))
        if listed > KEY_LIST_BUDGET:
            raise BudgetError(
                f"key lists of {listed} sub-multisets exceed the key-list budget of "
                f"{KEY_LIST_BUDGET}"
            )
        for v, subs in enumerate(added):
            for sub in subs:
                self.holders.setdefault(sub, []).append(v)
        self.level = size

    def layout(self) -> tuple[list, list, list[int]]:
        """The current level as ``class_coloring`` takes it, from
        ``_color_classes``: each class's sub-multisets, each sample's runs
        and each class's capacity."""
        return _color_classes(self.holders, self.width, len(self.samples))


def _conflict_rows(samples: Sequence[Sample]) -> list[int]:
    """``rows[v]``: the OR, over the entries (i, y) of sample v, of the int
    bitset of the samples holding point i XOR that of those holding (i, y).
    For realizable samples, which hold one label per point, that is the
    samples holding a point of sample v with another label."""
    at_entry: dict[tuple[int, int], int] = {}
    for v, sample in enumerate(samples):
        bit = 1 << v
        for entry in sample.entries:
            at_entry[entry] = at_entry.get(entry, 0) | bit
    at_point: dict[int, int] = {}
    for (i, _), holding in at_entry.items():
        at_point[i] = at_point.get(i, 0) | holding
    other = {
        entry: at_point[entry[0]] ^ holding for entry, holding in at_entry.items()
    }
    rows = []
    for sample in samples:
        row = 0
        for entry in sample.entries:
            row |= other[entry]
        rows.append(row)
    return rows


def _find_assignment(
    keys: _KeySpace,
    k: int,
    *,
    node_budget: Optional[int] = None,
) -> Optional[dict[Sample, CompressionKey]]:
    """A key assignment for the samples of ``keys`` whose same-key groups
    are pairwise conflict-free, or None when exhaustive search rules one
    out.

    A group is served by a single reconstruction, so two samples may share a
    key only if they never disagree on a shared domain point; pairwise
    agreement then makes the whole group consistent.  That is a list
    coloring: the samples are the vertices, a sample's keys (sub-multisets
    of at most k entries, each with a bit string of at most the space's
    bit budget) are its list, and samples that disagree conflict.  The
    conflict rows are the space's; its lists are grown from their level up
    to k, so ``keys`` must not already stand above k.  ``class_coloring``
    does the search on the space's runs, and a key is built only for the
    colors it returns; BudgetError after ``node_budget`` nodes, or before a
    level is grown when its lists would hold more than ``KEY_LIST_BUDGET``
    sub-multisets.
    """
    if k < keys.level:
        raise ValueError(f"key lists already grown to {keys.level} > {k}")
    while keys.level < k:
        keys.grow()
    classes, runs, capacity = keys.layout()
    colors = class_coloring(runs, capacity, keys.conflicts, node_budget=node_budget)
    if colors is None:
        return None
    found = {}
    for cl, r in set(colors):
        p, j = divmod(r, keys.width)
        sub = Sample._canonical(classes[cl][p])
        found[cl, r] = CompressionKey(sub, _bit_string(j))
    return {sample: found[c] for sample, c in zip(keys.samples, colors)}


def _assignment_to_table(
    cls: ConceptClass, assignment: dict[Sample, CompressionKey]
) -> TableScheme:
    groups: dict[CompressionKey, dict[int, int]] = {}
    for sample, key in assignment.items():
        group = groups.setdefault(key, {})
        group.update(sample.entries)
    default = (0,) * cls.domain_size
    reconstruct_table = tuple(
        (key, tuple(content.get(i, 0) for i in range(cls.domain_size)))
        for key, content in sorted(
            groups.items(), key=lambda kv: (kv[0].subsample.entries, kv[0].bits)
        )
    )
    compress_table = tuple(sorted(assignment.items(), key=lambda kv: kv[0].entries))
    return TableScheme(
        domain_size=cls.domain_size,
        compress_table=compress_table,
        reconstruct_table=reconstruct_table,
        default_concept=default,
    )


def min_compression_certificate(
    cls: ConceptClass,
    m: int,
    bit_budget: int,
    *,
    node_budget: int = NODE_BUDGET,
) -> tuple[int, TableScheme]:
    """Smallest k admitting a valid order-insensitive scheme with subsample
    size <= k and bit length <= bit_budget over all realizable samples of
    size m, plus a replayable certificate scheme at that k.

    Determined by exact search over key assignments, one k-level at a time
    from 0 (``_find_assignment``): samples sharing a key must be pairwise
    conflict-free because one total reconstruction must serve them all.
    The conflict graph does not depend on k, so it is built once per call
    (``_KeySpace``), and each level only adds the samples' size-k
    sub-multisets to the lists of the one before it.  Keys that differ only
    in their bits are never listed one by one: a sub-multiset stands for
    all its bit strings, as a run of a class of interchangeable keys, so
    the search's memory does not grow with ``bit_budget``.
    The answer is at most m: keeping the whole sample (no bits) is a valid
    size-m assignment, since every sample is its own key and no other
    sample of size m lists that key.

    Raises BudgetError when more than ``SAMPLE_BUDGET`` samples are
    realizable, when a realizable sample of size m would pass
    ``core.SAMPLE_SIZE_BUDGET`` entries, or when one k-level would list
    more than ``KEY_LIST_BUDGET`` sub-multisets or its search tries more
    than ``node_budget`` nodes; the latter two name the levels already
    refuted, and their ``report`` holds them as ``{"m", "bit_budget",
    "k", "refuted"}``.
    """
    if bit_budget < 0:
        raise ValueError(f"bit budget must be non-negative, got {bit_budget}")
    samples = []
    for sample in enumerate_realizable_samples(cls, m):
        samples.append(sample)
        if len(samples) > SAMPLE_BUDGET:
            raise BudgetError(
                f"more than {SAMPLE_BUDGET} realizable samples of size {m}"
            )
    refuted: list[int] = []
    try:
        keys = _KeySpace(samples, bit_budget)
        for k in range(m + 1):
            assignment = _find_assignment(keys, k, node_budget=node_budget)
            if assignment is not None:
                break
            refuted.append(k)
    except BudgetError as exc:
        k = len(refuted)
        raise BudgetError(
            f"{exc} at k={k}; refuted k-levels: {refuted}",
            report={"m": m, "bit_budget": bit_budget, "k": k, "refuted": refuted},
        ) from None
    if assignment is None:
        raise AssertionError(
            f"k = m = {m} keeps every sample whole and is always feasible, "
            f"yet the search refuted k-levels {refuted}"
        )
    return k, _assignment_to_table(cls, assignment)


# --- compression implies disambiguation --------------------------------------

EXTRACTION_KEY_BUDGET = 100_000
"""Most keys ``extract_disambiguation`` probes."""


def extract_disambiguation(
    cls: ConceptClass,
    scheme: CompressionScheme,
    k: int,
    bit_budget: int,
) -> ConceptClass:
    """Apply the reconstruction to every (realizable sample of size <= k,
    bit string of length <= bit_budget) key and collect the distinct total
    concepts, in the order first met.  The empty subsample is probed first,
    then the subsamples of one walk over the sizes 1 to k
    (``core.walk_realizable_samples``), which visits each prefix once; so
    for k >= 2 the returned class lists its concepts in the walk's merged
    order, not size by size.  The collected class is checked to
    disambiguate ``cls``: every realizable sample of size up to the support
    size must be matched by some extracted concept; a miss raises
    ContractViolationError naming a concept's full content.

    The check runs on maximal contents.  The content of a realizable sample
    is a subset of the defined (point, label) pairs D_c of some concept c,
    and D_c is itself the content of a realizable sample of size |D_c|, at
    most the support size.  So every such sample is matched exactly when,
    for every concept c with nonempty D_c, some extracted concept agrees
    with c on all of D_c.

    The caller is responsible for the scheme being valid on ``cls`` for all
    sample sizes up to the support size; the reconstruction must tolerate
    every probed key, which every built-in scheme does (table schemes fall
    back to their default, and the boosted and star schemes answer every
    key, the empty one included).

    The subsamples are streamed, and the keys counted as they are probed:
    BudgetError before probing key number ``EXTRACTION_KEY_BUDGET + 1``.
    """
    if k < 0 or bit_budget < 0:
        raise ValueError(
            f"k and bit budget must be non-negative, got k={k}, "
            f"bit_budget={bit_budget}"
        )
    subsamples = itertools.chain(
        [Sample(())], (sample for sample, _ in walk_realizable_samples(cls, 1, k))
    )
    concepts: dict[tuple[int, ...], None] = {}  # distinct, in probe order
    probed = 0
    for subsample in subsamples:
        # bit strings by number, so no count of them (2^(bit_budget+1) - 1)
        # is ever built
        for j in itertools.count():
            bits = _bit_string(j)
            if len(bits) > bit_budget:
                break
            if probed == EXTRACTION_KEY_BUDGET:
                raise BudgetError(
                    f"extraction key budget {EXTRACTION_KEY_BUDGET} exhausted"
                )
            probed += 1
            key = CompressionKey(subsample, bits)
            concept = scheme.reconstruct(key)
            if tuple(concept) not in concepts:
                _check_reconstruction(scheme, key, concept, cls.domain_size)
                concepts[tuple(concept)] = None
    extracted = ConceptClass(
        domain_size=cls.domain_size,
        concepts=tuple(concepts),
        kind=ClassKind.TOTAL,
    )
    for source in cls.concepts:
        content = tuple((i, y) for i, y in enumerate(source) if y != STAR)
        if content and not extracted.agreeing(content):
            raise ContractViolationError(
                f"extracted set fails to disambiguate sample {content}"
            )
    return extracted


# --- multiclass-to-binary reduction ------------------------------------------


def to_binary_class(cls: ConceptClass) -> ConceptClass:
    """Binary indicator class over the product domain (point, label): the
    image concept is 1 where the source concept takes exactly that label.

    The product domain runs over labels actually used by the class, in
    lexicographic (point, label) order; its VC dimension equals the graph
    dimension of the source class.
    """
    if cls.kind is not ClassKind.TOTAL:
        raise ValueError("binary reduction is defined for total classes")
    labels = cls.labels_used()
    concepts = []
    for concept in cls.concepts:
        row = []
        for x in range(cls.domain_size):
            for y in labels:
                row.append(1 if concept[x] == y else 0)
        concepts.append(tuple(row))
    return ConceptClass(
        domain_size=cls.domain_size * len(labels),
        concepts=tuple(concepts),
        kind=ClassKind.TOTAL,
    )


# --- boosted majority-vote scheme ---------------------------------------------

# AdaBoost.M1 (Freund and Schapire, JCSS 1997) with edge 1/8: a block is weak
# when its weighted error is at most 1/2 - 1/8 = 3/8, and each round scales
# the weights of correctly handled entries by beta = (3/8) / (5/8) = 3/5.
WEAK_ERROR = (3, 8)  # (numerator, denominator)
ROUND_CAP_FACTOR = 64  # boosting rounds per bit of log2(m + 1)


def _erm_index(cls: ConceptClass, entries: Sequence[tuple[int, int]]) -> int:
    """Index of the first stored concept consistent with all entries."""
    live = cls.agreeing(entries)
    if not live:
        raise RealizabilityError(f"no concept is consistent with {tuple(entries)}")
    return (live & -live).bit_length() - 1


def boosted_scheme(
    cls: ConceptClass,
    subsample_size: Optional[int] = None,
) -> CompressionScheme:
    """Majority-vote compression via multiplicative-weights boosting.

    reconstruct: cut the sorted key entries into runs of s (the last run
    may be shorter, and the empty key is one empty run, whose ERM is the
    first concept), take the first-consistent-concept ERM of each run, and
    return the plurality vote over the full domain (ties toward the lowest
    label).  It reads the key's entries only, never its bits, so it answers
    every key whose runs are realizable, as extraction needs.

    compress: repeatedly pick the first sub-multiset (at most
    ``subsample_size`` entries, increasing size then lexicographic) whose
    ERM has weighted error at most 1/2 - 1/8 on the sample, pad it to s
    entries by repeating its first entry, and add it to the key; return the
    first key whose ``reconstruct`` is correct on the whole sample,
    otherwise downweight the entries the chosen block's concept gets right.
    The key's bits are a 24-bit header, s in 8 bits and the round count in
    16, both implied by the entries; it is still written because the
    measured key size ``k_of_m`` counts it.
    The key is a sorted multiset, so the runs the reconstructor votes over
    need not be the chosen blocks: the AdaBoost.M1 bound covers the vote of
    the chosen blocks, not this one, and a realizable sample can still
    raise ConvergenceError at the round cap.

    The weights are exact integers: every entry starts at 1, and a round
    multiplies correct entries by 3 and wrong ones by 5, which is beta = 3/5
    and 1 times a common factor 5.  A block is weak when
    8 * error <= 3 * total weight.  The test and the update depend only on
    the ratios of the weights, which normalisation never changes, so every
    decision is that of normalised rational weights.

    The scheme memoizes the ERM index of every block it meets, and the vote
    of every key's entries, both shared by compress and reconstruct for the
    life of the scheme object.  Every key is the same as without the memos.

    ``subsample_size`` defaults to max(1, graph dimension of the class).
    """
    if cls.kind is not ClassKind.TOTAL:
        raise ValueError("boosted schemes require a total class")
    if cls.n_concepts == 0:
        raise ValueError("boosted schemes require a nonempty class")
    if subsample_size is None:
        subsample_size = max(1, dimension(cls, ShatterKind.GRAPH).value)
    if not 1 <= subsample_size <= 255:
        raise ValueError("subsample_size must be in 1..255")

    weak_num, weak_den = WEAK_ERROR
    beta_num, beta_den = weak_num, weak_den - weak_num
    erm_of: dict[tuple[tuple[int, int], ...], int] = {}
    vote_of: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}

    def erm(block: tuple[tuple[int, int], ...]) -> int:
        idx = erm_of.get(block)
        if idx is None:
            idx = erm_of[block] = _erm_index(cls, block)
        return idx

    def reconstruct(key: CompressionKey) -> tuple[int, ...]:
        entries = key.subsample.entries
        voted = vote_of.get(entries)
        if voted is None:
            voters = [
                cls.concepts[erm(entries[r : r + subsample_size])]
                for r in range(0, len(entries) or 1, subsample_size)
            ]
            voted = vote_of[entries] = tuple(
                min(set(labels), key=lambda y: (-labels.count(y), y))
                for labels in zip(*voters)
            )
        return voted

    def compress(sample: Sample) -> CompressionKey:
        entries = sample.entries
        if not entries:
            raise RealizabilityError("cannot compress an empty sample")
        m = len(entries)
        round_cap = ROUND_CAP_FACTOR * max(1, math.ceil(math.log2(m + 1)))
        weights = [1] * m
        padded: list[tuple[int, int]] = []
        for rounds in range(1, round_cap + 1):
            total = sum(weights)
            for block in _sub_multisets(entries, subsample_size):
                concept = cls.concepts[erm(block)]
                error = sum(
                    w for w, (i, y) in zip(weights, entries) if concept[i] != y
                )
                if error * weak_den <= weak_num * total:
                    break
            else:
                raise RealizabilityError(
                    "no weak hypothesis found; sample not realizable at this "
                    "subsample size"
                )
            padded.extend(block + (block[0],) * (subsample_size - len(block)))
            # the entries come from an already validated sample; the header
            # (s, round count) is implied by them and written only because
            # k_of_m counts it
            key = CompressionKey(
                Sample._canonical(tuple(sorted(padded))),
                format(subsample_size, "08b") + format(rounds, "016b"),
            )
            voted = reconstruct(key)
            if all(voted[i] == y for i, y in entries):
                return key
            weights = [
                w * beta_num if concept[i] == y else w * beta_den
                for w, (i, y) in zip(weights, entries)
            ]
        raise ConvergenceError(
            f"plurality vote not correct after {round_cap} rounds"
        )

    return CompressionScheme(
        name=f"boosted(s={subsample_size})", compress=compress, reconstruct=reconstruct
    )


# --- hand-built fixed-size scheme for star-partition biclique classes --------


def star_biclique_scheme(t: int) -> CompressionScheme:
    """A one-entry, zero-bit scheme for the partial class of a star
    partition of K_t.

    In that class a sample contains at most one 0-labeled entry, and its
    part index pins down the vertex concept; samples labeled all-1 are
    consistent with the all-ones vertex.  compress keeps the 0-labeled
    entry when present, otherwise the highest-index 1-labeled entry;
    reconstruct totalizes the pinned vertex concept (filler label 2 on
    undefined parts) or returns the all-ones concept.  Valid at every
    sample size with max(|subsample|, |bits|) = 1.

    Each one-entry key is built once, on first use, and returned again for
    every later sample that keeps the same entry (at most 2 * (t - 1) keys
    on the class's samples).
    """
    if t < 2:
        raise ValueError("star partition needs t >= 2")
    n = t - 1
    totalized = [
        tuple(1 if i < v else (0 if i == v else 2) for i in range(n))
        for v in range(n)
    ]
    all_ones = (1,) * n
    keys: dict[tuple[int, int], CompressionKey] = {}

    def key_of(entry: tuple[int, int]) -> CompressionKey:
        key = keys.get(entry)
        if key is None:
            key = keys[entry] = CompressionKey(Sample._canonical((entry,)), "")
        return key

    def compress(sample: Sample) -> CompressionKey:
        entries = sample.entries
        if not entries:
            raise RealizabilityError("cannot compress an empty sample")
        for entry in entries:
            if entry[1] == 0:
                return key_of(entry)
        # entries are sorted, so the last one has the highest index
        return key_of(entries[-1])

    def reconstruct(key: CompressionKey) -> tuple[int, ...]:
        entries = key.subsample.entries
        if not entries:
            return all_ones
        index, label = entries[0]
        if label == 0 and index < n:
            return totalized[index]
        # a part index past n pins no vertex: its totalization is all ones
        return all_ones

    return CompressionScheme(
        name=f"star(t={t})", compress=compress, reconstruct=reconstruct
    )
