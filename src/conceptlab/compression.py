"""Sample compression schemes: contract, verifiers, exact oracles, and the
compression-to-disambiguation extractor.

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
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from conceptlab.core import (
    STAR,
    ClassKind,
    ConceptClass,
    Sample,
    enumerate_realizable_samples,
    sample_from_json,
    sample_to_json,
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
        if any(c not in "01" for c in self.bits):
            raise ValueError(f"bits must be a 0/1 string, got {self.bits!r}")

    def size(self) -> int:
        return max(len(self.subsample), len(self.bits))


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


def _subsample_violation(subsample: Sample, sample: Sample) -> Optional[int]:
    """Domain index of the first subsample entry that does not occur in the
    sample, or None when every entry does.

    Containment is element-wise: a key may repeat an entry of the sample
    (block padding does), but may not introduce entries the sample lacks.
    """
    have = set(sample.entries)
    for entry in subsample.entries:
        if entry not in have:
            return entry[0]
    return None


def verify_scheme(
    cls: ConceptClass,
    scheme: CompressionScheme,
    m: int,
    *,
    sample_budget: Optional[int] = None,
) -> SchemeReport:
    """Run the scheme over every realizable sample of size m and check the
    compression contract: the subsample is drawn from the sample, and the
    reconstruction agrees with every entry.

    Raises BudgetError (carrying the partial report, valid=None) when more
    than ``sample_budget`` samples would be checked.
    """
    failures: list[tuple[Sample, int]] = []
    k_of_m = 0
    checked = 0
    for sample in enumerate_realizable_samples(cls, m):
        if sample_budget is not None and checked >= sample_budget:
            raise BudgetError(
                f"sample budget {sample_budget} exhausted at size {m}",
                report=SchemeReport(
                    valid=None,
                    m=m,
                    k_of_m=k_of_m,
                    failures=tuple(failures),
                    samples_checked=checked,
                ),
            )
        checked += 1
        key = scheme.compress(sample)
        k_of_m = max(k_of_m, len(key.subsample), len(key.bits))
        bad = _subsample_violation(key.subsample, sample)
        if bad is not None:
            failures.append((sample, bad))
            continue
        concept = scheme.reconstruct(key)
        if len(concept) != cls.domain_size or any(v == STAR for v in concept):
            raise ContractViolationError(
                f"scheme {scheme.name!r} reconstructed an invalid concept "
                f"{concept} for key {key}"
            )
        for i, y in sample.entries:
            if concept[i] != y:
                failures.append((sample, i))
                break
    return SchemeReport(
        valid=not failures,
        m=m,
        k_of_m=k_of_m,
        failures=tuple(failures),
        samples_checked=checked,
    )


def counting_bound(m: int, c: int, k: int, bit_budget: int) -> int:
    """Exact count of keys with at most k entries over an m-point domain,
    c labels per entry, and a bit string of length at most ``bit_budget``:
    sum_{i<=k} C(m, i) * c^i * (2^(bit_budget+1) - 1).
    """
    if m < 0 or c < 0 or k < 0 or bit_budget < 0:
        raise ValueError("counting_bound arguments must be non-negative")
    subsets = sum(math.comb(m, i) * c**i for i in range(min(k, m) + 1))
    return subsets * (2 ** (bit_budget + 1) - 1)


def _bitstrings(bit_budget: int) -> Iterator[str]:
    """All bit strings of length 0..bit_budget, shortest first, then lex."""
    for length in range(bit_budget + 1):
        for bits in itertools.product("01", repeat=length):
            yield "".join(bits)


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
        compress_map = dict(self.compress_table)
        reconstruct_map = dict(self.reconstruct_table)

        def compress(sample: Sample) -> CompressionKey:
            try:
                return compress_map[sample]
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
    def from_json(data: dict) -> "TableScheme":
        if not isinstance(data, dict) or data.get("kind") != "table":
            raise ValueError("not a table-scheme document")
        compress_table = tuple(
            (
                sample_from_json(raw_sample),
                CompressionKey(sample_from_json(raw_key[0]), raw_key[1]),
            )
            for raw_sample, raw_key in data["compress"]
        )
        reconstruct_table = tuple(
            (CompressionKey(sample_from_json(raw_sub), bits), tuple(concept))
            for raw_sub, bits, concept in data["reconstruct"]
        )
        return TableScheme(
            domain_size=data["domain_size"],
            compress_table=compress_table,
            reconstruct_table=reconstruct_table,
            default_concept=tuple(data["default"]),
        )


# --- exact minimum-size oracle ----------------------------------------------


def _candidate_keys(
    sample: Sample, k: int, bit_budget: int
) -> list[CompressionKey]:
    subs = set()
    for size in range(min(k, len(sample)) + 1):
        subs.update(itertools.combinations(sample.entries, size))
    keys = []
    for sub in sorted(subs):
        for bits in _bitstrings(bit_budget):
            keys.append(CompressionKey(Sample(sub), bits))
    return keys


def _find_assignment(
    samples: Sequence[Sample], k: int, bit_budget: int
) -> Optional[dict[Sample, CompressionKey]]:
    """Backtracking search for a key assignment whose same-key groups are
    pairwise conflict-free; None when exhaustive search rules one out.

    A group is served by a single reconstruction, so two samples may share a
    key only if they never disagree on a shared domain point.
    """
    candidates = {s: _candidate_keys(s, k, bit_budget) for s in samples}
    order = sorted(samples, key=lambda s: (len(candidates[s]), s.entries))
    groups: dict[CompressionKey, dict[int, int]] = {}
    assignment: dict[Sample, CompressionKey] = {}

    def assign(pos: int) -> bool:
        if pos == len(order):
            return True
        sample = order[pos]
        for key in candidates[sample]:
            group = groups.get(key)
            if group is None:
                groups[key] = dict(sample.content())
                assignment[sample] = key
                if assign(pos + 1):
                    return True
                del groups[key]
                del assignment[sample]
            else:
                if any(group.get(i, y) != y for i, y in sample.content()):
                    continue
                added = [i for i, _ in sample.content() if i not in group]
                for i, y in sample.content():
                    group[i] = y
                assignment[sample] = key
                if assign(pos + 1):
                    return True
                for i in added:
                    del group[i]
                del assignment[sample]
        return False

    if assign(0):
        return dict(assignment)
    return None


def _assignment_to_table(
    cls: ConceptClass, assignment: dict[Sample, CompressionKey]
) -> TableScheme:
    groups: dict[CompressionKey, dict[int, int]] = {}
    for sample, key in assignment.items():
        group = groups.setdefault(key, {})
        group.update(sample.content())
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
    max_k: Optional[int] = None,
    sample_budget: int = 20000,
) -> tuple[int, Optional[TableScheme]]:
    """Smallest k admitting a valid order-insensitive scheme with subsample
    size <= k and bit length <= bit_budget over all realizable samples of
    size m, plus a replayable certificate scheme at that k.

    Determined by exact search over key assignments: samples sharing a key
    must be pairwise conflict-free because one total reconstruction must
    serve them all.  Returns (math.inf, None) when no scheme exists within
    ``max_k`` (default m, which always suffices: the identity assignment
    puts every sample in its own group).
    """
    samples = []
    for sample in enumerate_realizable_samples(cls, m):
        samples.append(sample)
        if len(samples) > sample_budget:
            raise BudgetError(
                f"more than {sample_budget} realizable samples of size {m}"
            )
    if max_k is None:
        max_k = m
    if not samples:
        return 0, TableScheme(
            domain_size=cls.domain_size,
            compress_table=(),
            reconstruct_table=(),
            default_concept=(0,) * cls.domain_size,
        )
    for k in range(max_k + 1):
        assignment = _find_assignment(samples, k, bit_budget)
        if assignment is not None:
            return k, _assignment_to_table(cls, assignment)
    return math.inf, None


def min_compression_size(
    cls: ConceptClass,
    m: int,
    bit_budget: int,
    *,
    max_k: Optional[int] = None,
    sample_budget: int = 20000,
) -> int | float:
    k, table = min_compression_certificate(
        cls, m, bit_budget, max_k=max_k, sample_budget=sample_budget
    )
    if table is not None:
        report = verify_scheme(cls, table.as_scheme("min-compression"), m)
        if report.valid is not True:
            raise ContractViolationError(
                f"certificate at k={k} failed replay: {report.failures[:3]}"
            )
    return k


# --- compression implies disambiguation --------------------------------------


def extract_disambiguation(
    cls: ConceptClass,
    scheme: CompressionScheme,
    k: int,
    bit_budget: int,
) -> ConceptClass:
    """Apply the reconstruction to every (realizable sample of size <= k,
    bit string of length <= bit_budget) key and collect the distinct total
    concepts.  The collected class is checked to disambiguate ``cls``: every
    realizable sample must be matched by some extracted concept; a miss
    raises ContractViolationError naming the sample.

    The caller is responsible for the scheme being valid on ``cls`` for all
    sample sizes up to the support size; the reconstruction must tolerate
    every probed key (table schemes fall back to their default).
    """
    subsamples: list[Sample] = [Sample(())]
    for size in range(1, k + 1):
        subsamples.extend(enumerate_realizable_samples(cls, size))
    concepts: list[tuple[int, ...]] = []
    seen = set()
    for subsample in subsamples:
        for bits in _bitstrings(bit_budget):
            concept = scheme.reconstruct(CompressionKey(subsample, bits))
            if len(concept) != cls.domain_size or any(v == STAR for v in concept):
                raise ContractViolationError(
                    f"reconstruction returned an invalid concept {concept}"
                )
            if concept not in seen:
                seen.add(concept)
                concepts.append(tuple(concept))
    support = cls.support_indices()
    cap = max(len(support), 1)
    covered_contents: set[tuple[tuple[int, int], ...]] = set()
    for size in range(1, cap + 1):
        for sample in enumerate_realizable_samples(cls, size):
            content = sample.content()
            if content in covered_contents:
                continue
            covered_contents.add(content)
            if not any(
                all(concept[i] == y for i, y in content) for concept in concepts
            ):
                raise ContractViolationError(
                    f"extracted set fails to disambiguate sample {content}"
                )
    return ConceptClass(
        domain_size=cls.domain_size,
        concepts=tuple(concepts),
        kind=ClassKind.TOTAL,
    )


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

BOOST_EDGE = Fraction(1, 8)
HEADER_BITS = 24  # 8-bit block size + 16-bit round count, big-endian


def _erm_index(cls: ConceptClass, entries: Sequence[tuple[int, int]]) -> int:
    """Index of the first stored concept consistent with all entries."""
    for idx, concept in enumerate(cls.concepts):
        if all(concept[i] == y for i, y in entries):
            return idx
    raise RealizabilityError(f"no concept is consistent with {tuple(entries)}")


def _weak_blocks(entries: tuple[tuple[int, int], ...], size_cap: int):
    """Candidate sub-multisets: increasing size, lexicographic within."""
    seen = set()
    for size in range(1, size_cap + 1):
        for combo in itertools.combinations(entries, size):
            if combo not in seen:
                seen.add(combo)
                yield combo


def boosted_scheme(
    cls: ConceptClass,
    subsample_size: Optional[int] = None,
    *,
    round_cap_factor: int = 64,
) -> CompressionScheme:
    """Majority-vote compression via multiplicative-weights boosting.

    compress: repeatedly pick the first sub-multiset (at most
    ``subsample_size`` entries, increasing size then lexicographic) whose
    first-consistent-concept ERM has weighted error at most 1/2 - 1/8 on the
    sample; downweight correctly handled entries; stop once the plurality
    vote of the collected ERMs (ties toward the lowest label) is correct on
    the whole sample.  The key holds the concatenated blocks padded to
    uniform length by repeating their first entry, plus a fixed 24-bit
    header (8-bit block size, 16-bit round count).

    reconstruct: split by the header, rerun the deterministic ERM per block,
    return the plurality-vote concept over the full domain.

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

    beta = (Fraction(1, 2) - BOOST_EDGE) / (Fraction(1, 2) + BOOST_EDGE)
    threshold = Fraction(1, 2) - BOOST_EDGE

    def vote(erm_indices: Sequence[int]) -> tuple[int, ...]:
        out = []
        for x in range(cls.domain_size):
            counts: dict[int, int] = {}
            for idx in erm_indices:
                label = cls.concepts[idx][x]
                counts[label] = counts.get(label, 0) + 1
            best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
            out.append(best[0])
        return tuple(out)

    def _vote_from_key(entries: tuple[tuple[int, int], ...], rounds: int):
        # keys are canonical (sorted) multisets, so the block structure the
        # reconstructor sees is "sorted entries chunked in runs of
        # subsample_size"; the compressor stops on exactly this view
        erms = []
        for r in range(rounds):
            block = entries[r * subsample_size : (r + 1) * subsample_size]
            erms.append(_erm_index(cls, block))
        return vote(erms)

    def _make_key(blocks: Sequence[tuple[tuple[int, int], ...]]) -> CompressionKey:
        padded: list[tuple[int, int]] = []
        for blk in blocks:
            padded.extend(blk + (blk[0],) * (subsample_size - len(blk)))
        bits = format(subsample_size, "08b") + format(len(blocks), "016b")
        return CompressionKey(Sample(tuple(padded)), bits)

    def compress(sample: Sample) -> CompressionKey:
        entries = sample.entries
        if not entries:
            raise RealizabilityError("cannot compress an empty sample")
        m = len(entries)
        round_cap = round_cap_factor * max(1, math.ceil(math.log2(m + 1)))
        weights = [Fraction(1, m)] * m
        blocks: list[tuple[tuple[int, int], ...]] = []
        for _ in range(round_cap):
            chosen = None
            for block in _weak_blocks(entries, subsample_size):
                idx = _erm_index(cls, block)
                concept = cls.concepts[idx]
                error = sum(
                    w for w, (i, y) in zip(weights, entries) if concept[i] != y
                )
                if error <= threshold:
                    chosen = (block, idx)
                    break
            if chosen is None:
                raise RealizabilityError(
                    "no weak hypothesis found; sample not realizable at this "
                    "subsample size"
                )
            block, idx = chosen
            blocks.append(block)
            key = _make_key(blocks)
            voted = _vote_from_key(key.subsample.entries, len(blocks))
            if all(voted[i] == y for i, y in entries):
                return key
            concept = cls.concepts[idx]
            weights = [
                w * beta if concept[i] == y else w
                for w, (i, y) in zip(weights, entries)
            ]
            total = sum(weights)
            weights = [w / total for w in weights]
        raise ConvergenceError(
            f"plurality vote not correct after {round_cap} rounds"
        )

    def reconstruct(key: CompressionKey) -> tuple[int, ...]:
        bits = key.bits
        if len(bits) != HEADER_BITS:
            raise ValueError(f"malformed header: {bits!r}")
        size = int(bits[:8], 2)
        rounds = int(bits[8:], 2)
        entries = key.subsample.entries
        if size != subsample_size or rounds < 1 or len(entries) != size * rounds:
            raise ValueError("header does not match subsample length")
        return _vote_from_key(entries, rounds)

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
    """
    if t < 2:
        raise ValueError("star partition needs t >= 2")
    n = t - 1

    def totalized(v: int) -> tuple[int, ...]:
        return tuple(1 if i < v else (0 if i == v else 2) for i in range(n))

    all_ones = (1,) * n

    def compress(sample: Sample) -> CompressionKey:
        if not sample.entries:
            raise RealizabilityError("cannot compress an empty sample")
        zeros = [(i, y) for i, y in sample.entries if y == 0]
        if zeros:
            return CompressionKey(Sample((zeros[0],)), "")
        top = max(sample.entries)
        return CompressionKey(Sample((top,)), "")

    def reconstruct(key: CompressionKey) -> tuple[int, ...]:
        entries = key.subsample.entries
        if not entries:
            return all_ones
        index, label = entries[0]
        if label == 0:
            return totalized(index)
        return all_ones

    return CompressionScheme(
        name=f"star(t={t})", compress=compress, reconstruct=reconstruct
    )
