"""Exact shattering checkers and dimension computation by subset search.

Four shattering notions are implemented over finite classes:

* VC: every binary pattern on S is realized with full support (only
  meaningful when defined labels lie in {0, 1}),
* DS: some subset of the full-support patterns on S is closed under having
  an i-neighbor in every coordinate,
* Natarajan: two concepts disagreeing everywhere on S whose 2^|S| mixtures
  are all realized,
* graph: one anchor concept such that every agreement set T within S is hit
  exactly by some concept.

Every check returns a self-verifying witness: ``ShatterWitness.verify``
re-derives the claim from the witness data alone, with no search.  The DS
check rejects S with fewer than 2^|S| full-support patterns at once (see
``ds_shatters``) and otherwise runs the pure-Python bucketed fixpoint in
``_kernels``; the definition-literal exhaustive search
``ds_shatters_bruteforce``, without that prune, is the independent oracle.

The Natarajan and graph checks return the first witness of the
definition-literal ordered searches: ordered concept pairs in
``itertools.permutations`` order, and anchors in stored concept order.  They
search less and reach the same witness:

* both stop at once when the restriction has fewer than 2^|S| distinct
  rows, since a witness needs 2^|S| distinct realized rows;
* both try only the distinct rows, in first-occurrence order, since a
  repeated row can only repeat a pair or an anchor tried before;
* Natarajan tries unordered pairs i < j, since (f1, f2) is a witness exactly
  when (f2, f1) is one, so the first ordered witness has i < j;
* both skip the rows that no witness can use, by the count behind the 2^|S|
  bound applied to one coordinate at a time, with d = |S|:

  - Natarajan keeps a row only if, at every coordinate i, at least
    2^(d-1) kept rows carry its label at i, and repeats until no row
    drops.  A witness's 2^d mixtures are distinct realized rows; at each
    i, 2^(d-1) of them carry f1[i] and the other 2^(d-1) carry f2[i], so
    by induction on the rounds every mixture, f1 and f2 included, is kept.
  - graph tries only anchors whose label at every coordinate i is carried
    by at least 2^(d-1) distinct rows and missing from at least 2^(d-1).
    The realizers of the masks containing i agree with the anchor at i;
    the other 2^(d-1) disagree with it there, with a defined label, since
    the class is total.

  Each filtered search tries a subsequence of the unfiltered order that
  holds every witness, so its first witness is the same.

Both run on int bitsets over the distinct rows, with one bit per row and
``by[i][y]`` the rows carrying label y at coordinate i (``core.label_bits``).
Natarajan accepts a pair when ``AND_i (by[i][f1[i]] | by[i][f2[i]])`` holds
2^|S| rows: f1 and f2 differ at every coordinate, so each such row is the
mixture of exactly one mask.  Graph builds the rows agreeing with the anchor
exactly on each mask as ANDs of ``by[i][anchor[i]]`` and its complement.
Every restriction is read by ``ConceptClass.project`` from columns the class
computes once.

``dimension`` skips every point that no shattered set of the level can
use.  The shared-label score of point j is the largest, over labels y, of
min(#concepts labelled y at j, #concepts with another defined label at j).
If S is shattered and |S| = d, every j in S scores at least 2^(d-1), for
each kind, because distinct restrictions come from distinct concepts:

* DS: split the neighbor-closed set by its label at j.  Every i-neighbor
  for i != j stays in its fibre, so each nonempty fibre is closed on the
  other d - 1 coordinates and holds at least 2^(d-1) patterns (the count
  in ``ds_shatters``); every pattern has a j-neighbor, so there are at
  least two fibres.  Take y the label of one fibre.
* VC: 2^(d-1) realized patterns have 0 at j and 2^(d-1) have 1.
* Natarajan: 2^(d-1) mixtures take f1[j] at j and 2^(d-1) take f2[j] !=
  f1[j].
* graph: the realizers of the masks containing j agree with the anchor at
  j, 2^(d-1) of them; the other 2^(d-1) disagree with it there, with a
  defined label, since the class is total.

For DS and VC, ``dimension`` also skips every subset that extends a dead
prefix.  It scans each level as a tree of prefixes in lexicographic order.
The live set L(P) of a prefix P starts as the concepts defined at every
point of P; then, round after round, it drops every concept whose label at
some point of P is carried by fewer than 2^(d-1) concepts of L(P), until a
round drops none.  P is dead when |L(P)| < 2^d.  Proof that no size-d
subset S extending a dead P is shattered: if S is DS-shattered by the
neighbor-closed set W (a VC-shattered S is, by all 2^d binary patterns),
let R be the concepts whose restriction to S lies in W.  The patterns of W
have full support, so R starts inside L(P).  No round drops a concept c of
R: at each point j of P, the fibre of W with c's label at j holds at least
2^(d-1) patterns (the split above), each from a distinct concept of R with
that label at j.  So |L(P)| >= |R| >= |W| >= 2^d.  Adding a point only
shrinks the start and adds conditions, so L(P) lies inside its parent's
live set, and it is computed by filtering that set: a concept undefined
at the new point carries none of its labels and drops in the first round.
With P = S the rule covers the count of concepts defined on all of S,
since L(S) lies inside them.  Natarajan and graph need a total class and
scan every subset of the kept points: ``n_shatters`` already applies the
row version of the count within each subset.

``dimension`` tries at most ``SUBSET_BUDGET`` subsets, then raises
BudgetError with the lower bound completed so far and its witness.  The
subsets under a dead prefix count as tried, all in one step when the
prefix is met, so the budget runs out at the same subset, with the same
report, as in the scan that tries each of them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

from conceptlab import _kernels
from conceptlab.core import STAR, ClassKind, ConceptClass, label_bits
from conceptlab.errors import BudgetError


class ShatterKind(str, Enum):
    VC = "vc"
    DS = "ds"
    NATARAJAN = "natarajan"
    GRAPH = "graph"


@dataclass(frozen=True)
class ShatterWitness:
    """Replayable evidence that ``indices`` is shattered.

    Field use by kind:

    * VC: ``patterns`` = all 2^d binary patterns (realized, full support).
    * DS: ``patterns`` = the surviving neighbor-closed pattern set;
      ``neighbors[p][i]`` = indices (into ``patterns``) of i-neighbors of
      pattern p inside the set.
    * NATARAJAN: ``pair`` = the two everywhere-disagreeing restrictions;
      ``realizers[mask]`` = the realized mixture taking pair[0] on the
      bit-set coordinates of mask and pair[1] elsewhere.
    * GRAPH: ``anchor`` = the shattering concept's restriction;
      ``realizers[mask]`` = a realized pattern agreeing with the anchor
      exactly on the bit-set coordinates of mask.
    """

    kind: ShatterKind
    indices: tuple[int, ...]
    patterns: tuple[tuple[int, ...], ...] = ()
    neighbors: tuple[tuple[tuple[int, ...], ...], ...] = ()
    pair: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    anchor: Optional[tuple[int, ...]] = None
    realizers: tuple[tuple[int, ...], ...] = ()

    def verify(self, cls: ConceptClass) -> bool:
        """Replay the witness against the class by direct definition.

        This is the independent check of every search above, so it stays
        definition-literal: it projects each concept itself rather than
        reading ``cls.columns`` or any bitset the searches use.

        A malformed witness is rejected, never raised on: the indices must be
        distinct points, every vector is read only once it is known realized
        on them, and every neighbor index must name a pattern."""
        try:
            _checked_indices(cls, self.indices)
        except ValueError:
            return False
        d = len(self.indices)
        realized = {
            tuple(concept[i] for i in self.indices) for concept in cls.concepts
        }
        if self.kind is ShatterKind.VC:
            want = set(itertools.product((0, 1), repeat=d))
            return set(self.patterns) == want and want <= realized
        if self.kind is ShatterKind.DS:
            pats = self.patterns
            if not pats or len(self.neighbors) != len(pats):
                return False
            if not all(q in realized and STAR not in q for q in pats):
                return False
            for pattern, hoods in zip(pats, self.neighbors):
                if len(hoods) != d:
                    return False
                for i, hood in enumerate(hoods):
                    if not hood:
                        return False
                    for q in hood:
                        if q not in range(len(pats)):
                            return False
                        other = pats[q]
                        if [j for j in range(d) if other[j] != pattern[j]] != [i]:
                            return False
            return True
        if self.kind is ShatterKind.NATARAJAN:
            if len(self.pair or ()) != 2 or len(self.realizers) != 1 << d:
                return False
            f1, f2 = self.pair
            if f1 not in realized or f2 not in realized:
                return False
            if any(f1[i] == f2[i] for i in range(d)):
                return False
            for mask, mix in enumerate(self.realizers):
                want = tuple(
                    f1[i] if (mask >> i) & 1 else f2[i] for i in range(d)
                )
                if mix != want or mix not in realized:
                    return False
            return True
        if self.kind is ShatterKind.GRAPH:
            if self.anchor is None or len(self.realizers) != 1 << d:
                return False
            if self.anchor not in realized:
                return False
            for mask, pattern in enumerate(self.realizers):
                if pattern not in realized:
                    return False
                for i in range(d):
                    agrees = pattern[i] == self.anchor[i]
                    if agrees != bool((mask >> i) & 1):
                        return False
            return True
        return False

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind.value, "indices": list(self.indices)}
        if self.kind in (ShatterKind.VC, ShatterKind.DS):
            data["patterns"] = [list(p) for p in self.patterns]
        if self.kind is ShatterKind.DS:
            data["neighbors"] = [
                [list(hood) for hood in per_pattern]
                for per_pattern in self.neighbors
            ]
        if self.kind is ShatterKind.NATARAJAN:
            data["pair"] = [list(self.pair[0]), list(self.pair[1])]
            data["realizers"] = [list(p) for p in self.realizers]
        if self.kind is ShatterKind.GRAPH:
            data["anchor"] = list(self.anchor)
            data["realizers"] = [list(p) for p in self.realizers]
        return data


@dataclass(frozen=True)
class DimensionResult:
    value: int
    witness: Optional[ShatterWitness]


def _checked_indices(cls: ConceptClass, indices: Sequence[int]) -> tuple[int, ...]:
    out = tuple(indices)
    if not out:
        raise ValueError("index sequence must be nonempty")
    for i in out:
        cls.check_index(i)
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate indices in {out}")
    return out


def _full_support_patterns(
    cls: ConceptClass, indices: tuple[int, ...]
) -> set[tuple[int, ...]]:
    """The distinct restrictions to the indices that have no STAR, unsorted:
    callers that only count or test membership skip the sort."""
    return {p for p in set(cls.project(indices)) if STAR not in p}


def _ds_witness(
    indices: tuple[int, ...], patterns: Sequence[tuple[int, ...]]
) -> ShatterWitness:
    """The patterns are distinct, so ``neighbors[q][i]``, the others that
    agree with pattern q off coordinate i, are exactly its i-neighbors."""
    neighbors: list[list[tuple[int, ...]]] = [[] for _ in patterns]
    for i in range(len(indices)):
        groups: dict[tuple[int, ...], list[int]] = {}
        for q, pattern in enumerate(patterns):
            groups.setdefault(pattern[:i] + pattern[i + 1:], []).append(q)
        for group in groups.values():
            for q in group:
                neighbors[q].append(tuple(r for r in group if r != q))
    return ShatterWitness(
        kind=ShatterKind.DS,
        indices=indices,
        patterns=tuple(patterns),
        neighbors=tuple(map(tuple, neighbors)),
    )


def ds_shatters(
    cls: ConceptClass, indices: Sequence[int]
) -> Optional[ShatterWitness]:
    """DS-shattering check via pruning to the maximal neighbor-closed set.

    Any union of valid witness sets is valid, so a maximal one exists and
    iterated deletion of patterns lacking an i-neighbor finds it; shattering
    holds iff the fixpoint is nonempty.

    A nonempty neighbor-closed set on d coordinates has at least 2^d
    patterns, so with fewer full-support patterns the fixpoint is not run.
    Proof: split the set by the value of its last coordinate.  Every
    i-neighbor for i < d lies in the same fibre, so each nonempty fibre is
    closed on d - 1 coordinates; every pattern has a d-neighbor in another
    fibre, so there are at least two fibres.  By induction, 2 * 2^(d-1).
    """
    indices = _checked_indices(cls, indices)
    patterns = _full_support_patterns(cls, indices)
    if len(patterns) < 1 << len(indices):
        return None
    patterns = sorted(patterns)
    surviving = _kernels.ds_fixpoint(patterns)
    if not surviving:
        return None
    return _ds_witness(indices, [patterns[s] for s in surviving])


def ds_shatters_bruteforce(
    cls: ConceptClass, indices: Sequence[int]
) -> Optional[ShatterWitness]:
    """Exhaustive-subset DS check; independent oracle for ``ds_shatters``.

    Searches every subset of the full-support patterns for one in which
    every pattern has an i-neighbor for every coordinate; guarded to at most
    20 patterns (2^20 subsets).
    """
    indices = _checked_indices(cls, indices)
    patterns = sorted(_full_support_patterns(cls, indices))
    try:
        mask = _kernels.ds_bruteforce_mask(patterns)
    except ValueError as exc:
        raise BudgetError(str(exc)) from exc
    if not mask:
        return None
    chosen = [patterns[q] for q in range(len(patterns)) if (mask >> q) & 1]
    return _ds_witness(indices, chosen)


def vc_shatters(
    cls: ConceptClass, indices: Sequence[int]
) -> Optional[ShatterWitness]:
    """All 2^d binary patterns realized with full support on the indices."""
    indices = _checked_indices(cls, indices)
    _require_binary(cls)
    realized = _full_support_patterns(cls, indices)
    want = set(itertools.product((0, 1), repeat=len(indices)))
    if not want <= realized:
        return None
    return ShatterWitness(
        kind=ShatterKind.VC, indices=indices, patterns=tuple(sorted(want))
    )


def _require_binary(cls: ConceptClass) -> None:
    labels = set(cls.labels_used())
    if not labels <= {0, 1}:
        raise ValueError(
            f"VC shattering needs labels within {{0, 1}}, class uses {sorted(labels)}"
        )


def _require_total(cls: ConceptClass, what: str) -> None:
    if cls.kind is not ClassKind.TOTAL:
        raise ValueError(f"{what} is defined for total classes only")


def _distinct_rows(
    cls: ConceptClass, indices: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Distinct restrictions to the indices, in first-occurrence order."""
    return list(dict.fromkeys(cls.project(indices)))


def n_shatters(
    cls: ConceptClass, indices: Sequence[int]
) -> Optional[ShatterWitness]:
    """Natarajan shattering; first witness in lexicographic pair order.

    Returns the witness that the definition-literal search finds first when
    it tries ordered pairs of concepts in ``itertools.permutations`` order.
    The search here tries unordered pairs a < b of the distinct
    restrictions in first-occurrence order, and reaches the same pair:

    * symmetry: (f1, f2) is a witness exactly when (f2, f1) is one, since
      mask and its complement swap their roles, so the first ordered witness
      (a, b) has a < b;
    * first occurrence: a concept repeating an earlier restriction forms
      only pairs already tried with that earlier concept, so a and b are
      first occurrences;
    * 2^d count: a witness's 2^d mixtures are distinct realized
      restrictions, so with fewer than 2^d distinct rows there is none;
    * row filter: every mixture is a live row, and so are f1 and f2, where
      a row stays live while, at every coordinate i, at least 2^(d-1) live
      rows carry its label at i.  At each i, 2^(d-1) mixtures carry f1[i]
      and the other 2^(d-1) carry f2[i], so no round drops a mixture.  The
      rounds repeat until no row drops, and a and b are tried only among
      the live rows, in the same order: a subsequence of the pairs above
      that holds every witness.

    Each test is on int bitsets over the distinct rows, with ``by[i][y]``
    the rows carrying label y at coordinate i.  A round keeps the AND over
    i of the OR of the ``by[i][y]`` that hold at least 2^(d-1) live rows.
    For live row a, the live rows b > a that disagree with f1 = rows[a]
    everywhere are those outside ``OR_i by[i][f1[i]]``; they are tried in
    ascending order.  The pair (f1, f2) is a witness exactly when
    ``AND_i (by[i][f1[i]] | by[i][f2[i]])`` has 2^d bits: f1 and f2 differ
    at every coordinate, so a row inside {f1[i], f2[i]} at every i is the
    mixture of exactly one mask, and the rows are distinct, so 2^d such rows
    realize every mask.  The mixtures are built only for the witness.
    """
    _require_total(cls, "Natarajan shattering")
    indices = _checked_indices(cls, indices)
    d = len(indices)
    rows = _distinct_rows(cls, indices)
    size = 1 << d
    if len(rows) < size:
        return None
    by = label_bits(zip(*rows))
    half = size >> 1
    live = (1 << len(rows)) - 1
    while True:
        kept = live
        for labels in by:
            kept &= functools.reduce(
                operator.or_,
                (bits for bits in labels.values() if (bits & live).bit_count() >= half),
                0,
            )
        if kept == live:
            break
        if kept.bit_count() < size:
            return None
        live = kept
    # own[r][i]: the rows sharing row r's label at coordinate i
    own = [tuple(map(dict.__getitem__, by, row)) for row in rows]
    for a, bits_a in enumerate(own):
        if not (live >> a) & 1:
            continue
        candidates = live & ~((2 << a) - 1) & ~functools.reduce(operator.or_, bits_a)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            b = low.bit_length() - 1
            cover = functools.reduce(operator.and_, map(operator.or_, bits_a, own[b]))
            if cover.bit_count() == size:
                f1, f2 = rows[a], rows[b]
                mixtures = tuple(
                    tuple(f1[i] if (mask >> i) & 1 else f2[i] for i in range(d))
                    for mask in range(size)
                )
                return ShatterWitness(
                    kind=ShatterKind.NATARAJAN,
                    indices=indices,
                    pair=(f1, f2),
                    realizers=mixtures,
                )
    return None


def g_shatters(
    cls: ConceptClass, indices: Sequence[int]
) -> Optional[ShatterWitness]:
    """Graph shattering; first anchor in stored concept order.

    Returns the witness that the definition-literal search finds first when
    it tries every concept's restriction as the anchor in stored order, and
    takes as the realizer of each agreement mask the least realized
    restriction with that mask.  The search here tries the distinct
    restrictions in first-occurrence order, and reaches the same anchor:

    * first occurrence: a repeated anchor gives the same masks as its first
      occurrence, which has already failed;
    * 2^d count: a witness's 2^d realizers have distinct agreement masks,
      hence are distinct rows, so with fewer than 2^d distinct rows there is
      none;
    * anchor filter: at each coordinate i, the 2^(d-1) realizers of the
      masks containing i carry the anchor's label there, and the other
      2^(d-1) carry another label, defined since the class is total.  So
      only anchors whose label at every i is carried by at least 2^(d-1)
      distinct rows and missing from at least 2^(d-1) are tried, in the
      same order: a subsequence that holds every witness.  The counts are
      read from the bitsets below, since they do not depend on row order.

    Each test is on int bitsets over the sorted distinct rows.  With
    ``same[i]`` the rows agreeing with the anchor at coordinate i, the rows
    agreeing with it exactly on mask are the AND over i of ``same[i]`` (bit
    i of mask set) or its complement within the rows (bit i clear).  These
    sets are built one coordinate at a time, and the anchor fails as soon
    as one is empty, since every mask extending it is empty too.  The
    realizer of a mask is the lowest set bit, the least sorted row.
    """
    _require_total(cls, "graph shattering")
    indices = _checked_indices(cls, indices)
    d = len(indices)
    rows = _distinct_rows(cls, indices)
    if len(rows) < 1 << d:
        return None
    sorted_rows = sorted(rows)
    by = label_bits(zip(*sorted_rows))
    half = 1 << (d - 1)
    # usable[i]: the labels at coordinate i that an anchor of a witness can carry
    usable = [
        {y for y, bits in labels.items() if half <= bits.bit_count() <= len(rows) - half}
        for labels in by
    ]
    full = (1 << len(rows)) - 1
    for anchor in rows:
        if not all(map(set.__contains__, usable, anchor)):
            continue
        # hits[mask] over the coordinates taken so far: coordinate i joins
        # as bit i, the high bit, so the list stays indexed by mask
        hits = [full]
        for same, label in zip(by, anchor):
            agree = same[label]
            differ = full & ~agree
            hits = [h & differ for h in hits] + [h & agree for h in hits]
            if 0 in hits:
                break
        else:
            return ShatterWitness(
                kind=ShatterKind.GRAPH,
                indices=indices,
                anchor=anchor,
                realizers=tuple(
                    sorted_rows[(h & -h).bit_length() - 1] for h in hits
                ),
            )
    return None


_CHECKERS = {
    ShatterKind.VC: vc_shatters,
    ShatterKind.DS: ds_shatters,
    ShatterKind.NATARAJAN: n_shatters,
    ShatterKind.GRAPH: g_shatters,
}


SUBSET_BUDGET = 1_000_000
"""Most index subsets ``dimension`` tries in one search."""


def _shared_label_scores(cls: ConceptClass) -> list[int]:
    """``score[j]``: the largest, over labels y, of the smaller of the
    number of concepts labelled y at point j and the number with another
    defined label there (0 at a point with fewer than two defined labels).
    Read from ``cls.holders``; the concepts are distinct, so the holders of
    one point are disjoint and their sizes sum to the concepts defined there.
    """
    sizes: list[list[int]] = [[] for _ in range(cls.domain_size)]
    for (j, _), bits in cls.holders.items():
        sizes[j].append(bits.bit_count())
    return [max((min(c, sum(cs) - c) for c in cs), default=0) for cs in sizes]


def _fibre_live(live: int, columns: Sequence[Sequence[int]], d: int) -> int:
    """The concepts of ``live`` left when every concept whose label at some
    point is carried by fewer than 2^(d-1) of those left is dropped, until
    none drops; 0 once fewer than 2^d are left.  ``columns`` holds, per
    point, the holder bitsets of its defined labels, so the first round
    also drops every concept undefined at one of the points."""
    size = 1 << d
    half = size >> 1
    while live.bit_count() >= size:
        kept = live
        for labels in columns:
            keep = 0
            for bits in labels:
                if (bits & kept).bit_count() >= half:
                    keep |= bits
            kept &= keep
        if kept == live:
            return live
        live = kept
    return 0


def _fibre_scan(
    cls: ConceptClass, points: Sequence[int], d: int
) -> Iterator[tuple[int, Optional[tuple[int, ...]]]]:
    """The size-d subsets of the points in lexicographic order, as
    ``(count, subset)`` pairs: ``(1, S)`` for a subset to check, and
    ``(n, None)`` for a block of n consecutive subsets that extend a prefix
    whose ``_fibre_live`` set holds fewer than 2^d concepts.  Each prefix
    filters its parent's live set, which holds its own."""
    columns: list[list[int]] = [[] for _ in range(cls.domain_size)]
    for (j, _), bits in cls.holders.items():
        columns[j].append(bits)
    m = len(points)

    def extend(prefix, prefix_columns, live, start):
        k = len(prefix) + 1
        for a in range(start, m - d + k):
            j = points[a]
            sub_columns = prefix_columns + (columns[j],)
            sub = _fibre_live(live, sub_columns, d)
            if not sub:
                yield math.comb(m - 1 - a, d - k), None
            elif k == d:
                yield 1, prefix + (j,)
            else:
                yield from extend(prefix + (j,), sub_columns, sub, a + 1)

    return extend((), (), (1 << cls.n_concepts) - 1, 0)


def _check_kind_applies(cls: ConceptClass, kind: ShatterKind) -> None:
    """The ValueError every call of the kind's checker raises on this class,
    whatever the indices: VC needs labels within {0, 1}, Natarajan and
    graph a total class."""
    if kind is ShatterKind.VC:
        _require_binary(cls)
    elif kind is ShatterKind.NATARAJAN:
        _require_total(cls, "Natarajan shattering")
    elif kind is ShatterKind.GRAPH:
        _require_total(cls, "graph shattering")


def dimension(cls: ConceptClass, kind: ShatterKind) -> DimensionResult:
    """Largest d such that some size-d index subset is shattered.

    Conventions: the empty class has dimension -1; a nonempty class with no
    shattered singleton has dimension 0.  The search ascends d and stops at
    the first empty level, which is sound because shattering is
    subset-monotone.

    Level d scans, in lexicographic order, only the subsets of the points
    whose ``_shared_label_scores`` reach 2^(d-1): every point of a shattered
    S of size d does, for each kind (proof in the module docstring).  A
    skipped subset is never shattered, so the first shattered subset of
    each level, hence every dimension and witness, is that of the scan over
    all subsets.  A level with fewer than d such points is empty.  Since a
    score is at most half the concepts, no level past log2 of the class
    size is scanned.

    For DS and VC, the subsets that extend a prefix with fewer than 2^d
    live concepts (``_fibre_live``) are skipped whole, after they are
    counted as tried: none is shattered (proof in the module docstring),
    so the first shattered subset of each level is again unchanged.

    On a nonempty class with at least one point, raises before any search
    the ValueError that every call of the kind's checker raises: VC on
    labels outside {0, 1}, Natarajan and graph on a partial class.

    Raises BudgetError before trying subset number ``SUBSET_BUDGET + 1``;
    a subset of a point the score bound skips is not tried, a subset under
    a dead prefix is, and a dead prefix counts all of its subsets in one
    step.  Its ``report`` holds ``kind``, ``lower_bound`` (the best
    completed result, a DimensionResult) and ``level`` (the d being
    scanned).
    """
    kind = ShatterKind(kind)
    if cls.n_concepts == 0:
        return DimensionResult(value=-1, witness=None)
    if cls.domain_size:
        _check_kind_applies(cls, kind)
    check = _CHECKERS[kind]
    fibre = kind in (ShatterKind.DS, ShatterKind.VC)
    score = _shared_label_scores(cls)
    best = DimensionResult(value=0, witness=None)
    tried = 0
    for d in range(1, cls.domain_size + 1):
        points = [j for j, s in enumerate(score) if s >= 1 << (d - 1)]
        if fibre:
            scan = _fibre_scan(cls, points, d)
        else:
            scan = zip(itertools.repeat(1), itertools.combinations(points, d))
        for count, combo in scan:
            if tried + count > SUBSET_BUDGET:
                raise BudgetError(
                    f"subset budget {SUBSET_BUDGET} exhausted at d={d}; "
                    f"{kind.value} dimension is at least {best.value}",
                    report={"kind": kind, "lower_bound": best, "level": d},
                )
            tried += count
            if combo is None:
                continue
            witness = check(cls, combo)
            if witness is not None:
                best = DimensionResult(value=d, witness=witness)
                break
        else:
            break
    return best
