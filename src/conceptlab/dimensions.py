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
check runs on the selected kernel backend (compiled or pure); the
definition-literal exhaustive search ``ds_shatters_bruteforce`` is retained
as an independent correctness oracle.

The Natarajan and graph checks return the first witness of the
definition-literal ordered searches: ordered concept pairs in
``itertools.permutations`` order, and anchors in stored concept order.  They
search less and reach the same witness:

* both stop at once when the restriction has fewer than 2^|S| distinct
  rows, since a witness needs 2^|S| distinct realized rows;
* both try only the distinct rows, in first-occurrence order, since a
  repeated row can only repeat a pair or an anchor tried before;
* Natarajan tries unordered pairs i < j, since (f1, f2) is a witness exactly
  when (f2, f1) is one, so the first ordered witness has i < j.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from conceptlab import _kernels
from conceptlab.core import STAR, ClassKind, ConceptClass
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
        """Replay the witness against the class by direct definition."""
        d = len(self.indices)
        if d == 0:
            return False
        realized = {
            tuple(concept[i] for i in self.indices) for concept in cls.concepts
        }
        if self.kind is ShatterKind.VC:
            want = set(itertools.product((0, 1), repeat=d))
            return set(self.patterns) == want and want <= realized
        if self.kind is ShatterKind.DS:
            pats = self.patterns
            if not pats:
                return False
            if len(self.neighbors) != len(pats):
                return False
            for p, pattern in enumerate(pats):
                if pattern not in realized or any(v == STAR for v in pattern):
                    return False
                for i in range(d):
                    hood = self.neighbors[p][i]
                    if not hood:
                        return False
                    for q in hood:
                        other = pats[q]
                        if other[i] == pattern[i]:
                            return False
                        if any(
                            other[j] != pattern[j] for j in range(d) if j != i
                        ):
                            return False
            return True
        if self.kind is ShatterKind.NATARAJAN:
            if self.pair is None or len(self.realizers) != 1 << d:
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
) -> list[tuple[int, ...]]:
    pats = {tuple(concept[i] for i in indices) for concept in cls.concepts}
    return sorted(p for p in pats if STAR not in p)


def _ds_witness(
    indices: tuple[int, ...], patterns: Sequence[tuple[int, ...]]
) -> ShatterWitness:
    d = len(indices)
    neighbors = []
    for pattern in patterns:
        per_coord = []
        for i in range(d):
            hood = tuple(
                q
                for q, other in enumerate(patterns)
                if other[i] != pattern[i]
                and all(other[j] == pattern[j] for j in range(d) if j != i)
            )
            per_coord.append(hood)
        neighbors.append(tuple(per_coord))
    return ShatterWitness(
        kind=ShatterKind.DS,
        indices=indices,
        patterns=tuple(patterns),
        neighbors=tuple(neighbors),
    )


def ds_shatters(
    cls: ConceptClass, indices: Sequence[int]
) -> Optional[ShatterWitness]:
    """DS-shattering check via pruning to the maximal neighbor-closed set.

    Any union of valid witness sets is valid, so a maximal one exists and
    iterated deletion of patterns lacking an i-neighbor finds it; shattering
    holds iff the fixpoint is nonempty.
    """
    indices = _checked_indices(cls, indices)
    patterns = _full_support_patterns(cls, indices)
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
    patterns = _full_support_patterns(cls, indices)
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
    labels = set(cls.labels_used())
    if not labels <= {0, 1}:
        raise ValueError(
            f"VC shattering needs labels within {{0, 1}}, class uses {sorted(labels)}"
        )
    realized = set(_full_support_patterns(cls, indices))
    want = set(itertools.product((0, 1), repeat=len(indices)))
    if not want <= realized:
        return None
    return ShatterWitness(
        kind=ShatterKind.VC, indices=indices, patterns=tuple(sorted(want))
    )


def _require_total(cls: ConceptClass, what: str) -> None:
    if cls.kind is not ClassKind.TOTAL:
        raise ValueError(f"{what} is defined for total classes only")


def _distinct_rows(
    cls: ConceptClass, indices: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Distinct restrictions to the indices, in first-occurrence order."""
    return list(
        dict.fromkeys(tuple(concept[i] for i in indices) for concept in cls.concepts)
    )


def n_shatters(
    cls: ConceptClass, indices: Sequence[int]
) -> Optional[ShatterWitness]:
    """Natarajan shattering; first witness in lexicographic pair order.

    Returns the witness that the definition-literal search finds first when
    it tries ordered pairs of concepts in ``itertools.permutations`` order.
    The search here tries unordered pairs i < j of the distinct
    restrictions in first-occurrence order, and reaches the same pair:

    * symmetry: (f1, f2) is a witness exactly when (f2, f1) is one, since
      mask and its complement swap their roles, so the first ordered witness
      (a, b) has a < b;
    * first occurrence: a concept repeating an earlier restriction forms
      only pairs already tried with that earlier concept, so a and b are
      first occurrences;
    * 2^d count: a witness's 2^d mixtures are distinct realized
      restrictions, so with fewer than 2^d distinct rows there is none.
    """
    _require_total(cls, "Natarajan shattering")
    indices = _checked_indices(cls, indices)
    d = len(indices)
    rows = _distinct_rows(cls, indices)
    if len(rows) < 1 << d:
        return None
    realized = set(rows)
    for a, f1 in enumerate(rows):
        for f2 in rows[a + 1 :]:
            if not all(map(operator.ne, f1, f2)):
                continue
            mixtures = []
            for mask in range(1 << d):
                mix = tuple(f1[i] if (mask >> i) & 1 else f2[i] for i in range(d))
                if mix not in realized:
                    break
                mixtures.append(mix)
            else:
                return ShatterWitness(
                    kind=ShatterKind.NATARAJAN,
                    indices=indices,
                    pair=(f1, f2),
                    realizers=tuple(mixtures),
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
      none.
    """
    _require_total(cls, "graph shattering")
    indices = _checked_indices(cls, indices)
    d = len(indices)
    rows = _distinct_rows(cls, indices)
    if len(rows) < 1 << d:
        return None
    sorted_rows = sorted(rows)
    for anchor in rows:
        by_mask: dict[int, tuple[int, ...]] = {}
        for pattern in sorted_rows:
            mask = 0
            for i in range(d):
                if pattern[i] == anchor[i]:
                    mask |= 1 << i
            if mask not in by_mask:
                by_mask[mask] = pattern
        if len(by_mask) == 1 << d:
            return ShatterWitness(
                kind=ShatterKind.GRAPH,
                indices=indices,
                anchor=anchor,
                realizers=tuple(by_mask[mask] for mask in range(1 << d)),
            )
    return None


_CHECKERS = {
    ShatterKind.VC: vc_shatters,
    ShatterKind.DS: ds_shatters,
    ShatterKind.NATARAJAN: n_shatters,
    ShatterKind.GRAPH: g_shatters,
}


def shatters(
    cls: ConceptClass, indices: Sequence[int], kind: ShatterKind
) -> Optional[ShatterWitness]:
    return _CHECKERS[ShatterKind(kind)](cls, indices)


def dimension(
    cls: ConceptClass, kind: ShatterKind, *, exhaustive: bool = False
) -> DimensionResult:
    """Largest d such that some size-d index subset is shattered.

    Conventions: the empty class has dimension -1; a nonempty class with no
    shattered singleton has dimension 0.  The search ascends d and normally
    stops at the first empty level, which is sound because shattering is
    subset-monotone; ``exhaustive=True`` forces scanning every level (used
    to validate the early exit).
    """
    kind = ShatterKind(kind)
    if cls.n_concepts == 0:
        return DimensionResult(value=-1, witness=None)
    check = _CHECKERS[kind]
    best = DimensionResult(value=0, witness=None)
    for d in range(1, cls.domain_size + 1):
        found = None
        for combo in itertools.combinations(range(cls.domain_size), d):
            witness = check(cls, combo)
            if witness is not None:
                found = witness
                break
        if found is None:
            if not exhaustive:
                break
        else:
            best = DimensionResult(value=d, witness=found)
    return best


def dual_dimension(cls: ConceptClass, kind: ShatterKind) -> int:
    """Dimension of the transposed class."""
    from conceptlab.core import dual

    return dimension(dual(cls), kind).value
