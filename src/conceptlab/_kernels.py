"""Pure-Python search kernels.

Both kernels operate on a canonical (sorted, distinct) list of full-support
patterns: tuples of equal length with non-negative integer entries.  They
implement two deliberately independent routes to the same question so that
one can serve as a correctness oracle for the other:

* ``ds_fixpoint`` groups the patterns, for each coordinate i, into buckets
  of mutual i-neighbors, and deletes any pattern that is the only live
  member of one of its buckets until stable.  It returns the maximal
  neighbor-closed subset (empty iff no witness exists).
* ``ds_bruteforce_mask`` enumerates every subset of the pattern list and
  checks the neighbor condition directly from the definition.

Two patterns are i-neighbors when they differ at coordinate i and agree at
every other coordinate.
"""

from __future__ import annotations

BRUTEFORCE_MAX_PATTERNS = 20


def ds_fixpoint(patterns: list[tuple[int, ...]]) -> list[int]:
    """Indices of the maximal subset in which every pattern has an
    i-neighbor for every coordinate i.  Returns [] when none exists.

    A bucket is the bitmask (bit a for pattern a) of the patterns that agree
    off coordinate i, so its members are mutual i-neighbors.  Sweeps delete
    a pattern alone among the live members of one of its buckets until
    nothing changes; deletion order does not change the greatest fixpoint."""
    if not patterns or not patterns[0]:
        return []
    buckets = []
    for i in range(len(patterns[0])):
        groups: dict[tuple[int, ...], int] = {}
        for a, pa in enumerate(patterns):
            key = pa[:i] + pa[i + 1:]
            groups[key] = groups.get(key, 0) | 1 << a
        buckets.extend(groups.values())
    alive = (1 << len(patterns)) - 1
    changed = True
    while changed:
        changed = False
        for bucket in buckets:
            live = bucket & alive
            if live and not live & (live - 1):
                alive ^= live
                changed = True
    return [f for f in range(len(patterns)) if (alive >> f) & 1]


def ds_bruteforce_mask(patterns: list[tuple[int, ...]]) -> int:
    """First (lowest) nonzero bitmask selecting a subset in which every
    pattern has an i-neighbor for every i; 0 when no subset qualifies.

    Definition-literal exhaustive search; kept free of any shared helper so
    it stays an independent oracle for ds_fixpoint.
    """
    p = len(patterns)
    if p > BRUTEFORCE_MAX_PATTERNS:
        raise ValueError(
            f"pattern set of size {p} exceeds exhaustive-search bound "
            f"{BRUTEFORCE_MAX_PATTERNS}"
        )
    if p == 0:
        return 0
    d = len(patterns[0])
    if d == 0:
        return 0
    for mask in range(1, 1 << p):
        good = True
        for f in range(p):
            if not (mask >> f) & 1:
                continue
            pf = patterns[f]
            for i in range(d):
                found = False
                for g in range(p):
                    if g == f or not (mask >> g) & 1:
                        continue
                    pg = patterns[g]
                    if pg[i] == pf[i]:
                        continue
                    agree = True
                    for j in range(d):
                        if j != i and pg[j] != pf[j]:
                            agree = False
                            break
                    if agree:
                        found = True
                        break
                if not found:
                    good = False
                    break
            if not good:
                break
        if good:
            return mask
    return 0
