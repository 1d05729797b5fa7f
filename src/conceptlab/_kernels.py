"""Pure-Python search kernels.

Both kernels operate on a canonical (sorted, distinct) list of full-support
patterns: tuples of equal length with non-negative integer entries.  They
implement two deliberately independent routes to the same question so that
one can serve as a correctness oracle for the other:

* ``ds_fixpoint`` groups the patterns, for each coordinate i, into buckets
  of mutual i-neighbors, and deletes any pattern that is the only live
  member of one of its buckets until stable.  It returns the maximal
  neighbor-closed subset (empty iff no witness exists), and returns it
  empty as soon as fewer than 2^d patterns are live, d the pattern length:
  a nonempty neighbor-closed set on d coordinates has at least 2^d
  patterns (the lemma behind the count in ``dimensions.ds_shatters``).
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
    off coordinate i, so its members are mutual i-neighbors.  A pattern
    alone in one of its buckets has no i-neighbor at all, so it is deleted
    as soon as the buckets of i are built.  Sweeps then delete a pattern
    alone among the live members of one of its buckets until nothing
    changes; deletion order does not change the greatest fixpoint.

    The greatest fixpoint lies inside the live set, and a nonempty one has
    at least 2^d patterns for d = len(patterns[0]), so [] is returned as
    soon as fewer than 2^d patterns are live: checked after the buckets of
    each coordinate and after each sweep that deletes something."""
    if not patterns or not patterns[0]:
        return []
    d = len(patterns[0])
    size = 1 << d
    alive = (1 << len(patterns)) - 1
    buckets = []
    for i in range(d):
        groups: dict[tuple[int, ...], int] = {}
        for a, pa in enumerate(patterns):
            key = pa[:i] + pa[i + 1:]
            groups[key] = groups.get(key, 0) | 1 << a
        for bucket in groups.values():
            if bucket & (bucket - 1):
                buckets.append(bucket)
            else:
                alive &= ~bucket
        if alive.bit_count() < size:
            return []
    changed = True
    while changed:
        changed = False
        for bucket in buckets:
            live = bucket & alive
            if live and not live & (live - 1):
                alive ^= live
                changed = True
        if changed and alive.bit_count() < size:
            return []
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
