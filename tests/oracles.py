"""Definition-literal reference implementations used as independent oracles.

Everything here is written the slow, obvious way, straight from the
definitions, and deliberately shares no code with the package internals.
"""

from __future__ import annotations

import itertools

STAR = -1


def patterns_on(concepts, indices):
    """Distinct label vectors realized on the index sequence."""
    return {tuple(c[i] for i in indices) for c in concepts}


def realizable_multisets(concepts, m, label_universe):
    """All size-m (index, label) multisets consistent with some concept,
    enumerated over the full cross product of indices and labels."""
    if not concepts:
        return set()
    n = len(concepts[0])
    pairs = [(i, y) for i in range(n) for y in label_universe]
    out = set()
    for combo in itertools.combinations_with_replacement(pairs, m):
        for concept in concepts:
            if all(concept[i] == y for i, y in combo):
                out.add(tuple(sorted(combo)))
                break
    return out


def is_realizable(concepts, entries):
    return any(all(c[i] == y for i, y in entries) for c in concepts)


def vc_shattered(concepts, indices):
    realized = patterns_on(concepts, indices)
    return all(
        pattern in realized
        for pattern in itertools.product((0, 1), repeat=len(indices))
    )


def ds_shattered(concepts, indices):
    """Exists a subset of the full-support patterns where every pattern has
    an i-neighbor for every coordinate (checked over all subsets)."""
    d = len(indices)
    pats = sorted(p for p in patterns_on(concepts, indices) if STAR not in p)
    for r in range(1, len(pats) + 1):
        for subset in itertools.combinations(pats, r):
            ok = True
            for f in subset:
                for i in range(d):
                    has = any(
                        g[i] != f[i]
                        and all(g[j] == f[j] for j in range(d) if j != i)
                        for g in subset
                    )
                    if not has:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def n_shattered(concepts, indices):
    d = len(indices)
    realized = patterns_on(concepts, indices)
    for f1 in concepts:
        for f2 in concepts:
            if any(f1[i] == f2[i] for i in indices):
                continue
            if all(
                tuple(
                    f1[indices[pos]] if pos in chosen else f2[indices[pos]]
                    for pos in range(d)
                )
                in realized
                for size in range(d + 1)
                for chosen in map(set, itertools.combinations(range(d), size))
            ):
                return True
    return False


def g_shattered(concepts, indices):
    d = len(indices)
    realized = patterns_on(concepts, indices)
    for anchor in concepts:
        want = tuple(anchor[i] for i in indices)
        ok = True
        for size in range(d + 1):
            for chosen in map(set, itertools.combinations(range(d), size)):
                if not any(
                    all(
                        (pattern[pos] == want[pos]) == (pos in chosen)
                        for pos in range(d)
                    )
                    for pattern in realized
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def n_first_witness(concepts, indices):
    """The first Natarajan witness when ordered pairs of concepts are tried
    in ``itertools.permutations`` order: ``((f1, f2), mixtures)`` with f1, f2
    the pair's restrictions and ``mixtures[mask]`` taking f1 on the bit-set
    positions of mask and f2 elsewhere; None when no pair qualifies."""
    d = len(indices)
    realized = patterns_on(concepts, indices)
    for c1, c2 in itertools.permutations(concepts, 2):
        f1 = tuple(c1[i] for i in indices)
        f2 = tuple(c2[i] for i in indices)
        if any(f1[pos] == f2[pos] for pos in range(d)):
            continue
        mixtures = tuple(
            tuple(f1[pos] if (mask >> pos) & 1 else f2[pos] for pos in range(d))
            for mask in range(2**d)
        )
        if all(mix in realized for mix in mixtures):
            return (f1, f2), mixtures
    return None


def g_first_witness(concepts, indices):
    """The first graph witness when every concept, duplicate restrictions
    included, is tried as the anchor in stored order: ``(anchor, realizers)``
    with ``realizers[mask]`` the least realized pattern agreeing with the
    anchor exactly on the bit-set positions of mask; None when no anchor
    qualifies."""
    d = len(indices)
    realized = sorted(patterns_on(concepts, indices))
    for concept in concepts:
        anchor = tuple(concept[i] for i in indices)
        realizers = []
        for mask in range(2**d):
            hits = [
                pattern
                for pattern in realized
                if all(
                    (pattern[pos] == anchor[pos]) == bool((mask >> pos) & 1)
                    for pos in range(d)
                )
            ]
            if not hits:
                break
            realizers.append(hits[0])
        else:
            return anchor, tuple(realizers)
    return None


def naive_dimension(concepts, n, shattered) -> int:
    """Largest d with some shattered size-d subset, by scanning everything."""
    if not concepts:
        return -1
    best = 0
    for d in range(1, n + 1):
        for combo in itertools.combinations(range(n), d):
            if shattered(concepts, combo):
                best = d
                break
    return best


def chromatic_number_bruteforce(n, edges) -> int:
    """Smallest c such that some assignment of c colors is proper, by
    trying every assignment."""
    if n == 0:
        return 0
    if not edges:
        return 1
    for c in range(2, n + 1):
        for assignment in itertools.product(range(c), repeat=n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return c
    return n


def min_compression_bruteforce(concepts, m, k, bits):
    """Smallest k' <= k such that some order-insensitive scheme with
    subsamples of size <= k' and bit strings of length <= ``bits`` is valid
    on every realizable size-m sample; None when no k' <= k works.

    Tries every assignment of a candidate key (a sub-multiset of the sample
    paired with a bit string) to every realizable sample, and accepts one
    when every same-key group agrees with a single total concept over the
    labels the class uses.
    """
    if not concepts:
        return 0
    labels = sorted({y for c in concepts for y in c if y != STAR})
    samples = sorted(realizable_multisets(concepts, m, labels))
    n = len(concepts[0])
    totals = list(itertools.product(labels, repeat=n))
    bitstrings = [
        "".join(word)
        for length in range(bits + 1)
        for word in itertools.product("01", repeat=length)
    ]

    def feasible(size):
        candidates = []
        for sample in samples:
            subs = {
                sub
                for r in range(min(size, len(sample)) + 1)
                for sub in itertools.combinations(sample, r)
            }
            candidates.append(
                [(sub, b) for sub in sorted(subs) for b in bitstrings]
            )
        for keys in itertools.product(*candidates):
            groups = {}
            for sample, key in zip(samples, keys):
                groups.setdefault(key, []).extend(sample)
            if all(
                any(all(t[i] == y for i, y in entries) for t in totals)
                for entries in groups.values()
            ):
                return True
        return False

    for size in range(k + 1):
        if feasible(size):
            return size
    return None
