"""Definition-literal reference implementations used as independent oracles.

Everything here is written the slow, obvious way, straight from the
definitions, and deliberately shares no code with the package internals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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


def covers_realizable_contents(concepts, totals):
    """True when every realizable multiset of size 1 up to the support size
    (the points some concept defines) agrees on every entry with some
    concept in ``totals``, checked by enumerating all of them."""
    if not concepts:
        return True
    n = len(concepts[0])
    labels = sorted({y for c in concepts for y in c if y != STAR})
    support = [i for i in range(n) if any(c[i] != STAR for c in concepts)]
    for m in range(1, max(len(support), 1) + 1):
        for sample in realizable_multisets(concepts, m, labels):
            if not any(all(t[i] == y for i, y in sample) for t in totals):
                return False
    return True


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


def ds_fixpoint_pairwise(patterns):
    """Survivor indices of the DS fixpoint by pairwise neighbor test and
    iterated deletion: the O(p^2 * d) comparison of every pair of patterns,
    then deletion of patterns lacking a live i-neighbor until stable."""
    p = len(patterns)
    if p == 0:
        return []
    d = len(patterns[0])
    if d == 0:
        return []
    # neighbor bitmasks: nbr[a][i] has bit b set iff patterns a, b differ
    # exactly at coordinate i
    nbr = [[0] * d for _ in range(p)]
    for a in range(p):
        pa = patterns[a]
        for b in range(a + 1, p):
            pb = patterns[b]
            diff = -1
            for i in range(d):
                if pa[i] != pb[i]:
                    if diff >= 0:
                        diff = -2
                        break
                    diff = i
            if diff >= 0:
                nbr[a][diff] |= 1 << b
                nbr[b][diff] |= 1 << a
    alive = (1 << p) - 1
    changed = True
    while changed:
        changed = False
        for f in range(p):
            if not (alive >> f) & 1:
                continue
            row = nbr[f]
            for i in range(d):
                if not row[i] & alive:
                    alive &= ~(1 << f)
                    changed = True
                    break
    return [f for f in range(p) if (alive >> f) & 1]


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


def natarajan_row_filter_drops(concepts, indices):
    """The number of distinct rows each round of the Natarajan row filter
    drops, until a round drops none.  A round keeps a row when, at every
    position, at least 2^(d-1) of the rows kept so far carry its label
    there."""
    d = len(indices)
    live = patterns_on(concepts, indices)
    drops = []
    while True:
        keep = {
            row
            for row in live
            if all(
                sum(1 for other in live if other[pos] == row[pos]) >= 2 ** (d - 1)
                for pos in range(d)
            )
        }
        if keep == live:
            return drops
        drops.append(len(live - keep))
        live = keep


def graph_anchors_filtered(concepts, indices):
    """The number of distinct rows the graph anchor filter rejects: those
    whose label at some position is carried by fewer than 2^(d-1) distinct
    rows, or missing from fewer than 2^(d-1) of them."""
    d = len(indices)
    rows = patterns_on(concepts, indices)
    half = 2 ** (d - 1)
    return sum(
        1
        for row in rows
        if not all(
            half <= sum(1 for other in rows if other[pos] == row[pos]) <= len(rows) - half
            for pos in range(d)
        )
    )


def shared_label_score(concepts, j):
    """The largest, over the labels y defined at point j, of the smaller of
    the number of concepts labelled y at j and the number labelled with
    another defined label there; 0 when no label is defined at j."""
    best = 0
    for y in {c[j] for c in concepts if c[j] != STAR}:
        same = sum(1 for c in concepts if c[j] == y)
        other = sum(1 for c in concepts if c[j] != STAR and c[j] != y)
        best = max(best, min(same, other))
    return best


def defined_everywhere(concepts, indices):
    """Number of concepts with a defined label at every index."""
    return sum(1 for c in concepts if all(c[i] != STAR for i in indices))


def fibre_live(concepts, prefix, d):
    """The concepts left of those defined at every point of the prefix when,
    round after round, every concept whose label at some prefix point is
    carried by fewer than 2^(d-1) of the concepts left is dropped, until a
    round drops none."""
    live = [c for c in concepts if all(c[j] != STAR for j in prefix)]
    while True:
        count = {}
        for c in live:
            for j in prefix:
                count[j, c[j]] = count.get((j, c[j]), 0) + 1
        keep = [
            c for c in live if all(count[j, c[j]] >= 2 ** (d - 1) for j in prefix)
        ]
        if len(keep) == len(live):
            return keep
        live = keep


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


def _key_search_subs(samples, k, bits):
    """The first len(samples) bit strings of length at most ``bits``
    (shortest first, then lexicographic), and each sample's distinct
    sub-multisets of at most k entries, sorted."""
    strings = list(itertools.islice(
        (
            "".join(word)
            for length in range(bits + 1)
            for word in itertools.product("01", repeat=length)
        ),
        len(samples),
    ))
    subs_of = [
        sorted({
            sub
            for size in range(k + 1)
            for sub in itertools.combinations(entries, size)
        })
        for entries in samples
    ]
    return strings, subs_of


def key_search_keys(samples, k, bits):
    """The key that each id of ``key_search_inputs`` stands for, in id
    order: (sub-multiset, bit string)."""
    strings, subs_of = _key_search_subs(samples, k, bits)
    return [(sub, s) for sub in sorted(set().union(*subs_of)) for s in strings]


def key_search_inputs(samples, k, bits):
    """The key lists and conflict rows of the level-k key search over the
    samples (sorted tuples of (point, label) entries), built from scratch.

    A sample's keys are its distinct sub-multisets of at most k entries,
    each with one of the first len(samples) bit strings of length at most
    ``bits`` (shortest first, then lexicographic).  Key id = the rank of the
    sub-multiset among every sample's, sorted, times the number of bit
    strings, plus the bit string's rank.  Row v has bit u set when samples
    u and v hold some point with different labels.
    """
    strings, subs_of = _key_search_subs(samples, k, bits)
    rank = {sub: r for r, sub in enumerate(sorted(set().union(*subs_of)))}
    lists = [
        [rank[sub] * len(strings) + j for sub in subs for j in range(len(strings))]
        for subs in subs_of
    ]
    holders = {}  # point -> label -> the samples holding that entry
    for v, entries in enumerate(samples):
        for i, y in entries:
            holders.setdefault(i, {}).setdefault(y, set()).add(v)
    rows = [0] * len(samples)
    for by_label in holders.values():
        for y, these in by_label.items():
            for z, those in by_label.items():
                if y != z:
                    for v in these:
                        for u in those:
                            rows[v] |= 1 << u
    return lists, rows


def boosted_compress_reference(concepts, entries, subsample_size):
    """The boosted scheme's key for a sample, straight from its definition:
    AdaBoost.M1 with edge 1/8 over ``Fraction`` weights normalised every
    round, the ERM (first concept consistent with a block) recomputed at
    every use, and candidate blocks of 1..``subsample_size`` entries taken in
    increasing size, then lexicographic order, each distinct block once.

    A round adds the first block whose ERM has weighted error at most 3/8
    and stops when the plurality vote (ties to the lowest label) of the ERMs
    of the key's blocks is right on every entry.  The key's blocks are read
    as the reconstructor reads them: the padded blocks, sorted together,
    cut into runs of ``subsample_size``.

    Returns ``(key entries, bits)``, the bits being the 8-bit block size and
    the 16-bit round count; None when the vote is still wrong after
    64 * max(1, ceil(log2(m + 1))) rounds.
    """
    entries = tuple(sorted(entries))
    m = len(entries)
    n = len(concepts[0])
    s = subsample_size

    def erm(block):
        for idx, concept in enumerate(concepts):
            if all(concept[i] == y for i, y in block):
                return idx
        raise ValueError(f"no concept is consistent with {block}")

    def vote(key_entries, rounds):
        erms = [erm(key_entries[r * s : (r + 1) * s]) for r in range(rounds)]
        out = []
        for x in range(n):
            counts = {}
            for idx in erms:
                label = concepts[idx][x]
                counts[label] = counts.get(label, 0) + 1
            out.append(max(sorted(counts), key=lambda y: counts[y]))
        return out

    candidates = []
    for size in range(1, s + 1):
        for combo in itertools.combinations(entries, size):
            if combo not in candidates:
                candidates.append(combo)
    threshold = Fraction(1, 2) - Fraction(1, 8)
    beta = threshold / (Fraction(1, 2) + Fraction(1, 8))
    weights = [Fraction(1, m)] * m
    chosen = []
    for _ in range(64 * max(1, math.ceil(math.log2(m + 1)))):
        for block in candidates:
            concept = concepts[erm(block)]
            error = sum(
                w for w, (i, y) in zip(weights, entries) if concept[i] != y
            )
            if error <= threshold:
                break
        else:
            raise ValueError("no weak block")
        chosen.append(block)
        key_entries = tuple(
            sorted(e for blk in chosen for e in blk + (blk[0],) * (s - len(blk)))
        )
        voted = vote(key_entries, len(chosen))
        if all(voted[i] == y for i, y in entries):
            return key_entries, format(s, "08b") + format(len(chosen), "016b")
        weights = [
            w * beta if concept[i] == y else w
            for w, (i, y) in zip(weights, entries)
        ]
        total = sum(weights)
        weights = [w / total for w in weights]
    return None


class NotAConcept(Exception):
    """``verify_reference`` met a reconstruction that is not a total
    concept of non-negative int labels over the domain."""


def verify_reference(concepts, m, compress, reconstruct, make_sample):
    """Replay a scheme on every realizable size-m sample, one sample at a
    time and one entry at a time, from the definition.

    The samples are ``realizable_multisets`` over the labels the class uses,
    sorted, each passed to ``compress`` as ``make_sample(entries)``.  A
    sample fails at the point of the first key entry it does not contain
    (a key may repeat an entry), or else at the first entry on which the
    reconstruction disagrees.  Every reconstruction is checked, at every
    sample, for being one non-negative int label per point; NotAConcept
    when one is not.

    Returns ``(valid, k_of_m, failures, samples_checked)``, where
    ``failures`` lists ``(entries, index)`` in sample order and ``k_of_m``
    is the largest max(|subsample|, |bits|) over all keys.
    """
    n = len(concepts[0])
    labels = sorted({y for c in concepts for y in c if y != STAR})
    k_of_m = 0
    failures = []
    checked = 0
    for entries in sorted(realizable_multisets(concepts, m, labels)):
        key = compress(make_sample(entries))
        checked += 1
        sub = key.subsample.entries
        k_of_m = max(k_of_m, len(sub), len(key.bits))
        missing = [i for i, y in sub if (i, y) not in entries]
        if missing:
            failures.append((entries, missing[0]))
            continue
        concept = reconstruct(key)
        if len(concept) != n or not all(
            isinstance(y, int) and not isinstance(y, bool) and y >= 0
            for y in concept
        ):
            raise NotAConcept(f"{concept!r} for key {key!r}")
        wrong = [i for i, y in entries if concept[i] != y]
        if wrong:
            failures.append((entries, wrong[0]))
    return not failures, k_of_m, failures, checked


class NodeBudgetExhausted(Exception):
    """``list_coloring_rescan`` tried more colors than its node budget."""


def _clique_exceeds_lists(lists, conflicts):
    """True when a greedy clique of pairwise conflicting vertices has more
    members than the union of their lists.  The clique starts at the vertex
    with the shortest list (ties: most conflicts, then lowest index) and
    repeatedly adds the candidate that brings the fewest new colors (ties:
    most conflicts within the remaining candidates, then lowest index)."""
    if not lists:
        return False
    start = min(
        range(len(lists)),
        key=lambda v: (len(lists[v]), -conflicts[v].bit_count(), v),
    )
    colors = set(lists[start])
    size = 1
    candidates = conflicts[start]
    while candidates and size <= len(colors):
        best = None
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            rank = (
                sum(1 for c in lists[w] if c not in colors),
                -(conflicts[w] & candidates).bit_count(),
                w,
            )
            if best is None or rank < best:
                best = rank
        w = best[2]
        colors.update(lists[w])
        size += 1
        candidates &= conflicts[w]
    return size > len(colors)


def list_coloring_rescan(lists, conflicts, node_budget=None):
    """The exact list coloring search as it was before saturation counts
    were kept incrementally: at every node, ``select`` recounts the usable
    colors of every uncolored vertex.  The reference for
    ``helpers.list_coloring``, which must return the same coloring (or
    None) after the same number of nodes.

    A greedy clique refutation first; then DSatur: the uncolored vertex
    with the fewest usable colors, ties to the lowest index, the scan
    stopping at the first vertex with at most one.  Colors listed by
    exactly the same vertices are interchangeable, so of those that no
    vertex uses yet only the lowest is tried; a vertex tries its usable
    colors in list order; one node per color tried.  Raises
    NodeBudgetExhausted past ``node_budget`` nodes.
    """
    n = len(lists)
    if _clique_exceeds_lists(lists, conflicts):
        return None
    holders = {}
    for v, colors in enumerate(lists):
        for c in colors:
            holders[c] = holders.get(c, 0) | (1 << v)
    n_colors = max(holders, default=-1) + 1
    classes = {}
    for c in sorted(holders):
        classes.setdefault(holders[c], []).append(c)
    slot = [(0, 0)] * n_colors  # color -> (its class, its rank there)
    for cl, colors in enumerate(classes.values()):
        for rank, c in enumerate(colors):
            slot[c] = (cl, rank)
    opened = [0] * len(classes)
    options_of = [tuple((c, *slot[c]) for c in colors) for colors in lists]
    forbidden = [0] * n_colors  # vertices conflicting with a holder of c
    members = [0] * n_colors
    color_of = [-1] * n
    free = (1 << n) - 1

    def usable(v, bit):
        out = []
        for c, cl, rank in options_of[v]:
            head = opened[cl]
            if rank == head or (rank < head and not forbidden[c] & bit):
                out.append(c)
        return out

    def select():
        best_v, best_n = -1, n_colors + 1
        rest = free
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            count = 0
            for c, cl, rank in options_of[v]:
                head = opened[cl]
                if rank == head or (rank < head and not forbidden[c] & bit):
                    count += 1
                    if count >= best_n:
                        break
            if count < best_n:
                best_v, best_n = v, count
                if count <= 1:
                    break
        if best_v < 0:
            return None
        return [best_v, usable(best_v, 1 << best_v), 0, 0]

    nodes = 0
    first = select()
    if first is None:
        return color_of
    stack = [first]
    while stack:
        frame = stack[-1]
        v, options, i, saved = frame
        bit = 1 << v
        c = color_of[v]
        if c >= 0:
            forbidden[c] = saved
            members[c] -= 1
            if not members[c]:
                opened[slot[c][0]] -= 1
            color_of[v] = -1
            free |= bit
        if i == len(options):
            stack.pop()
            continue
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise NodeBudgetExhausted(f"node budget {node_budget} exhausted")
        c = options[i]
        frame[2] = i + 1
        frame[3] = forbidden[c]
        forbidden[c] |= conflicts[v]
        if not members[c]:
            opened[slot[c][0]] += 1
        members[c] += 1
        color_of[v] = c
        free ^= bit
        step = select()
        if step is None:
            return color_of
        stack.append(step)
    return None
