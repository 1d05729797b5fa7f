"""Scheme contract, exhaustive verifier, exact minimum-size oracle, the
counting bound, extraction, the binary reduction, and the boosted scheme."""

import collections
import itertools
import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import is_realizable, list_coloring, min_compression_size
from conceptlab import compression
from conceptlab.core import (
    STAR,
    ClassKind,
    ConceptClass,
    Sample,
    enumerate_realizable_samples,
)
from conceptlab.compression import (
    CompressionKey,
    CompressionScheme,
    SchemeReport,
    TableScheme,
    _KeySpace,
    _bit_string,
    _find_assignment,
    boosted_scheme,
    class_coloring,
    counting_bound,
    extract_disambiguation,
    min_compression_certificate,
    replay_scheme,
    star_biclique_scheme,
    to_binary_class,
    verify_scheme,
)
from conceptlab.constructions import (
    biclique_class,
    graph_dim_blowup_example,
    haussler_long_class,
    star_partition,
    unique_label_disambiguation,
)
from conceptlab.dimensions import ShatterKind, dimension
from conceptlab.errors import (
    BudgetError,
    ContractViolationError,
    ConvergenceError,
    RealizabilityError,
)
from conceptlab.random_classes import random_partial_class


def tclass(*rows):
    return ConceptClass(len(rows[0]), tuple(rows), ClassKind.TOTAL)


def constant_scheme(concept) -> CompressionScheme:
    return CompressionScheme(
        name="constant",
        compress=lambda sample: CompressionKey(Sample(()), ""),
        reconstruct=lambda key: concept,
    )


class TestVerifyScheme:
    def test_singleton_class_needs_no_information(self):
        cls = tclass((0, 1, 0))
        scheme = constant_scheme((0, 1, 0))
        for m in (1, 2, 3):
            report = verify_scheme(cls, scheme, m)
            assert report.valid and report.k_of_m == 0

    def test_keep_one_entry_resolves_two_constants(self):
        cls = tclass((0, 0), (1, 1))

        def compress(sample):
            return CompressionKey(Sample((sample.entries[0],)), "")

        def reconstruct(key):
            label = key.subsample.entries[0][1]
            return (label, label)

        report = verify_scheme(
            cls, CompressionScheme("keep-one", compress, reconstruct), 2
        )
        assert report.valid and report.k_of_m == 1

    def test_one_reconstruction_cannot_serve_two_conflicting_concepts(self):
        cls = tclass((0, 0), (1, 1))
        report = verify_scheme(cls, constant_scheme((0, 0)), 2)
        assert report.valid is False
        failed = {s.entries for s, _ in report.failures}
        assert ((0, 1), (1, 1)) in failed

    def test_subsample_must_come_from_the_sample(self):
        cls = tclass((0, 0), (1, 1))
        rogue = CompressionScheme(
            name="rogue",
            compress=lambda s: CompressionKey(Sample(((0, 1),)), ""),
            reconstruct=lambda k: (0, 0),
        )
        report = verify_scheme(cls, rogue, 1)
        assert report.valid is False

    def test_k_accounting_matches_independent_recomputation(self):
        cls = haussler_long_class(3, 2, 1)
        scheme = boosted_scheme(cls)
        for m in (2, 3):
            report = verify_scheme(cls, scheme, m)
            expect = 0
            for sample in enumerate_realizable_samples(cls, m):
                key = scheme.compress(sample)
                expect = max(expect, len(key.subsample), len(key.bits))
            assert report.k_of_m == expect

    def test_sample_budget_carries_partial_report(self):
        cls = haussler_long_class(4, 2, 1)
        scheme = boosted_scheme(cls)
        with pytest.raises(BudgetError) as info:
            verify_scheme(cls, scheme, 3, sample_budget=5)
        assert info.value.report.valid is None
        assert info.value.report.samples_checked == 5

    def test_sample_budget_trips_while_streaming(self):
        # one concept on 60 points has C(67, 8), about 6.5e9, samples of
        # size 8; the budget must trip without enumerating them
        cls = tclass((0,) * 60)
        with pytest.raises(BudgetError) as info:
            verify_scheme(cls, constant_scheme((0,) * 60), 8, sample_budget=100)
        assert info.value.report.samples_checked == 100
        assert info.value.report.valid is None

    def test_negative_sample_budget_is_rejected_before_enumerating(self):
        # the class of the test above: enumerating would not finish
        cls = tclass((0,) * 60)
        scheme = constant_scheme((0,) * 60)
        with pytest.raises(ValueError, match="non-negative"):
            verify_scheme(cls, scheme, 8, sample_budget=-1)
        with pytest.raises(BudgetError) as info:
            verify_scheme(cls, scheme, 8, sample_budget=0)
        assert info.value.report.samples_checked == 0

    def test_invalid_reconstruction_is_caught_on_a_later_sample(self):
        # the first samples reconstruct a valid concept, a later one does not
        cls = tclass((0, 0), (1, 1))

        def reconstruct(key):
            return (STAR, 1) if key.subsample.entries[0][1] == 1 else (0, 0)

        scheme = CompressionScheme(
            "half-valid",
            lambda s: CompressionKey(Sample((s.entries[-1],)), ""),
            reconstruct,
        )
        with pytest.raises(ContractViolationError):
            verify_scheme(cls, scheme, 2)

    def test_key_may_repeat_an_entry_of_the_sample(self):
        cls = tclass((0, 0), (1, 1))
        scheme = CompressionScheme(
            "repeat",
            lambda s: CompressionKey(Sample((s.entries[0],) * 3), ""),
            lambda k: (k.subsample.entries[0][1],) * 2,
        )
        report = verify_scheme(cls, scheme, 1)
        assert report.valid and report.k_of_m == 3

    def test_rogue_key_entry_is_reported_at_its_own_index(self):
        # every key adds (2, 1); every sample without it fails at index 2,
        # even where the sample's own entry sits at another index
        cls = tclass((0, 0, 0), (1, 1, 1))
        scheme = CompressionScheme(
            "rogue",
            lambda s: CompressionKey(Sample(s.entries + ((2, 1),)), ""),
            lambda k: (1, 1, 1),
        )
        report = verify_scheme(cls, scheme, 1)
        assert report.valid is False
        assert [(s.entries, i) for s, i in report.failures] == [
            (((0, 0),), 2),
            (((0, 1),), 2),
            (((1, 0),), 2),
            (((1, 1),), 2),
            (((2, 0),), 2),
        ]

    def test_reconstruction_returned_as_a_list_is_still_checked(self):
        cls = tclass((0, 0), (1, 1))
        listed = CompressionScheme(
            "listed", lambda s: CompressionKey(Sample(()), ""), lambda k: [0, 0]
        )
        report = verify_scheme(cls, listed, 2)
        assert report.valid is False
        assert ((0, 1), (1, 1)) in {s.entries for s, _ in report.failures}
        undefined = CompressionScheme(
            "undefined", lambda s: CompressionKey(Sample(()), ""), lambda k: [0, STAR]
        )
        with pytest.raises(ContractViolationError):
            verify_scheme(cls, undefined, 1)

    def test_boosted_erm_runs_once_per_distinct_block(self, monkeypatch):
        import conceptlab.compression as compression

        calls = collections.Counter()
        erm_index = compression._erm_index

        def counting(cls, block):
            calls[tuple(block)] += 1
            return erm_index(cls, block)

        monkeypatch.setattr(compression, "_erm_index", counting)
        cls = haussler_long_class(4, 2, 1)
        assert verify_scheme(cls, boosted_scheme(cls), 4).valid
        assert calls and max(calls.values()) == 1


def summary(outcome):
    """A report's fields with failures as (entries, index), or an
    exception's type."""
    if isinstance(outcome, Exception):
        return type(outcome)
    failures = [(s.entries, i) for s, i in outcome.failures]
    return outcome.valid, outcome.k_of_m, failures, outcome.samples_checked


def one_size_at_a_time(cls, scheme, low, high):
    """The summaries of ``verify_scheme`` at sizes low, low + 1, ... up to
    and including the first that is not valid."""
    out = []
    for m in range(low, high + 1):
        try:
            report = verify_scheme(cls, scheme, m)
        except Exception as exc:
            out.append(type(exc))
            break
        out.append(summary(report))
        if not report.valid:
            break
    return out


def keep_first_then_first_agreeing(cls):
    """A scheme that fails on many samples: keep the first entry, and
    reconstruct the first concept agreeing with it, undefined points read
    as label 0."""

    def reconstruct(key):
        live = cls.agreeing(key.subsample.entries)
        concept = cls.concepts[(live & -live).bit_length() - 1]
        return tuple(0 if y == STAR else y for y in concept)

    return CompressionScheme(
        "first-agreeing",
        lambda s: CompressionKey(Sample(s.entries[:1]), ""),
        reconstruct,
    )


class TestReplayEquivalence:
    """``verify_scheme`` against the entry-by-entry reference in
    ``oracles``, and ``replay_scheme`` over several sizes against
    ``verify_scheme`` one size at a time."""

    def assert_matches_reference(self, cls, scheme, sizes):
        for m in sizes:
            try:
                expected = oracles.verify_reference(
                    cls.concepts, m, scheme.compress, scheme.reconstruct, Sample
                )
            except oracles.NotAConcept:
                with pytest.raises(ContractViolationError):
                    verify_scheme(cls, scheme, m)
                continue
            except Exception as exc:
                with pytest.raises(type(exc)):
                    verify_scheme(cls, scheme, m)
                continue
            valid, k_of_m, failures, checked = expected
            report = verify_scheme(cls, scheme, m)
            assert summary(report) == (valid, k_of_m, failures, checked), m
        low, high = min(sizes), max(sizes)
        replayed = replay_scheme(cls, scheme, low, high)
        assert list(map(summary, replayed)) == one_size_at_a_time(
            cls, scheme, low, high
        )

    def test_star_schemes_at_a_wrong_t(self):
        cls = biclique_class(star_partition(5))
        for t in (3, 4, 6):
            self.assert_matches_reference(cls, star_biclique_scheme(t), [1, 2, 3])

    def test_star_scheme_with_a_wrong_reconstruction(self):
        # the right length, but vertex 1 is reconstructed as vertex 2
        cls = biclique_class(star_partition(5))
        star = star_biclique_scheme(5)
        swapped = CompressionScheme(
            "swapped",
            star.compress,
            lambda k: star.reconstruct(
                CompressionKey(Sample(((2, 0),)), "")
                if k.subsample.entries == ((1, 0),)
                else k
            ),
        )
        self.assert_matches_reference(cls, swapped, [1, 2, 3, 4])

    def test_key_entry_absent_from_the_sample(self):
        cls = haussler_long_class(3, 2, 1)
        scheme = CompressionScheme(
            "absent",
            lambda s: CompressionKey(Sample(s.entries[:1] + ((1, 1),)), ""),
            lambda k: (1, 1, 1),
        )
        self.assert_matches_reference(cls, scheme, [1, 2, 3])

    def test_key_entry_with_a_label_the_class_never_uses(self):
        cls = haussler_long_class(3, 2, 1)
        scheme = CompressionScheme(
            "unused-label",
            lambda s: CompressionKey(
                Sample(s.entries + ((2, 7),) if len(s) > 1 else s.entries), ""
            ),
            lambda k: (k.subsample.entries[0][1],) * 3,
        )
        self.assert_matches_reference(cls, scheme, [1, 2, 3])

    def test_reconstruction_returned_as_a_list(self):
        cls = biclique_class(star_partition(4))
        star = star_biclique_scheme(4)
        listed = CompressionScheme(
            "listed", star.compress, lambda k: list(star.reconstruct(k))
        )
        self.assert_matches_reference(cls, listed, [1, 2, 3])
        wrong = CompressionScheme("listed-wrong", star.compress, lambda k: [1, 1, 1])
        self.assert_matches_reference(cls, wrong, [1, 2, 3])

    def test_wrong_length_reconstruction(self):
        # only the keys of size-3 samples reconstruct a short concept
        cls = biclique_class(star_partition(4))
        star = star_biclique_scheme(4)
        scheme = CompressionScheme(
            "short",
            lambda s: CompressionKey(star.compress(s).subsample, "1" * (len(s) // 3)),
            lambda k: (1, 1) if k.bits else star.reconstruct(k),
        )
        self.assert_matches_reference(cls, scheme, [1, 2, 3])

    def test_first_agreeing_concept_on_random_classes(self):
        rng = random.Random(20)
        for _ in range(30):
            cls = random_partial_class(rng, 4, 5, 3)
            scheme = keep_first_then_first_agreeing(cls)
            self.assert_matches_reference(cls, scheme, [1, 2, 3])

    def test_boosted_on_hl_4_2_1(self):
        cls = haussler_long_class(4, 2, 1)
        self.assert_matches_reference(cls, boosted_scheme(cls), [1, 2, 3, 4, 5])

    def test_min_compression_certificate_tables(self):
        cases = [
            (haussler_long_class(2, 2, 2), 2, 0),
            (biclique_class(star_partition(4)), 3, 0),
            (biclique_class(star_partition(4)), 2, 1),
            (haussler_long_class(3, 2, 2), 3, 0),
        ]
        for cls, m, bits in cases:
            _, table = min_compression_certificate(cls, m, bits)
            # outside its own size the table raises RealizabilityError
            self.assert_matches_reference(cls, table.as_scheme(), [m])
            self.assert_matches_reference(cls, table.as_scheme(), [m - 1, m])

    def test_an_invalid_concept_raises_again_at_every_size(self):
        # key ((1, 0),) reconstructs no concept: a size-2 sample meets it
        # first in the walk, and the size-1 sample ((1, 0),) must raise again
        cls = tclass((0, 0), (1, 1), (0, 1))
        scheme = CompressionScheme(
            "half-valid",
            lambda s: CompressionKey(Sample(s.entries[-1:]), ""),
            lambda k: (0, STAR) if k.subsample.entries == ((1, 0),) else (0, 1),
        )
        replayed = replay_scheme(cls, scheme, 1, 2)
        assert list(map(summary, replayed)) == [ContractViolationError]
        self.assert_matches_reference(cls, scheme, [1, 2])

    def test_a_failure_met_after_a_larger_size_raised_decides(self):
        # the walk meets the size-2 exception first, at ((0, 0), (0, 0)),
        # and the size-1 failure at ((0, 1),) after it: only the failure
        # is reported, as verifying size 1 alone reports it
        def compress(sample):
            if len(sample) > 1:
                raise ZeroDivisionError("no key for size 2")
            return CompressionKey(sample, "")

        cls = tclass((0, 0), (1, 1))
        scheme = CompressionScheme("raises-at-2", compress, lambda k: (0, 0))
        replayed = replay_scheme(cls, scheme, 1, 2)
        assert [type(o) for o in replayed] == [SchemeReport]
        assert replayed[0].valid is False
        self.assert_matches_reference(cls, scheme, [1, 2])

    def test_reconstruct_runs_once_per_distinct_key(self):
        calls = collections.Counter()
        star = star_biclique_scheme(6)

        def reconstruct(key):
            calls[key] += 1
            return star.reconstruct(key)

        cls = biclique_class(star_partition(6))
        scheme = CompressionScheme("counted", star.compress, reconstruct)
        outcomes = replay_scheme(cls, scheme, 1, 5)
        assert [r.valid for r in outcomes] == [True] * 5
        assert set(calls.values()) == {1}
        assert len(calls) == 2 * 5  # one key per defined (part, label) pair

    def test_budget_decides_its_own_size(self):
        cls = haussler_long_class(4, 2, 1)
        scheme = boosted_scheme(cls)
        replayed = replay_scheme(cls, scheme, 1, 3, sample_budget=20)
        assert [type(o) for o in replayed[:-1]] == [SchemeReport]
        assert isinstance(replayed[-1], BudgetError)
        with pytest.raises(BudgetError) as info:
            verify_scheme(cls, scheme, 2, sample_budget=20)
        assert replayed[-1].report == info.value.report

    def test_sizes_below_1_are_refused_and_an_empty_range_is_empty(self):
        cls = tclass((0,) * 60)
        with pytest.raises(ValueError, match="at least 1"):
            replay_scheme(cls, constant_scheme((0,) * 60), 0, 8)
        assert replay_scheme(cls, constant_scheme((0,) * 60), 2, 1) == []


class TestReconstructionCheck:
    # a single partial concept: every sample fits (0, anything), so only
    # the label check can reject the reconstructions below
    CLS = ConceptClass(2, ((0, STAR),), ClassKind.PARTIAL)

    @pytest.mark.parametrize("concept", [(0, -2), (0, True), (0, 1.0), (0,)])
    def test_verifier_rejects_a_reconstruction_that_is_no_concept(self, concept):
        with pytest.raises(ContractViolationError):
            verify_scheme(self.CLS, constant_scheme(concept), 1)

    @pytest.mark.parametrize("concept", [(0, -2), (0, True), (0, 1.0), (0,)])
    def test_extractor_rejects_a_reconstruction_that_is_no_concept(self, concept):
        with pytest.raises(ContractViolationError):
            extract_disambiguation(self.CLS, constant_scheme(concept), 1, 0)


class TestCountingBound:
    def test_single_empty_key(self):
        assert counting_bound(1, 1, 0, 0) == 1

    def test_direct_sum_evaluation(self):
        assert counting_bound(2, 2, 1, 0) == 5
        # k >= m sums every term: (1 + c)^m keys, times 3 bit strings
        assert counting_bound(2, 2, 5, 1) == 3**2 * 3

    def test_monotone_in_every_argument(self):
        base = counting_bound(3, 2, 1, 1)
        assert counting_bound(4, 2, 1, 1) >= base
        assert counting_bound(3, 3, 1, 1) >= base
        assert counting_bound(3, 2, 2, 1) >= base
        assert counting_bound(3, 2, 1, 2) >= base

    def test_budget_bounds_the_bits_of_the_count(self):
        # 2^(b+1) - 1 has b + 1 bits: at b = budget - 1 it is exactly at the
        # budget, and doubling it goes one bit past
        b = compression.COUNTING_BIT_BUDGET
        assert counting_bound(0, 2, 1, b - 1) == 2**b - 1
        with pytest.raises(BudgetError):
            counting_bound(1, 1, 1, b - 1)
        with pytest.raises(BudgetError):
            counting_bound(0, 2, 1, 10**12)  # refused before building 2^b


def fewest_nodes(search, exhausted, lists, conflicts):
    """The smallest node budget under which ``search`` finishes, found by
    doubling and then bisection."""
    low, high = -1, 1
    while True:
        try:
            search(lists, conflicts, node_budget=high)
            break
        except exhausted:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            search(lists, conflicts, node_budget=mid)
            high = mid
        except exhausted:
            low = mid
    return high


def assert_same_search(lists, conflicts):
    """``list_coloring`` returns what the rescanning oracle returns, and
    runs out of nodes exactly where it does."""
    expected = oracles.list_coloring_rescan(lists, conflicts)
    assert list_coloring(lists, conflicts) == expected
    nodes = fewest_nodes(
        oracles.list_coloring_rescan, oracles.NodeBudgetExhausted, lists,
        conflicts,
    )
    assert list_coloring(lists, conflicts, node_budget=nodes) == expected
    if nodes:
        with pytest.raises(BudgetError):
            list_coloring(lists, conflicts, node_budget=nodes - 1)


@st.composite
def list_instances(draw):
    """6 to 14 vertices over up to 6 colors, each list drawn from a few
    shared ones so that interchangeable colors form classes, and conflicts
    of a drawn density; fewer vertices seldom reach a node where a vertex
    with one usable color precedes one with none."""
    n = draw(st.integers(6, 14))
    colors = st.sets(st.integers(0, 5), min_size=1, max_size=6).map(sorted)
    shared = draw(st.lists(colors, min_size=1, max_size=4))
    lists = [draw(st.sampled_from(shared)) for _ in range(n)]
    pairs = [(u, v) for v in range(n) for u in range(v)]
    density = draw(st.integers(1, 4))  # in fifths
    edges = draw(
        st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs))
    )
    conflicts = [0] * n
    for (u, v), edge in zip(pairs, edges):
        if edge < density:
            conflicts[u] |= 1 << v
            conflicts[v] |= 1 << u
    return lists, conflicts


class TestBitStringOrder:
    @pytest.mark.parametrize("budget", range(6))
    def test_shortest_first_then_lexicographic(self, budget):
        expected = [
            "".join(bits)
            for length in range(budget + 1)
            for bits in itertools.product("01", repeat=length)
        ]
        assert [_bit_string(j) for j in range(2 ** (budget + 1) - 1)] == expected


class TestListColoring:
    """The incremental saturation counts pick the vertex that the
    rescanning oracle picks at every node."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(list_instances())
    def test_matches_rescanning_oracle(self, instance):
        assert_same_search(*instance)

    @pytest.mark.parametrize(
        "cls, m, bits",
        [
            (haussler_long_class(3, 2, 2), 3, 0),
            (haussler_long_class(3, 2, 2), 4, 0),
            (biclique_class(star_partition(5)), 4, 1),
        ],
        ids=["hl-3-2-2-m3", "hl-3-2-2-m4", "biclique-5-m4-bits1"],
    )
    def test_matches_rescanning_oracle_on_key_search_inputs(
        self, monkeypatch, cls, m, bits
    ):
        calls, _ = record_key_search(monkeypatch, cls, m, bits)
        for expanded, level in calls:
            assert_same_search(*expanded)
            assert_same_class_search(expanded, level)


def space_inputs(keys):
    """The current level of a ``_KeySpace``: ``(lists, conflicts)`` as
    ``oracles.key_search_inputs`` builds them, each run expanded to key ids
    (the rank of the sub-multiset among all listed, sorted, times the
    width, plus the bit string's rank); and ``(runs, capacity, id_of)``,
    what ``class_coloring`` receives and the map from a (class, rank) color
    to its key id."""
    width = keys.width
    classes, runs, capacity = keys.layout()
    rank = {
        sub: r for r, sub in enumerate(sorted(
            sub for subs in classes for sub in subs
        ))
    }

    def id_of(cl, p):
        return rank[classes[cl][p // width]] * width + p % width

    lists = [
        [id_of(cl, p) for cl, lo, hi in spans for p in range(lo, hi)]
        for spans in runs
    ]
    return (lists, list(keys.conflicts)), (runs, capacity, id_of)


def assert_same_class_search(expanded, level):
    """``class_coloring`` on a level's runs (``space_inputs``) returns, in
    key ids, what the rescanning oracle returns on the expanded lists, and
    runs out of nodes exactly where it does."""
    lists, conflicts = expanded
    runs, capacity, id_of = level

    def search(runs, conflicts, node_budget=None):
        found = class_coloring(runs, capacity, conflicts, node_budget=node_budget)
        return None if found is None else [id_of(*color) for color in found]

    assert search(runs, conflicts) == oracles.list_coloring_rescan(
        lists, conflicts
    )
    assert fewest_nodes(search, BudgetError, runs, conflicts) == (
        fewest_nodes(
            oracles.list_coloring_rescan, oracles.NodeBudgetExhausted, lists,
            conflicts,
        )
    )


def record_key_search(monkeypatch, cls, m, bits):
    """``space_inputs`` after every ``_find_assignment`` call that
    ``min_compression_certificate`` makes, one per k-level from 0, and the
    realizable samples as entry tuples.  Each level's assignment, if any,
    is the rescanning oracle's coloring of the expanded lists, read as
    keys."""
    calls = []

    def recording(keys, k, *, node_budget=None):
        found = _find_assignment(keys, k, node_budget=node_budget)
        expanded, level = space_inputs(keys)
        calls.append((expanded, level))
        lists, conflicts = expanded
        entries = [s.entries for s in keys.samples]
        colors = oracles.list_coloring_rescan(lists, conflicts)
        if colors is None:
            assert found is None
        else:
            key_of = oracles.key_search_keys(entries, k, bits)
            assert {
                s.entries: (key.subsample.entries, key.bits)
                for s, key in found.items()
            } == {s: key_of[c] for s, c in zip(entries, colors)}
        return found

    monkeypatch.setattr(compression, "_find_assignment", recording)
    k, _ = min_compression_certificate(cls, m, bits)
    assert len(calls) == k + 1
    samples = [s.entries for s in enumerate_realizable_samples(cls, m)]
    return calls, samples


@st.composite
def partial_key_spaces(draw):
    """(rows, m, bits): a partial class of 1 to 4 rows over 2 or 3 points
    with labels 0 and 1, each row defined somewhere, m from 1 to 3 and a
    bit budget from 0 to 3.  A point defined in a single row, with few
    others, lets distinct sub-multisets be held by the same samples."""
    n = draw(st.integers(2, 3))
    cell = st.sampled_from([STAR, 0, 1])
    rows = draw(st.sets(
        st.tuples(*[cell] * n).filter(lambda r: any(v != STAR for v in r)),
        min_size=1,
        max_size=4,
    ))
    return sorted(rows), draw(st.integers(1, 3)), draw(st.integers(0, 3))


class TestKeySpace:
    """The runs and conflicts that the key search receives at every level,
    expanded to key ids, equal a from-scratch build of that level."""

    @pytest.mark.parametrize(
        "cls, m, bits",
        [
            (haussler_long_class(2, 2, 2), 2, 0),
            (biclique_class(star_partition(4)), 3, 0),
            (biclique_class(star_partition(4)), 3, 1),
            (haussler_long_class(3, 2, 2), 4, 0),
            (haussler_long_class(3, 2, 2), 3, 0),
            (biclique_class(star_partition(5)), 4, 0),
            (biclique_class(star_partition(5)), 4, 1),
            (haussler_long_class(5, 3, 2), 3, 0),
            (haussler_long_class(3, 3, 2), 2, 0),
            (ConceptClass(12, ((0,) * 12,), ClassKind.TOTAL), 4, 0),
        ],
        ids=[
            "cube-m2", "biclique-4-m3", "biclique-4-m3-bits1", "hl-3-2-2-m4",
            "hl-3-2-2-m3", "biclique-5-m4", "biclique-5-m4-bits1",
            "hl-5-3-2-m3", "hl-3-3-2-m2", "one-concept-12-m4",
        ],
    )
    def test_levels_match_from_scratch_build_on_certify_classes(
        self, monkeypatch, cls, m, bits
    ):
        calls, samples = record_key_search(monkeypatch, cls, m, bits)
        for k, (call, _) in enumerate(calls):
            assert call == oracles.key_search_inputs(samples, k, bits), k

    def test_levels_match_from_scratch_build_on_random_partial_classes(
        self, monkeypatch
    ):
        rng = random.Random(2121)
        cases = repeated = 0
        while cases < 30:
            n = rng.randrange(2, 5)
            rows = {
                tuple(
                    STAR if rng.random() < 0.3 else rng.randrange(3)
                    for _ in range(n)
                )
                for _ in range(rng.randrange(2, 6))
            }
            rows = sorted(r for r in rows if any(v != STAR for v in r))
            if not rows:
                continue
            cls = ConceptClass(n, tuple(rows), ClassKind.PARTIAL)
            m, bits = rng.randrange(2, 4), rng.randrange(3)
            with monkeypatch.context() as patch:
                calls, samples = record_key_search(patch, cls, m, bits)
            for k, (call, _) in enumerate(calls):
                assert call == oracles.key_search_inputs(samples, k, bits), (
                    rows, m, bits, k,
                )
            repeated += any(len(set(s)) < len(s) for s in samples)
            cases += 1
        assert repeated == cases

    def test_a_fresh_space_grows_straight_to_any_level(self):
        cls = haussler_long_class(3, 2, 2)
        samples = list(enumerate_realizable_samples(cls, 3))
        entries = [s.entries for s in samples]
        for k in range(4):
            keys = _KeySpace(samples, 1)
            _find_assignment(keys, k)
            expected = oracles.key_search_inputs(entries, k, 1)
            assert space_inputs(keys)[0] == expected

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(partial_key_spaces())
    # point 1 holds label 0 only where point 0 is undefined, so the samples
    # holding (1, 0) are those holding it twice: ((1, 0),) and
    # ((1, 0), (1, 0)) form one class of 2 * 3 keys at k = 2
    @example(([(STAR, 0), (1, 1)], 2, 1))
    def test_levels_and_search_match_the_oracles_on_random_partial_classes(
        self, space
    ):
        rows, m, bits = space
        cls = ConceptClass(len(rows[0]), tuple(rows), ClassKind.PARTIAL)
        samples = list(enumerate_realizable_samples(cls, m))
        entries = [s.entries for s in samples]
        keys = _KeySpace(samples, bits)
        shared = False
        for k in range(m + 1):
            _find_assignment(keys, k)
            expanded, level = space_inputs(keys)
            assert expanded == oracles.key_search_inputs(entries, k, bits), k
            assert_same_class_search(expanded, level)
            shared |= any(len(subs) > 1 for subs in keys.layout()[0])
        event(f"sub-multisets sharing a holder set: {shared}")

    def test_a_grown_space_refuses_a_lower_level(self):
        samples = list(enumerate_realizable_samples(tclass((0, 0), (1, 1)), 2))
        keys = _KeySpace(samples, 0)
        _find_assignment(keys, 1)
        with pytest.raises(ValueError):
            _find_assignment(keys, 0)


class TestMinCompressionSize:
    def test_singleton_class(self):
        cls = tclass((0, 1))
        assert min_compression_size(cls, 2, 0) == 0

    def test_two_constants_need_one_entry(self):
        cls = tclass((0, 0), (1, 1))
        assert min_compression_size(cls, 2, 0) == 1
        samples = list(enumerate_realizable_samples(cls, 2))
        assert _find_assignment(_KeySpace(samples, 0), 0) is None

    def test_full_two_cube_admits_a_one_entry_scheme(self):
        # four single-entry keys can host the four fully informative
        # samples with the doubled samples folded into compatible groups,
        # so the exact minimum at zero bits is 1 (certified below by an
        # explicit scheme and by exhaustive refutation at 0)
        cube = haussler_long_class(2, 2, 2)
        k, table = min_compression_certificate(cube, 2, 0)
        assert k == 1
        replay = verify_scheme(cube, table.as_scheme(), 2)
        assert replay.valid and replay.k_of_m <= 1
        samples = list(enumerate_realizable_samples(cube, 2))
        assert _find_assignment(_KeySpace(samples, 0), 0) is None

    def test_explicit_one_entry_cube_scheme_is_valid(self):
        # hand-built certificate, independent of the search: key (x, y)
        # reconstructs the concept pinned by that entry within its group
        cube = haussler_long_class(2, 2, 2)
        key = lambda e: CompressionKey(Sample((e,)), "")
        compress_table = (
            (Sample(((0, 0), (0, 0))), key((0, 0))),
            (Sample(((0, 0), (1, 0))), key((0, 0))),
            (Sample(((0, 1), (0, 1))), key((0, 1))),
            (Sample(((0, 1), (1, 1))), key((0, 1))),
            (Sample(((1, 0), (1, 0))), key((1, 0))),
            (Sample(((0, 1), (1, 0))), key((1, 0))),
            (Sample(((1, 1), (1, 1))), key((1, 1))),
            (Sample(((0, 0), (1, 1))), key((1, 1))),
        )
        reconstruct_table = (
            (key((0, 0)), (0, 0)),
            (key((0, 1)), (1, 1)),
            (key((1, 0)), (1, 0)),
            (key((1, 1)), (0, 1)),
        )
        table = TableScheme(
            domain_size=2,
            compress_table=compress_table,
            reconstruct_table=reconstruct_table,
            default_concept=(0, 0),
        )
        report = verify_scheme(cube, table.as_scheme(), 2)
        assert report.valid is True
        assert report.k_of_m == 1

    def test_zero_bit_budget_versus_one_bit(self):
        # with one bit allowed, the two-constant class compresses to
        # nothing: the bit distinguishes the two groups
        cls = tclass((0, 0), (1, 1))
        assert min_compression_size(cls, 2, 1) == 0

    def test_certificates_replay_through_the_verifier(self):
        rng = random.Random(71)
        for _ in range(15):
            rows = rng.randrange(2, 5)
            concepts = set()
            while len(concepts) < rows:
                concepts.add(tuple(rng.randrange(2) for _ in range(3)))
            cls = tclass(*sorted(concepts))
            k, table = min_compression_certificate(cls, 2, 0)
            assert isinstance(k, int)
            report = verify_scheme(cls, table.as_scheme(), 2)
            assert report.valid and report.k_of_m <= k
            if k > 0:
                samples = list(enumerate_realizable_samples(cls, 2))
                assert _find_assignment(_KeySpace(samples, 0), k - 1) is None


    def test_node_budget_names_refuted_levels(self):
        # k = 0 is refuted before any search node; k = 1 needs more than
        # ten nodes (one per sample at least)
        cls = haussler_long_class(3, 2, 2)
        with pytest.raises(BudgetError) as info:
            min_compression_certificate(cls, 4, 0, node_budget=10)
        assert "refuted k-levels: [0]" in str(info.value)
        assert info.value.report == {
            "m": 4, "bit_budget": 0, "k": 1, "refuted": [0],
        }

    def test_key_list_budget_names_refuted_levels(self, monkeypatch):
        # k = 0 lists 63 key ids and is refuted; k = 1 would list 204
        monkeypatch.setattr(compression, "KEY_LIST_BUDGET", 100)
        cls = haussler_long_class(3, 2, 2)
        with pytest.raises(BudgetError) as info:
            min_compression_certificate(cls, 4, 0)
        message = str(info.value)
        assert message == (
            "key lists of 204 sub-multisets exceed the key-list budget of 100 "
            "at k=1; refuted k-levels: [0]"
        )
        assert "node budget" not in message
        assert info.value.report == {
            "m": 4, "bit_budget": 0, "k": 1, "refuted": [0],
        }

    def test_sample_budget_exit_carries_no_report(self):
        # 48,620 realizable samples of size 9; the CLI prints nothing on
        # this exit because the error carries no report
        cls = biclique_class(star_partition(10))
        with pytest.raises(BudgetError) as info:
            min_compression_certificate(cls, 9, 0)
        assert str(info.value) == "more than 20000 realizable samples of size 9"
        assert info.value.report is None

    def test_feasibility_agrees_with_bruteforce_oracle(self):
        # every level k <= m of small seeded partial classes: the search
        # admits a key assignment exactly when the definition-literal
        # oracle finds a scheme of size <= k
        rng = random.Random(2024)
        cases = []
        while len(cases) < 60:
            n, labels = rng.randrange(1, 4), rng.randrange(2, 4)
            rows = {
                tuple(
                    STAR if rng.random() < 0.3 else rng.randrange(labels)
                    for _ in range(n)
                )
                for _ in range(rng.randrange(2, 5))
            }
            rows = sorted(r for r in rows if any(v != STAR for v in r))
            m, bits = rng.randrange(1, 3), rng.randrange(2)
            if not rows:
                continue
            cls = ConceptClass(n, tuple(rows), ClassKind.PARTIAL)
            samples = list(enumerate_realizable_samples(cls, m))
            if len(samples) <= 6:
                cases.append((cls, m, bits, samples))
        outcomes = set()
        for cls, m, bits, samples in cases:
            best = oracles.min_compression_bruteforce(cls.concepts, m, m, bits)
            for k in range(m + 1):
                got = _find_assignment(_KeySpace(samples, bits), k) is not None
                assert got == (best is not None and best <= k), (cls, m, bits, k)
                outcomes.add(got)
        assert outcomes == {True, False}


    def test_negative_bit_budget_rejected(self):
        # no key has a negative number of bits, so no level could answer
        with pytest.raises(ValueError):
            min_compression_certificate(tclass((0, 0), (1, 1)), 2, -1)

class TestTableScheme:
    def test_json_roundtrip(self):
        cls = tclass((0, 0), (1, 1))
        _, table = min_compression_certificate(cls, 2, 0)
        again = TableScheme.from_json(table.to_json())
        assert again == table

    def test_unknown_key_falls_back_to_default(self):
        table = TableScheme(
            domain_size=2,
            compress_table=(),
            reconstruct_table=(),
            default_concept=(0, 0),
        )
        scheme = table.as_scheme()
        assert scheme.reconstruct(CompressionKey(Sample(((0, 1),)), "1")) == (0, 0)


class TestExtractDisambiguation:
    def test_singleton_partial_class(self):
        cls = ConceptClass(2, ((0, STAR),), ClassKind.PARTIAL)
        scheme = constant_scheme((0, 9))
        out = extract_disambiguation(cls, scheme, 0, 0)
        assert out.concepts == ((0, 9),)

    def test_star_scheme_extraction_covers_the_chromatic_floor(self):
        for t in (3, 4, 5):
            cls = biclique_class(star_partition(t))
            out = extract_disambiguation(cls, star_biclique_scheme(t), 1, 1)
            assert out.n_concepts >= t
            for m in (1, 2):
                for sample in enumerate_realizable_samples(cls, m):
                    assert is_realizable(out, sample)

    def test_reconstruction_returned_as_a_list_extracts_like_a_tuple(self):
        cls = biclique_class(star_partition(3))
        tuples = star_biclique_scheme(3)
        listed = CompressionScheme(
            "listed", tuples.compress, lambda key: list(tuples.reconstruct(key))
        )
        want = extract_disambiguation(cls, tuples, 1, 1)
        assert want.n_concepts == 3
        assert extract_disambiguation(cls, listed, 1, 1) == want

    def test_size_never_exceeds_counting_bound(self):
        for t in (3, 4):
            cls = biclique_class(star_partition(t))
            out = extract_disambiguation(cls, star_biclique_scheme(t), 1, 1)
            bound = counting_bound(
                len(cls.support_indices()), len(cls.labels_used()), 1, 1
            )
            assert out.n_concepts <= bound

    def test_undersized_key_space_fails_the_coverage_check(self):
        cls = biclique_class(star_partition(3))
        with pytest.raises(ContractViolationError):
            extract_disambiguation(cls, star_biclique_scheme(3), 0, 0)

    def test_key_budget_counts_every_probed_key(self, monkeypatch):
        cls = biclique_class(star_partition(3))
        scheme = star_biclique_scheme(3)
        # the empty subsample and every one-entry sample, 3 bit strings each
        keys = 3 * (1 + sum(1 for _ in enumerate_realizable_samples(cls, 1)))
        monkeypatch.setattr(compression, "EXTRACTION_KEY_BUDGET", keys)
        extract_disambiguation(cls, scheme, 1, 1)
        monkeypatch.setattr(compression, "EXTRACTION_KEY_BUDGET", keys - 1)
        with pytest.raises(BudgetError, match=f"key budget {keys - 1}"):
            extract_disambiguation(cls, scheme, 1, 1)

    def test_probes_the_keys_of_the_per_size_enumeration(self):
        # the one walk probes the same keys, each as often, as the empty
        # subsample followed by one enumeration per size
        rng = random.Random(31)
        for _ in range(60):
            cls = random_partial_class(
                rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3),
                star_probability=0.4,
            )
            k, bits = rng.randint(0, 3), rng.randint(0, 1)
            probed = collections.Counter()

            def reconstruct(key, probed=probed, n=cls.domain_size):
                probed[key] += 1
                return (0,) * n

            scheme = CompressionScheme("probed", None, reconstruct)
            try:
                extract_disambiguation(cls, scheme, k, bits)
            except ContractViolationError:
                pass  # the all-zero concept need not cover the class
            expected = collections.Counter(
                CompressionKey(subsample, b)
                for size in range(k + 1)
                for subsample in (
                    [Sample(())] if size == 0
                    else enumerate_realizable_samples(cls, size)
                )
                for b in ("", "0", "1")[: 2 ** (bits + 1) - 1]
            )
            assert probed == expected, (cls, k, bits)

    def test_coverage_check_agrees_with_enumerating_oracle(self):
        rng = random.Random(29)
        outcomes = set()
        for _ in range(150):
            n = rng.randint(1, 4)
            cls = random_partial_class(
                rng, n, rng.randint(1, 4), rng.randint(1, 3), star_probability=0.4
            )
            labels = range(max(cls.labels_used(), default=0) + 1)
            pool = [
                tuple(rng.choice(labels) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            k, bits = rng.randint(0, 2), rng.randint(0, 1)
            if rng.random() < 0.3:
                inner = constant_scheme(rng.choice(pool))
            else:
                keys = [
                    CompressionKey(Sample(entries), b)
                    for size in range(k + 1)
                    for entries in sorted(
                        oracles.realizable_multisets(cls.concepts, size, labels)
                    )
                    for b in ("", "0", "1")[: 2 ** (bits + 1) - 1]
                ]
                table = TableScheme(
                    domain_size=n,
                    compress_table=(),
                    reconstruct_table=tuple((key, rng.choice(pool)) for key in keys),
                    default_concept=rng.choice(pool),
                )
                inner = table.as_scheme()
            extracted = []

            def reconstruct(key, inner=inner, extracted=extracted):
                concept = inner.reconstruct(key)
                extracted.append(concept)
                return concept

            scheme = CompressionScheme("recorded", inner.compress, reconstruct)
            try:
                extract_disambiguation(cls, scheme, k, bits)
                raised = False
            except ContractViolationError:
                raised = True
            covered = oracles.covers_realizable_contents(cls.concepts, extracted)
            assert raised is not covered, (cls, k, bits)
            outcomes.add(raised)
        assert outcomes == {False, True}


class TestBinaryReduction:
    def test_single_concept_expansion(self):
        cls = tclass((0, 1))
        out = to_binary_class(cls)
        # domain order: (0,0),(0,1),(1,0),(1,1)
        assert out.concepts == ((1, 0, 0, 1),)
        assert dimension(out, ShatterKind.VC).value == 0

    def test_vc_of_reduction_equals_graph_dimension(self):
        cases = [
            graph_dim_blowup_example()[1],
            haussler_long_class(3, 3, 2),
            unique_label_disambiguation(biclique_class(star_partition(4))),
        ]
        for cls in cases:
            binary = to_binary_class(cls)
            assert (
                dimension(binary, ShatterKind.VC).value
                == dimension(cls, ShatterKind.GRAPH).value
            )

    def test_partial_input_rejected(self):
        with pytest.raises(ValueError):
            to_binary_class(biclique_class(star_partition(3)))


class TestBoostedScheme:
    def test_valid_on_bounded_support_class(self):
        cls = haussler_long_class(4, 2, 1)
        scheme = boosted_scheme(cls)
        for m in range(2, 7):
            report = verify_scheme(cls, scheme, m)
            assert report.valid, report.failures[:3]

    def test_valid_on_worked_total_class(self):
        _, total = graph_dim_blowup_example()
        scheme = boosted_scheme(total)
        for m in (2, 3, 4):
            assert verify_scheme(total, scheme, m).valid

    def test_roundtrip_is_deterministic(self):
        cls = haussler_long_class(4, 2, 1)
        scheme = boosted_scheme(cls)
        sample = Sample(((0, 0), (1, 1), (1, 1)))
        keys = {scheme.compress(sample) for _ in range(3)}
        assert len(keys) == 1
        key = keys.pop()
        assert scheme.reconstruct(key) == scheme.reconstruct(key)

    def test_small_subsample_size_forces_multiple_rounds(self):
        _, total = graph_dim_blowup_example()
        scheme = boosted_scheme(total, subsample_size=1)
        sample = Sample(((0, 0), (1, 0), (2, 11)))
        key = scheme.compress(sample)
        rounds = int(key.bits[8:], 2)
        assert rounds > 1
        concept = scheme.reconstruct(key)
        assert all(concept[i] == y for i, y in sample.entries)

    def test_header_is_fixed_width(self):
        cls = haussler_long_class(3, 2, 1)
        scheme = boosted_scheme(cls)
        for sample in enumerate_realizable_samples(cls, 3):
            assert len(scheme.compress(sample).bits) == 24

    def test_key_count_stays_under_the_counting_bound(self):
        cls = haussler_long_class(3, 2, 1)
        scheme = boosted_scheme(cls)
        keys = set()
        max_sub = 0
        max_bits = 0
        for m in (2, 3):
            for sample in enumerate_realizable_samples(cls, m):
                key = scheme.compress(sample)
                keys.add(key)
                max_sub = max(max_sub, len(key.subsample))
                max_bits = max(max_bits, len(key.bits))
        bound = counting_bound(
            cls.domain_size, len(cls.labels_used()), max_sub, max_bits
        )
        assert len(keys) <= bound

    @pytest.mark.parametrize(
        "cls, max_m",
        [(haussler_long_class(4, 2, 1), 5), (graph_dim_blowup_example()[1], 4)],
        ids=["hl-4-2-1", "worked-total"],
    )
    def test_compress_returns_a_key_its_reconstruction_gets_right(
        self, cls, max_m
    ):
        # the reconstruction is the plurality vote (ties to the lowest
        # label) of the first consistent concepts of the sorted key cut
        # into runs of s, recomputed here by scanning the concepts
        scheme = boosted_scheme(cls)
        for m in range(1, max_m + 1):
            for sample in enumerate_realizable_samples(cls, m):
                key = scheme.compress(sample)
                concept = scheme.reconstruct(key)
                assert all(concept[i] == y for i, y in sample.entries)
                s = int(key.bits[:8], 2)
                entries = key.subsample.entries
                voters = [
                    next(c for c in cls.concepts
                         if all(c[i] == y for i, y in entries[r : r + s]))
                    for r in range(0, len(entries), s)
                ]
                votes = [collections.Counter(labels) for labels in zip(*voters)]
                assert concept == tuple(
                    max(sorted(count), key=count.__getitem__) for count in votes
                )

    def test_total_class_required(self):
        with pytest.raises(ValueError):
            boosted_scheme(biclique_class(star_partition(3)))

    def test_empty_key_reconstructs_the_first_concept(self):
        for cls in (haussler_long_class(4, 2, 1), graph_dim_blowup_example()[1]):
            scheme = boosted_scheme(cls)
            assert scheme.reconstruct(CompressionKey(Sample(()))) == cls.concepts[0]

    def test_extraction_answers_every_probed_key(self):
        cls = haussler_long_class(4, 3, 2)
        out = extract_disambiguation(cls, boosted_scheme(cls), 2, 1)
        assert out.n_concepts == 33

    def test_extraction_below_the_block_size_fails_coverage(self):
        # one-entry keys cannot hold a block of s = 2
        cls = haussler_long_class(3, 2, 2)
        with pytest.raises(ContractViolationError):
            extract_disambiguation(cls, boosted_scheme(cls), 1, 0)

    @pytest.mark.parametrize(
        "cls, max_m, subsample_size, converges",
        [
            (haussler_long_class(4, 2, 1), 5, None, True),
            (graph_dim_blowup_example()[1], 4, None, True),
            (haussler_long_class(4, 3, 2), 3, None, False),
            (graph_dim_blowup_example()[1], 3, 1, True),
        ],
        ids=["hl-4-2-1", "worked-total", "hl-4-3-2", "worked-total-s1"],
    )
    def test_keys_match_the_fraction_weight_reference(
        self, cls, max_m, subsample_size, converges
    ):
        scheme = boosted_scheme(cls, subsample_size)
        s = subsample_size or max(1, dimension(cls, ShatterKind.GRAPH).value)
        stuck = 0
        for m in range(1, max_m + 1):
            for sample in enumerate_realizable_samples(cls, m):
                expect = oracles.boosted_compress_reference(
                    cls.concepts, sample.entries, s
                )
                if expect is None:
                    stuck += 1
                    with pytest.raises(ConvergenceError):
                        scheme.compress(sample)
                    continue
                key = scheme.compress(sample)
                assert (key.subsample.entries, key.bits) == expect
        assert (stuck == 0) == converges


class TestMonotonicityUnderDisambiguation:
    def test_scheme_for_the_disambiguation_serves_the_partial_class(self):
        catalog = [
            (
                biclique_class(star_partition(t)),
                unique_label_disambiguation(biclique_class(star_partition(t))),
            )
            for t in (3, 4, 5)
        ]
        catalog.append(graph_dim_blowup_example())
        for partial, total in catalog:
            scheme = boosted_scheme(total)
            for m in (2, 3):
                on_total = verify_scheme(total, scheme, m)
                on_partial = verify_scheme(partial, scheme, m)
                assert on_total.valid
                assert on_partial.valid
                assert on_partial.k_of_m <= on_total.k_of_m

    def test_star_scheme_also_serves_the_partial_class_directly(self):
        for t in (3, 4):
            partial = biclique_class(star_partition(t))
            scheme = star_biclique_scheme(t)
            for m in (1, 2, 3):
                assert verify_scheme(partial, scheme, m).valid


_CUBE = ConceptClass(1, ((0,), (1,)), ClassKind.TOTAL)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: counting_bound(-1, 1, 1, 0),
            ValueError,
            "counting_bound arguments must be non-negative",
        ),
        (
            lambda: CompressionKey(Sample(()), "012"),
            ValueError,
            "bits must be a 0/1 string, got '012'",
        ),
        (
            lambda: boosted_scheme(ConceptClass(1, (), ClassKind.TOTAL)),
            ValueError,
            "boosted schemes require a nonempty class",
        ),
        (lambda: boosted_scheme(_CUBE, 0), ValueError, "subsample_size must be in 1..255"),
        (lambda: boosted_scheme(_CUBE, 256), ValueError, "subsample_size must be in 1..255"),
        (
            lambda: boosted_scheme(_CUBE).compress(Sample(())),
            RealizabilityError,
            "cannot compress an empty sample",
        ),
        (
            lambda: star_biclique_scheme(3).compress(Sample(())),
            RealizabilityError,
            "cannot compress an empty sample",
        ),
        (lambda: star_biclique_scheme(1), ValueError, "star partition needs t >= 2"),
    ],
    ids=[
        "counting-bound-negative",
        "key-bits",
        "boosted-empty-class",
        "boosted-subsample-0",
        "boosted-subsample-256",
        "boosted-empty-sample",
        "star-empty-sample",
        "star-t-1",
    ],
)
def test_error_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
