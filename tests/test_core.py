"""Data model: restriction, realizability, enumeration, dual, disjoint
union, and the JSON wire format."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import is_realizable, restrict
from conceptlab import core
from conceptlab.core import (
    STAR,
    ClassKind,
    ConceptClass,
    Sample,
    class_from_json,
    dual,
    dumps_class,
    enumerate_realizable_samples,
    loads_class,
    sample_from_json,
    sample_to_json,
    union_disjoint,
    walk_realizable_samples,
)
from conceptlab.compression import (
    CompressionKey,
    CompressionScheme,
    SchemeReport,
    _erm_index,
    replay_scheme,
    verify_scheme,
)
from conceptlab.constructions import biclique_class, star_partition
from conceptlab.errors import BudgetError, RealizabilityError
from conceptlab.random_classes import random_partial_class, random_total_class


def pclass(*rows):
    return ConceptClass(
        domain_size=len(rows[0]), concepts=tuple(rows), kind=ClassKind.PARTIAL
    )


def tclass(*rows):
    return ConceptClass(
        domain_size=len(rows[0]), concepts=tuple(rows), kind=ClassKind.TOTAL
    )


class TestConstruction:
    def test_total_rejects_star(self):
        with pytest.raises(ValueError):
            tclass((0, STAR))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            pclass((0, 1), (0, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConceptClass(3, ((0, 1),), ClassKind.TOTAL)

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            tclass((0, -3))

    def test_star_is_self_equal_and_distinct(self):
        assert STAR == STAR
        assert all(STAR != v for v in range(10))


class TestRestrict:
    def test_full_domain_is_pattern_table(self):
        cls = pclass((0, STAR), (1, 0), (1, 1))
        got = restrict(cls, (0, 1))
        assert got == {(0, STAR), (1, 0), (1, 1)}

    def test_column_projection(self):
        cls = pclass((0, STAR), (1, 0), (1, 1))
        assert restrict(cls, (1,)) == {(STAR,), (0,), (1,)}

    def test_duplicate_index_duplicates_column(self):
        cls = tclass((0, 0, 0), (3, 0, 0), (0, 7, 0))
        assert restrict(cls, (0, 0)) == {(0, 0), (3, 3)}

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            restrict(pclass((0,)), (1,))

    def test_empty_index_sequence(self):
        assert restrict(pclass((0, STAR), (1, 0)), ()) == {()}
        assert restrict(ConceptClass(2, (), ClassKind.TOTAL), ()) == set()


class TestColumns:
    def test_columns_transpose_the_table(self):
        cls = pclass((0, STAR), (1, 0), (1, 1))
        assert cls.columns == ((0, 1, 1), (STAR, 0, 1))

    def test_no_concepts(self):
        assert ConceptClass(3, (), ClassKind.TOTAL).columns == ((), (), ())

    def test_no_points(self):
        assert ConceptClass(0, ((),), ClassKind.TOTAL).columns == ()

    def test_not_part_of_identity(self):
        cls = pclass((1, STAR), (0, 2))
        twin = pclass((1, STAR), (0, 2))
        before = (hash(cls), repr(cls), dumps_class(cls))
        assert cls.columns == ((1, 0), (STAR, 2))
        assert cls.holders == {(0, 1): 0b01, (0, 0): 0b10, (1, 2): 0b10}
        assert cls == twin
        assert (hash(cls), repr(cls), dumps_class(cls)) == before
        assert hash(twin) == before[0]


class TestRealizability:
    def test_agreeing_concept(self):
        cls = pclass((0, STAR), (1, 0))
        assert is_realizable(cls, Sample(((0, 0),)))

    def test_no_single_concept_agrees(self):
        # first concept is undefined at 1, second disagrees at 0
        cls = pclass((0, STAR), (1, 0))
        assert not is_realizable(cls, Sample(((0, 0), (1, 0))))

    def test_duplicates_with_consistent_label(self):
        cls = pclass((0, STAR), (1, 0))
        assert is_realizable(cls, Sample(((1, 0), (1, 0))))

    def test_conflicting_duplicate_indices_unrealizable(self):
        cls = tclass((0, 1), (1, 1))
        assert not is_realizable(cls, Sample(((0, 0), (0, 1))))

    def test_sample_index_validated(self):
        with pytest.raises(ValueError):
            is_realizable(pclass((0,)), Sample(((3, 0),)))

    def test_prefixes_of_realizable_samples_are_realizable(self):
        rng = random.Random(11)
        for _ in range(50):
            cls = random_partial_class(rng, 4, 5, 3)
            for sample in itertools.islice(
                enumerate_realizable_samples(cls, 3), 20
            ):
                for r in (1, 2):
                    for sub in itertools.combinations(sample.entries, r):
                        assert is_realizable(cls, Sample(sub))


@st.composite
def small_partial_classes(draw):
    """A partial class on at most 4 points and 3 labels, with the labels."""
    n = draw(st.integers(1, 4))
    labels = draw(st.integers(1, 3))
    cell = st.sampled_from((STAR,) + tuple(range(labels)))
    rows = draw(st.lists(st.tuples(*[cell] * n), min_size=1, max_size=6, unique=True))
    return ConceptClass(n, tuple(rows), ClassKind.PARTIAL), range(labels)


class TestEnumerate:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(small_partial_classes(), st.integers(1, 4))
    def test_streamed_order_is_the_sorted_oracle_set(self, drawn, m):
        cls, labels = drawn
        got = [s.entries for s in enumerate_realizable_samples(cls, m)]
        assert got == sorted(oracles.realizable_multisets(cls.concepts, m, labels))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(small_partial_classes(), st.integers(1, 3), st.integers(0, 2))
    def test_walk_is_the_merged_sorted_oracle_sets(self, drawn, low, extra):
        # the sizes in [low, high] merge into one sorted stream, each sample
        # with the ranks of its distinct pairs
        cls, labels = drawn
        high = low + extra
        pairs = sorted(cls.holders)
        expected = sorted(
            entries
            for m in range(low, high + 1)
            for entries in oracles.realizable_multisets(cls.concepts, m, labels)
        )
        got = []
        for sample, ranks in walk_realizable_samples(cls, low, high):
            assert ranks == sum(1 << pairs.index(p) for p in set(sample.entries))
            got.append(sample.entries)
        assert got == expected

    def test_stream_is_lazy(self):
        # one concept on 60 points has C(67, 8), about 6.5e9, samples of size 8
        cls = tclass((0,) * 60)
        first = itertools.islice(enumerate_realizable_samples(cls, 8), 5)
        assert [s.entries for s in first] == [
            ((0, 0),) * 7 + ((j, 0),) for j in range(5)
        ]

    def test_yielded_samples_equal_public_construction(self):
        cls = pclass((0, STAR, 1), (1, 0, STAR))
        for m in (1, 2, 3):
            for sample in enumerate_realizable_samples(cls, m):
                again = Sample(tuple(reversed(sample.entries)))
                assert sample == again and hash(sample) == hash(again)

    def test_single_concept_m1(self):
        cls = tclass((0, 1))
        got = [s.entries for s in enumerate_realizable_samples(cls, 1)]
        assert got == [((0, 0),), ((1, 1),)]

    def test_single_concept_m2(self):
        cls = tclass((0, 1))
        got = [s.entries for s in enumerate_realizable_samples(cls, 2)]
        assert got == [
            ((0, 0), (0, 0)),
            ((0, 0), (1, 1)),
            ((1, 1), (1, 1)),
        ]

    def test_multiset_count_matches_bruteforce(self):
        # the multisets of size 2 realizable by {(0,*), (1,0)}: one from the
        # first concept's single defined point, three from the second
        cls = pclass((0, STAR), (1, 0))
        got = list(enumerate_realizable_samples(cls, 2))
        assert len(got) == 4
        expected = oracles.realizable_multisets(cls.concepts, 2, (0, 1))
        assert {s.entries for s in got} == expected

    def test_agrees_with_bruteforce_on_random_classes(self):
        rng = random.Random(5)
        for _ in range(40):
            cls = random_partial_class(rng, 4, 5, 4)
            universe = range(4)
            for m in (1, 2, 3):
                mine = {s.entries for s in enumerate_realizable_samples(cls, m)}
                ref = oracles.realizable_multisets(cls.concepts, m, universe)
                assert mine == ref

    def test_every_yielded_sample_is_realizable(self):
        rng = random.Random(6)
        for _ in range(20):
            cls = random_partial_class(rng, 4, 5, 3)
            for sample in enumerate_realizable_samples(cls, 2):
                assert is_realizable(cls, sample)


class TestSampleSizeBudget:
    """No sample past ``SAMPLE_SIZE_BUDGET`` entries is built: the walk
    finishes the sizes within it, then raises."""

    def test_sizes_within_the_budget_come_out_in_full(self, monkeypatch):
        monkeypatch.setattr(core, "SAMPLE_SIZE_BUDGET", 50)
        cls = pclass((0, STAR), (1, 0))
        within = list(walk_realizable_samples(cls, 3, 50))
        walked = []
        with pytest.raises(BudgetError, match="sample size budget 50 exhausted"):
            walked.extend(walk_realizable_samples(cls, 3, 51))
        assert walked == within
        walked.clear()
        with pytest.raises(BudgetError):
            walked.extend(walk_realizable_samples(cls, 51, 60))
        assert walked == []
        # exactly at the budget nothing trips
        assert list(walk_realizable_samples(cls, 50, 50)) == [
            (sample, ranks) for sample, ranks in within if len(sample) == 50
        ]

    def test_replay_reports_the_sizes_within_then_the_cut(self, monkeypatch):
        monkeypatch.setattr(core, "SAMPLE_SIZE_BUDGET", 50)
        cls = tclass((0, 1))
        scheme = CompressionScheme(
            "constant", lambda sample: CompressionKey(Sample(())),
            lambda key: (0, 1),
        )
        *reports, cut = replay_scheme(cls, scheme, 1, 60)
        assert reports == replay_scheme(cls, scheme, 1, 50)
        assert [(r.valid, r.m, r.samples_checked) for r in reports] == [
            (True, m, m + 1) for m in range(1, 51)
        ]
        assert isinstance(cut, BudgetError)
        assert cut.report == SchemeReport(None, 51, 0, (), 0)
        with pytest.raises(BudgetError) as info:
            verify_scheme(cls, scheme, 60)
        assert info.value.report == SchemeReport(None, 60, 0, (), 0)


@st.composite
def classes_with_entries(draw):
    """A partial class on at most 4 points, 3 labels and 8 concepts, and an
    entry list that may repeat points, contradict itself, or name a pair no
    concept holds (a label one past the alphabet)."""
    n = draw(st.integers(1, 4))
    labels = draw(st.integers(1, 3))
    cell = st.sampled_from((STAR,) + tuple(range(labels)))
    rows = draw(st.lists(st.tuples(*[cell] * n), max_size=8, unique=True))
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, labels))
    entries = draw(st.lists(entry, max_size=5))
    return ConceptClass(n, tuple(rows), ClassKind.PARTIAL), entries


class TestHolders:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(classes_with_entries())
    def test_index_answers_match_the_oracle(self, drawn):
        cls, entries = drawn
        want = [
            c
            for c, concept in enumerate(cls.concepts)
            if oracles.is_realizable([concept], entries)
        ]
        assert cls.agreeing(entries) == sum(1 << c for c in want)
        if want:
            assert _erm_index(cls, entries) == want[0]
        else:
            with pytest.raises(RealizabilityError):
                _erm_index(cls, entries)
        defined = [
            (i, y)
            for concept in cls.concepts
            for i, y in enumerate(concept)
            if y != STAR
        ]
        assert cls.labels_used() == tuple(sorted({y for _, y in defined}))
        assert cls.support_indices() == tuple(sorted({i for i, _ in defined}))


class TestDual:
    def test_row_vector_transposes(self):
        cls = tclass((0, 1))
        d = dual(cls)
        assert d.domain_size == 1
        assert set(d.concepts) == {(0,), (1,)}

    def test_involution_on_duplicate_free_tables(self):
        rng = random.Random(7)
        for _ in range(50):
            cls = random_partial_class(rng, 4, 5, 3)
            rows = set(cls.concepts)
            cols = {
                tuple(c[j] for c in cls.concepts)
                for j in range(cls.domain_size)
            }
            if len(rows) != cls.n_concepts or len(cols) != cls.domain_size:
                continue
            back = dual(dual(cls))
            assert set(back.concepts) == rows

    def test_empty_class_rejected(self):
        empty = ConceptClass(2, (), ClassKind.TOTAL)
        with pytest.raises(ValueError):
            dual(empty)

    def test_star_entries_transpose(self):
        cls = pclass((0, STAR), (1, 1))
        d = dual(cls)
        assert d.kind is ClassKind.PARTIAL
        assert set(d.concepts) == {(0, 1), (STAR, 1)}


class TestUnionDisjoint:
    def test_two_singletons(self):
        u = union_disjoint([tclass((0,)), tclass((1,))])
        assert u.domain_size == 2
        assert set(u.concepts) == {(0, STAR), (STAR, 1)}
        assert u.kind is ClassKind.PARTIAL

    def test_supports_stay_in_blocks(self):
        a = biclique_class(star_partition(3))
        b = biclique_class(star_partition(4))
        u = union_disjoint([a, b])
        assert u.domain_size == 5
        assert u.n_concepts == 7
        for concept in u.concepts:
            defined = {i for i, v in enumerate(concept) if v != STAR}
            assert defined <= set(range(2)) or defined <= set(range(2, 5))

    def test_block_restriction_recovers_inputs(self):
        a = biclique_class(star_partition(3))
        b = biclique_class(star_partition(4))
        u = union_disjoint([a, b])
        block = restrict(u, tuple(range(2, 5)))
        live = {p for p in block if any(v != STAR for v in p)}
        assert live == set(b.concepts)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            union_disjoint([])


class TestRandomClasses:
    @pytest.mark.parametrize(
        "p", [-0.1, 1.5, 2.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_star_probability_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match="star probability"):
            random_partial_class(random.Random(0), 3, 4, 2, star_probability=p)

    def test_star_probability_endpoints(self):
        every = random_partial_class(random.Random(0), 3, 4, 2, star_probability=1)
        assert every.concepts == ((STAR,) * 3,)
        none = random_partial_class(random.Random(0), 3, 4, 2, star_probability=0)
        assert none.n_concepts == 4
        assert not any(STAR in concept for concept in none.concepts)


class TestWireFormat:
    def test_star_encoding_roundtrip(self):
        cls = pclass((1, STAR), (0, 2))
        again = loads_class(dumps_class(cls))
        assert set(again.concepts) == set(cls.concepts)
        assert again.kind is cls.kind
        assert again.domain_size == cls.domain_size

    def test_canonical_serialization_is_fixpoint(self):
        cls = pclass((1, STAR), (0, 2), (1, 0))
        text = dumps_class(cls)
        assert dumps_class(loads_class(text)) == text

    def test_star_sorts_after_integers(self):
        cls = pclass((STAR, 0), (5, 0), (0, 0))
        data = dumps_class(cls)
        rows = loads_class(data).concepts
        assert rows == ((0, 0), (5, 0), (STAR, 0))

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            class_from_json({"domain_size": 1, "kind": "nope", "concepts": []})
        with pytest.raises(ValueError):
            class_from_json({"domain_size": 1, "kind": "total", "concepts": [[-4]]})
        with pytest.raises(ValueError):
            class_from_json([1, 2, 3])

    def test_sample_roundtrip(self):
        s = Sample(((3, 1), (0, 2), (3, 1)))
        assert sample_from_json(sample_to_json(s)) == s
        assert s.entries == ((0, 2), (3, 1), (3, 1))


class TestSample:
    def test_entries_sorted(self):
        s = Sample(((2, 0), (0, 1)))
        assert s.entries == ((0, 1), (2, 0))

    def test_star_labels_rejected(self):
        with pytest.raises(ValueError):
            Sample(((0, STAR),))

    @pytest.mark.parametrize("index", [True, False])
    def test_bool_index_rejected(self, index):
        with pytest.raises(ValueError):
            Sample(((index, 0),))
        with pytest.raises(ValueError):
            sample_from_json([[index, 0]])


_CUBE = ConceptClass(1, ((0,), (1,)), ClassKind.TOTAL)
_POSITIVE = "domain_size, n_concepts and n_labels must be positive"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: ConceptClass(-1, (), ClassKind.TOTAL),
            ValueError,
            "domain_size must be non-negative",
        ),
        (
            lambda: union_disjoint([_CUBE, ConceptClass(1, (), ClassKind.TOTAL)]),
            ValueError,
            "union_disjoint requires nonempty classes",
        ),
        (
            lambda: core.check_table_size(core.TABLE_ENTRY_BUDGET + 1, 1),
            BudgetError,
            f"{core.TABLE_ENTRY_BUDGET + 1} concepts over 1 points exceed the "
            f"table budget of {core.TABLE_ENTRY_BUDGET} entries",
        ),
        (lambda: random_total_class(random.Random(0), 0, 1, 2), ValueError, _POSITIVE),
        (lambda: random_total_class(random.Random(0), 1, -1, 2), ValueError, _POSITIVE),
        (lambda: random_partial_class(random.Random(0), 1, 1, 0), ValueError, _POSITIVE),
        (lambda: random_partial_class(random.Random(0), 1, 0, 2), ValueError, _POSITIVE),
    ],
    ids=[
        "class-negative-domain",
        "union-empty-class",
        "table-past-budget",
        "random-total-no-points",
        "random-total-negative-concepts",
        "random-partial-no-labels",
        "random-partial-no-concepts",
    ],
)
def test_error_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
