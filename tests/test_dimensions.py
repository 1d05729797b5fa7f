"""Shattering checkers against definition-literal oracles, witness replay,
monotonicity, and the dimension search."""

import itertools
import random

import pytest

import oracles
from conceptlab.core import STAR, ClassKind, ConceptClass
from conceptlab.constructions import (
    biclique_class,
    disjoint_pairs_family,
    graph_dim_blowup_example,
    haussler_long_class,
    star_partition,
    unique_label_disambiguation,
)
from conceptlab.core import union_disjoint
from conceptlab.dimensions import (
    ShatterKind,
    dimension,
    ds_shatters,
    ds_shatters_bruteforce,
    dual_dimension,
    g_shatters,
    n_shatters,
    vc_shatters,
)
from conceptlab.errors import BudgetError
from conceptlab.random_classes import random_partial_class, random_total_class


def tclass(*rows):
    return ConceptClass(len(rows[0]), tuple(rows), ClassKind.TOTAL)


def pclass(*rows):
    return ConceptClass(len(rows[0]), tuple(rows), ClassKind.PARTIAL)


# five concepts over six points, each row using its own private label pair
PRIVATE_PAIRS = tclass(
    (1, 1, 1, 1, 1, 2),
    (3, 3, 3, 3, 4, 3),
    (5, 5, 5, 6, 5, 5),
    (7, 7, 8, 7, 7, 7),
    (9, 10, 9, 9, 9, 9),
)


class TestDsShatters:
    def test_private_label_rows_shatter_no_pair(self):
        for pair in itertools.combinations(range(6), 2):
            assert ds_shatters(PRIVATE_PAIRS, pair) is None

    def test_singleton_with_two_defined_values(self):
        cls = pclass((0, STAR), (1, 0))
        w = ds_shatters(cls, (0,))
        assert w is not None
        assert set(w.patterns) == {(0,), (1,)}
        assert w.verify(cls)

    def test_three_quarters_of_a_cube_cascades_empty(self):
        cls = tclass((1, 0), (1, 1), (0, 1))
        assert ds_shatters(cls, (0, 1)) is None

    def test_full_cube(self):
        cls = tclass((0, 0), (0, 1), (1, 0), (1, 1))
        w = ds_shatters_bruteforce(cls, (0, 1))
        assert w is not None
        assert set(w.patterns) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert w.verify(cls)

    def test_no_full_support_patterns(self):
        cls = pclass((0, STAR), (1, STAR))
        assert ds_shatters(cls, (0, 1)) is None
        assert ds_shatters_bruteforce(cls, (0, 1)) is None

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            ds_shatters(PRIVATE_PAIRS, (0, 0))

    def test_bruteforce_guard(self):
        big = tclass(*[(i, j) for i in range(5) for j in range(5)])
        with pytest.raises(BudgetError):
            ds_shatters_bruteforce(big, (0, 1))

    def test_oracle_equivalence_random(self):
        rng = random.Random(97)
        for _ in range(300):
            cls = random_partial_class(rng, 3, 6, 3)
            for r in (1, 2, 3):
                for combo in itertools.combinations(range(3), r):
                    fast = ds_shatters(cls, combo)
                    slow = ds_shatters_bruteforce(cls, combo)
                    assert (fast is None) == (slow is None), (cls, combo)
                    ref = oracles.ds_shattered(cls.concepts, combo)
                    assert (fast is not None) == ref


class TestNatarajan:
    def test_bounded_support_pair_not_shattered(self):
        cls = haussler_long_class(2, 3, 1)
        assert n_shatters(cls, (0, 1)) is None

    def test_bounded_support_singleton(self):
        cls = haussler_long_class(2, 3, 1)
        w = n_shatters(cls, (0,))
        assert w is not None
        assert w.pair == ((0,), (1,))
        assert w.verify(cls)

    def test_single_concept_never_shatters(self):
        cls = tclass((0, 1))
        assert n_shatters(cls, (0,)) is None

    def test_partial_classes_rejected(self):
        with pytest.raises(ValueError):
            n_shatters(pclass((0, STAR)), (0,))

    def test_matches_oracle_on_random_classes(self):
        rng = random.Random(13)
        for _ in range(100):
            cls = random_total_class(rng, 4, 6, 3)
            for r in (1, 2):
                for combo in itertools.combinations(range(4), r):
                    got = n_shatters(cls, combo) is not None
                    assert got == oracles.n_shattered(cls.concepts, combo)


class TestGraph:
    def test_worked_disambiguation_example(self):
        _, total = graph_dim_blowup_example()
        w = g_shatters(total, (0, 1, 2))
        assert w is not None
        assert w.anchor == (0, 0, 0)
        assert w.verify(total)

    def test_single_concept_needs_a_disagreeing_peer(self):
        cls = tclass((0, 1))
        assert g_shatters(cls, (0,)) is None

    def test_partial_classes_rejected(self):
        with pytest.raises(ValueError):
            g_shatters(pclass((STAR, 0)), (0,))

    def test_n_shattered_implies_g_shattered(self):
        rng = random.Random(29)
        for _ in range(150):
            cls = random_total_class(rng, 4, 7, 3)
            for r in (1, 2):
                for combo in itertools.combinations(range(4), r):
                    if n_shatters(cls, combo) is not None:
                        assert g_shatters(cls, combo) is not None

    def test_matches_oracle_on_random_classes(self):
        rng = random.Random(31)
        for _ in range(100):
            cls = random_total_class(rng, 4, 6, 3)
            for r in (1, 2):
                for combo in itertools.combinations(range(4), r):
                    got = g_shatters(cls, combo) is not None
                    assert got == oracles.g_shattered(cls.concepts, combo)


class TestFirstWitness:
    """n_shatters and g_shatters return exactly the witness of the ordered,
    definition-literal searches in ``oracles``."""

    @staticmethod
    def cases():
        rng = random.Random(67)
        classes = [disjoint_pairs_family(4), haussler_long_class(4, 3, 2)]
        for _ in range(80):
            base = random_total_class(rng, 4, rng.randint(2, 12), 3)
            concepts = list(base.concepts)
            rng.shuffle(concepts)
            classes.append(ConceptClass(4, tuple(concepts), ClassKind.TOTAL))
        for cls in classes:
            for r in (1, 2, 3):
                for combo in itertools.combinations(range(cls.domain_size), r):
                    yield cls, combo

    def test_case_mix(self):
        repeated = few = 0
        for cls, combo in self.cases():
            distinct = len(oracles.patterns_on(cls.concepts, combo))
            repeated += distinct < cls.n_concepts
            few += distinct < 2 ** len(combo)
        assert repeated > 500 and few > 500

    def test_natarajan_matches_first_ordered_pair(self):
        found = 0
        for cls, combo in self.cases():
            want = oracles.n_first_witness(cls.concepts, combo)
            got = n_shatters(cls, combo)
            if want is None:
                assert got is None, (cls, combo)
                continue
            found += 1
            assert (got.pair, got.realizers) == want, (cls, combo)
        assert found > 100

    def test_graph_matches_first_stored_anchor(self):
        found = 0
        for cls, combo in self.cases():
            want = oracles.g_first_witness(cls.concepts, combo)
            got = g_shatters(cls, combo)
            if want is None:
                assert got is None, (cls, combo)
                continue
            found += 1
            assert (got.anchor, got.realizers) == want, (cls, combo)
        assert found > 100


class TestVc:
    def test_requires_binary_labels(self):
        with pytest.raises(ValueError):
            vc_shatters(tclass((0, 2)), (0,))

    def test_full_support_needed_on_partial_classes(self):
        cls = pclass((0, STAR), (1, STAR))
        assert vc_shatters(cls, (0,)) is not None
        assert vc_shatters(cls, (1,)) is None

    def test_matches_oracle(self):
        rng = random.Random(37)
        for _ in range(100):
            cls = random_total_class(rng, 4, 8, 2)
            for r in (1, 2, 3):
                for combo in itertools.combinations(range(4), r):
                    got = vc_shatters(cls, combo) is not None
                    assert got == oracles.vc_shattered(cls.concepts, combo)


class TestDimension:
    def test_empty_class_convention(self):
        empty = ConceptClass(2, (), ClassKind.TOTAL)
        assert dimension(empty, ShatterKind.DS).value == -1

    def test_unshatterable_class_has_dimension_zero(self):
        assert dimension(tclass((0, 0)), ShatterKind.DS).value == 0

    def test_biclique_star_partition_has_ds_one(self):
        cls = biclique_class(star_partition(5))
        result = dimension(cls, ShatterKind.DS)
        assert result.value == 1
        assert result.witness.verify(cls)

    def test_disambiguated_union_keeps_ds_one(self):
        u = union_disjoint(
            [biclique_class(star_partition(t)) for t in (3, 4, 5)]
        )
        assert dimension(u, ShatterKind.DS).value == 1
        d = unique_label_disambiguation(u)
        assert dimension(d, ShatterKind.DS).value == 1

    def test_bounded_support_natarajan_dimension(self):
        cls = haussler_long_class(4, 3, 2)
        assert dimension(cls, ShatterKind.NATARAJAN).value == 2

    def test_early_exit_matches_exhaustive_search(self):
        rng = random.Random(41)
        for _ in range(40):
            cls = random_total_class(rng, 4, 6, 3)
            for kind in (ShatterKind.DS, ShatterKind.NATARAJAN, ShatterKind.GRAPH):
                fast = dimension(cls, kind).value
                full = dimension(cls, kind, exhaustive=True).value
                assert fast == full

    def test_vc_on_nonbinary_class_rejected(self):
        with pytest.raises(ValueError):
            dimension(tclass((0, 2)), ShatterKind.VC)

    def test_witnesses_replay(self):
        rng = random.Random(43)
        for _ in range(40):
            cls = random_total_class(rng, 4, 6, 3)
            for kind in (ShatterKind.DS, ShatterKind.NATARAJAN, ShatterKind.GRAPH):
                result = dimension(cls, kind)
                if result.witness is not None:
                    assert result.witness.verify(cls)


class TestDualDimension:
    def test_private_pairs_blow_up(self):
        fam = disjoint_pairs_family(2)
        assert dimension(fam, ShatterKind.DS).value == 1
        assert dual_dimension(fam, ShatterKind.DS) == 2
        assert dual_dimension(disjoint_pairs_family(3), ShatterKind.DS) == 3

    def test_constant_single_concept_dual_is_zero(self):
        cls = tclass((0, 0, 0))
        assert dual_dimension(cls, ShatterKind.DS) == 0

    def test_nonconstant_single_concept_dual_is_one(self):
        # the transpose has one point and two distinct labels, which is a
        # shattered singleton
        cls = tclass((0, 1))
        assert dual_dimension(cls, ShatterKind.DS) == 1


class TestOrderingAndMonotonicity:
    def test_subset_monotonicity_all_kinds(self):
        rng = random.Random(47)
        checkers = {
            ShatterKind.DS: ds_shatters,
            ShatterKind.NATARAJAN: n_shatters,
            ShatterKind.GRAPH: g_shatters,
        }
        for _ in range(60):
            cls = random_total_class(rng, 4, 7, 3)
            for kind, check in checkers.items():
                for r in (2, 3):
                    for combo in itertools.combinations(range(4), r):
                        if check(cls, combo) is None:
                            continue
                        for sub in itertools.combinations(combo, r - 1):
                            assert check(cls, sub) is not None, (kind, combo)

    def test_natarajan_at_most_graph(self):
        rng = random.Random(53)
        for _ in range(60):
            cls = random_total_class(rng, 4, 7, 3)
            dn = dimension(cls, ShatterKind.NATARAJAN).value
            dg = dimension(cls, ShatterKind.GRAPH).value
            assert dn <= dg

    def test_binary_classes_all_dimensions_coincide(self):
        rng = random.Random(59)
        for _ in range(60):
            cls = random_total_class(rng, 4, 8, 2)
            values = {
                kind: dimension(cls, kind).value
                for kind in (
                    ShatterKind.VC,
                    ShatterKind.DS,
                    ShatterKind.NATARAJAN,
                    ShatterKind.GRAPH,
                )
            }
            assert len(set(values.values())) == 1, values
