"""Shattering checkers against definition-literal oracles, witness replay,
monotonicity, and the dimension search."""

import dataclasses
import itertools
import random

import pytest

import oracles
from helpers import dual_dimension
from conceptlab import _kernels, dimensions
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
    ShatterWitness,
    dimension,
    ds_shatters,
    ds_shatters_bruteforce,
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

    def test_fewer_than_two_to_the_d_patterns_skip_the_kernel(self, monkeypatch):
        def kernel_called(patterns):
            raise AssertionError(f"kernel reached with {len(patterns)} patterns")

        monkeypatch.setattr(_kernels, "ds_fixpoint", kernel_called)
        assert ds_shatters(tclass((1, 0), (1, 1), (0, 1)), (0, 1)) is None
        cube = list(itertools.product((0, 1), repeat=3))
        assert ds_shatters(tclass(*cube[1:]), (0, 1, 2)) is None
        with pytest.raises(AssertionError, match="8 patterns"):
            ds_shatters(tclass(*cube), (0, 1, 2))

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


class TestWitnessVerify:
    """Malformed witnesses are rejected without raising."""

    CUBE = tclass((0, 0), (0, 1), (1, 0), (1, 1))
    TWO_LABELS = tclass((0,), (1,))

    def test_well_formed_witnesses_verify(self):
        assert ds_shatters(self.CUBE, (0, 1)).verify(self.CUBE)
        assert n_shatters(self.CUBE, (0, 1)).verify(self.CUBE)
        assert g_shatters(self.CUBE, (0, 1)).verify(self.CUBE)
        assert ds_shatters(self.TWO_LABELS, (0,)).verify(self.TWO_LABELS)

    def test_indices_must_be_distinct_points(self):
        ds = ds_shatters(self.CUBE, (0, 1))
        nat = n_shatters(self.CUBE, (0, 1))
        for witness, indices in [
            (ds, (0, -1)),
            (nat, (-2, -1)),
            (ds, (0, 5)),
            (nat, (0, 5)),
            (ds, (False, True)),
            (ds, (1, 1)),
        ]:
            replaced = dataclasses.replace(witness, indices=indices)
            assert replaced.verify(self.CUBE) is False, indices

    def test_neighbor_lists_must_name_patterns(self):
        ds = ds_shatters(self.CUBE, (0, 1))
        first, rest = ds.neighbors[0], ds.neighbors[1:]
        short = (first[:1],) + rest
        past_end = ((first[0] + (9,),) + first[1:],) + rest
        for neighbors in (short, past_end):
            replaced = dataclasses.replace(ds, neighbors=neighbors)
            assert replaced.verify(self.CUBE) is False
        wrapped = ShatterWitness(
            kind=ShatterKind.DS,
            indices=(0,),
            patterns=((0,), (1,)),
            neighbors=(((-1,),), ((-2,),)),
        )
        assert wrapped.verify(self.TWO_LABELS) is False

    def test_vectors_must_have_one_entry_per_index(self):
        nat = n_shatters(self.CUBE, (0, 1))
        graph = g_shatters(self.CUBE, (0, 1))
        for replaced in (
            dataclasses.replace(nat, pair=((0, 0, 0), (1, 1))),
            dataclasses.replace(nat, pair=((0, 0),)),
            dataclasses.replace(graph, anchor=(0,)),
            dataclasses.replace(graph, realizers=((0,),) * 4),
        ):
            assert replaced.verify(self.CUBE) is False


    def test_vc_witness_verifies_by_its_patterns(self):
        vc = vc_shatters(self.CUBE, (0, 1))
        assert vc.verify(self.CUBE) is True
        assert dataclasses.replace(vc, patterns=vc.patterns[:3]).verify(
            self.CUBE
        ) is False
        assert vc.verify(tclass((0, 0), (0, 1), (1, 0))) is False

    def test_empty_indices(self):
        ds = ds_shatters(self.CUBE, (0, 1))
        assert dataclasses.replace(ds, indices=()).verify(self.CUBE) is False
        with pytest.raises(ValueError, match="index sequence must be nonempty"):
            ds_shatters(self.CUBE, ())

    def test_each_malformed_witness_is_rejected(self):
        """One witness per way verify can refuse, each otherwise intact."""
        ds = ds_shatters(self.CUBE, (0, 1))
        nat = n_shatters(self.CUBE, (0, 1))
        graph = g_shatters(self.CUBE, (0, 1))
        three = tclass((0, 0), (0, 1), (1, 0))
        hoods = ds.neighbors
        cases = {
            "no patterns": (dataclasses.replace(ds, patterns=()), self.CUBE),
            "a pattern without neighbors": (
                dataclasses.replace(ds, neighbors=hoods[:3]), self.CUBE
            ),
            "an unrealized pattern": (ds, three),
            "an empty neighborhood": (
                dataclasses.replace(ds, neighbors=(((), (1,)),) + hoods[1:]),
                self.CUBE,
            ),
            "a neighbor off the wrong coordinate": (
                dataclasses.replace(ds, neighbors=(((1,), (1,)),) + hoods[1:]),
                self.CUBE,
            ),
            "a pair agreeing on a point": (
                dataclasses.replace(nat, pair=((0, 0), (0, 1))), self.CUBE
            ),
            "realizers out of order (Natarajan)": (
                dataclasses.replace(nat, realizers=nat.realizers[::-1]),
                self.CUBE,
            ),
            "no anchor": (dataclasses.replace(graph, anchor=None), self.CUBE),
            "realizers out of order (graph)": (
                dataclasses.replace(graph, realizers=graph.realizers[::-1]),
                self.CUBE,
            ),
            "a kind that is no ShatterKind": (
                dataclasses.replace(ds, kind="ds"), self.CUBE
            ),
        }
        for case, (witness, cls) in cases.items():
            assert witness.verify(cls) is False, case


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

    def test_bool_and_non_int_indices_rejected(self):
        cls = haussler_long_class(2, 3, 1)
        for check in (n_shatters, g_shatters, ds_shatters, vc_shatters):
            for bad in ((True,), (0, False), (0.0,), ("1",)):
                with pytest.raises(ValueError):
                    check(cls, bad)

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

    def test_row_filter_case_mix(self):
        # among the subsets the 2^d count lets through: some where the
        # Natarajan row filter drops a row, some where its second round
        # drops more, and some where the graph filter rejects an anchor, so
        # that the first-witness tests here pin both filters
        n_drop = n_second = g_drop = 0
        for cls, combo in self.cases():
            if len(oracles.patterns_on(cls.concepts, combo)) < 2 ** len(combo):
                continue
            drops = oracles.natarajan_row_filter_drops(cls.concepts, combo)
            n_drop += bool(drops)
            n_second += len(drops) > 1
            g_drop += oracles.graph_anchors_filtered(cls.concepts, combo) > 0
        assert n_drop > 50 and n_second > 0 and g_drop > 50

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

    def test_rows_past_one_machine_word(self):
        # 65-130 distinct concepts over 3 labels: on 4 points up to 81
        # distinct rows, so the row bitsets of the checkers pass 64 bits
        rng = random.Random(71)
        classes = []
        for n, size in ((6, 130), (7, 65), (7, 100), (7, 130)):
            concepts = list(random_total_class(rng, n, size, 3).concepts)
            rng.shuffle(concepts)
            classes.append(ConceptClass(n, tuple(concepts), ClassKind.TOTAL))
        # the diagonal of 72 labels, then the two mixtures of its last two
        # rows: the only Natarajan pair is rows 70 and 71
        classes.append(tclass(*[(i, i) for i in range(72)], (70, 71), (71, 70)))
        cases = n_found = wide = n_wide = g_wide = 0
        for cls in classes:
            n = cls.domain_size
            for r in (1, 2, 3, 4)[:n]:
                for combo in itertools.combinations(range(n), r):
                    want_n = oracles.n_first_witness(cls.concepts, combo)
                    got_n = n_shatters(cls, combo)
                    got_n = got_n and (got_n.pair, got_n.realizers)
                    assert got_n == want_n, (cls, combo)
                    want_g = oracles.g_first_witness(cls.concepts, combo)
                    got_g = g_shatters(cls, combo)
                    got_g = got_g and (got_g.anchor, got_g.realizers)
                    assert got_g == want_g, (cls, combo)
                    cases += 1
                    n_found += want_n is not None
                    if len(oracles.patterns_on(cls.concepts, combo)) > 64:
                        wide += 1
                        n_wide += want_n is not None
                        g_wide += want_g is not None
        assert wide > 20 and n_wide > 20 and g_wide > 20
        assert 100 < n_found < cases

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
        checkers = {
            ShatterKind.DS: ds_shatters,
            ShatterKind.NATARAJAN: n_shatters,
            ShatterKind.GRAPH: g_shatters,
        }
        for _ in range(40):
            cls = random_total_class(rng, 4, 6, 3)
            for kind, check in checkers.items():
                fast = dimension(cls, kind).value
                full = oracles.naive_dimension(
                    cls.concepts,
                    cls.domain_size,
                    lambda concepts, combo: check(cls, combo) is not None,
                )
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


class TestSharedLabelBound:
    """Every point of a shattered S of size d has a shared-label score of at
    least 2^(d-1), and ``dimension``, which scans only the subsets of such
    points, answers exactly as the scan over every subset."""

    ORACLES = {
        ShatterKind.VC: oracles.vc_shattered,
        ShatterKind.DS: oracles.ds_shattered,
        ShatterKind.NATARAJAN: oracles.n_shattered,
        ShatterKind.GRAPH: oracles.g_shattered,
    }
    CHECKERS = {ShatterKind.VC: vc_shatters, ShatterKind.DS: ds_shatters}

    @staticmethod
    def cases():
        """(class, kind) for seeded random partial and total classes over 1-4
        points, up to 9 concepts and 2-3 labels, with every kind defined
        on the class."""
        rng = random.Random(73)
        for _ in range(1000):
            n, size, labels = rng.randint(1, 4), rng.randint(1, 9), rng.randint(2, 3)
            if rng.random() < 0.5:
                cls = random_total_class(rng, n, size, labels)
            else:
                cls = random_partial_class(rng, n, size, labels)
            kinds = [ShatterKind.DS]
            if cls.kind is ClassKind.TOTAL:
                kinds += [ShatterKind.NATARAJAN, ShatterKind.GRAPH]
            if set(cls.labels_used()) <= {0, 1}:
                kinds.append(ShatterKind.VC)
            for kind in kinds:
                yield cls, kind

    def test_package_scores_match_the_oracle(self):
        for cls, _ in self.cases():
            want = [
                oracles.shared_label_score(cls.concepts, j)
                for j in range(cls.domain_size)
            ]
            assert dimensions._shared_label_scores(cls) == want, cls

    def test_shattered_sets_meet_the_bound(self):
        cases = tight = 0
        for cls, kind in self.cases():
            score = [
                oracles.shared_label_score(cls.concepts, j)
                for j in range(cls.domain_size)
            ]
            for d in range(1, cls.domain_size + 1):
                for combo in itertools.combinations(range(cls.domain_size), d):
                    if not self.ORACLES[kind](cls.concepts, combo):
                        continue
                    floor = min(score[j] for j in combo)
                    assert floor >= 2 ** (d - 1), (cls, kind, combo)
                    defined = oracles.defined_everywhere(cls.concepts, combo)
                    assert defined >= 2**d, (cls, kind, combo)
                    if kind in (ShatterKind.DS, ShatterKind.VC):
                        for k in range(1, d + 1):
                            live = oracles.fibre_live(cls.concepts, combo[:k], d)
                            assert len(live) >= 2**d, (cls, kind, combo, k)
                    cases += 1
                    tight += floor == 2 ** (d - 1)
        assert cases > 5000 and tight >= 1000

    def test_search_matches_the_unpruned_scan(self):
        pruned = set()
        for cls, kind in self.cases():
            n = cls.domain_size
            shattered = self.ORACLES[kind]
            score = [oracles.shared_label_score(cls.concepts, j) for j in range(n)]
            # the first shattered subset of each level of the unpruned scan,
            # noting the subsets before it that the bound rules out
            first = None
            for d in range(1, n + 1):
                level_first = None
                for combo in itertools.combinations(range(n), d):
                    if shattered(cls.concepts, combo):
                        level_first = combo
                        break
                    if min(score[j] for j in combo) < 2 ** (d - 1):
                        pruned.add(cls)
                if level_first is None:
                    break
                first = level_first
            result = dimension(cls, kind)
            assert result.value == oracles.naive_dimension(
                cls.concepts, n, shattered
            ), (cls, kind)
            if first is None:
                assert result.witness is None
                continue
            assert result.witness.indices == first, (cls, kind)
            if kind is ShatterKind.NATARAJAN:
                want = oracles.n_first_witness(cls.concepts, first)
                got = (result.witness.pair, result.witness.realizers)
            elif kind is ShatterKind.GRAPH:
                want = oracles.g_first_witness(cls.concepts, first)
                got = (result.witness.anchor, result.witness.realizers)
            else:
                want, got = self.CHECKERS[kind](cls, first), result.witness
            assert got == want, (cls, kind)
        assert len(pruned) >= 500

    def scan(self, cls, kind, shattered=None):
        """(subset, seen) for each subset ``dimension`` tries, in order: the
        subsets of the points the score keeps, up to the first one of each
        level that ``shattered`` (the kind's oracle by default) accepts.
        The checker sees those on which at least 2^d concepts are defined
        everywhere and, for DS and VC, every prefix of which keeps at least
        2^d concepts under ``oracles.fibre_live`` (seen True), and no
        others."""
        n = cls.domain_size
        shattered = shattered or self.ORACLES[kind]
        score = [oracles.shared_label_score(cls.concepts, j) for j in range(n)]
        out = []
        for d in range(1, n + 1):
            kept = [
                combo
                for combo in itertools.combinations(range(n), d)
                if min(score[j] for j in combo) >= 2 ** (d - 1)
            ]
            hit = next(
                (
                    pos
                    for pos, combo in enumerate(kept)
                    if shattered(cls.concepts, combo)
                ),
                None,
            )
            out += [
                (combo, self.seen(cls, kind, combo))
                for combo in (kept if hit is None else kept[: hit + 1])
            ]
            if hit is None:
                break
        return out

    @staticmethod
    def seen(cls, kind, combo):
        d = len(combo)
        if oracles.defined_everywhere(cls.concepts, combo) < 2**d:
            return False
        if kind not in (ShatterKind.DS, ShatterKind.VC):
            return True
        return all(
            len(oracles.fibre_live(cls.concepts, combo[:k], d)) >= 2**d
            for k in range(1, d + 1)
        )

    def test_checker_sees_exactly_the_kept_subsets(self, monkeypatch):
        calls = []
        for kind, check in list(dimensions._CHECKERS.items()):

            def counting(cls, indices, check=check):
                calls.append(indices)
                return check(cls, indices)

            monkeypatch.setitem(dimensions._CHECKERS, kind, counting)
        skipped = 0
        for cls, kind in self.cases():
            tried = self.scan(cls, kind)
            want = [combo for combo, seen in tried if seen]
            skipped += len(tried) - len(want)
            calls.clear()
            dimension(cls, kind)
            assert calls == want, (cls, kind)
        assert skipped > 50

    def larger_cases(self):
        """(class, kind, scan) for seeded random partial and total classes
        over 5-6 points, 8-40 concepts and 2-4 labels, for DS and, on a
        binary class, VC.  The scan stops at the subsets the package
        checker accepts: the oracle's search over pattern subsets is too
        slow for these classes."""
        rng = random.Random(2308)
        for _ in range(600):
            n, size, labels = rng.randint(5, 6), rng.randint(8, 40), rng.randint(2, 4)
            if rng.random() < 0.5:
                cls = random_total_class(rng, n, size, labels)
            else:
                cls = random_partial_class(rng, n, size, labels, 0.15)
            kinds = [ShatterKind.DS]
            if set(cls.labels_used()) <= {0, 1}:
                kinds.append(ShatterKind.VC)
            for kind in kinds:
                check = self.CHECKERS[kind]
                yield cls, kind, self.scan(
                    cls, kind, lambda _, combo: check(cls, combo) is not None
                )

    def test_prefix_rule_fires_on_larger_classes(self, monkeypatch):
        """On the larger classes, the DS and VC checkers see exactly the
        subsets the oracle keeps, among them the first shattered subset of
        each level of the unpruned scan, and the prefix rule skips subsets
        that the defined-concept count passes."""
        calls = []
        for kind, check in self.CHECKERS.items():

            def counting(cls, indices, check=check):
                calls.append(indices)
                return check(cls, indices)

            monkeypatch.setitem(dimensions._CHECKERS, kind, counting)
        fired = 0
        for cls, kind, tried in self.larger_cases():
            check = self.CHECKERS[kind]
            calls.clear()
            result = dimension(cls, kind)
            assert calls == [combo for combo, seen in tried if seen], (cls, kind)
            first = {}
            n = cls.domain_size
            for combo in itertools.chain.from_iterable(
                itertools.combinations(range(n), d) for d in range(1, n + 1)
            ):
                if len(combo) not in first and check(cls, combo) is not None:
                    first[len(combo)] = combo
            assert result.value == max(first, default=0), (cls, kind)
            if first:
                assert result.witness == check(cls, first[result.value])
            fired += any(
                not seen
                and oracles.defined_everywhere(cls.concepts, combo) >= 2 ** len(combo)
                for combo, seen in tried
            )
        assert fired >= 300

    def test_budget_exit_at_every_budget(self, monkeypatch):
        """Below the number of subsets the scan tries, budget B raises where
        subset B + 1 would be tried: at its level, with the first shattered
        subset of the level before as the lower bound.  The subsets under a
        dead prefix count in one step, so a budget that runs out among them
        raises at their level too."""
        cases = 0
        for cls, kind, tried in itertools.islice(self.larger_cases(), 300):
            if all(seen for _, seen in tried):
                continue
            cases += 1
            check = self.CHECKERS[kind]
            monkeypatch.setattr(dimensions, "SUBSET_BUDGET", len(tried))
            dimension(cls, kind)
            for budget in range(len(tried)):
                monkeypatch.setattr(dimensions, "SUBSET_BUDGET", budget)
                with pytest.raises(BudgetError) as info:
                    dimension(cls, kind)
                d = len(tried[budget][0])
                assert str(info.value) == (
                    f"subset budget {budget} exhausted at d={d}; "
                    f"{kind.value} dimension is at least {d - 1}"
                )
                report = info.value.report
                assert (report["kind"], report["level"]) == (kind, d)
                # the scan ends each level at its first shattered subset
                below = [combo for combo, _ in tried if len(combo) == d - 1]
                witness = check(cls, below[-1]) if below else None
                assert report["lower_bound"] == dimensions.DimensionResult(
                    value=d - 1, witness=witness
                ), (cls, kind, budget)
        assert cases >= 100

    def test_skipped_subsets_count_toward_the_budget(self, monkeypatch):
        cases = 0
        for cls, kind in self.cases():
            tried = self.scan(cls, kind)
            if all(seen for _, seen in tried):
                continue
            cases += 1
            monkeypatch.setattr(dimensions, "SUBSET_BUDGET", len(tried))
            dimension(cls, kind)
            monkeypatch.setattr(dimensions, "SUBSET_BUDGET", len(tried) - 1)
            with pytest.raises(BudgetError):
                dimension(cls, kind)
        assert cases > 50

    @pytest.mark.parametrize("kind", [ShatterKind.DS, ShatterKind.NATARAJAN])
    def test_disjoint_pairs_make_one_checker_call(self, monkeypatch, kind):
        # no label is shared, so every point scores 1: level 1 meets a
        # shattered (0,) at once and level 2 has no candidate point
        calls = []
        check = dimensions._CHECKERS[kind]

        def counting(cls, indices):
            calls.append(indices)
            return check(cls, indices)

        monkeypatch.setitem(dimensions._CHECKERS, kind, counting)
        result = dimension(disjoint_pairs_family(6), kind)
        assert (result.value, calls) == (1, [(0,)])


class TestDimensionErrors:
    """``dimension`` raises what the first checker call raised before the
    bound could skip that call: the same type and message."""

    NATARAJAN = "Natarajan shattering is defined for total classes only"
    GRAPH = "graph shattering is defined for total classes only"

    @pytest.mark.parametrize(
        "cls",
        [
            pclass((0, 1), (1, 0)),
            pclass((0, 1)),
            pclass((STAR, STAR)),
            pclass((0, STAR), (STAR, 1)),
        ],
        ids=["shattering", "one-concept", "all-star", "no-shared-label"],
    )
    def test_partial_classes(self, cls):
        with pytest.raises(ValueError) as info:
            dimension(cls, ShatterKind.NATARAJAN)
        assert str(info.value) == self.NATARAJAN
        with pytest.raises(ValueError) as info:
            dimension(cls, ShatterKind.GRAPH)
        assert str(info.value) == self.GRAPH

    @pytest.mark.parametrize(
        "cls, labels",
        [
            (tclass((0, 2)), [0, 2]),
            (tclass((0, 2), (1, 2)), [0, 1, 2]),
            (pclass((STAR, 3)), [3]),
        ],
        ids=["one-concept", "constant-point", "partial"],
    )
    def test_vc_labels_outside_binary(self, cls, labels):
        with pytest.raises(ValueError) as info:
            dimension(cls, ShatterKind.VC)
        assert str(info.value) == (
            f"VC shattering needs labels within {{0, 1}}, class uses {labels}"
        )

    @pytest.mark.parametrize("kind", list(ShatterKind))
    def test_zero_points_and_no_concepts(self, kind):
        zero_points = ConceptClass(0, ((),), ClassKind.PARTIAL)
        assert dimension(zero_points, kind) == dimensions.DimensionResult(0, None)
        empty = ConceptClass(2, (), ClassKind.PARTIAL)
        assert dimension(empty, kind) == dimensions.DimensionResult(-1, None)


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
