"""Generators: star partitions, biclique classes, disambiguation, the
private-pairs family, the bounded-support class, and the worked pair."""

import itertools
import math

import pytest

from helpers import is_realizable, restrict
from conceptlab.core import (
    STAR,
    ClassKind,
    ConceptClass,
    enumerate_realizable_samples,
)
from conceptlab.constructions import (
    BicliquePartition,
    Graph,
    biclique_class,
    complete_graph,
    disjoint_pairs_family,
    graph_dim_blowup_example,
    haussler_long_class,
    star_partition,
    unique_label_disambiguation,
)
from conceptlab.errors import BudgetError


class TestGraphs:
    def test_complete_graph_edge_count(self):
        g = complete_graph(5)
        assert len(g.edges) == 10

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    def test_edges_normalized(self):
        g = Graph(3, frozenset({(2, 0)}))
        assert g.edges == frozenset({(0, 2)})


class TestStarPartition:
    def test_t3_parts(self):
        part = star_partition(3)
        assert part.parts == (
            (frozenset({0}), frozenset({1, 2})),
            (frozenset({1}), frozenset({2})),
        )

    def test_exact_cover_for_t5(self):
        part = star_partition(5)
        assert part.n_parts == 4
        covered = set()
        for left, right in part.parts:
            for u in left:
                for v in right:
                    edge = (min(u, v), max(u, v))
                    assert edge not in covered
                    covered.add(edge)
        assert covered == set(complete_graph(5).edges)

    def test_t2_single_part(self):
        part = star_partition(2)
        assert part.parts == ((frozenset({0}), frozenset({1})),)

    def test_t1_rejected(self):
        with pytest.raises(ValueError):
            star_partition(1)

    def test_bad_partitions_rejected(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):  # edge (1, 2) missing
            BicliquePartition(g, ((frozenset({0}), frozenset({1, 2})),))
        with pytest.raises(ValueError):  # edge (0, 1) covered twice
            BicliquePartition(
                g,
                (
                    (frozenset({0}), frozenset({1, 2})),
                    (frozenset({1}), frozenset({0, 2})),
                ),
            )


class TestBicliqueClass:
    def test_t3_concepts(self):
        cls = biclique_class(star_partition(3))
        assert cls.concepts == ((0, STAR), (1, 0), (1, 1))
        assert cls.kind is ClassKind.PARTIAL

    def test_edge_part_separates_endpoint_concepts(self):
        part = star_partition(5)
        cls = biclique_class(part)
        for u, v in part.graph.edges:
            i = part.part_of_edge(u, v)
            assert {cls.concepts[u][i], cls.concepts[v][i]} == {0, 1}

    def test_never_shatters_pairs_zero_zero_one_one(self):
        # on any index pair, the patterns (0,0) and (1,1) never co-occur
        for t in range(3, 8):
            cls = biclique_class(star_partition(t))
            for pair in itertools.combinations(range(cls.domain_size), 2):
                patterns = restrict(cls, pair)
                assert not ((0, 0) in patterns and (1, 1) in patterns)


class TestUniqueLabelDisambiguation:
    def test_fresh_labels_start_past_the_alphabet(self):
        cls = ConceptClass(
            2, ((0, STAR), (1, 0), (1, 1)), ClassKind.PARTIAL
        )
        out = unique_label_disambiguation(cls)
        assert out.concepts == ((0, 2), (1, 0), (1, 1))
        assert out.kind is ClassKind.TOTAL

    def test_each_fresh_label_used_by_exactly_one_concept(self):
        cls = biclique_class(star_partition(6))
        out = unique_label_disambiguation(cls)
        fresh = [v for concept in out.concepts for v in concept if v > 1]
        owners = {}
        for idx, concept in enumerate(out.concepts):
            for v in concept:
                if v > 1:
                    owners.setdefault(v, set()).add(idx)
        assert fresh
        assert all(len(v) == 1 for v in owners.values())

    def test_disambiguates_every_small_sample(self):
        cls = biclique_class(star_partition(4))
        out = unique_label_disambiguation(cls)
        for m in (1, 2, 3):
            for sample in enumerate_realizable_samples(cls, m):
                assert is_realizable(out, sample)

    def test_total_input_returned_unchanged_with_notice(self):
        total = ConceptClass(1, ((0,), (1,)), ClassKind.TOTAL)
        with pytest.warns(UserWarning):
            assert unique_label_disambiguation(total) is total


class TestDisjointPairsFamily:
    def test_single_row(self):
        fam = disjoint_pairs_family(1)
        assert fam.concepts == ((1, 2),)

    def test_two_rows_expand(self):
        fam = disjoint_pairs_family(2)
        assert fam.domain_size == 4
        assert fam.concepts == ((1, 1, 2, 2), (3, 4, 3, 4))

    def test_rows_use_disjoint_label_pairs(self):
        fam = disjoint_pairs_family(4)
        for a, b in itertools.combinations(fam.concepts, 2):
            assert not set(a) & set(b)

    def test_no_index_pair_has_agreeing_patterns(self):
        fam = disjoint_pairs_family(3)
        for pair in itertools.combinations(range(fam.domain_size), 2):
            patterns = sorted(restrict(fam, pair))
            for p, q in itertools.combinations(patterns, 2):
                assert p[0] != q[0] and p[1] != q[1]

    def test_resource_guard(self):
        with pytest.raises(BudgetError):
            disjoint_pairs_family(11)


class TestHausslerLongClass:
    def test_small_instance_matches_hand_expansion(self):
        cls = haussler_long_class(2, 3, 1)
        assert cls.concepts == ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2))

    def test_size_formula(self):
        for m, c, d in ((2, 3, 1), (3, 3, 2), (4, 2, 2), (3, 4, 3), (5, 3, 2)):
            cls = haussler_long_class(m, c, d)
            expected = sum(
                math.comb(m, i) * (c - 1) ** i for i in range(d + 1)
            )
            assert cls.n_concepts == expected

    def test_full_alphabet_cube_when_m_equals_d(self):
        cls = haussler_long_class(3, 2, 3)
        assert cls.n_concepts == 8
        assert set(cls.concepts) == set(itertools.product((0, 1), repeat=3))

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            haussler_long_class(2, 3, 0)
        with pytest.raises(ValueError):
            haussler_long_class(2, 3, 3)
        with pytest.raises(ValueError):
            haussler_long_class(2, 1, 1)


class TestWorkedPair:
    def test_partial_patterns(self):
        partial, _ = graph_dim_blowup_example()
        assert set(partial.concepts) == set(
            itertools.product((0, STAR), repeat=3)
        )

    def test_total_uses_the_displayed_labels(self):
        _, total = graph_dim_blowup_example()
        labels = {v for concept in total.concepts for v in concept}
        assert labels == {0, 3, 7, 11, 20, 39, 53, 100}

    def test_total_disambiguates_partial(self):
        partial, total = graph_dim_blowup_example()
        for m in (1, 2, 3):
            for sample in enumerate_realizable_samples(partial, m):
                assert is_realizable(total, sample)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(-1, frozenset()), "vertex_count must be non-negative"),
        (lambda: Graph(2, frozenset({(0, 2)})), "edge (0, 2) out of range"),
        (lambda: complete_graph(0), "complete graph needs at least one vertex"),
        (
            lambda: BicliquePartition(
                complete_graph(2), ((frozenset({0}), frozenset({0, 1})),)
            ),
            "part 0 has overlapping sides",
        ),
        (
            lambda: BicliquePartition(
                complete_graph(2), ((frozenset({0}), frozenset({2})),)
            ),
            "part 0 mentions unknown vertex 2",
        ),
        (
            lambda: star_partition(3).part_of_edge(1, 1),
            "(1, 1) is not an edge of the partitioned graph",
        ),
        (lambda: disjoint_pairs_family(0), "rows must be at least 1"),
    ],
    ids=[
        "graph-negative-count",
        "graph-edge-out-of-range",
        "complete-graph-0",
        "partition-overlapping-sides",
        "partition-unknown-vertex",
        "part-of-non-edge",
        "disjoint-pairs-0",
    ],
)
def test_error_branches(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
