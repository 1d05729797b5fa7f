"""Coloring extraction, exact chromatic number, and the composed
counting-ceiling / chromatic-floor certificate."""

import itertools
import random

import pytest

import oracles
from helpers import min_compression_size
from conceptlab.compression import (
    CompressionScheme,
    counting_bound,
    min_compression_certificate,
    star_biclique_scheme,
)
from conceptlab.constructions import (
    Graph,
    biclique_class,
    complete_graph,
    star_partition,
    unique_label_disambiguation,
)
from conceptlab.errors import BudgetError
from conceptlab.lowerbound import (
    Coloring,
    chromatic_number,
    extract_coloring,
    pipeline_certificate,
)


class TestChromaticNumber:
    def test_complete_graphs(self):
        for t in range(2, 8):
            assert chromatic_number(complete_graph(t)) == t

    def test_single_edge(self):
        assert chromatic_number(Graph(2, frozenset({(0, 1)}))) == 2

    def test_five_cycle(self):
        c5 = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)}))
        assert chromatic_number(c5) == 3

    def test_edgeless_and_empty(self):
        assert chromatic_number(Graph(4, frozenset())) == 1
        assert chromatic_number(Graph(0, frozenset())) == 0

    def test_vertex_guard(self):
        with pytest.raises(BudgetError):
            chromatic_number(Graph(13, frozenset()))

    def test_twelve_vertices_at_the_cap(self):
        assert chromatic_number(complete_graph(12)) == 12
        cycle11 = frozenset((i, (i + 1) % 11) for i in range(11))
        assert chromatic_number(Graph(12, cycle11)) == 3
        k66 = frozenset((u, v) for u in range(6) for v in range(6, 12))
        assert chromatic_number(Graph(12, k66)) == 2

    def test_matches_bruteforce_on_small_graphs(self):
        # every graph on 4 vertices, plus a few 5-vertex ones
        all_edges4 = list(itertools.combinations(range(4), 2))
        for bits in range(1 << len(all_edges4)):
            edges = frozenset(
                e for j, e in enumerate(all_edges4) if (bits >> j) & 1
            )
            got = chromatic_number(Graph(4, edges))
            want = oracles.chromatic_number_bruteforce(4, edges)
            assert got == want, edges
        some5 = [
            frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}),
            frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)}),
        ]
        for edges in some5:
            assert chromatic_number(
                Graph(5, edges)
            ) == oracles.chromatic_number_bruteforce(5, edges)


    def test_matches_bruteforce_on_random_six_and_seven_vertex_graphs(self):
        rng = random.Random(67)
        for _ in range(40):
            n = rng.choice((6, 7))
            density = rng.random()
            edges = frozenset(
                e for e in itertools.combinations(range(n), 2)
                if rng.random() < density
            )
            assert chromatic_number(
                Graph(n, edges)
            ) == oracles.chromatic_number_bruteforce(n, edges), edges


class TestExtractColoring:
    def test_unique_label_pipeline_colors_k3(self):
        part = star_partition(3)
        disamb = unique_label_disambiguation(biclique_class(part))
        coloring = extract_coloring(part, disamb, {v: v for v in range(3)})
        assert coloring.is_proper()
        assert coloring.n_colors() == 3

    def test_matches_chromatic_number_up_to_k6(self):
        for t in range(3, 7):
            part = star_partition(t)
            disamb = unique_label_disambiguation(biclique_class(part))
            coloring = extract_coloring(part, disamb, {v: v for v in range(t)})
            assert coloring.is_proper()
            assert coloring.n_colors() == chromatic_number(part.graph) == t

    def test_single_edge_graph_two_colors(self):
        part = star_partition(2)
        disamb = unique_label_disambiguation(biclique_class(part))
        coloring = extract_coloring(part, disamb, {0: 0, 1: 1})
        assert coloring.n_colors() == 2

    def test_assignment_must_disambiguate(self):
        part = star_partition(3)
        disamb = unique_label_disambiguation(biclique_class(part))
        with pytest.raises(ValueError):
            extract_coloring(part, disamb, {0: 1, 1: 0, 2: 2})

    def test_assignment_must_cover_all_vertices(self):
        part = star_partition(3)
        disamb = unique_label_disambiguation(biclique_class(part))
        with pytest.raises(ValueError):
            extract_coloring(part, disamb, {0: 0, 1: 1})


class TestColoring:
    def test_proper_detection(self):
        g = Graph(3, frozenset({(0, 1), (1, 2)}))
        assert Coloring(g, (0, 1, 0)).is_proper()
        assert not Coloring(g, (0, 0, 1)).is_proper()


class TestPipelineCertificate:
    def test_star_scheme_t3(self):
        report = pipeline_certificate(3, star_biclique_scheme(3), 1, 1)
        assert report.ok
        assert report.scheme_valid
        assert report.disambiguation_size == 3
        assert report.chromatic_floor == 3
        assert report.counting_ceiling == counting_bound(2, 2, 1, 1)
        assert report.size_ge_floor and report.size_le_ceiling

    def test_star_scheme_t4(self):
        report = pipeline_certificate(4, star_biclique_scheme(4), 1, 1)
        assert report.ok
        assert report.disambiguation_size == 4
        assert report.chromatic_floor == 4

    def test_undersized_key_spaces_reported_infeasible(self):
        report = pipeline_certificate(4, star_biclique_scheme(4), 0, 0)
        assert not report.feasible
        assert report.ok
        assert report.counting_ceiling == 1
        assert report.disambiguation_size is None

    def test_infeasibility_cross_checked_by_the_exact_oracle(self):
        for t in (3, 4):
            n = t - 1
            cls = biclique_class(star_partition(t))
            for k, bits in ((0, 0), (0, 1)):
                if counting_bound(n, 2, k, bits) < t:
                    assert min_compression_size(cls, n, bits) > k

    def test_t2_with_a_one_bit_table_scheme(self):
        cls = biclique_class(star_partition(2))
        k, table = min_compression_certificate(cls, 1, 1)
        assert k == 0
        report = pipeline_certificate(2, table.as_scheme(), 0, 1)
        assert report.ok
        assert report.chromatic_floor == 2
        assert report.disambiguation_size >= 2

    def test_invalid_scheme_is_flagged(self):
        report = pipeline_certificate(4, star_biclique_scheme(3), 1, 1)
        assert report.feasible
        assert report.scheme_valid is False
        assert not report.ok

    def test_scheme_bug_propagates(self):
        # only a contract violation is a verdict; any other exception from
        # the scheme is a bug and must not be reported as scheme_valid False
        star = star_biclique_scheme(4)

        def compress(sample):
            raise ValueError("bug")

        broken = CompressionScheme("broken", compress, star.reconstruct)
        with pytest.raises(ValueError, match="bug"):
            pipeline_certificate(4, broken, 1, 1)
