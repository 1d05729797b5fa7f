"""Coloring extraction, exact chromatic number, and the composed
counting-ceiling / chromatic-floor certificate."""

import itertools
import random

import pytest

import oracles
from helpers import min_compression_size
from conceptlab.compression import (
    CompressionKey,
    CompressionScheme,
    counting_bound,
    min_compression_certificate,
    star_biclique_scheme,
    verify_scheme,
)
from conceptlab.constructions import (
    Graph,
    biclique_class,
    complete_graph,
    star_partition,
    unique_label_disambiguation,
)
from conceptlab.core import STAR, ClassKind, ConceptClass, Sample
from conceptlab.errors import BudgetError, ContractViolationError, RealizabilityError
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


def one_size_at_a_time(t, scheme):
    """``scheme_valid`` as the pipeline decided it one size at a time:
    every size valid in ascending order, a contract violation counting as
    invalid and any other exception propagating."""
    partial = biclique_class(star_partition(t))
    try:
        return all(
            verify_scheme(partial, scheme, m).valid is True for m in range(1, t)
        )
    except ContractViolationError:
        return False


def logged(compress, log, raises=None, rogue=None):
    """A compress that logs the entries of every sample it is given, raises
    ``raises[key]`` on a sample whose size or entries are the key, and
    returns the key ``rogue[entries]`` (an entry the sample lacks) on the
    sample with those entries."""
    raises = raises or {}
    rogue = rogue or {}

    def wrapped(sample):
        log.append(sample.entries)
        for key in (len(sample), sample.entries):
            if key in raises:
                raise raises[key]
        if sample.entries in rogue:
            return CompressionKey(Sample(rogue[sample.entries]), "")
        return compress(sample)

    return wrapped


class TestPipelineSizeSemantics:
    """``pipeline_certificate`` replays sizes 1..n from one walk, in which a
    larger sample can come before a smaller one; its answer must be the one
    that checking one size at a time, in ascending order, gives.  On K_4
    the walk starts ((0, 0),), ((0, 0), (0, 0)), ((0, 0),) * 3, ..., and the
    size-1 sample ((1, 1),) comes after several larger ones."""

    STAR4 = star_biclique_scheme(4)

    def scheme(self, log, **kwargs):
        return CompressionScheme(
            "hand-made", logged(self.STAR4.compress, log, **kwargs),
            self.STAR4.reconstruct,
        )

    def test_failure_at_size_1_beats_an_exception_at_size_2(self):
        log = []
        scheme = self.scheme(
            log, raises={2: RuntimeError("size 2")}, rogue={((1, 1),): ((0, 0),)}
        )
        assert one_size_at_a_time(4, scheme) is False
        log.clear()
        report = pipeline_certificate(4, scheme, 1, 1)
        assert report.scheme_valid is False and not report.ok
        # the size-2 exception came first in the walk
        assert log[1] == ((0, 0), (0, 0))

    def test_exception_at_size_2_beats_a_failure_at_size_3(self):
        log = []
        late = ((1, 1), (2, 0))
        scheme = self.scheme(
            log,
            raises={late: ValueError("size 2")},
            rogue={((0, 0),) * 3: ((1, 1),)},
        )
        with pytest.raises(ValueError, match="size 2"):
            one_size_at_a_time(4, scheme)
        log.clear()
        with pytest.raises(ValueError, match="size 2"):
            pipeline_certificate(4, scheme, 1, 1)
        # the size-3 failure came first in the walk
        assert log.index(((0, 0),) * 3) < log.index(late)

    def test_contract_violation_at_size_2_is_a_verdict(self):
        star = self.STAR4

        def compress(sample):
            key = star.compress(sample)
            return CompressionKey(key.subsample, "1" if len(sample) == 2 else "")

        def reconstruct(key):
            return (STAR,) * 3 if key.bits else star.reconstruct(key)

        scheme = CompressionScheme("hand-made", compress, reconstruct)
        assert one_size_at_a_time(4, scheme) is False
        report = pipeline_certificate(4, scheme, 1, 1)
        assert report.scheme_valid is False and not report.ok

    def test_no_larger_sample_is_compressed_after_a_failure(self):
        log = []
        scheme = self.scheme(log, rogue={((1, 1),): ((0, 0),)})
        assert one_size_at_a_time(4, scheme) is False
        log.clear()
        assert pipeline_certificate(4, scheme, 1, 1).scheme_valid is False
        after = log[log.index(((1, 1),)) + 1 :]
        assert after and all(len(entries) == 1 for entries in after)
        assert any(len(entries) > 1 for entries in log[: log.index(((1, 1),))])

    def test_table_scheme_of_one_size_is_invalid_at_the_others(self):
        # a table for size 1 raises RealizabilityError at size 2: the
        # pipeline propagates it, as one size at a time does
        cls = biclique_class(star_partition(3))
        _, table = min_compression_certificate(cls, 1, 1)
        with pytest.raises(RealizabilityError):
            one_size_at_a_time(3, table.as_scheme())
        with pytest.raises(RealizabilityError):
            pipeline_certificate(3, table.as_scheme(), 1, 1)

    def test_valid_schemes_agree_with_one_size_at_a_time(self):
        for t in (2, 3, 4, 5, 6):
            scheme = star_biclique_scheme(t)
            assert one_size_at_a_time(t, scheme) is True
            assert pipeline_certificate(t, scheme, 1, 1).scheme_valid is True


_K3 = star_partition(3)
# K_3's biclique class disambiguated: 3 total concepts over its 2 parts
_K3_TOTAL = unique_label_disambiguation(biclique_class(_K3))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: Coloring(complete_graph(2), (0,)),
            "one color per vertex required",
        ),
        (
            lambda: extract_coloring(_K3, biclique_class(_K3), {}),
            "disambiguation must be a total class",
        ),
        (
            lambda: extract_coloring(
                _K3, ConceptClass(1, ((0,), (1,)), ClassKind.TOTAL), {}
            ),
            "disambiguation domain must be the partition's part-index domain",
        ),
        (
            lambda: extract_coloring(_K3, _K3_TOTAL, {0: 0, 1: 3, 2: 2}),
            "assignment of vertex 1 is out of range: 3",
        ),
    ],
    ids=["coloring-length", "extract-partial", "extract-domain", "extract-range"],
)
def test_error_branches(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
