"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is pinned here; derived values were computed by the
independent oracles in ``oracles.py`` or by exhaustive search and frozen.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import oracles
from helpers import dual_dimension, min_compression_size
from conceptlab.cli import report_table
from conceptlab.compression import (
    _KeySpace,
    _find_assignment,
    boosted_scheme,
    counting_bound,
    min_compression_certificate,
    star_biclique_scheme,
    to_binary_class,
    verify_scheme,
)
from conceptlab.constructions import (
    biclique_class,
    disjoint_pairs_family,
    graph_dim_blowup_example,
    haussler_long_class,
    star_partition,
    unique_label_disambiguation,
)
from conceptlab.core import (
    STAR,
    ClassKind,
    ConceptClass,
    enumerate_realizable_samples,
    union_disjoint,
)
from conceptlab.dimensions import (
    ShatterKind,
    dimension,
    ds_shatters,
    ds_shatters_bruteforce,
    g_shatters,
    n_shatters,
    vc_shatters,
)
from conceptlab.lowerbound import pipeline_certificate


@contextmanager
def criterion(number: int, name: str, limit_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:02d}] {name}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:02d}] {name}: PASS ({elapsed:.1f}s)")
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            f"criterion {number} exceeded its {limit_seconds}s budget "
            f"({elapsed:.1f}s)"
        )


def test_criterion_01_ds_preserved_under_disambiguation():
    with criterion(1, "ds-preservation under unique labels", 10.0):
        u = union_disjoint(
            [biclique_class(star_partition(t)) for t in (3, 4, 5, 6)]
        )
        assert dimension(u, ShatterKind.DS).value == 1
        d = unique_label_disambiguation(u)
        assert dimension(d, ShatterKind.DS).value == 1


def test_criterion_02_biclique_classes_have_ds_one():
    with criterion(2, "biclique classes DS == 1 for t in 3..7", 10.0):
        for t in range(3, 8):
            cls = biclique_class(star_partition(t))
            result = dimension(cls, ShatterKind.DS)
            assert result.value == 1, t
            assert result.witness.verify(cls)


def test_criterion_03_dual_ds_blowup():
    with criterion(3, "private-pairs family: primal DS tiny, dual DS == rows", 30.0):
        for rows in range(1, 5):
            fam = disjoint_pairs_family(rows)
            primal = dimension(fam, ShatterKind.DS).value
            assert primal == (0 if rows == 1 else 1), rows
            full = oracles.naive_dimension(
                fam.concepts,
                fam.domain_size,
                lambda concepts, combo: ds_shatters(fam, combo) is not None,
            )
            assert full == primal
            assert dual_dimension(fam, ShatterKind.DS) == rows


def test_criterion_04_worked_pair_dimensions():
    with criterion(4, "worked pair: partial DS 0, total graph dim 3"):
        partial, total = graph_dim_blowup_example()
        assert dimension(partial, ShatterKind.DS).value == 0
        result = dimension(total, ShatterKind.GRAPH)
        assert result.value == 3
        assert result.witness.anchor == (0, 0, 0)
        assert result.witness.verify(total)


def test_criterion_05_bounded_support_family():
    with criterion(5, "bounded-support class: size formula and Natarajan dim"):
        for m, c, d in ((2, 3, 1), (3, 3, 2), (4, 2, 2), (3, 4, 3)):
            cls = haussler_long_class(m, c, d)
            expected = sum(math.comb(m, i) * (c - 1) ** i for i in range(d + 1))
            assert cls.n_concepts == expected, (m, c, d)
            assert dimension(cls, ShatterKind.NATARAJAN).value == d, (m, c, d)
            if m == d:
                assert cls.n_concepts == c**d


def test_criterion_06_binary_reduction_preserves_graph_dimension():
    with criterion(6, "indicator reduction: VC equals graph dimension"):
        cases = (
            graph_dim_blowup_example()[1],
            haussler_long_class(3, 3, 2),
            unique_label_disambiguation(biclique_class(star_partition(4))),
        )
        for cls in cases:
            binary = to_binary_class(cls)
            assert (
                dimension(binary, ShatterKind.VC).value
                == dimension(cls, ShatterKind.GRAPH).value
            )


def test_criterion_07_boosted_scheme_validity(tmp_path):
    with criterion(7, "boosted scheme verifies exhaustively", 120.0):
        reports = []
        hl = haussler_long_class(4, 2, 1)
        scheme = boosted_scheme(hl)
        for m in range(2, 7):
            report = verify_scheme(hl, scheme, m)
            assert report.valid, (m, report.failures[:3])
            reports.append(report)
        _, total = graph_dim_blowup_example()
        scheme_total = boosted_scheme(total)
        for m in (2, 3, 4):
            report = verify_scheme(total, scheme_total, m)
            assert report.valid, (m, report.failures[:3])
        table = report_table(reports)
        (tmp_path / "boosted_k_of_m.csv").write_text(table, encoding="utf-8")
        print(table, end="")


def test_criterion_08_compression_monotonic_under_disambiguation():
    with criterion(8, "schemes for disambiguations serve the partial class"):
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


def test_criterion_09_exact_compression_oracle():
    with criterion(9, "exact minimum compression size", 60.0):
        brute = oracles.min_compression_bruteforce
        singleton = ConceptClass(2, ((0, 1),), ClassKind.TOTAL)
        assert min_compression_size(singleton, 2, 0) == 0
        assert brute(singleton.concepts, 2, 1, 0) == 0

        two_constants = ConceptClass(2, ((0, 0), (1, 1)), ClassKind.TOTAL)
        k, table = min_compression_certificate(two_constants, 2, 0)
        assert k == 1
        assert verify_scheme(two_constants, table.as_scheme(), 2).valid
        samples = list(enumerate_realizable_samples(two_constants, 2))
        assert _find_assignment(_KeySpace(samples, 0), 0) is None
        assert brute(two_constants.concepts, 2, 1, 0) == 1

        cube = haussler_long_class(2, 2, 2)
        k, table = min_compression_certificate(cube, 2, 0)
        replay = verify_scheme(cube, table.as_scheme(), 2)
        cube_samples = list(enumerate_realizable_samples(cube, 2))
        refuted_below = _find_assignment(_KeySpace(cube_samples, 0), 0) is None
        oracle_k0 = brute(cube.concepts, 2, 0, 0)
        oracle_k1 = brute(cube.concepts, 2, 1, 0)
        print(
            f"  cube oracle: k={k}, certificate replay valid={replay.valid}; "
            f"the stated value 2 is refuted by this replaying k={k} "
            f"certificate; k=0 refuted by _find_assignment={refuted_below}, "
            f"by the brute-force oracle={oracle_k0 is None}"
        )
        # k=1: keys (0,0),(0,1),(1,0),(1,1) reconstruct (0,0),(1,1),(1,0),(0,1)
        # k=0: no one concept fits both [(0,0),(0,0)] and [(0,1),(0,1)]
        assert k == 1
        assert replay.valid is True and replay.k_of_m <= 1
        assert refuted_below
        assert oracle_k0 is None and oracle_k1 == 1
        assert brute(cube.concepts, 3, 1, 0) == 1


def test_criterion_10_pipeline_certificates():
    with criterion(10, "coloring floor and counting ceiling on K_3, K_4"):
        for t in (3, 4):
            scheme = star_biclique_scheme(t)
            report = pipeline_certificate(t, scheme, 1, 1)
            assert report.feasible and report.scheme_valid
            assert report.disambiguation_size >= t
            assert report.disambiguation_size <= report.counting_ceiling
            assert report.counting_ceiling == counting_bound(t - 1, 2, 1, 1)
            assert report.ok
        # undersized key spaces: reported infeasible a priori and confirmed
        # by the exact oracle
        infeasible = [(3, 0, 0), (4, 0, 0), (4, 0, 1)]
        for t, k, bits in infeasible:
            assert counting_bound(t - 1, 2, k, bits) < t
            report = pipeline_certificate(t, star_biclique_scheme(t), k, bits)
            assert report.feasible is False and report.ok
            cls = biclique_class(star_partition(t))
            assert min_compression_size(cls, t - 1, bits) > k


def test_criterion_11_oracle_equivalence_sweep():
    with criterion(11, "pruning vs exhaustive subsets"):
        values = (0, 1, STAR)
        subsets = {
            n: [
                combo
                for r in range(1, n + 1)
                for combo in itertools.combinations(range(n), r)
            ]
            for n in (1, 2, 3, 4)
        }
        classes_checked = 0
        for n in (1, 2, 3):
            all_concepts = list(itertools.product(values, repeat=n))
            for k in range(1, min(6, len(all_concepts)) + 1):
                for combo in itertools.combinations(all_concepts, k):
                    cls = ConceptClass(n, combo, ClassKind.PARTIAL)
                    classes_checked += 1
                    for s in subsets[n]:
                        fast = ds_shatters(cls, s) is not None
                        slow = ds_shatters_bruteforce(cls, s) is not None
                        assert fast == slow, (combo, s)
        print(f"  exhaustive sweep: {classes_checked} classes")
        rng = random.Random(2024)
        from conceptlab.random_classes import random_partial_class

        for _ in range(1000):
            cls = random_partial_class(
                rng, 4, rng.randrange(2, 9), rng.randrange(2, 4)
            )
            for s in subsets[4]:
                fast = ds_shatters(cls, s) is not None
                slow = ds_shatters_bruteforce(cls, s) is not None
                assert fast == slow, (cls.concepts, s)


def test_criterion_12_monotonicity_and_ordering():
    with criterion(12, "shattering monotone, d_N <= d_G, binary agreement"):
        rng = random.Random(4099)
        from conceptlab.random_classes import random_total_class

        checkers = {
            ShatterKind.DS: ds_shatters,
            ShatterKind.NATARAJAN: n_shatters,
            ShatterKind.GRAPH: g_shatters,
        }
        subsets = [
            combo
            for r in range(1, 5)
            for combo in itertools.combinations(range(4), r)
        ]
        for i in range(500):
            binary = i >= 300
            cls = random_total_class(
                rng, 4, rng.randrange(2, 8), 2 if binary else rng.randrange(2, 5)
            )
            active = dict(checkers)
            if binary:
                active[ShatterKind.VC] = vc_shatters
            shattered = {
                kind: {s for s in subsets if check(cls, s) is not None}
                for kind, check in active.items()
            }
            for kind, family in shattered.items():
                for s in family:
                    if len(s) > 1:
                        for sub in itertools.combinations(s, len(s) - 1):
                            assert sub in family, (kind, cls.concepts, s)
            dn = dimension(cls, ShatterKind.NATARAJAN).value
            dg = dimension(cls, ShatterKind.GRAPH).value
            assert dn <= dg
            if binary:
                values = {
                    dimension(cls, kind).value
                    for kind in (
                        ShatterKind.VC,
                        ShatterKind.DS,
                        ShatterKind.NATARAJAN,
                        ShatterKind.GRAPH,
                    )
                }
                assert len(values) == 1, cls.concepts
