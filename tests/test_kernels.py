"""DS kernels: degenerate inputs, the exhaustive-search guard, and
agreement between the two independent search routes."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conceptlab import _kernels


def random_patterns(rng, p, d, alphabet):
    p = min(p, alphabet**d)
    seen = set()
    while len(seen) < p:
        seen.add(tuple(rng.randrange(alphabet) for _ in range(d)))
    return sorted(seen)


def test_empty_and_degenerate_inputs():
    assert _kernels.ds_fixpoint([]) == []
    assert _kernels.ds_bruteforce_mask([]) == 0
    assert _kernels.ds_fixpoint([(0,)]) == []
    assert _kernels.ds_bruteforce_mask([(0,)]) == 0


def test_bruteforce_guard():
    pats = [(i,) for i in range(_kernels.BRUTEFORCE_MAX_PATTERNS + 1)]
    with pytest.raises(ValueError):
        _kernels.ds_bruteforce_mask(pats)


class TestRouteAgreement:
    def test_fixpoint_nonempty_iff_some_subset_valid(self):
        rng = random.Random(107)
        for _ in range(300):
            pats = random_patterns(
                rng, rng.randrange(1, 9), rng.randrange(1, 4), 3
            )
            fix = _kernels.ds_fixpoint(pats)
            mask = _kernels.ds_bruteforce_mask(pats)
            assert bool(fix) == bool(mask)

    def test_fixpoint_is_maximal_and_valid(self):
        rng = random.Random(109)
        for _ in range(200):
            pats = random_patterns(
                rng, rng.randrange(2, 9), rng.randrange(1, 4), 3
            )
            fix = set(_kernels.ds_fixpoint(pats))
            d = len(pats[0])
            # validity: every survivor has an i-neighbor among survivors
            for f in fix:
                for i in range(d):
                    assert any(
                        g in fix
                        and pats[g][i] != pats[f][i]
                        and all(
                            pats[g][j] == pats[f][j]
                            for j in range(d)
                            if j != i
                        )
                        for g in fix
                    )
            # maximality: every valid subset found by exhaustion is inside
            mask = _kernels.ds_bruteforce_mask(pats)
            if mask:
                chosen = {q for q in range(len(pats)) if (mask >> q) & 1}
                assert chosen <= fix

    def test_full_cubes_survive_whole(self):
        for d in (1, 2, 3):
            pats = sorted(itertools.product((0, 1), repeat=d))
            assert _kernels.ds_fixpoint(pats) == list(range(len(pats)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cube_less_one_pattern_is_empty(self, d):
        """Removing any pattern of the cube leaves no neighbor-closed set,
        whichever coordinate first leaves fewer than 2^d live."""
        cube = list(itertools.product((0, 1), repeat=d))
        for gone in cube:
            pats = [p for p in cube if p != gone]
            assert _kernels.ds_fixpoint(pats) == []
            assert oracles.ds_fixpoint_pairwise(pats) == []

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cube_plus_a_stray_keeps_the_cube(self, d):
        """A pattern differing from the cube everywhere has no neighbor, so
        exactly 2^d patterns stay live: the exit must not fire at 2^d.
        (At d = 1 any two patterns are neighbors, so no stray exists.)"""
        pats = sorted(itertools.product((0, 1), repeat=d)) + [(2,) * d]
        want = list(range(2**d))
        assert _kernels.ds_fixpoint(pats) == want
        assert oracles.ds_fixpoint_pairwise(pats) == want


@st.composite
def pattern_lists(draw):
    """Sorted distinct lists of at most 90 patterns, d from 1 to 6 and
    alphabets of 2-4; half of them contain a whole sub-cube, so that the
    fixpoint is often nonempty."""
    d = draw(st.integers(1, 6))
    label = st.integers(0, draw(st.integers(1, 3)))
    pats = draw(st.sets(st.tuples(*[label] * d), max_size=26))
    if draw(st.booleans()):
        sides = [draw(st.sets(label, min_size=2, max_size=2)) for _ in range(d)]
        pats |= set(itertools.product(*sides))
    return sorted(pats)


class TestBucketedFixpoint:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(pattern_lists())
    def test_matches_the_pairwise_oracle(self, pats):
        assert _kernels.ds_fixpoint(pats) == oracles.ds_fixpoint_pairwise(pats)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(pattern_lists())
    def test_nonempty_result_has_two_to_the_d_survivors(self, pats):
        """The lemma behind the counting prune in ``ds_shatters``."""
        survivors = _kernels.ds_fixpoint(pats)
        if survivors:
            assert len(survivors) >= 2 ** len(pats[0])
