import random
from itertools import combinations

import pytest

from oracles import brute_sdr_exists, is_pinned
from transversal import core, hypersdr
from transversal.errors import ResourceLimitError, ValidationError


def family(vertices, *edge_lists):
    return hypersdr.HypergraphFamily(vertices, list(edge_lists))


def singleton_encoding(ground, sets):
    return family(ground, *[[[x] for x in s] for s in sets])


class TestIsPinned:
    def test_shared_vertex(self):
        assert is_pinned([{1, 2}], [{2, 3}])

    def test_disjoint(self):
        assert not is_pinned([{1, 2}], [{3, 4}])

    def test_vacuous(self):
        assert is_pinned([], [{1, 2}])
        assert is_pinned([], [])


class TestAhCondition:
    def test_duplicated_pair_fails(self):
        holds, witness = hypersdr.ah_condition(family([1, 2], [[1, 2]], [[1, 2]]))
        assert not holds
        assert witness == (0, 1)

    def test_singleton_encoding_of_sdr_family(self):
        fam = singleton_encoding([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
        assert hypersdr.ah_condition(fam) == (True, None)
        assert isinstance(
            core.hall_check(core.SetFamily([1, 2, 3], [[1, 2], [2, 3], [3, 1]])),
            core.Sdr,
        )

    def test_empty_family(self):
        assert hypersdr.ah_condition(family([1])) == (True, None)

    def test_edgeless_member_fails_alone(self):
        holds, witness = hypersdr.ah_condition(family([1], [[1]], []))
        assert not holds and witness == (1,)

    def test_ceiling(self):
        big = family([1, 2], *[[[1], [2], [1, 2]] for _ in range(5)])
        with pytest.raises(ResourceLimitError):
            hypersdr.ah_condition(big)
        wide = family([1], *[[[1]] * 7 for _ in range(2)])
        with pytest.raises(ResourceLimitError):
            hypersdr.ah_condition(wide)


class TestFindHyperSdr:
    def test_basic_selection(self):
        fam = family([1, 2, 3, 4], [[1, 2], [3, 4]], [[1, 2]])
        result = hypersdr.find_hyper_sdr(fam)
        assert result is not None
        assert result.selection == (frozenset({3, 4}), frozenset({1, 2}))
        assert hypersdr.validate_hyper_sdr(fam, result) == (True, None)

    def test_intersecting_pair(self):
        assert hypersdr.find_hyper_sdr(family([1, 2], [[1, 2]], [[1, 2]])) is None

    def test_singleton_encoding_mirrors_hall(self):
        sets = [[1, 2], [2, 3], [3, 1]]
        fam = singleton_encoding([1, 2, 3], sets)
        result = hypersdr.find_hyper_sdr(fam)
        assert result is not None
        reps = tuple(next(iter(e)) for e in result.selection)
        assert core.validate_sdr(core.SetFamily([1, 2, 3], sets), reps) == (True, None)

    def test_empty_family(self):
        assert hypersdr.find_hyper_sdr(family([1])) == hypersdr.HyperSdr(())


class TestSufficiency:
    def test_sufficiency_on_sample(self):
        rng = random.Random(1009)
        vertices = [1, 2, 3, 4, 5]
        pool = [frozenset(c) for k in (1, 2, 3) for c in combinations(vertices, k)]
        for _ in range(400):
            m = rng.randint(0, 3)
            lists = [
                [sorted(e) for e in rng.sample(pool, rng.randint(1, 3))] for _ in range(m)
            ]
            fam = family(vertices, *lists)
            holds, witness = hypersdr.ah_condition(fam)
            found = hypersdr.find_hyper_sdr(fam)
            if holds:
                assert found is not None
            if found is not None:
                assert hypersdr.validate_hyper_sdr(fam, found) == (True, None)
            else:
                assert not holds

    def test_condition_is_not_necessary(self):
        # an SDR exists although one subfamily's matchings are all pinnable
        fam = family([1, 2, 3, 4], [[1, 2], [2, 3]], [[3, 4]])
        found = hypersdr.find_hyper_sdr(fam)
        assert found is not None
        assert hypersdr.validate_hyper_sdr(fam, found) == (True, None)
        holds, witness = hypersdr.ah_condition(fam)
        assert not holds
        assert witness == (0, 1)
