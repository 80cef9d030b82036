import random
from itertools import combinations, product

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
        assert core.hall_check(core.SetFamily([1, 2, 3], [[1, 2], [2, 3], [3, 1]]))[0] == "found"

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

    def test_ceiling_raises_the_edge_limit_only(self):
        """`ceiling` admits more edges; the subfamily limit is a constant."""
        wide = family([1], *[[[1]] * 7 for _ in range(2)])
        assert hypersdr.ah_condition(wide, ceiling=14) == (False, (0, 1))
        assert hypersdr.find_hyper_sdr(wide, ceiling=14) == (
            "not-found", {"witness": [0, 1]},
            "no SDR; sufficient condition fails at the attached subfamily")
        big = family([1, 2], *[[[1], [2], [1, 2]] for _ in range(5)])
        for search in (hypersdr.ah_condition, hypersdr.find_hyper_sdr):
            with pytest.raises(ResourceLimitError, match="4 hypergraphs"):
                search(big, ceiling=100)


class TestFindHyperSdr:
    def test_basic_selection(self):
        fam = family([1, 2, 3, 4], [[1, 2], [3, 4]], [[1, 2]])
        status, result, diagnostics = hypersdr.find_hyper_sdr(fam)
        assert (status, diagnostics) == ("found", "hypergraph SDR found")
        assert result == {"selection": [[3, 4], [1, 2]]}
        assert hypersdr.verify_hyper_sdr(fam, result) == (True, None)

    def test_intersecting_pair(self):
        status, result, _ = hypersdr.find_hyper_sdr(family([1, 2], [[1, 2]], [[1, 2]]))
        assert status == "not-found" and result == {"witness": [0, 1]}

    def test_singleton_encoding_mirrors_hall(self):
        sets = [[1, 2], [2, 3], [3, 1]]
        fam = singleton_encoding([1, 2, 3], sets)
        status, result, _ = hypersdr.find_hyper_sdr(fam)
        assert status == "found"
        reps = [e[0] for e in result["selection"]]
        assert core.verify_sdr(core.SetFamily([1, 2, 3], sets), {"reps": reps}) == (True, None)

    def test_empty_family(self):
        assert hypersdr.find_hyper_sdr(family([1]))[:2] == ("found", {"selection": []})


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
            status, found, _ = hypersdr.find_hyper_sdr(fam)
            # the first disjoint selection in listed edge order
            first = next((picks for picks in product(*(h.edges for h in fam.members))
                          if all(not a & b for a, b in combinations(picks, 2))), None)
            assert (status == "found") == (first is not None)
            if holds:
                assert status == "found"
            if status == "found":
                assert [frozenset(e) for e in found["selection"]] == list(first)
                assert hypersdr.verify_hyper_sdr(fam, found) == (True, None)
            else:
                assert not holds and found == {"witness": list(witness)}

    def test_condition_is_not_necessary(self):
        # an SDR exists although one subfamily's matchings are all pinnable
        fam = family([1, 2, 3, 4], [[1, 2], [2, 3]], [[3, 4]])
        status, found, _ = hypersdr.find_hyper_sdr(fam)
        assert status == "found"
        assert hypersdr.verify_hyper_sdr(fam, found) == (True, None)
        holds, witness = hypersdr.ah_condition(fam)
        assert not holds
        assert witness == (0, 1)


class TestVerifyHyperSdr:
    def test_repeated_vertex_refused(self):
        """A selected edge is read as a list of vertices, each once: ["1",
        "2", "2"] is not the edge {"1", "2"}, though its set is."""
        fam = family(["1", "2", "3"], [["1", "2"]])
        assert hypersdr.verify_hyper_sdr(fam, {"selection": [["1", "2"]]}) == (True, None)
        assert hypersdr.verify_hyper_sdr(fam, {"selection": [["1", "2", "2"]]}) == (
            False, "entry 0 repeats a vertex")
