import random
from itertools import combinations

import pytest

from oracles import (all_poset_masks, brute_longest_chain, brute_max_antichain, comparability_graph,
                     hall_from_dilworth, warshall_closure)
from transversal import core, posets
from transversal.errors import ResourceLimitError, ValidationError
from transversal.graphs import Graph


def divisibility():
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 7) if a != b and b % a == 0]
    return posets.Poset(range(1, 7), pairs)


def poset_from_masks(above):
    n = len(above)
    pairs = [(i, j) for i in range(n) for j in range(n) if (above[i] >> j) & 1]
    return posets.Poset(range(n), pairs)


class TestPoset:
    def test_closure_from_hasse_pairs(self):
        p = posets.Poset("abc", [("a", "b"), ("b", "c")])
        assert p.lt("a", "c")

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            posets.Poset("ab", [("a", "b"), ("b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            posets.Poset("a", [("a", "a")])

    def test_json(self):
        p = posets.Poset.from_json({"elements": ["x", "y"], "less_than": [["x", "y"]]})
        assert p.lt("x", "y")

    def test_closure_matches_warshall(self):
        rng = random.Random(1950)
        for _ in range(300):
            n = rng.randint(0, 40)
            order = list(range(n))
            rng.shuffle(order)
            density = rng.choice((0.02, 0.1, 0.3))
            pairs = [(order[i], order[j]) for i, j in combinations(range(n), 2)
                     if rng.random() < density]
            p = posets.Poset(range(n), pairs)
            succ = [0] * n
            for a, b in pairs:
                succ[a] |= 1 << b
            assert p._above == warshall_closure(succ)

    def test_cycle_names_an_element_on_it(self):
        rng = random.Random(1951)
        rejected = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            pairs = [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.12]
            succ = [0] * n
            for a, b in pairs:
                succ[a] |= 1 << b
            closed = warshall_closure(succ)
            on_cycle = {i for i in range(n) if (closed[i] >> i) & 1}
            if not on_cycle:
                posets.Poset(range(n), pairs)
                continue
            rejected += 1
            with pytest.raises(ValidationError) as info:
                posets.Poset(range(n), pairs)
            assert info.value.field == "less_than"
            named = int(str(info.value).split("through ")[1])
            assert named in on_cycle
        assert rejected >= 100, rejected


class TestDilworth:
    def test_antichain_of_three(self):
        partition, antichain = posets.dilworth(posets.Poset("abc", []))
        assert len(partition) == 3 and len(antichain) == 3

    def test_total_order(self):
        p = posets.Poset("abc", [("a", "b"), ("b", "c")])
        partition, antichain = posets.dilworth(p)
        assert partition.chains == (("a", "b", "c"),)
        assert len(antichain) == 1

    def test_divisibility(self):
        p = divisibility()
        partition, antichain = posets.dilworth(p)
        assert len(partition) == 3
        assert set(antichain) == {4, 5, 6}
        assert posets.validate_chain_partition(p, partition) == (True, None)
        assert posets.validate_antichain(p, antichain) == (True, None)

    def test_exhaustive_small(self):
        for above in all_poset_masks(4):
            p = poset_from_masks(above)
            partition, antichain = posets.dilworth(p)
            assert posets.validate_chain_partition(p, partition) == (True, None)
            assert posets.validate_antichain(p, antichain) == (True, None)
            assert len(partition) == len(antichain) == brute_max_antichain(above, 4)


class TestMirsky:
    def test_chain(self):
        p = posets.Poset("abc", [("a", "b"), ("b", "c")])
        partition, chain = posets.mirsky(p)
        assert len(partition) == 3 and len(chain) == 3

    def test_antichain(self):
        partition, chain = posets.mirsky(posets.Poset("abc", []))
        assert len(partition) == 1 and len(chain) == 1

    def test_divisibility(self):
        partition, chain = posets.mirsky(divisibility())
        assert len(partition) == 3
        assert chain == (1, 2, 4)

    def test_exhaustive_small(self):
        for above in all_poset_masks(4):
            p = poset_from_masks(above)
            partition, chain = posets.mirsky(p)
            assert posets.validate_antichain_partition(p, partition) == (True, None)
            for a, b in zip(chain, chain[1:]):
                assert p.lt(a, b)
            assert len(partition) == len(chain) == brute_longest_chain(above, 4)


class TestVerifiers:
    def test_antichain_matches_pairwise_check(self):
        for above in all_poset_masks(4):
            p = poset_from_masks(above)
            for k in range(p.n + 1):
                for subset in combinations(p.elements, k):
                    pairwise = not any(p.comparable(a, b) for a, b in combinations(subset, 2))
                    assert posets.validate_antichain(p, subset)[0] == pairwise

    def test_chain_matches_pairwise_check(self):
        p = divisibility()
        for chain in ((1, 2, 4), (1, 3, 6), (2, 3), (4, 2), (1,), (), (1, 1)):
            ordered = all(p.lt(a, b) for a, b in zip(chain, chain[1:]))
            assert posets.validate_chain(p, chain)[0] == ordered

    @pytest.mark.parametrize("items", [("zz",), (1, "zz"), (1, [2])])
    def test_outsider_is_rejected_not_raised(self, items):
        p = divisibility()
        for check in (posets.validate_antichain, posets.validate_chain):
            ok, reason = check(p, items)
            assert not ok and "not an element" in reason

    def test_repeated_antichain_entry(self):
        assert posets.validate_antichain(divisibility(), (4, 4)) == (
            False, "antichain repeats an element")


class TestHallFromDilworth:
    def test_three_cycle(self):
        f = core.SetFamily([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
        result = hall_from_dilworth(f)
        assert result is not None
        assert core.validate_sdr(f, result.reps) == (True, None)
        assert isinstance(core.hall_check(f), core.Sdr)

    def test_disjoint_singletons(self):
        f = core.SetFamily([1, 2], [[1], [2]])
        assert hall_from_dilworth(f) == core.Sdr((1, 2))

    def test_no_sdr(self):
        assert hall_from_dilworth(core.SetFamily([1], [[1], [1]])) is None

    def test_empty_set_degenerates(self):
        assert hall_from_dilworth(core.SetFamily([1], [[1], []])) is None


class TestComparabilityGraph:
    def test_chain_gives_complete(self):
        p = posets.Poset("abc", [("a", "b"), ("b", "c")])
        g = comparability_graph(p)
        assert len(g.edges) == 3

    def test_antichain_gives_edgeless(self):
        p = posets.Poset("abc", [])
        assert comparability_graph(p).edges == ()
        assert len(comparability_graph(p, complement=True).edges) == 3

    def test_divisibility_edges(self):
        g = comparability_graph(divisibility())
        assert set(g.edges) == {(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 6), (3, 6)}


def cycle_graph(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complement_graph(g):
    present = {frozenset(e) for e in g.edges}
    return Graph(
        g.vertices,
        [e for e in combinations(g.vertices, 2) if frozenset(e) not in present],
    )


class TestPerfection:
    def test_c5_imperfect_with_witness(self):
        ok, witness = posets.is_perfect(cycle_graph(5))
        assert not ok
        assert set(witness) == {0, 1, 2, 3, 4}

    def test_c4_perfect(self):
        assert posets.is_perfect(cycle_graph(4)) == (True, None)

    def test_comparability_graphs_perfect(self):
        for above in all_poset_masks(4):
            p = poset_from_masks(above)
            g = comparability_graph(p)
            assert posets.is_perfect(g) == (True, None)

    def test_berge_c5(self):
        assert not posets.berge_check(cycle_graph(5))

    def test_berge_c7_complement(self):
        assert not posets.berge_check(complement_graph(cycle_graph(7)))

    def test_berge_bipartite(self):
        g = Graph(range(8), [(i, j) for i in range(0, 8, 2) for j in range(1, 8, 2)])
        assert posets.berge_check(g)

    def test_agreement_up_to_five(self):
        for n in range(6):
            slots = list(combinations(range(n), 2))
            for bits in range(1 << len(slots)):
                edges = [slots[k] for k in range(len(slots)) if (bits >> k) & 1]
                g = Graph(range(n), edges)
                perfect, _ = posets.is_perfect(g)
                assert perfect == posets.berge_check(g)

    def test_ceiling(self):
        g = Graph(range(11), [])
        with pytest.raises(ResourceLimitError):
            posets.is_perfect(g)
        with pytest.raises(ResourceLimitError):
            posets.berge_check(g)

    def test_table_ceiling_before_allocation(self):
        """A raised ceiling still refuses by the 2^40-entry tables it would
        need, and the refusal names them and the table ceiling."""
        g = cycle_graph(40)
        with pytest.raises(ResourceLimitError, match=r"2\^40 entries.*1048576"):
            posets.is_perfect(g, ceiling=64)
        with pytest.raises(ResourceLimitError, match=r"2\^40 entries"):
            posets.verify_perfect(g, {"witness": list(range(40))}, ceiling=64)

    def test_table_ceiling_refuses_21_vertices(self):
        assert posets.TABLE_CEILING == 1 << 20 > 1 << posets.PERFECT_CEILING
        with pytest.raises(ResourceLimitError, match="table ceiling"):
            posets.is_perfect(Graph(range(21), []), ceiling=21)
