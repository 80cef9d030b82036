import random
import time
from itertools import combinations

import pytest

from oracles import (all_poset_masks, brute_longest_chain, brute_max_antichain, chromatic_table,
                     clique_table, comparability_graph, exhaustive_chromatic_table,
                     hall_from_dilworth, table_is_perfect, warshall_closure)
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

    def test_closure_matches_warshall_on_repeated_shuffled_pairs(self):
        """Successor lists take pairs in any order, repeated or not, and
        close to what Warshall's loop makes of the successor masks."""
        rng = random.Random(1952)
        for _ in range(300):
            n = rng.randint(0, 12)
            order = rng.sample(range(n), n)
            pairs = [(order[i], order[j]) for i, j in combinations(range(n), 2)
                     if rng.random() < 0.25]
            pairs += rng.choices(pairs, k=len(pairs) // 2)
            rng.shuffle(pairs)
            succ = [0] * n
            for a, b in pairs:
                succ[a] |= 1 << b
            assert posets.Poset(range(n), pairs)._above == warshall_closure(succ)

    @pytest.mark.parametrize("elements, pairs, named", [
        ("abc", ["ab", "bc", "ca"], "a"),
        ("abcd", ["dc", "cb", "bd", "ab"], "b"),
        ("a", ["aa"], "a"),
        ("abc", ["cb", "ac", "bc", "ac"], "c"),
        ("abcde", ["ea", "ad", "de", "bc", "cb"], "a"),
        ("abc", ["ab", "bb", "ab"], "b"),
    ])
    def test_cycle_message(self, elements, pairs, named):
        """The element a cycle is named by: the walk enters successors in
        ascending order, so the order of the pairs does not change it."""
        for order in (pairs, pairs[::-1]):
            with pytest.raises(ValidationError) as info:
                posets.Poset(elements, [tuple(pair) for pair in order])
            assert str(info.value) == f"relation has a cycle through {named!r}"
            assert info.value.field == "less_than"

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
        status, payload, diagnostics = posets.dilworth(posets.Poset("abc", []))
        assert (status, diagnostics) == ("found", "3 chains")
        assert len(payload["chains"]) == 3 and len(payload["antichain"]) == 3

    def test_total_order(self):
        p = posets.Poset("abc", [("a", "b"), ("b", "c")])
        payload = posets.dilworth(p)[1]
        assert payload["chains"] == [["a", "b", "c"]]
        assert len(payload["antichain"]) == 1

    def test_divisibility(self):
        p = divisibility()
        payload = posets.dilworth(p)[1]
        assert len(payload["chains"]) == 3
        assert set(payload["antichain"]) == {4, 5, 6}
        assert posets.verify_dilworth(p, payload) == (True, None)

    def test_exhaustive_small(self):
        for above in all_poset_masks(4):
            p = poset_from_masks(above)
            payload = posets.dilworth(p)[1]
            assert posets.verify_dilworth(p, payload) == (True, None)  # as many chains
            assert len(payload["antichain"]) == brute_max_antichain(above, 4)

    def test_long_chain_from_json(self):
        """A 3000-element chain given by its 2999 covering pairs: the poset
        keeps its closure as one mask per element, not the 4.5 million
        comparable pairs."""
        labels = [f"e{k}" for k in range(3000)]
        p = posets.Poset.from_json({"elements": labels,
                                    "less_than": [list(pair) for pair in zip(labels, labels[1:])]})
        assert p.lt("e0", "e2999") and not p.lt("e2999", "e0")
        payload = posets.dilworth(p)[1]
        assert payload["chains"] == [labels]
        assert payload["antichain"] == ["e2999"]


class TestMirsky:
    def test_chain(self):
        p = posets.Poset("abc", [("a", "b"), ("b", "c")])
        status, payload, diagnostics = posets.mirsky(p)
        assert (status, diagnostics) == ("found", "3 antichain levels")
        assert len(payload["antichains"]) == 3 and len(payload["chain"]) == 3

    def test_antichain(self):
        payload = posets.mirsky(posets.Poset("abc", []))[1]
        assert len(payload["antichains"]) == 1 and len(payload["chain"]) == 1

    def test_divisibility(self):
        payload = posets.mirsky(divisibility())[1]
        assert len(payload["antichains"]) == 3
        assert payload["chain"] == [1, 2, 4]

    def test_exhaustive_small(self):
        for above in all_poset_masks(4):
            p = poset_from_masks(above)
            payload = posets.mirsky(p)[1]
            assert posets.verify_mirsky(p, payload) == (True, None)  # as many levels
            assert len(payload["chain"]) == brute_longest_chain(above, 4)


class TestVerifiers:
    def test_antichain_matches_pairwise_check(self):
        for above in all_poset_masks(4):
            p = poset_from_masks(above)
            for k in range(p.n + 1):
                for subset in combinations(p.elements, k):
                    pairwise = not any(p.comparable(a, b) for a, b in combinations(subset, 2))
                    assert posets._validate_antichain(p, subset)[0] == pairwise

    def test_chain_matches_pairwise_check(self):
        p = divisibility()
        for chain in ((1, 2, 4), (1, 3, 6), (2, 3), (4, 2), (1,), (), (1, 1)):
            ordered = all(p.lt(a, b) for a, b in zip(chain, chain[1:]))
            assert posets._validate_chain(p, chain)[0] == ordered

    @pytest.mark.parametrize("items", [("zz",), (1, "zz"), (1, [2])])
    def test_outsider_is_rejected_not_raised(self, items):
        p = divisibility()
        for check in (posets._validate_antichain, posets._validate_chain):
            ok, reason = check(p, items)
            assert not ok and "not an element" in reason

    def test_repeated_antichain_entry(self):
        assert posets._validate_antichain(divisibility(), (4, 4)) == (
            False, "antichain repeats an element")


class TestHallFromDilworth:
    def test_three_cycle(self):
        f = core.SetFamily([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
        result = hall_from_dilworth(f)
        assert result is not None
        assert core.verify_sdr(f, result) == (True, None)
        assert core.hall_check(f)[0] == "found"

    def test_disjoint_singletons(self):
        f = core.SetFamily([1, 2], [[1], [2]])
        assert hall_from_dilworth(f) == {"reps": [1, 2]}

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


def grid_graph(rows, cols):
    return Graph(range(rows * cols),
                 [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])


def complement_graph(g):
    present = {frozenset(e) for e in g.edges}
    return Graph(
        g.vertices,
        [e for e in combinations(g.vertices, 2) if frozenset(e) not in present],
    )


PERFECT = {"perfect": True, "berge": True, "witness": None}  # the payload of a perfect graph


def imperfect(witness):
    """The `perfect` payload that gives `witness` as an odd hole or antihole."""
    return {"perfect": False, "berge": False, "witness": witness}


class TestPerfection:
    def test_c5_imperfect_with_witness(self):
        status, payload, diagnostics = posets.is_perfect(cycle_graph(5))
        assert (status, diagnostics) == ("not-found", "imperfect; witness subgraph attached")
        assert payload["perfect"] is payload["berge"] is False
        assert set(payload["witness"]) == {0, 1, 2, 3, 4}

    def test_c4_perfect(self):
        assert posets.is_perfect(cycle_graph(4)) == (
            "found", {"perfect": True, "berge": True, "witness": None}, "graph is perfect")

    def test_comparability_graphs_perfect(self):
        for above in all_poset_masks(4):
            p = poset_from_masks(above)
            g = comparability_graph(p)
            assert posets.is_perfect(g)[1] == PERFECT

    def test_berge_c5(self):
        """Odd holes are witnesses the checker accepts."""
        for n in (5, 7):
            g = cycle_graph(n)
            payload = posets.is_perfect(g)[1]
            assert payload == imperfect(list(range(n)))
            assert posets.verify_perfect(g, payload) == (True, None)

    def test_berge_c7_complement(self):
        g = complement_graph(cycle_graph(7))
        assert posets.is_perfect(g)[1] == imperfect(list(range(7)))
        assert posets.verify_perfect(g, imperfect([3, 1, 4, 0, 5, 2, 6])) == (True, None)

    def test_berge_bipartite(self):
        g = Graph(range(8), [(i, j) for i in range(0, 8, 2) for j in range(1, 8, 2)])
        assert posets.is_perfect(g)[1] == PERFECT

    @pytest.mark.parametrize("g, witness", [
        (cycle_graph(4), [0, 1, 2, 3]),
        (cycle_graph(6), [0, 1, 2, 3, 4, 5]),
        (Graph(range(7), cycle_graph(7).edges + ((0, 3),)), list(range(7))),
        (Graph(range(6), cycle_graph(5).edges + ((0, 5),)), list(range(6))),
        (Graph(range(7), cycle_graph(5).edges + ((0, 5), (5, 6))), list(range(7))),
    ], ids=["C4", "C6", "chorded-C7", "C5-plus-one", "C5-plus-two"])
    def test_checker_refuses_what_is_no_odd_hole_or_antihole(self, g, witness):
        ok, reason = posets.verify_perfect(g, imperfect(witness))
        assert not ok and reason

    def test_agreement_up_to_five(self):
        """The search gives the subset tables' verdict and witness on every
        labelled graph of up to five vertices, and the checker accepts every
        witness."""
        for n in range(6):
            slots = list(combinations(range(n), 2))
            for bits in range(1 << len(slots)):
                edges = [slots[k] for k in range(len(slots)) if (bits >> k) & 1]
                g = Graph(range(n), edges)
                payload = posets.is_perfect(g)[1]
                assert payload == table_is_perfect(g)
                if not payload["perfect"]:
                    assert posets.verify_perfect(g, payload) == (True, None)

    def test_agreement_on_seeded_graphs(self):
        """Verdict and witness equal the subset tables' on 1500 seeded graphs
        of 1 to 10 vertices at densities 0.2 to 0.8."""
        rng = random.Random(1500)
        for _ in range(1500):
            n = rng.randint(1, 10)
            density = rng.uniform(0.2, 0.8)
            g = Graph(range(n), [e for e in combinations(range(n), 2) if rng.random() < density])
            assert posets.is_perfect(g)[1] == table_is_perfect(g), g.edges

    def test_chromatic_table_matches_exhaustive(self):
        """The clique-bounded table with its early stop equals the table of
        every colour class, on random graphs of up to 10 vertices."""
        rng = random.Random(2718)
        for _ in range(300):
            n = rng.randint(0, 10)
            density = rng.random()
            g = Graph(range(n), [e for e in combinations(range(n), 2) if rng.random() < density])
            adj = g.adjacency_masks()
            got = chromatic_table(adj, n, clique_table(adj, n))
            assert got == exhaustive_chromatic_table(adj, n), g.edges

    def test_ceiling(self):
        g = Graph(range(posets.PERFECT_CEILING + 1), [])
        with pytest.raises(ResourceLimitError, match="above the ceiling"):
            posets.is_perfect(g)

    def test_node_budget_refusal(self):
        """A raised ceiling lets a 64-vertex grid in, and the search refuses
        it within a second by its node budget, naming the nodes entered and
        the budget.  The 40-cycle is perfect at once, and its 40 vertices
        are no odd cycle for the checker."""
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError,
                           match=rf"entered {posets.PERFECT_BUDGET + 1} paths.*"
                                 rf"budget of {posets.PERFECT_BUDGET}"):
            posets.is_perfect(grid_graph(8, 8), ceiling=64)
        assert time.perf_counter() - start < 1.0
        ring = cycle_graph(40)
        assert posets.is_perfect(ring, ceiling=64)[1] == PERFECT
        ok, reason = posets.verify_perfect(ring, imperfect(list(range(40))))
        assert not ok and "40 vertices" in reason

    def test_graphs_at_the_ceiling(self):
        """Perfect graphs of PERFECT_CEILING vertices are answered, and of
        two odd holes of 23 vertices the one of least mask is the witness."""
        n = posets.PERFECT_CEILING
        assert posets.is_perfect(grid_graph(4, n // 4))[1] == PERFECT
        rng = random.Random(24)
        left = set(rng.sample(range(n), n // 2))
        bipartite = Graph(range(n), [(u, v) for u, v in combinations(range(n), 2)
                                     if (u in left) != (v in left) and rng.random() < 0.5])
        assert posets.is_perfect(bipartite)[1] == PERFECT
        hole = Graph(range(n), cycle_graph(23).edges + ((0, 23), (2, 23)))
        assert posets.is_perfect(hole)[1] == imperfect(list(range(23)))
